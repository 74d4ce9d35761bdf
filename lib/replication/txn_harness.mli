(** Scenario runner for the transaction layer: closed-loop clients execute
    read-modify-write {e increment transactions} over a small key space,
    with crash/recovery and message-loss injection.

    Every transaction reads [keys_per_txn] distinct counters and writes
    each back incremented by one.  Strict 2PL makes a committed increment
    add exactly one, so the scenario carries a checkable invariant:

    {v  Σ committed increments ≤ Σ final counter values
                                ≤ Σ committed + Σ uncertain increments  v}

    where {e uncertain} counts transactions whose commit acks never all
    arrived (the classic 2PC in-doubt window, {!Txn.in_doubt}: their
    effects may or may not be visible).  [run] evaluates the invariant by
    reading every counter through a read quorum after healing all
    replicas and clearing message loss.

    The keyspace is partitioned by a {!Arbitrary.Shard_map} over [shards]
    tree instances (each with its own protocol, network and replicas)
    driven through one sharded {!Txn} manager per client; keys are drawn
    from distinct shards round-robin, so with S >= 2 transactions span
    shards and the invariant becomes an {e atomicity} check.  With 2PC's
    cross-shard all-prepared barrier intact ([atomic = true]) it holds
    through per-shard crash schedules; the negative control
    ([atomic = false]: every shard's leg commits independently) leaves
    partially-applied transactions whose phantom increments push the
    observed total above the bound. *)

type scenario = {
  proto : Quorum.Protocol.t;  (** per-shard tree *)
  n_clients : int;
  txns_per_client : int;
  keys_per_txn : int;
  key_space : int;
  latency : Dsim.Latency.t;
  loss_rate : float;
  think_time : float;
  failures : Dsim.Failure.entry list;  (** shard 0's failure schedule *)
  seed : int;
  config : Txn.config;
  horizon : float;
  shards : int;  (** tree instances S (>= 1) *)
  strategy : Arbitrary.Shard_map.strategy;
  atomic : bool;
      (** [false] disables the cross-shard prepare barrier (negative
          control) *)
  shard_failures : (int * Dsim.Failure.entry list) list;
      (** per-shard failure schedules, applied after [failures] *)
  shard_loss : (int * float) list;
      (** per-shard message-loss override (negative-control fuel: a lossy
          shard's legs fail while its reads sometimes still succeed) *)
}

val default_scenario : proto:Quorum.Protocol.t -> scenario
(** 3 clients × 30 transactions, 2 keys/txn over 6 keys, one tree,
    atomic, no failures. *)

type report = {
  committed : int;
  aborted : int;
  uncertain : int;  (** aborted with in-doubt commit acks *)
  partial_commits : int;
      (** aborts of the non-atomic control ({!Txn.partial}) — always 0
          when [atomic] *)
  committed_increments : int;
  uncertain_increments : int;
  observed_total : int;  (** Σ final counter values across all shards *)
  conservation_ok : bool;
  cross_shard_txns : int;  (** transactions whose keys spanned ≥2 shards *)
  duration : float;
}

val run : ?obs:Obs.t -> scenario -> report
(** With [obs], the harness points its clock at the engine, registers the
    network counters, and traces every transaction ([txn] spans) and the
    RPC operations underneath ([rpc.read] / [rpc.write]).  The final
    tallying quorum reads run on uninstrumented endpoints so span
    accounting covers exactly the workload's operations. *)

val pp_report : Format.formatter -> report -> unit
