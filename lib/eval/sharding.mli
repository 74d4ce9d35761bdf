(** Shard-scaling campaign: the multi-tree control plane under a
    saturating workload.

    Every cell runs the same closed-loop workload (32 clients, 1024
    operations, 50/50 mix over 1024 keys) against S tree instances of
    {!Replication.Harness} ({!Replication.Harness.sharding}) with a
    per-replica service cost, so single-tree throughput saturates
    on the root replica and shard-count scaling is measurable in virtual
    time.  Five cell families:

    - {b scaling}: each §4 arbitrary-protocol configuration at
      S ∈ {1, 4, 16, 64}, uniform keys.  [speedup] is
      duration(S=1)/duration(S) within a configuration; the gate requires
      ≥ 0.7 × ideal at S=16 on at least one configuration.
    - {b skew}: the same workload at S=16 under Zipfian keys (θ = 0.99):
      per-shard operation histograms and the max/mean imbalance report.
    - {b identity}: the S=1 control — a run with an explicit one-shard
      [sharding] must reproduce the run without one byte-for-byte
      ({!Batching.fingerprint} equality).
    - {b atomicity}: cross-shard increment transactions through a lossy
      shard, once with the 2PC barrier ([conserved], no partials) and
      once without (the negative control must leave phantom increments).
    - {b reconfig}: an online split plus merge mid-run — zero safety
      violations, a well-formed final map, no migration failures.

    Cells are independent and fan out over {!Parallel.map}; output is
    byte-identical for any domain count. *)

val configs : Arbitrary.Config.name list
(** The four §4 configurations of the arbitrary protocol. *)

val shard_counts : int list
(** [[1; 4; 16; 64]] *)

type scale_cell = {
  config : Arbitrary.Config.name;
  shards : int;
  n : int;  (** replicas per shard tree *)
  completed : int;
  duration : float;  (** virtual makespan *)
  throughput : float;  (** completed ops per unit virtual time *)
  violations : int;  (** online safety-checker hits *)
  speedup : float;  (** duration(S=1) / duration, same configuration *)
  efficiency : float;  (** speedup / shards *)
}

type skew_cell = {
  sk_config : Arbitrary.Config.name;
  sk_shards : int;
  theta : float;
  sk_completed : int;
  sk_violations : int;
  per_shard_ops : int array;
  imbalance_max : float;
  imbalance_mean : float;
  imbalance_ratio : float;  (** max/mean; 1.0 = perfectly balanced *)
}

type identity_cell = {
  id_config : Arbitrary.Config.name;
  fingerprint_sharded : string;
  fingerprint_unsharded : string;
  identical : bool;
}

type atomicity_cell = {
  atomic : bool;
  committed : int;
  aborted : int;
  uncertain : int;
  partial_commits : int;
  phantoms : int;
  lost : int;
  conserved : bool;
  cross_shard : int;
}

type reconfig_cell = {
  rc_completed : int;
  rc_violations : int;
  splits : int;
  merges : int;
  migrated_keys : int;
  migration_failures : int;
  well_formed : bool;
  active_shards : int list;
}

type campaign = {
  scaling : scale_cell list;
  skew : skew_cell list;
  identity : identity_cell;
  atomic_cell : atomicity_cell;
  nonatomic_cell : atomicity_cell;
  reconfig : reconfig_cell;
}

val run : ?seed:int -> ?domains:int -> unit -> campaign
(** Deterministic for a fixed seed; [domains] only fans the independent
    cells over cores. *)

val speedup_at : campaign -> shards:int -> float
(** Best speedup over the configurations at the given shard count. *)

type verdict = { pass : bool; failures : string list }

val gate : campaign -> verdict
(** The acceptance predicate: one scaling cell per configuration and
    shard count and one skew cell per configuration; scaling ≥ 0.7 ×
    ideal at S=16 on some configuration, with every S=1 speedup exactly
    1.0; zero safety violations and at least one completed operation in
    every scaling and skew cell; each skew cell reporting an S-entry
    per-shard histogram and an imbalance ratio ≥ 1; zero violations in
    the reconfig cell; the S=1 fingerprint control identical; the atomic
    transaction cell conserved with no partial commits; the non-atomic
    negative control showing phantom increments and breaking
    conservation; and the reconfiguration cell completing its split and
    merge with a well-formed map and no migration failures. *)

val json : campaign -> string
(** The [BENCH_shard.json] payload (schema ["bench-shard/1"]). *)

val table : campaign -> string
(** Scaling and skew tables plus the control one-liners. *)
