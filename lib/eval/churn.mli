(** §4-style membership-churn campaign: fault-injected provisioning,
    promotion and decommission over the four paper configurations.

    Each cell is one {!Replication.Harness} run with a
    {!Replication.Harness.churn} script: a client workload
    over a {!Quorum.Relabel}-wrapped tree while a scripted fault and
    membership schedule churns the sites.  Four scenario shapes:

    - {e donor-crash} — a replica amnesia-crashes and rejoins by
      provisioning; its donor is crashed mid-transfer, forcing a donor
      failover with resume;
    - {e recipient-crash} — the rejoiner itself crashes again
      mid-transfer and must resume from its last durable chunk mark;
    - {e partition-promotion} — a spare is promoted into a position and
      partitioned away mid-bulk-transfer; the flow stalls and completes
      after the heal;
    - {e rolling} — position 0 is rolled out to a spare and back
      (unfenced re-promotion), then another position's occupant is
      properly decommissioned, with background crash churn.

    The campaign gate: with fencing on and a commit-durable WAL,
    {!violations} over every fenced cell must be zero, while the
    {!run_negative} blackout control (fencing off, volatile-suffix WAL)
    must leak at least one stale read. *)

type kind = Donor_crash | Recipient_crash | Partition_promotion | Rolling

val kind_to_string : kind -> string
val default_kinds : kind list
val default_configs : Arbitrary.Config.name list

type cell = {
  c_config : Arbitrary.Config.name;
  c_kind : string;
  c_n : int;
  c_report : Replication.Harness.report;
}

val scenario :
  proto:Quorum.Protocol.t ->
  spares:int ->
  clients:int ->
  ops:int ->
  key_space:int ->
  ?chunk_size:int ->
  ?wal:Replication.Wal.policy ->
  failures:Dsim.Failure.entry list ->
  membership:Replication.Harness.membership_op list ->
  seed:int ->
  horizon:float ->
  fence:bool ->
  unit ->
  Replication.Harness.scenario
(** An amnesia-crash client workload (think time 3, the chaos campaign's
    degradation-tolerant coordinator) over a {!Replication.Harness.churn}
    membership with [spares] spare sites; [chunk_size] keys per
    provisioning chunk (default 1), commit-durable WAL by default. *)

val run :
  ?n:int ->
  ?clients:int ->
  ?ops:int ->
  ?seed:int ->
  ?horizon:float ->
  ?configs:Arbitrary.Config.name list ->
  ?kinds:kind list ->
  ?fence:bool ->
  ?wal:Replication.Wal.policy ->
  ?domains:int ->
  unit ->
  cell list
(** The positive campaign: every [configs] × [kinds] cell, fenced
    provisioning over a commit-durable WAL by default. *)

val run_negative :
  ?n:int ->
  ?clients:int ->
  ?ops:int ->
  ?seed:int ->
  ?horizon:float ->
  ?configs:Arbitrary.Config.name list ->
  ?domains:int ->
  unit ->
  cell list
(** The control that must leak: every occupant blacks out at once under
    [Wal.Async] while [fence_provisioning = false], so recovered
    replicas serve from gutted stores.  A campaign where this control
    shows zero violations is not testing anything. *)

val run_sharded :
  ?shards:int ->
  ?n:int ->
  ?clients:int ->
  ?ops:int ->
  ?seed:int ->
  ?horizon:float ->
  ?config:Arbitrary.Config.name ->
  ?domains:int ->
  unit ->
  cell list
(** Independent churn per key shard: [shards] separate tree instances,
    each running the rolling membership script plus a donor-crash rejoin
    under a distinct seed.  One cell per shard. *)

val violations : cell list -> int
(** Total trace-checker violations across the cells. *)

val table : cell list -> string

(** {2 Cold-rejoin cost: provisioning vs per-key catch-up} *)

type rejoin_comparison = {
  rj_keys : int;
  rj_n : int;
  rj_catchup_rounds : int;  (** per-key quorum rounds the old path needs *)
  rj_provision_rounds : int;  (** chunk/tail rounds the new path needs *)
  rj_provision_chunks : int;
  rj_catchup_serving : bool;  (** did the catch-up rejoin finish *)
  rj_provision_serving : bool;  (** did the provisioned rejoin finish *)
  rj_speedup : float;  (** catchup_rounds / provision_rounds *)
}

val cold_rejoin_comparison :
  ?n:int -> ?keys:int -> ?chunk_size:int -> ?seed:int -> unit ->
  rejoin_comparison
(** Two identical worlds with [keys] committed keys; the last replica
    amnesia-crashes cold and rejoins via catch-up in one and chunked
    provisioning in the other.  Counts protocol rounds — the BENCH gate
    requires [rj_speedup >= 5] at 10k keys. *)
