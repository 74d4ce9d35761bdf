(** Multi-key transactions (§2.2): "users interact with sites by means of
    transactions which are partially ordered sets of read and write
    operations … if a transaction contains write operations, a
    2-phase-commit protocol at the end of the transaction is executed".

    Concurrency control is strict two-phase locking against the
    centralized {!Lock_manager}: reads take shared locks as they execute,
    writes are buffered and take exclusive locks (sorted by key, with
    shared→exclusive upgrades) when {!commit} starts; all locks are held
    to the end.  Commit then runs, per written key, a version-phase read
    quorum and a prepare on a write quorum — and only after {e every} key
    is prepared sends the commits, so the transaction is atomic across
    keys.  Any failure before that point aborts all staged writes.

    Deadlocks (cross-key lock cycles) are resolved by a lock-acquisition
    timeout that aborts the transaction; upgrade-upgrade conflicts abort
    immediately. *)

type manager

type config = {
  rpc : Quorum_rpc.config;
      (** per-phase deadlines, retry budget, backoff and deadline policy
          of the underlying quorum RPC endpoint *)
  lock_timeout : float;  (** deadline for commit-time lock acquisition *)
}

val default_config : config

val create_manager :
  site:int ->
  net:Message.t Dsim.Network.t ->
  proto:Quorum.Protocol.t ->
  locks:Lock_manager.t ->
  ?view:Detect.View.t ->
  ?obs:Obs.t ->
  ?config:config ->
  unit ->
  manager
(** One manager per client site; it installs the site's message handler
    (do not combine with a {!Coordinator} on the same site).  [view] is
    the failure-detector view quorums are assembled from; the ground-truth
    oracle when omitted.  With [obs], every transaction is traced as a
    [txn] span whose lock/query/prepare/commit phases mark the commit
    barriers (their quorum lists carry the write-key set), and the
    underlying RPC endpoint is instrumented too. *)

val create_sharded_manager :
  site:int ->
  endpoints:(Message.t Dsim.Network.t * Quorum.Protocol.t) array ->
  route:(int -> int) ->
  locks:Lock_manager.t ->
  ?atomic:bool ->
  ?view:Detect.View.t ->
  ?obs:Obs.t ->
  ?config:config ->
  unit ->
  manager
(** A manager spanning several shard instances: one quorum-RPC endpoint
    per shard (each [(net, proto)] pair is a shard's network and
    protocol; all endpoints use the same client [site]), with [route]
    mapping a key to its endpoint index.  Commit keeps the cross-key
    all-prepared barrier, so a transaction is atomic {e across shards}:
    no shard's leg commits until every key on every shard is staged.

    [atomic:false] is the negative control: each shard's prepare/commit
    leg runs independently with no cross-shard barrier, so a transaction
    spanning an unavailable shard and a healthy one applies partially
    (the outcome is [Aborted] but some legs persist — phantom
    increments a conservation checker must flag).  Single-endpoint
    managers from {!create_manager} are unaffected: with one shard both
    modes coincide with the unsharded commit. *)

type t
(** An open transaction. *)

type outcome = Committed | Aborted of string

val in_doubt : outcome -> bool
(** An abort after the commit decision with some commit acks missing —
    the classic 2PC in-doubt window: its effects may or may not be
    visible. *)

val partial : outcome -> bool
(** An abort of the non-atomic negative control ([atomic:false]): each
    shard leg committed or failed on its own, so some may have applied. *)

val begin_txn : manager -> t

val read : t -> key:int -> (string option -> unit) -> unit
(** Quorum read under a shared lock.  Reads-your-writes: a key this
    transaction has written returns the buffered value; a key already
    read returns the cached value (repeatable read).  [None] means the
    quorum could not be assembled — the transaction is aborted. *)

val write : t -> key:int -> value:string -> unit
(** Buffers the write; all network work happens at commit. *)

val commit : t -> (outcome -> unit) -> unit
(** Runs 2PL lock acquisition + cross-key two-phase commit.  The callback
    receives [Committed] or [Aborted reason]; locks are released either
    way. *)

val abort : t -> unit
(** Drops buffered writes and releases locks.  No-op if finished. *)

val is_finished : t -> bool

(** {2 Metrics} *)

val committed : manager -> int
val aborted : manager -> int
