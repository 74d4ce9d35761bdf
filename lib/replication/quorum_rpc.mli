(** Low-level quorum RPC endpoint: the phase primitives shared by the
    transaction layer and the reconfiguration engine.

    Each primitive is a one-key {!Round} of the quorum-round engine the
    {!Coordinator} also runs: {!query} is a query-only round, {!prepare} a
    prepare-only round with a forced timestamp, {!commit_staged} and
    {!abort_staged} finish that round, and {!write} composes them.  Retry,
    backoff, deadline, budget, incarnation fencing and breaker evidence are
    therefore the coordinator's own.

    One endpoint per client site; it owns the site's message handler.  All
    operations assemble quorums from a pluggable failure-detector view
    ({!Detect.View}) — by default the simulator's ground-truth oracle
    (failures are detectable, §2.2), but any detector (e.g. the
    {!Detect.Heartbeat} accrual monitor) can be substituted.  Phases retry
    with fresh quorums on per-phase timeouts, pausing with jittered
    exponential backoff ({!Detect.Backoff}) and bounded by an optional
    per-operation deadline budget; with [adaptive_timeout] the phase
    deadline tracks observed RTT quantiles ({!Detect.Rto}) instead of the
    fixed [timeout].  Results are delivered through callbacks on the
    simulation thread. *)

type t

type config = Round.config = {
  timeout : float;  (** fixed per-phase response deadline *)
  max_retries : int;  (** quorum re-assembly attempts per operation *)
  adaptive_timeout : bool;
      (** derive the phase deadline from observed RTT quantiles instead of
          [timeout] (off by default: the seed's fixed-timeout behavior) *)
  deadline : float;
      (** per-operation time budget: a retry that cannot start before
          [op start + deadline] fails the operation instead.  [infinity]
          (the default) disables the budget. *)
  backoff : Detect.Backoff.policy;  (** retry pause policy *)
  rto : Detect.Rto.config;  (** adaptive-timeout estimator parameters *)
}

val default_config : config

val create :
  site:int ->
  net:Message.t Dsim.Network.t ->
  proto:Quorum.Protocol.t ->
  ?view:Detect.View.t ->
  ?budget:Detect.Budget.t ->
  ?breaker:Detect.Breaker.t ->
  ?obs:Obs.t ->
  ?config:config ->
  unit ->
  t
(** [view] defaults to the ground-truth oracle over the replica universe.
    The endpoint reports evidence into the view: every received message
    [observe]s its sender, every phase timeout [suspect]s the members
    still waiting.  With [obs], {!query} and {!write} are traced as
    [rpc.read] / [rpc.write] spans (one span per operation, covering a
    write's version query, prepare and commit phases) and the counter
    [rpc.deadline_exceeded] is maintained; without it the endpoint does no
    instrumentation work.

    [budget] (a shared {!Detect.Budget}) gates every backoff retry —
    commit-phase resends excepted — failing the operation fast when the
    global retry budget is drained.  [breaker] (a shared {!Detect.Breaker})
    collects per-site [Busy]/timeout evidence and removes tripped sites
    from quorum assembly.  Omitting both leaves behavior byte-identical. *)

val site : t -> int
val protocol : t -> Quorum.Protocol.t

val view : t -> Detect.View.t
(** The failure-detector view quorums are assembled from. *)

val current_view : t -> Dsutil.Bitset.t
(** The believed-alive replica set right now ([view].alive ()). *)

val observed_timeout : t -> float
(** The per-phase deadline currently in force (adaptive or fixed). *)

val stale_incarnation_rejections : t -> int
(** Replica replies dropped for carrying a pre-crash incarnation (always 0
    under fail-stop; see {!Coordinator}). *)

val busy_received : t -> int
(** [Busy] sheds received from admission-controlled replicas. *)

val retries_suppressed : t -> int
(** Retries refused by the shared {!Detect.Budget}. *)

val set_protocol : t -> Quorum.Protocol.t -> unit
(** Swap the quorum geometry (used by reconfiguration).  The replica
    universe must keep the same size. *)

val query :
  t -> ?retry:bool -> key:int -> ((Timestamp.t * string) option -> unit) -> unit
(** Read quorum: newest (timestamp, value) among all members, [None] when
    no quorum could be assembled within the retry/deadline budget.

    [~retry:true] marks a caller-level re-issue of an operation that
    already entered once: it skips the retry-budget deposit, so a storm
    of re-issues cannot refill its own token bucket (the budget only
    earns tokens from genuine first attempts).  Default [false]. *)

val prepare :
  t ->
  key:int ->
  ts:Timestamp.t ->
  value:string ->
  (int option -> unit) ->
  unit
(** Stage the write on every member of a write quorum.  On success yields
    [op]: the staging handle to later {!commit_staged} or
    {!abort_staged}.  A retry (timeout, refusal or shed) first sends
    [Abort] to the members that staged, then re-prepares under a fresh op
    on a freshly assembled quorum. *)

val commit_staged : t -> op:int -> (bool -> unit) -> unit
(** Commit a staged write everywhere, resending on timeout; [false] when
    some member never acknowledged (outcome uncertain).  Each member's
    [Commit] echoes the incarnation it acked the prepare under.  [op] must
    be a handle {!prepare} returned and not yet committed or aborted;
    raises [Invalid_argument] otherwise. *)

val abort_staged : t -> op:int -> unit
(** Fire-and-forget rollback of a {!prepare} handle (same contract as
    {!commit_staged}). *)

val write :
  t ->
  ?retry:bool ->
  key:int ->
  ?ts:Timestamp.t ->
  value:string ->
  (Timestamp.t option -> unit) ->
  unit
(** Full write: version-phase read (skipped when [ts] is forced), then
    prepare + commit on a write quorum.  A forced [ts] is used by state
    transfer, which must re-install values {e without} minting new
    versions.  [~retry:true] as in {!query}: a caller-level re-issue
    that must not deposit into the retry budget. *)
