(** The quorum-round engine: the one state machine behind every
    coordinator read and write, every batched operation, and every
    {!Quorum_rpc} phase primitive.

    A {e round} works over a flat array of key slots — a single key is a
    batch of one — and runs a contiguous range of the phases
    query → prepare → commit:

    - {b query}: assemble a read quorum from the breaker-filtered detector
      view, send each member one [Read_request] (1-key round) or one
      coalesced [Read_batch] envelope (multi-key round), and keep the
      newest (version, sid, value) per slot;
    - {b prepare}: assemble a write quorum and stage the slot columns with
      [Prepare] / [Prepare_batch], recording the incarnation each member
      acks under;
    - {b commit}: send each member a [Commit] echoing its prepare
      incarnation; on timeout resend to the laggards only.

    A retry (phase timeout, [Prepare_nack], [Busy], failed assembly) rolls
    back staged members with [Abort], blames the members still waiting,
    backs off with jitter inside the per-operation deadline and the shared
    retry budget, and restarts the round under a fresh op id — at the
    query phase, or at the prepare phase for a prepare-only round, whose
    timestamp the client forced.  Replies from pre-crash incarnations are
    dropped.  Every round is pooled: its record, member scratch and key
    columns are reused, so a steady stream of operations allocates none of
    them.

    Clients ({!Coordinator}, {!Quorum_rpc}) own everything else: what a
    finished round means (their ['k] kind), locks, read repair and the
    version bump.  They fill a round's key columns, {!start} it, and get
    two callbacks: [on_query] when the query phase completes and
    [finished] when the round succeeds or gives up. *)

type config = {
  timeout : float;  (** fixed per-phase response deadline *)
  max_retries : int;  (** quorum re-assembly attempts per round *)
  adaptive_timeout : bool;
      (** derive the phase deadline from observed RTT quantiles instead of
          [timeout] *)
  deadline : float;
      (** per-round time budget: a retry that cannot start before
          [round start + deadline] fails the round.  [infinity] disables
          it. *)
  backoff : Detect.Backoff.policy;  (** retry pause policy *)
  rto : Detect.Rto.config;  (** adaptive-timeout estimator parameters *)
}

val default_config : config

type phase =
  | Query
  | Prepare
  | Commit
  | Staged
      (** a prepare-only round that succeeded: parked under its op id
          until the client commits or aborts it *)

type times = {
  mutable started : float;  (** round start: the deadline's origin *)
  mutable phase_started : float;  (** when this phase's requests went out *)
}
(** A float-only record: its fields are stored flat, so stamping a round
    allocates nothing. *)

module Pending : Hashtbl.S with type key = int

type 'k round = {
  mutable op : int;  (** the id of the current attempt *)
  mutable kind : 'k;  (** the client's meaning of the round *)
  mutable last : phase;
      (** the round succeeds when this phase completes; a prepare-only
          round ([last = Prepare]) starts, and restarts, at prepare *)
  mutable phase : phase;
  mutable attempts : int;  (** retries so far, commit resends included *)
  at : times;
  mutable n : int;  (** key slots in use *)
  mutable keys : int array;
  mutable ver : int array;
  mutable sid : int array;
  mutable vals : string array;
      (** per-slot (version, sid, value): the newest seen while querying,
          the timestamp and value to stage when preparing *)
  mutable spans : Obs.Span.t option array;  (** one span per slot *)
  q : int array;  (** current phase members, replied ones set to -1 *)
  mutable n_q : int;
  mutable waiting_n : int;
  w : int array;  (** the write quorum of the 2PC *)
  mutable n_w : int;
  winc : int array;  (** incarnation each [w] member acked under *)
  mutable replies : (int * int * int * int) list;
      (** (member, slot, version, sid) per query answer; recorded only
          when the engine was created with [record_replies] *)
}

type 'k t = {
  site : int;
  net : Message.t Dsim.Network.t;
  clock : Dsim.Engine.clock;
      (** the engine's, read in place ([Engine.now] boxes the time) *)
  mutable proto : Quorum.Protocol.t;
  n_replicas : int;
  config : config;
  obs : Obs.t option;
  view : Detect.View.t;
  budget : Detect.Budget.t option;
  breaker : Detect.Breaker.t option;
  rto : Detect.Rto.t;
  rng : Dsutil.Rng.t;
  mutable levels : Quorum.Protocol.level_plan option;
      (** when set, 1-key query-only rounds stream their read quorum level
          by level ({!Quorum.Protocol.level_plan}) *)
  record_replies : bool;
  dummy_kind : 'k;  (** placeholder kind of a pooled round *)
  mutable on_query : 'k round -> unit;
      (** query phase complete, before the round finishes or prepares *)
  mutable finished : 'k round -> bool -> unit;
      (** the round succeeded ([true]) or gave up; also called when a
          prepare-only round parks *)
  mutable next_seq : int;
  pending : 'k round Pending.t;  (** op id -> round in flight or parked *)
  mutable free : 'k round list;  (** pooled rounds *)
  incs : int array;  (** newest incarnation seen, per network site *)
  mutable handler : Dsim.Engine.handler;  (** phase timeouts and restarts *)
  mutable retries : int;
  mutable deadline_exceeded : int;
  mutable busy_received : int;
  mutable retries_suppressed : int;
  mutable stale_inc_rejections : int;
  mutable breaker_trips : int;  (** failures of ours that tripped the breaker *)
}

val create :
  site:int ->
  net:Message.t Dsim.Network.t ->
  proto:Quorum.Protocol.t ->
  prefix:string ->
  config:config ->
  view:Detect.View.t ->
  ?budget:Detect.Budget.t ->
  ?breaker:Detect.Breaker.t ->
  ?obs:Obs.t ->
  dummy_kind:'k ->
  record_replies:bool ->
  unit ->
  'k t
(** Installs the engine as [site]'s message handler.  Set [on_query] and
    [finished] before starting a round.  With [obs], registers a counter
    source ({!Obs.Metrics.source}) that reports [busy_received],
    [stale_inc_rejections], [deadline_exceeded], [retries_suppressed] and
    [breaker_trips] as [<prefix>.busy_received], [.stale_inc.rejected],
    [.deadline_exceeded], [.retries_suppressed] and [.breaker.trips], each
    once nonzero. *)

val current_view : 'k t -> Dsutil.Bitset.t
(** The detector's believed-alive set, minus breaker-open sites. *)

val phase_timeout : 'k t -> float

val alloc : 'k t -> kind:'k -> n:int -> last:phase -> 'k round
(** A pooled round with [n] key slots, started now.  Fill [keys] (and,
    for a prepare-only round, [ver]/[sid]/[vals]) and [spans], then
    {!start} it. *)

val start : 'k t -> 'k round -> unit

val staged : 'k t -> op:int -> 'k round
(** The round parked under [op].  Raises [Invalid_argument] when no round
    is parked there. *)

val commit : 'k t -> 'k round -> unit
(** Commit to every member of the round's write quorum. *)

val abort : 'k t -> 'k round -> unit
(** Send [Abort] to every member of the round's write quorum. *)

val discard : 'k t -> 'k round -> unit
(** Forget a round and return it to the pool. *)

val budget_attempt : 'k t -> unit
(** Deposit one first-attempt token into the shared retry budget. *)

(** {2 Observability} *)

val ospan : 'k t -> op:string -> key:int -> Obs.Span.t option
val ofinish :
  'k t -> Obs.Span.t option -> ok:bool -> version:int -> sid:int -> unit
(** Record the result timestamp (on success) and close the span. *)
