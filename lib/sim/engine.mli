(** Deterministic discrete-event simulation engine.

    Virtual time is a float (think milliseconds).  Events are closures
    executed in timestamp order, FIFO among equal timestamps.  All
    randomness flows from the engine's seeded {!Dsutil.Rng}, so a run is a
    pure function of its seed. *)

type t

val create : ?seed:int -> unit -> t
(** Default seed 42. *)

val now : t -> float
(** Current virtual time.  The result is a fresh two-word box: hot paths
    read {!clock} instead. *)

type clock = Dsutil.Fheap.clock = private { mutable now : float }
(** The engine's clock, read-only outside the engine.  A float-only
    record: reading [(clock e).now] allocates nothing. *)

val clock : t -> clock

val rng : t -> Dsutil.Rng.t
(** The engine's root random stream; [split] it per component. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the closure [delay] time units from now.  Negative delays raise
    [Invalid_argument]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past raise [Invalid_argument]. *)

type handler
(** A preallocated event handler: [run meta payload] receives the int and
    payload passed to {!schedule_packed}.  Hot callers (message delivery,
    per-operation timeouts) build ONE handler up front and thread
    per-event arguments through the two slots, so scheduling and running
    the event allocate nothing when [delay] is a float the caller already
    holds (a constant, a record field, its own argument) — unlike
    {!schedule}, whose closure costs several words per event. *)

val handler : (int -> Obj.t -> unit) -> handler

val schedule_packed : t -> delay:float -> handler -> meta:int -> payload:Obj.t -> unit
(** Run [handler] with [meta] and [payload] after [delay].  Ordering is
    identical to {!schedule} (timestamp order, FIFO among equals — both
    share one queue).  Negative delays raise [Invalid_argument]. *)

val run : ?until:float -> t -> unit
(** Process events until the queue drains or virtual time would pass
    [until].  Events at exactly [until] are processed. *)

val step : t -> bool
(** Process one event; [false] when the queue is empty. *)

val pending : t -> int
(** Number of queued events. *)
