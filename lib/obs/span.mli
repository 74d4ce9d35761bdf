(** Per-operation spans.

    A span covers one logical operation (a coordinator read/write, an RPC
    phase primitive, a transaction) from issue to completion, across every
    retry.  It records the phases the operation went through — which
    quorum each phase contacted, whether it timed out, and its latency —
    plus the retry count and the total time spent in backoff pauses.

    Readers use the accessors below, which rebuild options and {!phase}
    records on demand; {!Obs}, the lifecycle owner, records through the
    functions at the end, stamping times from its clock. *)

type phase_kind = Query | Prepare | Commit | Lock

val phase_kind_name : phase_kind -> string
(** ["query"], ["prepare"], ["commit"], ["lock"]. *)

val kind_code : phase_kind -> int
(** [0 .. 3], in declaration order. *)

type phase = {
  kind : phase_kind;
  p_started : float;
  p_ended : float option;  (** [None] while the phase is open *)
  quorum : int list;
      (** the members this phase contacted (site ids; write keys for a
          transaction's lock phase) *)
  timed_out : bool;
}
(** One phase, as {!phases} builds it. *)

type outcome = Ok | Failed of string

type t
(** A span, stored flat: a closed span keeps no per-phase record, list
    cell, option or float box.  The key and result timestamp are ints
    with a sentinel for "none"; the span's times sit in a float-only
    record; each phase is one int (kind, timed-out flag, member count),
    two floats in one [floatarray] and its members in one [int array]
    shared by every phase.  A closed 4-phase span with 4-member quorums
    keeps 48 words. *)

(** {2 Reading} *)

val id : t -> int
(** Unique within the owning {!Obs.t}. *)

val op : t -> string
(** E.g. ["read"], ["write"], ["txn"], ["rpc.read"]. *)

val site : t -> int
(** The issuing site. *)

val key : t -> int option
val started : t -> float
val ended : t -> float option
val outcome : t -> outcome option
(** [None] while the span is open. *)

val result_ts : t -> (int * int) option
(** [(version, sid)] of the timestamp the operation returned (a read's
    observed version, a write's committed version), set via
    {!Obs.set_result_ts}; consumed by the trace-driven consistency
    checker. *)

val attempts : t -> int
(** 1 + retries. *)

val backoff_total : t -> float
(** Total virtual time spent in backoff. *)

val phases : t -> phase list
(** Chronological; built on each call. *)

val closed : t -> bool
val retries : t -> int
val duration : t -> float option
(** [ended - started] once closed. *)

val phase_duration : phase -> float option

val to_json : t -> string
(** One-line JSON object (the JSONL export format):
    [{"id":..,"op":"read","site":..,"key":..,"started":..,"ended":..,
      "outcome":"ok"|"failed","reason":..?,
      "result_ts":{"version":..,"sid":..}?,"attempts":..,"retries":..,
      "backoff_total":..,
      "phases":[{"phase":"query","started":..,"ended":..,"timed_out":..,
                 "quorum":[..]},..]}].
    [key] and [result_ts] are omitted when absent; [ended] is [null] on an
    open span.  Every time reads back, with [float_of_string], as the
    float it was. *)

(** {2 Recording}

    {!Obs} drives these, stamping times from its clock and keeping the
    automatic metrics; use them directly only to build a span by hand. *)

val create :
  id:int -> op:string -> site:int -> ?key:int -> started:float -> unit -> t
(** An open span with no phases. *)

val add_phase : t -> kind:phase_kind -> started:float -> int array -> int -> unit
(** [add_phase t ~kind ~started members len] appends an open phase whose
    quorum is the non-negative entries of [members.(0 .. len-1)].  The
    caller closes the previous phase first. *)

val set_members : t -> int array -> int -> unit
(** Replace the open phase's quorum, read as {!add_phase} reads it; no-op
    when no phase is open. *)

val open_phase : t -> int
(** Index of the open phase, -1 when none is. *)

val close_phase : t -> int -> ended:float -> timed_out:bool -> unit
(** Close the open phase, by its index. *)

val phase_kind : t -> int -> phase_kind
val phase_latency : t -> int -> float
(** Of a closed phase, by index. *)

val add_retry : t -> backoff:float -> unit
(** One more attempt, after [backoff] virtual ms. *)

val set_result_ts : t -> version:int -> sid:int -> unit
val close : t -> ended:float -> outcome:outcome -> unit
