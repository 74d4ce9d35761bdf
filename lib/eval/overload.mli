(** Overload and metastable-failure campaign.

    Three scenario families, each run {e naive} (aggressive retries, no
    defenses) and {e protected} (bounded queues + load shedding + retry
    budget + circuit breaker, same aggressive client policy):

    - {b flash-crowd}: a moderate burst of extra clients joins mid-run;
    - {b slow-replica}: no burst, but one replica's service time is
      pathological — the breaker must steer quorums around it;
    - {b retry-storm}: a violent burst sized so that, without defenses,
      the timeout→retry feedback loop keeps replica queues full long
      after the burst's offered work is done — the metastable negative
      control.

    Every cell runs with the trace-driven consistency checker on: overload
    may cost goodput, never regularity.

    Goodput is measured over two fixed windows of the shared timeline —
    before the burst arrives and well after it ended — from the
    harness's {!Replication.Harness.report.completions} stream.  The
    {!gate} encodes the acceptance criteria: the naive storm must show
    sustained collapse (post-burst goodput at least 50% below baseline)
    while the protected storm and flash crowd must recover to at least
    90% of baseline. *)

type mode = Naive | Protected

val mode_to_string : mode -> string

type kind = Flash_crowd | Slow_replica | Retry_storm

val kind_to_string : kind -> string

type cell = {
  kind : kind;
  mode : mode;
  report : Replication.Harness.report;
  consistency_violations : int;
      (** offline checker violations + online safety violations *)
  pre_goodput : float;  (** ops/time in the steady window before the burst *)
  post_goodput : float;  (** ops/time well after the burst ended *)
  recovery : float;  (** post/pre — 1.0 means full recovery *)
}

type campaign = { cells : cell list }

val run : ?n:int -> ?seed:int -> ?domains:int -> unit -> campaign
(** Run all six cells (deterministic for a fixed seed; [domains] only
    fans the independent cells out over cores). *)

val find : campaign -> kind -> mode -> cell

type verdict = { pass : bool; failures : string list }

val gate : campaign -> verdict
(** The acceptance predicate described above, plus: the campaign holds
    exactly the six cells of {!run}, in order; the protections must
    actually engage in the storm cell (nonzero sheds and suppressed
    retries), the protected slow-replica cell must complete at least as
    many operations as the naive one, and every cell must be free of
    consistency violations. *)

val table : campaign -> string
(** Per-cell goodput windows, recovery ratios and defense counters. *)
