(** First benchmark baseline: instrumented end-to-end runs of the §4
    workload configurations, checked against the closed forms.

    Each case runs the {!Replication.Harness} twice — a read-only and a
    write-only pass, mirroring {!Simulate.measure} so the measured
    per-site load is the empirical counterpart of the paper's system load
    L (Equation 3.2) — with an {!Obs} handle attached.  The op counts are
    calibrated per configuration so the max-over-sites load estimator
    converges to within 10% of the analytic prediction at the default
    seed; everything is deterministic (virtual time, seeded Rng).

    The result feeds [bench/main.exe], which renders the table, applies
    {!gate} and writes [BENCH_baseline.json]. *)

type side = {
  ops : int;  (** operations issued *)
  ok : int;
  failed : int;
  duration : float;  (** virtual time at quiescence *)
  throughput : float;  (** ok / duration, ops per unit virtual time *)
  lat_mean : float;
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  measured_load : float;  (** max over sites of per-site ops / total ops *)
  analytic_load : float;  (** Equation 3.2 closed form at this size *)
  spans_started : int;
  spans_closed : int;
  spans_open : int;  (** must be 0 after quiescence *)
  retries : int;
}

type row = { case_name : string; n : int; reads : side; writes : side }

val default_seed : int
val default_n : int

val default_cases : (Arbitrary.Config.name * int * int) list
(** [(config, read_ops, write_ops)] with calibrated op counts for
    UNMODIFIED, MOSTLY-READ, MOSTLY-WRITE and ARBITRARY. *)

val measure :
  ?seed:int -> ?n:int -> Arbitrary.Config.name -> reads:int -> writes:int -> row

val measure_all :
  ?seed:int ->
  ?n:int ->
  ?cases:(Arbitrary.Config.name * int * int) list ->
  ?domains:int ->
  unit ->
  row list
(** Measures every case, fanning cases across [domains] cores
    ({!Parallel}); rows come back in case order, so the report is
    byte-identical for any domain count. *)

val load_error : side -> float
(** Relative deviation |measured − analytic| / analytic. *)

val max_load_error : row list -> float

val span_leaks : row list -> int
(** Σ over rows of spans still open, plus any started/closed mismatch —
    0 iff accounting is exact. *)

type verdict = { pass : bool; failures : string list }

val gate : row list -> verdict
(** The [BENCH_baseline.json] acceptance predicate: one row per
    {!default_cases} entry, every measured per-site load within 10% of
    Equation 3.2 ({!max_load_error} ≤ 0.10), and exact span accounting
    ({!span_leaks} = 0). *)

val table : row list -> string
(** Human-readable summary table. *)

val to_json : seed:int -> n:int -> row list -> string
(** The [BENCH_baseline.json] payload (schema [bench-baseline/1]). *)
