module Config = Arbitrary.Config
module Harness = Replication.Harness
module Coordinator = Replication.Coordinator

type mode = Naive | Protected

let mode_to_string = function Naive -> "naive" | Protected -> "protected"

type kind = Flash_crowd | Slow_replica | Retry_storm

let kind_to_string = function
  | Flash_crowd -> "flash-crowd"
  | Slow_replica -> "slow-replica"
  | Retry_storm -> "retry-storm"

type cell = {
  kind : kind;
  mode : mode;
  report : Harness.report;
  consistency_violations : int;
  pre_goodput : float;  (** ops/time in the steady window before the burst *)
  post_goodput : float;  (** ops/time well after the burst ended *)
  recovery : float;  (** post/pre — 1.0 means full recovery *)
}

type campaign = { cells : cell list }

(* --- campaign geometry ---------------------------------------------------

   One fixed timeline for every cell, so goodput windows line up:

     warmup(1) .. [pre window] .. burst .. settle .. [post window] .. horizon

   The pre window ends when the flash crowd arrives; the post window starts
   long after the burst clients' {e offered work} is done (with healthy
   shedding they finish — succeed or fail fast — within a couple hundred
   time units), so whatever load remains there is self-sustained by the
   retry feedback loop, not by the trigger. *)

let horizon = 4000.0
let burst_at = 1000.0
let pre_window = (200.0, 1000.0)
let post_window = (2600.0, 3800.0)

(* Per-message replica service cost.  High enough that a replica is a real
   bottleneck (a quorum op costs a few service times end-to-end), low
   enough that the steady workload below leaves headroom. *)
let service_time = 4.0

(* Metastability needs enough {e independent} retry sources: each client
   is closed-loop (one op in flight), so the sustained retry pressure is
   roughly [clients × fanout / retry interval].  Thirty clients with long
   think times offer the same healthy load four impatient ones would, but
   once they are all stuck retrying they can hold every replica queue
   above saturation on their own. *)
let steady_clients = 30
let steady_think = 200.0

(* Aggressive client retry policy — the naive config's mistake and the
   protected config's stress test: effectively unbounded retries, no
   deadline, and an impatient backoff cap. *)
let overload_coordinator =
  {
    Coordinator.default_config with
    Coordinator.timeout = 30.0;
    max_retries = 50;
    deadline = Float.infinity;
    backoff =
      { Detect.Backoff.base = 2.0; factor = 1.5; max_delay = 10.0; jitter = 0.2 };
  }

let burst =
  {
    Harness.burst_at;
    burst_clients = 24;
    burst_ops = 20;
    burst_think = 1.0;
  }

let protections =
  {
    Harness.overload_defaults with
    Harness.queue_capacity = 24;
    shed_watermark = 6;
    retry_budget = Some { Detect.Budget.ratio = 0.1; burst = 5.0 };
    breaker =
      Some
        {
          Detect.Breaker.threshold = 5;
          cooldown = 150.0;
          cooldown_factor = 2.0;
          max_cooldown = 400.0;
        };
  }

let overload_for kind mode =
  let base =
    match mode with
    | Naive -> { Harness.overload_defaults with Harness.service_time }
    | Protected -> { protections with Harness.service_time }
  in
  match kind with
  | Flash_crowd ->
    (* A moderate crowd: short-lived extra load the protected system must
       absorb and the naive system merely survives or not. *)
    { base with Harness.burst = Some { burst with Harness.burst_clients = 12 } }
  | Retry_storm ->
    (* The metastable cell: a violent crowd whose retries (plus the steady
       clients') can keep the queues full after the crowd's work is done. *)
    { base with Harness.burst = Some burst }
  | Slow_replica ->
    (* No burst; one replica is pathologically slow.  The breaker must
       learn to route around it, the naive system keeps stumbling. *)
    { base with Harness.slow_sites = [ (0, 60.0) ] }

let ok_ops report = report.Harness.reads_ok + report.Harness.writes_ok

let goodput completions ~window:(t0, t1) =
  let hits =
    Array.fold_left
      (fun acc t -> if t >= t0 && t < t1 then acc + 1 else acc)
      0 completions
  in
  float_of_int hits /. (t1 -. t0)

let run_cell ~n ~seed (kind, mode) =
  let n = Config_metrics.feasible_n Config.Arbitrary n in
  let proto = Config_metrics.protocol_of Config.Arbitrary ~n in
  let s = Harness.default_scenario ~proto in
  let scenario =
    {
      s with
      Harness.n_clients = steady_clients;
      (* Enough offered work that steady clients stay active through the
         post window; the horizon, not op exhaustion, ends the run. *)
      ops_per_client = 100;
      (* Read-heavy over a wide key space: per-key write locks must not be
         the bottleneck, the replica service queues must be — lock
         convoying is a different failure mode than the one under test. *)
      read_fraction = 0.8;
      key_space = 64;
      think_time = steady_think;
      seed;
      coordinator = overload_coordinator;
      horizon;
      warmup = 1.0;
      check_consistency = true;
      overload = Some (overload_for kind mode);
    }
  in
  let report = Harness.run scenario in
  let consistency = Consistency.check report.Harness.spans in
  let pre = goodput report.Harness.completions ~window:pre_window in
  let post = goodput report.Harness.completions ~window:post_window in
  {
    kind;
    mode;
    report;
    consistency_violations =
      List.length consistency.Consistency.violations
      + report.Harness.safety_violations;
    pre_goodput = pre;
    post_goodput = post;
    recovery = (if pre > 0.0 then post /. pre else 0.0);
  }

let all_cells =
  [
    (Flash_crowd, Naive);
    (Flash_crowd, Protected);
    (Slow_replica, Naive);
    (Slow_replica, Protected);
    (Retry_storm, Naive);
    (Retry_storm, Protected);
  ]

let run ?(n = 9) ?(seed = 42) ?domains () =
  { cells = Parallel.map ?domains (run_cell ~n ~seed) all_cells }

let find campaign kind mode =
  List.find (fun c -> c.kind = kind && c.mode = mode) campaign.cells

(* --- acceptance gate ---------------------------------------------------- *)

type verdict = { pass : bool; failures : string list }

let gate campaign =
  let shape = List.map (fun c -> (c.kind, c.mode)) campaign.cells in
  if shape <> all_cells then
    {
      pass = false;
      failures =
        [
          Printf.sprintf "%d cells (want the %d scenario x mode cells, in order)"
            (List.length shape) (List.length all_cells);
        ];
    }
  else
  let failures = ref [] in
  let check cond fmt =
    Printf.ksprintf (fun msg -> if not cond then failures := msg :: !failures) fmt
  in
  let storm_naive = find campaign Retry_storm Naive in
  let storm_prot = find campaign Retry_storm Protected in
  let flash_prot = find campaign Flash_crowd Protected in
  let slow_naive = find campaign Slow_replica Naive in
  let slow_prot = find campaign Slow_replica Protected in
  (* The negative control must actually demonstrate metastability: with no
     defenses, goodput long after the burst stays collapsed (>=50% below
     the pre-burst baseline). *)
  check
    (storm_naive.recovery <= 0.5)
    "retry-storm/naive recovered to %.2f of baseline (want <= 0.5: metastable collapse)"
    storm_naive.recovery;
  (* With budget + breaker + shedding the same storm must not be
     metastable: post-burst goodput recovers to >=90% of baseline. *)
  check
    (storm_prot.recovery >= 0.9)
    "retry-storm/protected recovered only to %.2f of baseline (want >= 0.9)"
    storm_prot.recovery;
  check
    (flash_prot.recovery >= 0.9)
    "flash-crowd/protected recovered only to %.2f of baseline (want >= 0.9)"
    flash_prot.recovery;
  (* Routing around the slow replica must beat stumbling into it. *)
  check
    (ok_ops slow_prot.report >= ok_ops slow_naive.report)
    "slow-replica/protected completed %d ops < naive's %d"
    (ok_ops slow_prot.report) (ok_ops slow_naive.report);
  (* The protections must actually engage in the storm cell. *)
  check
    (storm_prot.report.Harness.replica_sheds > 0)
    "retry-storm/protected shed nothing (admission control never engaged)";
  check
    (storm_prot.report.Harness.retries_suppressed > 0)
    "retry-storm/protected suppressed no retries (budget never engaged)";
  (* Overload may cost goodput, never consistency. *)
  List.iter
    (fun c ->
      check
        (c.consistency_violations = 0)
        "%s/%s: %d consistency violations (want 0)" (kind_to_string c.kind)
        (mode_to_string c.mode) c.consistency_violations)
    campaign.cells;
  { pass = !failures = []; failures = List.rev !failures }

let table campaign =
  let rows =
    List.map
      (fun c ->
        [
          kind_to_string c.kind;
          mode_to_string c.mode;
          Tablefmt.f2 c.pre_goodput;
          Tablefmt.f2 c.post_goodput;
          Tablefmt.f2 c.recovery;
          string_of_int (ok_ops c.report);
          string_of_int c.report.Harness.replica_sheds;
          string_of_int c.report.Harness.overload_drops;
          string_of_int c.report.Harness.retries_suppressed;
          string_of_int c.report.Harness.breaker_trips;
          string_of_int c.report.Harness.queue_peak;
          string_of_int c.consistency_violations;
        ])
      campaign.cells
  in
  Tablefmt.render
    ~header:
      [
        "scenario"; "mode"; "pre gp"; "post gp"; "recovery"; "ops ok";
        "sheds"; "drops"; "supp"; "trips"; "peakq"; "viol";
      ]
    ~rows
