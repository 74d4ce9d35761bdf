module Config = Arbitrary.Config
module Harness = Replication.Harness
module Stats = Dsutil.Stats

type side = {
  ops : int;
  ok : int;
  failed : int;
  duration : float;
  throughput : float;
  lat_mean : float;
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  measured_load : float;
  analytic_load : float;
  spans_started : int;
  spans_closed : int;
  spans_open : int;
  retries : int;
}

type row = { case_name : string; n : int; reads : side; writes : side }

let default_seed = 42
let default_n = 33

(* Op counts calibrated so the max-over-sites load estimator (biased
   upward as the max of binomials) lands within 10% of the closed form at
   the default seed.  Low-load directions need more samples. *)
let default_cases =
  [
    (Config.Unmodified, 4_000, 8_000);
    (Config.Mostly_read, 50_000, 2_000);
    (Config.Mostly_write, 8_000, 40_000);
    (Config.Arbitrary, 8_000, 8_000);
  ]

let scenario_for proto ~read_fraction ~ops ~seed =
  let s = Harness.default_scenario ~proto in
  {
    s with
    Harness.n_clients = 1;
    ops_per_client = ops;
    read_fraction;
    think_time = 0.1;
    seed;
    (* Long runs: the default 100k horizon would truncate mid-workload
       and leave spans open. *)
    horizon = 10_000_000.0;
  }

let pct stats q =
  if Stats.count stats = 0 then 0.0 else Stats.percentile stats q

let side_of ~ops ~ok ~failed ~duration ~stats ~measured_load ~analytic_load
    ~obs ~retries =
  {
    ops;
    ok;
    failed;
    duration;
    throughput = (if duration <= 0.0 then 0.0 else float_of_int ok /. duration);
    lat_mean = (if Stats.count stats = 0 then 0.0 else Stats.mean stats);
    lat_p50 = pct stats 0.5;
    lat_p95 = pct stats 0.95;
    lat_p99 = pct stats 0.99;
    measured_load;
    analytic_load;
    spans_started = Obs.spans_started obs;
    spans_closed = Obs.spans_closed obs;
    spans_open = Obs.spans_open obs;
    retries;
  }

(* The harness fast-forwards the engine clock to the horizon once the
   event queue drains, so the report's [duration] overstates the run.
   Take the wall of the workload from the spans instead: the latest span
   close time. *)
let with_span_clock obs =
  let last_end = ref 0.0 in
  Obs.add_sink obs
    (Obs.Sink.make (fun sp ->
         match Obs.Span.ended sp with
         | Some e -> if e > !last_end then last_end := e
         | None -> ()));
  last_end

let measure ?(seed = default_seed) ?(n = default_n) name ~reads ~writes =
  let n = Config_metrics.feasible_n name n in
  let metrics = Config_metrics.compute name ~n ~p:Figures.default_p in
  let proto = Config_metrics.protocol_of name ~n in
  let obs_r = Obs.create () in
  let end_r = with_span_clock obs_r in
  let r =
    Harness.run ~obs:obs_r
      (scenario_for proto ~read_fraction:1.0 ~ops:reads ~seed)
  in
  let obs_w = Obs.create () in
  let end_w = with_span_clock obs_w in
  let w =
    Harness.run ~obs:obs_w
      (scenario_for proto ~read_fraction:0.0 ~ops:writes ~seed:(seed + 1))
  in
  {
    case_name = Config.name_to_string name;
    n;
    reads =
      side_of ~ops:reads ~ok:r.Harness.reads_ok ~failed:r.Harness.reads_failed
        ~duration:!end_r ~stats:r.Harness.read_latency
        ~measured_load:(Harness.measured_read_load r)
        ~analytic_load:metrics.Config_metrics.rd_load ~obs:obs_r
        ~retries:r.Harness.retries;
    writes =
      side_of ~ops:writes ~ok:w.Harness.writes_ok
        ~failed:w.Harness.writes_failed ~duration:!end_w
        ~stats:w.Harness.write_latency
        ~measured_load:(Harness.measured_write_load w)
        ~analytic_load:metrics.Config_metrics.wr_load ~obs:obs_w
        ~retries:w.Harness.retries;
  }

let measure_all ?(seed = default_seed) ?(n = default_n)
    ?(cases = default_cases) ?domains () =
  (* Each case builds its own protocol, engine and observability handle,
     so the four §4 configurations can run on separate domains; results
     come back in case order regardless of scheduling. *)
  Parallel.map ?domains
    (fun (name, reads, writes) -> measure ~seed ~n name ~reads ~writes)
    cases

let load_error side =
  if side.analytic_load = 0.0 then 0.0
  else Float.abs (side.measured_load -. side.analytic_load) /. side.analytic_load

let max_load_error rows =
  List.fold_left
    (fun acc r -> Float.max acc (Float.max (load_error r.reads) (load_error r.writes)))
    0.0 rows

let span_leaks rows =
  let leak s = s.spans_open + abs (s.spans_started - s.spans_closed) in
  List.fold_left (fun acc r -> acc + leak r.reads + leak r.writes) 0 rows

type verdict = { pass : bool; failures : string list }

let gate rows =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if List.length rows <> List.length default_cases then
    fail "%d cases (want %d)" (List.length rows) (List.length default_cases);
  let err = max_load_error rows in
  if err > 0.10 then
    fail "max per-site load deviation %.1f%% vs Equation 3.2 (want <= 10%%)"
      (100.0 *. err);
  let leaks = span_leaks rows in
  if leaks > 0 then fail "%d spans leaked (want 0)" leaks;
  { pass = !failures = []; failures = List.rev !failures }

let table rows =
  let cells =
    List.map
      (fun r ->
        [
          r.case_name;
          string_of_int r.n;
          Tablefmt.f2 r.reads.throughput;
          Printf.sprintf "%.2f/%.2f/%.2f" r.reads.lat_p50 r.reads.lat_p95
            r.reads.lat_p99;
          Printf.sprintf "%.4f (%.4f)" r.reads.measured_load
            r.reads.analytic_load;
          Tablefmt.f2 r.writes.throughput;
          Printf.sprintf "%.2f/%.2f/%.2f" r.writes.lat_p50 r.writes.lat_p95
            r.writes.lat_p99;
          Printf.sprintf "%.4f (%.4f)" r.writes.measured_load
            r.writes.analytic_load;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "config"; "n"; "rd ops/t"; "rd p50/p95/p99"; "rdL sim (ana)";
        "wr ops/t"; "wr p50/p95/p99"; "wrL sim (ana)";
      ]
    ~rows:cells

let side_json s =
  Printf.sprintf
    "{\"ops\":%d,\"ok\":%d,\"failed\":%d,\"duration\":%.6f,\
     \"throughput\":%.6f,\
     \"latency\":{\"mean\":%.6f,\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f},\
     \"measured_load\":%.6f,\"analytic_load\":%.6f,\"load_error\":%.6f,\
     \"spans\":{\"started\":%d,\"closed\":%d,\"open\":%d},\"retries\":%d}"
    s.ops s.ok s.failed s.duration s.throughput s.lat_mean s.lat_p50 s.lat_p95
    s.lat_p99 s.measured_load s.analytic_load (load_error s) s.spans_started
    s.spans_closed s.spans_open s.retries

let to_json ~seed ~n rows =
  let case_json r =
    Printf.sprintf "{\"config\":\"%s\",\"n\":%d,\"reads\":%s,\"writes\":%s}"
      r.case_name r.n (side_json r.reads) (side_json r.writes)
  in
  Printf.sprintf
    "{\"schema\":\"bench-baseline/1\",\"seed\":%d,\"n\":%d,\
     \"max_load_error\":%.6f,\"span_leaks\":%d,\"cases\":[%s]}"
    seed n (max_load_error rows) (span_leaks rows)
    (String.concat "," (List.map case_json rows))
