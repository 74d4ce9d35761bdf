(* The observability layer: registry semantics, span lifecycle (including
   retries and timed-out phases), sink plumbing, and end-to-end accounting
   when attached to a harness run. *)

module Metrics = Obs.Metrics
module Span = Obs.Span
module Sink = Obs.Sink

(* --- metrics registry ----------------------------------------------------- *)

let test_counter_get_or_create () =
  let m = Metrics.create () in
  let a = Metrics.counter m "net.sent" in
  let b = Metrics.counter m "net.sent" in
  Metrics.incr a;
  Metrics.add b 4;
  Alcotest.(check int) "shared state" 5 (Metrics.counter_value a);
  Alcotest.(check int) "by name" 5 (Metrics.counter_of m "net.sent");
  Alcotest.(check int) "absent reads 0" 0 (Metrics.counter_of m "no.such")

let test_gauge_and_histogram () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "queue.depth" in
  Metrics.set g 3.0;
  Metrics.set g 7.0;
  Alcotest.(check (float 1e-9)) "gauge keeps last" 7.0 (Metrics.gauge_value g);
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let s = Metrics.summary h in
  Alcotest.(check int) "summary count" 4 (Dsutil.Stats.count s);
  Alcotest.(check (float 1e-9)) "summary mean" 2.5 (Dsutil.Stats.mean s);
  Alcotest.(check int) "bucketed too" 4 (Dsutil.Histogram.count (Metrics.buckets h))

let test_enumeration_sorted () =
  let m = Metrics.create () in
  List.iter (fun n -> ignore (Metrics.counter m n)) [ "z"; "a"; "m" ];
  let names = List.map fst (Metrics.counters m) in
  Alcotest.(check (list string)) "sorted" [ "a"; "m"; "z" ] names

(* --- counter sources ------------------------------------------------------- *)

let test_sources_summed () =
  let m = Metrics.create () in
  let a = ref 2 and b = ref 3 in
  Metrics.source m (fun report -> report "net.sent" !a);
  Metrics.source m (fun report -> report "net.sent" !b);
  Alcotest.(check int) "summed" 5 (Metrics.counter_of m "net.sent");
  (* read at every call, not copied at registration *)
  a := 10;
  Alcotest.(check int) "live" 13 (Metrics.counter_of m "net.sent")

let test_sources_merged_with_registry () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "ops.read.ok") 4;
  Metrics.incr (Metrics.counter m "b");
  Metrics.source m (fun report ->
      report "z" 1;
      report "ops.read.ok" 2;
      report "a" 0);
  Alcotest.(check int) "registry plus source" 6
    (Metrics.counter_of m "ops.read.ok");
  Alcotest.(check (list (pair string int)))
    "sorted, merged"
    [ ("a", 0); ("b", 1); ("ops.read.ok", 6); ("z", 1) ]
    (Metrics.counters m)

let test_unreported_name_absent () =
  let m = Metrics.create () in
  let busy = ref 0 in
  Metrics.source m (fun report -> if !busy > 0 then report "replica.shed" !busy);
  Alcotest.(check (list string)) "absent" []
    (List.map fst (Metrics.counters m));
  Alcotest.(check int) "reads 0" 0 (Metrics.counter_of m "replica.shed");
  busy := 1;
  Alcotest.(check (list string)) "present once reported" [ "replica.shed" ]
    (List.map fst (Metrics.counters m))

let test_network_reattach_counts_once () =
  let engine = Dsim.Engine.create ~seed:1 () in
  let net = Dsim.Network.create ~engine ~n:2 () in
  Dsim.Network.set_handler net ~site:1 (fun ~src:_ _ -> ());
  let obs = Obs.create () in
  Dsim.Network.attach_obs net obs;
  Dsim.Network.attach_obs net obs;
  for _ = 1 to 3 do
    Dsim.Network.send net ~src:0 ~dst:1 ()
  done;
  Dsim.Engine.run engine;
  let m = Obs.metrics obs in
  Alcotest.(check int) "net.sent" 3 (Metrics.counter_of m "net.sent");
  Alcotest.(check int) "net.site.0.sent" 3
    (Metrics.counter_of m "net.site.0.sent");
  Alcotest.(check int) "net.site.1.delivered" 3
    (Metrics.counter_of m "net.site.1.delivered")

(* --- span lifecycle -------------------------------------------------------- *)

(* A hand-cranked clock so phase times are exact. *)
let manual_obs () =
  let now = ref 0.0 in
  let obs = Obs.create ~clock:(fun () -> !now) () in
  (obs, now)

let test_span_happy_path () =
  let obs, now = manual_obs () in
  let mem = Sink.memory () in
  Obs.add_sink obs (Sink.memory_sink mem);
  let sp = Obs.span obs ~op:"read" ~site:7 ~key:3 () in
  Obs.phase obs sp ~kind:Span.Query ~quorum:[ 1; 2; 3 ] ();
  now := 2.0;
  Obs.end_phase obs sp ();
  now := 2.5;
  Obs.finish obs sp ~outcome:Span.Ok;
  let m = Obs.metrics obs in
  Alcotest.(check int) "started" 1 (Metrics.counter_of m "ops.read.started");
  Alcotest.(check int) "ok" 1 (Metrics.counter_of m "ops.read.ok");
  Alcotest.(check int) "no failures" 0 (Metrics.counter_of m "ops.read.failed");
  Alcotest.(check bool) "closed" true (Span.closed sp);
  Alcotest.(check (option (float 1e-9))) "duration" (Some 2.5) (Span.duration sp);
  (match Span.phases sp with
  | [ ph ] ->
    Alcotest.(check (list int)) "quorum" [ 1; 2; 3 ] ph.Span.quorum;
    Alcotest.(check (option (float 1e-9))) "phase latency" (Some 2.0)
      (Span.phase_duration ph);
    Alcotest.(check bool) "not timed out" false ph.Span.timed_out
  | phs -> Alcotest.failf "expected 1 phase, got %d" (List.length phs));
  Alcotest.(check int) "sink got it" 1 (Sink.memory_count mem)

let test_retry_closes_phase_timed_out () =
  let obs, now = manual_obs () in
  let sp = Obs.span obs ~op:"write" ~site:0 () in
  Obs.phase obs sp ~kind:Span.Prepare ~quorum:[ 0; 1 ] ();
  now := 5.0;
  (* The attempt times out: the retry must close the open phase as timed
     out even though no explicit end_phase ran. *)
  Obs.retry obs sp ~backoff:1.5 ();
  Obs.phase obs sp ~kind:Span.Prepare ~quorum:[ 0; 2 ] ();
  now := 8.0;
  Obs.finish obs sp ~outcome:Span.Ok;
  Alcotest.(check int) "attempts" 2 (Span.attempts sp);
  Alcotest.(check int) "retries" 1 (Span.retries sp);
  Alcotest.(check (float 1e-9)) "backoff" 1.5 (Span.backoff_total sp);
  (match Span.phases sp with
  | [ p1; p2 ] ->
    Alcotest.(check bool) "first timed out" true p1.Span.timed_out;
    Alcotest.(check (option (float 1e-9))) "first still closed" (Some 5.0)
      (Span.phase_duration p1);
    Alcotest.(check bool) "second clean" false p2.Span.timed_out;
    Alcotest.(check bool) "second closed by finish" true
      (p2.Span.p_ended <> None)
  | phs -> Alcotest.failf "expected 2 phases, got %d" (List.length phs));
  let m = Obs.metrics obs in
  Alcotest.(check int) "retry counter" 1 (Metrics.counter_of m "ops.write.retries");
  Alcotest.(check int) "phase timeout counter" 1
    (Metrics.counter_of m "phase.prepare.timeout")

let test_explicit_timeout_and_auto_close () =
  let obs, _now = manual_obs () in
  let sp = Obs.span obs ~op:"read" ~site:1 () in
  Obs.phase obs sp ~kind:Span.Query ();
  Obs.set_quorum obs sp [ 4; 5 ];
  Obs.end_phase obs sp ~timed_out:true ();
  (* end_phase with nothing open is a no-op, not an error. *)
  Obs.end_phase obs sp ();
  (* Opening a phase atop an open one closes the old one cleanly. *)
  Obs.phase obs sp ~kind:Span.Query ();
  Obs.phase obs sp ~kind:Span.Commit ();
  Obs.finish obs sp ~outcome:(Span.Failed "gave_up");
  (match Span.phases sp with
  | [ p1; p2; p3 ] ->
    Alcotest.(check bool) "timed out recorded" true p1.Span.timed_out;
    Alcotest.(check (list int)) "set_quorum landed" [ 4; 5 ] p1.Span.quorum;
    Alcotest.(check bool) "auto-closed" true (p2.Span.p_ended <> None);
    Alcotest.(check bool) "auto-close is not a timeout" false p2.Span.timed_out;
    Alcotest.(check bool) "last closed by finish" true (p3.Span.p_ended <> None)
  | phs -> Alcotest.failf "expected 3 phases, got %d" (List.length phs));
  let m = Obs.metrics obs in
  Alcotest.(check int) "failed counter" 1 (Metrics.counter_of m "ops.read.failed")

let test_finish_idempotent_and_accounting () =
  let obs, _ = manual_obs () in
  let mem = Sink.memory () in
  Obs.add_sink obs (Sink.memory_sink mem);
  let a = Obs.span obs ~op:"read" ~site:0 () in
  let b = Obs.span obs ~op:"read" ~site:1 () in
  Alcotest.(check int) "two started" 2 (Obs.spans_started obs);
  Alcotest.(check int) "two open" 2 (Obs.spans_open obs);
  Obs.finish obs a ~outcome:Span.Ok;
  Obs.finish obs a ~outcome:(Span.Failed "again");
  Alcotest.(check int) "double finish emits once" 1 (Sink.memory_count mem);
  Alcotest.(check (option (of_pp Fmt.nop))) "outcome unchanged"
    (Some Span.Ok) (Span.outcome a);
  Alcotest.(check int) "ok counted once" 1
    (Metrics.counter_of (Obs.metrics obs) "ops.read.ok");
  Obs.finish obs b ~outcome:Span.Ok;
  Alcotest.(check int) "all closed" 2 (Obs.spans_closed obs);
  Alcotest.(check int) "none open" 0 (Obs.spans_open obs)

(* --- JSON / sinks ---------------------------------------------------------- *)

let test_span_json () =
  let obs, now = manual_obs () in
  let sp = Obs.span obs ~op:"write" ~site:2 ~key:9 () in
  Obs.phase obs sp ~kind:Span.Prepare ~quorum:[ 0; 3 ] ();
  let open_json = Span.to_json sp in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "open span has null ended" true
    (contains open_json "\"ended\":null");
  now := 3.0;
  Obs.finish obs sp ~outcome:Span.Ok;
  let j = Span.to_json sp in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "has %s" frag) true (contains j frag))
    [
      "\"op\":\"write\""; "\"site\":2"; "\"key\":9"; "\"outcome\":\"ok\"";
      "\"phase\":\"prepare\""; "\"quorum\":[0,3]"; "\"ended\":3";
    ];
  let no_key = Obs.span obs ~op:"read" ~site:0 () in
  Obs.finish obs no_key ~outcome:(Span.Failed "boom");
  let j2 = Span.to_json no_key in
  Alcotest.(check bool) "key omitted" false (contains j2 "\"key\"");
  Alcotest.(check bool) "reason present" true (contains j2 "\"reason\":\"boom\"")

(* Every ["started"] / ["ended"] number in a JSON line, in order. *)
let json_times j =
  let n = String.length j in
  let rec scan i acc =
    match
      List.find_map
        (fun key ->
          let k = String.length key in
          if i + k <= n && String.sub j i k = key then Some k else None)
        [ "\"started\":"; "\"ended\":" ]
    with
    | Some k ->
      let stop = ref (i + k) in
      while !stop < n && j.[!stop] <> ',' && j.[!stop] <> '}' do
        incr stop
      done;
      scan !stop (float_of_string (String.sub j (i + k) (!stop - i - k)) :: acc)
    | None -> if i >= n then List.rev acc else scan (i + 1) acc
  in
  scan 0 []

(* Chaos and churn runs reach 500,000 virtual ms and beyond: the JSON
   must still tell apart events a fraction of a millisecond apart, and
   read back every time exactly. *)
let test_span_json_times_exact () =
  let obs, now = manual_obs () in
  now := 1_000_000.4;
  let sp = Obs.span obs ~op:"write" ~site:2 ~key:9 () in
  let phase_starts =
    [ 1_234_567.891; 1_234_567.8912; 1_234_568.25; 2_500_000.1 +. 0.2 ]
  in
  List.iter
    (fun at ->
      now := at;
      Obs.phase obs sp ~kind:Span.Query ())
    phase_starts;
  now := 3_000_000.123456789;
  Obs.finish obs sp ~outcome:Span.Ok;
  (* The span's started and ended, then each phase's: a phase ends where
     the next one starts, the last one where the span does. *)
  let rec bounds = function
    | a :: (b :: _ as rest) -> a :: b :: bounds rest
    | [ a ] -> [ a; !now ]
    | [] -> []
  in
  Alcotest.(check (list (float 0.0))) "every time reads back exactly"
    (1_000_000.4 :: !now :: bounds phase_starts)
    (json_times (Span.to_json sp))

let test_jsonl_sink_round_trip () =
  let obs, _ = manual_obs () in
  let buf = Buffer.create 256 in
  Obs.add_sink obs (Sink.jsonl (Buffer.add_string buf));
  let spans =
    List.map
      (fun i ->
        let sp = Obs.span obs ~op:"read" ~site:i () in
        Obs.finish obs sp ~outcome:Span.Ok;
        sp)
      [ 0; 1; 2 ]
  in
  let expected =
    String.concat "" (List.map (fun sp -> Span.to_json sp ^ "\n") spans)
  in
  Alcotest.(check string) "jsonl = one to_json line per span" expected
    (Buffer.contents buf);
  Alcotest.(check int) "three lines" 3
    (String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0
       (Buffer.contents buf))

(* --- harness integration --------------------------------------------------- *)

let scenario () =
  let proto =
    Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:15
  in
  let s = Replication.Harness.default_scenario ~proto in
  { s with Replication.Harness.n_clients = 2; ops_per_client = 20; seed = 11 }

let test_harness_accounting () =
  let obs = Obs.create () in
  let report = Replication.Harness.run ~obs (scenario ()) in
  let m = Obs.metrics obs in
  Alcotest.(check int) "no span leaks" 0 (Obs.spans_open obs);
  Alcotest.(check int) "closed = started" (Obs.spans_started obs)
    (Obs.spans_closed obs);
  let ops =
    report.Replication.Harness.reads_ok + report.Replication.Harness.reads_failed
    + report.Replication.Harness.writes_ok
    + report.Replication.Harness.writes_failed
  in
  Alcotest.(check int) "one span per client op" ops (Obs.spans_started obs);
  Alcotest.(check int) "ok reads mirrored" report.Replication.Harness.reads_ok
    (Metrics.counter_of m "ops.read.ok");
  Alcotest.(check int) "ok writes mirrored" report.Replication.Harness.writes_ok
    (Metrics.counter_of m "ops.write.ok");
  Alcotest.(check int) "net.sent mirrors report"
    report.Replication.Harness.messages_sent
    (Metrics.counter_of m "net.sent");
  Alcotest.(check int) "net.delivered mirrors report"
    report.Replication.Harness.messages_delivered
    (Metrics.counter_of m "net.delivered")

let test_attach_does_not_perturb () =
  let plain = Replication.Harness.run (scenario ()) in
  let obs = Obs.create () in
  let observed = Replication.Harness.run ~obs (scenario ()) in
  let open Replication.Harness in
  Alcotest.(check int) "reads_ok" plain.reads_ok observed.reads_ok;
  Alcotest.(check int) "writes_ok" plain.writes_ok observed.writes_ok;
  Alcotest.(check int) "retries" plain.retries observed.retries;
  Alcotest.(check int) "messages" plain.messages_sent observed.messages_sent;
  Alcotest.(check (float 1e-9)) "duration" plain.duration observed.duration

let test_metrics_json_export () =
  let obs = Obs.create () in
  let _report = Replication.Harness.run ~obs (scenario ()) in
  let j = Eval.Export.metrics_json obs in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "has %s" frag) true (contains j frag))
    [
      "\"counters\":"; "\"histograms\":"; "\"spans\":"; "\"net.sent\":";
      "\"ops.read.latency\":"; "\"open\":0";
    ]

(* A real run's exports, pinned: amnesia crashes, retries and the
   consistency checker's spans.  The digests cover every span field and
   every registry value, so any drift in what is recorded — or in how it
   is rendered — shows here. *)
let pinned_run () =
  let proto =
    Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:15
  in
  let s = Replication.Harness.default_scenario ~proto in
  let failures =
    Dsim.Failure.random_crash_recovery ~rng:(Dsutil.Rng.create 5) ~n:15
      ~horizon:4000.0 ~mtbf:120.0 ~mttr:30.0
  in
  let obs = Obs.create () in
  let report =
    Replication.Harness.run ~obs
      {
        s with
        Replication.Harness.n_clients = 3;
        ops_per_client = 40;
        seed = 5;
        failures;
        horizon = 5000.0;
        crash_mode = Dsim.Network.Amnesia;
        check_consistency = true;
      }
  in
  (obs, report)

let test_pinned_export () =
  let obs, report = pinned_run () in
  let open Replication.Harness in
  Alcotest.(check bool) "the run retried" true (report.retries > 0);
  Alcotest.(check bool) "the run crashed replicas" true
    (Array.exists (fun i -> i > 0) report.replica_incarnations);
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "spans jsonl digest" "e485e0cc9461dded4152a74a326eefec"
    (md5 (Eval.Export.spans_jsonl report.spans));
  Alcotest.(check string) "metrics json digest" "3b3d9c0c9a8a159931cdc7e2e3cf6b27"
    (md5 (Eval.Export.metrics_json obs));
  let c = Eval.Consistency.check report.spans in
  Alcotest.(check (list int)) "consistency report" [ 47; 38; 0; 0 ]
    Eval.Consistency.
      [
        c.reads_checked; c.writes_indexed; c.unstamped;
        List.length c.violations;
      ]

(* Every reachable component counter, pinned.  Four seeded runs bump each
   [net.*], [replica.*], [provision.*], [coord.*] and [rpc.*] counter the
   harnesses can reach at least once; the digests cover every registry
   value, and each counter with a report twin must equal it.  Out of
   reach: [net.dropped.no_handler] (every address has a handler),
   [coord.stale_inc.rejected] (no seeded run reorders a pre-crash reply
   behind its successor) and [rpc.busy_received], [rpc.stale_inc.rejected],
   [rpc.retries_suppressed], [rpc.breaker.trips] (transaction endpoints run
   over fail-stop replicas with no service queues, budget or breaker).
   [provision.starts] and [coord.repairs_sent] have no report field. *)
let counter_runs () =
  let module H = Replication.Harness in
  let f time event = { Dsim.Failure.time; event } in
  let overload =
    let proto = Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ()) in
    let n = Quorum.Protocol.universe_size proto in
    {
      (H.default_scenario ~proto) with
      H.n_clients = 3;
      ops_per_client = 30;
      think_time = 5.0;
      horizon = 3000.0;
      seed = 11;
      loss_rate = 0.02;
      crash_mode = Dsim.Network.Amnesia;
      failures =
        Dsim.Failure.
          [
            f 40.0 (Crash 1); f 90.0 (Recover 1); f 120.0 (Partition [ [ 0; 2 ] ]);
            f 160.0 Heal; f 200.0 (Crash (n - 1)); f 260.0 (Recover (n - 1));
          ];
      coordinator =
        {
          Replication.Coordinator.default_config with
          Replication.Coordinator.timeout = 20.0;
          max_retries = 6;
          read_repair = true;
          deadline = 150.0;
        };
      batching = Some { H.batch_size = 3; group_commit = true; pipeline = 2 };
      overload =
        Some
          {
            H.overload_defaults with
            H.queue_capacity = 8;
            service_time = 2.0;
            shed_watermark = 2;
            retry_budget = Some Detect.Budget.default_config;
            breaker = Some Detect.Breaker.default_config;
            burst =
              Some
                {
                  H.burst_at = 50.0;
                  burst_clients = 8;
                  burst_ops = 10;
                  burst_think = 0.5;
                };
          };
    }
  in
  let outage =
    (* fast crash/recover churn, then a twelve-site blackout that one early
       returner cannot catch up through *)
    let proto =
      Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:15
    in
    let blackout =
      List.concat_map
        (fun i ->
          Dsim.Failure.
            [ f 1000.0 (Crash i); f (if i = 0 then 1100.0 else 6000.0) (Recover i) ])
        (List.init 12 Fun.id)
    in
    {
      (H.default_scenario ~proto) with
      H.n_clients = 3;
      ops_per_client = 40;
      seed = 7;
      horizon = 8000.0;
      crash_mode = Dsim.Network.Amnesia;
      failures =
        Dsim.Failure.random_crash_recovery ~rng:(Dsutil.Rng.create 7) ~n:15
          ~horizon:900.0 ~mtbf:40.0 ~mttr:2.0
        @ blackout;
      coordinator =
        {
          Replication.Coordinator.default_config with
          Replication.Coordinator.deadline = 120.0;
          read_repair = true;
        };
    }
  in
  let churn =
    (* donor and recipient crashes under a rolling membership with a short
       provisioning timeout: failovers leave late chunks from old donors *)
    let proto =
      Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:13
    in
    let n = Quorum.Protocol.universe_size proto in
    let s =
      Eval.Churn.scenario ~proto ~spares:2 ~clients:3 ~ops:25 ~key_space:8
        ~failures:
          Dsim.Failure.
            [
              f 60.0 (Crash (n - 1)); f 100.0 (Recover (n - 1)); f 103.0 (Crash 0);
              f 220.0 (Recover 0); f 300.0 (Crash (n - 1)); f 330.0 (Recover (n - 1));
              f 334.0 (Crash (n - 1)); f 400.0 (Recover (n - 1));
            ]
        ~membership:
          [
            { H.at = 80.0; position = 0; spare = n; fence = false };
            { H.at = 500.0; position = 0; spare = 0; fence = false };
            { H.at = 900.0; position = 1; spare = n + 1; fence = true };
          ]
        ~seed:42 ~horizon:3000.0 ~fence:true ()
    in
    {
      s with
      H.churn =
        Option.map (fun c -> { c with H.provision_timeout = 3.0 }) s.H.churn;
    }
  in
  let run s =
    let obs = Obs.create () in
    let report = H.run ~obs s in
    (obs, report)
  in
  let txn =
    let module T = Replication.Txn_harness in
    let proto =
      Arbitrary.Quorums.protocol
        (Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:24)
    in
    let s = T.default_scenario ~proto in
    let obs = Obs.create () in
    let _report =
      T.run ~obs
        {
          s with
          T.failures =
            Dsim.Failure.random_crash_recovery ~rng:(Dsutil.Rng.create 3) ~n:24
              ~horizon:400.0 ~mtbf:150.0 ~mttr:40.0;
          loss_rate = 0.02;
          n_clients = 4;
          seed = 3;
          config =
            {
              s.T.config with
              Replication.Txn.rpc =
                { s.T.config.Replication.Txn.rpc with
                  Replication.Quorum_rpc.deadline = 150.0 };
            };
        }
    in
    obs
  in
  ([ run overload; run outage; run churn ], txn)

let test_pinned_counters () =
  let harness_runs, txn = counter_runs () in
  let md5 s = Digest.to_hex (Digest.string s) in
  let digests =
    List.map (fun (obs, _) -> md5 (Eval.Export.metrics_json obs)) harness_runs
    @ [ md5 (Eval.Export.metrics_json txn) ]
  in
  Alcotest.(check (list string)) "metrics json digests"
    [
      "f32abfed726e1c21c8611b0e88f989ea"; "e0f3959c899fc8572b565bae1c2773bb";
      "e0f6b3736c01130cb699cb42e6fa6e27"; "cf7fa8eaef1ea238a87e791c9800e720";
    ]
    digests;
  let reached = Hashtbl.create 64 in
  let note obs =
    List.iter
      (fun (name, v) -> if v > 0 then Hashtbl.replace reached name ())
      (Metrics.counters (Obs.metrics obs))
  in
  List.iter (fun (obs, _) -> note obs) harness_runs;
  note txn;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " reached") true (Hashtbl.mem reached name))
    [
      "net.sent"; "net.delivered"; "net.dropped.loss"; "net.dropped.crash";
      "net.dropped.partition"; "net.dropped.overload"; "net.coalesced";
      "replica.shed"; "replica.catchup.runs"; "replica.catchup.keys_installed";
      "replica.catchup.abandoned"; "replica.rejoin.failed";
      "replica.recoveries"; "replica.stale_inc.nacked";
      "replica.decommissioned"; "provision.starts"; "provision.runs";
      "provision.chunks"; "provision.resumes"; "provision.donor_failovers";
      "provision.stale"; "coord.busy_received"; "coord.deadline_exceeded";
      "coord.retries_suppressed"; "coord.breaker.trips"; "coord.repairs_sent";
      "coord.batches"; "rpc.deadline_exceeded";
    ];
  List.iter
    (fun (obs, (r : Replication.Harness.report)) ->
      let m = Obs.metrics obs in
      let c = Metrics.counter_of m in
      let sum_sites suffix =
        List.fold_left
          (fun acc (name, v) ->
            match String.split_on_char '.' name with
            | [ "net"; "site"; _; s ] when s = suffix -> acc + v
            | _ -> acc)
          0 (Metrics.counters m)
      in
      let open Replication.Harness in
      List.iter
        (fun (name, registry, report) ->
          Alcotest.(check int) name report registry)
        [
          ("net.sent", c "net.sent", r.messages_sent);
          ("net.delivered", c "net.delivered", r.messages_delivered);
          ( "net.dropped.*",
            c "net.dropped.loss" + c "net.dropped.crash"
            + c "net.dropped.partition" + c "net.dropped.no_handler"
            + c "net.dropped.overload",
            r.messages_dropped );
          ("net.dropped.overload", c "net.dropped.overload", r.overload_drops);
          ("net.coalesced", c "net.coalesced", r.coalesced_ops);
          ("net.site.*.sent", sum_sites "sent", r.messages_sent);
          ("net.site.*.delivered", sum_sites "delivered", r.messages_delivered);
          ("replica.shed", c "replica.shed", r.replica_sheds);
          ("replica.catchup.runs", c "replica.catchup.runs", r.catchup_runs);
          ( "replica.catchup.keys_installed",
            c "replica.catchup.keys_installed",
            r.catchup_keys_installed );
          ( "replica.catchup.abandoned",
            c "replica.catchup.abandoned",
            r.catchup_abandoned );
          ("replica.rejoin.failed", c "replica.rejoin.failed", r.failed_rejoins);
          ( "replica.recoveries",
            c "replica.recoveries",
            Array.fold_left ( + ) 0 r.replica_incarnations );
          ( "replica.stale_inc.nacked",
            c "replica.stale_inc.nacked",
            r.stale_commits_nacked );
          ( "replica.decommissioned",
            c "replica.decommissioned",
            r.decommissions_done );
          ("provision.runs", c "provision.runs", r.provision_runs);
          ("provision.chunks", c "provision.chunks", r.provision_chunks);
          ("provision.resumes", c "provision.resumes", r.provision_resumes);
          ( "provision.donor_failovers",
            c "provision.donor_failovers",
            r.provision_donor_failovers );
          ("provision.stale", c "provision.stale", r.provision_stale);
          ("coord.busy_received", c "coord.busy_received", r.busy_received);
          ( "coord.stale_inc.rejected",
            c "coord.stale_inc.rejected",
            r.stale_incarnation_rejections );
          ( "coord.deadline_exceeded",
            c "coord.deadline_exceeded",
            r.deadline_exceeded );
          ( "coord.retries_suppressed",
            c "coord.retries_suppressed",
            r.retries_suppressed );
          ("coord.breaker.trips", c "coord.breaker.trips", r.breaker_trips);
          ("coord.batches", c "coord.batches", r.batches);
        ])
    harness_runs

let suite =
  [
    Alcotest.test_case "counter get-or-create" `Quick test_counter_get_or_create;
    Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
    Alcotest.test_case "enumeration sorted" `Quick test_enumeration_sorted;
    Alcotest.test_case "two sources of one name are summed" `Quick
      test_sources_summed;
    Alcotest.test_case "sources merged with registry counters" `Quick
      test_sources_merged_with_registry;
    Alcotest.test_case "unreported name is absent" `Quick
      test_unreported_name_absent;
    Alcotest.test_case "network re-attach counts once" `Quick
      test_network_reattach_counts_once;
    Alcotest.test_case "span happy path" `Quick test_span_happy_path;
    Alcotest.test_case "retry closes phase timed-out" `Quick
      test_retry_closes_phase_timed_out;
    Alcotest.test_case "explicit timeout + auto-close" `Quick
      test_explicit_timeout_and_auto_close;
    Alcotest.test_case "finish idempotent, accounting" `Quick
      test_finish_idempotent_and_accounting;
    Alcotest.test_case "span json" `Quick test_span_json;
    Alcotest.test_case "span json times read back exactly" `Quick
      test_span_json_times_exact;
    Alcotest.test_case "jsonl sink round trip" `Quick test_jsonl_sink_round_trip;
    Alcotest.test_case "harness accounting" `Quick test_harness_accounting;
    Alcotest.test_case "attach does not perturb" `Quick
      test_attach_does_not_perturb;
    Alcotest.test_case "metrics json export" `Quick test_metrics_json_export;
    Alcotest.test_case "pinned export of an amnesia run" `Quick
      test_pinned_export;
    Alcotest.test_case "pinned export of an overload, churn and txn run" `Quick
      test_pinned_counters;
  ]
