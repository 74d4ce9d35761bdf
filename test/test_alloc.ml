(* Allocation budgets of the dispatch path, in minor-heap words.
   [Gc.minor_words] counts words, not time, so for a given compiler the
   figures are exact and machine-independent.  Each probe warms its world
   first (heap and table growth, round pools, plan caches), then measures
   many iterations and divides. *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Bitset = Dsutil.Bitset
module Coordinator = Replication.Coordinator
module Replica = Replication.Replica
module View = Detect.View
module Message = Replication.Message
module Wal = Replication.Wal

(* Minor words per call of [f], over [iters] calls. *)
let words_per ~iters f =
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

(* A budget of 0 tolerates a sub-word average: a stray constant (the
   probe's own bookkeeping) spread over thousands of iterations. *)
let check_budget name ~budget words =
  if words > budget +. 0.05 then
    Alcotest.failf "%s: %.2f words per call, budget %g" name words budget

let test_engine_event () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let h = Engine.handler (fun meta _ -> fired := !fired + meta) in
  let payload = Obj.repr 0 in
  let event () =
    Engine.schedule_packed e ~delay:1.5 h ~meta:1 ~payload;
    ignore (Engine.step e)
  in
  for _ = 1 to 64 do
    event ()
  done;
  check_budget "schedule_packed + step" ~budget:0.0
    (words_per ~iters:10_000 event);
  Alcotest.(check int) "every event ran" 10_064 !fired

(* A seeded [n]-site network with the default latency model. *)
let network ~n =
  let engine = Engine.create ~seed:1 () in
  (engine, Network.create ~engine ~n ())

let test_network_send () =
  let engine, net = network ~n:2 in
  let got = ref 0 in
  Network.set_handler net ~site:1 (fun ~src:_ msg -> got := !got + msg);
  let msg = 1 in
  let send () =
    Network.send net ~src:0 ~dst:1 msg;
    while Engine.step engine do
      ()
    done
  in
  for _ = 1 to 64 do
    send ()
  done;
  (* The sampled delay is boxed once on its way from the latency model to
     the engine: two words. *)
  check_budget "send -> deliver" ~budget:2.0 (words_per ~iters:10_000 send);
  Alcotest.(check int) "every message delivered" 10_064 !got

let test_oracle_view_cached () =
  let _, net = network ~n:9 in
  let v = View.oracle ~net ~self:8 ~n:8 in
  ignore (v.View.alive ());
  check_budget "oracle alive ()" ~budget:0.0
    (words_per ~iters:10_000 (fun () -> ignore (v.View.alive ())))

(* The cached set follows every topology change. *)
let test_oracle_view_rebuilt () =
  let _, net = network ~n:5 in
  let v = View.oracle ~net ~self:4 ~n:4 in
  let alive () = Bitset.elements (v.View.alive ()) in
  let check what expected =
    Alcotest.(check (list int)) what expected (alive ())
  in
  check "initially" [ 0; 1; 2; 3 ];
  Network.crash net 2;
  check "after crash" [ 0; 1; 3 ];
  Network.crash net 2;
  check "redundant crash" [ 0; 1; 3 ];
  Network.recover net 2;
  check "after recover" [ 0; 1; 2; 3 ];
  Network.partition net [ [ 0; 1 ] ];
  check "after partition" [ 2; 3 ];
  Network.partition net [ [ 0; 1; 4 ] ];
  check "after repartition" [ 0; 1 ];
  Network.crash net 0;
  check "crash inside the partition" [ 1 ];
  Network.heal net;
  check "after heal" [ 1; 2; 3 ];
  Network.recover net 0;
  check "after the last recover" [ 0; 1; 2; 3 ]

(* ARBITRARY n = 65 with the default coordinator (oracle view, fixed
   timeout, no locks, no spans), failure-free: the read-mostly benchmark's
   store. *)
let test_coordinator_ops () =
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:65 in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed:1 () in
  let net = Network.create ~engine ~n:(n + 1) () in
  let _replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let coord = Coordinator.create ~site:n ~net ~proto () in
  let ok = ref 0 in
  let value = "v" in
  let write key () =
    Coordinator.write coord ~key ~value (function
      | Some _ -> incr ok
      | None -> ());
    Engine.run engine
  in
  let read key () =
    Coordinator.read coord ~key (function Some _ -> incr ok | None -> ());
    Engine.run engine
  in
  for key = 0 to 7 do
    write key ();
    read key ()
  done;
  let rd = words_per ~iters:2_000 (read 3) in
  let wr = words_per ~iters:1_000 (write 5) in
  Alcotest.(check int) "every op succeeded" 3_016 !ok;
  check_budget "warm read" ~budget:160.0 rd;
  check_budget "warm write" ~budget:400.0 wr

(* The same warm write on ARBITRARY n = 33 with an observer and a memory
   sink attached, as write-heavy-crash runs it: every write opens a span,
   records its query, prepare and commit quorums, closes it and keeps it.
   Budget: the measurement (378.6 words) plus 10%.  With a list cell per
   quorum member, a record and boxed times per phase, and a metric name
   built and hashed per span event, the same write cost 511.0 words. *)
let test_observed_write () =
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:33 in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed:1 () in
  let net = Network.create ~engine ~n:(n + 1) () in
  let obs = Obs.create () in
  let mem = Obs.Sink.memory () in
  Obs.add_sink obs (Obs.Sink.memory_sink mem);
  Obs.set_clock obs (fun () -> Engine.now engine);
  let _replicas =
    Array.init n (fun site -> Replica.create ~site ~net ~obs ())
  in
  let coord = Coordinator.create ~site:n ~net ~proto ~obs () in
  let ok = ref 0 in
  let write key () =
    Coordinator.write coord ~key ~value:"v" (function
      | Some _ -> incr ok
      | None -> ());
    Engine.run engine
  in
  for key = 0 to 7 do
    write key ()
  done;
  let wr = words_per ~iters:1_000 (write 5) in
  Alcotest.(check int) "every write succeeded" 1_008 !ok;
  Alcotest.(check int) "every span kept" 1_008 (Obs.Sink.memory_count mem);
  check_budget "observed warm write" ~budget:416.5 wr

(* What one closed span keeps alive: a write with a key, a result
   timestamp and four phases of four members each.  The op string is
   shared by every span of the op, so it is not charged.  Stored flat the
   span keeps 48 words: its record (13), times (4), phase codes (5),
   phase bounds (9) and members (17).  Phase records, quorum lists and
   boxed times kept 137. *)
let test_span_retained_words () =
  (* Every stamp a distinct time, like the engine's clock. *)
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    float_of_int !ticks *. 1.25
  in
  let obs = Obs.create ~clock () in
  let op = String.concat "" [ "wri"; "te" ] in
  let sp = Obs.span obs ~op ~site:3 ~key:7 () in
  List.iteri
    (fun i kind ->
      Obs.phase obs sp ~kind ~quorum:(List.init 4 (fun m -> (4 * i) + m)) ();
      Obs.end_phase obs sp ())
    Obs.Span.[ Lock; Query; Prepare; Commit ];
  Obs.set_result_ts obs sp ~version:2 ~sid:3;
  Obs.finish obs sp ~outcome:Obs.Span.Ok;
  Alcotest.(check int) "four phases" 4 (List.length (Obs.Span.phases sp));
  let words = Obj.reachable_words (Obj.repr sp) - Obj.reachable_words (Obj.repr op) in
  Alcotest.(check bool) (Printf.sprintf "%d words retained, budget 56" words)
    true (words <= 56)

(* The flat WAL appenders: 0 minor words per record, single or batched,
   stored or merely counted.  A new chunk's columns are allocated straight
   in the major heap; only its 8-word record is minor, once per 512
   rows, inside the tolerance. *)
let test_wal_appenders () =
  let engine = Engine.create ~seed:1 () in
  let batch =
    Replication.Batch.init 32 (fun i -> (i, 1, 0, "v"))
  in
  List.iter
    (fun policy ->
      let wal = Wal.of_clock ~policy (Engine.clock engine) in
      for key = 1 to 1_000 do
        Wal.install wal ~key ~version:1 ~sid:0 ~value:"v"
      done;
      let name what =
        Printf.sprintf "%s (%s)" what (Wal.policy_to_string policy)
      in
      let per_record ~records ~iters what f =
        check_budget (name what) ~budget:0.0
          (words_per ~iters f /. float_of_int records)
      in
      per_record ~records:4 ~iters:1_000 "stage+commit+install+abort"
        (fun () ->
          Wal.stage wal ~op:1 ~key:2 ~version:3 ~sid:0 ~value:"v";
          Wal.commit wal ~op:1 ~key:2 ~version:3 ~sid:0 ~value:"v";
          Wal.install wal ~key:2 ~version:3 ~sid:0 ~value:"v";
          Wal.abort wal ~op:1);
      per_record ~records:64 ~iters:100 "grouped stage_batch+commit_batch"
        (fun () ->
          Wal.stage_batch wal ~group:true ~op:1 batch;
          Wal.commit_batch wal ~group:true ~op:1 batch))
    [ Wal.Sync_on_commit; Wal.Sync_on_prepare; Wal.Async 5.0 ]

(* One group-commit replica with a Sync_on_commit WAL handling a 32-key
   [Prepare_batch] and its [Commit], acks included: the batched-capacity
   workload's write path at one replica.  32 words measured: the two
   acks, four boxed delays, the staged batch's builder and table bucket;
   the list-based WAL's records cost 1,797. *)
let test_replica_batch_write () =
  let engine, net = network ~n:2 in
  let replica =
    Replica.create ~site:0 ~net
      ~recovery:(Replica.recovery ~catch_up:false ())
      ~group_commit:true ()
  in
  let acks = ref 0 in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> incr acks);
  let writes = Replication.Batch.init 32 (fun i -> (i, 1, 0, "v")) in
  let prepare = Message.Prepare_batch { op = 7; writes } in
  let commit = Message.Commit { op = 7; inc = 0 } in
  let round () =
    Network.send net ~src:1 ~dst:0 prepare;
    Engine.run engine;
    Network.send net ~src:1 ~dst:0 commit;
    Engine.run engine
  in
  for _ = 1 to 64 do
    round ()
  done;
  let words = words_per ~iters:2_000 round in
  Alcotest.(check int) "every prepare and commit acked" 4_128 !acks;
  Alcotest.(check int) "every write applied" (2_064 * 32)
    (Replica.writes_applied replica);
  check_budget "Prepare_batch + Commit, 32 keys" ~budget:40.0 words

(* The whole-harness probe: minor words per completed op of a seeded §4
   workload (one client, 2,000 ops, seed 42, failure-free, n = 33 adjusted
   per configuration), read-only and write-only, measured on a second run
   after a warm-up run keeps lazy table and plan initialization out.
   Budgets are the measurement plus 10%.  Each is at most half the figure
   the same probe measured before the hot-path flattening (commit
   c0b3564): read 895.4 / 365.4 / 2,600.7 / 1,324.5 and write 2,850.2 /
   12,300.7 / 3,296.8 / 2,580.5 words. *)
let harness_budgets =
  [
    (* config, read-path words/op, write-path words/op *)
    (Arbitrary.Config.Unmodified, 153.6, 389.5);
    (Arbitrary.Config.Mostly_read, 105.4, 1106.7);
    (Arbitrary.Config.Mostly_write, 287.1, 403.4);
    (Arbitrary.Config.Arbitrary, 190.1, 365.5);
  ]

let test_harness_words_per_op () =
  let words_per_op ~read_fraction name =
    let s =
      {
        (Eval.Batching.scenario ~name ~n:33 ~ops:2_000 ~seed:42 ()) with
        Replication.Harness.read_fraction;
      }
    in
    ignore (Replication.Harness.run s);
    let w0 = Gc.minor_words () in
    let r = Replication.Harness.run s in
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) "every op completed" 2_000
      (Replication.Harness.completed r);
    words /. 2_000.0
  in
  List.iter
    (fun (name, rd_budget, wr_budget) ->
      let what path =
        Printf.sprintf "%s %s" (Arbitrary.Config.name_to_string name) path
      in
      let rd = words_per_op ~read_fraction:1.0 name in
      let wr = words_per_op ~read_fraction:0.0 name in
      check_budget (what "read") ~budget:rd_budget rd;
      check_budget (what "write") ~budget:wr_budget wr)
    harness_budgets

let suite =
  [
    Alcotest.test_case "engine event allocates nothing" `Quick
      test_engine_event;
    Alcotest.test_case "network send -> deliver within 2 words" `Quick
      test_network_send;
    Alcotest.test_case "oracle view allocates nothing when unchanged" `Quick
      test_oracle_view_cached;
    Alcotest.test_case "oracle view follows every topology change" `Quick
      test_oracle_view_rebuilt;
    Alcotest.test_case "warm read and write within budget" `Quick
      test_coordinator_ops;
    Alcotest.test_case "observed warm write within budget" `Quick
      test_observed_write;
    Alcotest.test_case "closed span retains <= 56 words" `Quick
      test_span_retained_words;
    Alcotest.test_case "flat WAL appenders allocate nothing" `Quick
      test_wal_appenders;
    Alcotest.test_case "group-commit batch write within budget" `Quick
      test_replica_batch_write;
    Alcotest.test_case "harness words per op within budget" `Quick
      test_harness_words_per_op;
  ]
