(* Edge cases for the coordinator and the low-level quorum RPC. *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Coordinator = Replication.Coordinator
module Replica = Replication.Replica
module Quorum_rpc = Replication.Quorum_rpc
module Timestamp = Replication.Timestamp
module Stats = Dsutil.Stats

let build ?(spec = "1-3-5") ?(seed = 42) ?(loss_rate = 0.0) ?config () =
  let tree = Arbitrary.Tree.of_spec spec in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n:(n + 2) ~loss_rate () in
  let replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let coord = Coordinator.create ~site:n ~net ~proto ?config () in
  let rpc = Quorum_rpc.create ~site:(n + 1) ~net ~proto () in
  (engine, net, replicas, coord, rpc)

let test_single_replica_system () =
  let engine, net, _, coord, _ = build ~spec:"1" () in
  let wrote = ref None and read = ref None in
  Coordinator.write coord ~key:0 ~value:"solo" (fun r ->
      wrote := r;
      Coordinator.read coord ~key:0 (fun r -> read := r));
  Engine.run engine;
  Alcotest.(check bool) "write ok" true (!wrote <> None);
  (match !read with
  | Some { Coordinator.value; _ } -> Alcotest.(check string) "value" "solo" value
  | None -> Alcotest.fail "read failed");
  (* The sole replica down: everything fails. *)
  Network.crash net 0;
  let failed = ref false in
  Coordinator.read coord ~key:0 (fun r -> failed := r = None);
  Engine.run engine;
  Alcotest.(check bool) "read fails" true !failed

let test_write_survives_message_loss () =
  (* 20% loss: per-phase timeouts retry with fresh quorums and commit
     resends absorb lost commit messages.  Several seeds for robustness. *)
  let ok = ref 0 in
  List.iter
    (fun seed ->
      let engine, _, _, coord, _ =
        build ~loss_rate:0.2 ~seed
          ~config:{ Coordinator.default_config with max_retries = 15 } ()
      in
      Coordinator.write coord ~key:1 ~value:"lossy" (fun r ->
          if r <> None then incr ok);
      Engine.run engine)
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check bool)
    (Printf.sprintf "lossy writes succeed with retry budget (%d/6)" !ok)
    true (!ok >= 5)

let test_op_succeeds_after_partition_heals () =
  let engine, net, _, coord, _ = build () in
  (* Separate the coordinator from level 1 so the first attempts fail; heal
     before the retry budget runs out. *)
  Network.partition net [ [ 8; 3; 4; 5; 6; 7 ]; [ 0; 1; 2 ] ];
  Engine.schedule engine ~delay:30.0 (fun () -> Network.heal net);
  let result = ref None in
  Coordinator.read coord ~key:0 (fun r -> result := r);
  Engine.run engine;
  Alcotest.(check bool) "read eventually succeeds" true (!result <> None);
  Alcotest.(check bool) "retries were needed" true
    ((Coordinator.metrics coord).Coordinator.retries >= 1)

let test_latency_stats_recorded () =
  let engine, _, _, coord, _ = build () in
  for i = 0 to 4 do
    Coordinator.write coord ~key:i ~value:"x" (fun _ -> ())
  done;
  Engine.run engine;
  let m = Coordinator.metrics coord in
  Alcotest.(check int) "five writes measured" 5 (Stats.count m.Coordinator.write_latency);
  Alcotest.(check bool) "positive latency" true
    (Stats.mean m.Coordinator.write_latency > 0.0);
  Alcotest.(check int) "no read latencies" 0 (Stats.count m.Coordinator.read_latency)

let test_concurrent_ops_different_keys () =
  let engine, _, _, coord, _ = build () in
  let done_count = ref 0 in
  for i = 0 to 9 do
    Coordinator.write coord ~key:i ~value:(string_of_int i) (fun r ->
        if r <> None then incr done_count)
  done;
  Engine.run engine;
  Alcotest.(check int) "all ten writes complete" 10 !done_count;
  let read_back = ref 0 in
  for i = 0 to 9 do
    Coordinator.read coord ~key:i (fun r ->
        match r with
        | Some { Coordinator.value; _ } when value = string_of_int i ->
          incr read_back
        | _ -> ())
  done;
  Engine.run engine;
  Alcotest.(check int) "all values correct" 10 !read_back

(* Regression: the lock owner was the client site, so a second in-flight
   operation on a key the same client already held or waited for raised
   [Invalid_argument] (pipelined batch windows and per-shard sub-batches
   both issue such pairs).  Each locked operation now owns its lock. *)
let test_concurrent_ops_same_key_locked () =
  let engine, net, _, _, _ = build () in
  let locks = Replication.Lock_manager.create ~engine in
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Tree.of_spec "1-3-5") in
  let coord = Coordinator.create ~site:8 ~net ~proto ~locks () in
  let log = ref [] in
  Coordinator.read coord ~key:0 (fun r -> log := ("r1", r <> None) :: !log);
  Coordinator.write coord ~key:0 ~value:"a" (fun r ->
      log := ("w", r <> None) :: !log);
  Coordinator.read coord ~key:0 (fun r -> log := ("r2", r <> None) :: !log);
  Engine.run engine;
  Alcotest.(check (list (pair string bool)))
    "all three complete, in lock order"
    [ ("r1", true); ("w", true); ("r2", true) ]
    (List.rev !log);
  Alcotest.(check bool) "lock released" true
    (Replication.Lock_manager.holders locks ~key:0 = None)

(* Regression: caller-level re-issues must never deposit into the shared
   retry budget.  Every operation entry used to deposit unconditionally,
   so a storm of re-issued failures earned back the very tokens its
   internal retries spent — the budget never reached sustained
   suppression.  With [~retry:true] the deposit is skipped: a storm with
   zero genuine first attempts drains the bucket once and stays drained. *)
let test_reissue_storm_cannot_refill_budget () =
  let tree = Arbitrary.Tree.of_spec "1-3-5" in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed:9 () in
  let net = Network.create ~engine ~n:(n + 1) () in
  let _replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let budget =
    Detect.Budget.create ~config:{ Detect.Budget.ratio = 0.5; burst = 3.0 } ()
  in
  let coord =
    Coordinator.create ~site:n ~net ~proto ~budget
      ~config:
        { Coordinator.default_config with max_retries = 5; timeout = 5.0 }
      ()
  in
  (* Every replica down: each re-issue can only fail, retrying until the
     budget refuses. *)
  for site = 0 to n - 1 do
    Network.crash net site
  done;
  let failures = ref 0 in
  for i = 0 to 19 do
    Coordinator.write coord ~retry:true ~key:(i mod 4) ~value:"storm"
      (fun r -> if r = None then incr failures)
  done;
  Engine.run engine;
  Alcotest.(check int) "every re-issue failed" 20 !failures;
  Alcotest.(check int) "zero first attempts recorded" 0
    (Detect.Budget.attempts budget);
  Alcotest.(check int) "only the initial burst was granted" 3
    (Detect.Budget.granted budget);
  Alcotest.(check bool) "bucket drained for good" true
    (Detect.Budget.tokens budget < 1.0);
  let m = Coordinator.metrics coord in
  Alcotest.(check bool) "suppression is sustained" true
    (m.Coordinator.retries_suppressed >= 17);
  (* A second wave meets the same wall: no grants, only suppression. *)
  let suppressed_before = Detect.Budget.suppressed budget in
  for i = 0 to 9 do
    Coordinator.write coord ~retry:true ~key:(i mod 4) ~value:"storm2"
      (fun _ -> ())
  done;
  Engine.run engine;
  Alcotest.(check int) "still only the initial burst" 3
    (Detect.Budget.granted budget);
  Alcotest.(check bool) "second wave only suppressed" true
    (Detect.Budget.suppressed budget > suppressed_before)

let test_rpc_retry_flag_skips_deposit () =
  (* Same contract one layer down: [Quorum_rpc.query ~retry:true] leaves
     the bucket untouched while a plain call deposits. *)
  let tree = Arbitrary.Tree.of_spec "1-3" in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed:4 () in
  let net = Network.create ~engine ~n:(n + 1) () in
  let _replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let budget =
    Detect.Budget.create ~config:{ Detect.Budget.ratio = 0.5; burst = 2.0 } ()
  in
  let rpc = Quorum_rpc.create ~site:n ~net ~proto ~budget () in
  Quorum_rpc.query rpc ~retry:true ~key:0 (fun _ -> ());
  Engine.run engine;
  Alcotest.(check int) "re-issue deposits nothing" 0
    (Detect.Budget.attempts budget);
  Quorum_rpc.query rpc ~key:0 (fun _ -> ());
  Engine.run engine;
  Alcotest.(check int) "first attempt deposits" 1
    (Detect.Budget.attempts budget)

let test_rpc_query_no_quorum () =
  let engine, net, _, _, rpc = build () in
  List.iter (Network.crash net) [ 0; 1; 2 ];
  let result = ref (Some (Timestamp.zero, "unset")) in
  Quorum_rpc.query rpc ~key:0 (fun r -> result := r);
  Engine.run engine;
  Alcotest.(check bool) "None without read quorum" true (!result = None)

let test_rpc_forced_ts_idempotent () =
  let engine, _, replicas, _, rpc = build () in
  let ts = Timestamp.make ~version:5 ~sid:2 in
  let first = ref None and second = ref None in
  Quorum_rpc.write rpc ~key:3 ~ts ~value:"once" (fun r ->
      first := r;
      Quorum_rpc.write rpc ~key:3 ~ts ~value:"once" (fun r -> second := r));
  Engine.run engine;
  Alcotest.(check bool) "both writes acknowledged" true
    (!first <> None && !second <> None);
  (* Same timestamp: applied at most once per replica. *)
  let applied =
    Array.fold_left (fun acc r -> acc + Replica.writes_applied r) 0 replicas
  in
  Alcotest.(check bool) "no double apply" true (applied <= 8)

let test_rpc_commit_incomplete_on_crash () =
  let engine, net, _, _, rpc = build ~spec:"2-2" () in
  (* Prepare on the only... with spec 2-2 both levels have 2 replicas; the
     write quorum is one full level.  Crash one member after prepare. *)
  let outcome = ref None in
  Quorum_rpc.prepare rpc ~key:0 ~ts:(Timestamp.make ~version:1 ~sid:9)
    ~value:"v" (function
    | None -> Alcotest.fail "prepare must succeed"
    | Some op ->
      (* Kill one site per level before the commit round: whichever level
         staged, one of its members is gone. *)
      List.iter (Network.crash net) [ 0; 2 ];
      Quorum_rpc.commit_staged rpc ~op (fun ok -> outcome := Some ok));
  Engine.run engine;
  Alcotest.(check bool) "commit reported incomplete" true (!outcome = Some false)

let test_set_protocol_validation () =
  let _, _, _, coord, rpc = build () in
  let other = Arbitrary.Quorums.protocol (Arbitrary.Tree.of_spec "1-2-3") in
  Alcotest.check_raises "coordinator rejects size change"
    (Invalid_argument "Coordinator.set_protocol: replica universe changed")
    (fun () -> Coordinator.set_protocol coord other);
  Alcotest.check_raises "rpc rejects size change"
    (Invalid_argument "Quorum_rpc.set_protocol: replica universe changed")
    (fun () -> Quorum_rpc.set_protocol rpc other)

let suite =
  [
    Alcotest.test_case "single-replica system" `Quick test_single_replica_system;
    Alcotest.test_case "write survives message loss" `Quick
      test_write_survives_message_loss;
    Alcotest.test_case "op succeeds after partition heals" `Quick
      test_op_succeeds_after_partition_heals;
    Alcotest.test_case "latency stats recorded" `Quick test_latency_stats_recorded;
    Alcotest.test_case "concurrent ops on different keys" `Quick
      test_concurrent_ops_different_keys;
    Alcotest.test_case "concurrent locked ops on one key" `Quick
      test_concurrent_ops_same_key_locked;
    Alcotest.test_case "re-issue storm cannot refill budget" `Quick
      test_reissue_storm_cannot_refill_budget;
    Alcotest.test_case "rpc retry flag skips deposit" `Quick
      test_rpc_retry_flag_skips_deposit;
    Alcotest.test_case "rpc query without quorum" `Quick test_rpc_query_no_quorum;
    Alcotest.test_case "rpc forced-ts idempotence" `Quick
      test_rpc_forced_ts_idempotent;
    Alcotest.test_case "rpc commit incomplete on crash" `Quick
      test_rpc_commit_incomplete_on_crash;
    Alcotest.test_case "set_protocol validation" `Quick test_set_protocol_validation;
  ]
