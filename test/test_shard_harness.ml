(* The sharded multi-tree control plane: an explicit one-shard run is
   byte-identical to a run without sharding, per-shard routing and
   accounting, determinism per seed, crash recovery per shard, and online
   split/merge with fenced state-transfer migration. *)

module Harness = Replication.Harness
module Shard_map = Arbitrary.Shard_map
module Batching = Eval.Batching
module Consistency = Eval.Consistency
module Failure = Dsim.Failure
module Network = Dsim.Network
module Rng = Dsutil.Rng

let proto_of_spec spec =
  Arbitrary.Quorums.protocol (Arbitrary.Tree.of_spec spec)

let base_scenario ?(seed = 42) ?(clients = 3) ?(ops = 40) ?(key_space = 32)
    ?(zipf = 0.0) () =
  let proto = proto_of_spec "1-3-5" in
  {
    (Harness.default_scenario ~proto) with
    n_clients = clients;
    ops_per_client = ops;
    key_space;
    zipf_theta = zipf;
    seed;
    check_consistency = true;
  }

let sharded ?(shards = 4) ?(strategy = Shard_map.Hash) ?(shard_failures = [])
    ?(reconfig = []) base =
  {
    base with
    Harness.sharding = Some { shards; strategy; shard_failures; reconfig };
  }

(* --- S=1 byte-identity --------------------------------------------------- *)

let test_s1_identity () =
  let base = base_scenario () in
  let unsharded = Harness.run base in
  let r = Harness.run (sharded ~shards:1 base) in
  Alcotest.(check string)
    "S=1 fingerprint == unsharded fingerprint"
    (Batching.fingerprint unsharded)
    (Batching.fingerprint r)

let test_s1_identity_batched () =
  let batching =
    Some { Harness.batch_size = 8; group_commit = true; pipeline = 2 }
  in
  let base = { (base_scenario ~seed:7 ()) with batching } in
  let unsharded = Harness.run base in
  let r = Harness.run (sharded ~shards:1 base) in
  Alcotest.(check string)
    "S=1 batched fingerprint == unsharded"
    (Batching.fingerprint unsharded)
    (Batching.fingerprint r);
  Alcotest.(check bool) "batches engaged" true (r.Harness.batches > 0)

let test_s1_identity_amnesia_failures () =
  let entries seed =
    Failure.random_crash_recovery ~rng:(Rng.create seed) ~n:8 ~horizon:300.0
      ~mtbf:80.0 ~mttr:15.0
  in
  let base =
    {
      (base_scenario ~seed:11 ()) with
      crash_mode = Network.Amnesia;
      failures = entries 1234;
    }
  in
  let unsharded = Harness.run base in
  let r =
    Harness.run
      (sharded ~shards:1 ~shard_failures:[ (0, entries 1234) ]
         { base with failures = [] })
  in
  Alcotest.(check string)
    "S=1 amnesia+crashes fingerprint == unsharded"
    (Batching.fingerprint unsharded)
    (Batching.fingerprint r)

(* --- sharded runs -------------------------------------------------------- *)

let test_sharded_completes_and_routes () =
  let base = base_scenario ~clients:4 ~ops:30 ~key_space:64 () in
  let r = Harness.run (sharded ~shards:4 base) in
  let total = 4 * 30 in
  Alcotest.(check int) "all ops complete" total (Harness.completed r);
  Alcotest.(check int) "no safety violations" 0
    r.Harness.safety_violations;
  Alcotest.(check int) "per-shard ops sum to total" total
    (Array.fold_left ( + ) 0 r.Harness.per_shard_ops);
  Alcotest.(check int) "4 shards" 4 r.Harness.shards;
  Alcotest.(check bool) "well formed" true r.Harness.map_well_formed;
  (* Every shard of a 64-key hash map should see some traffic. *)
  Array.iter
    (fun ops -> Alcotest.(check bool) "every shard served ops" true (ops > 0))
    r.Harness.per_shard_ops;
  let violations = Consistency.check r.Harness.spans in
  Alcotest.(check int) "trace checker clean" 0
    (List.length violations.Consistency.violations)

let test_sharded_deterministic () =
  let run () =
    Batching.fingerprint
      (Harness.run (sharded ~shards:4 (base_scenario ~seed:5 ())))
  in
  Alcotest.(check string) "same seed, same sharded run" (run ()) (run ())

let test_sharded_range_strategy () =
  let base = base_scenario ~clients:3 ~ops:25 ~key_space:40 () in
  let r = Harness.run (sharded ~shards:4 ~strategy:Shard_map.Range base) in
  Alcotest.(check int) "all ops complete" (3 * 25)
    (Harness.completed r);
  Alcotest.(check bool) "well formed" true r.Harness.map_well_formed;
  Alcotest.(check int) "10 keys per shard" 10 r.Harness.per_shard_keys.(0)

let test_sharded_crash_one_shard () =
  (* Blackout one shard's replicas mid-run: its ops fail or retry, other
     shards are untouched; no freshness violation anywhere. *)
  let base =
    { (base_scenario ~clients:4 ~ops:30 ~key_space:64 ()) with
      crash_mode = Network.Amnesia }
  in
  let down = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let entries =
    List.map (fun s -> { Failure.time = 20.0; event = Failure.Crash s }) down
    @ List.map (fun s -> { Failure.time = 80.0; event = Failure.Recover s }) down
  in
  let r =
    Harness.run (sharded ~shards:4 ~shard_failures:[ (2, entries) ] base)
  in
  Alcotest.(check int) "no safety violations" 0
    r.Harness.safety_violations;
  let violations = Consistency.check r.Harness.spans in
  Alcotest.(check int) "trace checker clean" 0
    (List.length violations.Consistency.violations);
  Alcotest.(check bool) "some ops completed" true
    (Harness.completed r > 0)

(* --- online split/merge -------------------------------------------------- *)

let test_online_split_and_merge () =
  let base = base_scenario ~clients:4 ~ops:60 ~key_space:48 () in
  let reconfig =
    [
      { Harness.at = 30.0; action = Harness.Split 1 };
      { Harness.at = 90.0; action = Harness.Merge { into = 0; from_ = 3 } };
    ]
  in
  let r = Harness.run (sharded ~shards:4 ~reconfig base) in
  Alcotest.(check int) "split happened" 1 r.Harness.splits;
  Alcotest.(check int) "merge happened" 1 r.Harness.merges;
  Alcotest.(check int) "5 shard ids allocated" 5 r.Harness.shards;
  Alcotest.(check (list int)) "active shards: 3 merged away, 4 split in"
    [ 0; 1; 2; 4 ] r.Harness.active_shards;
  Alcotest.(check bool) "map stays well-formed" true r.Harness.map_well_formed;
  Alcotest.(check bool) "keys migrated" true (r.Harness.migrated_keys > 0);
  Alcotest.(check int) "no migration failures" 0 r.Harness.migration_failures;
  Alcotest.(check int) "all ops complete" (4 * 60)
    (Harness.completed r);
  Alcotest.(check int) "no safety violations" 0
    r.Harness.safety_violations;
  let violations = Consistency.check r.Harness.spans in
  Alcotest.(check int) "trace checker clean across resharding" 0
    (List.length violations.Consistency.violations);
  (* The split target must end up owning keys and serving traffic. *)
  Alcotest.(check bool) "split target owns keys" true
    (r.Harness.per_shard_keys.(4) > 0);
  Alcotest.(check int) "merged-away shard owns nothing" 0
    r.Harness.per_shard_keys.(3)

let test_reconfig_requires_locks () =
  let base = { (base_scenario ()) with use_locks = false } in
  let sc =
    sharded ~shards:2
      ~reconfig:[ { Harness.at = 10.0; action = Harness.Split 0 } ]
      base
  in
  Alcotest.check_raises "reconfig without locks rejected"
    (Invalid_argument "Harness.run: reconfiguration requires use_locks")
    (fun () -> ignore (Harness.run sc))

(* Regression: per-shard sub-batches of one window turn into single-key
   locked operations, and two of them on one key from the same client used
   to share a lock owner and raise [Invalid_argument]. *)
let test_sharded_batched_locked () =
  let base =
    {
      (base_scenario ~clients:2 ~ops:20 ~key_space:8 ~seed:3 ()) with
      batching =
        Some { Harness.batch_size = 4; group_commit = false; pipeline = 1 };
    }
  in
  let r = Harness.run (sharded ~shards:2 base) in
  Alcotest.(check int) "all ops complete" 40 (Harness.completed r);
  Alcotest.(check int) "no safety violations" 0 r.Harness.safety_violations

(* --- knob combinations ---------------------------------------------------- *)

type combo = {
  c_seed : int;
  c_shards : int;
  c_batched : bool;
  c_amnesia : bool;
  c_locks : bool;
}

let combo_gen =
  QCheck.Gen.(
    let* c_seed = int_range 1 10_000 in
    let* c_shards = oneofl [ 1; 2; 4 ] in
    let* c_batched = bool in
    let* c_amnesia = bool in
    let* c_locks = bool in
    return { c_seed; c_shards; c_batched; c_amnesia; c_locks })

let print_combo c =
  Printf.sprintf "seed=%d shards=%d batched=%b amnesia=%b locks=%b" c.c_seed
    c.c_shards c.c_batched c.c_amnesia c.c_locks

(* Every combination of shard count, batching, crash mode and locking
   under a per-shard crash/recover schedule: no freshness violation, no
   offline regularity violation, no span left open, and every issued
   operation accounted as completed or failed. *)
let prop_combinations =
  QCheck.Test.make ~name:"knob combinations stay safe and quiesce" ~count:100
    (QCheck.make combo_gen ~print:print_combo)
    (fun c ->
      let clients = 3 and ops = 12 in
      let entries shard =
        Failure.random_crash_recovery
          ~rng:(Rng.create (c.c_seed + shard))
          ~n:8 ~horizon:200.0 ~mtbf:60.0 ~mttr:15.0
      in
      let base =
        {
          (base_scenario ~seed:c.c_seed ~clients ~ops ~key_space:16 ()) with
          use_locks = c.c_locks;
          failures = entries 0;
          crash_mode =
            (if c.c_amnesia then Network.Amnesia else Network.Fail_stop);
          wal = Replication.Wal.Sync_on_commit;
          batching =
            (if c.c_batched then
               Some
                 { Harness.batch_size = 4; group_commit = true; pipeline = 2 }
             else None);
        }
      in
      let sc =
        sharded ~shards:c.c_shards
          ~shard_failures:
            (List.init (c.c_shards - 1) (fun i -> (i + 1, entries (i + 1))))
          base
      in
      let obs = Obs.create () in
      let r = Harness.run ~obs sc in
      let offline = Consistency.check r.Harness.spans in
      let accounted =
        r.Harness.reads_ok + r.Harness.reads_failed + r.Harness.writes_ok
        + r.Harness.writes_failed
      in
      if r.Harness.safety_violations > 0 then
        QCheck.Test.fail_reportf "%d freshness violations"
          r.Harness.safety_violations;
      if offline.Consistency.violations <> [] then
        QCheck.Test.fail_reportf "%d offline violations"
          (List.length offline.Consistency.violations);
      if Obs.spans_open obs > 0 then
        QCheck.Test.fail_reportf "%d spans open" (Obs.spans_open obs);
      if accounted <> clients * ops then
        QCheck.Test.fail_reportf "%d of %d ops accounted" accounted
          (clients * ops);
      true)

let suite =
  [
    Alcotest.test_case "S=1 byte-identical to unsharded" `Quick test_s1_identity;
    Alcotest.test_case "S=1 batched byte-identical" `Quick test_s1_identity_batched;
    Alcotest.test_case "S=1 amnesia+crashes byte-identical" `Quick
      test_s1_identity_amnesia_failures;
    Alcotest.test_case "sharded run completes and routes" `Quick
      test_sharded_completes_and_routes;
    Alcotest.test_case "sharded runs deterministic" `Quick test_sharded_deterministic;
    Alcotest.test_case "range strategy" `Quick test_sharded_range_strategy;
    Alcotest.test_case "one shard crashes, others unaffected" `Quick
      test_sharded_crash_one_shard;
    Alcotest.test_case "online split and merge" `Quick test_online_split_and_merge;
    Alcotest.test_case "reconfig requires locks" `Quick test_reconfig_requires_locks;
    Alcotest.test_case "sharded batched run with locks" `Quick
      test_sharded_batched_locked;
    QCheck_alcotest.to_alcotest prop_combinations;
  ]
