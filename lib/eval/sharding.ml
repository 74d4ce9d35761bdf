module Harness = Replication.Harness
module Txn_harness = Replication.Txn_harness
module Config = Arbitrary.Config

let configs =
  [ Config.Unmodified; Config.Mostly_read; Config.Mostly_write;
    Config.Arbitrary ]

let shard_counts = [ 1; 4; 16; 64 ]

let service_time = 8.0
let skew_theta = 0.99

type scale_cell = {
  config : Config.name;
  shards : int;
  n : int;
  completed : int;
  duration : float;
  throughput : float;
  violations : int;
  speedup : float;
  efficiency : float;
}

type skew_cell = {
  sk_config : Config.name;
  sk_shards : int;
  theta : float;
  sk_completed : int;
  sk_violations : int;
  per_shard_ops : int array;
  imbalance_max : float;
  imbalance_mean : float;
  imbalance_ratio : float;
}

type identity_cell = {
  id_config : Config.name;
  fingerprint_sharded : string;
  fingerprint_unsharded : string;
  identical : bool;
}

type atomicity_cell = {
  atomic : bool;
  committed : int;
  aborted : int;
  uncertain : int;
  partial_commits : int;
  phantoms : int;
  lost : int;
  conserved : bool;
  cross_shard : int;
}

type reconfig_cell = {
  rc_completed : int;
  rc_violations : int;
  splits : int;
  merges : int;
  migrated_keys : int;
  migration_failures : int;
  well_formed : bool;
  active_shards : int list;
}

type campaign = {
  scaling : scale_cell list;
  skew : skew_cell list;
  identity : identity_cell;
  atomic_cell : atomicity_cell;
  nonatomic_cell : atomicity_cell;
  reconfig : reconfig_cell;
}

(* The saturating workload: a closed loop of 32 clients and 1024 total
   operations over 1024 keys.  [service_time] makes every replica a
   serial server, so the single-tree run is bottlenecked on its root
   (every read quorum contains it) while the client count caps the
   in-flight ops — queues stay short enough that a long coordinator
   timeout never fires and no retry traffic pollutes the capacity
   measurement. *)
let workload ~name ~seed ~theta () =
  let n = Config_metrics.feasible_n name 9 in
  let proto = Config_metrics.protocol_of name ~n in
  let s = Harness.default_scenario ~proto in
  ( {
      s with
      Harness.n_clients = 128;
      ops_per_client = 32;
      read_fraction = 0.5;
      key_space = 4096;
      zipf_theta = theta;
      think_time = 0.1;
      seed;
      check_consistency = true;
      coordinator =
        {
          s.Harness.coordinator with
          Replication.Coordinator.timeout = 10_000.0;
          max_retries = 1;
        };
    },
    n )

(* A zero service time leaves the overload model off entirely, so the
   network keeps its instant-delivery path. *)
let sharded ~shards ~service_time base =
  {
    base with
    Harness.sharding = Some { Harness.sharding_defaults with shards };
    overload =
      (if service_time > 0.0 then
         Some { Harness.overload_defaults with service_time }
       else None);
  }

(* [Harness.report.duration] is the engine clock, which coasts to the
   horizon on trailing timeout events; the workload makespan is the last
   operation completion. *)
let makespan (r : Harness.report) =
  Array.fold_left Float.max 0.0 r.Harness.completions

let run_workload_cell ~seed (name, shards, theta) =
  let base, n = workload ~name ~seed ~theta () in
  let r = Harness.run (sharded ~shards ~service_time base) in
  (name, shards, n, r)

let run_identity ~seed () =
  let name = Config.Arbitrary in
  let base, _ = workload ~name ~seed ~theta:0.0 () in
  let base = { base with Harness.n_clients = 4; ops_per_client = 50 } in
  let unsharded = Batching.fingerprint (Harness.run base) in
  let sharded_fp =
    Batching.fingerprint
      (Harness.run (sharded ~shards:1 ~service_time:0.0 base))
  in
  {
    id_config = name;
    fingerprint_sharded = sharded_fp;
    fingerprint_unsharded = unsharded;
    identical = sharded_fp = unsharded;
  }

let run_atomicity ~seed ~atomic () =
  let name = Config.Arbitrary in
  let n = Config_metrics.feasible_n name 9 in
  let proto = Config_metrics.protocol_of name ~n in
  let sc =
    {
      (Txn_harness.default_scenario ~proto) with
      Txn_harness.shards = 4;
      key_space = 16;
      atomic;
      seed;
      txns_per_client = 25;
      shard_loss = [ (1, 0.3) ];
    }
  in
  let r = Txn_harness.run sc in
  let c =
    Consistency.check_conservation
      ~committed:r.Txn_harness.committed_increments
      ~uncertain:r.Txn_harness.uncertain_increments
      ~observed:r.Txn_harness.observed_total
  in
  {
    atomic;
    committed = r.Txn_harness.committed;
    aborted = r.Txn_harness.aborted;
    uncertain = r.Txn_harness.uncertain;
    partial_commits = r.Txn_harness.partial_commits;
    phantoms = c.Consistency.phantom_increments;
    lost = c.Consistency.lost_increments;
    conserved = Consistency.conserved c;
    cross_shard = r.Txn_harness.cross_shard_txns;
  }

let run_reconfig ~seed () =
  let name = Config.Arbitrary in
  let n = Config_metrics.feasible_n name 9 in
  let proto = Config_metrics.protocol_of name ~n in
  let base =
    {
      (Harness.default_scenario ~proto) with
      Harness.n_clients = 4;
      ops_per_client = 60;
      key_space = 48;
      seed;
      check_consistency = true;
    }
  in
  let reconfig =
    [
      { Harness.at = 30.0; action = Harness.Split 1 };
      { Harness.at = 90.0; action = Harness.Merge { into = 0; from_ = 3 } };
    ]
  in
  let sc =
    {
      base with
      Harness.sharding =
        Some { Harness.sharding_defaults with shards = 4; reconfig };
    }
  in
  let r = Harness.run sc in
  let offline = Consistency.check r.Harness.spans in
  {
    rc_completed = Harness.completed r;
    rc_violations =
      r.Harness.safety_violations + List.length offline.Consistency.violations;
    splits = r.Harness.splits;
    merges = r.Harness.merges;
    migrated_keys = r.Harness.migrated_keys;
    migration_failures = r.Harness.migration_failures;
    well_formed = r.Harness.map_well_formed;
    active_shards = r.Harness.active_shards;
  }

let run ?(seed = 42) ?domains () =
  (* Every (config, S, θ) workload cell is independent: fan the whole
     grid out at once, then fold the scaling ratios per configuration. *)
  let grid =
    List.concat_map
      (fun name -> List.map (fun s -> (name, s, 0.0)) shard_counts)
      configs
    @ List.map (fun name -> (name, 16, skew_theta)) configs
  in
  let results = Parallel.map ?domains (run_workload_cell ~seed) grid in
  let uniform, skewed =
    List.partition
      (fun ((_, _, theta), _) -> theta = 0.0)
      (List.combine grid results)
  in
  let base_duration name =
    let _, (_, _, _, r) =
      List.find
        (fun ((n, s, _), _) -> n = name && s = 1)
        uniform
    in
    makespan r
  in
  let scaling =
    List.map
      (fun ((_, _, _), (name, shards, n, r)) ->
        let duration = makespan r in
        let completed = Harness.completed r in
        let speedup =
          if duration <= 0.0 then 0.0 else base_duration name /. duration
        in
        {
          config = name;
          shards;
          n;
          completed;
          duration;
          throughput =
            (if duration <= 0.0 then 0.0
             else float_of_int completed /. duration);
          violations = r.Harness.safety_violations;
          speedup;
          efficiency = speedup /. float_of_int shards;
        })
      uniform
  in
  let skew =
    List.map
      (fun ((_, _, theta), (name, shards, _, r)) ->
        let imb_max, imb_mean = Harness.imbalance r in
        {
          sk_config = name;
          sk_shards = shards;
          theta;
          sk_completed = Harness.completed r;
          sk_violations = r.Harness.safety_violations;
          per_shard_ops = r.Harness.per_shard_ops;
          imbalance_max = imb_max;
          imbalance_mean = imb_mean;
          imbalance_ratio = Harness.imbalance_ratio r;
        })
      skewed
  in
  let controls =
    Parallel.map ?domains
      (fun f -> f ())
      [
        (fun () -> `Identity (run_identity ~seed ()));
        (fun () -> `Atomic (run_atomicity ~seed ~atomic:true ()));
        (fun () -> `Nonatomic (run_atomicity ~seed ~atomic:false ()));
        (fun () -> `Reconfig (run_reconfig ~seed ()));
      ]
  in
  let identity =
    List.find_map (function `Identity c -> Some c | _ -> None) controls
    |> Option.get
  in
  let atomic_cell =
    List.find_map (function `Atomic c -> Some c | _ -> None) controls
    |> Option.get
  in
  let nonatomic_cell =
    List.find_map (function `Nonatomic c -> Some c | _ -> None) controls
    |> Option.get
  in
  let reconfig =
    List.find_map (function `Reconfig c -> Some c | _ -> None) controls
    |> Option.get
  in
  { scaling; skew; identity; atomic_cell; nonatomic_cell; reconfig }

let speedup_at campaign ~shards =
  List.fold_left
    (fun acc c -> if c.shards = shards then Float.max acc c.speedup else acc)
    0.0 campaign.scaling

type verdict = { pass : bool; failures : string list }

let scaling_threshold = 0.7 *. 16.0

let gate campaign =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let s16 = speedup_at campaign ~shards:16 in
  if s16 < scaling_threshold then
    fail "scaling: best S=16 speedup %.2f < %.2f (0.7 x ideal)" s16
      scaling_threshold;
  let expect what cells want =
    if List.length cells <> want then
      fail "%s: %d cells (want %d)" what (List.length cells) want
  in
  expect "scaling" campaign.scaling
    (List.length configs * List.length shard_counts);
  expect "skew" campaign.skew (List.length configs);
  List.iter
    (fun c ->
      let name = Config.name_to_string c.config in
      if c.violations > 0 then
        fail "scaling %s S=%d: %d safety violations" name c.shards
          c.violations;
      if c.completed = 0 then
        fail "scaling %s S=%d: no operation completed" name c.shards;
      if c.shards = 1 && c.speedup <> 1.0 then
        fail "scaling %s S=1: speedup %.3f, not the 1.0 baseline" name
          c.speedup)
    campaign.scaling;
  List.iter
    (fun c ->
      let name = Config.name_to_string c.sk_config in
      if c.sk_violations > 0 then
        fail "skew %s S=%d: %d safety violations" name c.sk_shards
          c.sk_violations;
      if c.sk_completed = 0 then
        fail "skew %s S=%d: no operation completed" name c.sk_shards;
      if Array.length c.per_shard_ops <> c.sk_shards then
        fail "skew %s S=%d: %d-entry per-shard histogram" name c.sk_shards
          (Array.length c.per_shard_ops);
      if not (c.imbalance_ratio >= 1.0) then
        fail "skew %s S=%d: imbalance ratio %.3f below 1" name c.sk_shards
          c.imbalance_ratio)
    campaign.skew;
  if not campaign.identity.identical then
    fail "identity: S=1 fingerprint diverged from the unsharded harness";
  if not campaign.atomic_cell.conserved then
    fail "atomicity: 2PC run violated increment conservation";
  if campaign.atomic_cell.partial_commits > 0 then
    fail "atomicity: 2PC run reported %d partial commits"
      campaign.atomic_cell.partial_commits;
  if campaign.nonatomic_cell.phantoms = 0 then
    fail "atomicity: negative control produced no phantom increments";
  if campaign.nonatomic_cell.conserved then
    fail "atomicity: negative control conserved the increment total";
  if campaign.reconfig.rc_violations > 0 then
    fail "reconfig: %d consistency violations" campaign.reconfig.rc_violations;
  if not campaign.reconfig.well_formed then
    fail "reconfig: final shard map not well-formed";
  if campaign.reconfig.migration_failures > 0 then
    fail "reconfig: %d keys failed to migrate"
      campaign.reconfig.migration_failures;
  if campaign.reconfig.splits < 1 || campaign.reconfig.merges < 1 then
    fail "reconfig: expected at least one split and one merge";
  { pass = !failures = []; failures = List.rev !failures }

(* --- rendering ----------------------------------------------------------- *)

let ints_json xs =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list xs)) ^ "]"

let scale_cell_json c =
  Printf.sprintf
    "{\"config\":\"%s\",\"shards\":%d,\"n\":%d,\"completed\":%d,\"duration\":%.3f,\"throughput\":%.4f,\"violations\":%d,\"speedup\":%.3f,\"efficiency\":%.3f}"
    (Config.name_to_string c.config)
    c.shards c.n c.completed c.duration c.throughput c.violations c.speedup
    c.efficiency

let skew_cell_json c =
  Printf.sprintf
    "{\"config\":\"%s\",\"shards\":%d,\"theta\":%.2f,\"completed\":%d,\"violations\":%d,\"per_shard_ops\":%s,\"imbalance_max\":%.1f,\"imbalance_mean\":%.2f,\"imbalance_ratio\":%.3f}"
    (Config.name_to_string c.sk_config)
    c.sk_shards c.theta c.sk_completed c.sk_violations
    (ints_json c.per_shard_ops) c.imbalance_max c.imbalance_mean
    c.imbalance_ratio

let atomicity_json c =
  Printf.sprintf
    "{\"atomic\":%b,\"committed\":%d,\"aborted\":%d,\"uncertain\":%d,\"partial_commits\":%d,\"phantoms\":%d,\"lost\":%d,\"conserved\":%b,\"cross_shard\":%d}"
    c.atomic c.committed c.aborted c.uncertain c.partial_commits c.phantoms
    c.lost c.conserved c.cross_shard

let json campaign =
  let v = gate campaign in
  Printf.sprintf
    "{\"schema\":\"bench-shard/1\",\"service_time\":%.1f,\"scaling\":[%s],\"speedup_s16\":%.3f,\"scaling_threshold\":%.1f,\"skew\":[%s],\"identity\":{\"config\":\"%s\",\"sharded\":\"%s\",\"unsharded\":\"%s\",\"identical\":%b},\"atomicity\":{\"atomic\":%s,\"nonatomic\":%s},\"reconfig\":{\"completed\":%d,\"violations\":%d,\"splits\":%d,\"merges\":%d,\"migrated_keys\":%d,\"migration_failures\":%d,\"well_formed\":%b,\"active_shards\":%s},\"pass\":%b}"
    service_time
    (String.concat "," (List.map scale_cell_json campaign.scaling))
    (speedup_at campaign ~shards:16)
    scaling_threshold
    (String.concat "," (List.map skew_cell_json campaign.skew))
    (Config.name_to_string campaign.identity.id_config)
    campaign.identity.fingerprint_sharded
    campaign.identity.fingerprint_unsharded campaign.identity.identical
    (atomicity_json campaign.atomic_cell)
    (atomicity_json campaign.nonatomic_cell)
    campaign.reconfig.rc_completed campaign.reconfig.rc_violations
    campaign.reconfig.splits campaign.reconfig.merges
    campaign.reconfig.migrated_keys campaign.reconfig.migration_failures
    campaign.reconfig.well_formed
    (ints_json (Array.of_list campaign.reconfig.active_shards))
    v.pass

let table campaign =
  let scaling_rows =
    List.map
      (fun c ->
        [
          Config.name_to_string c.config;
          string_of_int c.shards;
          string_of_int c.completed;
          Tablefmt.f2 c.duration;
          Tablefmt.f4 c.throughput;
          Tablefmt.f2 c.speedup;
          Tablefmt.f2 c.efficiency;
          string_of_int c.violations;
        ])
      campaign.scaling
  in
  let skew_rows =
    List.map
      (fun c ->
        [
          Config.name_to_string c.sk_config;
          string_of_int c.sk_shards;
          Tablefmt.f2 c.theta;
          string_of_int c.sk_completed;
          Tablefmt.f2 c.imbalance_max;
          Tablefmt.f2 c.imbalance_mean;
          Tablefmt.f2 c.imbalance_ratio;
          string_of_int c.sk_violations;
        ])
      campaign.skew
  in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Tablefmt.render
       ~header:
         [ "config"; "S"; "ops"; "makespan"; "thpt"; "speedup"; "eff"; "viol" ]
       ~rows:scaling_rows);
  Buffer.add_string b "\nZipfian skew (theta = 0.99):\n";
  Buffer.add_string b
    (Tablefmt.render
       ~header:
         [
           "config"; "S"; "theta"; "ops"; "imb max"; "imb mean"; "max/mean";
           "viol";
         ]
       ~rows:skew_rows);
  Printf.bprintf b "\nS=1 control: %s\n"
    (if campaign.identity.identical then "byte-identical to unsharded harness"
     else "DIVERGED");
  let atom c =
    Printf.sprintf
      "%d committed, %d aborted (%d in-doubt, %d partial), phantoms %d, %s"
      c.committed c.aborted c.uncertain c.partial_commits c.phantoms
      (if c.conserved then "conserved" else "conservation VIOLATED")
  in
  Printf.bprintf b "2PC atomic:      %s\n" (atom campaign.atomic_cell);
  Printf.bprintf b "non-atomic ctrl: %s\n" (atom campaign.nonatomic_cell);
  Printf.bprintf b
    "reconfig: %d split(s) + %d merge(s), %d keys migrated (%d failures), map %s, %d violations\n"
    campaign.reconfig.splits campaign.reconfig.merges
    campaign.reconfig.migrated_keys campaign.reconfig.migration_failures
    (if campaign.reconfig.well_formed then "well-formed" else "MALFORMED")
    campaign.reconfig.rc_violations;
  Buffer.contents b
