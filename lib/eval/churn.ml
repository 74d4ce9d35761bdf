module Config = Arbitrary.Config
module Harness = Replication.Harness
module Replica = Replication.Replica
module Store = Replication.Store
module Failure = Dsim.Failure
module Engine = Dsim.Engine
module Network = Dsim.Network

(* The four fault-injection shapes of the membership campaign.  Donor and
   recipient crashes hit a plain provisioning rejoin mid-transfer; the
   partition isolates a spare in the middle of its promotion; rolling
   chains unfenced promote / re-promote steps and one real decommission
   while a background crash keeps the rejoin path busy. *)
type kind = Donor_crash | Recipient_crash | Partition_promotion | Rolling

let kind_to_string = function
  | Donor_crash -> "donor-crash"
  | Recipient_crash -> "recipient-crash"
  | Partition_promotion -> "partition-promotion"
  | Rolling -> "rolling"

let default_kinds =
  [ Donor_crash; Recipient_crash; Partition_promotion; Rolling ]

let default_configs =
  [ Config.Mostly_read; Config.Mostly_write; Config.Arbitrary; Config.Unmodified ]

(* Failure scripts are phrased against the identity assignment the run
   starts with: site p holds position p, sites n.. are spares.  The
   rejoining replica is the last occupant (site n-1); its first donor
   pick is the lowest live occupant, i.e. site 0 — which is exactly who
   the donor-crash script kills mid-transfer. *)
let failures_of kind ~n =
  match kind with
  | Donor_crash ->
    [
      { Failure.time = 60.0; event = Failure.Crash (n - 1) };
      { Failure.time = 100.0; event = Failure.Recover (n - 1) };
      { Failure.time = 103.0; event = Failure.Crash 0 };
      { Failure.time = 220.0; event = Failure.Recover 0 };
    ]
  | Recipient_crash ->
    [
      { Failure.time = 60.0; event = Failure.Crash (n - 1) };
      { Failure.time = 100.0; event = Failure.Recover (n - 1) };
      { Failure.time = 104.0; event = Failure.Crash (n - 1) };
      { Failure.time = 160.0; event = Failure.Recover (n - 1) };
    ]
  | Partition_promotion ->
    (* isolate the spare (site n) shortly after its promotion starts *)
    [
      { Failure.time = 103.0; event = Failure.Partition [ [ n ] ] };
      { Failure.time = 200.0; event = Failure.Heal };
    ]
  | Rolling ->
    (* background rejoin churn while memberships roll *)
    [
      { Failure.time = 300.0; event = Failure.Crash (n - 1) };
      { Failure.time = 330.0; event = Failure.Recover (n - 1) };
    ]

let membership_of kind ~n =
  match kind with
  | Donor_crash | Recipient_crash -> []
  | Partition_promotion ->
    [ { Harness.at = 100.0; position = min 1 (n - 1); spare = n;
        fence = false } ]
  | Rolling ->
    (* roll position 0 out to the spare and back (unfenced: the displaced
       occupant keeps its history and is re-promoted), then properly
       decommission position 1's occupant onto the second spare *)
    [
      { Harness.at = 80.0; position = 0; spare = n; fence = false };
      { Harness.at = 500.0; position = 0; spare = 0; fence = false };
      { Harness.at = 900.0; position = min 1 (n - 1); spare = n + 1;
        fence = true };
    ]

type cell = {
  c_config : Config.name;
  c_kind : string;
  c_n : int;
  c_report : Harness.report;
}

(* One key per provisioning chunk by default, so transfers span enough
   virtual time that the scripted mid-transfer crashes actually land
   mid-transfer. *)
let scenario ~proto ~spares ~clients ~ops ~key_space ?(chunk_size = 1)
    ?(wal = Replication.Wal.Sync_on_commit) ~failures ~membership ~seed
    ~horizon ~fence () =
  {
    (Harness.default_scenario ~proto) with
    Harness.n_clients = clients;
    ops_per_client = ops;
    key_space;
    think_time = 3.0;
    failures;
    seed;
    coordinator = Chaos.chaos_coordinator;
    horizon;
    crash_mode = Network.Amnesia;
    wal;
    churn =
      Some
        {
          Harness.churn_defaults with
          spares;
          membership;
          chunk_size;
          fence_provisioning = fence;
        };
  }

let make_scenario ~proto ~n ~kind ~clients ~ops ~seed ~horizon ~fence ~wal =
  scenario ~proto ~spares:2 ~clients ~ops ~key_space:8 ~wal
    ~failures:(failures_of kind ~n) ~membership:(membership_of kind ~n) ~seed
    ~horizon ~fence ()

let run ?(n = 45) ?(clients = 3) ?(ops = 25) ?(seed = 42) ?(horizon = 3000.0)
    ?(configs = default_configs) ?(kinds = default_kinds)
    ?(fence = true) ?(wal = Replication.Wal.Sync_on_commit) ?domains () =
  let specs =
    List.concat
      (List.mapi
         (fun ci name -> List.mapi (fun si kind -> (ci, name, si, kind)) kinds)
         configs)
  in
  let run_cell (ci, name, si, kind) =
    let n = Config_metrics.feasible_n name n in
    let proto = Config_metrics.protocol_of name ~n in
    let cell_seed = seed + (1000 * ci) + (100 * si) in
    let scenario =
      make_scenario ~proto ~n ~kind ~clients ~ops ~seed:cell_seed ~horizon
        ~fence ~wal
    in
    {
      c_config = name;
      c_kind = kind_to_string kind;
      c_n = n;
      c_report = Harness.run scenario;
    }
  in
  Parallel.map ?domains run_cell specs

(* The control that must leak: every occupant blacks out at once under a
   volatile-suffix WAL, and provisioning fencing is OFF — each replica
   serves from its gutted store the moment it recovers, while (and even
   after) provisioning from donors that lost the same suffix. *)
let blackout_failures ~n =
  List.concat
    (List.init n (fun i ->
         [
           { Failure.time = 100.0; event = Failure.Crash i };
           { Failure.time = 140.0; event = Failure.Recover i };
         ]))

let run_negative ?(n = 45) ?(clients = 3) ?(ops = 40) ?(seed = 42)
    ?(horizon = 3000.0) ?(configs = default_configs) ?domains () =
  let run_cell (ci, name) =
    let n = Config_metrics.feasible_n name n in
    let proto = Config_metrics.protocol_of name ~n in
    let cell_seed = seed + (1000 * ci) in
    let scenario =
      scenario ~proto ~spares:0 ~clients ~ops ~key_space:4
        ~wal:(Replication.Wal.Async 60.0) ~failures:(blackout_failures ~n)
        ~membership:[] ~seed:cell_seed ~horizon ~fence:false ()
    in
    {
      c_config = name;
      c_kind = "blackout-unfenced";
      c_n = n;
      c_report = Harness.run scenario;
    }
  in
  Parallel.map ?domains run_cell (List.mapi (fun ci name -> (ci, name)) configs)

(* A sharded control plane churning: S independent tree instances (one
   per key shard), each under its own donor-crash rejoin plus a rolling
   membership script, seeded per shard.  Shards share nothing, so the
   campaign runs them as separate cells and the gate sums them. *)
let default_shards = 3

let run_sharded ?(shards = default_shards) ?(n = 45) ?(clients = 3) ?(ops = 25)
    ?(seed = 42) ?(horizon = 3000.0) ?(config = Config.Unmodified) ?domains ()
    =
  let run_cell shard =
    let n = Config_metrics.feasible_n config n in
    let proto = Config_metrics.protocol_of config ~n in
    let cell_seed = seed + (17 * shard) in
    let scenario =
      make_scenario ~proto ~n ~kind:Rolling ~clients ~ops ~seed:cell_seed
        ~horizon ~fence:true ~wal:Replication.Wal.Sync_on_commit
    in
    let scenario =
      { scenario with Harness.failures = failures_of Donor_crash ~n }
    in
    {
      c_config = config;
      c_kind = Printf.sprintf "shard-%d" shard;
      c_n = n;
      c_report = Harness.run scenario;
    }
  in
  Parallel.map ?domains run_cell (List.init shards Fun.id)

let violations cells =
  List.fold_left
    (fun acc c -> acc + c.c_report.Harness.safety_violations)
    0 cells

let rate ok failed =
  let total = ok + failed in
  if total = 0 then 1.0 else float_of_int ok /. float_of_int total

let table cells =
  let rows =
    List.map
      (fun c ->
        let r = c.c_report in
        [
          Config.name_to_string c.c_config;
          string_of_int c.c_n;
          c.c_kind;
          Tablefmt.f4 (rate r.Harness.reads_ok r.Harness.reads_failed);
          Tablefmt.f4
            (rate r.Harness.writes_ok r.Harness.writes_failed);
          Printf.sprintf "%d/%d" r.Harness.promotions_done
            r.Harness.promotions_started;
          string_of_int r.Harness.decommissions_done;
          string_of_int r.Harness.provision_runs;
          string_of_int r.Harness.provision_chunks;
          string_of_int r.Harness.provision_resumes;
          string_of_int r.Harness.provision_donor_failovers;
          string_of_int r.Harness.failed_rejoins;
          string_of_int r.Harness.safety_violations;
        ])
      cells
  in
  Tablefmt.render
    ~header:
      [
        "config"; "n"; "scenario"; "rd rate"; "wr rate"; "promo"; "decomm";
        "prov"; "chunks"; "resumes"; "failover"; "stuck"; "viol";
      ]
    ~rows

(* --- cold-rejoin cost: provisioning vs per-key catch-up ------------------- *)

type rejoin_comparison = {
  rj_keys : int;
  rj_n : int;
  rj_catchup_rounds : int;
  rj_provision_rounds : int;
  rj_provision_chunks : int;
  rj_catchup_serving : bool;
  rj_provision_serving : bool;
  rj_speedup : float;
}

(* Identical worlds: [n] replicas whose committed stores hold [keys]
   keys, the last replica amnesia-crashes cold (nothing in its WAL) and
   rejoins — through per-key quorum catch-up in one world, through
   chunked snapshot provisioning in the other.  The comparison counts
   protocol rounds, the unit both rejoin paths share. *)
let cold_rejoin ~n ~keys ~chunk_size ~seed ~provisioned =
  let name = Config.Unmodified in
  let n = Config_metrics.feasible_n name n in
  let proto = Config_metrics.protocol_of name ~n in
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n () in
  Network.set_crash_mode net Network.Amnesia;
  let recovery =
    if provisioned then
      Replica.recovery ~catch_up:false
        ~provision:
          (Replica.provision ~key_space:keys ~chunk_size
             ~donors:(fun () -> List.init n Fun.id)
             ())
        ()
    else
      Replica.recovery ~catch_up:true
        ~keys:(fun () -> List.init keys Fun.id)
        ~proto ()
  in
  let replicas =
    Array.init n (fun site -> Replica.create ~site ~net ~recovery ())
  in
  (* Populate committed state directly: the comparison measures rejoin
     transfer cost, not workload generation.  The WALs stay empty, so the
     crash leaves the rejoiner genuinely cold. *)
  Array.iter
    (fun r ->
      let store = Replica.store r in
      for key = 0 to keys - 1 do
        ignore (Store.install_flat store ~key ~version:1 ~sid:0 ~value:"v")
      done)
    replicas;
  let target = n - 1 in
  Failure.apply net
    [
      { Failure.time = 10.0; event = Failure.Crash target };
      { Failure.time = 20.0; event = Failure.Recover target };
    ];
  Engine.run ~until:2_000_000.0 engine;
  let r = replicas.(target) in
  ( n,
    Replica.catchup_rounds r,
    Replica.provision_rounds r,
    Replica.provision_chunks r,
    Replica.is_serving r )

let cold_rejoin_comparison ?(n = 7) ?(keys = 10_000) ?(chunk_size = 512)
    ?(seed = 42) () =
  let rj_n, rj_catchup_rounds, _, _, rj_catchup_serving =
    cold_rejoin ~n ~keys ~chunk_size ~seed ~provisioned:false
  in
  let _, _, rj_provision_rounds, rj_provision_chunks, rj_provision_serving =
    cold_rejoin ~n ~keys ~chunk_size ~seed ~provisioned:true
  in
  {
    rj_keys = keys;
    rj_n;
    rj_catchup_rounds;
    rj_provision_rounds;
    rj_provision_chunks;
    rj_catchup_serving;
    rj_provision_serving;
    rj_speedup =
      (if rj_provision_rounds = 0 then 0.0
       else float_of_int rj_catchup_rounds /. float_of_int rj_provision_rounds);
  }

(* --- acceptance gate ---------------------------------------------------- *)

type campaign = {
  fenced : cell list;
  sharded : cell list;
  negative : cell list;
  cold_rejoin : rejoin_comparison;
}

type verdict = { pass : bool; failures : string list }

let gate c =
  let failures = ref [] in
  let check cond fmt =
    Printf.ksprintf (fun msg -> if not cond then failures := msg :: !failures) fmt
  in
  let expect what cells want =
    check
      (List.length cells = want)
      "%d %s cells (want %d)" (List.length cells) what want
  in
  expect "fenced" c.fenced
    (List.length default_configs * List.length default_kinds);
  expect "sharded" c.sharded default_shards;
  expect "negative-control" c.negative (List.length default_configs);
  let fenced = c.fenced @ c.sharded in
  let fenced_violations = violations fenced in
  check (fenced_violations = 0)
    "%d violations in the fenced campaign (expected 0)" fenced_violations;
  check
    (violations c.negative > 0)
    "negative control leaked nothing — the churn oracle is not catching \
     stale reads";
  (* Every fault path the campaign exists for must actually fire. *)
  let exercised what counter =
    check
      (List.exists (fun cell -> counter cell.c_report > 0) fenced)
      "%s never exercised" what
  in
  exercised "donor failover" (fun r -> r.Harness.provision_donor_failovers);
  exercised "chunk-mark resume" (fun r -> r.Harness.provision_resumes);
  exercised "decommission" (fun r -> r.Harness.decommissions_done);
  let rj = c.cold_rejoin in
  check
    (rj.rj_catchup_serving && rj.rj_provision_serving)
    "a cold rejoin failed to reach serving";
  check (rj.rj_speedup >= 5.0) "cold-rejoin speedup %.1fx below the 5x gate"
    rj.rj_speedup;
  { pass = !failures = []; failures = List.rev !failures }
