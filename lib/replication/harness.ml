module Engine = Dsim.Engine
module Network = Dsim.Network
module Latency = Dsim.Latency
module Failure = Dsim.Failure
module Rng = Dsutil.Rng
module Stats = Dsutil.Stats
module Protocol = Quorum.Protocol
module Relabel = Quorum.Relabel
module Shard_map = Arbitrary.Shard_map

type detector_mode = Oracle | Heartbeat of Detect.Heartbeat.config

(* A flash crowd: extra short-lived clients that pile in at [burst_at]. *)
type burst = {
  burst_at : float;
  burst_clients : int;
  burst_ops : int;
  burst_think : float;
}

type overload = {
  queue_capacity : int;  (** per-replica ingress bound; 0 = unbounded *)
  service_time : float;  (** per-message processing cost at each replica *)
  slow_sites : (int * float) list;  (** per-site service-time overrides *)
  shed_watermark : int;  (** replica admission watermark; 0 = off *)
  retry_budget : Detect.Budget.config option;
  breaker : Detect.Breaker.config option;
  burst : burst option;
}

type batching = {
  batch_size : int;  (** client ops per batch window (>= 1) *)
  group_commit : bool;  (** one WAL sync per batch at the replicas *)
  pipeline : int;  (** outstanding windows per client (>= 1) *)
}

type reconfig_action = Split of int | Merge of { into : int; from_ : int }

type reconfig = { at : float; action : reconfig_action }

type sharding = {
  shards : int;
  strategy : Shard_map.strategy;
  shard_failures : (int * Failure.entry list) list;
  reconfig : reconfig list;
}

(* One scripted membership change: promote [spare] into [position] at
   virtual time [at]; with [fence] the displaced occupant is
   decommissioned (drain-fence-remove), without it the occupant becomes a
   re-promotable spare (a rolling restart step). *)
type membership_op = { at : float; position : int; spare : int; fence : bool }

type churn = {
  spares : int;
  membership : membership_op list;
  chunk_size : int;
  fence_provisioning : bool;
  provision_timeout : float;
}

type scenario = {
  proto : Protocol.t;
  n_clients : int;
  ops_per_client : int;
  read_fraction : float;
  key_space : int;
  zipf_theta : float;
  latency : Latency.t;
  loss_rate : float;
  think_time : float;
  failures : Failure.entry list;
  seed : int;
  use_locks : bool;
  coordinator : Coordinator.config;
  detector : detector_mode;
  horizon : float;
  warmup : float;
  crash_mode : Network.crash_mode;
  wal : Wal.policy;
  catch_up : bool;
  check_consistency : bool;
  overload : overload option;
  batching : batching option;
  sharding : sharding option;
  churn : churn option;
}

let overload_defaults =
  {
    queue_capacity = 0;
    service_time = 0.0;
    slow_sites = [];
    shed_watermark = 0;
    retry_budget = None;
    breaker = None;
    burst = None;
  }

let sharding_defaults =
  { shards = 1; strategy = Shard_map.Hash; shard_failures = []; reconfig = [] }

let churn_defaults =
  {
    spares = 1;
    membership = [];
    chunk_size = 4;
    fence_provisioning = true;
    provision_timeout = 30.0;
  }

let default_scenario ~proto =
  {
    proto;
    n_clients = 4;
    ops_per_client = 50;
    read_fraction = 0.5;
    key_space = 8;
    zipf_theta = 0.0;
    latency = Latency.Exponential 1.0;
    loss_rate = 0.0;
    think_time = 1.0;
    failures = [];
    seed = 42;
    use_locks = true;
    coordinator = Coordinator.default_config;
    detector = Oracle;
    horizon = 100_000.0;
    warmup = 0.0;
    crash_mode = Network.Fail_stop;
    wal = Wal.Sync_on_commit;
    catch_up = true;
    check_consistency = false;
    overload = None;
    batching = None;
    sharding = None;
    churn = None;
  }

type report = {
  duration : float;
  reads_ok : int;
  reads_failed : int;
  writes_ok : int;
  writes_failed : int;
  retries : int;
  deadline_exceeded : int;
  safety_violations : int;
  read_latency : Stats.t;
  write_latency : Stats.t;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  heartbeat_pings : int;
  replica_reads_served : int array;
  replica_prepares_seen : int array;
  replica_writes_applied : int array;
  stale_incarnation_rejections : int;
  replica_incarnations : int array;
  catchup_runs : int;
  catchup_keys_installed : int;
  catchup_abandoned : int;
  stale_commits_nacked : int;
  wal_records_replayed : int;
  wal_records_lost : int;
  replicas_recovering : int;
  spans : Obs.Span.t list;
  replica_sheds : int;
  busy_received : int;
  retries_suppressed : int;
  overload_drops : int;
  breaker_trips : int;
  queue_peak : int;
  completions : float array;
  batches : int;
  coalesced_ops : int;
  wal_syncs : int;
  shards : int;
  active_shards : int list;
  per_shard_ops : int array;
  per_shard_keys : int array;
  migrated_keys : int;
  migration_failures : int;
  splits : int;
  merges : int;
  map_well_formed : bool;
  promotions_started : int;
  promotions_done : int;
  decommissions_done : int;
  provision_runs : int;
  provision_chunks : int;
  provision_resumes : int;
  provision_donor_failovers : int;
  provision_rounds : int;
  provision_stale : int;
  failed_rejoins : int;
  replica_status : string array;
}

(* Per-key newest successfully committed timestamp, for the freshness
   check — one checker spanning every shard, since keys are globally
   unique. *)
type checker = {
  latest : (int, Timestamp.t) Hashtbl.t;
  mutable violations : int;
}

(* One tree instance: a shard's private protocol, network and replicas. *)
type tree = {
  proto : Protocol.t;
  net : Message.t Network.t;
  replicas : Replica.t array;
}

(* Split/merge migration: fence the moving keys, copy them to the target
   shard by forced-timestamp state transfer, release the fences.  [mig]
   holds one dedicated endpoint per shard. *)
let schedule_reconfig ~engine ~locks ~smap ~mig ~migrated ~failed ~splits
    ~merges reconfig =
  List.iteri
    (fun idx (rc : reconfig) ->
      let owner = -(1001 + idx) in
      Engine.schedule engine ~delay:rc.at (fun () ->
          let change =
            match rc.action with
            | Split shard -> Shard_map.plan_split smap ~shard
            | Merge { into; from_ } -> Shard_map.plan_merge smap ~into ~from_
          in
          let moved = change.Shard_map.moved in
          let src = mig.(change.Shard_map.source) in
          let dst = mig.(change.Shard_map.target) in
          (* Flip the routing AND enqueue the fence in one virtual
             instant.  Per-key FIFO lock queues then give a clean cutover:
             every operation dispatched before this instant routed to the
             source and sits ahead of the fence, so it completes on the
             source before the copy reads it; every operation dispatched
             after routes to the target and blocks behind the fence until
             its key has been copied.  The source keeps its (now
             unreachable) copy, so nothing is ever read-before-written. *)
          Shard_map.commit smap change;
          let finish () =
            incr (match rc.action with Split _ -> splits | Merge _ -> merges);
            List.iter (fun key -> Lock_manager.release locks ~key ~owner) moved
          in
          let rec copy = function
            | [] -> finish ()
            | key :: rest -> copy_key ~attempts:0 key rest
          and copy_key ~attempts key rest =
            let retry () =
              if attempts < 40 then
                Engine.schedule engine ~delay:5.0 (fun () ->
                    copy_key ~attempts:(attempts + 1) key rest)
              else begin
                incr failed;
                copy rest
              end
            in
            Quorum_rpc.query src ~key (function
              | Some (ts, value) ->
                if ts = Timestamp.zero then copy rest
                else
                  (* Reinstall the value on the target without minting a
                     new version. *)
                  Quorum_rpc.write dst ~key ~ts ~value (function
                    | Some _ ->
                      incr migrated;
                      copy rest
                    | None -> retry ())
              | None -> retry ())
          in
          (* All fence locks are requested in this same instant —
             sequential acquisition would leave later keys unfenced while
             earlier grants wait out in-flight holders. *)
          let granted = ref 0 in
          let total = List.length moved in
          if total = 0 then finish ()
          else
            List.iter
              (fun key ->
                Lock_manager.acquire locks ~key ~mode:Lock_manager.Exclusive
                  ~owner (fun () ->
                    incr granted;
                    if !granted = total then copy moved))
              moved))
    reconfig

let run ?obs ?read_probe scenario =
  let sharding = Option.value scenario.sharding ~default:sharding_defaults in
  if scenario.n_clients < 1 then invalid_arg "Harness.run: need a client";
  (match scenario.batching with
  | Some b when b.batch_size < 1 || b.pipeline < 1 ->
    invalid_arg "Harness.run: batch_size and pipeline must be >= 1"
  | _ -> ());
  if
    (sharding.reconfig <> [] || scenario.churn <> None)
    && not scenario.use_locks
  then invalid_arg "Harness.run: reconfiguration requires use_locks";
  (match scenario.churn with
  | Some c when c.spares < 0 -> invalid_arg "Harness.run: negative spares"
  | Some _ when sharding.shards > 1 || sharding.reconfig <> [] ->
    invalid_arg "Harness.run: churn runs on a single shard"
  | _ -> ());
  (* Shard instances for split targets exist from the start (their id is
     allocated when the split event fires); until activation they own no
     keys and see no traffic. *)
  let max_shards =
    List.fold_left
      (fun k (rc : reconfig) ->
        match rc.action with Split _ -> k + 1 | Merge _ -> k)
      sharding.shards sharding.reconfig
  in
  let smap =
    Shard_map.create ~strategy:sharding.strategy ~shards:sharding.shards
      ~key_space:scenario.key_space ~seed:scenario.seed ()
  in
  let engine = Engine.create ~seed:scenario.seed () in
  (* When consistency checking is requested, spans must be collected even
     if the caller brought no [obs] of their own: attach a memory sink to
     theirs, or to a private handle.  Attaching obs never perturbs the
     simulation (no randomness, no events), so checked and unchecked runs
     see the same schedule. *)
  let span_store =
    if scenario.check_consistency then Some (Obs.Sink.memory ()) else None
  in
  let obs =
    match span_store with
    | None -> obs
    | Some m ->
      let o = match obs with Some o -> o | None -> Obs.create () in
      Obs.add_sink o (Obs.Sink.memory_sink m);
      Some o
  in
  (match obs with
  | None -> ()
  | Some o -> Obs.set_clock o (fun () -> Engine.now engine));
  (* Churn wraps the tree over [n + spares] sites; every other run forks a
     private instance per shard — quorum plans carry scratch buffers, and
     the parallel evaluation driver may run many harnesses over one
     scenario template concurrently. *)
  let churn =
    Option.map
      (fun c ->
        let inner = Protocol.fork scenario.proto in
        let universe = Protocol.universe_size inner + c.spares in
        (c, Relabel.make ~universe inner))
      scenario.churn
  in
  let n_tree = Protocol.universe_size scenario.proto in
  let n = n_tree + match churn with Some (c, _) -> c.spares | None -> 0 in
  let n_burst =
    match scenario.overload with
    | Some { burst = Some b; _ } -> b.burst_clients
    | _ -> 0
  in
  let total_clients = scenario.n_clients + n_burst in
  (* The split/merge endpoints take the one address past every client. *)
  let mig_site = n + total_clients in
  let budget =
    match scenario.overload with
    | Some { retry_budget = Some c; _ } ->
      Some (Detect.Budget.create ~config:c ())
    | _ -> None
  in
  let breaker =
    match scenario.overload with
    | Some { breaker = Some c; _ } ->
      Some
        (Detect.Breaker.create ~config:c ~n
           ~now:(fun () -> Engine.now engine)
           ())
    | _ -> None
  in
  let admission =
    match scenario.overload with
    | None -> None
    | Some o ->
      Some (Replica.admission ~shed_watermark:o.shed_watermark ~universe:n ())
  in
  let group_commit =
    match scenario.batching with Some b -> b.group_commit | None -> false
  in
  let recovery s proto =
    match (churn, scenario.crash_mode) with
    | Some (c, relabel), _ ->
      (* Donor candidates are the sites currently holding tree positions:
         spares may be arbitrarily stale.  The closure reads the live
         relabel map, so failover aims at the membership of the moment. *)
      let donors () =
        List.init (Relabel.positions relabel) (fun p ->
            Relabel.site_of relabel ~position:p)
      in
      Some
        (Replica.recovery ~wal_policy:scenario.wal ~catch_up:false
           ~provision:
             (Replica.provision ~key_space:scenario.key_space
                ~chunk_size:c.chunk_size ~fence:c.fence_provisioning
                ~timeout:c.provision_timeout ~donors ())
           ())
    | None, Network.Fail_stop -> None
    | None, Network.Amnesia ->
      (* Catch up over the shard's whole key set: WAL replay alone cannot
         know about keys whose records were lost. *)
      Some
        (Replica.recovery ~wal_policy:scenario.wal ~catch_up:scenario.catch_up
           ~keys:(fun () -> Shard_map.keys_of smap s)
           ~proto ())
  in
  (* One tree instance per shard, all over the one engine.  The
     construction order inside each shard fixes the RNG-split sequence and
     the event schedule, so it is the same for every S. *)
  let create_tree s =
    let proto =
      match churn with
      | Some (_, relabel) -> Relabel.pack relabel
      | None -> Protocol.fork scenario.proto
    in
    let net =
      Network.create ~engine
        ~n:(if sharding.reconfig = [] then mig_site else mig_site + 1)
        ~latency:scenario.latency ~loss_rate:scenario.loss_rate ()
    in
    Network.set_crash_mode net scenario.crash_mode;
    (* Overload model: per-replica bounded service queues.  Absent (and
       the network untouched) unless the scenario opts in. *)
    (match scenario.overload with
    | None -> ()
    | Some o ->
      for site = 0 to n - 1 do
        let service_time =
          Option.value (List.assoc_opt site o.slow_sites)
            ~default:o.service_time
        in
        Network.set_service net ~site ~capacity:o.queue_capacity
          ~service_time ()
      done);
    (match obs with None -> () | Some o -> Network.attach_obs net o);
    let recovery = recovery s proto in
    let replicas =
      Array.init n (fun site ->
          Replica.create ~site ~net ?recovery ?admission ~group_commit ?obs ())
    in
    { proto; net; replicas }
  in
  let trees = Array.init max_shards create_tree in
  let locks =
    if scenario.use_locks then Some (Lock_manager.create ~engine) else None
  in
  let checker = { latest = Hashtbl.create 16; violations = 0 } in
  let clients_done = ref 0 in
  let monitors = ref [] in
  let per_shard_ops = Array.make max_shards 0 in
  (* Completion times go into a growable floatarray (flat stores): the
     list formulation costs five words per completed op. *)
  let completions = ref (Float.Array.create 64) in
  let n_completions = ref 0 in
  let record_completion shard =
    (if !n_completions = Float.Array.length !completions then begin
       let grown = Float.Array.create (2 * !n_completions) in
       Float.Array.blit !completions 0 grown 0 !n_completions;
       completions := grown
     end);
    Float.Array.set !completions !n_completions (Engine.now engine);
    incr n_completions;
    per_shard_ops.(shard) <- per_shard_ops.(shard) + 1
  in
  (* All clients finished: stop the heartbeat loops so the engine drains
     instead of pinging until the horizon. *)
  let client_finished () =
    incr clients_done;
    if !clients_done = total_clients then
      List.iter Detect.Heartbeat.stop !monitors
  in
  let run_client ~site ~ops ~think ~start_delay =
    (* One coordinator per shard, all at the client's site address on that
       shard's network; dispatch routes each key through the shard map at
       issue time. *)
    let coords =
      Array.map
        (fun tree ->
          let view =
            match scenario.detector with
            | Oracle -> None
            | Heartbeat config ->
              let seq = ref 0 in
              let hb =
                Detect.Heartbeat.create ~engine ~n ~config
                  ~send_ping:(fun dst ->
                    incr seq;
                    Network.send tree.net ~src:site ~dst
                      (Message.Ping { seq = !seq }))
                  ()
              in
              monitors := hb :: !monitors;
              Some (Detect.Heartbeat.view hb)
          in
          Coordinator.create ~site ~net:tree.net ~proto:tree.proto ?locks ?view
            ?budget ?breaker ?obs ~config:scenario.coordinator ())
        trees
    in
    let gen =
      Workload.Generator.create
        ~rng:(Rng.split (Engine.rng engine))
        ~read_fraction:scenario.read_fraction ~key_space:scenario.key_space
        ~zipf_theta:scenario.zipf_theta ()
    in
    let expected_now key =
      match Hashtbl.find checker.latest key with
      | exception Not_found -> Timestamp.zero
      | ts -> ts
    in
    let process_read ~shard expected result =
      match result with
      | Some { Coordinator.ts; _ } ->
        record_completion shard;
        if Timestamp.newer_than expected ts then
          checker.violations <- checker.violations + 1
      | None -> ()
    in
    let process_write ~shard key result =
      match result with
      | Some ts ->
        record_completion shard;
        Hashtbl.replace checker.latest key (Timestamp.max (expected_now key) ts)
      | None -> ()
    in
    (* Unbatched loop with preallocated per-client closures: the current
       op's key, shard and expected timestamp ride in mutable slots
       instead of fresh closures, so issuing an operation allocates
       nothing on the client side. *)
    let remaining = ref 0 in
    let cur_key = ref 0 in
    let cur_shard = ref 0 in
    let cur_expected = ref Timestamp.zero in
    let rec dispatch () =
      if !remaining = 0 then client_finished ()
      else begin
        match Workload.Generator.next gen with
        | Workload.Generator.Read key ->
          cur_key := key;
          cur_shard := Shard_map.route smap key;
          cur_expected := expected_now key;
          Coordinator.read coords.(!cur_shard) ~key on_read
        | Workload.Generator.Write (key, value) ->
          cur_key := key;
          cur_shard := Shard_map.route smap key;
          Coordinator.write coords.(!cur_shard) ~key ~value on_write
      end
    and on_read result =
      (match (read_probe, result) with
      | Some f, Some r -> f ~key:!cur_key r
      | _ -> ());
      process_read ~shard:!cur_shard !cur_expected result;
      continue ()
    and on_write result =
      process_write ~shard:!cur_shard !cur_key result;
      continue ()
    and continue () =
      Engine.schedule engine
        ~delay:(Workload.Generator.think_time gen ~mean:think)
        advance
    and advance () =
      remaining := !remaining - 1;
      dispatch ()
    in
    (* Batched client: ops are issued in windows of [batch_size] with up
       to [pipeline] windows outstanding; a window becomes one read-batch
       plus one write-batch per touched shard.  Think time is drawn after
       a window completes, so [batch_size = 1, pipeline = 1] draws the RNG
       in exactly the unbatched order and every run is byte-identical to
       the unbatched loop. *)
    let run_batched b =
      let remaining = ref ops in
      let slots = ref b.pipeline in
      let retire () =
        decr slots;
        if !slots = 0 then client_finished ()
      in
      let rec slot_step () =
        if !remaining = 0 then retire ()
        else begin
          let wsize = min b.batch_size !remaining in
          remaining := !remaining - wsize;
          (* Draw the whole window up front, in issue order. *)
          let window = ref [] in
          for _ = 1 to wsize do
            window := Workload.Generator.next gen :: !window
          done;
          let reads_by = Array.make max_shards [] in
          let writes_by = Array.make max_shards [] in
          (* [window] is newest-first, so prepending restores issue
             order. *)
          List.iter
            (function
              | Workload.Generator.Read key ->
                let s = Shard_map.route smap key in
                reads_by.(s) <- (key, expected_now key) :: reads_by.(s)
              | Workload.Generator.Write (key, value) ->
                let s = Shard_map.route smap key in
                writes_by.(s) <- (key, value) :: writes_by.(s))
            !window;
          let parts = ref 0 in
          Array.iter (fun l -> if l <> [] then incr parts) reads_by;
          Array.iter (fun l -> if l <> [] then incr parts) writes_by;
          let part_done () =
            decr parts;
            if !parts = 0 then
              Engine.schedule engine
                ~delay:(Workload.Generator.think_time gen ~mean:think)
                slot_step
          in
          Array.iteri
            (fun s reads ->
              if reads <> [] then
                Coordinator.read_batch coords.(s) ~keys:(List.map fst reads)
                  (fun results ->
                    List.iter2
                      (fun (_, expected) (_, result) ->
                        process_read ~shard:s expected result)
                      reads results;
                    part_done ()))
            reads_by;
          Array.iteri
            (fun s writes ->
              if writes <> [] then
                Coordinator.write_batch coords.(s) ~writes (fun results ->
                    List.iter
                      (fun (key, result) -> process_write ~shard:s key result)
                      results;
                    part_done ()))
            writes_by
        end
      in
      for _ = 1 to b.pipeline do
        slot_step ()
      done
    in
    let start () =
      match scenario.batching with
      | None ->
        remaining := ops;
        dispatch ()
      | Some b -> run_batched b
    in
    if start_delay > 0.0 then Engine.schedule engine ~delay:start_delay start
    else start ();
    coords
  in
  let coords =
    List.init scenario.n_clients (fun idx ->
        run_client ~site:(n + idx) ~ops:scenario.ops_per_client
          ~think:scenario.think_time ~start_delay:scenario.warmup)
  in
  (* The flash crowd joins at [burst_at] on its own network addresses, so
     steady-state clients keep theirs (and their RNG streams). *)
  let burst_coords =
    match scenario.overload with
    | Some { burst = Some b; _ } ->
      List.init b.burst_clients (fun idx ->
          run_client
            ~site:(n + scenario.n_clients + idx)
            ~ops:b.burst_ops ~think:b.burst_think
            ~start_delay:(scenario.warmup +. b.burst_at))
    | _ -> []
  in
  let coords = coords @ burst_coords in
  let migrated_keys = ref 0 and migration_failures = ref 0 in
  let splits = ref 0 and merges = ref 0 in
  (* Created after every client, so runs without resharding never
     allocate the migration endpoints. *)
  if sharding.reconfig <> [] then
    schedule_reconfig ~engine ~locks:(Option.get locks) ~smap
      ~mig:
        (Array.map
           (fun tree ->
             Quorum_rpc.create ~site:mig_site ~net:tree.net ~proto:tree.proto
               ?obs ())
           trees)
      ~migrated:migrated_keys ~failed:migration_failures ~splits ~merges
      sharding.reconfig;
  let promotions_started = ref 0 in
  let promotions_done = ref 0 in
  let decommissions_done = ref 0 in
  (* Scripted membership changes ride the engine like failures do. *)
  Option.iter
    (fun (c, relabel) ->
      let replicas = trees.(0).replicas in
      List.iter
        (fun m ->
          if m.position < 0 || m.position >= n_tree then
            invalid_arg "Harness.run: membership position out of range";
          if m.spare < 0 || m.spare >= n then
            invalid_arg "Harness.run: membership spare out of range";
          Engine.schedule engine ~delay:m.at (fun () ->
              incr promotions_started;
              let outgoing =
                if m.fence then
                  Some replicas.(Relabel.site_of relabel ~position:m.position)
                else None
              in
              Reconfig.promote ~locks:(Option.get locks) ~relabel
                ~position:m.position ~spare:replicas.(m.spare) ?outgoing
                ~key_space:scenario.key_space (fun () ->
                  incr promotions_done;
                  if m.fence then incr decommissions_done)))
        c.membership)
    churn;
  Failure.apply trees.(0).net scenario.failures;
  List.iter
    (fun (s, entries) ->
      if s < 0 || s >= max_shards then
        invalid_arg "Harness.run: shard_failures index out of range";
      Failure.apply trees.(s).net entries)
    sharding.shard_failures;
  Engine.run ~until:scenario.horizon engine;
  let metrics =
    List.concat_map (fun cs -> Array.to_list (Array.map Coordinator.metrics cs))
      coords
  in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 metrics in
  let replicas =
    Array.concat (Array.to_list (Array.map (fun t -> t.replicas) trees))
  in
  let sum_replicas f = Array.fold_left (fun acc r -> acc + f r) 0 replicas in
  let counters = Array.map (fun t -> Network.counters t.net) trees in
  let sum_net f = Array.fold_left (fun acc c -> acc + f c) 0 counters in
  let latency f =
    List.fold_left
      (fun acc m -> Stats.merge acc (f m))
      (Stats.create ()) metrics
  in
  {
    duration = Engine.now engine;
    reads_ok = sum (fun m -> m.Coordinator.reads_ok);
    reads_failed = sum (fun m -> m.Coordinator.reads_failed);
    writes_ok = sum (fun m -> m.Coordinator.writes_ok);
    writes_failed = sum (fun m -> m.Coordinator.writes_failed);
    retries = sum (fun m -> m.Coordinator.retries);
    deadline_exceeded = sum (fun m -> m.Coordinator.deadline_exceeded);
    safety_violations = checker.violations;
    read_latency = latency (fun m -> m.Coordinator.read_latency);
    write_latency = latency (fun m -> m.Coordinator.write_latency);
    messages_sent = sum_net (fun c -> c.Network.sent);
    messages_delivered = sum_net (fun c -> c.Network.delivered);
    messages_dropped =
      sum_net (fun c ->
          c.Network.dropped_loss + c.Network.dropped_crash
          + c.Network.dropped_partition + c.Network.dropped_no_handler
          + c.Network.dropped_overload);
    heartbeat_pings =
      List.fold_left (fun acc hb -> acc + Detect.Heartbeat.pings_sent hb) 0
        !monitors;
    replica_reads_served = Array.map Replica.reads_served replicas;
    replica_prepares_seen = Array.map Replica.prepares_seen replicas;
    replica_writes_applied = Array.map Replica.writes_applied replicas;
    stale_incarnation_rejections =
      sum (fun m -> m.Coordinator.stale_incarnation_rejections);
    replica_incarnations = Array.map Replica.incarnation replicas;
    catchup_runs = sum_replicas Replica.catchup_runs;
    catchup_keys_installed = sum_replicas Replica.catchup_keys_installed;
    catchup_abandoned = sum_replicas Replica.catchup_abandoned;
    stale_commits_nacked = sum_replicas Replica.stale_commits_nacked;
    wal_records_replayed = sum_replicas Replica.wal_records_replayed;
    wal_records_lost = sum_replicas Replica.wal_records_lost;
    replicas_recovering =
      sum_replicas (fun r -> if Replica.is_serving r then 0 else 1);
    spans =
      (match span_store with
      | None -> []
      | Some m -> Obs.Sink.memory_spans m);
    replica_sheds = sum_replicas Replica.sheds;
    busy_received = sum (fun m -> m.Coordinator.busy_received);
    retries_suppressed = sum (fun m -> m.Coordinator.retries_suppressed);
    overload_drops = sum_net (fun c -> c.Network.dropped_overload);
    breaker_trips =
      (match breaker with None -> 0 | Some b -> Detect.Breaker.trips b);
    queue_peak =
      Array.fold_left
        (fun peak t ->
          let p = ref peak in
          for site = 0 to n - 1 do
            p := max !p (Network.queue_peak t.net site)
          done;
          !p)
        0 trees;
    completions = Array.init !n_completions (Float.Array.get !completions);
    batches = sum (fun m -> m.Coordinator.batches);
    coalesced_ops = sum_net (fun c -> c.Network.coalesced);
    wal_syncs = sum_replicas Replica.wal_syncs;
    shards = Shard_map.shards smap;
    active_shards = Shard_map.active smap;
    per_shard_ops;
    per_shard_keys = Shard_map.counts smap;
    migrated_keys = !migrated_keys;
    migration_failures = !migration_failures;
    splits = !splits;
    merges = !merges;
    map_well_formed = Shard_map.well_formed smap;
    promotions_started = !promotions_started;
    promotions_done = !promotions_done;
    decommissions_done = !decommissions_done;
    provision_runs = sum_replicas Replica.provision_runs;
    provision_chunks = sum_replicas Replica.provision_chunks;
    provision_resumes = sum_replicas Replica.provision_resumes;
    provision_donor_failovers = sum_replicas Replica.provision_donor_failovers;
    provision_rounds = sum_replicas Replica.provision_rounds;
    provision_stale = sum_replicas Replica.provision_stale;
    failed_rejoins = sum_replicas Replica.failed_rejoins;
    replica_status = Array.map Replica.status_label replicas;
  }

let completed r = r.reads_ok + r.writes_ok

let messages_per_op r =
  if completed r = 0 then 0.0
  else float_of_int r.messages_delivered /. float_of_int (completed r)

let max_over_total counts total =
  if total = 0 then 0.0
  else begin
    let m = Array.fold_left max 0 counts in
    float_of_int m /. float_of_int total
  end

let measured_read_load r = max_over_total r.replica_reads_served r.reads_ok
let measured_write_load r = max_over_total r.replica_prepares_seen r.writes_ok

let imbalance r =
  let ops = List.map (fun s -> r.per_shard_ops.(s)) r.active_shards in
  let total = List.fold_left ( + ) 0 ops in
  if total = 0 then (0.0, 0.0)
  else
    ( float_of_int (List.fold_left max 0 ops),
      float_of_int total /. float_of_int (List.length ops) )

let imbalance_ratio r =
  let mx, mean = imbalance r in
  if mean = 0.0 then 1.0 else mx /. mean

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>duration=%.1f@,\
     reads: ok=%d failed=%d  writes: ok=%d failed=%d  retries=%d@,\
     safety violations=%d@,\
     read latency: mean=%.2f p99=%.2f   write latency: mean=%.2f p99=%.2f@,\
     messages: sent=%d delivered=%d dropped=%d (%.1f per op)@]"
    r.duration r.reads_ok r.reads_failed r.writes_ok r.writes_failed r.retries
    r.safety_violations
    (Stats.mean r.read_latency)
    (if Stats.count r.read_latency = 0 then 0.0
     else Stats.percentile r.read_latency 0.99)
    (Stats.mean r.write_latency)
    (if Stats.count r.write_latency = 0 then 0.0
     else Stats.percentile r.write_latency 0.99)
    r.messages_sent r.messages_delivered r.messages_dropped (messages_per_op r)
