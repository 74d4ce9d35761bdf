(* One run of one benchmark workload against the replicated store.

   The store is built from its public constructors (engine, network,
   replicas, lock manager, coordinators, failure schedule) and driven by one
   closed-loop client driver.  The untraced run measures the end-to-end
   metrics; the traced run is the same driver with the hooks of {!Acct} and
   {!Shim} switched on, and splits the wall time across the layers.  The
   result is one JSON line on stdout; perfbench/run.py aggregates runs. *)

open Replication
module Rng = Dsutil.Rng
module Stats = Dsutil.Stats
module Engine = Dsim.Engine
module Network = Dsim.Network
module Failure = Dsim.Failure
module Generator = Workload.Generator
module Tree = Arbitrary.Tree
module Analysis = Arbitrary.Analysis

type workload = {
  name : string;
  n : int;
  clients : int;
  ops_per_client : int;
  read_fraction : float;
  key_space : int;
  zipf_theta : float;
  amnesia : bool;
  wal : Wal.policy;
  catch_up : bool;
  crashes : (float * float) option;  (** mtbf, mttr *)
  horizon : float;  (** end of the failure schedule; the run must end first *)
  locks : bool;
  spans : bool;
  batching : (int * int) option;  (** batch size, pipeline depth *)
  service : (float * int) option;  (** service time (ms), queue capacity *)
}

let base =
  {
    name = "";
    n = 33;
    clients = 16;
    ops_per_client = 1;
    read_fraction = 0.5;
    key_space = 4096;
    zipf_theta = 0.0;
    amnesia = false;
    wal = Wal.Sync_on_commit;
    catch_up = true;
    crashes = None;
    horizon = Float.infinity;
    locks = true;
    spans = false;
    batching = None;
    service = None;
  }

let workloads =
  [
    {
      base with
      name = "read-mostly";
      n = 65;
      ops_per_client = 4_000;
      read_fraction = 0.95;
    };
    {
      base with
      name = "write-heavy-crash";
      ops_per_client = 1_500;
      read_fraction = 0.2;
      key_space = 1024;
      zipf_theta = 0.99;
      amnesia = true;
      crashes = Some (60_000.0, 40.0);
      horizon = 500_000.0;
      spans = true;
    };
    {
      base with
      name = "batched-capacity";
      ops_per_client = 8_000;
      amnesia = true;
      locks = false;
      batching = Some (32, 4);
      service = Some (0.5, 256);
    };
  ]

let think_mean = 0.1
let max_reissues = 100

(* --- set-up -------------------------------------------------------------- *)

type world = {
  wl : workload;
  tree : Tree.t;
  engine : Engine.t;
  net : Message.t Network.t;
  replicas : Replica.t array;
  coords : Coordinator.t array;
  gens : Generator.t array;
  obs : (Obs.t * Obs.Sink.memory) option;
  plan : Shim.stats option;
}

let setup ?acct ~deopt ~negative wl ~seed =
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:wl.n in
  let proto =
    if deopt then Arbitrary.Quorums.reference_protocol tree
    else Arbitrary.Quorums.protocol tree
  in
  let proto, plan =
    match acct with
    | None -> (proto, None)
    | Some a ->
      let p, s = Shim.wrap a proto in
      (p, Some s)
  in
  let engine = Engine.create ~seed () in
  let net =
    Network.create ~engine ~n:(wl.n + wl.clients)
      ~latency:(Dsim.Latency.Exponential 1.0) ()
  in
  if wl.amnesia then Network.set_crash_mode net Network.Amnesia;
  (match wl.service with
  | None -> ()
  | Some (service_time, capacity) ->
    for site = 0 to wl.n - 1 do
      Network.set_service net ~site ~capacity ~service_time ()
    done);
  let obs =
    if wl.spans then begin
      let o = Obs.create () in
      let m = Obs.Sink.memory () in
      Obs.add_sink o (Obs.Sink.memory_sink m);
      Obs.set_clock o (fun () -> Engine.now engine);
      Network.attach_obs net o;
      Some (o, m)
    end
    else None
  in
  let obs_handle = Option.map fst obs in
  (* The negative control: a volatile WAL suffix and no catch-up, the
     configuration known to lose acknowledged writes. *)
  let wal_policy, catch_up =
    if negative then (Wal.Async 60.0, false) else (wl.wal, wl.catch_up)
  in
  let recovery =
    if wl.amnesia then
      Some
        (Replica.recovery ~wal_policy ~catch_up ~proto ())
    else None
  in
  let group_commit = wl.batching <> None in
  let replicas =
    Array.init wl.n (fun site ->
        Replica.create ~site ~net ?recovery ~group_commit ?obs:obs_handle ())
  in
  let locks = if wl.locks then Some (Lock_manager.create ~engine) else None in
  let coords =
    Array.init wl.clients (fun i ->
        Coordinator.create ~site:(wl.n + i) ~net ~proto ?locks ?obs:obs_handle ())
  in
  let gens =
    Array.init wl.clients (fun _ ->
        Generator.create
          ~rng:(Rng.split (Engine.rng engine))
          ~read_fraction:wl.read_fraction ~key_space:wl.key_space
          ~zipf_theta:wl.zipf_theta ())
  in
  (match wl.crashes with
  | None -> ()
  | Some (mtbf, mttr) ->
    Failure.apply net
      (Failure.random_crash_recovery
         ~rng:(Rng.split (Engine.rng engine))
         ~n:wl.n ~horizon:wl.horizon ~mtbf ~mttr));
  { wl; tree; engine; net; replicas; coords; gens; obs; plan }

(* --- the client driver --------------------------------------------------- *)

type outcome = {
  read_lat : Stats.t;
  write_lat : Stats.t;
  mutable completions : int;
  mutable last_completion : float;
  mutable max_stall : float;
  mutable violations : int;  (** stale reads seen by the freshness check *)
  mutable done_ops : int;  (** logical ops finished, succeeded or not *)
  mutable attempts : int;  (** per-key coordinator attempts, re-issues included *)
  mutable failed_attempts : int;
  mutable gen_calls : int;
  mutable think_calls : int;
  mutable steps : int;
  mutable pending_peak : int;
  mutable winding_down : bool;
      (** a client has issued its last op: gaps from here on measure the
          run's tail, not service, so the stall metric stops *)
}

type client = {
  coord : Coordinator.t;
  gen : Generator.t;
  mutable remaining : int;
  mutable key : int;
  mutable is_read : bool;
  mutable value : string;
  mutable issued : float;
  mutable expected : Timestamp.t;
  mutable reissues : int;
}

let drive ?acct w o =
  let wl = w.wl in
  let engine = w.engine in
  let latest = Array.make wl.key_space Timestamp.zero in
  let enter l = match acct with None -> () | Some a -> Acct.enter a l in
  let leave () = match acct with None -> () | Some a -> Acct.leave a in
  let complete () =
    let now = Engine.now engine in
    if o.completions > 0 && (not o.winding_down) && now -. o.last_completion > o.max_stall
    then
      o.max_stall <- now -. o.last_completion;
    o.completions <- o.completions + 1;
    o.last_completion <- now;
    o.done_ops <- o.done_ops + 1
  in
  let think gen =
    o.think_calls <- o.think_calls + 1;
    Generator.think_time gen ~mean:think_mean
  in
  let next_op gen =
    o.gen_calls <- o.gen_calls + 1;
    Generator.next gen
  in
  let read_ok ~expected ~issued ts =
    if Timestamp.newer_than expected ts then o.violations <- o.violations + 1;
    Stats.add o.read_lat (Engine.now engine -. issued);
    complete ()
  in
  let write_ok ~key ~issued ts =
    latest.(key) <- Timestamp.max latest.(key) ts;
    Stats.add o.write_lat (Engine.now engine -. issued);
    complete ()
  in
  (* One op at a time; the closures are built once per client. *)
  let single c =
    let rec next () =
      if c.remaining = 0 then o.winding_down <- true
      else begin
        c.remaining <- c.remaining - 1;
        (match next_op c.gen with
        | Generator.Read key ->
          c.key <- key;
          c.is_read <- true
        | Generator.Write (key, value) ->
          c.key <- key;
          c.is_read <- false;
          c.value <- value);
        c.issued <- Engine.now engine;
        c.reissues <- 0;
        issue ()
      end
    and issue () =
      o.attempts <- o.attempts + 1;
      let retry = c.reissues > 0 in
      enter Acct.coordinator;
      if c.is_read then begin
        c.expected <- latest.(c.key);
        Coordinator.read c.coord ~retry ~key:c.key on_read
      end
      else Coordinator.write c.coord ~retry ~key:c.key ~value:c.value on_write;
      leave ()
    and on_read r =
      enter Acct.driver;
      (match r with
      | Some { Coordinator.ts; _ } ->
        read_ok ~expected:c.expected ~issued:c.issued ts;
        Engine.schedule engine ~delay:(think c.gen) advance
      | None -> failed ());
      leave ()
    and on_write r =
      enter Acct.driver;
      (match r with
      | Some ts ->
        write_ok ~key:c.key ~issued:c.issued ts;
        Engine.schedule engine ~delay:(think c.gen) advance
      | None -> failed ());
      leave ()
    and failed () =
      o.failed_attempts <- o.failed_attempts + 1;
      if c.reissues < max_reissues then begin
        c.reissues <- c.reissues + 1;
        Engine.schedule engine ~delay:(think c.gen) reissue
      end
      else begin
        o.done_ops <- o.done_ops + 1;
        Engine.schedule engine ~delay:(think c.gen) advance
      end
    and advance () =
      enter Acct.driver;
      next ();
      leave ()
    and reissue () =
      enter Acct.driver;
      issue ();
      leave ()
    in
    next
  in
  (* Windows of [batch] ops, [pipeline] windows in flight per client: each
     window is one read batch and one write batch.  Keys that fail are
     re-issued together after a think time. *)
  let batched coord gen ~ops ~batch ~pipeline =
    let remaining = ref ops in
    let rec window () =
      if !remaining = 0 then o.winding_down <- true
      else begin
        let size = min batch !remaining in
        remaining := !remaining - size;
        let reads = ref [] and writes = ref [] in
        for _ = 1 to size do
          match next_op gen with
          | Generator.Read k -> reads := k :: !reads
          | Generator.Write (k, v) -> writes := (k, v) :: !writes
        done;
        let reads = List.rev !reads and writes = List.rev !writes in
        let parts = ref ((if reads = [] then 0 else 1) + if writes = [] then 0 else 1) in
        let issued = Engine.now engine in
        let part_done () =
          decr parts;
          if !parts = 0 then Engine.schedule engine ~delay:(think gen) window_event
        in
        let settle n_failed reissues again =
          o.failed_attempts <- o.failed_attempts + n_failed;
          if n_failed = 0 then part_done ()
          else if reissues < max_reissues then
            Engine.schedule engine ~delay:(think gen) (fun () ->
                enter Acct.driver;
                again (reissues + 1);
                leave ())
          else begin
            o.done_ops <- o.done_ops + n_failed;
            part_done ()
          end
        in
        let rec read_part keys reissues =
          let expected = List.map (fun k -> latest.(k)) keys in
          o.attempts <- o.attempts + List.length keys;
          enter Acct.coordinator;
          Coordinator.read_batch coord ~retry:(reissues > 0) ~keys (fun results ->
              enter Acct.driver;
              let failed =
                List.fold_left2
                  (fun acc expected (k, r) ->
                    match r with
                    | Some { Coordinator.ts; _ } ->
                      read_ok ~expected ~issued ts;
                      acc
                    | None -> k :: acc)
                  [] expected results
              in
              settle (List.length failed) reissues (read_part (List.rev failed));
              leave ());
          leave ()
        in
        let rec write_part ws reissues =
          o.attempts <- o.attempts + List.length ws;
          enter Acct.coordinator;
          Coordinator.write_batch coord ~retry:(reissues > 0) ~writes:ws (fun results ->
              enter Acct.driver;
              let failed =
                List.fold_left2
                  (fun acc kv (k, r) ->
                    match r with
                    | Some ts ->
                      write_ok ~key:k ~issued ts;
                      acc
                    | None -> kv :: acc)
                  [] ws results
              in
              settle (List.length failed) reissues (write_part (List.rev failed));
              leave ());
          leave ()
        in
        if reads <> [] then read_part reads 0;
        if writes <> [] then write_part writes 0
      end
    and window_event () =
      enter Acct.driver;
      window ();
      leave ()
    in
    fun () ->
      for _ = 1 to pipeline do
        window ()
      done
  in
  Array.mapi
    (fun i coord ->
      let gen = w.gens.(i) in
      match wl.batching with
      | None ->
        single
          {
            coord;
            gen;
            remaining = wl.ops_per_client;
            key = 0;
            is_read = true;
            value = "";
            issued = 0.0;
            expected = Timestamp.zero;
            reissues = 0;
          }
      | Some (batch, pipeline) ->
        batched coord gen ~ops:wl.ops_per_client ~batch ~pipeline)
    w.coords

(* --- metrics ------------------------------------------------------------- *)

let pct s q = if Stats.count s = 0 then 0.0 else Stats.percentile s q
let per x ops = if ops = 0 then 0.0 else float_of_int x /. float_of_int ops
let fdiv x y = if y = 0.0 then 0.0 else x /. y
let sum_replicas w f = Array.fold_left (fun acc r -> acc + f r) 0 w.replicas
let coord_sum w f = Array.fold_left (fun acc c -> acc + f (Coordinator.metrics c)) 0 w.coords

(* Paper model (§3, Eq. 3.2): messages per op from the read and write
   costs, and the busiest site's messages per op from the system loads.
   A read is one request/reply per quorum member; a write is a version
   query over a read quorum plus prepare and commit rounds over a write
   quorum.  A batched window sends one read batch if it holds a read and
   one write batch if it holds a write. *)
let model w =
  let wl = w.wl in
  let rc = float_of_int (Analysis.read_cost w.tree) in
  let wc = Analysis.write_cost_avg w.tree in
  let rl = Analysis.read_load w.tree and wload = Analysis.write_load w.tree in
  let rf = wl.read_fraction in
  let msgs_r = 2.0 *. rc and msgs_w = (2.0 *. rc) +. (4.0 *. wc) in
  let site_r = rl and site_w = rl +. (2.0 *. wload) in
  match wl.batching with
  | None ->
    ( (rf *. msgs_r) +. ((1.0 -. rf) *. msgs_w),
      (rf *. site_r) +. ((1.0 -. rf) *. site_w) )
  | Some (b, _) ->
    let p_r = 1.0 -. ((1.0 -. rf) ** float_of_int b) in
    let p_w = 1.0 -. (rf ** float_of_int b) in
    let bf = float_of_int b in
    ( ((p_r *. msgs_r) +. (p_w *. msgs_w)) /. bf,
      ((p_r *. site_r) +. (p_w *. site_w)) /. bf )

let lock_wait_p99 w =
  match w.obs with
  | None -> 0.0
  | Some (_, m) ->
    let s = Stats.create () in
    List.iter
      (fun sp ->
        List.iter
          (fun ph ->
            match (ph.Obs.Span.kind, Obs.Span.phase_duration ph) with
            | Obs.Span.Lock, Some d -> Stats.add s d
            | _ -> ())
          (Obs.Span.phases sp))
      (Obs.Sink.memory_spans m);
    pct s 0.99

(* Counted per-layer metrics: deterministic, available in every run. *)
let counted w o =
  let ops = o.completions in
  let c = Network.counters w.net in
  let n = w.wl.n in
  let delivered = Network.per_site_delivered w.net in
  let busiest = ref 0 and queue_peak = ref 0 in
  for site = 0 to n - 1 do
    busiest := max !busiest delivered.(site);
    queue_peak := max !queue_peak (Network.queue_peak w.net site)
  done;
  let model_msgs, model_site = model w in
  let msgs_per_op = per c.Network.delivered ops in
  let max_site_load = per !busiest ops in
  let goodput = fdiv (float_of_int ops) (o.last_completion /. 1000.0) in
  let capacity =
    match w.wl.service with
    | None -> 0.0
    | Some (s, _) -> fdiv 1000.0 (s *. max_site_load)
  in
  let spans_started = match w.obs with None -> 0 | Some (x, _) -> Obs.spans_started x in
  let retries = coord_sum w (fun m -> m.Coordinator.retries) in
  let coord_ops =
    coord_sum w (fun m ->
        m.Coordinator.reads_ok + m.reads_failed + m.writes_ok + m.writes_failed)
  in
  let coord_failed = coord_sum w (fun m -> m.Coordinator.reads_failed + m.writes_failed) in
  ( [
    ("engine.events_per_op", per o.steps ops);
    ("engine.pending_peak", float_of_int o.pending_peak);
    ("network.sent_per_op", per c.sent ops);
    ("network.delivered_per_op", msgs_per_op);
    ("network.dropped_per_op.crash", per c.dropped_crash ops);
    ("network.dropped_per_op.loss", per c.dropped_loss ops);
    ("network.dropped_per_op.partition", per c.dropped_partition ops);
    ("network.dropped_per_op.overload", per c.dropped_overload ops);
    ("network.coalesced_per_op", per c.coalesced ops);
    ("network.queue_peak", float_of_int !queue_peak);
    ("replica.reads_served_per_op", per (sum_replicas w Replica.reads_served) ops);
    ("replica.prepares_per_op", per (sum_replicas w Replica.prepares_seen) ops);
    ("replica.max_site_load", max_site_load);
    ("replica.sheds", float_of_int (sum_replicas w Replica.sheds));
    ("replica.catchup_runs", float_of_int (sum_replicas w Replica.catchup_runs));
    ("replica.catchup_rounds", float_of_int (sum_replicas w Replica.catchup_rounds));
    ("replica.failed_rejoins", float_of_int (sum_replicas w Replica.failed_rejoins));
    ("store.writes_applied_per_op", per (sum_replicas w Replica.writes_applied) ops);
    ("wal.syncs_per_op", per (sum_replicas w Replica.wal_syncs) ops);
    ("wal.records_lost", float_of_int (sum_replicas w Replica.wal_records_lost));
    ("wal.records_replayed", float_of_int (sum_replicas w Replica.wal_records_replayed));
    ("coordinator.attempts_per_op", per (coord_ops + retries) ops);
    ("coordinator.retries_per_op", per retries ops);
    ("coordinator.batches_per_op", per (coord_sum w (fun m -> m.Coordinator.batches)) ops);
    ( "coordinator.deadline_exceeded",
      float_of_int (coord_sum w (fun m -> m.Coordinator.deadline_exceeded)) );
    ("coordinator.busy_received", float_of_int (coord_sum w (fun m -> m.Coordinator.busy_received)));
    ( "coordinator.stale_rejections",
      float_of_int (coord_sum w (fun m -> m.Coordinator.stale_incarnation_rejections)) );
    ("coordinator.failed_ratio", per coord_failed coord_ops);
    ("lock_manager.wait_ms_p99", lock_wait_p99 w);
    ("obs.spans_per_op", per spans_started ops);
    ("model.msgs_ratio", fdiv msgs_per_op model_msgs);
    ("model.load_ratio", fdiv max_site_load model_site);
    ("model.capacity_ratio", fdiv goodput capacity);
  ],
  (model_msgs, model_site, capacity) )

(* WAL records appended, counted from the replica counters that append
   them: a Stage per prepared key, a Commit per applied key, an Install per
   repair or catch-up install.  The log itself is private to the replica. *)
let wal_records w =
  if not w.wl.amnesia then 0
  else
    sum_replicas w Replica.prepares_seen
    + sum_replicas w Replica.writes_applied
    + sum_replicas w Replica.repairs_applied
    + sum_replicas w Replica.catchup_keys_installed

(* The layers of the attribution: the hooked buckets of {!Acct} first,
   then the layers that are only costed. *)
let layer_names =
  Array.append Acct.bucket_names [| "store"; "wal"; "lock_manager"; "obs"; "rng" |]

let layer name =
  let rec find i = if layer_names.(i) = name then i else find (i + 1) in
  find 0

let methods =
  [
    ("engine", "hooked: step heads up to micro fheap.pop_apply, and events no hook saw; costed: pushes");
    ("plan_cache", "hooked: protocol shim");
    ("network", "hooked: step heads of deliveries; costed: sends x micro network.send");
    ("replica", "hooked: handler and timer intervals, minus costed store, wal and sends");
    ("store", "costed: replica counters x micro store.*");
    ("wal", "costed: appended records x micro wal.append or wal.append_batch");
    ("coordinator", "hooked: driver calls, handler and timer intervals, minus costed");
    ("lock_manager", "costed: acquisitions x micro lock_manager.acquire_release");
    ("obs", "costed: spans x micro obs.span");
    ("rng", "costed: draws of sends, generator and think times x micro rng.float");
    ("driver", "hooked: client events and callbacks, minus costed");
  ]

(* Splits the traced wall time into layers.  Hooked buckets come from
   {!Acct}; a layer no hook brackets is costed as its counted calls times
   the micro-benchmarked ns/call, carved out of the bucket it runs in. *)
let attribute w o (a : Acct.t) micro ~wall_ns ~plan =
  let m = Micro.get micro in
  let ns = Array.make (Array.length layer_names) 0.0 in
  Array.iteri (fun b v -> ns.(b) <- float_of_int v) a.Acct.ns;
  let carve ~from ~into count cost =
    let take = Float.min (float_of_int count *. cost) (Float.max 0.0 ns.(from)) in
    ns.(from) <- ns.(from) -. take;
    ns.(into) <- ns.(into) +. take
  in
  let draw = m "rng.float" and push = m "fheap.push" in
  (* A send's cost moves from the sending layer to the network; the heap
     push and latency draw inside it move on to the engine and the RNG. *)
  Array.iteri
    (fun b k -> if b <> Acct.network then carve ~from:b ~into:Acct.network k (m "network.send"))
    a.Acct.sends;
  let sends = Array.fold_left ( + ) 0 a.Acct.sends in
  carve ~from:Acct.network ~into:Acct.engine sends push;
  carve ~from:Acct.network ~into:(layer "rng") sends draw;
  (* The client driver schedules think times and draws two values per op. *)
  carve ~from:Acct.driver ~into:Acct.engine o.think_calls push;
  carve ~from:Acct.driver ~into:(layer "rng") ((2 * o.gen_calls) + o.think_calls) draw;
  let replicas f = sum_replicas w f in
  let store = layer "store" in
  carve ~from:Acct.replica ~into:store (replicas Replica.reads_served) (m "store.read");
  carve ~from:Acct.replica ~into:store (replicas Replica.prepares_seen) (m "store.stage");
  carve ~from:Acct.replica ~into:store (replicas Replica.writes_applied) (m "store.commit_staged");
  carve ~from:Acct.replica ~into:store
    (replicas Replica.repairs_applied + replicas Replica.catchup_keys_installed)
    (m "store.install");
  carve ~from:Acct.replica ~into:(layer "wal") (wal_records w)
    (m (if w.wl.batching <> None then "wal.append_batch.per_record" else "wal.append"));
  (* Single-key ops take one lock each; batches take none. *)
  let lock_ops = if w.wl.locks && w.wl.batching = None then o.attempts else 0 in
  carve ~from:Acct.coordinator ~into:(layer "lock_manager") lock_ops
    (m "lock_manager.acquire_release");
  let spans = match w.obs with None -> 0 | Some (x, _) -> Obs.spans_started x in
  carve ~from:Acct.coordinator ~into:(layer "obs") spans (m "obs.span");
  let get l = ns.(layer l) in
  let ops = float_of_int o.completions in
  let delivered = Network.per_site_delivered w.net in
  let to_replicas = ref 0 in
  for site = 0 to w.wl.n - 1 do
    to_replicas := !to_replicas + delivered.(site)
  done;
  let plan_calls, nones =
    match plan with None -> (0, 0) | Some s -> (s.Shim.reads + s.Shim.writes, s.Shim.nones)
  in
  List.map (fun (l, _) -> (l ^ ".self_share", fdiv (get l) wall_ns)) methods
  @ [
      ("engine.self_ns_per_event", fdiv (get "engine") (float_of_int o.steps));
      ("plan_cache.calls_per_op", per plan_calls o.completions);
      ("plan_cache.ns_per_call", fdiv (get "plan_cache") (float_of_int plan_calls));
      ("plan_cache.none_ratio", per nones plan_calls);
      ( "network.self_ns_per_msg",
        fdiv (get "network") (float_of_int (Network.counters w.net).Network.delivered) );
      ("replica.self_ns_per_msg", fdiv (get "replica") (float_of_int !to_replicas));
      ("store.ns_per_install", m "store.install");
      ("store.ns_per_read", m "store.read");
      ("wal.records_per_op", per (wal_records w) o.completions);
      ("wal.ns_per_append", m "wal.append");
      ("wal.ns_per_append_batch", m "wal.append_batch.per_record");
      ("coordinator.self_ns_per_op", fdiv (get "coordinator") ops);
      ("obs.ns_per_span", m "obs.span");
      ("rng.ns_per_draw", draw);
      ("trace.coverage", fdiv (Array.fold_left ( +. ) 0.0 ns) wall_ns);
    ]

(* --- one simulation -------------------------------------------------------- *)

type sim = {
  ops : int;
  total : int;
  attempts : int;
  failed_attempts : int;
  read_lat : Stats.t;
  write_lat : Stats.t;
  delivered : int;
  last_completion : float;
  max_stall : float;
  minor_words : float;
  rate : float;  (** completed ops per wall second *)
  setup_s : float;
  checks : (string * bool) list;
  counted : (string * float) list;
  layers : (string * float) list;
  info : (string * string) list;
}

let new_outcome () =
  {
    read_lat = Stats.create ();
    write_lat = Stats.create ();
    completions = 0;
    last_completion = 0.0;
    max_stall = 0.0;
    violations = 0;
    done_ops = 0;
    attempts = 0;
    failed_attempts = 0;
    gen_calls = 0;
    think_calls = 0;
    steps = 0;
    pending_peak = 0;
    winding_down = false;
  }

let simulate ~wl ~seed ~micro ~traced ~deopt ~negative =
  Gc.compact ();
  let acct = if traced then Some (Acct.create ()) else None in
  let t_setup = Acct.now_ns () in
  let w = setup ?acct ~deopt ~negative wl ~seed in
  let setup_s = float_of_int (Acct.now_ns () - t_setup) /. 1e9 in
  let o = new_outcome () in
  let total = wl.clients * wl.ops_per_client in
  let minor0 = Gc.minor_words () in
  let t0 = Acct.now_ns () in
  (match acct with
  | None -> ()
  | Some a ->
    let queued =
      match wl.service with
      | None -> None
      | Some _ ->
        Some
          (fun () ->
            let s = ref 0 in
            for site = 0 to wl.n - 1 do
              s := !s + Network.queue_depth w.net site
            done;
            !s)
    in
    Network.attach_trace w.net ~describe:(Acct.describe a) a.Acct.trace;
    Acct.start ?queued a ~replicas:wl.n ~counters:(Network.counters w.net)
      ~pop_ns:(int_of_float (Micro.get micro "fheap.pop_apply")));
  Array.iter (fun start -> start ()) (drive ?acct w o);
  let boundary =
    match acct with None -> fun () -> () | Some a -> fun () -> Acct.boundary a
  in
  while
    o.done_ops < total
    && begin
         boundary ();
         Engine.step w.engine
       end
  do
    o.steps <- o.steps + 1;
    let p = Engine.pending w.engine in
    if p > o.pending_peak then o.pending_peak <- p
  done;
  (match acct with None -> () | Some a -> Acct.finish a);
  let wall_ns = float_of_int (Acct.now_ns () - t0) in
  let minor_words = Gc.minor_words () -. minor0 in
  let c = Network.counters w.net in
  let spans_open, consistency =
    match w.obs with
    | None -> (0, 0)
    | Some (x, m) ->
      ( Obs.spans_open x,
        List.length (Eval.Consistency.check (Obs.Sink.memory_spans m)).violations )
  in
  let checks =
    [
      ("all_ops_finished", o.done_ops = total);
      ("freshness", o.violations = 0);
      ("spans_closed", spans_open = 0);
      ("consistency", consistency = 0);
      ("wiring", c.Network.dropped_no_handler = 0);
      ("schedule_spans_run", o.last_completion < wl.horizon);
    ]
  in
  let counted, (model_msgs, model_site, capacity) = counted w o in
  let layers =
    match acct with
    | None -> []
    | Some a -> attribute w o a micro ~wall_ns ~plan:w.plan
  in
  {
    ops = o.completions;
    total;
    attempts = o.attempts;
    failed_attempts = o.failed_attempts;
    read_lat = o.read_lat;
    write_lat = o.write_lat;
    delivered = c.Network.delivered;
    last_completion = o.last_completion;
    max_stall = o.max_stall;
    minor_words;
    rate = fdiv (float_of_int o.completions) (wall_ns /. 1e9);
    setup_s;
    checks;
    counted;
    layers;
    info =
      [
        ("model_msgs_per_op", Printf.sprintf "%.4f" model_msgs);
        ("model_max_site_load", Printf.sprintf "%.4f" model_site);
        ("capacity_bound_per_vsec", Printf.sprintf "%.1f" capacity);
        ("violations_driver", string_of_int o.violations);
        ("violations_checker", string_of_int consistency);
      ]
      @ (if traced then List.map (fun (l, m) -> ("method." ^ l, m)) methods else []);
  }

(* --- a run ------------------------------------------------------------------ *)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

let json_floats kvs = json_obj (List.map (fun (k, v) -> (k, json_float v)) kvs)
let json_strings kvs = json_obj (List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) kvs)

(* Set-ups timed after the run, for a steady median. *)
let extra_setups = 20

let run ~wl ~seed ~traced ~deopt ~negative =
  let w_tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:wl.n in
  let micro =
    if traced then
      Micro.all
        ~proto:(Arbitrary.Quorums.protocol w_tree)
        ~heap_size:256 ~wal_batch:32
    else []
  in
  let s = simulate ~wl ~seed ~micro ~traced ~deopt ~negative in
  (* The process is fresh, so the heap high-water mark is this run's. *)
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.0
  in
  let slowness = Calib.slowness () in
  let setup_samples =
    s.setup_s
    :: List.init extra_setups (fun _ ->
           Gc.compact ();
           let t = Acct.now_ns () in
           ignore (Sys.opaque_identity (setup ~deopt ~negative wl ~seed));
           float_of_int (Acct.now_ns () - t) /. 1e9)
  in
  let setup_raw = median setup_samples in
  (* Wall figures are scaled by the machine's slowness at the time (see
     {!Calib}); the raw ones are printed next to them. *)
  let e2e =
    [
      ("ops_per_s", s.rate *. slowness);
      ("setup_s", setup_raw /. slowness);
      ("read_p50_ms", pct s.read_lat 0.50);
      ("read_p99_ms", pct s.read_lat 0.99);
      ("write_p50_ms", pct s.write_lat 0.50);
      ("write_p99_ms", pct s.write_lat 0.99);
      ("goodput_per_vsec", fdiv (float_of_int s.ops) (s.last_completion /. 1000.0));
      ("success_ratio", per (s.attempts - s.failed_attempts) s.attempts);
      ("msgs_per_op", per s.delivered s.ops);
      ("max_stall_ms", s.max_stall);
      ("peak_heap_mb", peak_heap_mb);
      ("minor_words_per_op", fdiv s.minor_words (float_of_int s.ops));
    ]
  in
  let info =
    [
      ("read_samples", string_of_int (Stats.count s.read_lat));
      ("write_samples", string_of_int (Stats.count s.write_lat));
      ("raw_ops_per_s", Printf.sprintf "%.1f" s.rate);
      ("raw_setup_s", Printf.sprintf "%.6f" setup_raw);
      ("slowness", Printf.sprintf "%.4f" slowness);
    ]
    @ s.info
  in
  print_endline
    (json_obj
       [
         ("workload", Printf.sprintf "%S" wl.name);
         ("seed", string_of_int seed);
         ("traced", string_of_bool traced);
         ("correct", string_of_bool (List.for_all snd s.checks));
         ("checks", json_obj (List.map (fun (k, v) -> (k, string_of_bool v)) s.checks));
         ("attempted", string_of_int s.total);
         ("failed", string_of_int (s.total - s.ops));
         ("e2e", json_floats e2e);
         ("counted", json_floats s.counted);
         ("layers", json_floats s.layers);
         ("micro", json_floats micro);
         ("info", json_strings info);
       ])

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false in
  let deopt = ref false and negative = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the workload's inputs");
      ("--trace", Arg.Set traced, " time the layers (slower)");
      ("--deopt", Arg.Set deopt, " use the uncached reference quorum assembly");
      ("--negative-control", Arg.Set negative, " async WAL, no catch-up (unsafe)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--trace]";
  match List.find_opt (fun wl -> wl.name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some wl -> run ~wl ~seed:!seed ~traced:!traced ~deopt:!deopt ~negative:!negative
