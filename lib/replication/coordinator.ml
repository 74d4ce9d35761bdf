module Bitset = Dsutil.Bitset
module Stats = Dsutil.Stats
module Engine = Dsim.Engine
module Network = Dsim.Network
module Protocol = Quorum.Protocol

type config = {
  timeout : float;
  max_retries : int;
  oracle_view : bool;
  read_repair : bool;
  adaptive_timeout : bool;
  deadline : float;
  backoff : Detect.Backoff.policy;
  rto : Detect.Rto.config;
  pipeline_levels : bool;
}

let default_config =
  {
    timeout = 25.0;
    max_retries = 4;
    oracle_view = true;
    read_repair = false;
    adaptive_timeout = false;
    deadline = Float.infinity;
    backoff = Detect.Backoff.default;
    rto = Detect.Rto.default_config;
    pipeline_levels = false;
  }

type read_result = { value : string; ts : Timestamp.t; attempts : int }

type metrics = {
  reads_ok : int;
  reads_failed : int;
  writes_ok : int;
  writes_failed : int;
  retries : int;
  repairs_sent : int;
  deadline_exceeded : int;
  stale_incarnation_rejections : int;
  busy_received : int;
  retries_suppressed : int;
  batches : int;
  read_latency : Stats.t;
  write_latency : Stats.t;
}

(* What a round means to the coordinator.  A batch is the same round over
   more key slots; only the result shape differs. *)
type kind =
  | Read_op of (read_result option -> unit)
  | Write_op of string * (Timestamp.t option -> unit)
  | Read_batch_op of ((int * read_result option) list -> unit)
  | Write_batch_op of
      (int * string) list * ((int * Timestamp.t option) list -> unit)

type t = {
  e : kind Round.t;
  locks : Lock_manager.t option;
  config : config;
  mutable lock_seq : int;  (* locked operations issued so far *)
  mutable reads_ok : int;
  mutable reads_failed : int;
  mutable writes_ok : int;
  mutable writes_failed : int;
  mutable repairs_sent : int;
  mutable batches : int;
  read_latency : Stats.t;
  write_latency : Stats.t;
}

let view t = t.e.view
let current_view t = Round.current_view t.e
let observed_timeout t = Round.phase_timeout t.e

(* Legacy timeout-based suspicion, packaged as a detector view: sites are
   suspected for a fixed window after missing a deadline and — the crucial
   rehabilitation rule — cleared the moment they are heard from again. *)
let suspicion_view ~net ~site ~n ~timeout =
  let suspects = Hashtbl.create 16 in
  let now () = Engine.now (Network.engine net) in
  let alive () =
    let now = now () and view = Bitset.create n in
    for i = 0 to n - 1 do
      let suspected =
        try Hashtbl.find suspects i > now with Not_found -> false
      in
      if (not suspected) && Network.reachable net site i then Bitset.add view i
    done;
    view
  in
  Detect.View.make ~alive
    ~observe:(fun site -> Hashtbl.remove suspects site)
    ~suspect:(fun site ->
      Hashtbl.replace suspects site (now () +. (4.0 *. timeout)))
    ()

(* Every locked operation is its own lock owner: a client can run several
   operations on one key at once (pipelined windows, per-shard
   sub-batches), and a site-wide owner would make the second request
   invalid.  Owners are negative and carry the site in their low 20 bits,
   so they never collide with another coordinator's, a transaction's or a
   site-owned reconfiguration fence. *)
let with_lock t ~key ~mode body =
  match t.locks with
  | None -> body (fun k -> k ())
  | Some lm ->
    t.lock_seq <- t.lock_seq + 1;
    let owner = -((t.lock_seq lsl 20) lor t.e.site) in
    Lock_manager.acquire lm ~key ~mode ~owner (fun () ->
        body (fun k ->
            Lock_manager.release lm ~key ~owner;
            k ()))

(* Push the newest value back to quorum members that replied with an older
   timestamp (§2.2's transient failures: a recovered replica catches up on
   first contact) — per stale (member, key slot), so batched reads repair
   too.  [replies] is only recorded when [read_repair] is on. *)
let send_repairs t (r : kind Round.round) =
  List.iter
    (fun (site, i, version, sid) ->
      let v = r.ver.(i) and s = r.sid.(i) in
      if (not (v = 0 && s = 0)) && Timestamp.newer_flat v s version sid
      then begin
        t.repairs_sent <- t.repairs_sent + 1;
        Network.send t.e.net ~src:t.e.site ~dst:site
          (Message.Repair
             {
               op = r.op;
               key = r.keys.(i);
               version = v;
               sid = s;
               value = r.vals.(i);
             })
      end)
    r.replies

(* Per-key version bump from the per-key newest seen in the query phase —
   keys in one batch are at unrelated versions.  A key written twice in one
   batch gets strictly increasing versions, so the later value wins at
   install time. *)
let rec prior (r : kind Round.round) ~key j =
  if j < 0 || r.keys.(j) = key then j else prior r ~key (j - 1)

let bump t (r : kind Round.round) i value =
  let j = prior r ~key:r.keys.(i) (i - 1) in
  r.ver.(i) <- (if j < 0 then r.ver.(i) else r.ver.(j)) + 1;
  r.sid.(i) <- t.e.site;
  r.vals.(i) <- value

let on_query t (r : kind Round.round) =
  if r.replies <> [] then send_repairs t r;
  match r.kind with
  | Write_op (value, _) -> bump t r 0 value
  | Write_batch_op (writes, _) ->
    List.iteri (fun i (_, value) -> bump t r i value) writes
  | Read_op _ | Read_batch_op _ -> ()

let read_result (r : kind Round.round) i =
  {
    value = r.vals.(i);
    ts = Timestamp.make ~version:r.ver.(i) ~sid:r.sid.(i);
    attempts = r.attempts + 1;
  }

let write_ts (r : kind Round.round) i =
  Timestamp.make ~version:r.ver.(i) ~sid:r.sid.(i)

let finished t (r : kind Round.round) ok =
  let elapsed = t.e.clock.now -. r.at.started in
  let read =
    match r.kind with Read_op _ | Read_batch_op _ -> true | _ -> false
  in
  for i = 0 to r.n - 1 do
    Round.ofinish t.e r.spans.(i) ~ok ~version:r.ver.(i) ~sid:r.sid.(i);
    match (read, ok) with
    | true, true ->
      t.reads_ok <- t.reads_ok + 1;
      Stats.add t.read_latency elapsed
    | true, false -> t.reads_failed <- t.reads_failed + 1
    | false, true ->
      t.writes_ok <- t.writes_ok + 1;
      Stats.add t.write_latency elapsed
    | false, false -> t.writes_failed <- t.writes_failed + 1
  done;
  match r.kind with
  | Read_op k -> k (if ok then Some (read_result r 0) else None)
  | Write_op (_, k) -> k (if ok then Some (write_ts r 0) else None)
  | Read_batch_op k ->
    k
      (List.init r.n (fun i ->
           (r.keys.(i), if ok then Some (read_result r i) else None)))
  | Write_batch_op (_, k) ->
    k
      (List.init r.n (fun i ->
           (r.keys.(i), if ok then Some (write_ts r i) else None)))

let level_plan_of t proto =
  if t.config.pipeline_levels then Protocol.read_levels proto else None

let create ~site ~net ~proto ?locks ?view ?budget ?breaker ?obs
    ?(config = default_config) () =
  let n = Protocol.universe_size proto in
  let view =
    match view with
    | Some v -> v
    | None ->
      if config.oracle_view then Detect.View.oracle ~net ~self:site ~n
      else suspicion_view ~net ~site ~n ~timeout:config.timeout
  in
  let { timeout; max_retries; adaptive_timeout; deadline; backoff; rto; _ } =
    config
  in
  let e =
    Round.create ~site ~net ~proto ~prefix:"coord"
      ~config:
        {
          Round.timeout;
          max_retries;
          adaptive_timeout;
          deadline;
          backoff;
          rto;
        }
      ~view ?budget ?breaker ?obs
      ~dummy_kind:(Read_op ignore) ~record_replies:config.read_repair ()
  in
  let t =
    {
      e;
      locks;
      config;
      lock_seq = 0;
      reads_ok = 0;
      reads_failed = 0;
      writes_ok = 0;
      writes_failed = 0;
      repairs_sent = 0;
      batches = 0;
      read_latency = Stats.create ();
      write_latency = Stats.create ();
    }
  in
  (match obs with
  | None -> ()
  | Some o ->
    Obs.Metrics.source (Obs.metrics o) (fun report ->
        if t.repairs_sent > 0 then report "coord.repairs_sent" t.repairs_sent;
        if t.batches > 0 then report "coord.batches" t.batches));
  e.levels <- level_plan_of t proto;
  e.on_query <- (fun r -> on_query t r);
  e.finished <- (fun r ok -> finished t r ok);
  t

(* Operation entry.  First attempts deposit into the retry budget;
   caller-level re-issues ([~retry:true]) must not.  The span opens here —
   before any local lock wait — so its duration covers what the caller
   experiences; with locks in play the wait shows up as an explicit [Lock]
   phase, auto-closed when the first quorum phase opens. *)
let entry t ~retry ~op ~key =
  if not retry then Round.budget_attempt t.e;
  let span = Round.ospan t.e ~op ~key in
  (match (t.e.obs, span, t.locks) with
  | Some obs, Some sp, Some _ -> Obs.phase obs sp ~kind:Obs.Span.Lock ()
  | _ -> ());
  span

(* A single-key operation is a 1-key round under the key's lock. *)
let start1 t ~key ~span ~last kind =
  let r = Round.alloc t.e ~kind ~n:1 ~last in
  r.keys.(0) <- key;
  r.spans.(0) <- span;
  Round.start t.e r

let read t ?(retry = false) ~key k =
  let span = entry t ~retry ~op:"read" ~key in
  with_lock t ~key ~mode:Lock_manager.Shared (fun unlock ->
      start1 t ~key ~span ~last:Round.Query
        (Read_op (fun r -> unlock (fun () -> k r))))

let write t ?(retry = false) ~key ~value k =
  let span = entry t ~retry ~op:"write" ~key in
  with_lock t ~key ~mode:Lock_manager.Exclusive (fun unlock ->
      start1 t ~key ~span ~last:Round.Commit
        (Write_op (value, fun r -> unlock (fun () -> k r))))

(* Batched entries.  Size <= 1 delegates to the plain single-key path —
   locks, spans, RNG draws and all — so a batch size of 1 is byte-identical
   to unbatched operation.  True batches (>= 2 keys) skip the per-key lock
   manager: monotone installs plus quorum intersection make concurrent
   multi-key writes safe without it (timestamps totally order by (version,
   sid)), and one lock per batch would serialize exactly the parallelism
   batching exists to create. *)
let batch t ~retry ~op ~keys ~last kind =
  if not retry then Round.budget_attempt t.e;
  t.batches <- t.batches + 1;
  let r = Round.alloc t.e ~kind ~n:(List.length keys) ~last in
  List.iteri
    (fun i key ->
      r.keys.(i) <- key;
      r.spans.(i) <- Round.ospan t.e ~op ~key)
    keys;
  Round.start t.e r

let read_batch t ?(retry = false) ~keys k =
  match keys with
  | [] -> k []
  | [ key ] -> read t ~retry ~key (fun r -> k [ (key, r) ])
  | _ -> batch t ~retry ~op:"read" ~keys ~last:Round.Query (Read_batch_op k)

let write_batch t ?(retry = false) ~writes k =
  match writes with
  | [] -> k []
  | [ (key, value) ] -> write t ~retry ~key ~value (fun r -> k [ (key, r) ])
  | _ ->
    batch t ~retry ~op:"write" ~keys:(List.map fst writes) ~last:Round.Commit
      (Write_batch_op (writes, k))

let set_protocol t proto =
  if Protocol.universe_size proto <> t.e.n_replicas then
    invalid_arg "Coordinator.set_protocol: replica universe changed";
  t.e.proto <- proto;
  t.e.levels <- level_plan_of t proto

let metrics t =
  {
    reads_ok = t.reads_ok;
    reads_failed = t.reads_failed;
    writes_ok = t.writes_ok;
    writes_failed = t.writes_failed;
    retries = t.e.retries;
    repairs_sent = t.repairs_sent;
    deadline_exceeded = t.e.deadline_exceeded;
    stale_incarnation_rejections = t.e.stale_inc_rejections;
    busy_received = t.e.busy_received;
    retries_suppressed = t.e.retries_suppressed;
    batches = t.batches;
    read_latency = t.read_latency;
    write_latency = t.write_latency;
  }
