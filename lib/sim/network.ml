module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng

type crash_mode = Fail_stop | Amnesia

type crash_hooks = {
  on_crash : crash_mode -> unit;
  on_recover : unit -> unit;
}

type counters = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_crash : int;
  mutable dropped_partition : int;
  mutable dropped_no_handler : int;
  mutable dropped_overload : int;
  mutable coalesced : int;
}

(* Per-site ingress queue and service model, allocated only for sites that
   opted in through [set_service]/[set_priority]/[set_overflow]; every
   other site keeps the instant-delivery path untouched. *)
type 'msg service = {
  mutable capacity : int;  (* 0 = unbounded *)
  mutable service_time : float;
  squeue : (int * 'msg) Queue.t;  (* (src, msg); head is in service *)
  mutable busy : bool;  (* a service-completion event is scheduled *)
  mutable epoch : int;  (* bumped by crash so stale completions die *)
  mutable peak : int;
  mutable priority : (src:int -> 'msg -> bool) option;
  mutable overflow : (src:int -> 'msg -> unit) option;
}

type 'msg t = {
  engine : Engine.t;
  n : int;
  latency : Latency.t;
  mutable loss_rate : float;
  fifo_floor : float array;  (* per src*n+dst: last delivery time; empty
                                unless FIFO ordering was requested *)
  rng : Rng.t;
  handlers : (src:int -> 'msg -> unit) option array;
  up : bool array;
  alive : Bitset.t;  (* mirrors [up], maintained by crash/recover, so
                        alive_view is a word blit, not an n-site loop *)
  group : int array;  (* partition group per site; all 0 when healed *)
  mutable generation : int;  (* topology changes so far *)
  mutable mode : crash_mode;
  hooks : crash_hooks option array;
  services : 'msg service option array;
  counters : counters;
  sent_from : int array;
  delivered_to : int array;
  mutable trace : 'msg tracer option;
  mutable observers : Obs.t list;  (* registries reading the counters *)
  mutable queue_depth : Obs.Metrics.histogram option;
  mutable deferred : Engine.handler;
      (* preallocated arrival handler: (src, dst) packed in the event's
         int slot, the message in its payload slot, so a send schedules
         no closure *)
}

and 'msg tracer = { sink : Trace.t; describe : 'msg -> string }

(* Sentinel handler installed by [create]; the first send swaps in the
   real arrival handler (defined below, next to the delivery logic). *)
let uninit_deferred = Engine.handler (fun _ _ -> ())

let create ~engine ~n ?(latency = Latency.Exponential 1.0) ?(loss_rate = 0.0)
    ?(fifo = false) () =
  if n < 1 then invalid_arg "Network.create: need at least one site";
  if loss_rate < 0.0 || loss_rate >= 1.0 then
    invalid_arg "Network.create: loss_rate out of [0,1)";
  {
    engine;
    n;
    latency;
    loss_rate;
    fifo_floor = (if fifo then Array.make (n * n) 0.0 else [||]);
    rng = Rng.split (Engine.rng engine);
    handlers = Array.make n None;
    up = Array.make n true;
    alive =
      (let s = Bitset.create n in
       for i = 0 to n - 1 do
         Bitset.add s i
       done;
       s);
    group = Array.make n 0;
    generation = 0;
    mode = Fail_stop;
    hooks = Array.make n None;
    services = Array.make n None;
    counters =
      {
        sent = 0;
        delivered = 0;
        dropped_loss = 0;
        dropped_crash = 0;
        dropped_partition = 0;
        dropped_no_handler = 0;
        dropped_overload = 0;
        coalesced = 0;
      };
    sent_from = Array.make n 0;
    delivered_to = Array.make n 0;
    trace = None;
    observers = [];
    queue_depth = None;
    deferred = uninit_deferred;
  }

let engine t = t.engine
let size t = t.n

let attach_trace t ?(describe = fun _ -> "") sink =
  t.trace <- Some { sink; describe }

(* The counters stay in [t.counters] and the per-site arrays; the registry
   reads them through a source whenever it is exported, so obs attached
   mid-run sees every message since [create].  Only the queue-depth
   histogram is written at event time. *)
let attach_obs t obs =
  if not (List.memq obs t.observers) then begin
    t.observers <- obs :: t.observers;
    let m = Obs.metrics obs in
    t.queue_depth <- Some (Obs.Metrics.histogram m "net.queue.depth");
    Obs.Metrics.source m (fun report ->
        let c = t.counters in
        report "net.sent" c.sent;
        report "net.delivered" c.delivered;
        report "net.dropped.loss" c.dropped_loss;
        report "net.dropped.crash" c.dropped_crash;
        report "net.dropped.partition" c.dropped_partition;
        report "net.dropped.no_handler" c.dropped_no_handler;
        report "net.dropped.overload" c.dropped_overload;
        report "net.coalesced" c.coalesced;
        for i = 0 to t.n - 1 do
          report (Printf.sprintf "net.site.%d.sent" i) t.sent_from.(i);
          report (Printf.sprintf "net.site.%d.delivered" i) t.delivered_to.(i)
        done)
  end

let emit t event =
  match t.trace with
  | None -> ()
  | Some { sink; _ } -> Trace.record sink ~time:(Engine.now t.engine) event

(* Send/deliver trace events take src/dst directly rather than a [mk]
   closure: the closure literal would be allocated per message even with
   tracing off. *)
let emit_send t ~src ~dst msg =
  match t.trace with
  | None -> ()
  | Some { sink; describe } ->
    Trace.record sink ~time:(Engine.now t.engine)
      (Trace.Send { src; dst; info = describe msg })

let emit_deliver t ~src ~dst msg =
  match t.trace with
  | None -> ()
  | Some { sink; describe } ->
    Trace.record sink ~time:(Engine.now t.engine)
      (Trace.Deliver { src; dst; info = describe msg })

let check_site t i =
  if i < 0 || i >= t.n then invalid_arg "Network: bad site id"

let set_handler t ~site f =
  check_site t site;
  t.handlers.(site) <- Some f

let reachable t a b =
  check_site t a;
  check_site t b;
  t.group.(a) = t.group.(b)

(* Hand the message to the destination's handler: the tail of both the
   instant-delivery path and the service-queue path. *)
let deliver t ~src ~dst msg =
  match t.handlers.(dst) with
  | None ->
    (* A missing handler is a wiring problem, not a crash: count it
       separately so crash statistics stay truthful. *)
    t.counters.dropped_no_handler <- t.counters.dropped_no_handler + 1;
    emit t (Trace.Drop { src; dst; reason = "no handler" })
  | Some h ->
    t.counters.delivered <- t.counters.delivered + 1;
    t.delivered_to.(dst) <- t.delivered_to.(dst) + 1;
    emit_deliver t ~src ~dst msg;
    h ~src msg

(* One server per site: the queue head is in service; its completion event
   pops it, hands it to the handler, and re-arms for the next message.
   [epoch] guards against completions scheduled before a crash wiped the
   queue. *)
let rec serve t ~dst s =
  s.busy <- true;
  let epoch = s.epoch in
  Engine.schedule t.engine ~delay:s.service_time (fun () ->
      if s.epoch = epoch then begin
        (match Queue.take_opt s.squeue with
        | None -> ()
        | Some (src, msg) -> deliver t ~src ~dst msg);
        if Queue.is_empty s.squeue then s.busy <- false else serve t ~dst s
      end)

(* Arrival at a site with a service model: bounded admission (priority
   traffic always admitted), then FIFO service. *)
let enqueue t ~src ~dst s msg =
  let priority =
    match s.priority with None -> false | Some p -> p ~src msg
  in
  if (not priority) && s.capacity > 0 && Queue.length s.squeue >= s.capacity
  then begin
    t.counters.dropped_overload <- t.counters.dropped_overload + 1;
    emit t (Trace.Drop { src; dst; reason = "overload" });
    match s.overflow with None -> () | Some f -> f ~src msg
  end
  else begin
    Queue.add (src, msg) s.squeue;
    let depth = Queue.length s.squeue in
    if depth > s.peak then s.peak <- depth;
    (match t.queue_depth with
    | None -> ()
    | Some h -> Obs.Metrics.observe h (float_of_int depth));
    if not s.busy then serve t ~dst s
  end

(* The one place a loss drop is accounted: counter and trace move
   together no matter when [set_loss_rate] changes the rate (the decision
   samples [t.loss_rate] at send time; the accounting is
   rate-independent). *)
let count_loss_drop t ~src ~dst =
  t.counters.dropped_loss <- t.counters.dropped_loss + 1;
  emit t (Trace.Drop { src; dst; reason = "loss" })

(* Message arrival (the deferred half of [send]): crash/partition checks
   happen at delivery time, so in-flight messages die with their
   destination. *)
let arrive t ~src ~dst msg =
  if not t.up.(dst) then begin
    t.counters.dropped_crash <- t.counters.dropped_crash + 1;
    emit t (Trace.Drop { src; dst; reason = "destination down" })
  end
  else if t.group.(src) <> t.group.(dst) then begin
    t.counters.dropped_partition <- t.counters.dropped_partition + 1;
    emit t (Trace.Drop { src; dst; reason = "partition" })
  end
  else begin
    match t.services.(dst) with
    | None -> deliver t ~src ~dst msg
    | Some s -> enqueue t ~src ~dst s msg
  end

(* Install the preallocated arrival handler: one handler per network, the
   per-message (src, dst) packed into the event's int slot (20 bits each —
   universes are at most a few hundred sites) and the message in its
   payload slot.  Closure-based scheduling would cost several words per
   message. *)
let init_deferred t =
  t.deferred <-
    Engine.handler (fun meta p ->
        arrive t ~src:(meta lsr 20) ~dst:(meta land 0xFFFFF) (Obj.obj p))

let send t ?(units = 1) ~src ~dst msg =
  check_site t src;
  check_site t dst;
  t.counters.sent <- t.counters.sent + 1;
  t.sent_from.(src) <- t.sent_from.(src) + 1;
  (* A coalesced envelope carries [units] logical operations in one
     message: one send, one service-queue slot, one delivery — that is
     the amortization.  The counter records how many per-op messages the
     coalescing saved. *)
  if units > 1 then
    t.counters.coalesced <- t.counters.coalesced + (units - 1);
  emit_send t ~src ~dst msg;
  if not t.up.(src) then begin
    t.counters.dropped_crash <- t.counters.dropped_crash + 1;
    emit t (Trace.Drop { src; dst; reason = "sender down" })
  end
  else if t.loss_rate > 0.0 && Rng.bernoulli t.rng t.loss_rate then
    count_loss_drop t ~src ~dst
  else begin
    if t.deferred == uninit_deferred then init_deferred t;
    let meta = (src lsl 20) lor dst and payload = Obj.repr msg in
    if Array.length t.fifo_floor = 0 then
      (* The sample's box goes to the engine as is: binding it next to the
         FIFO arithmetic below would unbox it and box it again. *)
      Engine.schedule_packed t.engine
        ~delay:(Latency.sample t.latency t.rng)
        t.deferred ~meta ~payload
    else begin
      (* FIFO links: never deliver before an earlier message of the same
         (src, dst) pair. *)
      let now = (Engine.clock t.engine).now in
      let idx = (src * t.n) + dst in
      let at =
        Float.max
          (now +. Latency.sample t.latency t.rng)
          (t.fifo_floor.(idx) +. 1e-9)
      in
      t.fifo_floor.(idx) <- at;
      Engine.schedule_packed t.engine ~delay:(at -. now) t.deferred ~meta
        ~payload
    end
  end

let broadcast t ~src ~dst msg = List.iter (fun d -> send t ~src ~dst:d msg) dst

(* --- per-site overload model -------------------------------------------- *)

let service t site =
  check_site t site;
  match t.services.(site) with
  | Some s -> s
  | None ->
    let s =
      {
        capacity = 0;
        service_time = 0.0;
        squeue = Queue.create ();
        busy = false;
        epoch = 0;
        peak = 0;
        priority = None;
        overflow = None;
      }
    in
    t.services.(site) <- Some s;
    s

let set_service t ~site ?(capacity = 0) ?(service_time = 0.0) () =
  if capacity < 0 then invalid_arg "Network.set_service: negative capacity";
  if service_time < 0.0 then
    invalid_arg "Network.set_service: negative service time";
  let s = service t site in
  s.capacity <- capacity;
  s.service_time <- service_time

let set_priority t ~site p = (service t site).priority <- Some p
let set_overflow t ~site f = (service t site).overflow <- Some f

let queue_depth t site =
  check_site t site;
  match t.services.(site) with None -> 0 | Some s -> Queue.length s.squeue

let queue_peak t site =
  check_site t site;
  match t.services.(site) with None -> 0 | Some s -> s.peak

let set_crash_mode t mode = t.mode <- mode
let crash_mode t = t.mode

let set_crash_hooks t ~site ?(on_crash = fun _ -> ()) ?(on_recover = fun () -> ())
    () =
  check_site t site;
  t.hooks.(site) <- Some { on_crash; on_recover }

(* Crash/recover are transition-guarded: a redundant call is a no-op — no
   duplicate trace event, no hook invocation, and the alive bitset stays in
   lockstep with [up].  Hooks fire after the state change, so an [on_crash]
   callback already sees its site as down. *)
let crash t i =
  check_site t i;
  if t.up.(i) then begin
    emit t (Trace.Crash i);
    t.up.(i) <- false;
    Bitset.remove t.alive i;
    t.generation <- t.generation + 1;
    (* Queued-but-unserved messages die with the site; the epoch bump
       invalidates any in-flight service-completion event. *)
    (match t.services.(i) with
    | None -> ()
    | Some s ->
      let pending = Queue.length s.squeue in
      if pending > 0 then begin
        t.counters.dropped_crash <- t.counters.dropped_crash + pending;
        Queue.clear s.squeue
      end;
      s.epoch <- s.epoch + 1;
      s.busy <- false);
    match t.hooks.(i) with Some h -> h.on_crash t.mode | None -> ()
  end

let recover t i =
  check_site t i;
  if not t.up.(i) then begin
    emit t (Trace.Recover i);
    t.up.(i) <- true;
    Bitset.add t.alive i;
    t.generation <- t.generation + 1;
    match t.hooks.(i) with Some h -> h.on_recover () | None -> ()
  end

let is_up t i =
  check_site t i;
  t.up.(i)

(* Copy rather than expose [t.alive]: callers (oracle detectors) may hold
   the snapshot across failure events or mutate it while planning. *)
let alive_view t = Bitset.copy t.alive
let generation t = t.generation

let fill_reachable t ~self set =
  check_site t self;
  Bitset.blit ~src:t.alive ~dst:set;
  let g = t.group.(self) in
  for i = 0 to Bitset.capacity set - 1 do
    if t.group.(i) <> g then Bitset.remove set i
  done

let partition t groups =
  emit t
    (Trace.Partition_change
       (String.concat " | "
          (List.map
             (fun g -> String.concat "," (List.map string_of_int g))
             groups)));
  t.generation <- t.generation + 1;
  Array.fill t.group 0 t.n 0;
  List.iteri
    (fun g sites ->
      List.iter
        (fun i ->
          check_site t i;
          t.group.(i) <- g + 1)
        sites)
    groups

let heal t =
  emit t (Trace.Partition_change "healed");
  t.generation <- t.generation + 1;
  Array.fill t.group 0 t.n 0

let set_loss_rate t rate =
  if rate < 0.0 || rate >= 1.0 then
    invalid_arg "Network.set_loss_rate: loss_rate out of [0,1)";
  t.loss_rate <- rate

let counters t = t.counters
let per_site_delivered t = Array.copy t.delivered_to
