(* Wall-time accountant for the traced run.

   The hooks partition the run loop's wall time into intervals and charge
   each interval to the layer that was running:

   - [boundary] is called before every [Engine.step].  The step's head (the
     heap pop plus whatever the event does before the first hook) is
     charged to [engine] for [pop_ns] and the rest to the event's owner.
   - [describe] is the network trace hook.  It fires on every send and on
     every delivery just before the destination handler runs.  A delivery
     ends the step head (which then belongs to [network]) and opens an
     interval owned by the destination: a replica when [dst < replicas],
     else a coordinator.  A send reads no clock: the interval keeps its
     owner, and the send is counted against that owner so its cost can be
     moved to [network] afterwards.
   - [enter]/[leave] bracket code the benchmark can see directly: the
     driver's client events and callbacks, its calls into the
     coordinator, and the protocol shim.

   An interval whose owner is not yet known (a step head, or a handler
   whose destination is only written to the trace after [describe]
   returns) is resolved at the next hook from the first Send/Deliver
   record the bounded trace holds: the destination of a delivery, or the
   source of a send. *)

module Trace = Dsim.Trace

let driver = 0
let coordinator = 1
let replica = 2
let network = 3
let plan_cache = 4
let engine = 5
let n_buckets = 6
let bucket_names = [| "driver"; "coordinator"; "replica"; "network"; "plan_cache"; "engine" |]

(* [cur] value of an interval that the next trace record resolves. *)
let pending = -1

type t = {
  mutable on : bool;
  ns : int array;  (** charged wall time per bucket *)
  sends : int array;  (** messages sent from code owned by each bucket *)
  mutable pending_sends : int;
  mutable cur : int;
  mutable last : int;
  stack : int array;
  mutable depth : int;
  mutable head_open : bool;
  trace : Trace.t;
  mutable replicas : int;
  mutable delivered_seen : int;
  mutable counters : Dsim.Network.counters option;
  mutable pop_ns : int;
  mutable queued : (unit -> int) option;
      (** messages waiting in service queues, when the workload has a
          service model: a step that only enqueues an arrival leaves no
          trace record, and this is how it is recognised as network work *)
  mutable queued_at_head : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create () =
  {
    on = false;
    ns = Array.make n_buckets 0;
    sends = Array.make n_buckets 0;
    pending_sends = 0;
    cur = driver;
    last = 0;
    stack = Array.make 64 driver;
    depth = 0;
    head_open = false;
    trace = Trace.create ~capacity:256 ();
    replicas = 0;
    delivered_seen = 0;
    counters = None;
    pop_ns = 0;
    queued = None;
    queued_at_head = 0;
  }

let owner_of_site a site = if site < a.replicas then replica else coordinator

let resolve a =
  let l =
    match
      Trace.find_first a.trace (function
        | Trace.Send _ | Trace.Deliver _ | Trace.Drop _ | Trace.Crash _
        | Trace.Recover _ ->
          true
        | _ -> false)
    with
    | Some { Trace.event = Trace.Deliver { dst; _ }; _ } -> owner_of_site a dst
    | Some { Trace.event = Trace.Send { src; _ }; _ } -> owner_of_site a src
    | Some { Trace.event = Trace.Drop _; _ } -> network
    | Some { Trace.event = Trace.Crash _ | Trace.Recover _; _ } -> replica
    | _ -> (
      match a.queued with
      | Some q when a.head_open && q () <> a.queued_at_head -> network
      | _ -> engine)
  in
  Trace.clear a.trace;
  a.cur <- l;
  a.sends.(l) <- a.sends.(l) + a.pending_sends;
  a.pending_sends <- 0;
  l

let charge a now =
  let dt = now - a.last in
  a.last <- now;
  let l = if a.cur >= 0 then a.cur else resolve a in
  if a.head_open then begin
    a.head_open <- false;
    let e = if dt < a.pop_ns then dt else a.pop_ns in
    a.ns.(engine) <- a.ns.(engine) + e;
    a.ns.(l) <- a.ns.(l) + (dt - e)
  end
  else a.ns.(l) <- a.ns.(l) + dt

let start ?queued a ~replicas ~counters ~pop_ns =
  a.queued <- queued;
  a.on <- true;
  a.replicas <- replicas;
  a.counters <- Some counters;
  a.delivered_seen <- counters.Dsim.Network.delivered;
  a.pop_ns <- pop_ns;
  a.cur <- driver;
  a.depth <- 0;
  a.last <- now_ns ()

let finish a = if a.on then charge a (now_ns ())

let boundary a =
  if a.on then begin
    charge a (now_ns ());
    Trace.clear a.trace;
    a.cur <- pending;
    a.head_open <- true;
    match a.queued with None -> () | Some q -> a.queued_at_head <- q ()
  end

let enter a layer =
  if a.on then begin
    charge a (now_ns ());
    a.stack.(a.depth) <- a.cur;
    a.depth <- a.depth + 1;
    a.cur <- layer
  end

let leave a =
  if a.on then begin
    charge a (now_ns ());
    a.depth <- a.depth - 1;
    a.cur <- a.stack.(a.depth)
  end

let describe a _msg =
  (match a.counters with
  | None -> ()
  | Some c ->
    if c.Dsim.Network.delivered <> a.delivered_seen then begin
      a.delivered_seen <- c.Dsim.Network.delivered;
      if a.head_open then a.cur <- network;
      charge a (now_ns ());
      Trace.clear a.trace;
      a.cur <- pending
    end
    else begin
      if a.cur >= 0 then a.sends.(a.cur) <- a.sends.(a.cur) + 1
      else a.pending_sends <- a.pending_sends + 1
    end);
  ""
