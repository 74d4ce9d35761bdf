module Metrics = Metrics
module Span = Span
module Sink = Sink

(* The automatic metrics, held by handle.  A handle is a [Lazy.t]: the
   name is built and hashed the first time the metric is touched, so the
   registry holds exactly the names a run used, and every later event is
   a plain field update. *)
type op_metrics = {
  op : string;
  started : Metrics.counter Lazy.t;
  ok : Metrics.counter Lazy.t;
  failed : Metrics.counter Lazy.t;
  retries : Metrics.counter Lazy.t;
  latency : Metrics.histogram Lazy.t;
}

type phase_metrics = {
  p_latency : Metrics.histogram Lazy.t;
  p_timeout : Metrics.counter Lazy.t;
}

type t = {
  mutable clock : unit -> float;
  m : Metrics.t;
  mutable sinks : Sink.t list;
  mutable next_span_id : int;
  mutable n_started : int;
  mutable n_closed : int;
  mutable ops : op_metrics list;  (* one per op name seen *)
  phases : phase_metrics array;  (* by {!Span.kind_code} *)
  backoff_wait : Metrics.histogram Lazy.t;
}

let create ?(clock = fun () -> 0.0) () =
  let m = Metrics.create () in
  let phase kind =
    let name what = "phase." ^ Span.phase_kind_name kind ^ "." ^ what in
    {
      p_latency = lazy (Metrics.histogram m (name "latency"));
      p_timeout = lazy (Metrics.counter m (name "timeout"));
    }
  in
  {
    clock;
    m;
    sinks = [];
    next_span_id = 0;
    n_started = 0;
    n_closed = 0;
    ops = [];
    phases = Array.map phase Span.[| Query; Prepare; Commit; Lock |];
    backoff_wait = lazy (Metrics.histogram m "backoff.wait");
  }

let set_clock t clock = t.clock <- clock
let now t = t.clock ()
let metrics t = t.m
let add_sink t sink = t.sinks <- t.sinks @ [ sink ]
let flush t = List.iter Sink.flush t.sinks

let rec find_op op = function
  | [] -> raise_notrace Not_found
  | o :: rest -> if o.op == op || String.equal o.op op then o else find_op op rest

let op_metrics t op =
  match find_op op t.ops with
  | o -> o
  | exception Not_found ->
    let name what = "ops." ^ op ^ "." ^ what in
    let o =
      {
        op;
        started = lazy (Metrics.counter t.m (name "started"));
        ok = lazy (Metrics.counter t.m (name "ok"));
        failed = lazy (Metrics.counter t.m (name "failed"));
        retries = lazy (Metrics.counter t.m (name "retries"));
        latency = lazy (Metrics.histogram t.m (name "latency"));
      }
    in
    t.ops <- o :: t.ops;
    o

let span t ~op ~site ?key () =
  let id = t.next_span_id in
  t.next_span_id <- id + 1;
  t.n_started <- t.n_started + 1;
  Metrics.incr (Lazy.force (op_metrics t op).started);
  Span.create ~id ~op ~site ?key ~started:(now t) ()

let set_result_ts _t sp ~version ~sid = Span.set_result_ts sp ~version ~sid

let close_phase t sp ~timed_out =
  let i = Span.open_phase sp in
  if i >= 0 then begin
    Span.close_phase sp i ~ended:(now t) ~timed_out;
    let pm = t.phases.(Span.kind_code (Span.phase_kind sp i)) in
    Metrics.observe (Lazy.force pm.p_latency) (Span.phase_latency sp i);
    if timed_out then Metrics.incr (Lazy.force pm.p_timeout)
  end

let phase_members t sp ~kind members len =
  close_phase t sp ~timed_out:false;
  Span.add_phase sp ~kind ~started:(now t) members len

let phase t sp ~kind ?(quorum = []) () =
  phase_members t sp ~kind (Array.of_list quorum) (List.length quorum)

let set_quorum _t sp quorum =
  Span.set_members sp (Array.of_list quorum) (List.length quorum)

let end_phase t sp ?(timed_out = false) () = close_phase t sp ~timed_out

let retry t sp ?(backoff = 0.0) () =
  close_phase t sp ~timed_out:true;
  Span.add_retry sp ~backoff;
  Metrics.incr (Lazy.force (op_metrics t (Span.op sp)).retries);
  Metrics.observe (Lazy.force t.backoff_wait) backoff

let finish t sp ~outcome =
  if not (Span.closed sp) then begin
    close_phase t sp ~timed_out:false;
    let ended = now t in
    Span.close sp ~ended ~outcome;
    t.n_closed <- t.n_closed + 1;
    let om = op_metrics t (Span.op sp) in
    (match outcome with
    | Span.Ok -> Metrics.incr (Lazy.force om.ok)
    | Span.Failed _ -> Metrics.incr (Lazy.force om.failed));
    Metrics.observe (Lazy.force om.latency) (ended -. Span.started sp);
    List.iter (fun s -> Sink.emit s sp) t.sinks
  end

let spans_started t = t.n_started
let spans_open t = t.n_started - t.n_closed
let spans_closed t = t.n_closed
