module Engine = Dsim.Engine
module Network = Dsim.Network
module Protocol = Quorum.Protocol

type config = {
  timeout : float;
  max_retries : int;
  adaptive_timeout : bool;
  deadline : float;
  backoff : Detect.Backoff.policy;
  rto : Detect.Rto.config;
}

let default_config =
  {
    timeout = 25.0;
    max_retries = 4;
    adaptive_timeout = false;
    deadline = Float.infinity;
    backoff = Detect.Backoff.default;
    rto = Detect.Rto.default_config;
  }

type phase = Query | Prepare | Commit | Staged

(* A round's times live in a float-only record, stored flat: as fields of
   the mixed round record below, every store would box a fresh float. *)
type times = { mutable started : float; mutable phase_started : float }

module Pending = Hashtbl.Make (Int)

let phase_code = function Query -> 0 | Prepare -> 1 | Commit -> 2 | Staged -> 3

(* A finished round goes back to the pool and is re-initialized in place:
   a steady stream of operations allocates no round at all.  [q] holds the
   members of the current phase, with replied members overwritten by -1
   (so "waiting" is the >= 0 entries, in original send order, and a reply
   is matched by a linear scan — no list filtering, no allocation).
   [w]/[winc] hold the 2PC member set and the incarnation each member
   acked its prepare under; during the commit phase [q.(i)] is [w.(i)] or
   -1, so indexes line up. *)
type 'k round = {
  mutable op : int;
  mutable kind : 'k;
  mutable last : phase;
  mutable phase : phase;
  mutable attempts : int;
  at : times;
  mutable n : int;
  mutable keys : int array;
  mutable ver : int array;
  mutable sid : int array;
  mutable vals : string array;
  mutable spans : Obs.Span.t option array;
  q : int array;
  mutable n_q : int;
  mutable waiting_n : int;
  w : int array;
  mutable n_w : int;
  winc : int array;
  mutable replies : (int * int * int * int) list;
}

type 'k t = {
  site : int;
  net : Message.t Network.t;
  clock : Engine.clock;
  mutable proto : Protocol.t;
  n_replicas : int;
  config : config;
  obs : Obs.t option;
  view : Detect.View.t;
  budget : Detect.Budget.t option;
  breaker : Detect.Breaker.t option;
  rto : Detect.Rto.t;
  rng : Dsutil.Rng.t;
  mutable levels : Protocol.level_plan option;
  record_replies : bool;
  dummy_kind : 'k;
  mutable on_query : 'k round -> unit;
  mutable finished : 'k round -> bool -> unit;
  mutable next_seq : int;
  pending : 'k round Pending.t;
  mutable free : 'k round list;  (* pooled rounds *)
  incs : int array;
  mutable handler : Engine.handler;
  mutable retries : int;
  mutable deadline_exceeded : int;
  mutable busy_received : int;
  mutable retries_suppressed : int;
  mutable stale_inc_rejections : int;
  mutable breaker_trips : int;
}

let engine t = Network.engine t.net
let now t = t.clock.now

(* The believed-alive replica view comes from the pluggable detector; the
   circuit breaker filters it: an Open site is alive but drowning, and
   quorum assembly must route around it. *)
let current_view t =
  let view = t.view.Detect.View.alive () in
  match t.breaker with
  | None -> view
  | Some b -> Detect.Breaker.filter b view

let phase_timeout t =
  if t.config.adaptive_timeout then Detect.Rto.timeout t.rto
  else t.config.timeout

let send t ~dst msg = Network.send t.net ~src:t.site ~dst msg

(* --- round pool ---------------------------------------------------------- *)

(* op id of a pooled (released) round; doubles as the double-release guard. *)
let released = min_int

let make_round ~kind ~n_replicas ~cap =
  let m = max n_replicas 1 in
  {
    op = released;
    kind;
    last = Query;
    phase = Query;
    attempts = 0;
    at = { started = 0.0; phase_started = 0.0 };
    n = 0;
    keys = Array.make cap 0;
    ver = Array.make cap 0;
    sid = Array.make cap 0;
    vals = Array.make cap "";
    spans = Array.make cap None;
    q = Array.make m (-1);
    n_q = 0;
    waiting_n = 0;
    w = Array.make m 0;
    n_w = 0;
    winc = Array.make m 0;
    replies = [];
  }

let alloc t ~kind ~n ~last =
  let r =
    match t.free with
    | r :: rest when Array.length r.keys >= n ->
      t.free <- rest;
      r
    | rest ->
      (* Too small for this batch: drop it, so the pool converges on rounds
         as wide as the widest batch. *)
      t.free <- (match rest with [] -> [] | _ :: rest -> rest);
      make_round ~kind ~n_replicas:t.n_replicas ~cap:n
  in
  r.op <- -1;  (* taken from the pool, not yet started *)
  r.kind <- kind;
  r.last <- last;
  r.attempts <- 0;
  r.at.started <- now t;
  r.n <- n;
  r

(* Only safe once nothing can reach [r] again: it must already be out of
   [t.pending] (stale timeout events look rounds up there and drop misses),
   and the caller must not touch it after this returns. *)
let release t r =
  if r.op <> released then begin
    r.op <- released;
    r.kind <- t.dummy_kind;
    Array.fill r.vals 0 r.n "";
    Array.fill r.spans 0 r.n None;
    r.replies <- [];
    t.free <- r :: t.free
  end

(* --- observability hooks (single match, no work, when [obs = None]).
   Spans live per key slot, so a batch that names a key twice still opens
   and closes one span per entry. *)

let ospan t ~op ~key =
  match t.obs with
  | None -> None
  | Some obs -> Some (Obs.span obs ~op ~site:t.site ~key ())

type mark = Phase of Obs.Span.phase_kind | End of bool | Retry of float

let omark t r mark =
  match t.obs with
  | None -> ()
  | Some obs ->
    for i = 0 to r.n - 1 do
      match (r.spans.(i), mark) with
      | Some sp, Phase kind -> Obs.phase_members obs sp ~kind r.q r.n_q
      | Some sp, End timed_out -> Obs.end_phase obs sp ~timed_out ()
      | Some sp, Retry backoff -> Obs.retry obs sp ~backoff ()
      | None, _ -> ()
    done

let ofinish t span ~ok ~version ~sid =
  match (t.obs, span) with
  | Some obs, Some sp ->
    if ok then begin
      Obs.set_result_ts obs sp ~version ~sid;
      Obs.finish obs sp ~outcome:Obs.Span.Ok
    end
    else Obs.finish obs sp ~outcome:(Obs.Span.Failed "gave_up")
  | _ -> ()

(* Overload evidence is charged to the breaker separately from the
   liveness view: a Busy nack rehabilitates the site in the detector
   (it answered — it is alive) while still counting against it here. *)
let breaker_failure t site =
  match t.breaker with
  | None -> ()
  | Some b ->
    if Detect.Breaker.record_failure b site then
      t.breaker_trips <- t.breaker_trips + 1

let breaker_ok t site =
  match t.breaker with None -> () | Some b -> Detect.Breaker.record_ok b site

(* Every *first-attempt* operation entry deposits into the shared retry
   budget: the more first-attempt traffic flows, the more retries the
   budget affords.  Caller-level re-issues must not deposit — otherwise a
   retry storm refills its own bucket. *)
let budget_attempt t =
  match t.budget with None -> () | Some b -> Detect.Budget.on_attempt b

(* --- the round state machine --------------------------------------------- *)

(* Suspect (and optionally charge the breaker for) every member still
   waiting in the current phase. *)
let blame_waiting t r ~charge_breaker =
  for i = 0 to r.n_q - 1 do
    let m = r.q.(i) in
    if m >= 0 then begin
      t.view.Detect.View.suspect m;
      if charge_breaker then breaker_failure t m
    end
  done

let arm t r =
  (* The handler captures only [t]; the op id and armed phase travel in the
     event's int slot, and the fire-time check drops events whose round
     finished or moved on — arming a fixed timeout allocates nothing
     (an adaptive one is a fresh float box). *)
  Engine.schedule_packed (engine t) ~delay:(phase_timeout t) t.handler
    ~meta:((r.op lsl 2) lor phase_code r.phase)
    ~payload:(Obj.repr 0)

(* One envelope to every member of the phase: a 1-key round sends the
   singleton message, a multi-key round one coalesced envelope per member
   (one message, one service-queue slot, [n] logical operations). *)
let fan_out t r msg =
  for i = 0 to r.n_q - 1 do
    if r.n = 1 then send t ~dst:r.q.(i) msg
    else Network.send t.net ~units:r.n ~src:t.site ~dst:r.q.(i) msg
  done

let query_msg r =
  if r.n = 1 then Message.Read_request { op = r.op; key = r.keys.(0) }
  else
    Message.Read_batch
      { op = r.op; n_keys = r.n; keys = Array.sub r.keys 0 r.n }

let prepare_msg r =
  if r.n = 1 then
    Message.Prepare
      {
        op = r.op;
        key = r.keys.(0);
        version = r.ver.(0);
        sid = r.sid.(0);
        value = r.vals.(0);
      }
  else
    let sub a = Array.sub a 0 r.n in
    let writes =
      Batch.make ~keys:(sub r.keys) ~versions:(sub r.ver) ~sids:(sub r.sid)
        ~values:(sub r.vals)
    in
    Message.Prepare_batch { op = r.op; writes }

(* Commit to the members still waiting: every [w] member on entry, the
   laggards on a resend ([q.(i)] is [w.(i)] or -1). *)
let send_commits t r =
  omark t r (Phase Obs.Span.Commit);
  arm t r;
  for i = 0 to r.n_q - 1 do
    let m = r.q.(i) in
    if m >= 0 then
      send t ~dst:m (Message.Commit { op = r.op; inc = r.winc.(i) })
  done

let finish t r ok =
  Pending.remove t.pending r.op;
  t.finished r ok;
  (* Pool the round only after the completion callback has run: anything
     it started took a different round, and nothing reaches this one
     anymore. *)
  release t r

(* A new attempt: fresh op id, then the round's first phase.  Retries
   restart here, so a read or a coordinator write re-queries while a
   prepare-only round (its timestamp forced by the client) re-prepares.
   The phase is reset on every attempt: a pooled round still carries the
   phase its last use ended in, and a stale [Commit] would send a failed
   prepare assembly down the commit-resend path, stranding the round. *)
let rec start t r =
  r.op <- (t.next_seq * Network.size t.net) + t.site;
  t.next_seq <- t.next_seq + 1;
  Pending.replace t.pending r.op r;
  r.phase <- Query;
  r.at.phase_started <- now t;
  r.n_q <- 0;
  r.waiting_n <- 0;
  r.n_w <- 0;
  if r.last = Prepare then prepare t r
  else begin
    Array.fill r.ver 0 r.n 0;
    Array.fill r.sid 0 r.n 0;
    Array.fill r.vals 0 r.n "";
    r.replies <- [];
    let view = current_view t in
    match t.levels with
    | Some lp when r.n = 1 && r.last = Query -> pipelined t r ~view lp
    | _ -> (
      match Protocol.read_quorum t.proto ~alive:view ~rng:t.rng with
      | None -> retry t r
      | Some quorum ->
        let n = Dsutil.Bitset.fill_elements quorum r.q in
        r.n_q <- n;
        r.waiting_n <- n;
        omark t r (Phase Obs.Span.Query);
        arm t r;
        fan_out t r (query_msg r))
  end

(* Tree-level pipelined read (opt-in): stream the quorum instead of
   materializing it — each level's request leaves the moment that level's
   member resolves from the plan cache, rather than after every level has
   been walked and the whole quorum bitset built.  Selection consumes the
   RNG exactly as whole-quorum assembly would (see
   {!Quorum.Protocol.level_plan}); what changes is dispatch order (level
   order rather than ascending site id).  A level with no alive candidate
   behaves like failed quorum assembly — the attempt retries, and replies
   to the already-issued requests are dropped as stale. *)
and pipelined t r ~view (lp : Protocol.level_plan) =
  arm t r;
  let msg = query_msg r in
  let rec issue level =
    if level = lp.n_levels then true
    else begin
      let m = lp.level_site ~alive:view ~rng:t.rng ~level in
      if m < 0 then false
      else begin
        r.q.(r.n_q) <- m;
        r.n_q <- r.n_q + 1;
        r.waiting_n <- r.waiting_n + 1;
        send t ~dst:m msg;
        issue (level + 1)
      end
    end
  in
  if issue 0 then omark t r (Phase Obs.Span.Query)
  else begin
    (* Assembly failed mid-stream: the members already contacted are not
       at fault — drop them from the phase before the retry machinery
       assigns blame. *)
    r.n_q <- 0;
    r.waiting_n <- 0;
    retry t r
  end

and prepare t r =
  match Protocol.write_quorum t.proto ~alive:(current_view t) ~rng:t.rng with
  | None -> retry t r
  | Some quorum ->
    let n = Dsutil.Bitset.fill_elements quorum r.w in
    r.n_w <- n;
    Array.blit r.w 0 r.q 0 n;
    Array.fill r.winc 0 n 0;
    r.n_q <- n;
    r.waiting_n <- n;
    r.phase <- Prepare;
    r.at.phase_started <- now t;
    omark t r (Phase Obs.Span.Prepare);
    arm t r;
    fan_out t r (prepare_msg r)

(* A phase failed: it timed out, a member refused or shed it, or no quorum
   could be assembled. *)
and retry ?(timed_out = false) t r =
  (* Roll back any prepared members of this attempt — a prepare-only round
     too, or the members that staged stay staged forever. *)
  if r.phase = Prepare then abort t r;
  (* The members that never answered are negative evidence for the
     detector (the oracle view ignores it).  A timeout is also overload
     evidence: every still-waiting member sat on the request past the
     deadline. *)
  blame_waiting t r ~charge_breaker:timed_out;
  if r.attempts >= t.config.max_retries then begin
    omark t r (End timed_out);
    finish t r false
  end
  else if r.phase = Commit then begin
    (* The decision is already commit; resend to the laggards instead of
       aborting, and give up (uncertain outcome, counted failed) only after
       the retry budget.  Commit resends are exempt from the global retry
       budget: they are narrow (laggards only), bounded by [max_retries],
       and giving up early here turns overload into stuck prepared writes. *)
    t.retries <- t.retries + 1;
    omark t r (Retry 0.0);
    r.attempts <- r.attempts + 1;
    send_commits t r
  end
  else begin
    Pending.remove t.pending r.op;
    omark t r (End timed_out);
    (* Exponential backoff with jitter before re-assembling: an instant
       retry against the same failed view (e.g. during a partition) would
       burn the whole budget in one instant of virtual time, and a fixed
       pause keeps hammering a dead quorum in lockstep. *)
    let delay =
      Detect.Backoff.delay t.config.backoff ~rng:t.rng ~attempt:r.attempts
    in
    if now t +. delay >= r.at.started +. t.config.deadline then begin
      t.deadline_exceeded <- t.deadline_exceeded + 1;
      finish t r false
    end
    else if
      not
        (match t.budget with
        | None -> true
        | Some b -> Detect.Budget.try_retry b)
    then begin
      (* The global retry budget is drained: retrying now would feed the
         storm that drained it.  Fail fast. *)
      t.retries_suppressed <- t.retries_suppressed + 1;
      finish t r false
    end
    else begin
      t.retries <- t.retries + 1;
      omark t r (Retry delay);
      r.attempts <- r.attempts + 1;
      Engine.schedule_packed (engine t) ~delay t.handler ~meta:(-1)
        ~payload:(Obj.repr r)
    end
  end

and abort t r =
  let msg = Message.Abort { op = r.op } in
  for i = 0 to r.n_w - 1 do
    send t ~dst:r.w.(i) msg
  done

let commit t r =
  r.phase <- Commit;
  r.at.phase_started <- now t;
  Array.blit r.w 0 r.q 0 r.n_w;
  r.n_q <- r.n_w;
  r.waiting_n <- r.n_w;
  send_commits t r

let queried t r =
  omark t r (End false);
  t.on_query r;
  if r.last = Query then finish t r true else prepare t r

let prepared t r =
  if r.last = Prepare then begin
    (* A prepare-only round parks, staged, under its op id until the client
       commits or aborts it; replies to a parked round are ignored. *)
    r.phase <- Staged;
    omark t r (End false);
    t.finished r true
  end
  else commit t r

(* The round parked under [op] by a successful prepare-only round. *)
let staged t ~op =
  match Pending.find t.pending op with
  | r when r.phase = Staged -> r
  | _ | (exception Not_found) ->
    invalid_arg "Round.staged: nothing staged under op"

let discard t r =
  Pending.remove t.pending r.op;
  release t r

(* Index of [src] among the members still waiting in this phase, or -1.
   While preparing and committing [q.(i)] is [w.(i)], so the index also
   finds the member's prepare incarnation in [winc]. *)
let rec waiting_slot r ~src i =
  if i = r.n_q then -1
  else if r.q.(i) = src then i
  else waiting_slot r ~src (i + 1)

(* A waiting member answered: good breaker evidence, and an RTT sample
   when the timeout adapts (the only reader of the samples). *)
let reply_received t r i ~src =
  if i >= 0 then begin
    r.q.(i) <- -1;
    r.waiting_n <- r.waiting_n - 1;
    if t.config.adaptive_timeout then
      Detect.Rto.observe t.rto (now t -. r.at.phase_started);
    breaker_ok t src
  end

let note_read t r ~src ~slot ~version ~sid ~value =
  if t.record_replies then r.replies <- (src, slot, version, sid) :: r.replies;
  if Timestamp.newer_flat version sid r.ver.(slot) r.sid.(slot) then begin
    r.ver.(slot) <- version;
    r.sid.(slot) <- sid;
    r.vals.(slot) <- value
  end

(* A reply stamped with an incarnation older than the newest one seen from
   its sender is evidence from a pre-crash life: the state it vouches for
   was (possibly) lost, so it must not complete a quorum.  Returns whether
   the message should be dropped.  Messages that carry no incarnation
   ([-1]) always pass. *)
let stale_incarnation t ~src msg =
  let inc = Message.incarnation msg in
  let newest = t.incs.(src) in
  if inc > newest then t.incs.(src) <- inc;
  if inc >= 0 && inc < newest then begin
    t.stale_inc_rejections <- t.stale_inc_rejections + 1;
    true
  end
  else false

let on_reply t r ~src (msg : Message.t) =
  let i = waiting_slot r ~src 0 in
  match (msg, r.phase) with
  | Read_reply { version; sid; value; _ }, Query ->
    reply_received t r i ~src;
    note_read t r ~src ~slot:0 ~version ~sid ~value;
    if r.waiting_n = 0 then queried t r
  | Read_batch_reply { entries; _ }, Query ->
    (* Entry [i] answers key slot [i]: the replica replies in request
       order, duplicates included. *)
    reply_received t r i ~src;
    for slot = 0 to min r.n (Batch.length entries) - 1 do
      note_read t r ~src ~slot ~version:(Batch.version entries slot)
        ~sid:(Batch.sid entries slot) ~value:(Batch.value entries slot)
    done;
    if r.waiting_n = 0 then queried t r
  | Prepare_ack { inc; _ }, Prepare ->
    if i >= 0 then r.winc.(i) <- inc;
    reply_received t r i ~src;
    if r.waiting_n = 0 then prepared t r
  | Prepare_nack _, (Query | Prepare) ->
    (* Refusal: a queried or prepared member cannot take part (it is
       recovering, or our commit raced its crash).  Re-assemble. *)
    retry t r
  | Busy _, (Query | Prepare) ->
    (* The replica shed us: alive (the nack itself rehabilitated it in
       the detector) but drowning.  Charge the breaker and re-assemble
       elsewhere — the retry path's backoff and budget apply. *)
    t.busy_received <- t.busy_received + 1;
    breaker_failure t src;
    retry t r
  | Prepare_nack _, Commit ->
    (* The decision was commit but this member lost its stage to a crash;
       the outcome is uncertain (other members did commit), so count the
       round failed rather than resend forever. *)
    omark t r (End false);
    finish t r false
  | Commit_ack { inc; _ }, Commit when i >= 0 && inc = r.winc.(i) ->
    reply_received t r i ~src;
    if r.waiting_n = 0 then finish t r true
  | _ ->
    (* Out-of-phase, parked or replica-bound: ignore.  A committing round
       ignores [Busy] in particular — commits ride the priority lane, so a
       stray Busy must not fail a decided transaction. *)
    ()

let handle t ~src msg =
  (* Any message is proof of life: rehabilitate its sender (replicas only:
     detector views cover the replica universe, not client sites). *)
  if src >= 0 && src < t.n_replicas then t.view.Detect.View.observe src;
  if not (stale_incarnation t ~src msg) then
    match Pending.find t.pending (Message.op_id msg) with
    | r -> on_reply t r ~src msg
    | exception Not_found -> ()

let on_timeout t meta =
  match Pending.find t.pending (meta lsr 2) with
  | exception Not_found -> ()
  | r ->
    if phase_code r.phase = meta land 3 && r.waiting_n > 0 then
      retry ~timed_out:true t r

let create ~site ~net ~proto ~prefix ~config ~view ?budget ?breaker ?obs
    ~dummy_kind ~record_replies () =
  let n_replicas = Protocol.universe_size proto in
  let t =
    {
      site;
      net;
      clock = Engine.clock (Network.engine net);
      proto;
      n_replicas;
      config;
      obs;
      view;
      budget;
      breaker;
      rto = Detect.Rto.create ~config:config.rto ();
      rng = Dsutil.Rng.split (Engine.rng (Network.engine net));
      levels = None;
      record_replies;
      dummy_kind;
      on_query = ignore;
      finished = (fun _ _ -> ());
      next_seq = 0;
      pending = Pending.create 16;
      free = [];
      incs = Array.make (Network.size net) 0;
      handler = Engine.handler (fun _ _ -> ());
      retries = 0;
      deadline_exceeded = 0;
      busy_received = 0;
      retries_suppressed = 0;
      stale_inc_rejections = 0;
      breaker_trips = 0;
    }
  in
  (* The endpoint's counter source, under [prefix]: each count is
     reported once nonzero. *)
  (match obs with
  | None -> ()
  | Some o ->
    Obs.Metrics.source (Obs.metrics o) (fun report ->
        let c suffix v = if v > 0 then report (prefix ^ suffix) v in
        c ".busy_received" t.busy_received;
        c ".stale_inc.rejected" t.stale_inc_rejections;
        c ".deadline_exceeded" t.deadline_exceeded;
        c ".retries_suppressed" t.retries_suppressed;
        c ".breaker.trips" t.breaker_trips));
  (* One packed handler for both timers: a backoff restart carries its round
     (meta -1), a phase timeout its op id and armed phase. *)
  t.handler <-
    Engine.handler (fun meta r ->
        if meta < 0 then start t (Obj.obj r) else on_timeout t meta);
  Network.set_handler net ~site (fun ~src msg -> handle t ~src msg);
  t
