module Protocol = Quorum.Protocol

type config = Round.config = {
  timeout : float;
  max_retries : int;
  adaptive_timeout : bool;
  deadline : float;
  backoff : Detect.Backoff.policy;
  rto : Detect.Rto.config;
}

let default_config = Round.default_config

(* What a round means to the endpoint: each phase primitive is a round
   over one key, so a write is three rounds (query, prepare, commit). *)
type kind =
  | Query_k of ((Timestamp.t * string) option -> unit)
  | Prepare_k of (int option -> unit)
  | Commit_k of (bool -> unit)

type t = kind Round.t

let site (t : t) = t.site
let protocol (t : t) = t.proto
let view (t : t) = t.view
let current_view = Round.current_view
let observed_timeout = Round.phase_timeout
let stale_incarnation_rejections (t : t) = t.stale_inc_rejections
let busy_received (t : t) = t.busy_received
let retries_suppressed (t : t) = t.retries_suppressed

let set_protocol (t : t) proto =
  if Protocol.universe_size proto <> t.n_replicas then
    invalid_arg "Quorum_rpc.set_protocol: replica universe changed";
  t.proto <- proto

let finished (r : kind Round.round) ok =
  match r.kind with
  | Query_k k ->
    k
      (if ok then
         Some (Timestamp.make ~version:r.ver.(0) ~sid:r.sid.(0), r.vals.(0))
       else None)
  | Prepare_k k -> k (if ok then Some r.op else None)
  | Commit_k k -> k ok

let create ~site ~net ~proto ?view ?budget ?breaker ?obs
    ?(config = default_config) () =
  let view =
    match view with
    | Some v -> v
    | None ->
      Detect.View.oracle ~net ~self:site ~n:(Protocol.universe_size proto)
  in
  let t =
    Round.create ~site ~net ~proto ~prefix:"rpc" ~config ~view ?budget ?breaker
      ?obs ~dummy_kind:(Commit_k ignore) ~record_replies:false ()
  in
  t.finished <- finished;
  t

(* Spans are threaded explicitly: [write] owns one span whose phases cover
   its version query, prepare and commit rounds; the public phase
   primitives run span-less unless a caller supplies one. *)
let round t ~span ~key ~last kind =
  let r = Round.alloc t ~kind ~n:1 ~last in
  r.keys.(0) <- key;
  r.spans.(0) <- span;
  r

let query_sp t ~span ~key k =
  Round.start t (round t ~span ~key ~last:Query (Query_k k))

let finish_span t span (r : Timestamp.t option) =
  match r with
  | Some ts -> Round.ofinish t span ~ok:true ~version:ts.version ~sid:ts.sid
  | None -> Round.ofinish t span ~ok:false ~version:0 ~sid:0

let query t ?(retry = false) ~key k =
  if not retry then Round.budget_attempt t;
  let span = Round.ospan t ~op:"rpc.read" ~key in
  query_sp t ~span ~key (fun r ->
      finish_span t span (Option.map fst r);
      k r)

(* A prepare-only round with a forced timestamp: retries re-prepare (after
   rolling back the members that staged) instead of re-querying. *)
let prepare_sp t ~span ~key ~(ts : Timestamp.t) ~value k =
  let r = round t ~span ~key ~last:Prepare (Prepare_k k) in
  r.ver.(0) <- ts.version;
  r.sid.(0) <- ts.sid;
  r.vals.(0) <- value;
  Round.start t r

let prepare t ~key ~ts ~value k = prepare_sp t ~span:None ~key ~ts ~value k

(* Commit re-arms the parked prepare round: its write quorum and the
   incarnations each member acked under drive the commit fencing. *)
let commit_staged_sp t ~span ~op k =
  let r = Round.staged t ~op in
  r.kind <- Commit_k k;
  r.attempts <- 0;
  r.spans.(0) <- span;
  Round.commit t r

let commit_staged t ~op k = commit_staged_sp t ~span:None ~op k

let abort_staged t ~op =
  let r = Round.staged t ~op in
  Round.abort t r;
  Round.discard t r

let write t ?(retry = false) ~key ?ts ~value k =
  if not retry then Round.budget_attempt t;
  let span = Round.ospan t ~op:"rpc.write" ~key in
  let finishk r =
    finish_span t span r;
    k r
  in
  let do_write ts =
    prepare_sp t ~span ~key ~ts ~value (function
      | None -> finishk None
      | Some op ->
        commit_staged_sp t ~span ~op (fun ok ->
            finishk (if ok then Some ts else None)))
  in
  match ts with
  | Some ts -> do_write ts
  | None ->
    query_sp t ~span ~key (function
      | None -> finishk None
      | Some (current, _) ->
        do_write (Timestamp.make ~version:(current.version + 1) ~sid:t.site))
