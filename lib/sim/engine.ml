module Fheap = Dsutil.Fheap
module Rng = Dsutil.Rng

(* The clock is Fheap's float-only record: its field is stored flat, the
   heap's pop writes the popped key straight into it and the push adds a
   delay to it in place, so virtual time never crosses a call as a float
   argument (a two-word box per crossing, in builds without flambda).  A
   float field of the mixed record below would box on every store. *)
type clock = Fheap.clock = { mutable now : float }

(* An event is (handler, meta, payload): closure events use the shared
   [run_closure] handler with the closure as payload, while hot callers
   (message delivery, per-op timeouts) keep ONE preallocated handler and
   thread per-event arguments through the int [meta] and the [payload]
   slot — no per-event closure. *)
type handler = { run : int -> Obj.t -> unit }

type t = {
  clock : clock;
  queue : (handler, Obj.t) Fheap.t;
  rng : Rng.t;
}

let run_closure = { run = (fun _ p -> (Obj.obj p : unit -> unit) ()) }
let dummy_handler = { run = (fun _ _ -> ()) }

let create ?(seed = 42) () =
  {
    clock = { now = 0.0 };
    queue = Fheap.create ~dummy_h:dummy_handler ~dummy_p:(Obj.repr 0);
    rng = Rng.create seed;
  }

let now t = t.clock.now
let clock t = t.clock
let rng t = t.rng

let schedule_at t ~time f =
  if time < t.clock.now then invalid_arg "Engine.schedule_at: time in the past";
  Fheap.push t.queue time run_closure 0 (Obj.repr f)

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  Fheap.push_after t.queue t.clock delay run_closure 0 (Obj.repr f)

let handler run = { run }

let schedule_packed t ~delay h ~meta ~payload =
  if delay < 0.0 then invalid_arg "Engine.schedule_packed: negative delay";
  Fheap.push_after t.queue t.clock delay h meta payload

let run_event h meta p = h.run meta p
let step t = Fheap.pop_run t.queue t.clock run_event

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    (* The bounded loop tests the head key in place ([Fheap.due]): a peek
       returning the key would box it once per event. *)
    while Fheap.due t.queue limit do
      ignore (step t)
    done;
    (* Advance the clock to the horizon so repeated bounded runs compose. *)
    if t.clock.now < limit && Fheap.is_empty t.queue then t.clock.now <- limit

let pending t = Fheap.length t.queue
