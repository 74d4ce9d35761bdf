(* Micro-benchmarks of public functions, one per layer.  Each reports the
   median ns per call over [rounds] timed batches; the attribution costs a
   layer that no hook brackets as its counted calls times this figure. *)

open Replication
module Rng = Dsutil.Rng
module Fheap = Dsutil.Fheap
module Bitset = Dsutil.Bitset
module Engine = Dsim.Engine
module Network = Dsim.Network

let rounds = 7

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* [batch ()] runs [iters] calls and returns their ns; [reset] runs untimed
   between batches. *)
let measure ?(reset = ignore) ~iters batch =
  reset ();
  ignore (batch ());
  median
    (Array.init rounds (fun _ ->
         reset ();
         float_of_int (batch ()) /. float_of_int iters))

let timed iters f =
  let t0 = Acct.now_ns () in
  for i = 0 to iters - 1 do
    f i
  done;
  Acct.now_ns () - t0

type t = (string * float) list

let fheap ~size =
  let iters = 20_000 in
  let h = Fheap.create ~dummy_h:() ~dummy_p:0 in
  let rng = Rng.create 7 in
  let base = ref 0.0 in
  let fill () =
    Fheap.clear h;
    base := 0.0;
    for _ = 1 to size do
      Fheap.push h (Rng.float rng 10.0) () 0 0
    done
  in
  let noop _ () _ _ = () in
  let pair =
    measure ~reset:fill ~iters (fun () ->
        timed iters (fun _ ->
            base := !base +. 0.01;
            Fheap.push h (!base +. Rng.float rng 10.0) () 0 0;
            ignore (Fheap.pop_apply h noop)))
  in
  let push =
    measure ~reset:fill ~iters (fun () ->
        timed iters (fun _ ->
            base := !base +. 0.01;
            Fheap.push h (!base +. Rng.float rng 10.0) () 0 0))
  in
  let draw = measure ~iters (fun () -> timed iters (fun _ -> ignore (Rng.float rng 10.0))) in
  (* The draws that place the keys are the RNG's, not the heap's. *)
  let push = Float.max 0.0 (push -. draw) in
  let pair = Float.max 0.0 (pair -. draw) in
  [ ("fheap.push", push); ("fheap.pop_apply", Float.max 0.0 (pair -. push)) ]

let rng () =
  let iters = 50_000 in
  let r = Rng.create 11 in
  [
    ("rng.float", measure ~iters (fun () -> timed iters (fun _ -> ignore (Rng.float r 1.0))));
    ("rng.int", measure ~iters (fun () -> timed iters (fun _ -> ignore (Rng.int r 1000))));
  ]

let plan_cache proto =
  let iters = 5_000 in
  let rng = Rng.create 13 in
  let all = Quorum.Protocol.all_alive proto in
  let one_down = Bitset.copy all in
  Bitset.remove one_down 0;
  let q f alive =
    measure ~iters (fun () -> timed iters (fun _ -> ignore (f proto ~alive ~rng)))
  in
  [
    ("plan_cache.read_quorum", q Quorum.Protocol.read_quorum all);
    ("plan_cache.write_quorum", q Quorum.Protocol.write_quorum all);
    ("plan_cache.read_quorum.one_down", q Quorum.Protocol.read_quorum one_down);
    ("plan_cache.write_quorum.one_down", q Quorum.Protocol.write_quorum one_down);
  ]

let store () =
  let iters = 4_096 in
  let s = Store.create () in
  let version = ref 0 in
  let ts () =
    incr version;
    Timestamp.make ~version:!version ~sid:1
  in
  let value = "v" in
  let install =
    measure ~iters (fun () ->
        timed iters (fun i -> ignore (Store.install s ~key:i ~ts:(ts ()) ~value)))
  in
  let read = measure ~iters (fun () -> timed iters (fun i -> ignore (Store.read s ~key:i))) in
  let stage =
    measure ~iters (fun () ->
        timed iters (fun i -> Store.stage s ~op:i ~key:i ~ts:(ts ()) ~value))
  in
  let commit =
    measure
      ~reset:(fun () ->
        for i = 0 to iters - 1 do
          Store.stage s ~op:i ~key:i ~ts:(ts ()) ~value
        done)
      ~iters
      (fun () -> timed iters (fun i -> ignore (Store.commit_staged s ~op:i)))
  in
  [
    ("store.install", install);
    ("store.read", read);
    ("store.stage", stage);
    ("store.commit_staged", commit);
  ]

let wal ~batch =
  let iters = 2_000 in
  let w = ref (Wal.create ~now:(fun () -> 0.0) ()) in
  let fresh () = w := Wal.create ~now:(fun () -> 0.0) () in
  let ts = Timestamp.make ~version:1 ~sid:1 in
  let record i = Wal.Commit { op = i; key = i; ts; value = "v" } in
  let append =
    measure ~reset:fresh ~iters (fun () -> timed iters (fun i -> Wal.append !w (record i)))
  in
  let records = List.init batch record in
  let per_batch =
    measure ~reset:fresh ~iters:(iters / batch) (fun () ->
        timed (iters / batch) (fun _ -> Wal.append_batch !w records))
  in
  [
    ("wal.append", append);
    ("wal.append_batch.per_record", per_batch /. float_of_int batch);
  ]

(* One message: [Network.send] followed by the [Engine.step]s that deliver
   it to a no-op handler; and the send alone (delivery drained untimed). *)
let network () =
  let iters = 5_000 in
  let path ~service =
    let engine = Engine.create ~seed:3 () in
    let net = Network.create ~engine ~n:2 () in
    Network.set_handler net ~site:1 (fun ~src:_ () -> ());
    if service then Network.set_service net ~site:1 ~capacity:0 ~service_time:0.0 ();
    let drain () = while Engine.step engine do () done in
    let round_trip =
      measure ~iters (fun () ->
          timed iters (fun _ ->
              Network.send net ~src:0 ~dst:1 ();
              drain ()))
    in
    let send_only =
      measure ~reset:drain ~iters (fun () ->
          timed iters (fun _ -> Network.send net ~src:0 ~dst:1 ()))
    in
    drain ();
    (round_trip, send_only)
  in
  let plain, send = path ~service:false in
  let queued, _ = path ~service:true in
  [
    ("network.send_deliver", plain);
    ("network.send_deliver.service", queued);
    ("network.send", send);
  ]

let lock_manager () =
  let iters = 5_000 in
  let engine = Engine.create ~seed:5 () in
  let lm = Lock_manager.create ~engine in
  let granted () = () in
  [
    ( "lock_manager.acquire_release",
      measure ~iters (fun () ->
          timed iters (fun i ->
              let key = i land 1023 in
              Lock_manager.acquire lm ~key ~mode:Lock_manager.Exclusive ~owner:1 granted;
              ignore (Engine.step engine);
              Lock_manager.release lm ~key ~owner:1)) );
  ]

let obs () =
  let iters = 2_000 in
  let o = ref (Obs.create ()) in
  let fresh () =
    let x = Obs.create () in
    Obs.add_sink x (Obs.Sink.memory_sink (Obs.Sink.memory ()));
    o := x
  in
  [
    ( "obs.span",
      measure ~reset:fresh ~iters (fun () ->
          timed iters (fun i ->
              let sp = Obs.span !o ~op:"read" ~site:1 ~key:i () in
              Obs.phase !o sp ~kind:Obs.Span.Query ();
              Obs.finish !o sp ~outcome:Obs.Span.Ok)) );
  ]

let all ~proto ~heap_size ~wal_batch =
  List.concat
    [
      fheap ~size:heap_size;
      rng ();
      plan_cache proto;
      store ();
      wal ~batch:wal_batch;
      network ();
      lock_manager ();
      obs ();
    ]

let get (t : t) name = try List.assoc name t with Not_found -> 0.0
