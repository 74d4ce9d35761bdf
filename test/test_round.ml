(* The shared quorum-round engine behind Coordinator and Quorum_rpc: staged
   writes are rolled back on every retry, spans live per key slot, batched
   reads repair, and every entry point quiesces — one callback, no open
   span, no staged entry left at a live replica. *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Coordinator = Replication.Coordinator
module Quorum_rpc = Replication.Quorum_rpc
module Replica = Replication.Replica
module Store = Replication.Store
module Timestamp = Replication.Timestamp

type world = {
  engine : Engine.t;
  net : Replication.Message.t Network.t;
  replicas : Replica.t array;
  obs : Obs.t;
  coord : Coordinator.t;
  rpc : Quorum_rpc.t;
}

(* Replicas [0, n), the coordinator on [n], the RPC endpoint on [n + 1].
   [~always_up] pins quorum assembly to the full universe, so crashed
   members stay in quorums and rounds time out and retry. *)
let world ?(spec = "2-2") ?(seed = 1) ?(crashed = []) ?(always_up = false)
    ?(config = Coordinator.default_config) () =
  let tree = Arbitrary.Tree.of_spec spec in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n:(n + 2) () in
  let replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let obs = Obs.create ~clock:(fun () -> Engine.now engine) () in
  let view = if always_up then Some (Detect.View.always_up ~n) else None in
  let coord = Coordinator.create ~site:n ~net ~proto ?view ~obs ~config () in
  let rpc = Quorum_rpc.create ~site:(n + 1) ~net ~proto ?view ~obs () in
  List.iter (Network.crash net) crashed;
  { engine; net; replicas; obs; coord; rpc }

(* Staged (prepared, undecided) entries held by replicas that are up. *)
let live_staged w =
  let total = ref 0 in
  Array.iteri
    (fun site r ->
      if Network.is_up w.net site then
        total := !total + Store.staged_count (Replica.store r))
    w.replicas;
  !total

(* Regression: a prepare retry re-assembled without aborting the members
   that had already staged, so they kept the write staged forever. *)
let test_prepare_retry_aborts_staged () =
  List.iter
    (fun seed ->
      let w = world ~seed ~crashed:[ 0 ] ~always_up:true () in
      let outcome = ref None in
      Quorum_rpc.prepare w.rpc ~key:0 ~ts:(Timestamp.make ~version:1 ~sid:9)
        ~value:"v" (function
        | None -> outcome := Some false
        | Some op ->
          Quorum_rpc.commit_staged w.rpc ~op (fun ok -> outcome := Some ok));
      Engine.run w.engine;
      Alcotest.(check (option bool)) "write committed" (Some true) !outcome;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no staged entry at a live replica" seed)
        0 (live_staged w))
    [ 1; 2; 3; 4 ]

(* Regression: batch spans were looked up by key, so a key named twice
   finished its first span twice and never closed the second. *)
let test_duplicate_key_batches_close_every_span () =
  let w = world ~spec:"1-3-5" () in
  let wrote = ref [] and read = ref [] in
  Coordinator.write_batch w.coord ~writes:[ (3, "a"); (3, "b"); (4, "c") ] (fun rs ->
      wrote := rs;
      Coordinator.read_batch w.coord ~keys:[ 5; 5 ] (fun rs -> read := rs));
  Engine.run w.engine;
  Alcotest.(check int) "three write results" 3 (List.length !wrote);
  Alcotest.(check int) "two read results" 2 (List.length !read);
  Alcotest.(check int) "five spans opened" 5 (Obs.spans_started w.obs);
  Alcotest.(check int) "no span left open" 0 (Obs.spans_open w.obs)

(* Regression: the batch path had no repair code, so [read_repair] was
   silently dropped for multi-key reads.  On a 2-2 tree a write stages one
   whole level and a read quorum takes one member per level, so after one
   write every read quorum holds exactly one stale member for that key. *)
let test_batched_read_repairs_stale_member () =
  let config = { Coordinator.default_config with read_repair = true } in
  let w = world ~config () in
  Coordinator.write w.coord ~key:7 ~value:"fresh" (fun r ->
      Alcotest.(check bool) "write ok" true (r <> None);
      Coordinator.read_batch w.coord ~keys:[ 7; 8 ] (fun rs ->
          match rs with
          | [ (7, Some { Coordinator.value; _ }); (8, Some _) ] ->
            Alcotest.(check string) "newest value read" "fresh" value
          | _ -> Alcotest.fail "batched read failed"));
  Engine.run w.engine;
  let m = Coordinator.metrics w.coord in
  Alcotest.(check int) "one repair for the stale member" 1 m.repairs_sent;
  Alcotest.(check int) "coord.repairs_sent counter" 1
    (Obs.Metrics.counter_of (Obs.metrics w.obs) "coord.repairs_sent");
  Alcotest.(check int) "the repair was applied" 1
    (Array.fold_left (fun acc r -> acc + Replica.repairs_applied r) 0 w.replicas);
  let fresh =
    Array.fold_left
      (fun acc r ->
        if Store.value_of (Replica.store r) ~key:7 = "fresh" then acc + 1 else acc)
      0 w.replicas
  in
  Alcotest.(check int) "written level plus the repaired member" 3 fresh

(* Regression: a pooled round kept the phase its last use ended in.  A
   round that finished a commit and was then reused by a prepare-only
   round whose write quorum could not be assembled took the commit-resend
   branch of the retry path: it sent nothing, its timeout was ignored, and
   the callback never fired. *)
let test_reused_round_fails_prepare_assembly () =
  (* Oracle view on the 2-2 tree: levels {0, 1} and {2, 3}. *)
  let w = world () in
  let ts v = Timestamp.make ~version:v ~sid:9 in
  let wrote = ref None in
  Quorum_rpc.write w.rpc ~key:0 ~value:"a" (fun r -> wrote := Some (r <> None));
  Engine.run w.engine;
  Alcotest.(check (option bool)) "first write committed" (Some true) !wrote;
  (* A crashed member in every level: no write quorum can form. *)
  List.iter (Network.crash w.net) [ 0; 2 ];
  let prepared = ref [] and written = ref [] in
  Quorum_rpc.prepare w.rpc ~key:0 ~ts:(ts 5) ~value:"b" (fun r ->
      prepared := r :: !prepared;
      Quorum_rpc.write w.rpc ~key:0 ~ts:(ts 6) ~value:"c" (fun r ->
          written := r :: !written));
  Engine.run w.engine;
  Alcotest.(check int) "prepare called back once" 1 (List.length !prepared);
  Alcotest.(check bool) "prepare failed" true (!prepared = [ None ]);
  Alcotest.(check int) "forced-ts write called back once" 1 (List.length !written);
  Alcotest.(check bool) "forced-ts write failed" true (!written = [ None ]);
  Alcotest.(check int) "no span left open" 0 (Obs.spans_open w.obs)

(* --- quiescence property ------------------------------------------------- *)

(* Every entry point, as (name, issue) where [issue w k] starts the
   operation and calls [k] once per callback delivered. *)
let entries =
  let ts = Timestamp.make ~version:3 ~sid:99 in
  [
    ("read", fun w k -> Coordinator.read w.coord ~key:1 (fun _ -> k ()));
    ("write", fun w k -> Coordinator.write w.coord ~key:1 ~value:"x" (fun _ -> k ()));
    ( "read_batch of one",
      fun w k -> Coordinator.read_batch w.coord ~keys:[ 2 ] (fun _ -> k ()) );
    ( "read_batch",
      fun w k -> Coordinator.read_batch w.coord ~keys:[ 1; 2; 3 ] (fun _ -> k ()) );
    ( "read_batch duplicate keys",
      fun w k -> Coordinator.read_batch w.coord ~keys:[ 4; 4 ] (fun _ -> k ()) );
    ( "write_batch of one",
      fun w k -> Coordinator.write_batch w.coord ~writes:[ (2, "a") ] (fun _ -> k ()) );
    ( "write_batch",
      fun w k ->
        Coordinator.write_batch w.coord ~writes:[ (1, "a"); (2, "b") ] (fun _ -> k ()) );
    ( "write_batch duplicate keys",
      fun w k ->
        Coordinator.write_batch w.coord
          ~writes:[ (5, "a"); (6, "b"); (5, "c") ]
          (fun _ -> k ()) );
    ("rpc query", fun w k -> Quorum_rpc.query w.rpc ~key:1 (fun _ -> k ()));
    ( "rpc prepare + commit_staged",
      fun w k ->
        Quorum_rpc.prepare w.rpc ~key:1 ~ts ~value:"p" (function
          | None -> k ()
          | Some op -> Quorum_rpc.commit_staged w.rpc ~op (fun _ -> k ())) );
    ( "rpc prepare + abort_staged",
      fun w k ->
        Quorum_rpc.prepare w.rpc ~key:1 ~ts ~value:"p" (function
          | None -> k ()
          | Some op ->
            Quorum_rpc.abort_staged w.rpc ~op;
            k ()) );
    ("rpc write", fun w k -> Quorum_rpc.write w.rpc ~key:1 ~value:"w" (fun _ -> k ()));
    ( "rpc write forced ts",
      fun w k -> Quorum_rpc.write w.rpc ~key:1 ~ts ~value:"w" (fun _ -> k ()) );
  ]

let specs = [| "2-2"; "1-3-5"; "3-3"; "1-2-3" |]

(* A short random sequence of entry points on one world, each issued from
   its predecessor's first callback, so later operations run on pooled
   rounds that earlier ones released — a batch after a single key evicts
   the narrower round, a single key after a batch reuses the wider one.
   Replicas in [before] crash before the first operation, those in
   [after] once it has called back; all stay down.  Under the always-up
   view crashed members stay in quorums, so rounds time out and retry;
   under the oracle view a level with a crashed member has no write quorum
   and a fully crashed level no read quorum, so assembly fails and
   retries — on rounds that earlier, successful operations released. *)
let prop_sequences_quiesce ~always_up =
  let view = if always_up then "always-up" else "oracle" in
  QCheck.Test.make ~count:400
    ~name:(Printf.sprintf "entry-point sequences quiesce under crashes (%s view)" view)
    QCheck.(
      pair
        (pair (int_bound 10_000) (int_bound (Array.length specs - 1)))
        (triple
           (list_of_size (Gen.int_range 1 5) (int_bound (List.length entries - 1)))
           (int_bound 255) (int_bound 255)))
    (fun ((seed, spec), (ops, before, after)) ->
      let spec = specs.(spec) in
      let n = Arbitrary.Tree.n (Arbitrary.Tree.of_spec spec) in
      let sites mask = List.filter (fun s -> mask land (1 lsl s) <> 0) (List.init n Fun.id) in
      let w = world ~spec ~seed ~crashed:(sites before) ~always_up () in
      let ops = Array.of_list (List.map (List.nth entries) ops) in
      let fired = Array.make (Array.length ops) 0 in
      let rec issue i =
        if i < Array.length ops then
          (snd ops.(i)) w (fun () ->
              fired.(i) <- fired.(i) + 1;
              if fired.(i) = 1 then begin
                if i = 0 then List.iter (Network.crash w.net) (sites after);
                issue (i + 1)
              end)
      in
      issue 0;
      Engine.run w.engine;
      Array.iteri
        (fun i count ->
          if count <> 1 then
            QCheck.Test.fail_reportf "op %d (%s): %d callbacks" i (fst ops.(i)) count)
        fired;
      if Obs.spans_open w.obs <> 0 then
        QCheck.Test.fail_reportf "%d spans open" (Obs.spans_open w.obs);
      if live_staged w <> 0 then
        QCheck.Test.fail_reportf "%d staged entries at live replicas" (live_staged w);
      true)

let suite =
  [
    Alcotest.test_case "prepare retry aborts staged members" `Quick
      test_prepare_retry_aborts_staged;
    Alcotest.test_case "duplicate-key batches close every span" `Quick
      test_duplicate_key_batches_close_every_span;
    Alcotest.test_case "batched read repairs a stale member" `Quick
      test_batched_read_repairs_stale_member;
    Alcotest.test_case "reused round fails a prepare it cannot assemble" `Quick
      test_reused_round_fails_prepare_assembly;
    QCheck_alcotest.to_alcotest (prop_sequences_quiesce ~always_up:true);
    QCheck_alcotest.to_alcotest (prop_sequences_quiesce ~always_up:false);
  ]
