module Wal = Replication.Wal
module Store = Replication.Store
module Timestamp = Replication.Timestamp

(* A hand-cranked virtual clock: the WAL only ever samples [now ()]. *)
let clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun v -> t := v)

let ts v = Timestamp.make ~version:v ~sid:0

let stage ~op ~key ~v value = Wal.Stage { op; key; ts = ts v; value }
let commit ~op ~key ~v value = Wal.Commit { op; key; ts = ts v; value }
let install ~key ~v value = Wal.Install { key; ts = ts v; value }

let test_policy_strings () =
  Alcotest.(check string) "commit" "commit" (Wal.policy_to_string Wal.Sync_on_commit);
  Alcotest.(check string) "prepare" "prepare" (Wal.policy_to_string Wal.Sync_on_prepare);
  Alcotest.(check string) "async" "async(60)" (Wal.policy_to_string (Wal.Async 60.0))

let test_invalid_lag () =
  let now, _ = clock () in
  Alcotest.check_raises "zero lag"
    (Invalid_argument "Wal.create: Async flush lag must be positive")
    (fun () -> ignore (Wal.create ~policy:(Wal.Async 0.0) ~now ()))

(* Sync_on_commit: commits and installs survive any crash, stages never do.
   A replica that loses a stage nacks the eventual 2PC Commit, so nothing
   is silently dropped — the write just fails visibly at the coordinator. *)
let test_sync_on_commit_crash () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (stage ~op:1 ~key:0 ~v:1 "a");
  Wal.append wal (commit ~op:1 ~key:0 ~v:1 "a");
  Wal.append wal (stage ~op:2 ~key:1 ~v:1 "b");
  Alcotest.(check int) "three records" 3 (Wal.length wal);
  Wal.crash wal;
  Alcotest.(check int) "stages dropped" 1 (Wal.length wal);
  Alcotest.(check int) "two lost" 2 (Wal.lost_total wal);
  let store = Store.create () in
  Alcotest.(check int) "replayed" 1 (Wal.replay wal store);
  Alcotest.(check bool) "commit restored" true
    (Store.read store ~key:0 = (ts 1, "a"));
  Alcotest.(check bool) "stage gone" true (Store.staged store ~op:2 = None);
  Alcotest.(check bool) "staged key unwritten" true
    (Store.read store ~key:1 = (Timestamp.zero, ""))

(* Sync_on_prepare: the classic 2PC participant contract — the undecided
   stage set survives too, so replay rebuilds it for the coordinator's
   eventual decision. *)
let test_sync_on_prepare_crash () =
  let now, _ = clock () in
  let wal = Wal.create ~policy:Wal.Sync_on_prepare ~now () in
  Wal.append wal (stage ~op:1 ~key:0 ~v:1 "a");
  Wal.append wal (commit ~op:1 ~key:0 ~v:1 "a");
  Wal.append wal (stage ~op:2 ~key:1 ~v:1 "b");
  Wal.crash wal;
  Alcotest.(check int) "nothing lost" 0 (Wal.lost_total wal);
  let store = Store.create () in
  Alcotest.(check int) "all replayed" 3 (Wal.replay wal store);
  Alcotest.(check bool) "stage restored" true
    (Store.staged store ~op:2 = Some (1, ts 1, "b"));
  Alcotest.(check bool) "commit restored" true
    (Store.read store ~key:0 = (ts 1, "a"))

(* Async lag: a record is durable only once [lag] time has passed since the
   append — a crash inside the window loses acknowledged writes, which is
   exactly the anomaly the negative-control campaign manufactures. *)
let test_async_lag () =
  let now, set = clock () in
  let wal = Wal.create ~policy:(Wal.Async 10.0) ~now () in
  Wal.append wal (commit ~op:1 ~key:0 ~v:1 "a");
  set 5.0;
  Wal.append wal (commit ~op:2 ~key:0 ~v:2 "b");
  (* At t=12 the first append (durable from t=10) survives, the second
     (durable from t=15) does not. *)
  set 12.0;
  Wal.crash wal;
  Alcotest.(check int) "suffix lost" 1 (Wal.lost_total wal);
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "only the flushed prefix" true
    (Store.read store ~key:0 = (ts 1, "a"));
  (* The durability horizon is measured from each append. *)
  Wal.append wal (commit ~op:3 ~key:0 ~v:3 "c");
  set 30.0;
  Wal.crash wal;
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "flushed after the lag" true
    (Store.read store ~key:0 = (ts 3, "c"))

(* Regression: the Async durability boundary is pinned INCLUSIVE.  A
   record appended at t under [Async lag] is durable from exactly
   [t +. lag]; a crash at that very instant keeps it (the tie breaks in
   favour of durability — wal.mli documents the contract this test
   anchors).  One ulp earlier and the same record is gone. *)
let test_async_boundary_inclusive () =
  let now, set = clock () in
  let wal = Wal.create ~policy:(Wal.Async 10.0) ~now () in
  Wal.append wal (commit ~op:1 ~key:0 ~v:1 "a");
  set 10.0;
  (* crash at exactly t + lag *)
  Wal.crash wal;
  Alcotest.(check int) "boundary record survives" 0 (Wal.lost_total wal);
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "boundary record replayed" true
    (Store.read store ~key:0 = (ts 1, "a"));
  let now2, set2 = clock () in
  let wal2 = Wal.create ~policy:(Wal.Async 10.0) ~now:now2 () in
  Wal.append wal2 (commit ~op:1 ~key:0 ~v:1 "a");
  set2 (Float.pred 10.0);
  (* one ulp before the boundary *)
  Wal.crash wal2;
  Alcotest.(check int) "one ulp earlier loses it" 1 (Wal.lost_total wal2);
  let store2 = Store.create () in
  ignore (Wal.replay wal2 store2);
  Alcotest.(check bool) "nothing replayed" true
    (Store.read store2 ~key:0 = (Timestamp.zero, ""))

(* Group commit: a batch of records shares ONE durability point.  The
   sync counter is the only observable difference — per-record stamps,
   crash truncation and replay are identical to individual appends. *)
let test_group_commit_one_sync_per_batch () =
  let now, _ = clock () in
  let plain = Wal.create ~policy:Wal.Sync_on_prepare ~now () in
  Wal.append plain (stage ~op:1 ~key:0 ~v:1 "a");
  Wal.append plain (stage ~op:2 ~key:1 ~v:1 "b");
  Alcotest.(check int) "one sync per forcing append" 2 (Wal.syncs plain);
  let now2, _ = clock () in
  let grouped = Wal.create ~policy:Wal.Sync_on_prepare ~now:now2 () in
  Wal.append_batch grouped
    [ stage ~op:1 ~key:0 ~v:1 "a"; stage ~op:2 ~key:1 ~v:1 "b" ];
  Alcotest.(check int) "whole batch: one sync" 1 (Wal.syncs grouped);
  Alcotest.(check int) "same records" (Wal.length plain) (Wal.length grouped);
  Wal.crash plain;
  Wal.crash grouped;
  let s1 = Store.create () and s2 = Store.create () in
  let r1 = Wal.replay plain s1 and r2 = Wal.replay grouped s2 in
  Alcotest.(check int) "crash + replay parity" r1 r2;
  Alcotest.(check bool) "both stages rebuilt" true
    (Store.staged s2 ~op:1 = Some (0, ts 1, "a")
    && Store.staged s2 ~op:2 = Some (1, ts 1, "b"))

let test_group_commit_force_detection () =
  (* Sync_on_commit: a stage-only batch is lazy; a batch containing any
     forcing record costs exactly one sync.  Async never syncs. *)
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append_batch wal
    [ stage ~op:1 ~key:0 ~v:1 "a"; stage ~op:2 ~key:1 ~v:1 "b" ];
  Alcotest.(check int) "stage-only batch is lazy" 0 (Wal.syncs wal);
  Wal.append_batch wal
    [ commit ~op:1 ~key:0 ~v:1 "a"; commit ~op:2 ~key:1 ~v:1 "b" ];
  Alcotest.(check int) "commit batch forces once" 1 (Wal.syncs wal);
  let now2, _ = clock () in
  let async = Wal.create ~policy:(Wal.Async 5.0) ~now:now2 () in
  Wal.append_batch async
    [ commit ~op:1 ~key:0 ~v:1 "a"; commit ~op:2 ~key:1 ~v:1 "b" ];
  Alcotest.(check int) "async batch never syncs" 0 (Wal.syncs async)

(* Replaying the per-record Stage entries of one batched prepare must
   rebuild the whole staged batch — a second Stage under the same op id
   accumulates instead of clobbering. *)
let test_replay_rebuilds_batch_stage () =
  let now, _ = clock () in
  let wal = Wal.create ~policy:Wal.Sync_on_prepare ~now () in
  Wal.append_batch wal
    [
      stage ~op:9 ~key:0 ~v:1 "a";
      stage ~op:9 ~key:1 ~v:1 "b";
      stage ~op:9 ~key:2 ~v:1 "c";
    ];
  Wal.crash wal;
  let store = Store.create () in
  Alcotest.(check int) "all replayed" 3 (Wal.replay wal store);
  Alcotest.(check bool) "staged batch rebuilt in order" true
    (match Store.staged_many store ~op:9 with
    | Some b ->
      Replication.Batch.to_list b
      = [ (0, ts 1, "a"); (1, ts 1, "b"); (2, ts 1, "c") ]
    | None -> false);
  Alcotest.(check bool) "commit installs every key" true
    (Store.commit_staged store ~op:9);
  Alcotest.(check bool) "all keys installed" true
    (Store.read store ~key:0 = (ts 1, "a")
    && Store.read store ~key:1 = (ts 1, "b")
    && Store.read store ~key:2 = (ts 1, "c"))

(* Replay preserves install monotonicity and abort semantics. *)
let test_replay_order () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (install ~key:0 ~v:3 "new");
  Wal.append wal (install ~key:0 ~v:1 "old");
  (* re-delivered, must not regress *)
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "monotone installs" true
    (Store.read store ~key:0 = (ts 3, "new"))

let test_replay_abort_clears_stage () =
  let now, _ = clock () in
  let wal = Wal.create ~policy:Wal.Sync_on_prepare ~now () in
  Wal.append wal (stage ~op:7 ~key:2 ~v:4 "x");
  Wal.append wal (Wal.Abort { op = 7 });
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "aborted stage not rebuilt" true
    (Store.staged store ~op:7 = None);
  Alcotest.(check int) "no staged writes" 0 (Store.staged_count store)

(* A Commit record is self-contained: it installs even when the matching
   Stage was volatile (the Sync_on_commit steady state). *)
let test_commit_record_self_contained () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (stage ~op:1 ~key:0 ~v:2 "v");
  Wal.crash wal;
  (* stage lost *)
  Wal.append wal (commit ~op:1 ~key:0 ~v:2 "v");
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "installed from the commit alone" true
    (Store.read store ~key:0 = (ts 2, "v"))

(* --- snapshot-cut boundary ------------------------------------------------ *)

(* The tail boundary is inclusive at the stamp: a cut taken at
   [next_index] = s must yield a tail containing the record appended AT
   index s and nothing appended before it.  An off-by-one in either
   direction silently loses the first post-cut commit or re-ships the
   last pre-cut one. *)
let test_tail_boundary_at_stamp () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (install ~key:0 ~v:1 "pre");
  let stamp = Wal.next_index wal in
  Alcotest.(check int) "stamp names the next index" 1 stamp;
  Wal.append wal (install ~key:1 ~v:1 "at-stamp");
  Wal.append wal (install ~key:2 ~v:1 "post");
  let tail = Wal.committed_since wal ~index:stamp in
  Alcotest.(check int) "tail holds exactly the records >= stamp" 2
    (Replication.Batch.length tail);
  Alcotest.(check int) "first tail record is the one AT the stamp" 1
    (Replication.Batch.key tail 0);
  Alcotest.(check string) "its value" "at-stamp"
    (Replication.Batch.value tail 0);
  (* stamp - 1 is NOT in the tail *)
  let from_before = Wal.committed_since wal ~index:(stamp - 1) in
  Alcotest.(check int) "one index earlier adds the pre-cut record" 3
    (Replication.Batch.length from_before)

let test_replay_from_boundary () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (install ~key:0 ~v:5 "old");
  let stamp = Wal.next_index wal in
  Wal.append wal (install ~key:1 ~v:1 "new");
  let store = Store.create () in
  let applied = Wal.replay_from wal store ~index:stamp in
  Alcotest.(check int) "only the record at the stamp replays" 1 applied;
  Alcotest.(check bool) "pre-stamp key untouched" true
    (Store.read store ~key:0 = (Timestamp.zero, ""));
  Alcotest.(check bool) "at-stamp key installed" true
    (Store.read store ~key:1 = (ts 1, "new"));
  Alcotest.(check int) "replay_from 0 = full replay" 2
    (Wal.replay_from wal (Store.create ()) ~index:0)

(* Indices never rewind: a crash truncates records but the next append
   still gets a fresh index, so a donor's stamp from before the crash can
   never alias a post-crash record. *)
let test_indices_monotone_across_crash () =
  let now, set = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (stage ~op:1 ~key:0 ~v:1 "volatile");
  Wal.append wal (install ~key:1 ~v:1 "durable");
  Alcotest.(check int) "two appended" 2 (Wal.next_index wal);
  set 10.0;
  Wal.crash wal;
  Alcotest.(check int) "stage truncated" 1 (Wal.length wal);
  Alcotest.(check int) "counter did not rewind" 2 (Wal.next_index wal);
  Wal.append wal (install ~key:2 ~v:1 "after");
  Alcotest.(check int) "fresh index" 3 (Wal.next_index wal);
  (* the truncated record's index is simply absent from any tail *)
  Alcotest.(check int) "tail since 0 holds the two survivors" 2
    (Replication.Batch.length (Wal.committed_since wal ~index:0))

(* An amnesia crash immediately after a snapshot chunk was installed and
   marked: the mark is durable (Sync_on_commit batches the chunk installs
   and the mark at one durability point), so resume_state reports the
   chunk — the rejoin resumes after it instead of refetching chunk 0. *)
let test_resume_after_install_crash () =
  let now, set = clock () in
  let wal = Wal.create ~now () in
  Wal.append_batch wal
    [
      install ~key:0 ~v:1 "c0a";
      install ~key:1 ~v:1 "c0b";
      Wal.Mark { chunk = 0; wal_index = 7 };
    ];
  set 0.000001;
  (* crash "immediately": no later flush point, Sync_on_commit already
     made the batch durable at append time *)
  Wal.crash wal;
  (match Wal.resume_state wal with
  | Some (next_chunk, wal_index) ->
    Alcotest.(check int) "resume after chunk 0" 1 next_chunk;
    Alcotest.(check int) "stamp preserved" 7 wal_index
  | None -> Alcotest.fail "durable mark lost by the crash");
  (* the installs the mark covers replay into the store *)
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "chunk contents survived" true
    (Store.read store ~key:1 = (ts 1, "c0b"));
  (* a completion mark retires the resume state entirely *)
  Wal.append wal (Wal.Mark { chunk = -1; wal_index = 9 });
  Alcotest.(check bool) "completion mark means fresh transfer" true
    (Wal.resume_state wal = None)

(* --- reference model ------------------------------------------------------ *)

(* The columnar log against the list-based one it replaced ([Wal_ref]):
   one random stream drives both — single appends through the record
   wrapper and the flat appenders, batches with and without grouping,
   chunk installs with marks, clock moves and crashes, including crashes
   at exactly (and one ulp either side of) an append's Async deadline.
   Counters, tails and the resume mark must agree after every step, and
   replay — which the replica runs only after a crash — after every
   crash. *)

type step =
  | Append of Wal.record * bool  (** through the flat appender if true *)
  | Records of Wal.record list  (** [append_batch] *)
  | Rows of bool * bool * int * Replication.Batch.t
      (** commit (else stage) rows of [op]; grouped? *)
  | Chunk of Replication.Batch.t * (int * int) option
  | Fill of int  (** that many commits, the clock moving between them *)
  | Advance of float
  | Crash_at of int * int * int
      (** nth append's deadline, nudged by -1/0/+1 ulp; replay_from seed *)

let pp_record = function
  | Wal.Stage { op; key; ts; value } ->
    Printf.sprintf "Stage(%d,%d,v%d@%d,%S)" op key ts.version ts.sid value
  | Wal.Commit { op; key; ts; value } ->
    Printf.sprintf "Commit(%d,%d,v%d@%d,%S)" op key ts.version ts.sid value
  | Wal.Install { key; ts; value } ->
    Printf.sprintf "Install(%d,v%d@%d,%S)" key ts.version ts.sid value
  | Wal.Abort { op } -> Printf.sprintf "Abort(%d)" op
  | Wal.Mark { chunk; wal_index } ->
    Printf.sprintf "Mark(%d,%d)" chunk wal_index

let pp_batch b =
  String.concat ";"
    (List.map
       (fun (k, (ts : Timestamp.t), v) ->
         Printf.sprintf "%d:v%d@%d:%s" k ts.version ts.sid v)
       (Replication.Batch.to_list b))

let pp_step = function
  | Append (r, flat) -> Printf.sprintf "Append(%s,%b)" (pp_record r) flat
  | Records rs -> "Records[" ^ String.concat ";" (List.map pp_record rs) ^ "]"
  | Rows (c, g, op, b) ->
    Printf.sprintf "Rows(%b,%b,%d,[%s])" c g op (pp_batch b)
  | Chunk (b, m) ->
    Printf.sprintf "Chunk([%s],%s)" (pp_batch b)
      (match m with Some (c, w) -> Printf.sprintf "%d,%d" c w | None -> "-")
  | Fill n -> Printf.sprintf "Fill %d" n
  | Advance d -> Printf.sprintf "Advance %g" d
  | Crash_at (k, ulp, f) -> Printf.sprintf "Crash_at(%d,%d,%d)" k ulp f

let gen_stream =
  let open QCheck.Gen in
  let op = int_bound 5 and key = int_bound 7 in
  let value = oneofl [ "a"; "b"; "" ] in
  let ts =
    map2
      (fun version sid -> Timestamp.make ~version ~sid)
      (int_range 1 5) (int_bound 3)
  in
  let record =
    frequency
      [
        ( 3,
          map4
            (fun op key ts value -> Wal.Stage { op; key; ts; value })
            op key ts value );
        ( 3,
          map4
            (fun op key ts value -> Wal.Commit { op; key; ts; value })
            op key ts value );
        ( 2,
          map3
            (fun key ts value -> Wal.Install { key; ts; value })
            key ts value );
        (1, map (fun op -> Wal.Abort { op }) op);
        ( 1,
          map2
            (fun chunk wal_index -> Wal.Mark { chunk; wal_index })
            (int_range (-1) 3) (int_bound 40) );
      ]
  in
  let batch =
    map Replication.Batch.of_list
      (list_size (int_bound 4) (triple key ts value))
  in
  let step =
    frequency
      [
        (6, map2 (fun r flat -> Append (r, flat)) record bool);
        (2, map (fun rs -> Records rs) (list_size (int_bound 4) record));
        (3, map4 (fun c g op b -> Rows (c, g, op, b)) bool bool op batch);
        ( 1,
          map2
            (fun b m -> Chunk (b, m))
            batch
            (opt (pair (int_range (-1) 3) (int_bound 40))) );
        (1, map (fun n -> Fill n) (int_bound 700));
        (3, map (fun d -> Advance d) (oneofl [ 0.0; 0.25; 0.5; 1.0; 3.0 ]));
        ( 2,
          map3
            (fun k ulp f -> Crash_at (k, ulp, f))
            (int_bound 50) (int_range (-1) 1) (int_bound 50) );
      ]
  in
  pair (oneofl [ Wal.Sync_on_commit; Wal.Sync_on_prepare; Wal.Async 0.75 ])
    (list_size (int_range 1 40) step)

let store_view store =
  let module S = Store in
  ( List.map (fun key -> (key, S.read store ~key)) (S.keys store),
    S.staged_count store,
    List.init 6 (fun op ->
        ( S.staged store ~op,
          Option.map Replication.Batch.to_list (S.staged_many store ~op) )) )

let prop_matches_reference =
  QCheck.Test.make ~name:"columnar WAL matches the list-based reference"
    ~count:250
    (QCheck.make gen_stream ~print:(fun (policy, steps) ->
         Wal.policy_to_string policy ^ ": "
         ^ String.concat "\n" (List.map pp_step steps)))
    (fun (policy, steps) ->
      let now, set = clock () in
      let wal = Wal.create ~policy ~now () in
      let ref_ = Wal_ref.create ~policy ~now () in
      let lag = match policy with Wal.Async lag -> lag | _ -> 0.0 in
      let appended = ref [] in
      let note () = appended := now () :: !appended in
      let check what a b =
        if a <> b then QCheck.Test.fail_reportf "%s differs" what
      in
      let records_of commit op b =
        List.map
          (fun (key, ts, value) ->
            if commit then Wal.Commit { op; key; ts; value }
            else Wal.Stage { op; key; ts; value })
          (Replication.Batch.to_list b)
      in
      List.iter
        (fun step ->
          (match step with
          | Append (r, flat) ->
            note ();
            Wal_ref.append ref_ r;
            if not flat then Wal.append wal r
            else (
              match r with
              | Wal.Stage { op; key; ts; value } ->
                Wal.stage wal ~op ~key ~version:ts.version ~sid:ts.sid ~value
              | Wal.Commit { op; key; ts; value } ->
                Wal.commit wal ~op ~key ~version:ts.version ~sid:ts.sid ~value
              | Wal.Install { key; ts; value } ->
                Wal.install wal ~key ~version:ts.version ~sid:ts.sid ~value
              | Wal.Abort { op } -> Wal.abort wal ~op
              | Wal.Mark { chunk; wal_index } -> Wal.mark wal ~chunk ~wal_index)
          | Records rs ->
            note ();
            Wal_ref.append_batch ref_ rs;
            Wal.append_batch wal rs
          | Rows (commit, group, op, b) ->
            note ();
            let rs = records_of commit op b in
            if group then Wal_ref.append_batch ref_ rs
            else List.iter (Wal_ref.append ref_) rs;
            if commit then Wal.commit_batch wal ~group ~op b
            else Wal.stage_batch wal ~group ~op b
          | Chunk (b, mark) ->
            note ();
            let marks =
              match mark with
              | Some (chunk, wal_index) -> [ Wal.Mark { chunk; wal_index } ]
              | None -> []
            in
            Wal_ref.append_batch ref_
              (List.map
                 (fun (key, ts, value) -> Wal.Install { key; ts; value })
                 (Replication.Batch.to_list b)
              @ marks);
            Wal.install_batch wal ?mark b
          | Fill n ->
            for i = 0 to n - 1 do
              set (now () +. 0.125);
              note ();
              let key = i mod 8 and version = 1 + (i mod 5) and op = i mod 6 in
              Wal_ref.append ref_ (commit ~op ~key ~v:version "f");
              Wal.commit wal ~op ~key ~version ~sid:0 ~value:"f"
            done
          | Advance d -> set (now () +. d)
          | Crash_at (k, ulp, f) ->
            (match !appended with
            | [] -> ()
            | times ->
              let deadline = List.nth times (k mod List.length times) +. lag in
              set
                (if ulp < 0 then Float.pred deadline
                 else if ulp > 0 then Float.succ deadline
                 else deadline));
            Wal_ref.crash ref_;
            Wal.crash wal;
            let s1 = Store.create () and s2 = Store.create () in
            check "replay count" (Wal_ref.replay ref_ s1) (Wal.replay wal s2);
            check "replayed store" (store_view s1) (store_view s2);
            let index = f mod (Wal.next_index wal + 1) in
            let s1 = Store.create () and s2 = Store.create () in
            check "replay_from count"
              (Wal_ref.replay_from ref_ s1 ~index)
              (Wal.replay_from wal s2 ~index);
            check "replay_from store" (store_view s1) (store_view s2));
          check "length" (Wal_ref.length ref_) (Wal.length wal);
          check "lost_total" (Wal_ref.lost_total ref_) (Wal.lost_total wal);
          check "syncs" (Wal_ref.syncs ref_) (Wal.syncs wal);
          check "next_index" (Wal_ref.next_index ref_) (Wal.next_index wal);
          check "resume_state" (Wal_ref.resume_state ref_)
            (Wal.resume_state wal);
          let tail i = Replication.Batch.to_list i in
          let next = Wal.next_index wal in
          List.iter
            (fun index ->
              check "committed_since"
                (tail (Wal_ref.committed_since ref_ ~index))
                (tail (Wal.committed_since wal ~index)))
            [ 0; next / 2; next ])
        steps;
      true)

(* Crash compaction moves surviving rows down across chunk boundaries:
   under Async, records stamped alternately late and early (the clock
   jumping back and forth) leave every other row non-durable, so each
   survivor shifts — past several 512-row chunks over 1,500 records. *)
let test_compaction_across_chunks () =
  let now, set = clock () in
  let policy = Wal.Async 1.0 in
  let wal = Wal.create ~policy ~now () in
  let ref_ = Wal_ref.create ~policy ~now () in
  for i = 0 to 1_499 do
    set (if i mod 3 = 0 then 10.0 else 0.0);
    let key = i mod 100 and version = 1 + i in
    Wal.commit wal ~op:i ~key ~version ~sid:0 ~value:(string_of_int i);
    Wal_ref.append ref_
      (commit ~op:i ~key ~v:version (string_of_int i))
  done;
  set 5.0;
  Wal.crash wal;
  Wal_ref.crash ref_;
  Alcotest.(check int) "a third lost" 500 (Wal.lost_total wal);
  let tail w = Replication.Batch.to_list w in
  Alcotest.(check bool) "same surviving tail" true
    (tail (Wal_ref.committed_since ref_ ~index:0)
    = tail (Wal.committed_since wal ~index:0));
  Alcotest.(check bool) "same tail from mid-log" true
    (tail (Wal_ref.committed_since ref_ ~index:700)
    = tail (Wal.committed_since wal ~index:700));
  (* appends after the compaction land behind the survivors *)
  Wal.install wal ~key:7 ~version:9_999 ~sid:0 ~value:"after";
  Wal_ref.append ref_ (install ~key:7 ~v:9_999 "after");
  let s1 = Store.create () and s2 = Store.create () in
  Alcotest.(check int) "replay count" (Wal_ref.replay ref_ s1)
    (Wal.replay wal s2);
  for key = 0 to 99 do
    Alcotest.(check bool) "replayed key" true
      (Store.read s1 ~key = Store.read s2 ~key)
  done

let suite =
  [
    Alcotest.test_case "policy strings" `Quick test_policy_strings;
    Alcotest.test_case "invalid async lag" `Quick test_invalid_lag;
    Alcotest.test_case "sync-on-commit crash semantics" `Quick
      test_sync_on_commit_crash;
    Alcotest.test_case "sync-on-prepare crash semantics" `Quick
      test_sync_on_prepare_crash;
    Alcotest.test_case "async flush lag" `Quick test_async_lag;
    Alcotest.test_case "async boundary is inclusive" `Quick
      test_async_boundary_inclusive;
    Alcotest.test_case "group commit: one sync per batch" `Quick
      test_group_commit_one_sync_per_batch;
    Alcotest.test_case "group commit: force detection per policy" `Quick
      test_group_commit_force_detection;
    Alcotest.test_case "replay rebuilds a batched stage" `Quick
      test_replay_rebuilds_batch_stage;
    Alcotest.test_case "replay keeps installs monotone" `Quick
      test_replay_order;
    Alcotest.test_case "replay honors aborts" `Quick
      test_replay_abort_clears_stage;
    Alcotest.test_case "commit records are self-contained" `Quick
      test_commit_record_self_contained;
    Alcotest.test_case "tail boundary is inclusive at the stamp" `Quick
      test_tail_boundary_at_stamp;
    Alcotest.test_case "replay_from honors the stamp boundary" `Quick
      test_replay_from_boundary;
    Alcotest.test_case "indices monotone across crashes" `Quick
      test_indices_monotone_across_crash;
    Alcotest.test_case "crash right after a marked chunk resumes" `Quick
      test_resume_after_install_crash;
    Alcotest.test_case "crash compaction across chunks" `Quick
      test_compaction_across_chunks;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
