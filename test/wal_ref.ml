(* The list-based write-ahead log that the columnar {!Replication.Wal}
   replaced, kept as its reference model: every record, durable or not,
   lives in a newest-first list of boxed entries.  Same policies, same
   record type, same counters. *)

module Store = Replication.Store
module Batch = Replication.Batch
module Timestamp = Replication.Timestamp

type policy = Replication.Wal.policy =
  | Sync_on_commit
  | Sync_on_prepare
  | Async of float

type record = Replication.Wal.record =
  | Stage of { op : int; key : int; ts : Timestamp.t; value : string }
  | Commit of { op : int; key : int; ts : Timestamp.t; value : string }
  | Install of { key : int; ts : Timestamp.t; value : string }
  | Abort of { op : int }
  | Mark of { chunk : int; wal_index : int }

(* [durable_at]: virtual time from which the record survives a crash.
   [infinity] marks a record the policy never persists (a volatile stage
   under Sync_on_commit).  [index]: the record's absolute append index —
   assigned once, never reused, monotone across crashes (truncation
   discards records but never rewinds the counter), so a snapshot cut
   stamped with [next_index] names a stable point in this replica's
   history. *)
type entry = { record : record; durable_at : float; index : int }

type t = {
  policy : policy;
  now : unit -> float;
  mutable rev_log : entry list;  (* newest first *)
  mutable n : int;
  mutable lost : int;
  mutable syncs : int;
  mutable next_index : int;
}

let create ?(policy = Sync_on_commit) ~now () =
  (match policy with
  | Async lag when lag <= 0.0 ->
    invalid_arg "Wal.create: Async flush lag must be positive"
  | _ -> ());
  { policy; now; rev_log = []; n = 0; lost = 0; syncs = 0; next_index = 0 }

let next_index t = t.next_index

let durable_at t record =
  let now = t.now () in
  match (t.policy, record) with
  | Sync_on_commit, (Commit _ | Install _ | Mark _) -> now
  | Sync_on_commit, (Stage _ | Abort _) -> Float.infinity
  | Sync_on_prepare, _ -> now
  | Async lag, _ -> now +. lag

(* A record is synchronously forced exactly when the policy makes it
   durable the instant it is appended. *)
let forces t record =
  match (t.policy, record) with
  | Sync_on_commit, (Commit _ | Install _ | Mark _) -> true
  | Sync_on_commit, (Stage _ | Abort _) -> false
  | Sync_on_prepare, _ -> true
  | Async _, _ -> false

let push t record =
  t.rev_log <-
    { record; durable_at = durable_at t record; index = t.next_index }
    :: t.rev_log;
  t.next_index <- t.next_index + 1;
  t.n <- t.n + 1

let append t record =
  if forces t record then t.syncs <- t.syncs + 1;
  push t record

(* Group commit: the whole batch shares one durability point.  Each
   record keeps its per-policy [durable_at] (they are all stamped at the
   same virtual instant anyway), but however many of them the policy
   would force, at most ONE sync is charged — that amortization is the
   point of batching the log writes. *)
let append_batch t records =
  let any_force = List.exists (forces t) records in
  if any_force then t.syncs <- t.syncs + 1;
  List.iter (push t) records

let crash t =
  let now = t.now () in
  (* Append times are monotone, so the non-durable records form a prefix of
     the newest-first list; still filter the whole log so the volatile
     (never-durable) stages of Sync_on_commit go too.  The boundary is
     INCLUSIVE: a record whose [durable_at] equals the crash time has
     reached stable storage and survives (see wal.mli).  [next_index] is
     deliberately NOT rewound: indices of lost records are retired, never
     reissued. *)
  let survivors = List.filter (fun e -> e.durable_at <= now) t.rev_log in
  let kept = List.length survivors in
  t.lost <- t.lost + (t.n - kept);
  t.rev_log <- survivors;
  t.n <- kept

let apply_record store = function
  | Stage { op; key; ts; value } -> Store.stage_accum store ~op ~key ~ts ~value
  | Commit { op; key; ts; value } ->
    Store.abort_staged store ~op;
    ignore (Store.install store ~key ~ts ~value)
  | Install { key; ts; value } -> ignore (Store.install store ~key ~ts ~value)
  | Abort { op } -> Store.abort_staged store ~op
  | Mark _ -> ()  (* provisioning progress only; no store effect *)

let replay_from t store ~index =
  if index < 0 then invalid_arg "Wal.replay_from: negative index";
  let applied = ref 0 in
  List.iter
    (fun e ->
      if e.index >= index then begin
        apply_record store e.record;
        incr applied
      end)
    (List.rev t.rev_log);
  !applied

let replay t store = replay_from t store ~index:0

(* The committed-state tail since a snapshot cut: every Commit/Install at
   or after [index] (the record whose index equals the cut is IN the tail
   — the cut names the next index to be appended at stamp time, so
   everything from it onward post-dates the snapshot), flattened to
   (key, version, sid, value) in append order.  Stages, aborts and marks
   carry no committed state and are skipped. *)
let committed_since t ~index =
  if index < 0 then invalid_arg "Wal.committed_since: negative index";
  let b = Batch.Builder.create ~capacity:16 () in
  List.iter
    (fun e ->
      if e.index >= index then
        match e.record with
        | Commit { key; ts; value; _ } | Install { key; ts; value } ->
          Batch.Builder.push b ~key ~version:ts.Timestamp.version
            ~sid:ts.Timestamp.sid ~value
        | Stage _ | Abort _ | Mark _ -> ())
    (List.rev t.rev_log);
  Batch.Builder.snapshot b

(* Resume point of an interrupted provisioning transfer: the newest Mark
   decides.  A completion mark (chunk = -1) resets progress — marks from
   a finished transfer must not make a later rejoin skip its bulk phase. *)
let resume_state t =
  let rec scan = function
    | [] -> None
    | { record = Mark { chunk; wal_index }; _ } :: _ ->
      if chunk < 0 then None else Some (chunk + 1, wal_index)
    | _ :: rest -> scan rest
  in
  scan t.rev_log

let length t = t.n
let lost_total t = t.lost
let syncs t = t.syncs
