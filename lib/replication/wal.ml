type policy = Sync_on_commit | Sync_on_prepare | Async of float

let policy_to_string = function
  | Sync_on_commit -> "commit"
  | Sync_on_prepare -> "prepare"
  | Async lag -> Printf.sprintf "async(%g)" lag

type record =
  | Stage of { op : int; key : int; ts : Timestamp.t; value : string }
  | Commit of { op : int; key : int; ts : Timestamp.t; value : string }
  | Install of { key : int; ts : Timestamp.t; value : string }
  | Abort of { op : int }
  | Mark of { chunk : int; wal_index : int }

(* Row kinds, kept in the low [kind_bits] of a row's stamp.  A Mark keeps
   [chunk] in the key column and [wal_index] in the version column;
   unused columns hold 0 / "". *)
let kind_bits = 3
let k_stage = 0
let k_commit = 1
let k_install = 2
let k_abort = 3
let k_mark = 4

type time = Fn of (unit -> float) | Clock of Dsim.Engine.clock

(* Rows live in fixed-size chunks of parallel columns.  A chunk column is
   512 words, past the minor heap's 256-word limit, so it is allocated
   straight in the major heap: appends allocate no minor words, growing
   copies no row, and at most one partly filled chunk is slack. *)
let chunk_bits = 9
let chunk_rows = 1 lsl chunk_bits
let slot_mask = chunk_rows - 1

type chunk = {
  op : int array;
  key : int array;
  version : int array;
  sid : int array;
  value : string array;
  durable : Float.Array.t;  (* virtual time from which the row survives *)
  stamp : int array;  (* absolute append index lsl kind_bits lor kind *)
}

let new_chunk () =
  {
    op = Array.make chunk_rows 0;
    key = Array.make chunk_rows 0;
    version = Array.make chunk_rows 0;
    sid = Array.make chunk_rows 0;
    value = Array.make chunk_rows "";
    durable = Float.Array.create chunk_rows;
    stamp = Array.make chunk_rows 0;
  }

(* fills the directory past the last chunk; never read or written *)
let no_chunk =
  {
    op = [||];
    key = [||];
    version = [||];
    sid = [||];
    value = [||];
    durable = Float.Array.create 0;
    stamp = [||];
  }

(* One row per stored record, in append order: row [i] is slot
   [i land slot_mask] of chunk [i lsr chunk_bits].  A row is stored only
   if a crash can keep it: a record the policy never makes durable (a
   stage or abort under Sync_on_commit) bumps [n] and [next_index] but
   gets no row — every crash would discard it, and replay only ever runs
   after a crash.  A row's append index is assigned once and never
   reused, so a snapshot cut stamped with [next_index] names a stable
   point in this replica's history. *)
type t = {
  policy : policy;
  time : time;
  lag : float;  (* durable = append time + lag; 0 for the sync policies *)
  forcing : int;  (* bit k: a kind-k record forces a sync *)
  kept : int;  (* bit k: a kind-k record gets a row *)
  mutable chunks : chunk array;  (* the first [nchunks] are in use *)
  mutable nchunks : int;  (* = ceil (rows / chunk_rows) *)
  mutable rows : int;
  mutable n : int;  (* records in the log, stored or not *)
  mutable lost : int;
  mutable syncs : int;
  mutable next_index : int;
}

let bits kinds = List.fold_left (fun m k -> m lor (1 lsl k)) 0 kinds
let all_kinds = bits [ k_stage; k_commit; k_install; k_abort; k_mark ]

let make ?(policy = Sync_on_commit) time =
  let lag, forcing, kept =
    match policy with
    | Sync_on_commit ->
      let durable = bits [ k_commit; k_install; k_mark ] in
      (0.0, durable, durable)
    | Sync_on_prepare -> (0.0, all_kinds, all_kinds)
    | Async lag ->
      if lag <= 0.0 then
        invalid_arg "Wal.create: Async flush lag must be positive";
      (lag, 0, all_kinds)
  in
  {
    policy;
    time;
    lag;
    forcing;
    kept;
    chunks = [||];
    nchunks = 0;
    rows = 0;
    n = 0;
    lost = 0;
    syncs = 0;
    next_index = 0;
  }

let create ?policy ~now () = make ?policy (Fn now)
let of_clock ?policy clock = make ?policy (Clock clock)
let policy t = t.policy
let next_index t = t.next_index
let forces t kind = t.forcing land (1 lsl kind) <> 0

let add_chunk t =
  if t.nchunks = Array.length t.chunks then begin
    let chunks = Array.make (max 4 (2 * t.nchunks)) no_chunk in
    Array.blit t.chunks 0 chunks 0 t.nchunks;
    t.chunks <- chunks
  end;
  t.chunks.(t.nchunks) <- new_chunk ();
  t.nchunks <- t.nchunks + 1

(* Counts one record and, if a crash can keep it, stores its row.  The
   clock read is an operand of the sum, never let-bound or returned, so
   the time is not boxed on the way. *)
let add t kind ~op ~key ~version ~sid ~value =
  if t.kept land (1 lsl kind) <> 0 then begin
    let i = t.rows in
    if i = t.nchunks lsl chunk_bits then add_chunk t;
    let c = Array.unsafe_get t.chunks (i lsr chunk_bits)
    and s = i land slot_mask in
    Array.unsafe_set c.op s op;
    Array.unsafe_set c.key s key;
    Array.unsafe_set c.version s version;
    Array.unsafe_set c.sid s sid;
    Array.unsafe_set c.value s value;
    Float.Array.unsafe_set c.durable s
      ((match t.time with Clock k -> k.now | Fn f -> f ()) +. t.lag);
    Array.unsafe_set c.stamp s ((t.next_index lsl kind_bits) lor kind);
    t.rows <- i + 1
  end;
  t.next_index <- t.next_index + 1;
  t.n <- t.n + 1

(* --- flat appenders ------------------------------------------------------- *)

let append_one t kind ~op ~key ~version ~sid ~value =
  if forces t kind then t.syncs <- t.syncs + 1;
  add t kind ~op ~key ~version ~sid ~value

let stage t ~op ~key ~version ~sid ~value =
  append_one t k_stage ~op ~key ~version ~sid ~value

let commit t ~op ~key ~version ~sid ~value =
  append_one t k_commit ~op ~key ~version ~sid ~value

let install t ~key ~version ~sid ~value =
  append_one t k_install ~op:0 ~key ~version ~sid ~value

let abort t ~op = append_one t k_abort ~op ~key:0 ~version:0 ~sid:0 ~value:""

let mark t ~chunk ~wal_index =
  append_one t k_mark ~op:0 ~key:chunk ~version:wal_index ~sid:0 ~value:""

let add_rows t kind ~op (b : Batch.t) =
  for i = 0 to Batch.length b - 1 do
    add t kind ~op ~key:(Array.unsafe_get b.keys i)
      ~version:(Array.unsafe_get b.versions i)
      ~sid:(Array.unsafe_get b.sids i) ~value:(Array.unsafe_get b.values i)
  done

(* One record of [kind] per batch entry, in batch order.  Grouped, the
   batch shares one durability point and is charged at most one sync;
   otherwise each record is charged as if appended alone. *)
let add_batch t kind ~group ~op b =
  let len = Batch.length b in
  if len > 0 && forces t kind then
    t.syncs <- t.syncs + if group then 1 else len;
  add_rows t kind ~op b

let stage_batch t ~group ~op b = add_batch t k_stage ~group ~op b
let commit_batch t ~group ~op b = add_batch t k_commit ~group ~op b

let install_batch t ?mark b =
  if
    (Batch.length b > 0 && forces t k_install)
    || (mark <> None && forces t k_mark)
  then t.syncs <- t.syncs + 1;
  add_rows t k_install ~op:0 b;
  match mark with
  | Some (chunk, wal_index) ->
    add t k_mark ~op:0 ~key:chunk ~version:wal_index ~sid:0 ~value:""
  | None -> ()

(* --- record wrappers ------------------------------------------------------ *)

let kind_of = function
  | Stage _ -> k_stage
  | Commit _ -> k_commit
  | Install _ -> k_install
  | Abort _ -> k_abort
  | Mark _ -> k_mark

let add_record t = function
  | Stage { op; key; ts; value } ->
    add t k_stage ~op ~key ~version:ts.version ~sid:ts.sid ~value
  | Commit { op; key; ts; value } ->
    add t k_commit ~op ~key ~version:ts.version ~sid:ts.sid ~value
  | Install { key; ts; value } ->
    add t k_install ~op:0 ~key ~version:ts.version ~sid:ts.sid ~value
  | Abort { op } -> add t k_abort ~op ~key:0 ~version:0 ~sid:0 ~value:""
  | Mark { chunk; wal_index } ->
    add t k_mark ~op:0 ~key:chunk ~version:wal_index ~sid:0 ~value:""

let append t record =
  if forces t (kind_of record) then t.syncs <- t.syncs + 1;
  add_record t record

(* Group commit: the whole batch shares one durability point.  Each
   record keeps its per-policy durability time (they are all stamped at
   the same virtual instant anyway), but however many of them the policy
   would force, at most ONE sync is charged — that amortization is the
   point of batching the log writes. *)
let append_batch t records =
  if List.exists (fun r -> forces t (kind_of r)) records then
    t.syncs <- t.syncs + 1;
  List.iter (add_record t) records

(* --- crash and queries ---------------------------------------------------- *)

let chunk_of t i = t.chunks.(i lsr chunk_bits)

let crash t =
  let now = match t.time with Clock c -> c.now | Fn f -> f () in
  (* Keep the rows durable by now, compacted in order.  The boundary is
     INCLUSIVE: a row whose durability time equals the crash time has
     reached stable storage and survives (see wal.mli).  [next_index] is
     deliberately NOT rewound: indices of lost records are retired, never
     reissued. *)
  let kept = ref 0 in
  for i = 0 to t.rows - 1 do
    let c = chunk_of t i and s = i land slot_mask in
    if Float.Array.get c.durable s <= now then begin
      let j = !kept in
      if j < i then begin
        let d = chunk_of t j and r = j land slot_mask in
        d.op.(r) <- c.op.(s);
        d.key.(r) <- c.key.(s);
        d.version.(r) <- c.version.(s);
        d.sid.(r) <- c.sid.(s);
        d.value.(r) <- c.value.(s);
        Float.Array.set d.durable r (Float.Array.get c.durable s);
        d.stamp.(r) <- c.stamp.(s)
      end;
      kept := j + 1
    end
  done;
  (* release the chunks past the survivors and the dropped rows' values *)
  let kept = !kept in
  let nchunks = (kept + slot_mask) lsr chunk_bits in
  Array.fill t.chunks nchunks (t.nchunks - nchunks) no_chunk;
  if kept land slot_mask <> 0 then
    Array.fill (chunk_of t kept).value (kept land slot_mask)
      (chunk_rows - (kept land slot_mask)) "";
  t.nchunks <- nchunks;
  t.lost <- t.lost + (t.n - kept);
  t.rows <- kept;
  t.n <- kept

let kind_at c s = c.stamp.(s) land ((1 lsl kind_bits) - 1)
let index_at c s = c.stamp.(s) asr kind_bits

let apply_row store c s =
  let kind = kind_at c s in
  let op = c.op.(s) and key = c.key.(s) in
  let version = c.version.(s) and sid = c.sid.(s) and value = c.value.(s) in
  if kind = k_stage then
    Store.stage_accum store ~op ~key ~ts:{ Timestamp.version; sid } ~value
  else if kind = k_commit then begin
    Store.abort_staged store ~op;
    ignore (Store.install_flat store ~key ~version ~sid ~value)
  end
  else if kind = k_install then
    ignore (Store.install_flat store ~key ~version ~sid ~value)
  else if kind = k_abort then Store.abort_staged store ~op
  (* a Mark is provisioning progress only; no store effect *)

let replay_from t store ~index =
  if index < 0 then invalid_arg "Wal.replay_from: negative index";
  let applied = ref 0 in
  for i = 0 to t.rows - 1 do
    let c = chunk_of t i and s = i land slot_mask in
    if index_at c s >= index then begin
      apply_row store c s;
      incr applied
    end
  done;
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
  for i = 0 to t.rows - 1 do
    let c = chunk_of t i and s = i land slot_mask in
    let kind = kind_at c s in
    if index_at c s >= index && (kind = k_commit || kind = k_install) then
      Batch.Builder.push b ~key:c.key.(s) ~version:c.version.(s)
        ~sid:c.sid.(s) ~value:c.value.(s)
  done;
  Batch.Builder.snapshot b

(* Resume point of an interrupted provisioning transfer: the newest Mark
   decides.  A completion mark (chunk = -1) resets progress — marks from
   a finished transfer must not make a later rejoin skip its bulk phase. *)
let resume_state t =
  let rec scan i =
    if i < 0 then None
    else
      let c = chunk_of t i and s = i land slot_mask in
      if kind_at c s = k_mark then
        let chunk = c.key.(s) in
        if chunk < 0 then None else Some (chunk + 1, c.version.(s))
      else scan (i - 1)
  in
  scan (t.rows - 1)

let length t = t.n
let lost_total t = t.lost
let syncs t = t.syncs

let pp_policy ppf p = Format.pp_print_string ppf (policy_to_string p)
