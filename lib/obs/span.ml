type phase_kind = Query | Prepare | Commit | Lock

let phase_kind_name = function
  | Query -> "query"
  | Prepare -> "prepare"
  | Commit -> "commit"
  | Lock -> "lock"

let kind_code = function Query -> 0 | Prepare -> 1 | Commit -> 2 | Lock -> 3
let kind_of_code = function 0 -> Query | 1 -> Prepare | 2 -> Commit | _ -> Lock

type phase = {
  kind : phase_kind;
  p_started : float;
  p_ended : float option;
  quorum : int list;
  timed_out : bool;
}

type outcome = Ok | Failed of string

type times = {
  started : float;
  mutable ended : float;
  mutable backoff_total : float;
}

type t = {
  id : int;
  op : string;
  site : int;
  key : int;
  at : times;
  mutable attempts : int;
  mutable outcome : outcome;
  mutable version : int;
  mutable sid : int;
  mutable codes : int array;
  mutable bounds : floatarray;
  mutable members : int array;
}

(* Absent key or result timestamp. *)
let absent = min_int

(* Phase [i]'s code packs its kind (bits 0-1), its timed-out flag (bit 2)
   and its member count (bits 3 and up); it starts at [bounds.(2i)] and
   ends at [bounds.(2i+1)], [nan] while open; its members follow those of
   phases [0 .. i-1] in [members].  Each array is exactly as long as its
   contents, so a closed span holds no slack.  The span's own end is
   [nan] while it is open. *)

let code_kind c = kind_of_code (c land 3)
let code_timed_out c = c land 4 <> 0
let code_count c = c lsr 3
let no_bounds = Float.Array.create 0

let create ~id ~op ~site ?key ~started () =
  {
    id;
    op;
    site;
    key = (match key with None -> absent | Some k -> k);
    at = { started; ended = Float.nan; backoff_total = 0.0 };
    attempts = 1;
    outcome = Ok;
    version = absent;
    sid = 0;
    codes = [||];
    bounds = no_bounds;
    members = [||];
  }

let n_phases t = Array.length t.codes

let grow_ints a extra =
  let b = Array.make (Array.length a + extra) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let live_count src len =
  let c = ref 0 in
  for i = 0 to len - 1 do
    if src.(i) >= 0 then incr c
  done;
  !c

let copy_live src len dst at =
  let j = ref at in
  for i = 0 to len - 1 do
    let m = src.(i) in
    if m >= 0 then begin
      dst.(!j) <- m;
      incr j
    end
  done

(* The newest phase when it is still open, else -1. *)
let open_phase t =
  let i = n_phases t - 1 in
  if i >= 0 && Float.is_nan (Float.Array.get t.bounds ((2 * i) + 1)) then i
  else -1

let add_phase t ~kind ~started src len =
  let count = live_count src len in
  let i = n_phases t in
  t.codes <- grow_ints t.codes 1;
  t.codes.(i) <- kind_code kind lor (count lsl 3);
  let bounds = Float.Array.make ((2 * i) + 2) Float.nan in
  Float.Array.blit t.bounds 0 bounds 0 (2 * i);
  Float.Array.set bounds (2 * i) started;
  t.bounds <- bounds;
  if count > 0 then begin
    let at = Array.length t.members in
    t.members <- grow_ints t.members count;
    copy_live src len t.members at
  end

let set_members t src len =
  let i = open_phase t in
  if i >= 0 then begin
    let c = t.codes.(i) in
    let at = Array.length t.members - code_count c in
    let count = live_count src len in
    let members = Array.make (at + count) 0 in
    Array.blit t.members 0 members 0 at;
    copy_live src len members at;
    t.members <- members;
    t.codes.(i) <- (c land 7) lor (count lsl 3)
  end

let close_phase t i ~ended ~timed_out =
  Float.Array.set t.bounds ((2 * i) + 1) ended;
  if timed_out then t.codes.(i) <- t.codes.(i) lor 4

let phase_kind t i = code_kind t.codes.(i)

let phase_latency t i =
  Float.Array.get t.bounds ((2 * i) + 1) -. Float.Array.get t.bounds (2 * i)

let add_retry t ~backoff =
  t.attempts <- t.attempts + 1;
  t.at.backoff_total <- t.at.backoff_total +. backoff

let set_result_ts t ~version ~sid =
  t.version <- version;
  t.sid <- sid

let close t ~ended ~outcome =
  t.at.ended <- ended;
  t.outcome <- outcome

(* --- reading ---------------------------------------------------------------- *)

let id t = t.id
let op t = t.op
let site t = t.site
let key t = if t.key = absent then None else Some t.key
let started t = t.at.started
let closed t = not (Float.is_nan t.at.ended)
let ended t = if closed t then Some t.at.ended else None
let outcome t = if closed t then Some t.outcome else None

let result_ts t =
  if t.version = absent then None else Some (t.version, t.sid)

let attempts t = t.attempts
let backoff_total t = t.at.backoff_total
let retries t = max 0 (t.attempts - 1)

let duration t =
  if closed t then Some (t.at.ended -. t.at.started) else None

let phase_duration p =
  match p.p_ended with None -> None | Some e -> Some (e -. p.p_started)

let phases t =
  let at = ref 0 in
  List.init (n_phases t) (fun i ->
      let c = t.codes.(i) in
      let count = code_count c in
      let first = !at in
      at := first + count;
      let e = Float.Array.get t.bounds ((2 * i) + 1) in
      {
        kind = code_kind c;
        p_started = Float.Array.get t.bounds (2 * i);
        p_ended = (if Float.is_nan e then None else Some e);
        quorum = List.init count (fun j -> t.members.(first + j));
        timed_out = code_timed_out c;
      })

(* --- JSON rendering ------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Every number reads back as the float it renders: the shortest of 15,
   16 and 17 significant digits that does.  Virtual times past 10^5 ms
   need more than six digits to keep events in order. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec shortest digits =
      let s = Printf.sprintf "%.*g" digits f in
      if digits = 17 || float_of_string s = f then s else shortest (digits + 1)
    in
    shortest 15

let phase_json p =
  Printf.sprintf
    "{\"phase\":\"%s\",\"started\":%s,\"ended\":%s,\"timed_out\":%b,\"quorum\":[%s]}"
    (phase_kind_name p.kind) (num p.p_started)
    (match p.p_ended with None -> "null" | Some e -> num e)
    p.timed_out
    (String.concat "," (List.map string_of_int p.quorum))

let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "{\"id\":%d,\"op\":\"%s\"" t.id (escape t.op));
  Buffer.add_string b (Printf.sprintf ",\"site\":%d" t.site);
  (match key t with
  | Some k -> Buffer.add_string b (Printf.sprintf ",\"key\":%d" k)
  | None -> ());
  Buffer.add_string b (Printf.sprintf ",\"started\":%s" (num t.at.started));
  Buffer.add_string b
    (Printf.sprintf ",\"ended\":%s"
       (match ended t with None -> "null" | Some e -> num e));
  (match outcome t with
  | Some Ok -> Buffer.add_string b ",\"outcome\":\"ok\""
  | Some (Failed reason) ->
    Buffer.add_string b
      (Printf.sprintf ",\"outcome\":\"failed\",\"reason\":\"%s\"" (escape reason))
  | None -> Buffer.add_string b ",\"outcome\":null");
  (match result_ts t with
  | Some (version, sid) ->
    Buffer.add_string b
      (Printf.sprintf ",\"result_ts\":{\"version\":%d,\"sid\":%d}" version sid)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf ",\"attempts\":%d,\"retries\":%d,\"backoff_total\":%s"
       t.attempts (retries t) (num t.at.backoff_total));
  Buffer.add_string b ",\"phases\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (phase_json p))
    (phases t);
  Buffer.add_string b "]}";
  Buffer.contents b
