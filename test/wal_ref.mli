(** List-based write-ahead log — the reference implementation
    {!Replication.Wal} is checked against.  It keeps every record,
    including the ones its policy never makes durable, until a crash
    drops them. *)

type t

val create :
  ?policy:Replication.Wal.policy -> now:(unit -> float) -> unit -> t

val next_index : t -> int
val append : t -> Replication.Wal.record -> unit
val append_batch : t -> Replication.Wal.record list -> unit
val crash : t -> unit
val replay : t -> Replication.Store.t -> int
val replay_from : t -> Replication.Store.t -> index:int -> int
val committed_since : t -> index:int -> Replication.Batch.t
val resume_state : t -> (int * int) option
val length : t -> int
val lost_total : t -> int
val syncs : t -> int
