(** Float-keyed binary min-heap with FIFO tie-breaking and flat (unboxed
    key) storage — the simulator's event queue.  A push allocates nothing
    beyond amortized array growth; pop order is identical to a generic
    binary heap over [Float.compare] with insertion-order ties (the test
    suite's equivalence oracle), so swapping one for the other never
    changes a seeded schedule.

    Each entry carries a handler ['h], an int [meta] and a payload ['p]:
    callers that schedule millions of events keep one preallocated
    handler and thread per-event arguments through [meta]/[payload]
    instead of allocating a closure per event. *)

type ('h, 'p) t

val create : dummy_h:'h -> dummy_p:'p -> ('h, 'p) t
(** The dummies fill vacated slots so popped handlers/payloads are not
    retained by the backing arrays. *)

val length : ('h, 'p) t -> int
val is_empty : ('h, 'p) t -> bool

val push : ('h, 'p) t -> float -> 'h -> int -> 'p -> unit

val min_key : ('h, 'p) t -> float
(** Smallest key without popping.  Raises [Invalid_argument] when empty. *)

val pop_apply : ('h, 'p) t -> (float -> 'h -> int -> 'p -> unit) -> bool
(** Pop the minimum entry and apply [f time handler meta payload];
    [false] on an empty heap.  Allocates neither an option nor a pair. *)

val clear : ('h, 'p) t -> unit
