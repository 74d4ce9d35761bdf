(** Float-keyed 4-ary min-heap with FIFO tie-breaking and flat (unboxed
    key) storage — the simulator's event queue.  Pop order is identical to
    a generic binary heap over [Float.compare] with insertion-order ties
    (the test suite's equivalence oracle), so swapping one for the other
    never changes a seeded schedule.

    The heap stores no box, but a float that crosses a call boundary is
    boxed (two words) in the repository's builds (no flambda; dune's dev
    profile compiles with [-opaque]).  [push] and [pop_apply] take and
    hand out keys as float arguments, so a caller that computes its key
    pays for a box per push and every pop pays for one.  The event-clock
    pair [push_after]/[pop_run] moves time through a {!clock} record
    instead, and allocates nothing beyond amortized array growth.

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

type clock = { mutable now : float }
(** An event clock.  A float-only record stores its field flat, so
    reading and writing [now] allocates nothing. *)

val push_after : ('h, 'p) t -> clock -> float -> 'h -> int -> 'p -> unit
(** [push_after t clock delay h meta p] queues the entry at key
    [clock.now +. delay], summed here: a caller passing on the delay it
    was given allocates nothing. *)

val push : ('h, 'p) t -> float -> 'h -> int -> 'p -> unit
(** Queue the entry at an absolute key ([push_after] from a clock at 0). *)

val pop_run : ('h, 'p) t -> clock -> ('h -> int -> 'p -> unit) -> bool
(** Pop the minimum entry, store its key in [clock.now], then apply
    [f handler meta payload]; [false] on an empty heap.  Allocates
    nothing. *)

val pop_apply : ('h, 'p) t -> (float -> 'h -> int -> 'p -> unit) -> bool
(** [pop_run] handing the key to [f time handler meta payload] — a clock,
    a closure and a boxed key per pop. *)

val due : ('h, 'p) t -> float -> bool
(** The heap is non-empty and its smallest key is at most [limit]: the
    bounded run loop's test, with no key returned (and boxed). *)

val clear : ('h, 'p) t -> unit
