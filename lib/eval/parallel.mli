(** Deterministic multicore fan-out for independent evaluation cells.

    The §4 campaigns (chaos cells, availability trials, baseline
    configurations) are embarrassingly parallel: every cell seeds its own
    engine and RNG and shares nothing.  This driver fans such cells across
    OCaml 5 domains and reassembles results in {e submission order}, so
    campaign output is byte-identical for any domain count — including
    [domains = 1], which runs inline with no domain spawned at all.

    Requirements on tasks: each must be self-contained (build its own
    protocol instance — see {!Quorum.Protocol.fork} — engine and RNG) and
    must not touch shared mutable state.  Tasks may run in any temporal
    order; only the result order is guaranteed.

    No dependencies beyond the stdlib [Domain]/[Atomic] modules. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] applies [f] to every element, running up to
    [domains] applications concurrently, and returns results in input
    order.  An exception raised by any task is re-raised after all domains
    have joined.  When [?domains] is omitted: the [REPRO_DOMAINS]
    environment variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()] capped at 4 (evaluation cells are
    memory-light; more domains than that mostly adds GC noise). *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array variant of {!map}. *)
