(** Deterministic fan-out over OCaml 5 domains.

    Each call is one batch on a process-wide {!Executor}: free domains
    claim jobs one at a time, and results come back in index order, so
    for any order-independent [f] the output is bit-exact with a
    sequential run regardless of [jobs] or of which domain ran what.
    Calls nest: a call made inside a job is a batch on the same
    executor.

    [f] must not touch shared mutable state (campaign trials qualify:
    each builds its own RNG, plan and memory image from the index). *)

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core
    for the orchestrating domain. *)

val map_n : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map_n ?jobs n f] is [[| f 0; ...; f (n-1) |]], computed on at most
    [min jobs n] domains at once, the caller's included. [jobs]
    defaults to {!default_jobs}[ ()] and is clamped to [\[1, n\]]; at
    [1] every job runs inline on the caller and no executor is
    created. Either way the exception of the lowest raising index is
    the one re-raised. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_n] over a list, preserving order. *)
