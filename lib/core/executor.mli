(** A work-claiming executor over OCaml 5 domains.

    Worker domains drain batches of jobs from one rotating queue: a
    worker takes one job from the head batch and rotates the batch to
    the tail, so concurrent batches interleave. Submitters that [help]
    run queued jobs while they wait, which makes nested submits
    deadlock-free and lets a nested batch be claimed by any free
    domain: a matrix cell's missed trials, submitted from inside the
    cell's job, are run by whichever domain is free. [Core.Pool] runs
    every fan-out of the tree on one process-wide instance; the serve
    daemon owns another. *)

type t

val create : unit -> t
(** An executor with no workers. Spawns nothing: jobs submitted with
    [~help:true] still complete, on the submitter. *)

val grow : t -> int -> unit
(** [grow t n] spawns workers until [t] has at least [n]. Workers are
    never retired before {!shutdown}. *)

val submit_batch : t -> ?limit:int -> help:bool -> (unit -> unit) array -> unit
(** Queue the jobs as one batch and block until every one has finished.
    At most [limit] (default unbounded) of them run at once. With
    [help] the caller runs queued jobs — any batch's — while it waits;
    without, it waits passively (serve's connection threads, whose
    domain-0 obs buffer is not theirs to write). Jobs must not raise:
    each stores its own outcome. *)

val map_n : t -> ?limit:int -> help:bool -> int -> (int -> 'a) -> 'a array
(** [map_n t ~help n f] is [[| f 0; ...; f (n-1) |]], computed as one
    batch. Every job runs even if some raise; afterwards the exception
    of the lowest raising index is re-raised. *)

val map : t -> help:bool -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_n} over a list, preserving order, with no limit. *)

type stats = {
  workers : int;
  busy : int;  (** workers not parked; approximate by nature *)
  queued_jobs : int;  (** jobs not yet handed to any runner *)
  queued_batches : int;
}

val stats : t -> stats

val shutdown : t -> unit
(** Stop the workers once the queue drains, and join them. *)
