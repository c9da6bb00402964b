(** A keyed table in which each key's value is built once.

    Concurrent callers of one key wait for its one build, while
    distinct keys build at the same time. The table lock is held only
    to find, insert, touch or evict a key: builds run outside it. A
    build that raises stores nothing. Its exception goes to the caller
    that ran it, and each caller that was waiting on it, like the next
    caller, builds again itself. *)

type retention =
  | All  (** keep every built value *)
  | Recent of int
      (** keep the [n >= 1] most recently used keys: a new key past the
          bound first evicts the least recently used one *)
  | Until_built
      (** keep a key only while its build runs: a caller that joins
          mid-build gets the value, a later caller builds afresh *)

type ('k, 'v) t

val create : ?on_evict:(unit -> unit) -> retention -> ('k, 'v) t
(** [on_evict] runs once per key that a [Recent] table evicts, under
    the table lock. *)

val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [get t k build] is [k]'s value, with [true] when this call found
    it (built, or being built by another caller) and [false] when this
    call ran [build] for it. *)

val waiters : ('k, 'v) t -> 'k -> int
(** Callers waiting on [k]'s running build; 0 when none runs. *)

val length : ('k, 'v) t -> int
(** Keys held, built or building. *)

val values : ('k, 'v) t -> 'v list
(** The built values held. *)
