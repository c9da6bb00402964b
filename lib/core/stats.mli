(** Streaming statistics for campaign results.

    {!acc} is a single-pass accumulator over floats (Welford
    mean/variance, running min/max); {!t} adds the campaign outcome
    breakdown (crashes / infinite / completed) with a fidelity
    accumulator over the scored completed trials. Both are immutable
    and merge associatively, so per-domain partial statistics combine
    without revisiting trials. *)

type acc

val acc_empty : acc
val acc_add : acc -> float -> acc

val acc_merge : acc -> acc -> acc
(** [acc_merge a b] equals (up to floating-point rounding) the
    accumulator built by adding [a]'s and [b]'s observations to one
    accumulator. *)

val acc_count : acc -> int

val acc_mean : acc -> float option
(** [None] when empty — never [nan]. *)

val acc_variance : acc -> float option
(** Population variance (divide by [n]). *)

val acc_stddev : acc -> float option
val acc_min : acc -> float option
val acc_max : acc -> float option

(** Additive fault-flow class counters (shadow-taint taxonomy). Only
    trials run with taint on feed them, so their total can be below
    {!t.n}. *)
type flows = {
  vanished : int;
  data_only : int;
  reached_memory : int;
  reached_address : int;
  reached_control : int;
}

val flows_get : flows -> Sim.Taint.flow -> int

type t = {
  n : int;  (** trials observed *)
  crashes : int;
  infinite : int;
  completed : int;
  fidelity : acc;  (** over completed trials that were scored *)
  flows : flows;  (** taint-mode trials only *)
}

val empty : t

val observe : ?flow:Sim.Taint.flow -> t -> Outcome.t -> fidelity:float option -> t
(** Count one classified trial; a [Some] fidelity on a completed trial
    also feeds the fidelity accumulator, and a [flow] feeds the
    fault-flow counters. *)

val merge : t -> t -> t
val catastrophic : t -> int

val pct_catastrophic : t -> float
(** [0.0] on the empty summary. *)

val mean_fidelity : t -> float option
(** [None] when no completed trial was scored — never [nan]. *)
