(** Dynamic taint audit of the tagging analysis.

    Runs a campaign with shadow taint on
    ({!Campaign.run} with [~taint:true]) and checks, per policy, the
    promise the static analysis makes:

    - [Protect_control]: no fault reaches a branch operand along a
      memory-free chain (through-memory contamination is the paper's
      documented residual — no memory disambiguation — and is reported,
      not flagged);
    - [Protect_all]: nothing is injectable, so taint never propagates;
    - [Protect_nothing]: no promise — its control contamination is the
      experiment's positive control.

    See DESIGN.md §11. *)

type violation = {
  trial : int;
  site : (string * int) option;
      (** (function, body index) of the first memory-free branch whose
          operand was tainted *)
}

type report = {
  policy : Policy.t;
  errors : int;  (** per-trial faults requested *)
  errors_planned : int;  (** after the injectable-pool cap *)
  trials : int;
  seed : int;
  injectable_total : int;
  stats : Stats.t;  (** includes the fault-flow class counters *)
  control_free : int;  (** memory-free control contaminations, summed *)
  control_via_memory : int;  (** through-memory residual, summed *)
  address_hits : int;
  trap_operand_hits : int;
  memory_hits : int;
  violations : violation list;
}

val run :
  ?jobs:int -> Campaign.prepared -> errors:int -> trials:int -> seed:int ->
  report
(** Deterministic and jobs-independent, like {!Campaign.run}. *)

val sound : report -> bool
(** No trial broke the policy's promise. *)

val describe : report -> string
(** One-line verdict, naming the first violation site if any. *)

val check : report -> unit
(** Raises [Failure] with {!describe} when the report is not sound. *)
