(** Classification of an injected run (paper Section 5): catastrophic
    failures are crashes and "infinite" executions; completed runs are
    scored by the application's fidelity measure.

    Compact by construction — no variant retains the simulator result
    (or its memory image), so classified trials cost O(1) memory. *)

type site = {
  func : string;  (** function containing the trapping instruction *)
  pc : int;  (** body index of that instruction *)
}

type t =
  | Crash of Sim.Trap.t * site option
      (** trap plus the site the interpreter attributed it to *)
  | Infinite  (** exceeded the dynamic-instruction budget *)
  | Completed

val of_result : Sim.Interp.result -> t
val is_catastrophic : t -> bool

val to_string : t -> string
(** Frozen classification wording (no site), as used by campaign text
    output and golden fingerprints. *)

val describe : t -> string
(** Like {!to_string} but crashes include their site when known. *)

val pp : Format.formatter -> t -> unit
