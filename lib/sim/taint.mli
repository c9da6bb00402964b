(** Shadow taint for dynamic fault-flow classification.

    A 2-bit mask rides alongside every register and memory cell of a
    taint machine ([Interp.machine ~taint:true]): bit 0 marks values
    derived from an injected fault, bit 1 marks chains that passed
    through memory (store/load round trips, loads through corrupted
    bases). Bit 1 is sticky and mirrors the paper's "no memory
    disambiguation": the tagging analysis deliberately loses track of
    values at memory, so through-memory contamination of control is the
    documented residual rather than a soundness violation. See
    DESIGN.md §11. *)

type mask = int

val none : mask
val fresh : mask
(** Seeded at an injection site: tainted along a memory-free chain. *)

(** Fault-flow taxonomy of one trial, ordered by severity. *)
type flow =
  | Vanished        (** taint never propagated past the injected register *)
  | Data_only       (** propagated through registers, reached no sink *)
  | Reached_memory  (** a tainted value was stored *)
  | Reached_address
      (** a tainted load/store base, integer div/rem denominator or
          [F2i] operand — the crash-capable operand sinks *)
  | Reached_control (** a tainted branch operand *)

val flow_to_string : flow -> string
val pp_flow : Format.formatter -> flow -> unit

(** The sink tracker and the per-instruction transfer (sinks, the
    load/store marking, the shade of a write-back) are internal to the
    simulator: they live with the fast engine, which inlines them, and
    the reference loop calls the same definitions. A run's
    [Interp.result.fault_flow] carries the summary below. *)

type summary = {
  flow : flow;
  control_free : int;
      (** control contaminations along memory-free chains — must be 0
          under [Protect_control] (the tagging soundness invariant) *)
  control_via_memory : int;
      (** control contaminations whose chain passed through memory —
          the paper's documented residual *)
  address_hits : int;
  trap_operand_hits : int;
  memory_hits : int;
  first_control : (string * int) option;
      (** (function, body index) of the first memory-free control
          contamination, the audit's violation witness *)
}
