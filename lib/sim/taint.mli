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

val loaded : cell:mask -> base:mask -> mask
(** Taint of a loaded value: union of the cell's and the base
    register's taint, marked as through-memory (clean stays clean). *)

val stored : mask -> mask
(** Taint a stored value leaves in its cell: through-memory marked. *)

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

(** Mutable per-run event accumulator, owned by a taint machine. *)
type tracker

val make : cells:int -> tracker
(** [cells] is the memory image size in 4-byte cells. *)

val mem_get : tracker -> int -> mask
val mem_set : tracker -> int -> mask -> unit
val mem_union : tracker -> int -> mask -> unit
(** For byte stores, which overwrite only one lane of a cell. *)

val propagate : tracker -> mask -> unit
(** Note operand taint flowing into a computed result. *)

val sink_control : tracker -> fid:int -> pc:int -> mask -> unit
val sink_address : tracker -> mask -> unit
val sink_trap_operand : tracker -> mask -> unit
val sink_memory : tracker -> mask -> unit

(** {1 Transfer helpers}

    The lattice side of the shadow transfer, shared by both engines;
    an engine only picks the operand masks and the cell. Register
    indices are unchecked: they come from a validated decode. *)

val shade : tracker -> lands:bool -> mask array -> int -> mask -> unit
(** [shade tr ~lands sh d tv]: a write-back of operand taint [tv] to
    register [d] of the bank shadowed by [sh], plus {!fresh} when the
    write-back [lands] a planned fault. *)

val shadow_load :
  tracker -> lands:bool -> mask array -> int -> int -> base:mask -> unit
(** [shadow_load tr ~lands sh d c ~base]: a load from cell [c] ([-1]:
    outside the shadowed image) through a base of taint [base] into
    register [d]: the address sink, then {!shade} with {!loaded}. *)

val shadow_store : tracker -> byte:bool -> int -> base:mask -> mask -> unit
(** [shadow_store tr ~byte c ~base tv]: a store of a value of taint
    [tv] to cell [c] through a base of taint [base]: the address and
    memory sinks, then the cell takes {!stored} of both ([byte]: unions
    into it). *)

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

val summarize : tracker -> func_name:(int -> string) -> summary
