(** Instruction set of the MIPS-like IR.

    Instructions are laid out linearly inside a function body; [Label]
    is a pseudo-instruction marking branch targets. All loads and
    stores address memory in bytes through a base register plus a
    constant byte offset; every access must be 4-byte aligned. *)

type label = string

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra
type cmpop = Eq | Ne | Lt | Le | Gt | Ge
type fbinop = Fadd | Fsub | Fmul | Fdiv
type funop = Fneg | Fabs | Fsqrt

type t =
  | Li of Reg.t * int32
  | Lf of Reg.t * float
  | La of Reg.t * string
  | Mov of Reg.t * Reg.t
  | Bin of binop * Reg.t * Reg.t * Reg.t
  | Bini of binop * Reg.t * Reg.t * int32
  | Cmp of cmpop * Reg.t * Reg.t * Reg.t
  | Fbin of fbinop * Reg.t * Reg.t * Reg.t
  | Fun_ of funop * Reg.t * Reg.t
  | Fcmp of cmpop * Reg.t * Reg.t * Reg.t
  | I2f of Reg.t * Reg.t
  | F2i of Reg.t * Reg.t
  | Lw of Reg.t * Reg.t * int
  | Sw of Reg.t * Reg.t * int
  | Lb of Reg.t * Reg.t * int
      (** byte load, zero-extended; never alignment-traps *)
  | Sb of Reg.t * Reg.t * int  (** byte store of the low 8 bits *)
  | Lwf of Reg.t * Reg.t * int
  | Swf of Reg.t * Reg.t * int
  | Br of cmpop * Reg.t * Reg.t * label
  | Brz of cmpop * Reg.t * label
  | Jmp of label
  | Call of { dst : Reg.t option; func : string; args : Reg.t list }
  | Ret of Reg.t option
  | Label of label
  | Nop

val def : t -> Reg.t option
(** The register written by the instruction, if any. *)

val uses : t -> Reg.t list
(** All registers read by the instruction (including address bases and
    stored values). *)

val addr_uses : t -> Reg.t list
(** Registers used to form a memory address; corrupting one yields a
    wild access, so protection treats them like control. *)

val stored_value : t -> Reg.t option
(** The value operand of a store, which escapes to memory and is not
    tracked further by the static analysis. *)

val is_control : t -> bool
(** Branches, jumps and returns. *)

val branch_target : t -> label option

val is_terminator : t -> bool
(** True if control never falls through to the next instruction
    unconditionally ([Jmp], [Ret]) or may leave the straight line
    ([Br], [Brz]). *)

val string_of_binop : binop -> string
val string_of_cmpop : cmpop -> string
val string_of_fbinop : fbinop -> string
val string_of_funop : funop -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
