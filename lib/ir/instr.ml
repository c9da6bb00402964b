(* Instruction set of the MIPS-like IR.

   The vocabulary matches what the paper's static analysis needs:
   register-to-register ALU/FPU arithmetic, immediate forms, loads and
   stores through a base register + byte offset, conditional branches,
   unconditional jumps, direct calls and returns. Labels are pseudo
   instructions resolved by the assembler in [Func]. *)

type label = string

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra

type cmpop =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type fbinop =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type funop =
  | Fneg
  | Fabs
  | Fsqrt

type t =
  | Li of Reg.t * int32                      (* load integer immediate *)
  | Lf of Reg.t * float                      (* load float immediate *)
  | La of Reg.t * string                     (* load address of global *)
  | Mov of Reg.t * Reg.t                     (* move, same bank *)
  | Bin of binop * Reg.t * Reg.t * Reg.t     (* dst, src1, src2 *)
  | Bini of binop * Reg.t * Reg.t * int32    (* dst, src, imm *)
  | Cmp of cmpop * Reg.t * Reg.t * Reg.t     (* int compare, dst gets 0/1 *)
  | Fbin of fbinop * Reg.t * Reg.t * Reg.t
  | Fun_ of funop * Reg.t * Reg.t
  | Fcmp of cmpop * Reg.t * Reg.t * Reg.t    (* float compare, int dst *)
  | I2f of Reg.t * Reg.t                     (* float dst, int src *)
  | F2i of Reg.t * Reg.t                     (* int dst, float src; truncates *)
  | Lw of Reg.t * Reg.t * int                (* int dst, base, byte offset *)
  | Sw of Reg.t * Reg.t * int                (* int src, base, byte offset *)
  | Lb of Reg.t * Reg.t * int                (* byte load, zero-extended *)
  | Sb of Reg.t * Reg.t * int                (* byte store, low 8 bits *)
  | Lwf of Reg.t * Reg.t * int               (* float dst, base, offset *)
  | Swf of Reg.t * Reg.t * int               (* float src, base, offset *)
  | Br of cmpop * Reg.t * Reg.t * label      (* branch if cmp holds *)
  | Brz of cmpop * Reg.t * label             (* branch if (r cmp 0) holds *)
  | Jmp of label
  | Call of { dst : Reg.t option; func : string; args : Reg.t list }
  | Ret of Reg.t option
  | Label of label
  | Nop

(* ------------------------------------------------------------------ *)
(* Def/use structure, the raw material of every analysis.              *)

let def = function
  | Li (d, _)
  | Lf (d, _)
  | La (d, _)
  | Mov (d, _)
  | Bin (_, d, _, _)
  | Bini (_, d, _, _)
  | Cmp (_, d, _, _)
  | Fbin (_, d, _, _)
  | Fun_ (_, d, _)
  | Fcmp (_, d, _, _)
  | I2f (d, _)
  | F2i (d, _)
  | Lw (d, _, _)
  | Lb (d, _, _)
  | Lwf (d, _, _) ->
    Some d
  | Call { dst; _ } -> dst
  | Sw _ | Sb _ | Swf _ | Br _ | Brz _ | Jmp _ | Ret _ | Label _ | Nop -> None

let uses = function
  | Li _ | Lf _ | La _ | Jmp _ | Label _ | Nop -> []
  | Mov (_, s) | Bini (_, _, s, _) | Fun_ (_, _, s) | I2f (_, s) | F2i (_, s)
    ->
    [ s ]
  | Bin (_, _, a, b) | Cmp (_, _, a, b) | Fbin (_, _, a, b) | Fcmp (_, _, a, b)
    ->
    [ a; b ]
  | Lw (_, base, _) | Lb (_, base, _) | Lwf (_, base, _) -> [ base ]
  | Sw (v, base, _) | Sb (v, base, _) | Swf (v, base, _) -> [ v; base ]
  | Br (_, a, b, _) -> [ a; b ]
  | Brz (_, a, _) -> [ a ]
  | Call { args; _ } -> args
  | Ret (Some r) -> [ r ]
  | Ret None -> []

(* Registers used to form a memory address. Corrupting these produces a
   wild access, so the protection analysis treats them like control. *)
let addr_uses = function
  | Lw (_, base, _) | Lb (_, base, _) | Lwf (_, base, _)
  | Sw (_, base, _) | Sb (_, base, _) | Swf (_, base, _) ->
    [ base ]
  | _ -> []

(* The value operand of a store: written to memory and not tracked
   further by the static analysis (no memory disambiguation). *)
let stored_value = function
  | Sw (v, _, _) | Sb (v, _, _) | Swf (v, _, _) -> Some v
  | _ -> None

let is_control = function
  | Br _ | Brz _ | Jmp _ | Ret _ -> true
  | _ -> false

let branch_target = function
  | Br (_, _, _, l) | Brz (_, _, l) | Jmp l -> Some l
  | _ -> None

let is_terminator = function
  | Br _ | Brz _ | Jmp _ | Ret _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Printing. *)

let string_of_binop = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"

let string_of_cmpop = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let string_of_fbinop = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let string_of_funop = function
  | Fneg -> "fneg"
  | Fabs -> "fabs"
  | Fsqrt -> "fsqrt"

let to_string i =
  let r = Reg.to_string in
  match i with
  | Li (d, n) -> Printf.sprintf "li    %s, %ld" (r d) n
  | Lf (d, x) -> Printf.sprintf "lf    %s, %h" (r d) x
  | La (d, g) -> Printf.sprintf "la    %s, %s" (r d) g
  | Mov (d, s) -> Printf.sprintf "mov   %s, %s" (r d) (r s)
  | Bin (op, d, a, b) ->
    Printf.sprintf "%-5s %s, %s, %s" (string_of_binop op) (r d) (r a) (r b)
  | Bini (op, d, a, n) ->
    Printf.sprintf "%-5s %s, %s, %ld" (string_of_binop op ^ "i") (r d) (r a) n
  | Cmp (op, d, a, b) ->
    Printf.sprintf "s%-4s %s, %s, %s" (string_of_cmpop op) (r d) (r a) (r b)
  | Fbin (op, d, a, b) ->
    Printf.sprintf "%-5s %s, %s, %s" (string_of_fbinop op) (r d) (r a) (r b)
  | Fun_ (op, d, s) ->
    Printf.sprintf "%-5s %s, %s" (string_of_funop op) (r d) (r s)
  | Fcmp (op, d, a, b) ->
    Printf.sprintf "fs%-3s %s, %s, %s" (string_of_cmpop op) (r d) (r a) (r b)
  | I2f (d, s) -> Printf.sprintf "i2f   %s, %s" (r d) (r s)
  | F2i (d, s) -> Printf.sprintf "f2i   %s, %s" (r d) (r s)
  | Lw (d, b, o) -> Printf.sprintf "lw    %s, %d(%s)" (r d) o (r b)
  | Sw (v, b, o) -> Printf.sprintf "sw    %s, %d(%s)" (r v) o (r b)
  | Lb (d, b, o) -> Printf.sprintf "lbu   %s, %d(%s)" (r d) o (r b)
  | Sb (v, b, o) -> Printf.sprintf "sb    %s, %d(%s)" (r v) o (r b)
  | Lwf (d, b, o) -> Printf.sprintf "lwf   %s, %d(%s)" (r d) o (r b)
  | Swf (v, b, o) -> Printf.sprintf "swf   %s, %d(%s)" (r v) o (r b)
  | Br (op, a, b, l) ->
    Printf.sprintf "b%-4s %s, %s, %s" (string_of_cmpop op) (r a) (r b) l
  | Brz (op, a, l) ->
    Printf.sprintf "b%sz  %s, %s" (string_of_cmpop op) (r a) l
  | Jmp l -> Printf.sprintf "j     %s" l
  | Call { dst; func; args } ->
    let args = String.concat ", " (List.map r args) in
    let dst = match dst with None -> "" | Some d -> r d ^ " = " in
    Printf.sprintf "%scall  %s(%s)" dst func args
  | Ret None -> "ret"
  | Ret (Some v) -> Printf.sprintf "ret   %s" (r v)
  | Label l -> l ^ ":"
  | Nop -> "nop"

let pp fmt i = Format.pp_print_string fmt (to_string i)
