(* Decoded executable image.

   The interpreter does not execute [Ir.Instr.t] directly: labels,
   global names and callee names would force hashtable lookups in the
   hot loop. Decoding resolves every label to a body index, every
   global to its absolute byte address, every call to a function id and
   explicit argument-copy plans, and every register to its bank-local
   index. The decoded body is index-aligned with the IR body ([Label]
   becomes [DNop]), so per-instruction metadata (tags, profiles)
   indexes both forms identically. *)

type call = {
  fid : int;
  dst : int;        (* destination register index, or -1 for none *)
  dst_flt : bool;
  iargs : (int * int) array;  (* (caller int reg, callee int param reg) *)
  fargs : (int * int) array;  (* (caller flt reg, callee flt param reg) *)
}

type d =
  | DNop
  | DLi of int * int
  | DLf of int * float
  | DLa of int * int
  | DMovI of int * int
  | DMovF of int * int
  | DBin of Ir.Instr.binop * int * int * int
  | DBini of Ir.Instr.binop * int * int * int
  | DCmp of Ir.Instr.cmpop * int * int * int
  | DFbin of Ir.Instr.fbinop * int * int * int
  | DFun of Ir.Instr.funop * int * int
  | DFcmp of Ir.Instr.cmpop * int * int * int
  | DI2f of int * int
  | DF2i of int * int
  | DLw of int * int * int
  | DSw of int * int * int
  | DLb of int * int * int
  | DSb of int * int * int
  | DLwf of int * int * int
  | DSwf of int * int * int
  | DBr of Ir.Instr.cmpop * int * int * int
  | DBrz of Ir.Instr.cmpop * int * int
  | DJmp of int
  | DCall of call
  | DRetI of int
  | DRetF of int
  | DRetV

type dfunc = {
  name : string;
  src : Ir.Func.t;
  dbody : d array;
  n_int : int;
  n_flt : int;
}

type t = {
  prog : Ir.Prog.t;
  funcs : dfunc array;
  fid_of_name : (string, int) Hashtbl.t;
  entry_fid : int;
}

let ridx = Ir.Reg.index

let decode_func prog fid_of_name (f : Ir.Func.t) =
  let target l = Ir.Func.label_index f l in
  let decode (i : Ir.Instr.t) : d =
    match i with
    | Label _ | Nop -> DNop
    | Li (d, n) -> DLi (ridx d, Value.of_int32 n)
    | Lf (d, x) -> DLf (ridx d, x)
    | La (d, g) -> DLa (ridx d, Ir.Prog.global_addr prog g)
    | Mov (d, s) ->
      if Ir.Reg.is_int d then DMovI (ridx d, ridx s) else DMovF (ridx d, ridx s)
    | Bin (op, d, a, b) -> DBin (op, ridx d, ridx a, ridx b)
    | Bini (op, d, a, n) -> DBini (op, ridx d, ridx a, Value.of_int32 n)
    | Cmp (op, d, a, b) -> DCmp (op, ridx d, ridx a, ridx b)
    | Fbin (op, d, a, b) -> DFbin (op, ridx d, ridx a, ridx b)
    | Fun_ (op, d, s) -> DFun (op, ridx d, ridx s)
    | Fcmp (op, d, a, b) -> DFcmp (op, ridx d, ridx a, ridx b)
    | I2f (d, s) -> DI2f (ridx d, ridx s)
    | F2i (d, s) -> DF2i (ridx d, ridx s)
    | Lw (d, b, o) -> DLw (ridx d, ridx b, o)
    | Sw (v, b, o) -> DSw (ridx v, ridx b, o)
    | Lb (d, b, o) -> DLb (ridx d, ridx b, o)
    | Sb (v, b, o) -> DSb (ridx v, ridx b, o)
    | Lwf (d, b, o) -> DLwf (ridx d, ridx b, o)
    | Swf (v, b, o) -> DSwf (ridx v, ridx b, o)
    | Br (op, a, b, l) -> DBr (op, ridx a, ridx b, target l)
    | Brz (op, a, l) -> DBrz (op, ridx a, target l)
    | Jmp l -> DJmp (target l)
    | Call { dst; func; args } ->
      let callee = Ir.Prog.get_func prog func in
      let iargs = ref [] and fargs = ref [] in
      List.iter2
        (fun formal actual ->
          if Ir.Reg.is_int formal then
            iargs := (ridx actual, ridx formal) :: !iargs
          else fargs := (ridx actual, ridx formal) :: !fargs)
        callee.Ir.Func.params args;
      DCall
        {
          fid = Hashtbl.find fid_of_name func;
          dst = (match dst with None -> -1 | Some d -> ridx d);
          dst_flt = (match dst with Some d -> Ir.Reg.is_flt d | None -> false);
          iargs = Array.of_list (List.rev !iargs);
          fargs = Array.of_list (List.rev !fargs);
        }
    | Ret None -> DRetV
    | Ret (Some r) -> if Ir.Reg.is_int r then DRetI (ridx r) else DRetF (ridx r)
  in
  {
    name = f.Ir.Func.name;
    src = f;
    dbody = Array.map decode f.Ir.Func.body;
    n_int = f.Ir.Func.n_int_regs;
    n_flt = f.Ir.Func.n_flt_regs;
  }

let of_prog (prog : Ir.Prog.t) =
  Ir.Validate.check_exn prog;
  let funcs_list = Ir.Prog.funcs prog in
  let fid_of_name = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Ir.Func.t) -> Hashtbl.replace fid_of_name f.Ir.Func.name i)
    funcs_list;
  let funcs =
    Array.of_list (List.map (decode_func prog fid_of_name) funcs_list)
  in
  { prog; funcs; fid_of_name; entry_fid = Hashtbl.find fid_of_name prog.Ir.Prog.entry }

let func t fid = t.funcs.(fid)
let fid t name = Hashtbl.find_opt t.fid_of_name name
