(* Combinators for writing Mlang programs directly in OCaml.

   The applications in [lib/apps] are written against this module; it
   is the ergonomic surface of the language. Integer operators are
   suffixed with [!], float operators with [!.], comparisons yield
   Mlang ints (0/1) in both cases. *)

open Ast

let i n = Int n
let f x = Flt x
let v name = Var name

(* Integer arithmetic. *)
let ( +! ) a b = Bin (Add, a, b)
let ( -! ) a b = Bin (Sub, a, b)
let ( *! ) a b = Bin (Mul, a, b)
let ( /! ) a b = Bin (Div, a, b)
let ( %! ) a b = Bin (Rem, a, b)
let ( &! ) a b = Bin (BAnd, a, b)
let ( |! ) a b = Bin (BOr, a, b)
let ( ^! ) a b = Bin (BXor, a, b)
let ( <<! ) a b = Bin (Shl, a, b)
let ( >>! ) a b = Bin (Shr, a, b)
let ( >>>! ) a b = Bin (Ashr, a, b)

(* Float arithmetic (same constructors; the typechecker separates). *)
let ( +!. ) a b = Bin (Add, a, b)
let ( -!. ) a b = Bin (Sub, a, b)
let ( *!. ) a b = Bin (Mul, a, b)
let ( /!. ) a b = Bin (Div, a, b)

(* Comparisons (operands of one type, integer 0/1 result). *)
let ( ==! ) a b = Cmp (Eq, a, b)
let ( <>! ) a b = Cmp (Ne, a, b)
let ( <! ) a b = Cmp (Lt, a, b)
let ( <=! ) a b = Cmp (Le, a, b)
let ( >! ) a b = Cmp (Gt, a, b)
let ( >=! ) a b = Cmp (Ge, a, b)

let neg e = Neg e

(* Short-circuit-free logical connectives on 0/1 ints. *)
let ( &&! ) a b = Bin (BAnd, a, b)
let ( ||! ) a b = Bin (BOr, a, b)

let i2f e = I2F e
let f2i e = F2I e

(* Array access: [arr.%(idx)] loads, [arr.%(idx) <- e] is [sto]. *)
let ( .%() ) name idx = Load (name, idx)
let sto name idx value = Store (name, idx, value)

let call name args = Call (name, args)

(* Statements. *)
let let_ name e = Decl (name, e)
let set name e = Assign (name, e)
let if_ cond then_ else_ = If (cond, then_, else_)
let when_ cond then_ = If (cond, then_, [])
let while_ cond body = While (cond, body)
let for_ name lo hi body = For (name, lo, hi, body)
let expr e = Expr e
let call_ name args = Expr (Call (name, args))
let ret e = Return (Some e)
let ret_void = Return None
let break_ = Break
let continue_ = Continue

(* Declarations. *)
let fn ?(eligible = true) name params ~ret body =
  { name; params; ret; body; eligible }

let proc ?(eligible = true) name params body =
  { name; params; ret = None; body; eligible }

let p_int name = (name, TInt)

let garray ?(init = GZero) name size =
  { gname = name; gty = TInt; byte = false; size; init }

let garray_f ?(init = GZero) name size =
  { gname = name; gty = TFlt; byte = false; size; init }

(* Unsigned-byte element arrays (images, text, LUTs): loads
   zero-extend, stores keep the low 8 bits, accesses never
   alignment-trap — the uchar semantics of the original benchmarks. *)
let garray_b ?(init = GZero) name size =
  { gname = name; gty = TInt; byte = true; size; init }

let garray_init name data = garray ~init:(GInts data) name (Array.length data)

let garray_init_f name data =
  garray_f ~init:(GFlts data) name (Array.length data)

let garray_init_b name data =
  garray_b ~init:(GInts data) name (Array.length data)

let program ?(entry = "main") globals funcs = { globals; funcs; entry }
