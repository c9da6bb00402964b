(* Abstract syntax of Mlang, the small imperative language the
   benchmark applications are written in. It deliberately mirrors the
   C subset the paper's benchmarks use: 32-bit integer and double
   scalars, global arrays, structured control flow, direct calls. *)

type ty =
  | TInt
  | TFlt

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | BAnd
  | BOr
  | BXor
  | Shl
  | Shr   (* logical right shift *)
  | Ashr  (* arithmetic right shift *)

type cmpop =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type expr =
  | Int of int
  | Flt of float
  | Var of string
  | Bin of binop * expr * expr
  | Cmp of cmpop * expr * expr   (* int result 0/1; operands same type *)
  | Neg of expr
  | Not of expr                  (* logical negation of an int *)
  | Load of string * expr        (* global_array.(index) *)
  | Call of string * expr list
  | I2F of expr
  | F2I of expr                  (* truncation toward zero *)

type stmt =
  | Decl of string * expr              (* introduces a local *)
  | Assign of string * expr
  | Store of string * expr * expr      (* global_array.(index) <- value *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * stmt list  (* for v = lo; v < hi; v++ *)
  | Expr of expr                       (* evaluate for effect (calls) *)
  | Return of expr option
  | Break
  | Continue

type func = {
  name : string;
  params : (string * ty) list;
  ret : ty option;
  body : stmt list;
  eligible : bool;  (* may the tagging analysis relax this function? *)
}

type ginit =
  | GZero
  | GInts of int32 array
  | GFlts of float array

type global = {
  gname : string;
  gty : ty;
  byte : bool;  (* unsigned-byte elements (gty must be TInt) *)
  size : int;
  init : ginit;
}

type program = {
  globals : global list;
  funcs : func list;
  entry : string;
}

exception Type_error of string

let string_of_ty = function TInt -> "int" | TFlt -> "float"
