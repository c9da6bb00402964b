(* Recursive-descent parser for Mlang's C-like surface syntax.

     // edge response kernel
     global byte img[1024] = { 12, 13, 200 };
     global int out[32];
     global float weights[8] = { 0.5, 0.25 };

     int clamp255(int x) {
       if (x > 255) { return 255; }
       return x;
     }

     protected int main() {        // 'protected' = ineligible
       int acc = 0;
       for (int k = 0; k < 32; k = k + 1) {
         acc = acc + img[k];
         out[k] = clamp255(acc);
       }
       while (acc > 0) { acc = acc >> 1; }
       return acc;
     }

   Operator precedence, loosest to tightest:
     || ; && ; | ; ^ ; & ; == != ; < <= > >= ; << >> >>> ; + - ;
     * / % ; unary - ! ; postfix [] () .
   `i2f(e)` and `f2i(e)` are built-in conversions. For loops are
   restricted to the upward-counting shape the core language has:
     for (int i = LO; i < HI; i = i + 1) { ... }  (or i++). *)

open Ast

type error = {
  line : int;
  message : string;
}

exception Parse_error of error

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

type p = { lx : Lexer.t }

let errorf p fmt =
  Printf.ksprintf
    (fun message -> raise (Parse_error { line = Lexer.line p.lx; message }))
    fmt

let peek p = Lexer.peek p.lx
let advance p = ignore (Lexer.next p.lx)

let expect_punct p s =
  match Lexer.next p.lx with
  | Lexer.PUNCT x when x = s -> ()
  | tok -> errorf p "expected %S, got %S" s (Lexer.string_of_token tok)

let expect_kw p s =
  match Lexer.next p.lx with
  | Lexer.KW x when x = s -> ()
  | tok -> errorf p "expected %S, got %S" s (Lexer.string_of_token tok)

let expect_ident p =
  match Lexer.next p.lx with
  | Lexer.IDENT s -> s
  | tok -> errorf p "expected an identifier, got %S" (Lexer.string_of_token tok)

let accept_punct p s =
  match peek p with
  | Lexer.PUNCT x when x = s ->
    advance p;
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)

let binop_of_op = function
  | "+" -> Some Add
  | "-" -> Some Sub
  | "*" -> Some Mul
  | "/" -> Some Div
  | "%" -> Some Rem
  | "&" -> Some BAnd
  | "|" -> Some BOr
  | "^" -> Some BXor
  | "<<" -> Some Shl
  | ">>>" -> Some Shr   (* logical, like Java *)
  | ">>" -> Some Ashr
  | _ -> None

let cmpop_of_op = function
  | "==" -> Some Eq
  | "!=" -> Some Ne
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | _ -> None

(* precedence levels, loosest first; each is a list of operator
   spellings handled left-associatively at that level *)
let levels =
  [
    [ "||" ];
    [ "&&" ];
    [ "|" ];
    [ "^" ];
    [ "&" ];
    [ "=="; "!=" ];
    [ "<"; "<="; ">"; ">=" ];
    [ "<<"; ">>"; ">>>" ];
    [ "+"; "-" ];
    [ "*"; "/"; "%" ];
  ]

let mk_binary p op a b =
  match op with
  | "||" -> Bin (BOr, a, b)   (* non-short-circuit on 0/1 values *)
  | "&&" -> Bin (BAnd, a, b)
  | _ -> begin
    match (binop_of_op op, cmpop_of_op op) with
    | Some bop, _ -> Bin (bop, a, b)
    | None, Some cop -> Cmp (cop, a, b)
    | None, None -> errorf p "unknown operator %S" op
  end

let rec parse_expr p = parse_level p levels

and parse_level p = function
  | [] -> parse_unary p
  | ops :: tighter ->
    let rec loop acc =
      match peek p with
      | Lexer.OP o when List.mem o ops ->
        advance p;
        let rhs = parse_level p tighter in
        loop (mk_binary p o acc rhs)
      | _ -> acc
    in
    loop (parse_level p tighter)

and parse_unary p =
  match peek p with
  | Lexer.OP "-" ->
    advance p;
    (* negative literals fold directly *)
    (match parse_unary p with
     | Int n -> Int (-n)
     | Flt x -> Flt (-.x)
     | e -> Neg e)
  | Lexer.OP "!" ->
    advance p;
    Not (parse_unary p)
  | _ -> parse_primary p

and parse_primary p =
  match Lexer.next p.lx with
  | Lexer.INT n -> Int n
  | Lexer.FLOAT x -> Flt x
  | Lexer.PUNCT "(" ->
    let e = parse_expr p in
    expect_punct p ")";
    e
  | Lexer.IDENT "i2f" when peek p = Lexer.PUNCT "(" ->
    advance p;
    let e = parse_expr p in
    expect_punct p ")";
    I2F e
  | Lexer.IDENT "f2i" when peek p = Lexer.PUNCT "(" ->
    advance p;
    let e = parse_expr p in
    expect_punct p ")";
    F2I e
  | Lexer.IDENT name -> begin
    match peek p with
    | Lexer.PUNCT "(" ->
      advance p;
      Call (name, parse_args p)
    | Lexer.PUNCT "[" ->
      advance p;
      let idx = parse_expr p in
      expect_punct p "]";
      Load (name, idx)
    | _ -> Var name
  end
  | tok -> errorf p "expected an expression, got %S" (Lexer.string_of_token tok)

and parse_args p =
  if accept_punct p ")" then []
  else begin
    let rec loop acc =
      let e = parse_expr p in
      if accept_punct p "," then loop (e :: acc)
      else begin
        expect_punct p ")";
        List.rev (e :: acc)
      end
    in
    loop []
  end

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)

let parse_ty p =
  match Lexer.next p.lx with
  | Lexer.KW "int" -> TInt
  | Lexer.KW "float" -> TFlt
  | tok -> errorf p "expected a type, got %S" (Lexer.string_of_token tok)

let rec parse_block p : stmt list =
  expect_punct p "{";
  let rec loop acc =
    if accept_punct p "}" then List.rev acc else loop (parse_stmt p :: acc)
  in
  loop []

and parse_stmt p : stmt =
  match peek p with
  | Lexer.KW "int" | Lexer.KW "float" ->
    ignore (parse_ty p);
    let name = expect_ident p in
    expect_punct p "=";
    let e = parse_expr p in
    expect_punct p ";";
    Decl (name, e)
  | Lexer.KW "if" ->
    advance p;
    expect_punct p "(";
    let cond = parse_expr p in
    expect_punct p ")";
    let then_ = parse_block p in
    let else_ =
      match peek p with
      | Lexer.KW "else" ->
        advance p;
        parse_block p
      | _ -> []
    in
    If (cond, then_, else_)
  | Lexer.KW "while" ->
    advance p;
    expect_punct p "(";
    let cond = parse_expr p in
    expect_punct p ")";
    While (cond, parse_block p)
  | Lexer.KW "for" -> parse_for p
  | Lexer.KW "return" ->
    advance p;
    if accept_punct p ";" then Return None
    else begin
      let e = parse_expr p in
      expect_punct p ";";
      Return (Some e)
    end
  | Lexer.KW "break" ->
    advance p;
    expect_punct p ";";
    Break
  | Lexer.KW "continue" ->
    advance p;
    expect_punct p ";";
    Continue
  | Lexer.IDENT _ -> begin
    let name = expect_ident p in
    match peek p with
    | Lexer.PUNCT "=" ->
      advance p;
      let e = parse_expr p in
      expect_punct p ";";
      Assign (name, e)
    | Lexer.PUNCT "[" ->
      advance p;
      let idx = parse_expr p in
      expect_punct p "]";
      expect_punct p "=";
      let e = parse_expr p in
      expect_punct p ";";
      Store (name, idx, e)
    | Lexer.PUNCT "(" ->
      advance p;
      let args = parse_args p in
      expect_punct p ";";
      Expr (Call (name, args))
    | tok ->
      errorf p "expected '=', '[' or '(' after %S, got %S" name
        (Lexer.string_of_token tok)
  end
  | tok -> errorf p "expected a statement, got %S" (Lexer.string_of_token tok)

(* for (int i = LO; i < HI; i = i + 1) — also accepts `i++`-style
   written as `i = i + 1`; desugars to the core counting loop. *)
and parse_for p : stmt =
  expect_kw p "for";
  expect_punct p "(";
  expect_kw p "int";
  let var = expect_ident p in
  expect_punct p "=";
  let lo = parse_expr p in
  expect_punct p ";";
  let v2 = expect_ident p in
  if v2 <> var then errorf p "for condition must test %S" var;
  (match Lexer.next p.lx with
   | Lexer.OP "<" -> ()
   | tok ->
     errorf p "for supports only '<' bounds, got %S" (Lexer.string_of_token tok));
  let hi = parse_expr p in
  expect_punct p ";";
  let v3 = expect_ident p in
  if v3 <> var then errorf p "for step must update %S" var;
  expect_punct p "=";
  let v4 = expect_ident p in
  (match (v4 = var, Lexer.next p.lx, Lexer.next p.lx) with
   | true, Lexer.OP "+", Lexer.INT 1 -> ()
   | _ -> errorf p "for step must be `%s = %s + 1`" var var);
  expect_punct p ")";
  For (var, lo, hi, parse_block p)

(* ------------------------------------------------------------------ *)
(* Declarations.                                                       *)

let parse_initializer p =
  if accept_punct p "=" then begin
    expect_punct p "{";
    let rec loop acc =
      let item =
        match Lexer.next p.lx with
        | Lexer.INT n -> `I n
        | Lexer.FLOAT x -> `F x
        | Lexer.OP "-" -> begin
          match Lexer.next p.lx with
          | Lexer.INT n -> `I (-n)
          | Lexer.FLOAT x -> `F (-.x)
          | tok ->
            errorf p "expected a literal, got %S" (Lexer.string_of_token tok)
        end
        | tok -> errorf p "expected a literal, got %S" (Lexer.string_of_token tok)
      in
      if accept_punct p "," then loop (item :: acc)
      else begin
        expect_punct p "}";
        List.rev (item :: acc)
      end
    in
    Some (loop [])
  end
  else None

let ginit_of p kind items =
  match items with
  | None -> GZero
  | Some items -> begin
    match kind with
    | `Flt ->
      GFlts
        (Array.of_list
           (List.map
              (function `F x -> x | `I n -> float_of_int n)
              items))
    | `Int | `Byte ->
      GInts
        (Array.of_list
           (List.map
              (function
                | `I n -> Int32.of_int n
                | `F _ -> errorf p "float literal in integer array")
              items))
  end

let parse_global p : global =
  expect_kw p "global";
  let kind =
    match Lexer.next p.lx with
    | Lexer.KW "int" -> `Int
    | Lexer.KW "float" -> `Flt
    | Lexer.KW "byte" -> `Byte
    | tok -> errorf p "expected int/float/byte, got %S" (Lexer.string_of_token tok)
  in
  let name = expect_ident p in
  expect_punct p "[";
  let size =
    match Lexer.next p.lx with
    | Lexer.INT n when n > 0 -> n
    | tok -> errorf p "expected a positive size, got %S" (Lexer.string_of_token tok)
  in
  expect_punct p "]";
  let init = ginit_of p kind (parse_initializer p) in
  expect_punct p ";";
  {
    gname = name;
    gty = (match kind with `Flt -> TFlt | `Int | `Byte -> TInt);
    byte = kind = `Byte;
    size;
    init;
  }

let parse_func p ~eligible : func =
  let ret =
    match Lexer.next p.lx with
    | Lexer.KW "int" -> Some TInt
    | Lexer.KW "float" -> Some TFlt
    | Lexer.KW "void" -> None
    | tok ->
      errorf p "expected a return type, got %S" (Lexer.string_of_token tok)
  in
  let name = expect_ident p in
  expect_punct p "(";
  let params =
    if accept_punct p ")" then []
    else begin
      let rec loop acc =
        let ty = parse_ty p in
        let pname = expect_ident p in
        if accept_punct p "," then loop ((pname, ty) :: acc)
        else begin
          expect_punct p ")";
          List.rev ((pname, ty) :: acc)
        end
      in
      loop []
    end
  in
  let body = parse_block p in
  { name; params; ret; body; eligible }

let parse_program ?(entry = "main") (source : string) : program =
  let p = { lx = Lexer.create source } in
  let globals = ref [] and funcs = ref [] in
  let rec loop () =
    match peek p with
    | Lexer.EOF -> ()
    | Lexer.KW "global" ->
      globals := parse_global p :: !globals;
      loop ()
    | Lexer.KW "protected" ->
      advance p;
      funcs := parse_func p ~eligible:false :: !funcs;
      loop ()
    | Lexer.KW ("int" | "float" | "void") ->
      funcs := parse_func p ~eligible:true :: !funcs;
      loop ()
    | tok ->
      errorf p "expected a global or function declaration, got %S"
        (Lexer.string_of_token tok)
  in
  (try loop () with
   | Lexer.Lex_error (line, message) -> raise (Parse_error { line; message }));
  { globals = List.rev !globals; funcs = List.rev !funcs; entry }

let parse_program_res ?entry source =
  match parse_program ?entry source with
  | prog -> Ok prog
  | exception Parse_error e -> Error (Format.asprintf "%a" pp_error e)
  | exception Lexer.Lex_error (line, message) ->
    Error (Format.asprintf "%a" pp_error { line; message })

(* Parse and compile to IR in one step. *)
let compile ?entry ?optimize source : Ir.Prog.t =
  Compile.to_ir ?optimize (parse_program ?entry source)
