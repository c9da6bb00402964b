(* Textual assembler for the IR, accepting the exact surface syntax
   that [Prog.pp] / [Func.pp] print, so print -> parse is a structural
   round trip (global initializers are not part of the surface syntax;
   parsed globals are zero-initialized).

     global img : u8[1024]
     global acc : i32[4]

     func main() -> i32:
       li    $r0, 5
     loop:
       addi  $r0, $r0, -1
       bgtz  $r0, loop
       ret   $r0

     func helper($r0:i32, $f0:f64):  ; protected
       ret *)

type error = {
  line : int;
  message : string;
}

exception Parse_error of error

let errorf line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

(* ------------------------------------------------------------------ *)
(* Lexing: split a line into word tokens, treating ',', '(', ')' as
   separators, and stripping ';' comments. *)

let tokens_of_line line =
  let line =
    match String.index_opt line ';' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let buf = Buffer.create 8 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | ',' | '(' | ')' -> flush ()
      | c -> Buffer.add_char buf c)
    line;
  flush ();
  List.rev !out

let parse_reg ln s =
  let fail () = errorf ln "expected a register, got %S" s in
  if String.length s < 3 || s.[0] <> '$' then fail ();
  let bank = s.[1] in
  match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
  | Some n when n >= 0 ->
    if bank = 'r' then Reg.int n else if bank = 'f' then Reg.flt n else fail ()
  | _ -> fail ()

let parse_int ln s =
  match Int32.of_string_opt s with
  | Some n -> n
  | None -> errorf ln "expected an integer, got %S" s

let parse_float ln s =
  match float_of_string_opt s with
  | Some x -> x
  | None -> errorf ln "expected a float, got %S" s

let cmpop_of_suffix ln s : Instr.cmpop =
  match s with
  | "eq" -> Instr.Eq
  | "ne" -> Instr.Ne
  | "lt" -> Instr.Lt
  | "le" -> Instr.Le
  | "gt" -> Instr.Gt
  | "ge" -> Instr.Ge
  | _ -> errorf ln "unknown comparison %S" s

let binop_of_name (s : string) : Instr.binop option =
  match s with
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "mul" -> Some Instr.Mul
  | "div" -> Some Instr.Div
  | "rem" -> Some Instr.Rem
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | "sll" -> Some Instr.Sll
  | "srl" -> Some Instr.Srl
  | "sra" -> Some Instr.Sra
  | _ -> None

let fbinop_of_name (s : string) : Instr.fbinop option =
  match s with
  | "fadd" -> Some Instr.Fadd
  | "fsub" -> Some Instr.Fsub
  | "fmul" -> Some Instr.Fmul
  | "fdiv" -> Some Instr.Fdiv
  | _ -> None

let funop_of_name (s : string) : Instr.funop option =
  match s with
  | "fneg" -> Some Instr.Fneg
  | "fabs" -> Some Instr.Fabs
  | "fsqrt" -> Some Instr.Fsqrt
  | _ -> None

(* "4($r1)" arrives as two tokens "4" "$r1" after separator stripping. *)
let parse_mem ln off base = (parse_reg ln base, Int32.to_int (parse_int ln off))

let strip_suffix ~prefix ~suffix s =
  let pl = String.length prefix and sl = String.length suffix in
  if
    String.length s >= pl + sl + 1
    && String.sub s 0 pl = prefix
    && String.sub s (String.length s - sl) sl = suffix
  then Some (String.sub s pl (String.length s - pl - sl))
  else None

let parse_instr ln (toks : string list) : Instr.t =
  let reg = parse_reg ln in
  match toks with
  | [ "nop" ] -> Instr.Nop
  | [ "ret" ] -> Instr.Ret None
  | [ "ret"; r ] -> Instr.Ret (Some (reg r))
  | [ "j"; l ] -> Instr.Jmp l
  | [ "li"; d; n ] -> Instr.Li (reg d, parse_int ln n)
  | [ "lf"; d; x ] -> Instr.Lf (reg d, parse_float ln x)
  | [ "la"; d; g ] -> Instr.La (reg d, g)
  | [ "mov"; d; s ] -> Instr.Mov (reg d, reg s)
  | [ "i2f"; d; s ] -> Instr.I2f (reg d, reg s)
  | [ "f2i"; d; s ] -> Instr.F2i (reg d, reg s)
  | [ "lw"; d; off; base ] ->
    let b, o = parse_mem ln off base in
    Instr.Lw (reg d, b, o)
  | [ "sw"; v; off; base ] ->
    let b, o = parse_mem ln off base in
    Instr.Sw (reg v, b, o)
  | [ "lbu"; d; off; base ] ->
    let b, o = parse_mem ln off base in
    Instr.Lb (reg d, b, o)
  | [ "sb"; v; off; base ] ->
    let b, o = parse_mem ln off base in
    Instr.Sb (reg v, b, o)
  | [ "lwf"; d; off; base ] ->
    let b, o = parse_mem ln off base in
    Instr.Lwf (reg d, b, o)
  | [ "swf"; v; off; base ] ->
    let b, o = parse_mem ln off base in
    Instr.Swf (reg v, b, o)
  | [ op; d; a; b ] when binop_of_name op <> None ->
    Instr.Bin (Option.get (binop_of_name op), reg d, reg a, reg b)
  | [ op; d; a; n ]
    when String.length op > 1
         && op.[String.length op - 1] = 'i'
         && binop_of_name (String.sub op 0 (String.length op - 1)) <> None ->
    let base_op =
      Option.get (binop_of_name (String.sub op 0 (String.length op - 1)))
    in
    Instr.Bini (base_op, reg d, reg a, parse_int ln n)
  | [ op; d; a; b ] when fbinop_of_name op <> None ->
    Instr.Fbin (Option.get (fbinop_of_name op), reg d, reg a, reg b)
  | [ op; d; s ] when funop_of_name op <> None ->
    Instr.Fun_ (Option.get (funop_of_name op), reg d, reg s)
  | [ op; d; a; b ]
    when String.length op = 4 && op.[0] = 'f' && op.[1] = 's' ->
    Instr.Fcmp (cmpop_of_suffix ln (String.sub op 2 2), reg d, reg a, reg b)
  | [ op; d; a; b ] when String.length op = 3 && op.[0] = 's' ->
    Instr.Cmp (cmpop_of_suffix ln (String.sub op 1 2), reg d, reg a, reg b)
  | [ op; a; l ] when strip_suffix ~prefix:"b" ~suffix:"z" op <> None ->
    let c = Option.get (strip_suffix ~prefix:"b" ~suffix:"z" op) in
    Instr.Brz (cmpop_of_suffix ln c, reg a, l)
  | [ op; a; b; l ] when String.length op = 3 && op.[0] = 'b' ->
    Instr.Br (cmpop_of_suffix ln (String.sub op 1 2), reg a, reg b, l)
  | [ "call"; f ] -> Instr.Call { dst = None; func = f; args = [] }
  | "call" :: f :: args ->
    Instr.Call { dst = None; func = f; args = List.map reg args }
  | d :: "=" :: "call" :: f :: args ->
    Instr.Call { dst = Some (reg d); func = f; args = List.map reg args }
  | [ label ] when String.length label > 1 && label.[String.length label - 1] = ':'
    ->
    Instr.Label (String.sub label 0 (String.length label - 1))
  | _ -> errorf ln "cannot parse instruction: %s" (String.concat " " toks)

(* ------------------------------------------------------------------ *)
(* Program structure.                                                  *)

let parse_ty ln s =
  match s with
  | "i32" -> Ty.I32
  | "f64" -> Ty.F64
  | "u8" -> Ty.I8
  | _ -> errorf ln "unknown type %S" s

(* "i32[16]" *)
let parse_ty_size ln s =
  match String.index_opt s '[' with
  | Some i when s.[String.length s - 1] = ']' ->
    let ty = parse_ty ln (String.sub s 0 i) in
    let size_str = String.sub s (i + 1) (String.length s - i - 2) in
    (match int_of_string_opt size_str with
     | Some n when n > 0 -> (ty, n)
     | _ -> errorf ln "bad array size in %S" s)
  | _ -> errorf ln "expected ty[size], got %S" s

(* "$r0:i32" — the type annotation is redundant with the bank but is
   what the printer emits; we check consistency. *)
let parse_param ln s =
  match String.split_on_char ':' s with
  | [ r; ty ] ->
    let r = parse_reg ln r in
    let ty = parse_ty ln ty in
    if Ty.equal (Ty.of_reg r) ty then r
    else errorf ln "parameter %S: bank/type mismatch" s
  | _ -> errorf ln "expected $reg:ty, got %S" s

type fdecl = {
  fname : string;
  fparams : Reg.t list;
  fret : Ty.t option;
  feligible : bool;
  mutable fbody : Instr.t list;  (* reversed *)
  fline : int;
}

(* "func name($r0:i32, $f0:f64) -> i32:" possibly with "; protected" *)
let parse_func_header ln line =
  let protected_ =
    match String.index_opt line ';' with
    | Some i ->
      let c = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      (* [Func.pp] prints "func main() -> i32  ; protected:" *)
      c = "protected" || c = "protected:"
    | None -> false
  in
  match tokens_of_line line with
  | "func" :: rest -> begin
    let rest, fret =
      match List.rev rest with
      | last :: "->" :: before when String.length last > 0 ->
        let last =
          if last.[String.length last - 1] = ':' then
            String.sub last 0 (String.length last - 1)
          else last
        in
        (List.rev before, Some (parse_ty ln last))
      | _ -> (rest, None)
    in
    match rest with
    | name :: params ->
      let name =
        if String.length name > 0 && name.[String.length name - 1] = ':' then
          String.sub name 0 (String.length name - 1)
        else name
      in
      (* "func f():" leaves the header's colon as a lone token *)
      let params =
        List.filter_map
          (fun p ->
            let p =
              if String.length p > 0 && p.[String.length p - 1] = ':' then
                String.sub p 0 (String.length p - 1)
              else p
            in
            if p = "" then None else Some (parse_param ln p))
          params
      in
      {
        fname = name;
        fparams = params;
        fret;
        feligible = not protected_;
        fbody = [];
        fline = ln;
      }
    | [] -> errorf ln "missing function name"
  end
  | _ -> errorf ln "expected a func header"

let parse_program ?(entry = "main") (source : string) : Prog.t =
  let lines = String.split_on_char '\n' source in
  let globals = ref [] in
  let funcs = ref [] in
  let current : fdecl option ref = ref None in
  let finish () =
    match !current with
    | None -> ()
    | Some f ->
      funcs :=
        Func.make ~eligible:f.feligible ~name:f.fname ~params:f.fparams
          ~ret:f.fret (List.rev f.fbody)
        :: !funcs;
      current := None
  in
  List.iteri
    (fun idx raw ->
      let ln = idx + 1 in
      let trimmed = String.trim raw in
      let stripped =
        match String.index_opt trimmed ';' with
        | Some i -> String.trim (String.sub trimmed 0 i)
        | None -> trimmed
      in
      if stripped = "" then ()
      else
        match tokens_of_line stripped with
        | "global" :: rest -> begin
          finish ();
          match rest with
          | [ name; ":"; tysize ] | [ name; tysize ] ->
            let ty, size = parse_ty_size ln tysize in
            globals := Prog.global name ty size :: !globals
          | _ -> errorf ln "expected: global NAME : TY[SIZE]"
        end
        | "func" :: _ ->
          finish ();
          current := Some (parse_func_header ln trimmed)
        | toks -> begin
          match !current with
          | None -> errorf ln "instruction outside a function"
          | Some f -> f.fbody <- parse_instr ln toks :: f.fbody
        end)
    lines;
  finish ();
  try Prog.make ~entry ~globals:(List.rev !globals) (List.rev !funcs)
  with Prog.Invalid m -> raise (Parse_error { line = 0; message = m })

let parse_program_res ?entry source =
  match parse_program ?entry source with
  | p -> Ok p
  | exception Parse_error e -> Error (Format.asprintf "%a" pp_error e)
