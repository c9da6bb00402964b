(* Lexer for Mlang's C-like surface syntax. Supports `//` line and
   `/* */` block comments, decimal integer and floating literals, and
   the operator set of the language. *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | KW of string        (* int float byte void global protected if else
                           while for return break continue true false *)
  | PUNCT of string     (* ( ) { } [ ] ; , = *)
  | OP of string        (* + - * / % & | ^ << >> >>> == != < <= > >= && || ! *)
  | EOF

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable peeked : (token * int) option;  (* token and its line *)
}

exception Lex_error of int * string

let keywords =
  [ "int"; "float"; "byte"; "void"; "global"; "protected"; "if"; "else";
    "while"; "for"; "return"; "break"; "continue" ]

let create src = { src; pos = 0; line = 1; peeked = None }

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

let rec skip_ws t =
  if t.pos >= String.length t.src then ()
  else
    match t.src.[t.pos] with
    | ' ' | '\t' | '\r' ->
      t.pos <- t.pos + 1;
      skip_ws t
    | '\n' ->
      t.pos <- t.pos + 1;
      t.line <- t.line + 1;
      skip_ws t
    | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '/' ->
      while t.pos < String.length t.src && t.src.[t.pos] <> '\n' do
        t.pos <- t.pos + 1
      done;
      skip_ws t
    | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '*' ->
      let start_line = t.line in
      t.pos <- t.pos + 2;
      let rec find () =
        if t.pos + 1 >= String.length t.src then
          raise (Lex_error (start_line, "unterminated block comment"))
        else if t.src.[t.pos] = '*' && t.src.[t.pos + 1] = '/' then
          t.pos <- t.pos + 2
        else begin
          if t.src.[t.pos] = '\n' then t.line <- t.line + 1;
          t.pos <- t.pos + 1;
          find ()
        end
      in
      find ();
      skip_ws t
    | _ -> ()

let lex_number t =
  let start = t.pos in
  while t.pos < String.length t.src && is_digit t.src.[t.pos] do
    t.pos <- t.pos + 1
  done;
  let is_float =
    t.pos < String.length t.src
    && t.src.[t.pos] = '.'
    && t.pos + 1 < String.length t.src
    && is_digit t.src.[t.pos + 1]
  in
  if is_float then begin
    t.pos <- t.pos + 1;
    while t.pos < String.length t.src && is_digit t.src.[t.pos] do
      t.pos <- t.pos + 1
    done;
    (* optional exponent *)
    if t.pos < String.length t.src && (t.src.[t.pos] = 'e' || t.src.[t.pos] = 'E')
    then begin
      t.pos <- t.pos + 1;
      if t.pos < String.length t.src && (t.src.[t.pos] = '+' || t.src.[t.pos] = '-')
      then t.pos <- t.pos + 1;
      while t.pos < String.length t.src && is_digit t.src.[t.pos] do
        t.pos <- t.pos + 1
      done
    end;
    FLOAT (float_of_string (String.sub t.src start (t.pos - start)))
  end
  else begin
    let digits = String.sub t.src start (t.pos - start) in
    match int_of_string_opt digits with
    | Some n -> INT n
    | None ->
      raise (Lex_error (t.line, "integer literal out of range: " ^ digits))
  end

let lex_raw t : token =
  skip_ws t;
  if t.pos >= String.length t.src then EOF
  else begin
    let c = t.src.[t.pos] in
    let two =
      if t.pos + 1 < String.length t.src then
        String.sub t.src t.pos 2
      else ""
    in
    let three =
      if t.pos + 2 < String.length t.src then String.sub t.src t.pos 3 else ""
    in
    if is_digit c then lex_number t
    else if is_ident_start c then begin
      let start = t.pos in
      while t.pos < String.length t.src && is_ident t.src.[t.pos] do
        t.pos <- t.pos + 1
      done;
      let word = String.sub t.src start (t.pos - start) in
      if List.mem word keywords then KW word else IDENT word
    end
    else if three = ">>>" then begin
      t.pos <- t.pos + 3;
      OP ">>>"
    end
    else if List.mem two [ "<<"; ">>"; "=="; "!="; "<="; ">="; "&&"; "||" ]
    then begin
      t.pos <- t.pos + 2;
      OP two
    end
    else begin
      t.pos <- t.pos + 1;
      match c with
      | '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' -> PUNCT (String.make 1 c)
      | '=' -> PUNCT "="
      | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '<' | '>' | '!' ->
        OP (String.make 1 c)
      | c -> raise (Lex_error (t.line, Printf.sprintf "unexpected character %C" c))
    end
  end

let peek t =
  match t.peeked with
  | Some (tok, _) -> tok
  | None ->
    let tok = lex_raw t in
    t.peeked <- Some (tok, t.line);
    tok

let next t =
  match t.peeked with
  | Some (tok, _) ->
    t.peeked <- None;
    tok
  | None -> lex_raw t

let line t = match t.peeked with Some (_, l) -> l | None -> t.line

let string_of_token = function
  | INT n -> string_of_int n
  | FLOAT x -> string_of_float x
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> s
  | OP s -> s
  | EOF -> "<eof>"
