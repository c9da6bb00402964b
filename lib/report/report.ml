(* Unified typed report layer.

   Every experiment produces a [table] of typed [cell]s instead of
   pre-formatted strings; one value then renders both ways:

   - [to_text] — the plain-text table the harness has always printed
     (byte-identical to the old [Tablefmt.render] output);
   - [to_json] — a machine-readable document under the versioned
     schema [etap-report/1], shared by every [etap --json] subcommand.

   Cells keep the numeric value and the display text separately, so
   the JSON side always emits real numbers (or [null] — never a bare
   [nan]/[inf] token) while the text side reproduces the exact
   historical formatting. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON values and printer, shared by the [etap-report/1],
   [etap-trace/1] and [etap-metrics/1] emitters. No external
   dependency.                                                         *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (* non-finite values print as null *)
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* Shortest decimal form that still reads back as the same double for
     the magnitudes reports contain; integral floats print without an
     exponent so the document stays human-scannable. *)
  let float_repr x =
    if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.1f" x
    else Printf.sprintf "%.12g" x

  let rec write buf ~indent t =
    let pad n = String.make n ' ' in
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x ->
      Buffer.add_string buf
        (if Float.is_finite x then float_repr x else "null")
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          write buf ~indent:(indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          write buf ~indent:(indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 1024 in
    write buf ~indent:0 t;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  (* Single-line form, for JSONL streams (one document per line) and
     large machine-only payloads like trace events. Same value
     rendering as [write] — in particular non-finite floats still print
     as null. *)
  let rec write_compact buf t =
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x ->
      Buffer.add_string buf (if Float.is_finite x then float_repr x else "null")
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write_compact buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write_compact buf v)
        fields;
      Buffer.add_char buf '}'

  let to_compact_string t =
    let buf = Buffer.create 256 in
    write_compact buf t;
    Buffer.contents buf

  let of_int_opt = function None -> Null | Some i -> Int i

  let to_file path t =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (to_string t))

  (* ---------------------------- parser ---------------------------- *)

  (* Recursive-descent reader for the documents this module writes
     (cache entries, reports). Accepts standard JSON; numbers without a
     fraction or exponent read back as [Int], everything else as
     [Float]. [\u] escapes decode to UTF-8 bytes. *)
  exception Parse_error of string

  let of_string_exn (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let string_body () =
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'; incr pos
           | '\\' -> Buffer.add_char buf '\\'; incr pos
           | '/' -> Buffer.add_char buf '/'; incr pos
           | 'b' -> Buffer.add_char buf '\b'; incr pos
           | 'f' -> Buffer.add_char buf '\012'; incr pos
           | 'n' -> Buffer.add_char buf '\n'; incr pos
           | 'r' -> Buffer.add_char buf '\r'; incr pos
           | 't' -> Buffer.add_char buf '\t'; incr pos
           | 'u' ->
             if !pos + 4 >= n then fail "truncated \\u escape";
             let hex = String.sub s (!pos + 1) 4 in
             let cp =
               try int_of_string ("0x" ^ hex)
               with _ -> fail "bad \\u escape"
             in
             utf8 buf cp;
             pos := !pos + 5
           | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ()
        | c -> Buffer.add_char buf c; incr pos; go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do incr pos done;
      let tok = String.sub s start (!pos - start) in
      let is_float =
        String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok
      in
      if is_float then
        match float_of_string_opt tok with
        | Some x -> Float x
        | None -> fail ("bad number " ^ tok)
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt tok with
          | Some x -> Float x
          | None -> fail ("bad number " ^ tok))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> lit "null" Null
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some '"' -> incr pos; Str (string_body ())
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; Arr [] end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; items (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (items [])
        end
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else begin
          let field () =
            skip_ws ();
            expect '"';
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; fields (kv :: acc)
            | Some '}' -> incr pos; List.rev (kv :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some _ -> number ()
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let of_string s : (t, string) result =
    match of_string_exn s with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  (* Field access helpers for readers of parsed documents. *)
  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  let to_int_opt = function Int i -> Some i | _ -> None
  let to_str_opt = function Str s -> Some s | _ -> None

  (* Numbers parse as Int when integral, so numeric readers accept
     both shapes. *)
  let to_float_opt = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Cells, columns, tables.                                             *)

type cell =
  | Text of string          (* JSON string *)
  | Int of int              (* JSON integer *)
  | Num of float * string   (* JSON number, custom display text *)
  | Bool of bool            (* JSON boolean *)
  | Missing of string       (* JSON null, display placeholder *)

let text s = Text s
let int n = Int n
let num ~text v = Num (v, text)
let bool b = Bool b

(* Frozen display formats (formerly Tablefmt.{pct,db,count}). *)
let pct x = Num (x, Printf.sprintf "%.1f%%" x)
let db x = Num (x, Printf.sprintf "%.1f dB" x)
let count n = Int n

let opt ~missing some = function Some v -> some v | None -> Missing missing

let cell_text = function
  | Text s -> s
  | Int n -> string_of_int n
  | Num (_, s) -> s
  | Bool b -> string_of_bool b
  | Missing s -> s

let cell_json = function
  | Text s -> Json.Str s
  | Int n -> Json.Int n
  | Num (v, _) -> Json.Float v  (* nan/inf -> null at print time *)
  | Bool b -> Json.Bool b
  | Missing _ -> Json.Null

type column = {
  key : string;    (* JSON field name *)
  label : string;  (* text-rendering header *)
}

let column ?key label =
  let key =
    match key with
    | Some k -> k
    | None ->
      (* slug of the label: lowercase alphanumerics joined by '_' *)
      let b = Buffer.create (String.length label) in
      let pending = ref false in
      String.iter
        (fun c ->
          match Char.lowercase_ascii c with
          | ('a' .. 'z' | '0' .. '9') as c ->
            if !pending && Buffer.length b > 0 then Buffer.add_char b '_';
            pending := false;
            Buffer.add_char b c
          | _ -> pending := true)
        label;
      Buffer.contents b
  in
  { key; label }

type table = {
  id : string;
  title : string;
  columns : column list;
  rows : cell list list;
}

let table ~id ~title ~columns rows = { id; title; columns; rows }

(* ------------------------------------------------------------------ *)
(* Text rendering — byte-identical to the historical Tablefmt output.
   Array-based: column widths and row formatting are O(rows x cols)
   instead of the old List.nth-based O(rows x cols^2).                 *)

let to_text (t : table) : string =
  let headers = Array.of_list (List.map (fun c -> c.label) t.columns) in
  let ncols = Array.length headers in
  let rows =
    List.map
      (fun row ->
        let a = Array.make ncols "" in
        List.iteri (fun i c -> if i < ncols then a.(i) <- cell_text c) row;
        a)
      t.rows
  in
  let widths = Array.map String.length headers in
  List.iter
    (fun row ->
      Array.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
      row)
    rows;
  let buf = Buffer.create 256 in
  let line ch =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) ch);
        Buffer.add_char buf '+')
      widths
  in
  let fmt_row row =
    Buffer.add_char buf '|';
    Array.iteri
      (fun i cell ->
        Buffer.add_string buf (Printf.sprintf " %-*s " widths.(i) cell);
        Buffer.add_char buf '|')
      row
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  line '-';
  Buffer.add_char buf '\n';
  fmt_row headers;
  Buffer.add_char buf '\n';
  line '=';
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      fmt_row r;
      Buffer.add_char buf '\n')
    rows;
  line '-';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reports and the etap-report/1 JSON document.                        *)

type t = {
  command : string;             (* producing subcommand, e.g. "table2" *)
  meta : (string * Json.t) list;  (* invocation parameters *)
  tables : table list;
}

let schema_version = "etap-report/1"

let make ~command ?(meta = []) tables = { command; meta; tables }

let table_json (t : table) =
  Json.Obj
    [
      ("id", Json.Str t.id);
      ("title", Json.Str t.title);
      ( "columns",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [ ("key", Json.Str c.key); ("label", Json.Str c.label) ])
             t.columns) );
      ( "rows",
        Json.Arr
          (List.map
             (fun row ->
               (* Short rows pad with null, mirroring the text
                  renderer's empty cells; extra cells are dropped. *)
               let rec zip cols cells =
                 match (cols, cells) with
                 | [], _ -> []
                 | c :: cols, [] -> (c.key, Json.Null) :: zip cols []
                 | c :: cols, cell :: cells ->
                   (c.key, cell_json cell) :: zip cols cells
               in
               Json.Obj (zip t.columns row))
             t.rows) );
    ]

let to_json (r : t) =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("command", Json.Str r.command);
      ("meta", Json.Obj r.meta);
      ("tables", Json.Arr (List.map table_json r.tables));
    ]

let write_json ~path (r : t) = Json.to_file path (to_json r)
