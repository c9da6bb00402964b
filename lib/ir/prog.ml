(* A whole program: global arrays plus functions, with a designated
   entry point. Globals are word arrays (one 4-byte cell per element,
   for both i32 and f64 elements; the simulator stores a tagged value
   per cell). The memory layout is fixed and deterministic: globals are
   laid out in declaration order starting at address 4 (address 0 is
   the null guard). *)

type init =
  | Zero
  | Int_data of int32 array
  | Flt_data of float array

type global = {
  gname : string;
  gty : Ty.t;
  size : int;  (* number of elements *)
  init : init;
}

type t = {
  globals : global list;
  funcs : (string, Func.t) Hashtbl.t;
  order : string list;  (* function declaration order, for printing *)
  entry : string;
}

exception Invalid of string

let invalidf fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let global ?(init = Zero) name ty size =
  if size <= 0 then invalidf "global %s: size must be positive" name;
  (match init with
   | Zero -> ()
   | Int_data a ->
     if Array.length a > size then invalidf "global %s: init too large" name;
     (match ty with
      | Ty.I32 -> ()
      | Ty.I8 ->
        Array.iter
          (fun b ->
            if Int32.compare b 0l < 0 || Int32.compare b 255l > 0 then
              invalidf "global %s: byte init out of range" name)
          a
      | Ty.F64 -> invalidf "global %s: int init on f64 global" name)
   | Flt_data a ->
     if Array.length a > size then invalidf "global %s: init too large" name;
     if not (Ty.equal ty Ty.F64) then
       invalidf "global %s: float init on %s global" name (Ty.to_string ty));
  { gname = name; gty = ty; size; init }

let make ?(entry = "main") ~globals funcs =
  let tbl = Hashtbl.create 16 in
  let order =
    List.map
      (fun (f : Func.t) ->
        if Hashtbl.mem tbl f.Func.name then
          invalidf "duplicate function %s" f.Func.name;
        Hashtbl.replace tbl f.Func.name f;
        f.Func.name)
      funcs
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun g ->
      if Hashtbl.mem seen g.gname then invalidf "duplicate global %s" g.gname;
      Hashtbl.replace seen g.gname ())
    globals;
  if not (Hashtbl.mem tbl entry) then invalidf "missing entry function %s" entry;
  { globals; funcs = tbl; order; entry }

let find_func t name = Hashtbl.find_opt t.funcs name

let get_func t name =
  match find_func t name with
  | Some f -> f
  | None -> invalidf "unknown function %s" name

let funcs t = List.map (get_func t) t.order

let find_global t name = List.find_opt (fun g -> g.gname = name) t.globals

(* Bytes of memory a global occupies: word elements take 4 bytes each,
   byte elements pack 4 per word (padded to a word boundary). *)
let byte_extent g =
  match g.gty with
  | Ty.I8 -> 4 * ((g.size + 3) / 4)
  | Ty.I32 | Ty.F64 -> 4 * g.size

(* Byte address of each global and total memory size in bytes. *)
let layout t =
  let addr = ref 4 in
  let entries =
    List.map
      (fun g ->
        let a = !addr in
        addr := !addr + byte_extent g;
        (g.gname, a, g.size))
      t.globals
  in
  (entries, !addr)

let global_addr t name =
  let entries, _ = layout t in
  match List.find_opt (fun (n, _, _) -> n = name) entries with
  | Some (_, a, _) -> a
  | None -> invalidf "unknown global %s" name

let static_instruction_count t =
  List.fold_left (fun acc f -> acc + Func.length f) 0 (funcs t)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  (* Initialisers follow " = ", comma-separated; floats in hex ("%h")
     so the text reads back bit for bit. *)
  let init_text = function
    | Zero -> []
    | Int_data a -> Array.to_list (Array.map Int32.to_string a)
    | Flt_data a -> Array.to_list (Array.map (Printf.sprintf "%h") a)
  in
  List.iter
    (fun g ->
      Format.fprintf fmt "global %s : %a[%d]" g.gname Ty.pp g.gty g.size;
      (match init_text g.init with
       | [] -> ()
       | xs -> Format.fprintf fmt " = %s" (String.concat ", " xs));
      Format.fprintf fmt "@,")
    t.globals;
  List.iter (fun f -> Format.fprintf fmt "@,%a" Func.pp f) (funcs t);
  Format.fprintf fmt "@]"
