(* Program sectioning for compositional fault injection.

   FastFlip-style composition needs a stable identity for "the part of
   the program a fault lands in": the program is partitioned at
   function boundaries into sections, and each section gets a canonical
   content hash over its instructions, its per-slot injectability tags
   and (transitively) the hashes of its callees. Campaign results keyed
   by that hash survive any edit that does not change the section's
   own content or anything it can call — in particular renames of
   functions, labels and globals-by-name, and reordering of function
   declarations, are all hash-invariant.

   Two hashes per section:

   - [local_hash] covers only the section's own body (callee references
     replaced by a placeholder). It identifies the code of a stack
     frame without pulling in the whole call subtree — entry-state
     digests use it, because composing there would make every cached
     result depend transitively on [main] (i.e. on the entire program).
   - [section_hash] is the composed hash: callee references resolve to
     the callees' iterated hashes, computed as an n-round fixpoint over
     the call graph so mutual recursion and call chains of any depth
     are covered. An edit anywhere in a section's call subtree changes
     its [section_hash]; an edit outside it cannot.

   The canonical serialization is deliberately positional: labels
   encode as their body index, globals as their resolved byte address,
   registers by bank-local index, callees by hash. Nothing textual from
   the source program survives except what changes semantics. *)

type info = {
  fid : int;  (* index in [Ir.Prog.funcs] order — the simulator's fid *)
  name : string;
  local_hash : string;  (* hex MD5 of the body alone *)
  section_hash : string;  (* hex MD5 composed over the call subtree *)
  callees : string list;  (* distinct direct callees, first-call order *)
  static_slots : int;  (* body length, label slots included *)
  tagged_slots : int;  (* injectable slots under the supplied mask *)
}

type t = {
  prog : Ir.Prog.t;
  infos : info array;  (* indexed by fid *)
  by_name : (string, int) Hashtbl.t;
  entry_fid : int;
}

let info t ~fid = t.infos.(fid)
let find t name = Option.map (fun fid -> t.infos.(fid)) (Hashtbl.find_opt t.by_name name)
let entry t = t.infos.(t.entry_fid)

(* Canonical body serialization, with a hole wherever a callee is
   named: literal text alternates with callee names, in body order, so
   one serialization serves every hash — [hash] fills the holes ("@"
   for the local hash, the callee's previous-round hash for
   composition). Every instruction lands on its own line so the
   per-slot tag bit can ride along; [Label] keeps its slot (as a bare
   position marker) to preserve index alignment with the tag mask. *)
type piece = Text of string | Callee of string

let canon_func ~global_addr ~(tag_row : bool array) (f : Ir.Func.t) :
    piece list =
  let b = Buffer.create 2048 in
  let pieces = ref [] in
  let cut () =
    pieces := Text (Buffer.contents b) :: !pieces;
    Buffer.clear b
  in
  let adds = Buffer.add_string b in
  let reg r = Ir.Reg.to_string r in
  let lbl l = "#" ^ string_of_int (Ir.Func.label_index f l) in
  (* Signature and eligibility are part of the identity: they change
     calling convention and what the tagging analysis may mark. *)
  adds "sig";
  List.iter (fun r -> adds " "; adds (reg r)) f.Ir.Func.params;
  adds " -> ";
  adds (match f.Ir.Func.ret with None -> "void" | Some ty -> Ir.Ty.to_string ty);
  adds (if f.Ir.Func.eligible then " eligible" else " protected");
  Array.iteri
    (fun idx (i : Ir.Instr.t) ->
      Buffer.add_char b '\n';
      (match i with
       | Ir.Instr.Li (d, n) -> adds (Printf.sprintf "li %s %ld" (reg d) n)
       | Ir.Instr.Lf (d, x) -> adds (Printf.sprintf "lf %s %h" (reg d) x)
       | Ir.Instr.La (d, g) ->
         adds (Printf.sprintf "la %s @%d" (reg d) (global_addr g))
       | Ir.Instr.Mov (d, s) -> adds (Printf.sprintf "mov %s %s" (reg d) (reg s))
       | Ir.Instr.Bin (op, d, a, c) ->
         adds
           (Printf.sprintf "%s %s %s %s" (Ir.Instr.string_of_binop op) (reg d)
              (reg a) (reg c))
       | Ir.Instr.Bini (op, d, a, n) ->
         adds
           (Printf.sprintf "%si %s %s %ld" (Ir.Instr.string_of_binop op) (reg d)
              (reg a) n)
       | Ir.Instr.Cmp (op, d, a, c) ->
         adds
           (Printf.sprintf "cmp.%s %s %s %s" (Ir.Instr.string_of_cmpop op)
              (reg d) (reg a) (reg c))
       | Ir.Instr.Fbin (op, d, a, c) ->
         adds
           (Printf.sprintf "%s %s %s %s" (Ir.Instr.string_of_fbinop op) (reg d)
              (reg a) (reg c))
       | Ir.Instr.Fun_ (op, d, s) ->
         adds
           (Printf.sprintf "%s %s %s" (Ir.Instr.string_of_funop op) (reg d)
              (reg s))
       | Ir.Instr.Fcmp (op, d, a, c) ->
         adds
           (Printf.sprintf "fcmp.%s %s %s %s" (Ir.Instr.string_of_cmpop op)
              (reg d) (reg a) (reg c))
       | Ir.Instr.I2f (d, s) -> adds (Printf.sprintf "i2f %s %s" (reg d) (reg s))
       | Ir.Instr.F2i (d, s) -> adds (Printf.sprintf "f2i %s %s" (reg d) (reg s))
       | Ir.Instr.Lw (d, a, o) ->
         adds (Printf.sprintf "lw %s %s %d" (reg d) (reg a) o)
       | Ir.Instr.Sw (s, a, o) ->
         adds (Printf.sprintf "sw %s %s %d" (reg s) (reg a) o)
       | Ir.Instr.Lb (d, a, o) ->
         adds (Printf.sprintf "lb %s %s %d" (reg d) (reg a) o)
       | Ir.Instr.Sb (s, a, o) ->
         adds (Printf.sprintf "sb %s %s %d" (reg s) (reg a) o)
       | Ir.Instr.Lwf (d, a, o) ->
         adds (Printf.sprintf "lwf %s %s %d" (reg d) (reg a) o)
       | Ir.Instr.Swf (s, a, o) ->
         adds (Printf.sprintf "swf %s %s %d" (reg s) (reg a) o)
       | Ir.Instr.Br (op, a, c, l) ->
         adds
           (Printf.sprintf "br.%s %s %s %s" (Ir.Instr.string_of_cmpop op)
              (reg a) (reg c) (lbl l))
       | Ir.Instr.Brz (op, a, l) ->
         adds
           (Printf.sprintf "brz.%s %s %s" (Ir.Instr.string_of_cmpop op) (reg a)
              (lbl l))
       | Ir.Instr.Jmp l -> adds ("jmp " ^ lbl l)
       | Ir.Instr.Call { dst; func; args } ->
         adds "call ";
         cut ();
         pieces := Callee func :: !pieces;
         (match dst with None -> adds " _" | Some d -> adds (" " ^ reg d));
         List.iter (fun a -> adds (" " ^ reg a)) args
       | Ir.Instr.Ret None -> adds "ret"
       | Ir.Instr.Ret (Some r) -> adds ("ret " ^ reg r)
       | Ir.Instr.Label _ -> adds "#"
       | Ir.Instr.Nop -> adds "nop");
      if Array.length tag_row > 0 && tag_row.(idx) then adds " !")
    f.Ir.Func.body;
  cut ();
  List.rev !pieces

(* MD5 of a body's text with each callee hole filled by [ref]. *)
let hash pieces ref =
  let fill = function Text s -> s | Callee name -> ref name in
  Digest.to_hex (Digest.string (String.concat "" (List.map fill pieces)))

let compute ?tags (prog : Ir.Prog.t) : t =
  let funcs = Array.of_list (Ir.Prog.funcs prog) in
  let n = Array.length funcs in
  let by_name = Hashtbl.create (2 * n) in
  Array.iteri
    (fun fid (f : Ir.Func.t) -> Hashtbl.replace by_name f.Ir.Func.name fid)
    funcs;
  let global_addr g = Ir.Prog.global_addr prog g in
  let tag_row fid =
    match tags with
    | None -> [||]
    | Some t when fid < Array.length t -> t.(fid)
    | Some _ -> [||]
  in
  let canons =
    Array.mapi
      (fun fid f -> canon_func ~global_addr ~tag_row:(tag_row fid) f)
      funcs
  in
  let local = Array.map (fun c -> hash c (fun _ -> "@")) canons in
  (* Composed hashes: iterate callee substitution for at most [n]
     rounds. Round k propagates an edit to callers at call-graph
     distance k, so [n] rounds cover the longest acyclic call chain;
     recursive cycles reach a stable (mutually dependent) encoding the
     same way. A round depends only on the previous one, so once a
     round reproduces its predecessor every later round would too, and
     composition stops there with the [n]-round hashes. The result
     depends only on per-name content, never on declaration order or
     on the names themselves. *)
  let rec compose round prev =
    if round = n then prev
    else
      let callee_ref name =
        match Hashtbl.find_opt by_name name with
        | Some fid -> prev.(fid)
        | None -> "?extern"
      in
      let next = Array.map (fun c -> hash c callee_ref) canons in
      if next = prev then next else compose (round + 1) next
  in
  let composed = compose 0 local in
  let infos =
    Array.init n (fun fid ->
        let f = funcs.(fid) in
        let callees =
          List.fold_left
            (fun acc -> function
              | Callee c when not (List.mem c acc) -> c :: acc
              | _ -> acc)
            [] canons.(fid)
          |> List.rev
        in
        let row = tag_row fid in
        {
          fid;
          name = f.Ir.Func.name;
          local_hash = local.(fid);
          section_hash = composed.(fid);
          callees;
          static_slots = Array.length f.Ir.Func.body;
          tagged_slots =
            Array.fold_left (fun a t -> if t then a + 1 else a) 0 row;
        })
  in
  let entry_fid =
    match Hashtbl.find_opt by_name prog.Ir.Prog.entry with
    | Some fid -> fid
    | None -> invalid_arg "Section.compute: program has no entry function"
  in
  { prog; infos; by_name; entry_fid }

(* Synthetic semantics-preserving, hash-visible edit: append an
   unreachable self-loop at the end of [func]'s body. The pad uses no
   registers, is never executed (nothing jumps to it and the preceding
   body never falls off its end — the validator's no-fall-through rule)
   and ends in a terminator, so the edited program has bit-identical
   golden behaviour, dynamic counts, frame shapes and memory layout —
   but [func]'s local hash and every caller's composed hash change.
   This is the benchmark's and the equivalence suite's model of a
   "one-function edit". *)
let dead_pad ~func (prog : Ir.Prog.t) : Ir.Prog.t =
  let f =
    match Ir.Prog.find_func prog func with
    | Some f -> f
    | None -> invalid_arg ("Section.dead_pad: unknown function " ^ func)
  in
  let fresh =
    let rec go i =
      let cand =
        if i = 0 then "__memo_pad" else Printf.sprintf "__memo_pad%d" i
      in
      if Hashtbl.mem f.Ir.Func.labels cand then go (i + 1) else cand
    in
    go 0
  in
  let body =
    Array.to_list f.Ir.Func.body
    @ [ Ir.Instr.Label fresh; Ir.Instr.Jmp fresh ]
  in
  let f' =
    Ir.Func.make ~eligible:f.Ir.Func.eligible ~name:f.Ir.Func.name
      ~params:f.Ir.Func.params ~ret:f.Ir.Func.ret body
  in
  let funcs =
    List.map
      (fun (g : Ir.Func.t) -> if g.Ir.Func.name = func then f' else g)
      (Ir.Prog.funcs prog)
  in
  Ir.Prog.make ~entry:prog.Ir.Prog.entry ~globals:prog.Ir.Prog.globals funcs
