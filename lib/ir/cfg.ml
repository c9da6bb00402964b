(* Control-flow graph over a function's linear body.

   Blocks are maximal straight-line index ranges [lo, hi] of the body
   array. Edges follow fall-through, branch targets and jumps. Returns
   have no successors. A call is not a block terminator: we model
   interprocedural effects separately (summaries in the tagging
   analysis), matching the paper's treatment. *)

type block = {
  id : int;
  lo : int;  (* first body index of the block *)
  hi : int;  (* last body index, inclusive *)
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  func : Func.t;
  blocks : block array;
  block_of_index : int array;  (* body index -> block id *)
}

let leaders (f : Func.t) =
  let n = Array.length f.Func.body in
  let is_leader = Array.make (max n 1) false in
  if n > 0 then is_leader.(0) <- true;
  Array.iteri
    (fun i instr ->
      (match instr with
       | Instr.Label _ -> is_leader.(i) <- true
       | _ -> ());
      (match Instr.branch_target instr with
       | Some l -> is_leader.(Func.label_index f l) <- true
       | None -> ());
      if Instr.is_terminator instr && i + 1 < n then is_leader.(i + 1) <- true)
    f.Func.body;
  is_leader

let build (f : Func.t) =
  let n = Array.length f.Func.body in
  let is_leader = leaders f in
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if is_leader.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let blocks =
    Array.init nb (fun b ->
        let lo = starts.(b) in
        let hi = if b + 1 < nb then starts.(b + 1) - 1 else n - 1 in
        { id = b; lo; hi; succs = []; preds = [] })
  in
  let block_of_index = Array.make (max n 1) 0 in
  Array.iter
    (fun blk ->
      for i = blk.lo to blk.hi do
        block_of_index.(i) <- blk.id
      done)
    blocks;
  let add_edge src dst =
    let s = blocks.(src) and d = blocks.(dst) in
    if not (List.mem dst s.succs) then begin
      s.succs <- dst :: s.succs;
      d.preds <- src :: d.preds
    end
  in
  Array.iter
    (fun blk ->
      let last = f.Func.body.(blk.hi) in
      (match Instr.branch_target last with
       | Some l -> add_edge blk.id block_of_index.(Func.label_index f l)
       | None -> ());
      let falls_through =
        match last with
        | Instr.Jmp _ | Instr.Ret _ -> false
        | _ -> true
      in
      if falls_through && blk.hi + 1 < n then
        add_edge blk.id block_of_index.(blk.hi + 1))
    blocks;
  { func = f; blocks; block_of_index }

let n_blocks t = Array.length t.blocks
let block t id = t.blocks.(id)
let block_of_index t i = t.block_of_index.(i)

let instr_indices blk =
  let rec range i acc = if i < blk.lo then acc else range (i - 1) (i :: acc) in
  range blk.hi []

(* Iterate instructions of a block in reverse order (for backward
   analyses), calling [f index instr]. *)
let rev_iter_instrs t blk f =
  for i = blk.hi downto blk.lo do
    f i t.func.Func.body.(i)
  done

(* Reverse postorder from the entry block, for fast forward fixpoints;
   unreachable blocks are appended at the end in index order. *)
let reverse_postorder t =
  let n = n_blocks t in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs t.blocks.(b).succs;
      order := b :: !order
    end
  in
  if n > 0 then dfs 0;
  let extra = ref [] in
  for b = n - 1 downto 0 do
    if not visited.(b) then extra := b :: !extra
  done;
  !order @ !extra

let pp fmt t =
  Format.fprintf fmt "@[<v>cfg %s:@," t.func.Func.name;
  Array.iter
    (fun blk ->
      Format.fprintf fmt "  B%d [%d..%d] -> %s@," blk.id blk.lo blk.hi
        (String.concat ","
           (List.map (fun s -> "B" ^ string_of_int s) (List.sort compare blk.succs))))
    t.blocks;
  Format.fprintf fmt "@]"
