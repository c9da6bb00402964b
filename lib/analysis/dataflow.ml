(* Generic iterative backward dataflow over [Ir.Cfg] (liveness and the
   tagging analysis).

   A worklist fixpoint with join over the successor edges. Transfer
   functions are given per instruction, so clients never re-implement
   block walking. Termination requires the usual conditions: [join]
   monotone w.r.t. [equal]-quotiented domain with finite ascending
   chains (our domain is a finite powerset). *)

module type DOMAIN = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Backward (D : DOMAIN) = struct
  type result = {
    live_out : D.t array;  (* state at block end, before last instr *)
    live_in : D.t array;   (* state at block start *)
  }

  (* [exit_state] seeds blocks with no successors (function exits). *)
  let solve (cfg : Ir.Cfg.t) ~exit_state
      ~(transfer : int -> Ir.Instr.t -> D.t -> D.t) : result =
    let n = Ir.Cfg.n_blocks cfg in
    let live_in = Array.make n D.bottom in
    let live_out = Array.make n D.bottom in
    let transfer_block b out =
      let state = ref out in
      Ir.Cfg.rev_iter_instrs cfg (Ir.Cfg.block cfg b) (fun i instr ->
          state := transfer i instr !state);
      !state
    in
    let in_work = Array.make n true in
    let work = Queue.create () in
    (* Seed in reverse order: backward analyses converge faster walking
       from exits toward the entry. *)
    for b = n - 1 downto 0 do
      Queue.add b work
    done;
    while not (Queue.is_empty work) do
      let b = Queue.pop work in
      in_work.(b) <- false;
      let blk = Ir.Cfg.block cfg b in
      let out =
        match blk.Ir.Cfg.succs with
        | [] -> exit_state
        | succs ->
          List.fold_left (fun acc s -> D.join acc live_in.(s)) D.bottom succs
      in
      live_out.(b) <- out;
      let inn = transfer_block b out in
      if not (D.equal inn live_in.(b)) then begin
        live_in.(b) <- inn;
        List.iter
          (fun p ->
            if not in_work.(p) then begin
              in_work.(p) <- true;
              Queue.add p work
            end)
          blk.Ir.Cfg.preds
      end
    done;
    { live_out; live_in }

  (* Replay the fixpoint inside each block to obtain the state *after*
     (in program order) each instruction, i.e. the backward-flow input
     to that instruction. [f i instr state_after] is called for every
     instruction. *)
  let iter_instrs (cfg : Ir.Cfg.t) (r : result)
      ~(transfer : int -> Ir.Instr.t -> D.t -> D.t) f =
    Array.iter
      (fun blk ->
        let state = ref r.live_out.(blk.Ir.Cfg.id) in
        Ir.Cfg.rev_iter_instrs cfg blk (fun i instr ->
            f i instr !state;
            state := transfer i instr !state))
      cfg.Ir.Cfg.blocks
end

(* The shared powerset domain. *)
module Reg_set_domain = struct
  type t = Ir.Reg.Set.t

  let bottom = Ir.Reg.Set.empty
  let equal = Ir.Reg.Set.equal
  let join = Ir.Reg.Set.union
end
