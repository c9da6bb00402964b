(* Tests for the dataflow framework and the liveness analysis. *)

open Ir

let r0 = Reg.int 0
let r1 = Reg.int 1
let r2 = Reg.int 2

(* if r0 then r1 = r2 else r1 = 7; ret r1 — r2 live only on one arm *)
let diamond =
  Func.make ~name:"d" ~params:[ r0; r2 ] ~ret:(Some Ty.I32)
    [
      Instr.Brz (Instr.Eq, r0, "else");
      Instr.Mov (r1, r2);
      Instr.Jmp "end";
      Instr.Label "else";
      Instr.Li (r1, 7l);
      Instr.Label "end";
      Instr.Ret (Some r1);
    ]

let loop_func =
  (* while r0 > 0 { r1 = r1 + r0; r0 = r0 - 1 }; ret r1 *)
  Func.make ~name:"l" ~params:[ r0 ] ~ret:(Some Ty.I32)
    [
      Instr.Li (r1, 0l);
      Instr.Label "head";
      Instr.Brz (Instr.Le, r0, "exit");
      Instr.Bin (Instr.Add, r1, r1, r0);
      Instr.Bini (Instr.Sub, r0, r0, 1l);
      Instr.Jmp "head";
      Instr.Label "exit";
      Instr.Ret (Some r1);
    ]

(* ------------------------------------------------------------------ *)
(* Liveness.                                                           *)

let test_liveness_diamond () =
  let cfg = Cfg.build diamond in
  let live = Analysis.Liveness.compute cfg in
  let entry_in = Analysis.Liveness.live_in live 0 in
  Alcotest.(check bool) "r0 live at entry" true (Reg.Set.mem r0 entry_in);
  Alcotest.(check bool) "r2 live at entry" true (Reg.Set.mem r2 entry_in);
  Alcotest.(check bool) "r1 dead at entry" false (Reg.Set.mem r1 entry_in)

let test_liveness_loop () =
  let cfg = Cfg.build loop_func in
  let live = Analysis.Liveness.compute cfg in
  (* at the loop head both the counter and the accumulator are live *)
  let head_block = Cfg.block_of_index cfg 1 in
  let inn = Analysis.Liveness.live_in live head_block in
  Alcotest.(check bool) "r0 live at head" true (Reg.Set.mem r0 inn);
  Alcotest.(check bool) "r1 live at head" true (Reg.Set.mem r1 inn)

let test_live_after () =
  let cfg = Cfg.build loop_func in
  let live = Analysis.Liveness.compute cfg in
  let after = Analysis.Liveness.live_after live in
  (* after the final ret nothing is live *)
  Alcotest.(check int) "nothing after ret" 0
    (Reg.Set.cardinal after.(7));
  (* after r1's definition at 0, r1 is live (used in loop) *)
  Alcotest.(check bool) "acc live after init" true (Reg.Set.mem r1 after.(0))

(* ------------------------------------------------------------------ *)
(* Property: liveness solution is a fixpoint (retransfer stable).      *)

let liveness_fixpoint_prop =
  QCheck.Test.make ~name:"liveness is a fixpoint" ~count:100
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 4 + Random.State.int rng 16 in
      let body = ref [] in
      for i = 0 to n - 1 do
        body := Instr.Label (Printf.sprintf "L%d" i) :: !body;
        let d = Reg.int (Random.State.int rng 4) in
        let a = Reg.int (Random.State.int rng 4) in
        let instr =
          match Random.State.int rng 4 with
          | 0 -> Instr.Bini (Instr.Add, d, a, 1l)
          | 1 -> Instr.Brz (Instr.Eq, a, Printf.sprintf "L%d" (Random.State.int rng n))
          | 2 -> Instr.Mov (d, a)
          | _ -> Instr.Li (d, 3l)
        in
        body := instr :: !body
      done;
      body := Instr.Ret None :: !body;
      let f = Func.make ~name:"p" ~params:[] ~ret:None (List.rev !body) in
      let cfg = Cfg.build f in
      let live = Analysis.Liveness.compute cfg in
      (* live_in(b) = transfer over block applied to join of succ live_ins *)
      let check_block blk =
        let out =
          List.fold_left
            (fun acc s -> Reg.Set.union acc (Analysis.Liveness.live_in live s))
            Reg.Set.empty blk.Cfg.succs
        in
        let state = ref out in
        Cfg.rev_iter_instrs cfg blk (fun i instr ->
            state := Analysis.Liveness.transfer i instr !state);
        Reg.Set.equal !state (Analysis.Liveness.live_in live blk.Cfg.id)
      in
      Array.for_all check_block cfg.Cfg.blocks)

let () =
  Alcotest.run "analysis"
    [
      ( "liveness",
        [
          Alcotest.test_case "diamond" `Quick test_liveness_diamond;
          Alcotest.test_case "loop" `Quick test_liveness_loop;
          Alcotest.test_case "live after" `Quick test_live_after;
          QCheck_alcotest.to_alcotest liveness_fixpoint_prop;
        ] );
    ]
