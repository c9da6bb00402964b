(* Unit and property tests for the IR: registers, instruction def/use
   structure, function assembly, CFG construction, validation and
   layout. *)

open Ir

let reg = Alcotest.testable Reg.pp Reg.equal

(* ------------------------------------------------------------------ *)
(* Registers.                                                          *)

let test_reg_basics () =
  Alcotest.check reg "int reg" (Reg.Int 3) (Reg.int 3);
  Alcotest.check reg "flt reg" (Reg.Flt 2) (Reg.flt 2);
  Alcotest.(check bool) "is_int" true (Reg.is_int (Reg.int 0));
  Alcotest.(check bool) "is_flt" true (Reg.is_flt (Reg.flt 0));
  Alcotest.(check int) "index" 7 (Reg.index (Reg.int 7));
  Alcotest.(check string) "to_string int" "$r4" (Reg.to_string (Reg.int 4));
  Alcotest.(check string) "to_string flt" "$f1" (Reg.to_string (Reg.flt 1))

let test_reg_set_distinguishes_banks () =
  let s = Reg.Set.of_list [ Reg.int 1; Reg.flt 1 ] in
  Alcotest.(check int) "banks distinct" 2 (Reg.Set.cardinal s)

(* ------------------------------------------------------------------ *)
(* Instruction def/use.                                                *)

let r0 = Reg.int 0
let r1 = Reg.int 1
let r2 = Reg.int 2
let f0 = Reg.flt 0
let f1 = Reg.flt 1

let test_def_use () =
  let check_du instr ~def ~uses =
    Alcotest.(check (option reg)) "def" def (Instr.def instr);
    Alcotest.(check (list reg)) "uses" uses (Instr.uses instr)
  in
  check_du (Instr.Li (r0, 5l)) ~def:(Some r0) ~uses:[];
  check_du (Instr.Bin (Instr.Add, r0, r1, r2)) ~def:(Some r0) ~uses:[ r1; r2 ];
  check_du (Instr.Lw (r0, r1, 4)) ~def:(Some r0) ~uses:[ r1 ];
  check_du (Instr.Sw (r0, r1, 0)) ~def:None ~uses:[ r0; r1 ];
  check_du (Instr.Lb (r0, r1, 3)) ~def:(Some r0) ~uses:[ r1 ];
  check_du (Instr.Sb (r0, r1, 3)) ~def:None ~uses:[ r0; r1 ];
  check_du (Instr.Br (Instr.Lt, r0, r1, "l")) ~def:None ~uses:[ r0; r1 ];
  check_du (Instr.Fbin (Instr.Fadd, f0, f1, f1)) ~def:(Some f0) ~uses:[ f1; f1 ];
  check_du (Instr.Fcmp (Instr.Le, r0, f0, f1)) ~def:(Some r0) ~uses:[ f0; f1 ];
  check_du
    (Instr.Call { dst = Some r0; func = "f"; args = [ r1; f0 ] })
    ~def:(Some r0) ~uses:[ r1; f0 ];
  check_du (Instr.Ret (Some r2)) ~def:None ~uses:[ r2 ]

let test_addr_uses () =
  Alcotest.(check (list reg)) "lw addr" [ r1 ] (Instr.addr_uses (Instr.Lw (r0, r1, 0)));
  Alcotest.(check (list reg)) "sw addr" [ r1 ] (Instr.addr_uses (Instr.Sw (r0, r1, 0)));
  Alcotest.(check (list reg)) "add none" [] (Instr.addr_uses (Instr.Bin (Instr.Add, r0, r1, r2)))

let test_stored_value () =
  Alcotest.(check (option reg)) "sw value" (Some r0)
    (Instr.stored_value (Instr.Sw (r0, r1, 0)));
  Alcotest.(check (option reg)) "lw none" None
    (Instr.stored_value (Instr.Lw (r0, r1, 0)))

let test_control_predicates () =
  Alcotest.(check bool) "br control" true (Instr.is_control (Instr.Jmp "x"));
  Alcotest.(check bool) "ret control" true (Instr.is_control (Instr.Ret None));
  Alcotest.(check bool) "add not" false
    (Instr.is_control (Instr.Bin (Instr.Add, r0, r1, r2)));
  Alcotest.(check bool) "call not control" false
    (Instr.is_control (Instr.Call { dst = None; func = "f"; args = [] }))

(* ------------------------------------------------------------------ *)
(* Functions and labels.                                               *)

let test_func_labels () =
  let f =
    Func.make ~name:"f" ~params:[] ~ret:None
      [ Instr.Label "a"; Instr.Jmp "a"; Instr.Ret None ]
  in
  Alcotest.(check int) "label index" 0 (Func.label_index f "a");
  Alcotest.(check int) "length" 3 (Func.length f)

let test_func_duplicate_label () =
  Alcotest.check_raises "duplicate label"
    (Func.Invalid "function f: duplicate label a") (fun () ->
      ignore
        (Func.make ~name:"f" ~params:[] ~ret:None
           [ Instr.Label "a"; Instr.Label "a"; Instr.Ret None ]))

let test_func_undefined_label () =
  Alcotest.check_raises "undefined label"
    (Func.Invalid "function f: undefined label nope") (fun () ->
      ignore
        (Func.make ~name:"f" ~params:[] ~ret:None
           [ Instr.Jmp "nope"; Instr.Ret None ]))

let test_func_register_counts () =
  let f =
    Func.make ~name:"f" ~params:[ Reg.int 0; Reg.flt 0 ] ~ret:None
      [ Instr.Bin (Instr.Add, Reg.int 5, Reg.int 0, Reg.int 0); Instr.Ret None ]
  in
  Alcotest.(check int) "int regs" 6 f.Func.n_int_regs;
  Alcotest.(check int) "flt regs" 1 f.Func.n_flt_regs

(* ------------------------------------------------------------------ *)
(* CFG.                                                                *)

let diamond_func () =
  (* if r0 then r1 = 1 else r1 = 2; ret r1 *)
  Func.make ~name:"d" ~params:[ r0 ] ~ret:(Some Ty.I32)
    [
      Instr.Brz (Instr.Eq, r0, "else");  (* 0: block A *)
      Instr.Li (r1, 1l);                 (* 1: block B *)
      Instr.Jmp "end";
      Instr.Label "else";                (* 3: block C *)
      Instr.Li (r1, 2l);
      Instr.Label "end";                 (* 5: block D *)
      Instr.Ret (Some r1);
    ]

let test_cfg_diamond () =
  let cfg = Cfg.build (diamond_func ()) in
  Alcotest.(check int) "4 blocks" 4 (Cfg.n_blocks cfg);
  let sorted l = List.sort compare l in
  Alcotest.(check (list int)) "A succs" [ 1; 2 ]
    (sorted (Cfg.block cfg 0).Cfg.succs);
  Alcotest.(check (list int)) "B succs" [ 3 ] (Cfg.block cfg 1).Cfg.succs;
  Alcotest.(check (list int)) "C succs" [ 3 ] (Cfg.block cfg 2).Cfg.succs;
  Alcotest.(check (list int)) "D succs" [] (Cfg.block cfg 3).Cfg.succs;
  Alcotest.(check (list int)) "D preds" [ 1; 2 ]
    (sorted (Cfg.block cfg 3).Cfg.preds)

let test_cfg_loop () =
  let f =
    Func.make ~name:"l" ~params:[ r0 ] ~ret:None
      [
        Instr.Label "head";
        Instr.Brz (Instr.Le, r0, "exit");
        Instr.Bini (Instr.Sub, r0, r0, 1l);
        Instr.Jmp "head";
        Instr.Label "exit";
        Instr.Ret None;
      ]
  in
  let cfg = Cfg.build f in
  Alcotest.(check int) "3 blocks" 3 (Cfg.n_blocks cfg);
  Alcotest.(check bool) "back edge" true
    (List.mem 0 (Cfg.block cfg 1).Cfg.succs)

let test_cfg_rpo_starts_at_entry () =
  let cfg = Cfg.build (diamond_func ()) in
  match Cfg.reverse_postorder cfg with
  | 0 :: _ -> ()
  | _ -> Alcotest.fail "rpo must start at entry"

(* Property: blocks partition the body; preds/succs are dual. *)
let random_cfg_prop =
  QCheck.Test.make ~name:"cfg partition and duality" ~count:200
    QCheck.(pair (int_bound 20) (int_bound 1000))
    (fun (n_branch, seed) ->
      let rng = Random.State.make [| seed |] in
      let n = 5 + Random.State.int rng 30 in
      let body = ref [] in
      for i = 0 to n - 1 do
        body := Instr.Label (Printf.sprintf "L%d" i) :: !body;
        let roll = Random.State.int rng 4 in
        let instr =
          if roll = 0 && n_branch > 0 then
            Instr.Br
              (Instr.Lt, r0, r1, Printf.sprintf "L%d" (Random.State.int rng n))
          else if roll = 1 then
            Instr.Jmp (Printf.sprintf "L%d" (Random.State.int rng n))
          else Instr.Bini (Instr.Add, r0, r0, 1l)
        in
        body := instr :: !body
      done;
      body := Instr.Ret None :: !body;
      let f =
        Func.make ~name:"rand" ~params:[ r0; r1 ] ~ret:None (List.rev !body)
      in
      let cfg = Cfg.build f in
      (* partition: every body index belongs to exactly one block range *)
      let covered = Array.make (Func.length f) 0 in
      Array.iter
        (fun blk ->
          for i = blk.Cfg.lo to blk.Cfg.hi do
            covered.(i) <- covered.(i) + 1
          done)
        cfg.Cfg.blocks;
      let partition_ok = Array.for_all (fun c -> c = 1) covered in
      (* duality: s in succs(b) iff b in preds(s) *)
      let dual_ok = ref true in
      Array.iter
        (fun blk ->
          List.iter
            (fun s ->
              if not (List.mem blk.Cfg.id (Cfg.block cfg s).Cfg.preds) then
                dual_ok := false)
            blk.Cfg.succs)
        cfg.Cfg.blocks;
      partition_ok && !dual_ok)

(* ------------------------------------------------------------------ *)
(* Program and layout.                                                 *)

let test_prog_layout () =
  let g1 = Prog.global "a" Ty.I32 3 in
  let g2 = Prog.global "b" Ty.F64 2 in
  let g3 = Prog.global "c" Ty.I8 5 in  (* 5 bytes -> 8 bytes padded *)
  let g4 = Prog.global "d" Ty.I32 1 in
  let main =
    Func.make ~name:"main" ~params:[] ~ret:None [ Instr.Ret None ]
  in
  let p = Prog.make ~globals:[ g1; g2; g3; g4 ] [ main ] in
  Alcotest.(check int) "a at 4" 4 (Prog.global_addr p "a");
  Alcotest.(check int) "b after a" 16 (Prog.global_addr p "b");
  Alcotest.(check int) "c after b" 24 (Prog.global_addr p "c");
  Alcotest.(check int) "d word-aligned after c" 32 (Prog.global_addr p "d");
  let _, total = Prog.layout p in
  Alcotest.(check int) "total" 36 total

let test_prog_duplicate_function () =
  let f = Func.make ~name:"main" ~params:[] ~ret:None [ Instr.Ret None ] in
  Alcotest.check_raises "duplicate" (Prog.Invalid "duplicate function main")
    (fun () -> ignore (Prog.make ~globals:[] [ f; f ]))

let test_prog_missing_entry () =
  let f = Func.make ~name:"helper" ~params:[] ~ret:None [ Instr.Ret None ] in
  Alcotest.check_raises "no entry" (Prog.Invalid "missing entry function main")
    (fun () -> ignore (Prog.make ~globals:[] [ f ]))

let test_byte_global_range () =
  Alcotest.check_raises "byte range"
    (Prog.Invalid "global g: byte init out of range") (fun () ->
      ignore (Prog.global ~init:(Prog.Int_data [| 256l |]) "g" Ty.I8 1))

(* ------------------------------------------------------------------ *)
(* Validation.                                                         *)

let valid_prog body =
  let f = Func.make ~name:"main" ~params:[] ~ret:None body in
  Prog.make ~globals:[ Prog.global "g" Ty.I32 4 ] [ f ]

let test_validate_ok () =
  let p =
    valid_prog
      [ Instr.La (r0, "g"); Instr.Li (r1, 7l); Instr.Sw (r1, r0, 0); Instr.Ret None ]
  in
  Alcotest.(check int) "no errors" 0 (List.length (Validate.check p))

let expect_invalid name body =
  let p = valid_prog body in
  match Validate.check p with
  | [] -> Alcotest.failf "%s: expected a validation error" name
  | _ -> ()

let test_validate_errors () =
  expect_invalid "bank mismatch alu"
    [ Instr.Bin (Instr.Add, f0, r0, r1); Instr.Ret None ];
  expect_invalid "bank mismatch fpu"
    [ Instr.Fbin (Instr.Fadd, r0, f0, f1); Instr.Ret None ];
  expect_invalid "unknown global" [ Instr.La (r0, "nope"); Instr.Ret None ];
  expect_invalid "unknown callee"
    [ Instr.Call { dst = None; func = "nope"; args = [] }; Instr.Ret None ];
  expect_invalid "unaligned offset" [ Instr.Lw (r0, r1, 2); Instr.Ret None ];
  expect_invalid "ret value in void" [ Instr.Ret (Some r0) ];
  expect_invalid "falls off end" [ Instr.Li (r0, 1l) ]

let test_validate_call_arity () =
  let callee =
    Func.make ~name:"callee" ~params:[ r0; r1 ] ~ret:(Some Ty.I32)
      [ Instr.Ret (Some r0) ]
  in
  let main =
    Func.make ~name:"main" ~params:[] ~ret:None
      [
        Instr.Li (r0, 1l);
        Instr.Call { dst = None; func = "callee"; args = [ r0 ] };
        Instr.Ret None;
      ]
  in
  let p = Prog.make ~globals:[] [ main; callee ] in
  (* arity mismatch AND ignored-return is legal; arity must error *)
  Alcotest.(check bool) "arity error" true (List.length (Validate.check p) >= 1)

(* ------------------------------------------------------------------ *)
(* Assembler.                                                          *)

let asm_source = {|
; a tiny program in surface syntax
global data : i32[4]
global img  : u8[16]

func helper($r0:i32) -> i32:   ; protected
  addi  $r1, $r0, 5
  ret   $r1

func main() -> i32:
  li    $r0, 3
  $r1 = call  helper($r0)
loop:
  subi  $r1, $r1, 1
  bgtz  $r1, loop
  la    $r2, data
  sw    $r1, 4($r2)
  ret   $r1
|}

let test_asm_parse_and_run () =
  let prog = Ir.Asm.parse_program asm_source in
  Validate.check_exn prog;
  let helper = Prog.get_func prog "helper" in
  Alcotest.(check bool) "protected comment" false helper.Func.eligible;
  let r = Sim.Interp.run_exn (Sim.Code.of_prog prog) in
  match r.Sim.Interp.outcome with
  | Sim.Interp.Done (Some (Sim.Value.I 0)) -> ()
  | _ -> Alcotest.fail "expected loop to count down to 0"

let exercise_all_instrs () =
  (* one function touching every instruction form the printer emits *)
  Func.make ~name:"main" ~params:[ r0; f0 ] ~ret:(Some Ty.I32)
    [
      Instr.Li (r1, -7l);
      Instr.Lf (f1, 1.5);
      Instr.La (r2, "g");
      Instr.Mov (r1, r2);
      Instr.Bin (Instr.Xor, r1, r1, r2);
      Instr.Bini (Instr.Sra, r1, r1, 2l);
      Instr.Cmp (Instr.Le, r1, r1, r2);
      Instr.Fbin (Instr.Fdiv, f1, f0, f1);
      Instr.Fun_ (Instr.Fsqrt, f1, f1);
      Instr.Fcmp (Instr.Ge, r1, f0, f1);
      Instr.I2f (f1, r1);
      Instr.F2i (r1, f1);
      Instr.Lw (r1, r2, 8);
      Instr.Sw (r1, r2, -4);
      Instr.Lb (r1, r2, 3);
      Instr.Sb (r1, r2, 3);
      Instr.Lwf (f1, r2, 0);
      Instr.Swf (f1, r2, 0);
      Instr.Label "l";
      Instr.Br (Instr.Ne, r1, r2, "l");
      Instr.Brz (Instr.Gt, r1, "l");
      Instr.Call { dst = Some r1; func = "main"; args = [ r1; f1 ] };
      Instr.Call { dst = None; func = "main"; args = [ r1; f1 ] };
      Instr.Nop;
      Instr.Jmp "l";
      Instr.Ret (Some r1);
    ]

(* The hand-built program (with a void function of no parameters,
   printed "func tick():") and every app's program print, parse and
   print again to the same text. *)
let test_asm_roundtrip () =
  let f = exercise_all_instrs () in
  let tick = Func.make ~name:"tick" ~params:[] ~ret:None [ Instr.Ret None ] in
  let fixpoint name prog =
    let printed = Format.asprintf "%a" Prog.pp prog in
    let reparsed = Ir.Asm.parse_program ~entry:prog.Prog.entry printed in
    let reprinted = Format.asprintf "%a" Prog.pp reparsed in
    Alcotest.(check string) (name ^ " print/parse/print fixpoint") printed
      reprinted
  in
  fixpoint "exercise"
    (Prog.make ~globals:[ Prog.global "g" Ty.I32 4 ] [ f; tick ]);
  List.iter
    (fun (app : Apps.App.t) ->
      fixpoint app.Apps.App.name (app.Apps.App.build ~seed:1).Apps.App.prog)
    Apps.Registry.all

let test_asm_errors () =
  let expect_err src =
    match Ir.Asm.parse_program_res src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
  in
  expect_err "func main() -> i32:\n  bogus $r0\n  ret $r0";
  expect_err "li $r0, 1";  (* instruction outside a function *)
  expect_err "global g : i32[0]\nfunc main():\n  ret";
  expect_err "func main() -> i32:\n  li $rX, 1\n  ret $r0"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ir"
    [
      ( "reg",
        [
          Alcotest.test_case "basics" `Quick test_reg_basics;
          Alcotest.test_case "set distinguishes banks" `Quick
            test_reg_set_distinguishes_banks;
        ] );
      ( "instr",
        [
          Alcotest.test_case "def/use" `Quick test_def_use;
          Alcotest.test_case "addr uses" `Quick test_addr_uses;
          Alcotest.test_case "stored value" `Quick test_stored_value;
          Alcotest.test_case "control predicates" `Quick
            test_control_predicates;
        ] );
      ( "func",
        [
          Alcotest.test_case "labels" `Quick test_func_labels;
          Alcotest.test_case "duplicate label" `Quick test_func_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_func_undefined_label;
          Alcotest.test_case "register counts" `Quick test_func_register_counts;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "diamond" `Quick test_cfg_diamond;
          Alcotest.test_case "loop" `Quick test_cfg_loop;
          Alcotest.test_case "rpo entry" `Quick test_cfg_rpo_starts_at_entry;
          QCheck_alcotest.to_alcotest random_cfg_prop;
        ] );
      ( "prog",
        [
          Alcotest.test_case "layout" `Quick test_prog_layout;
          Alcotest.test_case "duplicate function" `Quick
            test_prog_duplicate_function;
          Alcotest.test_case "missing entry" `Quick test_prog_missing_entry;
          Alcotest.test_case "byte global range" `Quick test_byte_global_range;
        ] );
      ( "asm",
        [
          Alcotest.test_case "parse and run" `Quick test_asm_parse_and_run;
          Alcotest.test_case "print/parse roundtrip" `Quick test_asm_roundtrip;
          Alcotest.test_case "errors" `Quick test_asm_errors;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts valid" `Quick test_validate_ok;
          Alcotest.test_case "rejects invalid" `Quick test_validate_errors;
          Alcotest.test_case "call arity" `Quick test_validate_call_arity;
        ] );
    ]
