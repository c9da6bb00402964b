(* Tests for the functional simulator: value semantics, the two memory
   models, the interpreter's instruction semantics, traps, timeouts
   and the fault-injection hook. *)

open Ir

let r0 = Reg.int 0
let r1 = Reg.int 1
let r2 = Reg.int 2
let f0 = Reg.flt 0
let f1 = Reg.flt 1
let f2 = Reg.flt 2

(* ------------------------------------------------------------------ *)
(* Values and bit flips.                                               *)

let test_sx32 () =
  Alcotest.(check int) "id small" 42 (Sim.Value.sx32 42);
  Alcotest.(check int) "wrap max" (-2147483648) (Sim.Value.sx32 2147483648);
  Alcotest.(check int) "id min" (-2147483648) (Sim.Value.sx32 (-2147483648));
  Alcotest.(check int) "wrap -1 image" (-1) (Sim.Value.sx32 0xFFFFFFFF);
  Alcotest.(check int) "2^32 wraps to 0" 0 (Sim.Value.sx32 (1 lsl 32))

let test_flip_int () =
  Alcotest.(check int) "bit 0" 1 (Sim.Value.flip_int ~bit:0 0);
  Alcotest.(check int) "bit 31 sign" (-2147483648)
    (Sim.Value.flip_int ~bit:31 0);
  Alcotest.(check int) "clears" 0 (Sim.Value.flip_int ~bit:4 16)

let test_flip_float () =
  let x = 1.5 in
  let y = Sim.Value.flip_float ~bit:63 x in
  Alcotest.(check (float 0.0)) "sign bit" (-1.5) y

let flip_involution =
  QCheck.Test.make ~name:"int flip is an involution" ~count:500
    QCheck.(pair int (int_bound 31))
    (fun (v, bit) ->
      let v = Sim.Value.sx32 v in
      Sim.Value.flip_int ~bit (Sim.Value.flip_int ~bit v) = v)

let flip_changes =
  QCheck.Test.make ~name:"flip changes the value" ~count:500
    QCheck.(pair int (int_bound 31))
    (fun (v, bit) ->
      let v = Sim.Value.sx32 v in
      Sim.Value.flip_int ~bit v <> v)

let flip_float_involution =
  QCheck.Test.make ~name:"float flip is an involution (bitwise)" ~count:500
    QCheck.(pair float (int_bound 63))
    (fun (x, bit) ->
      Int64.equal
        (Int64.bits_of_float
           (Sim.Value.flip_float ~bit (Sim.Value.flip_float ~bit x)))
        (Int64.bits_of_float x))

(* ------------------------------------------------------------------ *)
(* Memory.                                                             *)

let test_memory_strict_traps () =
  let m = Sim.Memory.create ~cells:8 () in
  Alcotest.check_raises "unaligned" (Sim.Trap.Error (Sim.Trap.Unaligned 6))
    (fun () -> ignore (Sim.Memory.load_int m 6));
  Alcotest.check_raises "null" (Sim.Trap.Error Sim.Trap.Null_access)
    (fun () -> ignore (Sim.Memory.load_int m 0));
  Alcotest.check_raises "oob" (Sim.Trap.Error (Sim.Trap.Out_of_bounds 64))
    (fun () -> ignore (Sim.Memory.load_int m 64));
  Sim.Memory.store_flt m 4 2.5;
  Alcotest.check_raises "type confusion"
    (Sim.Trap.Error (Sim.Trap.Type_confusion 4)) (fun () ->
      ignore (Sim.Memory.load_int m 4))

let test_memory_lenient () =
  let m = Sim.Memory.create ~lenient:true ~cells:8 () in
  Alcotest.(check int) "oob load zero" 0 (Sim.Memory.load_int m 1000);
  Alcotest.(check int) "negative addr zero" 0 (Sim.Memory.load_int m (-8));
  Sim.Memory.store_int m 1000 5;  (* dropped silently *)
  Sim.Memory.store_int m 8 7;
  Alcotest.(check int) "unaligned rounds down" 7 (Sim.Memory.load_int m 10);
  Sim.Memory.store_flt m 4 2.5;
  Alcotest.(check int) "kind confusion reads 0" 0 (Sim.Memory.load_int m 4)

let test_memory_bytes () =
  let m = Sim.Memory.create ~cells:8 () in
  Sim.Memory.store_byte m 4 0xAB;
  Sim.Memory.store_byte m 5 0xCD;
  Alcotest.(check int) "lane 0" 0xAB (Sim.Memory.load_byte m 4);
  Alcotest.(check int) "lane 1" 0xCD (Sim.Memory.load_byte m 5);
  (* little-endian packing within the word *)
  Alcotest.(check int) "word image" 0xCDAB (Sim.Memory.load_int m 4);
  Sim.Memory.store_byte m 7 0xFF;
  Alcotest.(check bool) "word is signed" true (Sim.Memory.load_int m 4 < 0);
  Alcotest.(check int) "byte reload zero-extends" 0xFF
    (Sim.Memory.load_byte m 7);
  (* byte store truncates to the low 8 bits *)
  Sim.Memory.store_byte m 6 0x1FF;
  Alcotest.(check int) "truncated" 0xFF (Sim.Memory.load_byte m 6)

let test_memory_of_prog_init () =
  let globals =
    [
      Prog.global ~init:(Prog.Int_data [| 10l; -2l |]) "w" Ty.I32 2;
      Prog.global ~init:(Prog.Flt_data [| 3.25 |]) "f" Ty.F64 1;
      Prog.global ~init:(Prog.Int_data [| 1l; 2l; 3l; 4l; 5l |]) "b" Ty.I8 5;
    ]
  in
  let main = Func.make ~name:"main" ~params:[] ~ret:None [ Instr.Ret None ] in
  let p = Prog.make ~globals [ main ] in
  let m = Sim.Memory.of_prog p in
  Alcotest.(check int) "w[0]" 10 (Sim.Memory.load_int m (Prog.global_addr p "w"));
  Alcotest.(check int) "w[1]" (-2)
    (Sim.Memory.load_int m (Prog.global_addr p "w" + 4));
  Alcotest.(check (float 0.0)) "f[0]" 3.25
    (Sim.Memory.load_flt m (Prog.global_addr p "f"));
  let b = Prog.global_addr p "b" in
  Alcotest.(check int) "b[4]" 5 (Sim.Memory.load_byte m (b + 4));
  let back = Sim.Memory.read_global_ints m p "b" in
  Alcotest.(check (array int)) "read_global bytes" [| 1; 2; 3; 4; 5 |] back

(* Regression: [int_of_float] is unspecified for nan/inf and values
   outside the int range — all reachable in a float cell after a float
   injection flips an exponent bit. [read_global_ints] must clamp them
   to 0 instead of returning platform noise. *)
let test_read_global_ints_nonfinite () =
  let globals = [ Prog.global "f" Ty.F64 5 ] in
  let main = Func.make ~name:"main" ~params:[] ~ret:None [ Instr.Ret None ] in
  let p = Prog.make ~globals [ main ] in
  let m = Sim.Memory.of_prog p in
  let a = Prog.global_addr p "f" in
  Sim.Memory.store_flt m a Float.nan;
  Sim.Memory.store_flt m (a + 4) Float.infinity;
  Sim.Memory.store_flt m (a + 8) Float.neg_infinity;
  Sim.Memory.store_flt m (a + 12) 1e30;  (* finite, out of int32 range *)
  Sim.Memory.store_flt m (a + 16) (-42.75);
  Alcotest.(check (array int))
    "non-finite and out-of-range clamp to 0"
    [| 0; 0; 0; 0; -42 |]
    (Sim.Memory.read_global_ints m p "f")

(* ------------------------------------------------------------------ *)
(* Interpreter semantics.                                              *)

(* Build a one-function program returning an int expression. *)
let run_main ?injection ?budget body =
  let f = Func.make ~name:"main" ~params:[] ~ret:(Some Ty.I32) body in
  let p = Prog.make ~globals:[ Prog.global "g" Ty.I32 8 ] [ f ] in
  Sim.Interp.run ?injection ?budget (Sim.Code.of_prog p)

let expect_ret name body expected =
  match (run_main body).Sim.Interp.outcome with
  | Sim.Interp.Done (Some (Sim.Value.I v)) ->
    Alcotest.(check int) name expected v
  | o ->
    Alcotest.failf "%s: unexpected outcome %s" name
      (match o with
       | Sim.Interp.Trapped t -> Sim.Trap.to_string t
       | Sim.Interp.Timeout -> "timeout"
       | Sim.Interp.Done _ -> "wrong value kind")

let bin op a b = [ Instr.Li (r0, a); Instr.Li (r1, b); Instr.Bin (op, r2, r0, r1); Instr.Ret (Some r2) ]

let test_alu () =
  expect_ret "add wrap" (bin Instr.Add 2147483647l 1l) (-2147483648);
  expect_ret "sub" (bin Instr.Sub 5l 9l) (-4);
  expect_ret "mul wrap" (bin Instr.Mul 65536l 65536l) 0;
  expect_ret "div trunc toward zero" (bin Instr.Div (-7l) 2l) (-3);
  expect_ret "rem sign" (bin Instr.Rem (-7l) 2l) (-1);
  expect_ret "and" (bin Instr.And 12l 10l) 8;
  expect_ret "or" (bin Instr.Or 12l 10l) 14;
  expect_ret "xor" (bin Instr.Xor 12l 10l) 6;
  expect_ret "sll" (bin Instr.Sll 1l 31l) (-2147483648);
  expect_ret "srl on negative" (bin Instr.Srl (-1l) 28l) 15;
  expect_ret "sra on negative" (bin Instr.Sra (-16l) 2l) (-4);
  expect_ret "shift amount masked" (bin Instr.Sll 1l 33l) 2

let test_cmp () =
  expect_ret "slt true"
    [ Instr.Li (r0, 1l); Instr.Li (r1, 2l); Instr.Cmp (Instr.Lt, r2, r0, r1); Instr.Ret (Some r2) ]
    1;
  expect_ret "sge false"
    [ Instr.Li (r0, 1l); Instr.Li (r1, 2l); Instr.Cmp (Instr.Ge, r2, r0, r1); Instr.Ret (Some r2) ]
    0

let test_float_ops () =
  let body =
    [
      Instr.Lf (f0, 1.5);
      Instr.Lf (f1, 2.25);
      Instr.Fbin (Instr.Fmul, f2, f0, f1);
      Instr.F2i (r0, f2);
      Instr.Ret (Some r0);
    ]
  in
  expect_ret "fmul then trunc" body 3

let test_f2i_traps_on_nan () =
  let body =
    [
      Instr.Lf (f0, 0.0);
      Instr.Lf (f1, 0.0);
      Instr.Fbin (Instr.Fdiv, f2, f0, f1);  (* nan, no trap *)
      Instr.F2i (r0, f2);                   (* trap *)
      Instr.Ret (Some r0);
    ]
  in
  match (run_main body).Sim.Interp.outcome with
  | Sim.Interp.Trapped (Sim.Trap.Float_to_int_overflow _) -> ()
  | _ -> Alcotest.fail "expected f2i trap"

let test_div_by_zero_traps () =
  match (run_main (bin Instr.Div 1l 0l)).Sim.Interp.outcome with
  | Sim.Interp.Trapped Sim.Trap.Division_by_zero -> ()
  | _ -> Alcotest.fail "expected division trap"

let test_branches_and_loop () =
  (* sum 1..5 *)
  let body =
    [
      Instr.Li (r0, 0l);       (* acc *)
      Instr.Li (r1, 1l);       (* i *)
      Instr.Li (r2, 5l);       (* n *)
      Instr.Label "head";
      Instr.Br (Instr.Gt, r1, r2, "done");
      Instr.Bin (Instr.Add, r0, r0, r1);
      Instr.Bini (Instr.Add, r1, r1, 1l);
      Instr.Jmp "head";
      Instr.Label "done";
      Instr.Ret (Some r0);
    ]
  in
  expect_ret "loop sum" body 15

let test_call_and_recursion () =
  (* fib 10 = 55, recursively *)
  let fib =
    Func.make ~name:"fib" ~params:[ r0 ] ~ret:(Some Ty.I32)
      [
        Instr.Li (r1, 2l);
        Instr.Br (Instr.Lt, r0, r1, "base");
        Instr.Bini (Instr.Sub, r1, r0, 1l);
        Instr.Call { dst = Some r2; func = "fib"; args = [ r1 ] };
        Instr.Bini (Instr.Sub, r1, r0, 2l);
        Instr.Call { dst = Some (Reg.int 3); func = "fib"; args = [ r1 ] };
        Instr.Bin (Instr.Add, r2, r2, Reg.int 3);
        Instr.Ret (Some r2);
        Instr.Label "base";
        Instr.Ret (Some r0);
      ]
  in
  let main =
    Func.make ~name:"main" ~params:[] ~ret:(Some Ty.I32)
      [
        Instr.Li (r0, 10l);
        Instr.Call { dst = Some r1; func = "fib"; args = [ r0 ] };
        Instr.Ret (Some r1);
      ]
  in
  let p = Prog.make ~globals:[] [ main; fib ] in
  match (Sim.Interp.run (Sim.Code.of_prog p)).Sim.Interp.outcome with
  | Sim.Interp.Done (Some (Sim.Value.I 55)) -> ()
  | _ -> Alcotest.fail "fib 10 <> 55"

let test_stack_overflow () =
  let loop =
    Func.make ~name:"loop" ~params:[] ~ret:None
      [
        Instr.Call { dst = None; func = "loop"; args = [] };
        Instr.Ret None;
      ]
  in
  let main =
    Func.make ~name:"main" ~params:[] ~ret:None
      [ Instr.Call { dst = None; func = "loop"; args = [] }; Instr.Ret None ]
  in
  let p = Prog.make ~globals:[] [ main; loop ] in
  match (Sim.Interp.run (Sim.Code.of_prog p)).Sim.Interp.outcome with
  | Sim.Interp.Trapped (Sim.Trap.Call_stack_overflow _) -> ()
  | _ -> Alcotest.fail "expected call stack overflow"

let test_timeout () =
  let body =
    [ Instr.Label "spin"; Instr.Jmp "spin"; Instr.Ret (Some r0) ]
  in
  match (run_main ~budget:10_000 body).Sim.Interp.outcome with
  | Sim.Interp.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout"

let test_dyn_count_excludes_labels () =
  let r = run_main [ Instr.Label "a"; Instr.Li (r0, 1l); Instr.Ret (Some r0) ] in
  Alcotest.(check int) "labels free" 2 r.Sim.Interp.dyn_count

let test_determinism () =
  let body = bin Instr.Add 3l 4l in
  let a = run_main body and b = run_main body in
  Alcotest.(check int) "same count" a.Sim.Interp.dyn_count b.Sim.Interp.dyn_count

(* ------------------------------------------------------------------ *)
(* Injection hook.                                                     *)

let test_injection_exact () =
  (* main: r0 = 5 (injectable); flip bit 1 of the single injectable
     dynamic instruction -> result 7 *)
  let f =
    Func.make ~name:"main" ~params:[] ~ret:(Some Ty.I32)
      [ Instr.Li (r0, 5l); Instr.Ret (Some r0) ]
  in
  let p = Prog.make ~globals:[] [ f ] in
  let code = Sim.Code.of_prog p in
  let tags = [| [| true; false |] |] in
  let injection = Sim.Interp.injection ~tags ~plan:[ (0, 1) ] in
  let r = Sim.Interp.run ~injection code in
  (match r.Sim.Interp.outcome with
   | Sim.Interp.Done (Some (Sim.Value.I 7)) -> ()
   | _ -> Alcotest.fail "expected corrupted 7");
  Alcotest.(check int) "one injectable" 1 r.Sim.Interp.injectable_seen;
  Alcotest.(check int) "one landed" 1 r.Sim.Interp.faults_landed

let test_injection_counts_only_tagged () =
  let f =
    Func.make ~name:"main" ~params:[] ~ret:(Some Ty.I32)
      [ Instr.Li (r0, 1l); Instr.Li (r1, 2l); Instr.Bin (Instr.Add, r2, r0, r1); Instr.Ret (Some r2) ]
  in
  let p = Prog.make ~globals:[] [ f ] in
  let code = Sim.Code.of_prog p in
  let tags = [| [| false; true; false; false |] |] in
  let r =
    Sim.Interp.run ~injection:(Sim.Interp.injection ~tags ~plan:[]) code
  in
  Alcotest.(check int) "only tagged counted" 1 r.Sim.Interp.injectable_seen

(* The sorted-plan/monotone-cursor path must land exactly the faults a
   per-ordinal lookup (the old Hashtbl implementation) would: every
   planned ordinal below the injectable count is applied once, plan
   order does not matter, and ordinals past the end of the run are
   ignored without derailing the cursor. *)
let test_multi_fault_plan_matches_lookup () =
  (* main: r0..r3 loaded (all injectable), returns r0+r1+r2+r3. *)
  let r3 = Reg.int 3 in
  let f =
    Func.make ~name:"main" ~params:[] ~ret:(Some Ty.I32)
      [
        Instr.Li (r0, 1l); Instr.Li (r1, 1l); Instr.Li (r2, 1l);
        Instr.Li (r3, 1l);
        Instr.Bin (Instr.Add, r0, r0, r1);
        Instr.Bin (Instr.Add, r0, r0, r2);
        Instr.Bin (Instr.Add, r0, r0, r3);
        Instr.Ret (Some r0);
      ]
  in
  let p = Prog.make ~globals:[] [ f ] in
  let code = Sim.Code.of_prog p in
  let tags = [| [| true; true; true; true; false; false; false; false |] |] in
  (* Reference semantics, ordinal by ordinal: flipping bit b of an
     ordinal's value XORs the final sum with the same delta whichever
     Li it hits (all hold 1, and the adds are untagged). *)
  let run_with plan =
    Sim.Interp.run ~injection:(Sim.Interp.injection ~tags ~plan) code
  in
  let value r =
    match r.Sim.Interp.outcome with
    | Sim.Interp.Done (Some (Sim.Value.I v)) -> v
    | _ -> Alcotest.fail "expected an int return"
  in
  (* ordinal 5 exceeds injectable_seen (4): it must not land, and must
     not block later entries from matching (none here). *)
  let plan = [ (0, 1); (2, 2); (3, 0); (5, 7) ] in
  let r = run_with plan in
  Alcotest.(check int) "injectable pool" 4 r.Sim.Interp.injectable_seen;
  Alcotest.(check int) "three land, overflow ignored" 3
    r.Sim.Interp.faults_landed;
  (* 1+1+1+1 with ordinal 0 -> 1 xor 2 = 3, ordinal 2 -> 1 xor 4 = 5,
     ordinal 3 -> 1 xor 1 = 0: sum = 3 + 1 + 5 + 0 *)
  Alcotest.(check int) "exact corruption" 9 (value r);
  (* plan list order is irrelevant: the constructor sorts *)
  List.iter
    (fun permuted ->
      let r' = run_with permuted in
      Alcotest.(check int) "same result, permuted plan" (value r) (value r');
      Alcotest.(check int) "same landed count" r.Sim.Interp.faults_landed
        r'.Sim.Interp.faults_landed)
    [
      [ (5, 7); (3, 0); (2, 2); (0, 1) ];
      [ (2, 2); (0, 1); (5, 7); (3, 0) ];
    ];
  (* duplicate ordinals are rejected rather than silently dropped *)
  Alcotest.check_raises "duplicate ordinal"
    (Invalid_argument "Interp.injection: duplicate ordinal") (fun () ->
      ignore (Sim.Interp.injection ~tags ~plan:[ (1, 0); (1, 3) ]))

let test_exec_counts () =
  let body =
    [
      Instr.Li (r0, 0l);
      Instr.Li (r1, 3l);
      Instr.Label "head";
      Instr.Brz (Instr.Le, r1, "done");
      Instr.Bini (Instr.Sub, r1, r1, 1l);
      Instr.Jmp "head";
      Instr.Label "done";
      Instr.Ret (Some r0);
    ]
  in
  let f = Func.make ~name:"main" ~params:[] ~ret:(Some Ty.I32) body in
  let p = Prog.make ~globals:[] [ f ] in
  let r = Sim.Interp.run ~count_exec:true (Sim.Code.of_prog p) in
  let counts = r.Sim.Interp.exec_counts.(0) in
  Alcotest.(check int) "li once" 1 counts.(0);
  Alcotest.(check int) "branch 4x" 4 counts.(3);
  Alcotest.(check int) "body 3x" 3 counts.(4)

(* ------------------------------------------------------------------ *)
(* Properties: interpreter arithmetic agrees with native 32-bit
   semantics, and byte/word memory interactions are consistent.        *)

let alu_matches_native_prop =
  QCheck.Test.make ~name:"interp ALU = native 32-bit semantics" ~count:300
    QCheck.(triple (int_bound 8) int int)
    (fun (opn, a, b) ->
      let a = Sim.Value.sx32 a and b = Sim.Value.sx32 b in
      let op, expected =
        match opn with
        | 0 -> (Instr.Add, Sim.Value.sx32 (a + b))
        | 1 -> (Instr.Sub, Sim.Value.sx32 (a - b))
        | 2 -> (Instr.Mul, Sim.Value.sx32 (a * b))
        | 3 -> (Instr.And, a land b)
        | 4 -> (Instr.Or, a lor b)
        | 5 -> (Instr.Xor, a lxor b)
        | 6 -> (Instr.Sll, Sim.Value.sx32 (a lsl (b land 31)))
        | 7 -> (Instr.Srl, Sim.Value.sx32 ((a land 0xFFFFFFFF) lsr (b land 31)))
        | _ -> (Instr.Sra, a asr (b land 31))
      in
      let r =
        run_main
          [
            Instr.Li (r0, Int32.of_int a);
            Instr.Li (r1, Int32.of_int b);
            Instr.Bin (op, r2, r0, r1);
            Instr.Ret (Some r2);
          ]
      in
      match r.Sim.Interp.outcome with
      | Sim.Interp.Done (Some (Sim.Value.I v)) -> v = expected
      | _ -> false)

let byte_word_consistency_prop =
  QCheck.Test.make ~name:"four byte stores = one word image" ~count:200
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (b0, b1, b2, b3) ->
      let m = Sim.Memory.create ~cells:4 () in
      Sim.Memory.store_byte m 4 b0;
      Sim.Memory.store_byte m 5 b1;
      Sim.Memory.store_byte m 6 b2;
      Sim.Memory.store_byte m 7 b3;
      let word = Sim.Memory.load_int m 4 in
      let expected =
        Sim.Value.sx32 (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24))
      in
      word = expected
      && Sim.Memory.load_byte m 4 = b0
      && Sim.Memory.load_byte m 5 = b1
      && Sim.Memory.load_byte m 6 = b2
      && Sim.Memory.load_byte m 7 = b3)

let word_store_overwrites_bytes_prop =
  QCheck.Test.make ~name:"word store overwrites all byte lanes" ~count:200
    QCheck.(pair int (int_bound 3))
    (fun (v, lane) ->
      let v = Sim.Value.sx32 v in
      let m = Sim.Memory.create ~cells:4 () in
      Sim.Memory.store_byte m (4 + lane) 0xAA;
      Sim.Memory.store_int m 4 v;
      Sim.Memory.load_byte m (4 + lane)
      = ((v land 0xFFFFFFFF) lsr (8 * lane)) land 0xFF)

let lenient_never_raises_prop =
  QCheck.Test.make ~name:"lenient memory never raises" ~count:300
    QCheck.(pair int (int_bound 3))
    (fun (addr, kind) ->
      let m = Sim.Memory.create ~lenient:true ~cells:8 () in
      (try
         (match kind with
          | 0 -> ignore (Sim.Memory.load_int m addr)
          | 1 -> Sim.Memory.store_int m addr 7
          | 2 -> ignore (Sim.Memory.load_byte m addr)
          | _ -> Sim.Memory.store_byte m addr 7);
         true
       with _ -> false))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sim"
    [
      ( "value",
        [
          Alcotest.test_case "sx32" `Quick test_sx32;
          Alcotest.test_case "flip int" `Quick test_flip_int;
          Alcotest.test_case "flip float" `Quick test_flip_float;
          QCheck_alcotest.to_alcotest flip_involution;
          QCheck_alcotest.to_alcotest flip_changes;
          QCheck_alcotest.to_alcotest flip_float_involution;
        ] );
      ( "memory",
        [
          Alcotest.test_case "strict traps" `Quick test_memory_strict_traps;
          Alcotest.test_case "lenient (sim-safe)" `Quick test_memory_lenient;
          Alcotest.test_case "byte lanes" `Quick test_memory_bytes;
          Alcotest.test_case "of_prog init" `Quick test_memory_of_prog_init;
          Alcotest.test_case "read_global_ints non-finite" `Quick
            test_read_global_ints_nonfinite;
        ] );
      ( "interp",
        [
          Alcotest.test_case "alu" `Quick test_alu;
          Alcotest.test_case "compare" `Quick test_cmp;
          Alcotest.test_case "floats" `Quick test_float_ops;
          Alcotest.test_case "f2i nan trap" `Quick test_f2i_traps_on_nan;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_traps;
          Alcotest.test_case "branches and loops" `Quick test_branches_and_loop;
          Alcotest.test_case "calls and recursion" `Quick
            test_call_and_recursion;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "labels not counted" `Quick
            test_dyn_count_excludes_labels;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "injection",
        [
          Alcotest.test_case "exact flip" `Quick test_injection_exact;
          Alcotest.test_case "counts only tagged" `Quick
            test_injection_counts_only_tagged;
          Alcotest.test_case "multi-fault plan matches lookup" `Quick
            test_multi_fault_plan_matches_lookup;
          Alcotest.test_case "exec counts" `Quick test_exec_counts;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest alu_matches_native_prop;
          QCheck_alcotest.to_alcotest byte_word_consistency_prop;
          QCheck_alcotest.to_alcotest word_store_overwrites_bytes_prop;
          QCheck_alcotest.to_alcotest lenient_never_raises_prop;
        ] );
    ]
