(* Tests for the Mlang language: typechecking, lowering semantics
   (checked by executing compiled programs on the simulator against
   OCaml-evaluated references), optimization soundness, and byte-array
   semantics. *)

open Mlang.Dsl

let compile ?optimize p = Mlang.Compile.to_ir ?optimize p

let run_prog ?optimize p =
  let prog = compile ?optimize p in
  let r = Sim.Interp.run_exn (Sim.Code.of_prog prog) in
  (prog, r)

let ret_int ?optimize p =
  match (snd (run_prog ?optimize p)).Sim.Interp.outcome with
  | Sim.Interp.Done (Some (Sim.Value.I v)) -> v
  | _ -> Alcotest.fail "expected int return"

let main_returning body =
  program [] [ fn "main" [] ~ret:(Some Mlang.Ast.TInt) body ]

(* ------------------------------------------------------------------ *)
(* Typechecking.                                                       *)

let expect_type_error name p =
  match Mlang.Typecheck.check_program p with
  | () -> Alcotest.failf "%s: expected a type error" name
  | exception Mlang.Ast.Type_error _ -> ()

let test_typecheck_rejects () =
  expect_type_error "unbound variable"
    (main_returning [ ret (v "nope") ]);
  expect_type_error "mixed arithmetic"
    (main_returning [ ret (i 1 +! f 2.0) ]);
  expect_type_error "float rem"
    (program [] [ fn "main" [] ~ret:(Some Mlang.Ast.TFlt) [ ret (f 1.0 %! f 2.0) ] ]);
  expect_type_error "assign before decl"
    (main_returning [ set "x" (i 1); ret (i 0) ]);
  expect_type_error "assign wrong type"
    (main_returning [ let_ "x" (i 1); set "x" (f 2.0); ret (i 0) ]);
  expect_type_error "unknown array"
    (main_returning [ ret ("nope".%(i 0)) ]);
  expect_type_error "float index"
    (program [ garray "a" 4 ] [ fn "main" [] ~ret:(Some Mlang.Ast.TInt) [ ret ("a".%(f 1.0)) ] ]);
  expect_type_error "unknown call"
    (main_returning [ ret (call "nope" []) ]);
  expect_type_error "arity"
    (program []
       [
         fn "g" [ p_int "x" ] ~ret:(Some Mlang.Ast.TInt) [ ret (v "x") ];
         fn "main" [] ~ret:(Some Mlang.Ast.TInt) [ ret (call "g" []) ];
       ]);
  expect_type_error "void used as value"
    (program []
       [
         proc "g" [] [ ret_void ];
         fn "main" [] ~ret:(Some Mlang.Ast.TInt) [ ret (call "g" []) ];
       ]);
  expect_type_error "break outside loop"
    (main_returning [ break_; ret (i 0) ]);
  expect_type_error "missing return"
    (main_returning [ let_ "x" (i 1) ]);
  expect_type_error "byte init out of range"
    (program
       [ garray_init_b "b" [| 300l |] ]
       [ fn "main" [] ~ret:(Some Mlang.Ast.TInt) [ ret (i 0) ] ])

let test_typecheck_accepts_shadowing () =
  (* a branch-local declaration may shadow and must not escape *)
  let p =
    main_returning
      [
        let_ "x" (i 1);
        when_ (v "x" >! i 0) [ let_ "x" (i 99); set "x" (v "x" +! i 1) ];
        ret (v "x");
      ]
  in
  Alcotest.(check int) "outer x unchanged" 1 (ret_int p)

let test_return_paths () =
  (* both branches return: accepted *)
  let p =
    main_returning
      [ if_ (i 1) [ ret (i 5) ] [ ret (i 6) ] ]
  in
  Alcotest.(check int) "if returning" 5 (ret_int p)

(* ------------------------------------------------------------------ *)
(* Expression semantics vs an OCaml evaluator (property test).         *)

let sx32 v = ((v land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

(* random integer expression over two variables *)
let rec gen_expr rng depth =
  if depth = 0 then
    match Random.State.int rng 3 with
    | 0 -> Mlang.Ast.Int (Random.State.int rng 2001 - 1000)
    | 1 -> Mlang.Ast.Var "x"
    | _ -> Mlang.Ast.Var "y"
  else
    let a = gen_expr rng (depth - 1) and b = gen_expr rng (depth - 1) in
    match Random.State.int rng 10 with
    | 0 -> Mlang.Ast.Bin (Mlang.Ast.Add, a, b)
    | 1 -> Mlang.Ast.Bin (Mlang.Ast.Sub, a, b)
    | 2 -> Mlang.Ast.Bin (Mlang.Ast.Mul, a, b)
    | 3 -> Mlang.Ast.Bin (Mlang.Ast.BAnd, a, b)
    | 4 -> Mlang.Ast.Bin (Mlang.Ast.BOr, a, b)
    | 5 -> Mlang.Ast.Bin (Mlang.Ast.BXor, a, b)
    | 6 -> Mlang.Ast.Bin (Mlang.Ast.Shl, a, Mlang.Ast.Int (Random.State.int rng 32))
    | 7 -> Mlang.Ast.Bin (Mlang.Ast.Ashr, a, Mlang.Ast.Int (Random.State.int rng 32))
    | 8 -> Mlang.Ast.Cmp (Mlang.Ast.Lt, a, b)
    | _ -> Mlang.Ast.Neg a

let rec eval_expr env (e : Mlang.Ast.expr) =
  match e with
  | Mlang.Ast.Int n -> sx32 n
  | Mlang.Ast.Var x -> List.assoc x env
  | Mlang.Ast.Bin (op, a, b) ->
    let a = eval_expr env a and b = eval_expr env b in
    sx32
      (match op with
       | Mlang.Ast.Add -> a + b
       | Mlang.Ast.Sub -> a - b
       | Mlang.Ast.Mul -> a * b
       | Mlang.Ast.Div -> a / b
       | Mlang.Ast.Rem -> a mod b
       | Mlang.Ast.BAnd -> a land b
       | Mlang.Ast.BOr -> a lor b
       | Mlang.Ast.BXor -> a lxor b
       | Mlang.Ast.Shl -> a lsl (b land 31)
       | Mlang.Ast.Shr -> (a land 0xFFFFFFFF) lsr (b land 31)
       | Mlang.Ast.Ashr -> a asr (b land 31))
  | Mlang.Ast.Cmp (op, a, b) ->
    let a = eval_expr env a and b = eval_expr env b in
    let holds =
      match op with
      | Mlang.Ast.Eq -> a = b
      | Mlang.Ast.Ne -> a <> b
      | Mlang.Ast.Lt -> a < b
      | Mlang.Ast.Le -> a <= b
      | Mlang.Ast.Gt -> a > b
      | Mlang.Ast.Ge -> a >= b
    in
    if holds then 1 else 0
  | Mlang.Ast.Neg a -> sx32 (-eval_expr env a)
  | Mlang.Ast.Not a -> if eval_expr env a = 0 then 1 else 0
  | _ -> Alcotest.fail "unsupported in evaluator"

let expr_semantics_prop =
  QCheck.Test.make ~name:"compiled expressions match OCaml evaluation"
    ~count:150
    QCheck.(triple (int_bound 100_000) small_signed_int small_signed_int)
    (fun (seed, x, y) ->
      let rng = Random.State.make [| seed |] in
      let e = gen_expr rng 4 in
      let x = sx32 x and y = sx32 y in
      let expected = eval_expr [ ("x", x); ("y", y) ] e in
      let p =
        main_returning [ let_ "x" (i x); let_ "y" (i y); ret e ]
      in
      ret_int p = expected && ret_int ~optimize:false p = expected)

(* ------------------------------------------------------------------ *)
(* Statement semantics.                                                *)

let test_while_break_continue () =
  (* sum odd numbers below 10, stopping at 7: 1+3+5+7 = 16 *)
  let p =
    main_returning
      [
        let_ "acc" (i 0);
        let_ "k" (i 0);
        while_ (i 1)
          [
            set "k" (v "k" +! i 1);
            when_ (v "k" >! i 7) [ break_ ];
            when_ ((v "k" %! i 2) ==! i 0) [ continue_ ];
            set "acc" (v "acc" +! v "k");
          ];
        ret (v "acc");
      ]
  in
  Alcotest.(check int) "break/continue" 16 (ret_int p)

let test_for_bound_evaluated_once () =
  (* mutating the bound variable inside the body must not move the
     bound (it is pinned at loop entry) *)
  let p =
    main_returning
      [
        let_ "n" (i 5);
        let_ "count" (i 0);
        for_ "k" (i 0) (v "n")
          [ set "n" (i 100); set "count" (v "count" +! i 1) ];
        ret (v "count");
      ]
  in
  Alcotest.(check int) "bound pinned" 5 (ret_int p)

let test_nested_loops () =
  let p =
    main_returning
      [
        let_ "acc" (i 0);
        for_ "a" (i 0) (i 4)
          [ for_ "b" (i 0) (i 4) [ set "acc" (v "acc" +! (v "a" *! v "b")) ] ];
        ret (v "acc");
      ]
  in
  Alcotest.(check int) "nested" 36 (ret_int p)

let test_float_pipeline () =
  let p =
    program
      [ garray_f "out" 1 ]
      [
        fn "main" [] ~ret:(Some Mlang.Ast.TInt)
          [
            let_ "x" (f 1.5);
            let_ "y" (v "x" *!. f 4.0 +!. f 0.25);
            sto "out" (i 0) (v "y");
            ret (f2i (v "y"));
          ];
      ]
  in
  let prog, r = run_prog p in
  (match r.Sim.Interp.outcome with
   | Sim.Interp.Done (Some (Sim.Value.I 6)) -> ()
   | _ -> Alcotest.fail "f2i of 6.25");
  let out = Sim.Memory.read_global_flts r.Sim.Interp.memory prog "out" in
  Alcotest.(check (float 0.0)) "stored float" 6.25 out.(0)

let test_byte_array_semantics () =
  let p =
    program
      [ garray_b "b" 8 ]
      [
        fn "main" [] ~ret:(Some Mlang.Ast.TInt)
          [
            sto "b" (i 0) (i 511);   (* truncates to 255 *)
            sto "b" (i 1) (i (-1));  (* low 8 bits: 255 *)
            sto "b" (i 2) (i 7);
            ret (("b".%(i 0) +! "b".%(i 1)) *! i 1000 +! "b".%(i 2));
          ];
      ]
  in
  Alcotest.(check int) "byte truncation and zero-extension" 510007 (ret_int p)

let test_recursive_mlang () =
  let p =
    program []
      [
        fn "fact" [ p_int "n" ] ~ret:(Some Mlang.Ast.TInt)
          [
            when_ (v "n" <=! i 1) [ ret (i 1) ];
            ret (v "n" *! call "fact" [ v "n" -! i 1 ]);
          ];
        fn "main" [] ~ret:(Some Mlang.Ast.TInt) [ ret (call "fact" [ i 10 ]) ];
      ]
  in
  Alcotest.(check int) "10!" 3628800 (ret_int p)

(* ------------------------------------------------------------------ *)
(* Optimizer soundness.                                                *)

let test_dce_preserves_output () =
  let p =
    program
      [ garray "out" 4 ]
      [
        fn "main" [] ~ret:(Some Mlang.Ast.TInt)
          [
            let_ "dead" (i 1 +! i 2);      (* never used *)
            let_ "live" (i 6 *! i 7);
            sto "out" (i 0) (v "live");
            ret (v "live");
          ];
      ]
  in
  let v1 = ret_int ~optimize:true p and v2 = ret_int ~optimize:false p in
  Alcotest.(check int) "same result" v2 v1;
  Alcotest.(check int) "42" 42 v1

let test_dce_shrinks () =
  let p =
    main_returning
      [
        let_ "a" (i 1);
        let_ "b" (v "a" +! i 1);
        let_ "c" (v "b" +! i 1);  (* c unused *)
        ret (v "b");
      ]
  in
  let opt = compile ~optimize:true p and raw = compile ~optimize:false p in
  Alcotest.(check bool) "optimized smaller" true
    (Ir.Prog.static_instruction_count opt < Ir.Prog.static_instruction_count raw)

let test_dce_keeps_traps () =
  (* a division that may trap must survive even if its result is dead *)
  let p =
    program
      [ garray "g" 1 ]
      [
        fn "main" [] ~ret:(Some Mlang.Ast.TInt)
          [
            let_ "zero" ("g".%(i 0));              (* 0 at runtime *)
            let_ "dead" (i 1 /! v "zero");         (* traps! *)
            ret (i 7);
          ];
      ]
  in
  let prog = compile ~optimize:true p in
  match (Sim.Interp.run (Sim.Code.of_prog prog)).Sim.Interp.outcome with
  | Sim.Interp.Trapped Sim.Trap.Division_by_zero -> ()
  | _ -> Alcotest.fail "trapping division must not be removed"

let test_constant_folding () =
  let prog = compile (main_returning [ ret ((i 6 *! i 7) +! (i 100 /! i 4)) ]) in
  (* fully folded: body is just li + ret *)
  let main = Ir.Prog.get_func prog "main" in
  Alcotest.(check int) "folded to li/ret" 2 (Ir.Func.length main)

(* Folding computes what the machine computes. [a op b] on integer
   literals — beyond 32 bits too, which the [Li] loading them wraps —
   folds to the value the simulator returns for the same instruction
   on the loaded operands; a division by zero stays unfolded and traps
   at run time. *)
let machine_result instr a b =
  let r = Ir.Reg.int in
  let main =
    Ir.Func.make ~name:"main" ~params:[] ~ret:(Some Ir.Ty.I32)
      [
        Ir.Instr.Li (r 0, Int32.of_int a);
        Ir.Instr.Li (r 1, Int32.of_int b);
        instr (r 2) (r 0) (r 1);
        Ir.Instr.Ret (Some (r 2));
      ]
  in
  match
    (Sim.Interp.run (Sim.Code.of_prog (Ir.Prog.make ~globals:[] [ main ])))
      .Sim.Interp.outcome
  with
  | Sim.Interp.Done (Some (Sim.Value.I v)) -> Some v
  | _ -> None

let fold_matches_machine =
  let open Mlang.Ast in
  let ops =
    List.map (fun op -> `Bin op)
      [ Add; Sub; Mul; Div; Rem; BAnd; BOr; BXor; Shl; Shr; Ashr ]
    @ List.map (fun op -> `Cmp op) [ Eq; Ne; Lt; Le; Gt; Ge ]
  in
  let literal =
    QCheck.Gen.(
      oneof
        [
          small_signed_int;
          int_range (-(1 lsl 40)) (1 lsl 40);
          oneofl
            [ 0; 2147483647; 2147483648; -2147483648; -2147483649;
              4294967295; 4294967296; max_int; min_int ];
          int;
        ])
  in
  QCheck.Test.make ~name:"constant folds = machine arithmetic" ~count:2000
    (QCheck.make
       ~print:(fun (_, a, b) -> Printf.sprintf "a=%d b=%d" a b)
       QCheck.Gen.(triple (oneofl ops) literal literal))
    (fun (op, a, b) ->
      let folded, machine =
        match op with
        | `Bin op ->
          ( Mlang.Lower.fold (Bin (op, Int a, Int b)),
            machine_result
              (fun d x y -> Ir.Instr.Bin (Mlang.Lower.ir_binop op, d, x, y))
              a b )
        | `Cmp op ->
          ( Mlang.Lower.fold (Cmp (op, Int a, Int b)),
            machine_result
              (fun d x y -> Ir.Instr.Cmp (Mlang.Lower.ir_cmpop op, d, x, y))
              a b )
      in
      match (folded, machine) with
      | Int v, Some m -> v = m
      | Bin ((Div | Rem), _, _), None -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mlang"
    [
      ( "typecheck",
        [
          Alcotest.test_case "rejects ill-typed" `Quick test_typecheck_rejects;
          Alcotest.test_case "shadowing scoped" `Quick
            test_typecheck_accepts_shadowing;
          Alcotest.test_case "return paths" `Quick test_return_paths;
        ] );
      ( "semantics",
        [
          QCheck_alcotest.to_alcotest expr_semantics_prop;
          Alcotest.test_case "while/break/continue" `Quick
            test_while_break_continue;
          Alcotest.test_case "for bound pinned" `Quick
            test_for_bound_evaluated_once;
          Alcotest.test_case "nested loops" `Quick test_nested_loops;
          Alcotest.test_case "float pipeline" `Quick test_float_pipeline;
          Alcotest.test_case "byte arrays" `Quick test_byte_array_semantics;
          Alcotest.test_case "recursion" `Quick test_recursive_mlang;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "dce preserves output" `Quick
            test_dce_preserves_output;
          Alcotest.test_case "dce shrinks" `Quick test_dce_shrinks;
          Alcotest.test_case "dce keeps traps" `Quick test_dce_keeps_traps;
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          QCheck_alcotest.to_alcotest fold_matches_machine;
        ] );
    ]
