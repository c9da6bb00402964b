(* Random Mlang programs for the differential and checkpoint suites.

   The generator exercises every instruction class the compiler emits:
   integer arithmetic and logic (including div/rem made golden-safe by
   [|! 1] but fault-fragile), shifts, comparisons, if/while/for
   control, word and byte loads/stores, float arithmetic with both
   conversions, calls and recursion. Programs are deterministic per
   seed. *)

open Mlang.Dsl

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let rec gen_expr rng vars depth =
  if depth = 0 then
    match Random.State.int rng 4 with
    | 0 -> i (Random.State.int rng 201 - 100)
    | 1 | 2 -> v (pick rng vars)
    | _ -> "buf".%(v (pick rng vars) &! i 7)
  else
    let a = gen_expr rng vars (depth - 1)
    and b = gen_expr rng vars (depth - 1) in
    match Random.State.int rng 12 with
    | 0 -> a +! b
    | 1 -> a -! b
    | 2 -> a *! b
    | 3 -> a /! (b |! i 1) (* odd divisor: golden-safe, fault-fragile *)
    | 4 -> a %! (b |! i 1)
    | 5 -> a &! b
    | 6 -> a |! b
    | 7 -> a ^! b
    | 8 -> a <<! i (Random.State.int rng 8)
    | 9 -> a >>>! i (Random.State.int rng 8)
    | 10 -> a <! b
    | _ -> neg a

let gen_prog seed =
  let rng = Random.State.make [| 0x9e3; seed |] in
  let e vars d = gen_expr rng vars d in
  let iters = 3 + Random.State.int rng 6 in
  program
    [
      garray "out" 4;
      garray "buf" 8;
      garray_b "bytes" 8;
      garray_f "fout" 2;
    ]
    [
      fn "mix" [ p_int "a"; p_int "b" ] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "t0" (e [ "a"; "b" ] 2);
          let_ "t1" (e [ "a"; "b"; "t0" ] 2);
          when_ (v "t1" >! v "t0") [ sto "buf" (v "t0" &! i 7) (v "t1") ];
          if_
            (v "t0" <>! i 0)
            [ ret (v "t1" %! v "t0") ]
            [ ret (v "t1" +! v "a") ];
        ];
      fn "rdown" [ p_int "n" ] ~ret:(Some Mlang.Ast.TInt)
        [
          if_
            (v "n" <=! i 0)
            [ ret (i 0) ]
            [ ret (i 1 +! call "rdown" [ v "n" -! i 1 ]) ];
        ];
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "x" (i (1 + Random.State.int rng 50));
          let_ "y" (i (1 + Random.State.int rng 50));
          for_ "k" (i 0) (i iters)
            [
              set "x" (call "mix" [ v "x" +! v "k"; v "y" ]);
              sto "buf" (v "k" &! i 7) (v "x" ^! v "k");
              sto "bytes" (v "k" &! i 7) (v "x");
              set "y" (v "y" +! "bytes".%(v "k" &! i 7));
            ];
          let_ "n" (i (2 + Random.State.int rng 5));
          while_ (v "n" >! i 0)
            [
              set "y" (e [ "x"; "y"; "n" ] 2);
              set "n" (v "n" -! i 1);
            ];
          let_ "fx" (i2f (v "x") /!. f 3.5);
          let_ "fy" ((v "fx" *!. f 0.25) -!. i2f (v "n"));
          sto "fout" (i 0) (v "fx" +!. v "fy");
          sto "fout" (i 1) (v "fy" *!. f 4.0);
          set "y" (v "y" +! f2i (v "fx") +! (v "fy" <! f 1000.0));
          let_ "r" (call "rdown" [ i (3 + Random.State.int rng 5) ]);
          sto "out" (i 0) (v "x");
          sto "out" (i 1) (v "y");
          sto "out" (i 2) (v "r");
          sto "out" (i 3) ("buf".%(i 3) +! "buf".%(i 5));
          ret (v "x" +! v "y");
        ];
    ]
