(* Tests for the paper's contribution: the CVar tagging analysis
   (including the paper's own worked example from Section 3),
   protection policies, the fault model and campaign classification. *)

open Ir

let r reg_no = Reg.int reg_no

(* ------------------------------------------------------------------ *)
(* The worked example of Section 3 of the paper, verbatim:

     I0: $2 = $4 + 1          *
     I1: LD $3, addr[]
     I2: $2 = $3 + 2
     I3: $3 = $3 + 8
     I4: $10 = $8 - $4        *
     I5: $10 = $3 << $2
     I6: $4 = $3 + $6         *
     I7: $3 = $3 + 1
     I8: BNE $3, $10, label

   "The instructions we tag as not influencing the branch in
   instruction I8 are I6, I4 and I0." *)

let paper_example () =
  let base = r 1 in
  Func.make ~name:"paper" ~params:[ r 4; r 8; r 6; base ] ~ret:None
    [
      Instr.Bini (Instr.Add, r 2, r 4, 1l);       (* I0 *)
      Instr.Lw (r 3, base, 0);                    (* I1 *)
      Instr.Bini (Instr.Add, r 2, r 3, 2l);       (* I2 *)
      Instr.Bini (Instr.Add, r 3, r 3, 8l);       (* I3 *)
      Instr.Bin (Instr.Sub, r 10, r 8, r 4);      (* I4 *)
      Instr.Bin (Instr.Sll, r 10, r 3, r 2);      (* I5 *)
      Instr.Bin (Instr.Add, r 4, r 3, r 6);       (* I6 *)
      Instr.Bini (Instr.Add, r 3, r 3, 1l);       (* I7 *)
      Instr.Br (Instr.Ne, r 3, r 10, "label");    (* I8 *)
      Instr.Label "label";
      Instr.Ret None;
    ]

let tagged_indices prog mode =
  let tagging =
    Core.Tagging.compute
      ~protect_addresses:(mode = `Full)
      prog
  in
  match Core.Tagging.low_reliability tagging "paper" with
  | None -> Alcotest.fail "no tagging for function"
  | Some low ->
    List.filter (fun i -> low.(i)) (List.init (Array.length low) Fun.id)

let test_paper_example_literal () =
  let prog = Prog.make ~entry:"paper" ~globals:[] [ paper_example () ] in
  Alcotest.(check (list int)) "I0, I4, I6 tagged" [ 0; 4; 6 ]
    (tagged_indices prog `Literal)

let test_paper_example_full () =
  (* With address protection the same instructions are tagged here:
     the base register is a parameter, so no body instruction feeds an
     address. *)
  let prog = Prog.make ~entry:"paper" ~globals:[] [ paper_example () ] in
  Alcotest.(check (list int)) "I0, I4, I6 tagged" [ 0; 4; 6 ]
    (tagged_indices prog `Full)

(* ------------------------------------------------------------------ *)
(* Address rule difference.                                            *)

let test_address_modes_differ () =
  (* r2 = r0 + 4 feeds only a load address: tagged under the literal
     rules, critical under control+address protection. *)
  let f =
    Func.make ~name:"main" ~params:[ r 0 ] ~ret:(Some Ty.I32)
      [
        Instr.La (r 1, "g");
        Instr.Bin (Instr.Add, r 2, r 1, r 0);   (* address arithmetic *)
        Instr.Lw (r 3, r 2, 0);
        Instr.Ret (Some (r 3));
      ]
  in
  let prog = Prog.make ~globals:[ Prog.global "g" Ty.I32 4 ] [ f ] in
  let low mode =
    let t = Core.Tagging.compute ~protect_addresses:(mode = `Full) prog in
    Option.get (Core.Tagging.low_reliability t "main")
  in
  Alcotest.(check bool) "literal tags address add" true (low `Literal).(1);
  Alcotest.(check bool) "full protects address add" false (low `Full).(1)

(* ------------------------------------------------------------------ *)
(* Interprocedural behaviour.                                          *)

let test_interprocedural_ret_critical () =
  (* g computes x+1; main branches on g's result: the add inside g must
     be critical. *)
  let g =
    Func.make ~name:"g" ~params:[ r 0 ] ~ret:(Some Ty.I32)
      [ Instr.Bini (Instr.Add, r 1, r 0, 1l); Instr.Ret (Some (r 1)) ]
  in
  let main =
    Func.make ~name:"main" ~params:[] ~ret:(Some Ty.I32)
      [
        Instr.Li (r 0, 5l);
        Instr.Call { dst = Some (r 1); func = "g"; args = [ r 0 ] };
        Instr.Brz (Instr.Eq, r 1, "zero");
        Instr.Li (r 2, 1l);
        Instr.Ret (Some (r 2));
        Instr.Label "zero";
        Instr.Li (r 2, 0l);
        Instr.Ret (Some (r 2));
      ]
  in
  let prog = Prog.make ~globals:[] [ main; g ] in
  let t = Core.Tagging.compute prog in
  let g_low = Option.get (Core.Tagging.low_reliability t "g") in
  Alcotest.(check bool) "add in g critical" false g_low.(0);
  let s = Option.get (Core.Tagging.summary t "g") in
  Alcotest.(check bool) "g ret critical" true s.Core.Tagging.ret_critical;
  Alcotest.(check bool) "g param critical" true s.Core.Tagging.critical_params.(0)

let test_interprocedural_ret_not_critical () =
  (* main stores g's result to memory (a data sink): g's body may relax. *)
  let g =
    Func.make ~name:"g" ~params:[ r 0 ] ~ret:(Some Ty.I32)
      [ Instr.Bini (Instr.Add, r 1, r 0, 1l); Instr.Ret (Some (r 1)) ]
  in
  let main =
    Func.make ~name:"main" ~params:[] ~ret:None
      [
        Instr.Li (r 0, 5l);
        Instr.Call { dst = Some (r 1); func = "g"; args = [ r 0 ] };
        Instr.La (r 2, "g_out");
        Instr.Sw (r 1, r 2, 0);
        Instr.Ret None;
      ]
  in
  let prog =
    Prog.make ~globals:[ Prog.global "g_out" Ty.I32 1 ] [ main; g ]
  in
  let t = Core.Tagging.compute prog in
  let g_low = Option.get (Core.Tagging.low_reliability t "g") in
  Alcotest.(check bool) "add in g tagged" true g_low.(0)

let test_ineligible_function () =
  let g =
    Func.make ~eligible:false ~name:"g" ~params:[ r 0 ] ~ret:(Some Ty.I32)
      [ Instr.Bini (Instr.Add, r 1, r 0, 1l); Instr.Ret (Some (r 1)) ]
  in
  let main =
    Func.make ~name:"main" ~params:[] ~ret:None
      [
        Instr.Li (r 0, 5l);
        Instr.Call { dst = Some (r 1); func = "g"; args = [ r 0 ] };
        Instr.La (r 2, "g_out");
        Instr.Sw (r 1, r 2, 0);
        Instr.Ret None;
      ]
  in
  let prog =
    Prog.make ~globals:[ Prog.global "g_out" Ty.I32 1 ] [ main; g ]
  in
  let t = Core.Tagging.compute prog in
  let g_low = Option.get (Core.Tagging.low_reliability t "g") in
  Alcotest.(check bool) "nothing tagged in ineligible g" true
    (Array.for_all not g_low);
  (* and its formals are treated as control-critical by callers *)
  let s = Option.get (Core.Tagging.summary t "g") in
  Alcotest.(check bool) "formals critical" true s.Core.Tagging.critical_params.(0)

(* ------------------------------------------------------------------ *)
(* Policy masks.                                                       *)

let test_policy_masks () =
  let prog = Prog.make ~entry:"paper" ~globals:[] [ paper_example () ] in
  let t = Core.Tagging.compute prog in
  let nothing = Core.Tagging.mask t Core.Policy.Protect_nothing in
  let all = Core.Tagging.mask t Core.Policy.Protect_all in
  let control = Core.Tagging.mask t Core.Policy.Protect_control in
  let count m = Array.fold_left (fun a x -> if x then a + 1 else a) 0 m.(0) in
  Alcotest.(check int) "protect-all exposes none" 0 (count all);
  Alcotest.(check int) "protect-nothing exposes every def" 8 (count nothing);
  Alcotest.(check int) "protect-control exposes tagged" 3 (count control)

(* ------------------------------------------------------------------ *)
(* Fault model.                                                        *)

let test_plan_shape () =
  let rng = Random.State.make [| 42 |] in
  let plan = Core.Fault_model.make_plan ~rng ~injectable_total:1000 ~errors:50 in
  Alcotest.(check int) "50 distinct errors" 50 (Hashtbl.length plan);
  Hashtbl.iter
    (fun ordinal bit ->
      Alcotest.(check bool) "ordinal in range" true (ordinal >= 0 && ordinal < 1000);
      Alcotest.(check bool) "bit in range" true (bit >= 0 && bit < 64))
    plan

let test_plan_saturates () =
  let rng = Random.State.make [| 42 |] in
  let plan = Core.Fault_model.make_plan ~rng ~injectable_total:10 ~errors:50 in
  Alcotest.(check int) "saturated" 10 (Hashtbl.length plan)

let test_plan_empty_pool () =
  let rng = Random.State.make [| 42 |] in
  let plan = Core.Fault_model.make_plan ~rng ~injectable_total:0 ~errors:5 in
  Alcotest.(check int) "no faults possible" 0 (Hashtbl.length plan)

let plan_determinism =
  QCheck.Test.make ~name:"plans deterministic per seed" ~count:50
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (seed, errors) ->
      let mk () =
        let rng = Random.State.make [| seed |] in
        Core.Fault_model.make_plan ~rng ~injectable_total:10_000 ~errors
      in
      let a = mk () and b = mk () in
      Hashtbl.length a = Hashtbl.length b
      && Hashtbl.fold
           (fun k v acc -> acc && Hashtbl.find_opt b k = Some v)
           a true)

(* Dense requests take the Fisher–Yates path (rejection sampling
   degenerates near saturation); the plan must still be exactly
   [wanted] distinct in-range ordinals — including full saturation,
   where rejection sampling's expected work would be n·H(n). *)
let plan_dense_fisher_yates =
  QCheck.Test.make ~name:"dense plans: distinct, in-range, full-size"
    ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 200))
    (fun (seed, total) ->
      let errors = total in  (* wanted = total: the worst case *)
      let rng = Random.State.make [| seed |] in
      let plan = Core.Fault_model.make_plan ~rng ~injectable_total:total ~errors in
      Hashtbl.length plan = total
      && Hashtbl.fold
           (fun ord bit acc ->
             acc && ord >= 0 && ord < total && bit >= 0 && bit < 64)
           plan true)

let test_planned_cap () =
  Alcotest.(check int) "capped" 10
    (Core.Fault_model.planned ~injectable_total:10 ~errors:50);
  Alcotest.(check int) "uncapped" 5
    (Core.Fault_model.planned ~injectable_total:10 ~errors:5);
  Alcotest.(check int) "empty pool" 0
    (Core.Fault_model.planned ~injectable_total:0 ~errors:5)

(* The sparse path must keep the historical RNG stream: same seed, same
   plan as the rejection sampler always drew. Frozen expectation from
   the pre-Fisher–Yates implementation. *)
let test_plan_sparse_stream_frozen () =
  let rng = Random.State.make [| 7 |] in
  let plan = Core.Fault_model.make_plan ~rng ~injectable_total:100 ~errors:3 in
  let expected_rng = Random.State.make [| 7 |] in
  let expected = Hashtbl.create 3 in
  while Hashtbl.length expected < 3 do
    let ordinal = Random.State.int expected_rng 100 in
    if not (Hashtbl.mem expected ordinal) then
      Hashtbl.replace expected ordinal (Random.State.int expected_rng 64)
  done;
  Alcotest.(check int) "same size" (Hashtbl.length expected)
    (Hashtbl.length plan);
  Hashtbl.iter
    (fun ord bit ->
      Alcotest.(check (option int))
        (Printf.sprintf "ordinal %d" ord)
        (Some bit) (Hashtbl.find_opt plan ord))
    expected

(* ------------------------------------------------------------------ *)
(* Campaigns and the soundness of protection.                          *)

let gcd_mlang =
  let open Mlang.Dsl in
  program
    [ garray "out" 2 ]
    [
      fn "gcd" [ p_int "a"; p_int "b" ] ~ret:(Some Mlang.Ast.TInt)
        [
          while_ (v "b" <>! i 0)
            [ let_ "t" (v "b"); set "b" (v "a" %! v "b"); set "a" (v "t") ];
          ret (v "a");
        ];
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "g" (call "gcd" [ i 252; i 105 ]);
          let_ "scaled" (v "g" *! i 3);
          sto "out" (i 0) (v "scaled");
          ret (i 0);
        ];
    ]

let test_campaign_classification () =
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let target = Core.Campaign.of_prog prog in
  let p = Core.Campaign.prepare target Core.Policy.Protect_control in
  let s = Core.Campaign.run p ~errors:1 ~trials:10 ~seed:3 in
  Alcotest.(check int) "all trials accounted" 10
    (Core.Campaign.crashes s + Core.Campaign.infinite s
    + Core.Campaign.completed s)

(* Soundness: with control+address protection and no memory round trip
   into control, a single injected fault can never change the execution
   path — the dynamic instruction count stays exactly the baseline. *)
let test_protection_soundness () =
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let target = Core.Campaign.of_prog ~protect_addresses:true prog in
  let baseline = target.Core.Campaign.baseline.Sim.Interp.dyn_count in
  let p = Core.Campaign.prepare target Core.Policy.Protect_control in
  Alcotest.(check bool) "something injectable" true
    (p.Core.Campaign.injectable_total > 0);
  for trial = 0 to 60 do
    let rng = Random.State.make [| 99; trial |] in
    let t = Core.Campaign.run_trial p ~errors:1 ~rng ~index:trial in
    match t.Core.Campaign.outcome with
    | Core.Outcome.Completed ->
      Alcotest.(check int) "path unchanged" baseline t.Core.Campaign.dyn_count
    | o -> Alcotest.failf "catastrophic under protection: %s" (Core.Outcome.to_string o)
  done

let test_unprotected_can_diverge () =
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let target = Core.Campaign.of_prog prog in
  let baseline = target.Core.Campaign.baseline.Sim.Interp.dyn_count in
  let p = Core.Campaign.prepare target Core.Policy.Protect_nothing in
  let diverged = ref false in
  for trial = 0 to 60 do
    let rng = Random.State.make [| 7; trial |] in
    let t = Core.Campaign.run_trial p ~errors:2 ~rng ~index:trial in
    match t.Core.Campaign.outcome with
    | Core.Outcome.Completed ->
      if t.Core.Campaign.dyn_count <> baseline then diverged := true
    | _ -> diverged := true
  done;
  Alcotest.(check bool) "unprotected faults change paths" true !diverged

(* Randomized soundness audit: generate random Mlang kernels whose
   memory traffic is write-only (no value is loaded back after being
   stored, so the analysis's only blind spot — the memory roundtrip —
   cannot occur). Under Full-mode protection, ANY single fault on a
   tagged instruction must leave the execution path identical. *)
let random_kernel seed =
  let open Mlang.Dsl in
  let rng = Random.State.make [| 0xbeef; seed |] in
  let n_stmts = 3 + Random.State.int rng 6 in
  let vars = [ "a"; "b"; "c" ] in
  let rvar () = List.nth vars (Random.State.int rng 3) in
  let rec expr depth =
    if depth = 0 then
      if Random.State.bool rng then i (Random.State.int rng 100 - 50)
      else v (rvar ())
    else
      let x = expr (depth - 1) and y = expr (depth - 1) in
      match Random.State.int rng 5 with
      | 0 -> x +! y
      | 1 -> x -! y
      | 2 -> x *! y
      | 3 -> x ^! y
      | _ -> x &! y
  in
  let body = ref [] in
  for k = 0 to n_stmts - 1 do
    let stmt =
      match Random.State.int rng 3 with
      | 0 -> set (rvar ()) (expr 2)
      | 1 -> sto "out" (i (k mod 8)) (expr 2)
      | _ ->
        for_ (Printf.sprintf "t%d" k) (i 0)
          (i (1 + Random.State.int rng 5))
          [ set (rvar ()) (expr 1 +! v (Printf.sprintf "t%d" k)) ]
    in
    body := stmt :: !body
  done;
  program
    [ garray "out" 8 ]
    [
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        (List.concat
           [
             [ let_ "a" (i 3); let_ "b" (i 11); let_ "c" (i (-7)) ];
             List.rev !body;
             [ ret (v "a" +! v "b" +! v "c") ];
           ]);
    ]

let tagging_soundness_prop =
  QCheck.Test.make ~name:"random kernels: protected faults never change paths"
    ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prog = Mlang.Compile.to_ir (random_kernel seed) in
      let target = Core.Campaign.of_prog ~protect_addresses:true prog in
      let baseline = target.Core.Campaign.baseline.Sim.Interp.dyn_count in
      let p = Core.Campaign.prepare target Core.Policy.Protect_control in
      p.Core.Campaign.injectable_total = 0
      || List.for_all
           (fun trial ->
             let rng = Random.State.make [| seed; trial |] in
             let t = Core.Campaign.run_trial p ~errors:1 ~rng ~index:trial in
             match t.Core.Campaign.outcome with
             | Core.Outcome.Completed ->
               t.Core.Campaign.dyn_count = baseline
             | _ -> false)
           (List.init 5 Fun.id))

(* A request above the injectable pool is capped per plan; the summary
   must report the actual per-trial plan size, not echo the request. *)
let test_campaign_cap_reported () =
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let target = Core.Campaign.of_prog prog in
  let p = Core.Campaign.prepare target Core.Policy.Protect_nothing in
  let pool = p.Core.Campaign.injectable_total in
  let s = Core.Campaign.run p ~errors:(pool + 5) ~trials:3 ~seed:1 in
  Alcotest.(check bool) "capped flagged" true (Core.Campaign.errors_capped s);
  Alcotest.(check int) "requested echoed" (pool + 5)
    s.Core.Campaign.errors_requested;
  Alcotest.(check int) "planned = pool" pool s.Core.Campaign.errors_planned;
  List.iter
    (fun (t : Core.Campaign.trial) ->
      Alcotest.(check int) "trial records cap" pool
        t.Core.Campaign.faults_planned)
    s.Core.Campaign.trials;
  let s' = Core.Campaign.run p ~errors:1 ~trials:2 ~seed:1 in
  Alcotest.(check bool) "uncapped not flagged" false
    (Core.Campaign.errors_capped s')

(* Parallel determinism: the per-trial RNG derivation makes trials
   order-independent, so any jobs count must yield the same summary,
   trial for trial. Compare the observable content of each trial
   (classification, fault counts, dynamic length of completed runs). *)
let trial_fingerprint (t : Core.Campaign.trial) =
  let dyn =
    match t.Core.Campaign.outcome with
    | Core.Outcome.Completed -> t.Core.Campaign.dyn_count
    | Core.Outcome.Crash _ | Core.Outcome.Infinite -> -1
  in
  Printf.sprintf "%d/%s/%d/%d/%d" t.Core.Campaign.index
    (Core.Outcome.to_string t.Core.Campaign.outcome)
    t.Core.Campaign.faults_planned t.Core.Campaign.faults_landed dyn

let test_campaign_jobs_bit_exact () =
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let target = Core.Campaign.of_prog prog in
  let p = Core.Campaign.prepare target Core.Policy.Protect_nothing in
  let fingerprints jobs =
    let s = Core.Campaign.run ~jobs p ~errors:2 ~trials:13 ~seed:5 in
    ( List.map trial_fingerprint s.Core.Campaign.trials,
      ( Core.Campaign.n s,
        Core.Campaign.crashes s,
        Core.Campaign.infinite s,
        Core.Campaign.completed s ) )
  in
  let ref_trials, ref_counts = fingerprints 1 in
  List.iter
    (fun jobs ->
      let trials, counts = fingerprints jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d trials identical" jobs)
        ref_trials trials;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d counts identical" jobs)
        true (counts = ref_counts))
    [ 2; 4; 13 ]

(* The explicit seed encoding must stay frozen: these constants are
   what [Hashtbl.hash] produced on the runtime the goldens were made
   with, and every published campaign number depends on them. *)
let test_policy_seed_tag_frozen () =
  Alcotest.(check int) "protect-control" 129913994
    (Core.Policy.seed_tag Core.Policy.Protect_control);
  Alcotest.(check int) "protect-nothing" 883721435
    (Core.Policy.seed_tag Core.Policy.Protect_nothing);
  Alcotest.(check int) "protect-all" 648017920
    (Core.Policy.seed_tag Core.Policy.Protect_all)

(* prepare sizes the injectable pool arithmetically from the baseline's
   exec counts; pin that against an actual profiling interpretation
   (empty plan under the same mask, counting hook firings), which is
   what the pool used to be measured by. *)
let test_prepare_pool_arithmetic () =
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let target = Core.Campaign.of_prog prog in
  List.iter
    (fun policy ->
      let p = Core.Campaign.prepare target policy in
      let injection =
        Core.Fault_model.profiling_injection ~tags:p.Core.Campaign.tags
      in
      let r = Sim.Interp.run ~injection target.Core.Campaign.code in
      Alcotest.(check int)
        ("arithmetic pool = profiled pool: " ^ Core.Policy.to_string policy)
        r.Sim.Interp.injectable_seen p.Core.Campaign.injectable_total)
    [
      Core.Policy.Protect_control;
      Core.Policy.Protect_nothing;
      Core.Policy.Protect_all;
    ]

let test_outcome_classification () =
  Alcotest.(check bool) "crash catastrophic" true
    (Core.Outcome.is_catastrophic
       (Core.Outcome.Crash (Sim.Trap.Division_by_zero, None)));
  Alcotest.(check bool) "infinite catastrophic" true
    (Core.Outcome.is_catastrophic Core.Outcome.Infinite)

(* ------------------------------------------------------------------ *)

(* [Campaign.run_trial_result] — the escape hatch returning a trial's
   raw simulator result, memory image included — must hand back exactly
   the state a scratch reference run produces: same final memory image
   (digest compare), same outcome, counters and landed sites, for every
   benchmark app under both the protect-control and protect-nothing
   masks, under both engines and with checkpointing on (the default
   resume path) and off. The scratch reference rebuilds the same plan
   from the same derived RNG and runs the reference loop from the
   pristine image. *)
let test_run_trial_result_matches_scratch () =
  let module Campaign = Core.Campaign in
  let module Policy = Core.Policy in
  let module Fault_model = Core.Fault_model in
  let check ~app ~stride (target : Campaign.target)
      (p : Campaign.prepared) (seed, errors, index) =
    let label what =
      Printf.sprintf "%s (%s %s engine=%s stride=%s e=%d i=%d)" what app
        (Policy.to_string p.Campaign.policy)
        (Sim.Interp.engine_name target.Campaign.engine)
        (match stride with None -> "auto" | Some s -> string_of_int s)
        errors index
    in
    let rng =
      Campaign.trial_rng ~seed ~errors ~policy:p.Campaign.policy index
    in
    let r = Campaign.run_trial_result p ~errors ~rng ~index in
    let rng' =
      Campaign.trial_rng ~seed ~errors ~policy:p.Campaign.policy index
    in
    let plan =
      Fault_model.make_plan ~rng:rng'
        ~injectable_total:p.Campaign.injectable_total ~errors
    in
    let injection = Fault_model.injection ~tags:p.Campaign.tags ~plan in
    let ref_r =
      Sim.Interp.run ~injection ~budget:p.Campaign.budget
        ~memory:(Sim.Memory.copy target.Campaign.proto)
        target.Campaign.code
    in
    Alcotest.(check string)
      (label "final memory image")
      (Sim.Memory.digest ref_r.Sim.Interp.memory)
      (Sim.Memory.digest r.Sim.Interp.memory);
    Alcotest.(check bool)
      (label "outcome") true
      (compare r.Sim.Interp.outcome ref_r.Sim.Interp.outcome = 0);
    Alcotest.(check int) (label "dyn_count")
      ref_r.Sim.Interp.dyn_count r.Sim.Interp.dyn_count;
    Alcotest.(check int) (label "faults_landed")
      ref_r.Sim.Interp.faults_landed r.Sim.Interp.faults_landed;
    Alcotest.(check bool)
      (label "landed sites") true
      (r.Sim.Interp.landed_sites = ref_r.Sim.Interp.landed_sites)
  in
  List.iter
    (fun (app : Apps.App.t) ->
      let prog = (app.Apps.App.build ~seed:1).Apps.App.prog in
      List.iter
        (fun engine ->
          let target = Campaign.of_prog ~engine prog in
          List.iter
            (fun policy ->
              List.iter
                (fun stride ->
                  let p =
                    Campaign.prepare ?checkpoint_stride:stride target policy
                  in
                  List.iter
                    (check ~app:app.Apps.App.name ~stride target p)
                    [ (5, 0, 0); (5, 3, 1); (9, 10, 2); (9, 25, 3) ])
                [ None; Some 0 ])
            [ Policy.Protect_control; Policy.Protect_nothing ])
        [ Sim.Interp.Fast; Sim.Interp.Ref ])
    Apps.Registry.all

(* ------------------------------------------------------------------ *)
(* Core.Once: one build per key, three retentions.  Concurrent builds
   of distinct keys and a raising build with no waiter are covered by
   test_harness's "memo" cases. *)

(* Polls [p] until it holds (true) or 10 s pass (false). *)
let eventually p =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    p () || (Unix.gettimeofday () < deadline && (Domain.cpu_relax (); go ()))
  in
  go ()

(* A build that parks until [opened] is set, then returns a fresh
   value or raises: [builds] counts builds started. *)
type latch = { opened : bool Atomic.t; builds : int Atomic.t }

let latch () = { opened = Atomic.make false; builds = Atomic.make 0 }

let parked l ?(fail = fun _ -> false) k () =
  let n = 1 + Atomic.fetch_and_add l.builds 1 in
  ignore (eventually (fun () -> Atomic.get l.opened));
  if fail n then failwith "build failed" else ref k

(* Three callers join a parked build of one key: all get its one value,
   the first caller with [false], the joiners with [true]. *)
let test_once_one_build_per_key () =
  let t = Core.Once.create All and l = latch () in
  let get () = Core.Once.get t "k" (parked l "k") in
  let first = Domain.spawn get in
  ignore (eventually (fun () -> Atomic.get l.builds = 1));
  let joiners = List.init 3 (fun _ -> Domain.spawn get) in
  Alcotest.(check bool) "three waiters" true
    (eventually (fun () -> Core.Once.waiters t "k" = 3));
  Atomic.set l.opened true;
  let v, built_found = Domain.join first in
  let joined = List.map Domain.join joiners in
  Alcotest.(check bool) "the first caller ran the build" false built_found;
  List.iter
    (fun (w, found) ->
      Alcotest.(check bool) "joiner found it" true found;
      Alcotest.(check bool) "joiner got the one value" true (w == v))
    joined;
  Alcotest.(check int) "one build" 1 (Atomic.get l.builds);
  Alcotest.(check int) "no waiters left" 0 (Core.Once.waiters t "k");
  Alcotest.(check bool) "kept" true (fst (Core.Once.get t "k" (fun () -> assert false)) == v)

(* A build that raises stores nothing: its waiter builds again itself,
   and that value is kept. *)
let test_once_failed_build_waiter_rebuilds () =
  let t = Core.Once.create All and l = latch () in
  let get () = Core.Once.get t "k" (parked l ~fail:(fun n -> n = 1) "k") in
  let first = Domain.spawn (fun () -> try Ok (get ()) with e -> Error e) in
  ignore (eventually (fun () -> Atomic.get l.builds = 1));
  let waiter = Domain.spawn get in
  ignore (eventually (fun () -> Core.Once.waiters t "k" = 1));
  Atomic.set l.opened true;
  (match Domain.join first with
   | Error (Failure m) -> Alcotest.(check string) "the first build raised" "build failed" m
   | _ -> Alcotest.fail "the first build did not raise");
  let v, found = Domain.join waiter in
  Alcotest.(check bool) "waiter built again" false found;
  Alcotest.(check int) "two builds" 2 (Atomic.get l.builds);
  Alcotest.(check int) "one key held" 1 (Core.Once.length t);
  Alcotest.(check bool) "the rebuilt value is kept" true
    (Core.Once.get t "k" (fun () -> assert false) = (v, true))

(* A [Recent 2] table holds two keys and evicts the least recently
   used one, counting each eviction; an evicted key builds again. *)
let test_once_recent_evicts_lru () =
  let evicted = ref 0 and builds = ref [] in
  let t = Core.Once.create (Recent 2) ~on_evict:(fun () -> incr evicted) in
  let get k =
    snd
      (Core.Once.get t k (fun () ->
           builds := k :: !builds;
           k))
  in
  let found = List.map get [ "a"; "b"; "a"; "c" ] in
  Alcotest.(check (list bool)) "a b a c" [ false; false; true; false ] found;
  Alcotest.(check int) "one eviction" 1 !evicted;
  Alcotest.(check (list string)) "b, the least recently used, went"
    [ "a"; "c" ]
    (List.sort compare (Core.Once.values t));
  Alcotest.(check (list bool)) "a stays, b comes back" [ true; false ]
    (List.map get [ "a"; "b" ]);
  Alcotest.(check (list string)) "then c went" [ "a"; "b" ]
    (List.sort compare (Core.Once.values t));
  Alcotest.(check int) "at most two keys" 2 (Core.Once.length t);
  Alcotest.(check int) "two evictions" 2 !evicted;
  Alcotest.(check (list string)) "builds" [ "b"; "c"; "b"; "a" ] !builds

(* An [Until_built] table keeps a key only while its build runs: a
   caller that joined mid-build gets the value, a later one builds. *)
let test_once_until_built () =
  let t = Core.Once.create Until_built and l = latch () in
  let get () = Core.Once.get t "k" (parked l "k") in
  let first = Domain.spawn get in
  ignore (eventually (fun () -> Atomic.get l.builds = 1));
  let joiner = Domain.spawn get in
  Alcotest.(check bool) "joined mid-build" true
    (eventually (fun () -> Core.Once.waiters t "k" = 1));
  Atomic.set l.opened true;
  let v, _ = Domain.join first in
  let w, found = Domain.join joiner in
  Alcotest.(check bool) "joiner got the value" true (found && w == v);
  Alcotest.(check int) "forgotten once built" 0 (Core.Once.length t);
  let v', found' = get () in
  Alcotest.(check bool) "a later caller builds afresh" true
    ((not found') && v' != v);
  Alcotest.(check int) "two builds" 2 (Atomic.get l.builds)

let () =
  Alcotest.run "core"
    [
      ( "tagging",
        [
          Alcotest.test_case "paper worked example (literal)" `Quick
            test_paper_example_literal;
          Alcotest.test_case "paper worked example (full)" `Quick
            test_paper_example_full;
          Alcotest.test_case "address modes differ" `Quick
            test_address_modes_differ;
          Alcotest.test_case "interprocedural ret critical" `Quick
            test_interprocedural_ret_critical;
          Alcotest.test_case "interprocedural ret relaxed" `Quick
            test_interprocedural_ret_not_critical;
          Alcotest.test_case "ineligible function" `Quick
            test_ineligible_function;
          Alcotest.test_case "policy masks" `Quick test_policy_masks;
        ] );
      ( "fault model",
        [
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
          Alcotest.test_case "plan saturates" `Quick test_plan_saturates;
          Alcotest.test_case "empty pool" `Quick test_plan_empty_pool;
          QCheck_alcotest.to_alcotest plan_determinism;
          QCheck_alcotest.to_alcotest plan_dense_fisher_yates;
          Alcotest.test_case "planned cap" `Quick test_planned_cap;
          Alcotest.test_case "sparse RNG stream frozen" `Quick
            test_plan_sparse_stream_frozen;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "classification totals" `Quick
            test_campaign_classification;
          Alcotest.test_case "protection soundness" `Quick
            test_protection_soundness;
          Alcotest.test_case "unprotected diverges" `Quick
            test_unprotected_can_diverge;
          QCheck_alcotest.to_alcotest tagging_soundness_prop;
          Alcotest.test_case "parallel jobs bit-exact" `Quick
            test_campaign_jobs_bit_exact;
          Alcotest.test_case "cap reported in summary" `Quick
            test_campaign_cap_reported;
          Alcotest.test_case "policy seed tags frozen" `Quick
            test_policy_seed_tag_frozen;
          Alcotest.test_case "prepare pool arithmetic" `Quick
            test_prepare_pool_arithmetic;
          Alcotest.test_case "outcome classes" `Quick
            test_outcome_classification;
          Alcotest.test_case "run_trial_result matches scratch" `Quick
            test_run_trial_result_matches_scratch;
        ] );
      ( "once",
        [
          Alcotest.test_case "one build per key" `Quick
            test_once_one_build_per_key;
          Alcotest.test_case "a failed build's waiter rebuilds" `Quick
            test_once_failed_build_waiter_rebuilds;
          Alcotest.test_case "recent evicts the least recently used" `Quick
            test_once_recent_evicts_lru;
          Alcotest.test_case "until-built forgets a built key" `Quick
            test_once_until_built;
        ] );
    ]
