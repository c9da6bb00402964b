(* Tests for shadow taint and the fault-flow audit:
   directed single-fault kernels pinning each taxonomy class, the
   taint/plain equivalence property (same plan, same architectural
   behaviour), parallel bit-exactness with taint on, and the
   Audit-level soundness checks the `etap audit` subcommand relies
   on. *)

open Ir

let r0 = Reg.int 0
let r1 = Reg.int 1
let r2 = Reg.int 2

let flow_t =
  Alcotest.testable Sim.Taint.pp_flow (fun a b -> a = b)

let build ?(globals = []) ?ret body =
  let f = Func.make ~name:"main" ~params:[] ~ret body in
  Sim.Code.of_prog (Prog.make ~globals [ f ])

(* One main function, one tagged instruction, one planned fault at
   ordinal 0: run with taint and return the fault-flow summary. *)
let run_directed ?globals ?ret ?lenient ~tags body : Sim.Taint.summary =
  let code = build ?globals ?ret body in
  let injection = Sim.Interp.injection ~tags:[| tags |] ~plan:[ (0, 1) ] in
  let memory = Sim.Memory.of_prog ?lenient code.Sim.Code.prog in
  let r = Sim.Interp.run ~injection ~taint:true ~memory code in
  Alcotest.(check int) "fault landed" 1 r.Sim.Interp.faults_landed;
  match r.Sim.Interp.fault_flow with
  | Some s -> s
  | None -> Alcotest.fail "taint run returned no fault_flow"

let g_int = Prog.global "g" Ty.I32 2

(* A fault seeded in a branch operand is a memory-free control
   contamination — the event the soundness invariant forbids under
   protect-control. *)
let test_flow_control () =
  let s =
    run_directed ~tags:[| true; false; false; false |]
      [
        Instr.Li (r0, 5l);
        Instr.Brz (Instr.Ne, r0, "end");
        Instr.Label "end";
        Instr.Ret None;
      ]
  in
  Alcotest.check flow_t "class" Sim.Taint.Reached_control s.Sim.Taint.flow;
  Alcotest.(check bool) "memory-free events" true (s.Sim.Taint.control_free >= 1);
  Alcotest.(check int) "no via-memory events" 0 s.Sim.Taint.control_via_memory;
  Alcotest.(check (option (pair string int)))
    "witness names the branch" (Some ("main", 1)) s.Sim.Taint.first_control

(* The same contamination routed through a store/load round trip is the
   documented residual: still Reached_control, but via memory — and no
   memory-free witness. *)
let test_flow_control_via_memory () =
  let s =
    run_directed ~globals:[ g_int ]
      ~tags:[| true; false; false; false; false; false; false |]
      [
        Instr.Li (r0, 5l);
        Instr.La (r1, "g");
        Instr.Sw (r0, r1, 0);
        Instr.Lw (r2, r1, 0);
        Instr.Brz (Instr.Ne, r2, "end");
        Instr.Label "end";
        Instr.Ret None;
      ]
  in
  Alcotest.check flow_t "class" Sim.Taint.Reached_control s.Sim.Taint.flow;
  Alcotest.(check int) "no memory-free events" 0 s.Sim.Taint.control_free;
  Alcotest.(check bool) "via-memory events" true
    (s.Sim.Taint.control_via_memory >= 1);
  Alcotest.(check bool) "store recorded" true (s.Sim.Taint.memory_hits >= 1);
  Alcotest.(check (option (pair string int))) "no witness" None
    s.Sim.Taint.first_control

let test_flow_memory () =
  let s =
    run_directed ~globals:[ g_int ]
      ~tags:[| true; false; false; false |]
      [
        Instr.Li (r0, 5l);
        Instr.La (r1, "g");
        Instr.Sw (r0, r1, 0);
        Instr.Ret None;
      ]
  in
  Alcotest.check flow_t "class" Sim.Taint.Reached_memory s.Sim.Taint.flow;
  Alcotest.(check bool) "store recorded" true (s.Sim.Taint.memory_hits >= 1);
  Alcotest.(check int) "control clean" 0
    (s.Sim.Taint.control_free + s.Sim.Taint.control_via_memory)

(* A corrupted base register is a wild access in the making; lenient
   memory keeps the run alive whatever the flipped address is. *)
let test_flow_address () =
  let s =
    run_directed ~globals:[ g_int ] ~lenient:true
      ~tags:[| true; false; false |]
      [ Instr.La (r0, "g"); Instr.Lw (r1, r0, 0); Instr.Ret None ]
  in
  Alcotest.check flow_t "class" Sim.Taint.Reached_address s.Sim.Taint.flow;
  Alcotest.(check bool) "base hit recorded" true (s.Sim.Taint.address_hits >= 1)

(* A tainted div denominator is a trap hazard, classified with the
   address tier (crash-capable operand sinks) — NOT control: a
   memory-free chain into a denominator is reachable even under
   protect-control, as the paper's crash residual. *)
let test_flow_trap_operand () =
  let s =
    run_directed
      ~tags:[| true; false; false; false |]
      [
        Instr.Li (r0, 4l);
        Instr.Li (r1, 100l);
        Instr.Bin (Instr.Div, r2, r1, r0);
        Instr.Ret None;
      ]
  in
  Alcotest.check flow_t "class" Sim.Taint.Reached_address s.Sim.Taint.flow;
  Alcotest.(check bool) "denominator recorded" true
    (s.Sim.Taint.trap_operand_hits >= 1);
  Alcotest.(check int) "not control" 0
    (s.Sim.Taint.control_free + s.Sim.Taint.control_via_memory)

let test_flow_data_only () =
  let s =
    run_directed ~ret:Ty.I32
      ~tags:[| true; false; false |]
      [
        Instr.Li (r0, 5l);
        Instr.Bin (Instr.Add, r1, r0, r0);
        Instr.Ret (Some r1);
      ]
  in
  Alcotest.check flow_t "class" Sim.Taint.Data_only s.Sim.Taint.flow

let test_flow_vanished () =
  let s =
    run_directed ~ret:Ty.I32
      ~tags:[| true; false; false |]
      [ Instr.Li (r0, 5l); Instr.Li (r1, 1l); Instr.Ret (Some r1) ]
  in
  Alcotest.check flow_t "class" Sim.Taint.Vanished s.Sim.Taint.flow

(* Taint crosses calls: argument masks flow into the callee frame and
   the return register's mask back into the caller's destination; a
   fault landing on the return write-back (attributed to the DCall)
   seeds fresh taint there. Both reach the caller's branch memory-free. *)
let run_call_kernel ~main_tags main_body =
  let id =
    Func.make ~name:"id" ~params:[ r0 ] ~ret:(Some Ty.I32)
      [ Instr.Ret (Some r0) ]
  in
  let main = Func.make ~name:"main" ~params:[] ~ret:None main_body in
  let code = Sim.Code.of_prog (Prog.make ~globals:[] [ id; main ]) in
  let tags =
    Array.map
      (fun (df : Sim.Code.dfunc) ->
        if df.Sim.Code.name = "main" then main_tags
        else Array.make (Array.length df.Sim.Code.dbody) false)
      code.Sim.Code.funcs
  in
  let injection = Sim.Interp.injection ~tags ~plan:[ (0, 1) ] in
  let r = Sim.Interp.run ~injection ~taint:true code in
  Alcotest.(check (array (pair string int)))
    "landing site" [| ("main", 0) |] r.Sim.Interp.landed_sites;
  Option.get r.Sim.Interp.fault_flow

let test_flow_through_call () =
  let call = Instr.Call { dst = Some r1; func = "id"; args = [ r0 ] } in
  let branch = Instr.Brz (Instr.Ne, r1, "end") in
  let on_return =
    run_call_kernel ~main_tags:[| true; false; false; false |]
      [ call; branch; Instr.Label "end"; Instr.Ret None ]
  in
  Alcotest.(check (option (pair string int)))
    "return write-back landing reaches the branch" (Some ("main", 1))
    on_return.Sim.Taint.first_control;
  let via_argument =
    run_call_kernel ~main_tags:[| true; false; false; false; false |]
      [ Instr.Li (r0, 5l); call; branch; Instr.Label "end"; Instr.Ret None ]
  in
  Alcotest.(check (option (pair string int)))
    "argument taint returns to the branch" (Some ("main", 2))
    via_argument.Sim.Taint.first_control

(* Taint without any injection: nothing to track; and without [~taint]
   no summary is produced at all. *)
let test_no_fault_no_flow () =
  let code = build ~ret:Ty.I32 [ Instr.Li (r0, 1l); Instr.Ret (Some r0) ] in
  let r = Sim.Interp.run ~taint:true code in
  (match r.Sim.Interp.fault_flow with
   | Some s -> Alcotest.check flow_t "clean run" Sim.Taint.Vanished s.Sim.Taint.flow
   | None -> Alcotest.fail "expected a summary under ~taint:true");
  let r' = Sim.Interp.run code in
  Alcotest.(check bool) "no summary without taint" true
    (r'.Sim.Interp.fault_flow = None)

(* ------------------------------------------------------------------ *)
(* Equivalence and determinism at campaign level.                      *)

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

let gcd_prepared =
  lazy
    (let prog = Mlang.Compile.to_ir gcd_mlang in
     let target = Core.Campaign.of_prog prog in
     fun policy -> Core.Campaign.prepare target policy)

(* A taint trial runs the taint flavour of the prepared image, whose
   ops run a shadow transfer and then the plain ops: same instruction
   order, same injection ordinals, same write-back points. Same plan
   in, same architectural behaviour out — down to where the trap and
   each landed fault are attributed. *)
let taint_plain_equivalence =
  QCheck.Test.make ~name:"taint run == plain run (outcome, dyn, landings)"
    ~count:100
    QCheck.(pair (int_bound 100_000) (int_range 1 20))
    (fun (seed, errors) ->
      let p = Lazy.force gcd_prepared Core.Policy.Protect_nothing in
      let run taint =
        let rng = Random.State.make [| seed; errors |] in
        Core.Campaign.run_trial_result ~taint p ~errors ~rng ~index:0
      in
      let a = run false and b = run true in
      Core.Outcome.to_string (Core.Outcome.of_result a)
      = Core.Outcome.to_string (Core.Outcome.of_result b)
      && a.Sim.Interp.dyn_count = b.Sim.Interp.dyn_count
      && a.Sim.Interp.injectable_seen = b.Sim.Interp.injectable_seen
      && a.Sim.Interp.faults_landed = b.Sim.Interp.faults_landed
      && a.Sim.Interp.trap_site = b.Sim.Interp.trap_site
      && a.Sim.Interp.landed_sites = b.Sim.Interp.landed_sites)

(* The flow classification is a pure function of the trial RNG. *)
let flow_determinism =
  QCheck.Test.make ~name:"flow classification deterministic" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let p = Lazy.force gcd_prepared Core.Policy.Protect_nothing in
      let flow () =
        let rng = Random.State.make [| seed |] in
        let t = Core.Campaign.run_trial ~taint:true p ~errors:3 ~rng ~index:0 in
        Option.map
          (fun (s : Sim.Taint.summary) -> s.Sim.Taint.flow)
          t.Core.Campaign.fault_flow
      in
      flow () = flow ())

let trial_flows (s : Core.Campaign.summary) =
  List.map
    (fun (t : Core.Campaign.trial) ->
      match t.Core.Campaign.fault_flow with
      | None -> "none"
      | Some f ->
        Printf.sprintf "%d:%s/%d/%d" t.Core.Campaign.index
          (Sim.Taint.flow_to_string f.Sim.Taint.flow)
          f.Sim.Taint.control_free f.Sim.Taint.control_via_memory)
    s.Core.Campaign.trials

let test_taint_jobs_bit_exact () =
  let p = Lazy.force gcd_prepared Core.Policy.Protect_nothing in
  let summary jobs =
    Core.Campaign.run ~jobs ~taint:true p ~errors:2 ~trials:13 ~seed:5
  in
  let a = summary 1 and b = summary 4 in
  Alcotest.(check (list string)) "per-trial flows identical" (trial_flows a)
    (trial_flows b);
  Alcotest.(check bool) "flow counters identical" true
    (a.Core.Campaign.stats.Core.Stats.flows
    = b.Core.Campaign.stats.Core.Stats.flows)

(* ------------------------------------------------------------------ *)
(* Audit.                                                              *)

let test_audit_protect_control_sound () =
  let p = Lazy.force gcd_prepared Core.Policy.Protect_control in
  let r = Core.Audit.run p ~errors:3 ~trials:20 ~seed:11 in
  Alcotest.(check bool) "sound" true (Core.Audit.sound r);
  Alcotest.(check int) "no memory-free control events" 0 r.Core.Audit.control_free;
  Core.Audit.check r

let test_audit_protect_nothing_contaminated () =
  let p = Lazy.force gcd_prepared Core.Policy.Protect_nothing in
  let r = Core.Audit.run p ~errors:3 ~trials:20 ~seed:11 in
  Alcotest.(check bool) "positive control: faults reach branches" true
    (Core.Stats.flows_get r.Core.Audit.stats.Core.Stats.flows
       Sim.Taint.Reached_control
    > 0);
  (* no promise under protect-nothing, so never a violation *)
  Alcotest.(check bool) "vacuously sound" true (Core.Audit.sound r)

let test_audit_protect_all_inert () =
  let p = Lazy.force gcd_prepared Core.Policy.Protect_all in
  let r = Core.Audit.run p ~errors:3 ~trials:10 ~seed:11 in
  Alcotest.(check bool) "sound" true (Core.Audit.sound r);
  Alcotest.(check int) "every trial vanished" 10
    (Core.Stats.flows_get r.Core.Audit.stats.Core.Stats.flows
       Sim.Taint.Vanished)

let () =
  Alcotest.run "taint"
    [
      ( "flows",
        [
          Alcotest.test_case "reached control" `Quick test_flow_control;
          Alcotest.test_case "control via memory" `Quick
            test_flow_control_via_memory;
          Alcotest.test_case "reached memory" `Quick test_flow_memory;
          Alcotest.test_case "reached address" `Quick test_flow_address;
          Alcotest.test_case "trap operand" `Quick test_flow_trap_operand;
          Alcotest.test_case "data only" `Quick test_flow_data_only;
          Alcotest.test_case "vanished" `Quick test_flow_vanished;
          Alcotest.test_case "no fault / no taint" `Quick test_no_fault_no_flow;
          Alcotest.test_case "through calls" `Quick test_flow_through_call;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest taint_plain_equivalence;
          QCheck_alcotest.to_alcotest flow_determinism;
          Alcotest.test_case "jobs bit-exact with taint" `Quick
            test_taint_jobs_bit_exact;
        ] );
      ( "audit",
        [
          Alcotest.test_case "protect-control sound" `Quick
            test_audit_protect_control_sound;
          Alcotest.test_case "protect-nothing contaminated" `Quick
            test_audit_protect_nothing_contaminated;
          Alcotest.test_case "protect-all inert" `Quick
            test_audit_protect_all_inert;
        ] );
    ]
