(* Cross-engine differential suite: the threaded-closure fast engine
   (Sim.Interp.compile + image machines) versus the reference
   match-dispatch loop must be bit-identical on every observable —
   outcome, dynamic and injectable counters, trap provenance,
   landed-site attribution, the full memory image, campaign records
   and fault flows — over random Mlang programs ([Rand_prog]), random
   fault plans, and pause/capture/resume at random ordinal boundaries.

   Traps, timeouts and stack overflow are reachable under injection
   (and directly, in the directed cases below, which also walk every
   edge of the memory model on both sides of the fast engine's
   fast-path test). Shadow taint is held to
   the same standard: the taint flavour of an image against the
   reference loop's taint path, down to the full fault-flow summary,
   and the audit reports of all 7 apps. Speed guards check that the
   fast engine actually beats the reference loop on the golden susan
   run, plain and with taint. *)

open Mlang.Dsl

(* ------------------------------------------------------------------ *)
(* Per-program context: compiled code, densest tag mask, fast-engine
   image, fault-free baseline (reference loop) and the campaign's
   timeout budget. Cached per generator seed so the qcheck properties
   do not recompile on every case. *)

type ctx = {
  prog : Ir.Prog.t;
  code : Sim.Code.t;
  tags : bool array array;
  image : Sim.Interp.image;
  total : int;  (* injectable pool size *)
  budget : int;
}

let ctx_cache : (int, ctx) Hashtbl.t = Hashtbl.create 16

(* A fresh sim-safe (lenient) memory image of [prog]: the model every
   campaign trial runs on, so random faults may make wild accesses
   without trapping. A machine takes ownership of its image. *)
let lenient prog = Sim.Memory.of_prog ~lenient:true prog

let ctx_of_seed seed =
  match Hashtbl.find_opt ctx_cache seed with
  | Some c -> c
  | None ->
    let prog = Mlang.Compile.to_ir (Rand_prog.gen_prog seed) in
    let code = Sim.Code.of_prog prog in
    let tagging = Core.Tagging.compute prog in
    let tags = Core.Tagging.mask tagging Core.Policy.Protect_nothing in
    let image = Sim.Interp.compile ~tags code in
    let baseline =
      Sim.Interp.run
        ~injection:(Core.Fault_model.profiling_injection ~tags)
        ~memory:(lenient prog) code
    in
    let c =
      {
        prog;
        code;
        tags;
        image;
        total = baseline.Sim.Interp.injectable_seen;
        budget =
          Core.Campaign.timeout_factor * baseline.Sim.Interp.dyn_count;
      }
    in
    Hashtbl.replace ctx_cache seed c;
    c

let outcome_str (r : Sim.Interp.result) =
  match r.Sim.Interp.outcome with
  | Sim.Interp.Done x ->
    "done:" ^ Option.fold ~none:"()" ~some:Sim.Value.to_string x
  | Sim.Interp.Trapped t ->
    "trap:" ^ Sim.Trap.to_string t
    ^ (match r.Sim.Interp.trap_site with
       | Some (fname, pc) -> Printf.sprintf "@%s+%d" fname pc
       | None -> "@?")
  | Sim.Interp.Timeout -> "timeout"

(* Full-result fingerprint: every observable the engines must agree
   on, the memory image (word, byte and float globals) included. *)
let fingerprint ctx (r : Sim.Interp.result) =
  let ints name =
    String.concat ","
      (Array.to_list
         (Array.map string_of_int
            (Sim.Memory.read_global_ints r.Sim.Interp.memory ctx.prog name)))
  in
  let flts name =
    String.concat ","
      (Array.to_list
         (Array.map (Printf.sprintf "%h")
            (Sim.Memory.read_global_flts r.Sim.Interp.memory ctx.prog name)))
  in
  Printf.sprintf "%s/%d/%d/%d/[%s]/out=%s/buf=%s/bytes=%s/fout=%s"
    (outcome_str r) r.Sim.Interp.dyn_count r.Sim.Interp.injectable_seen
    r.Sim.Interp.faults_landed
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun (fname, pc) -> Printf.sprintf "%s+%d" fname pc)
             r.Sim.Interp.landed_sites)))
    (ints "out") (ints "buf") (ints "bytes") (flts "fout")

let run_engine ctx ~engine plan =
  let injection = Sim.Interp.injection ~tags:ctx.tags ~plan in
  let image =
    match engine with Sim.Interp.Fast -> Some ctx.image | Sim.Interp.Ref -> None
  in
  Sim.Interp.run ?image ~injection ~budget:ctx.budget
    ~memory:(lenient ctx.prog) ctx.code

let plan_of ctx ~seed ~errors =
  let rng = Random.State.make [| 0x51de; seed; errors |] in
  Hashtbl.fold
    (fun o b acc -> (o, b) :: acc)
    (Core.Fault_model.make_plan ~rng ~injectable_total:ctx.total ~errors)
    []

(* ------------------------------------------------------------------ *)
(* Property: raw runs agree on random programs x random plans.         *)

let run_differential =
  QCheck.Test.make ~name:"fast == ref on random programs x random plans"
    ~count:120
    QCheck.(triple (int_bound 15) (int_bound 10_000) (int_range 0 12))
    (fun (pseed, fseed, errors) ->
      let ctx = ctx_of_seed pseed in
      let plan = plan_of ctx ~seed:fseed ~errors in
      fingerprint ctx (run_engine ctx ~engine:Sim.Interp.Ref plan)
      = fingerprint ctx (run_engine ctx ~engine:Sim.Interp.Fast plan))

(* Property: pause/capture/resume at a random ordinal boundary, in all
   four engine pairings (snapshots carry no engine state, so a capture
   under one engine resumes under the other). The plan is restricted
   to ordinals at or past the pause point — capture is only legal on a
   fault-free prefix. *)

let pause_resume_cross =
  QCheck.Test.make
    ~name:"capture/resume at random boundaries, all engine pairings"
    ~count:60
    QCheck.(triple (int_bound 15) (int_bound 10_000) (int_range 0 8))
    (fun (pseed, fseed, errors) ->
      let ctx = ctx_of_seed pseed in
      let p = Random.State.int (Random.State.make [| fseed |]) (ctx.total + 1) in
      let plan =
        List.filter (fun (o, _) -> o >= p) (plan_of ctx ~seed:fseed ~errors)
      in
      let injection = Sim.Interp.injection ~tags:ctx.tags ~plan in
      let golden = fingerprint ctx (run_engine ctx ~engine:Sim.Interp.Ref plan) in
      let image_of = function
        | Sim.Interp.Fast -> Some ctx.image
        | Sim.Interp.Ref -> None
      in
      List.for_all
        (fun (cap_e, res_e) ->
          let m =
            Sim.Interp.machine ?image:(image_of cap_e) ~injection
              ~budget:ctx.budget ~memory:(lenient ctx.prog) ctx.code
          in
          let r =
            match Sim.Interp.advance m ~pause_at:p with
            | `Halted -> Sim.Interp.finish m
            | `Paused ->
              let s = Sim.Interp.capture m in
              assert (Sim.Interp.snapshot_ordinal s = p);
              Sim.Interp.finish
                (Sim.Interp.resume ?image:(image_of res_e) ~injection s)
          in
          fingerprint ctx r = golden)
        Sim.Interp.
          [ (Ref, Ref); (Ref, Fast); (Fast, Ref); (Fast, Fast) ])

(* ------------------------------------------------------------------ *)
(* Campaign level: trial records — outcome, counters, landed faults,
   fidelity, fault flow — identical between engine targets, for every
   jobs x checkpoint-stride combination. *)

let flow_str = function
  | None -> "-"
  | Some (s : Sim.Taint.summary) ->
    Printf.sprintf "%s:%d:%d:%d:%d:%d:%s"
      (Sim.Taint.flow_to_string s.Sim.Taint.flow)
      s.Sim.Taint.control_free s.Sim.Taint.control_via_memory
      s.Sim.Taint.address_hits s.Sim.Taint.trap_operand_hits
      s.Sim.Taint.memory_hits
      (match s.Sim.Taint.first_control with
       | None -> "-"
       | Some (fname, pc) -> Printf.sprintf "%s+%d" fname pc)

let record_str (t : Core.Campaign.trial) =
  Printf.sprintf "%d/%s/%d/%d/%d/%s/%s" t.Core.Campaign.index
    (Core.Outcome.describe t.Core.Campaign.outcome)
    t.Core.Campaign.dyn_count t.Core.Campaign.faults_planned
    t.Core.Campaign.faults_landed
    (match t.Core.Campaign.fidelity with
     | None -> "-"
     | Some x -> Printf.sprintf "%h" x)
    (flow_str t.Core.Campaign.fault_flow)

let campaign_records ?taint target ~stride ~jobs =
  let p =
    Core.Campaign.prepare ~checkpoint_stride:stride target
      Core.Policy.Protect_nothing
  in
  let s = Core.Campaign.run ?taint ~jobs p ~errors:3 ~trials:8 ~seed:11 in
  String.concat "|" (List.map record_str s.Core.Campaign.trials)

let test_campaign_grid () =
  let prog = (ctx_of_seed 3).prog in
  let fast = Core.Campaign.of_prog ~engine:Sim.Interp.Fast prog in
  let ref_ = Core.Campaign.of_prog ~engine:Sim.Interp.Ref prog in
  let canonical = campaign_records ref_ ~stride:0 ~jobs:1 in
  List.iter
    (fun jobs ->
      List.iter
        (fun stride ->
          Alcotest.(check string)
            (Printf.sprintf "ref jobs=%d stride=%d" jobs stride)
            canonical
            (campaign_records ref_ ~stride ~jobs);
          Alcotest.(check string)
            (Printf.sprintf "fast jobs=%d stride=%d" jobs stride)
            canonical
            (campaign_records fast ~stride ~jobs))
        [ 0; 1; 3; 5 ])
    [ 1; 2; 4 ]

(* Taint trials run on the target's engine — the taint flavour of the
   prepared image, or the reference loop — resuming from checkpoints
   the golden pass recorded under that engine. Every engine target x
   jobs x stride combination must reproduce the reference loop's
   from-scratch records and fault flows exactly. *)
let test_campaign_taint_flows () =
  let prog = (ctx_of_seed 5).prog in
  let fast = Core.Campaign.of_prog ~engine:Sim.Interp.Fast prog in
  let ref_ = Core.Campaign.of_prog ~engine:Sim.Interp.Ref prog in
  let canonical = campaign_records ~taint:true ref_ ~stride:0 ~jobs:1 in
  List.iter
    (fun jobs ->
      List.iter
        (fun stride ->
          Alcotest.(check string)
            (Printf.sprintf "taint ref jobs=%d stride=%d" jobs stride)
            canonical
            (campaign_records ~taint:true ref_ ~stride ~jobs);
          Alcotest.(check string)
            (Printf.sprintf "taint fast jobs=%d stride=%d" jobs stride)
            canonical
            (campaign_records ~taint:true fast ~stride ~jobs))
        [ 0; 1; 3; 5 ])
    [ 1; 2; 4 ]

(* Property: taint runs on the taint flavour of an image equal the
   reference loop's taint runs — outcome, counters, trap and landing
   sites, the memory image and the full fault-flow summary — from
   scratch, paused at a random ordinal and continued in place, and
   captured there and resumed under every engine pairing. As in
   [pause_resume_cross], the resumed plans keep only ordinals at or
   past the pause point. *)
let taint_fingerprint ctx (r : Sim.Interp.result) =
  Printf.sprintf "%s/mem=%s/flow=%s" (fingerprint ctx r)
    (Sim.Memory.digest r.Sim.Interp.memory)
    (flow_str r.Sim.Interp.fault_flow)

let taint_differential =
  QCheck.Test.make
    ~name:"fast taint == ref taint, paused and resumed at random" ~count:120
    QCheck.(triple (int_bound 15) (int_bound 10_000) (int_range 0 12))
    (fun (pseed, fseed, errors) ->
      let ctx = ctx_of_seed pseed in
      let p = Random.State.int (Random.State.make [| fseed |]) (ctx.total + 1) in
      let plan = plan_of ctx ~seed:fseed ~errors in
      let tainted = Sim.Interp.taint_image ctx.image in
      let image_of = function
        | Sim.Interp.Fast -> Some tainted
        | Sim.Interp.Ref -> None
      in
      let machine engine plan =
        Sim.Interp.machine ?image:(image_of engine)
          ~injection:(Sim.Interp.injection ~tags:ctx.tags ~plan)
          ~budget:ctx.budget ~taint:true ~memory:(lenient ctx.prog) ctx.code
      in
      let scratch engine plan =
        taint_fingerprint ctx (Sim.Interp.finish (machine engine plan))
      in
      let golden = scratch Sim.Interp.Ref plan in
      let paused_in_place engine =
        let m = machine engine plan in
        ignore (Sim.Interp.advance m ~pause_at:p);
        taint_fingerprint ctx (Sim.Interp.finish m)
      in
      let late = List.filter (fun (o, _) -> o >= p) plan in
      let late_golden = scratch Sim.Interp.Ref late in
      let captured (cap_e, res_e) =
        let m = machine cap_e late in
        let r =
          match Sim.Interp.advance m ~pause_at:p with
          | `Halted -> Sim.Interp.finish m
          | `Paused ->
            let s = Sim.Interp.capture m in
            Sim.Interp.finish
              (Sim.Interp.resume ?image:(image_of res_e)
                 ~injection:(Sim.Interp.injection ~tags:ctx.tags ~plan:late)
                 ~taint:true s)
        in
        taint_fingerprint ctx r
      in
      scratch Sim.Interp.Fast plan = golden
      && paused_in_place Sim.Interp.Ref = golden
      && paused_in_place Sim.Interp.Fast = golden
      && List.for_all
           (fun pair -> captured pair = late_golden)
           Sim.Interp.[ (Ref, Ref); (Ref, Fast); (Fast, Ref); (Fast, Fast) ])

(* The taint audit of every app, as paper-repro runs it (Full mode,
   10 errors, 5 trials, seed 41), reports the same on a fast-engine
   target as on a reference-engine one, under protect-control and
   protect-nothing. *)
let test_audit_reports () =
  List.iter
    (fun (app : Apps.App.t) ->
      let l = Harness.Experiment.load ~seed:1 app in
      let target = l.Harness.Experiment.target Harness.Experiment.Full in
      let ref_target = { target with Core.Campaign.engine = Sim.Interp.Ref } in
      List.iter
        (fun policy ->
          let audit p =
            Core.Audit.run ~jobs:1 p ~errors:10 ~trials:5 ~seed:41
          in
          let fast =
            audit (l.Harness.Experiment.prepared Harness.Experiment.Full policy)
          and slow = audit (Core.Campaign.prepare ref_target policy) in
          if fast <> slow then
            Alcotest.failf "%s %s: fast audit %s, reference audit %s"
              app.Apps.App.name (Core.Policy.to_string policy)
              (Core.Audit.describe fast) (Core.Audit.describe slow))
        [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ])
    Apps.Registry.all

(* ------------------------------------------------------------------ *)
(* Directed trap/timeout parity: each abnormal-outcome class, with its
   provenance, agrees between engines without any injection.           *)

let check_parity name prog =
  let prog = Mlang.Compile.to_ir prog in
  let code = Sim.Code.of_prog prog in
  let image = Sim.Interp.compile code in
  let ctx_like r = (outcome_str r, r.Sim.Interp.dyn_count) in
  let run image =
    Sim.Interp.run ?image ~budget:2_000 ~memory:(lenient prog) code
  in
  Alcotest.(check (pair string int))
    name
    (ctx_like (run None))
    (ctx_like (run (Some image)))

let test_abnormal_parity () =
  check_parity "div by zero"
    (program
       [ garray "out" 1 ]
       [
         fn "main" [] ~ret:(Some Mlang.Ast.TInt)
           [ let_ "z" (i 0); ret (i 7 /! v "z") ];
       ]);
  check_parity "out-of-bounds store"
    (program
       [ garray "out" 2 ]
       [
         fn "main" [] ~ret:(Some Mlang.Ast.TInt)
           [ let_ "k" (i 9); sto "out" (v "k") (i 1); ret (i 0) ];
       ]);
  check_parity "timeout"
    (program
       [ garray "out" 1 ]
       [
         fn "main" [] ~ret:(Some Mlang.Ast.TInt)
           [
             let_ "x" (i 1);
             while_ (v "x" >! i 0) [ set "x" (v "x" +! i 1) ];
             ret (i 0);
           ];
       ]);
  check_parity "stack overflow"
    (program
       [ garray "out" 1 ]
       [
         fn "deep" [ p_int "n" ] ~ret:(Some Mlang.Ast.TInt)
           [ ret (call "deep" [ v "n" +! i 1 ]) ];
         fn "main" [] ~ret:(Some Mlang.Ast.TInt)
           [ ret (call "deep" [ i 0 ]) ];
       ])

(* ------------------------------------------------------------------ *)
(* Directed memory-edge parity: the fast engine serves aligned,
   in-range, right-kind accesses itself and hands every other access
   to the memory model, so each side of that boundary is run here on
   both engines, under both models: the null guard, the first and last
   cells, one past the end, negative and misaligned addresses, and
   kind confusion, for word, byte and float loads and stores.         *)

let edge_prog (access : Ir.Reg.t -> Ir.Instr.t list * Ir.Reg.t option) addr =
  let base = Ir.Reg.int 1 in
  let body, ret = access base in
  let ret_ty =
    Option.map
      (fun r -> if Ir.Reg.is_flt r then Ir.Ty.F64 else Ir.Ty.I32)
      ret
  in
  Ir.Prog.make
    ~globals:
      [
        Ir.Prog.global ~init:(Ir.Prog.Int_data [| -5l; 0x12345678l |]) "w"
          Ir.Ty.I32 2;
        Ir.Prog.global ~init:(Ir.Prog.Flt_data [| 2.5 |]) "f" Ir.Ty.F64 1;
        Ir.Prog.global ~init:(Ir.Prog.Int_data [| 1l; 2l; 3l; 0xF0l |]) "b"
          Ir.Ty.I8 4;
      ]
    [
      Ir.Func.make ~name:"main" ~params:[] ~ret:ret_ty
        ((Ir.Instr.Li (base, Int32.of_int addr) :: body)
        @ [ Ir.Instr.Ret ret ]);
    ]

let test_memory_edges () =
  let r = Ir.Reg.int and f = Ir.Reg.flt in
  let accesses =
    Ir.Instr.
      [
        ("lw", fun b -> ([ Lw (r 2, b, 0) ], Some (r 2)));
        ("sw", fun b -> ([ Li (r 2, 77l); Sw (r 2, b, 0) ], None));
        ("lb", fun b -> ([ Lb (r 2, b, 0) ], Some (r 2)));
        ("sb", fun b -> ([ Li (r 2, 0x1AAl); Sb (r 2, b, 0) ], None));
        ("lwf", fun b -> ([ Lwf (f 0, b, 0) ], Some (f 0)));
        ("swf", fun b -> ([ Lf (f 0, -0.75); Swf (f 0, b, 0) ], None));
      ]
  in
  let layout = edge_prog (fun _ -> ([], None)) 0 in
  let size = Sim.Memory.size_bytes (Sim.Memory.of_prog layout) in
  let w = Ir.Prog.global_addr layout "w"
  and fl = Ir.Prog.global_addr layout "f" in
  let addrs =
    [ 0; 1; 2; 3; 4; w; w + 4; fl; fl + 2; size - 4; size - 1; size; -4; -1 ]
    @ [ 5; 6; 7; w + 5 ]
  in
  let traps = Hashtbl.create 8 in
  List.iter
    (fun lenient ->
      List.iter
        (fun (name, access) ->
          List.iter
            (fun addr ->
              let prog = edge_prog access addr in
              let code = Sim.Code.of_prog prog in
              let run image =
                let r =
                  Sim.Interp.run ?image
                    ~memory:(Sim.Memory.of_prog ~lenient prog) code
                in
                (match r.Sim.Interp.outcome with
                 | Sim.Interp.Trapped t ->
                   Hashtbl.replace traps (Sim.Trap.kind t) ()
                 | _ -> ());
                Printf.sprintf "%s/%d/%s" (outcome_str r)
                  r.Sim.Interp.dyn_count
                  (Sim.Memory.digest r.Sim.Interp.memory)
              in
              Alcotest.(check string)
                (Printf.sprintf "%s %s at %d"
                   (if lenient then "lenient" else "strict")
                   name addr)
                (run None)
                (run (Some (Sim.Interp.compile code))))
            addrs)
        accesses)
    [ false; true ];
  (* Every trap class of the strict model is among the cases. *)
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("reaches " ^ kind) true (Hashtbl.mem traps kind))
    [ "null_access"; "out_of_bounds"; "unaligned"; "type_confusion" ]

(* Two byte stores to one cell union their lane taint: a tainted lane
   stays tainted after a clean store to another lane of the same cell,
   so the word loaded back carries it to a branch (a through-memory
   control contamination), on both engines. *)
let test_byte_lane_taint () =
  let r = Ir.Reg.int in
  let prog =
    Ir.Prog.make
      ~globals:[ Ir.Prog.global "b" Ir.Ty.I8 4 ]
      [
        Ir.Func.make ~name:"main" ~params:[] ~ret:(Some Ir.Ty.I32)
          Ir.Instr.
            [
              La (r 1, "b");
              Li (r 2, 5l) (* tagged: the planned fault lands here *);
              Sb (r 2, r 1, 0);
              Li (r 3, 7l);
              Sb (r 3, r 1, 1);
              Lw (r 4, r 1, 0);
              Brz (Eq, r 4, "out");
              Label "out";
              Ret (Some (r 4));
            ];
      ]
  in
  let code = Sim.Code.of_prog prog in
  let tags = [| Array.init 9 (fun pc -> pc = 1) |] in
  let injection = Sim.Interp.injection ~tags ~plan:[ (0, 0) ] in
  let run image =
    let r = Sim.Interp.run ?image ~injection ~taint:true code in
    Alcotest.(check int) "fault landed" 1 r.Sim.Interp.faults_landed;
    r.Sim.Interp.fault_flow
  in
  let slow = run None in
  let fast =
    run (Some (Sim.Interp.taint_image (Sim.Interp.compile ~tags code)))
  in
  Alcotest.(check string) "fast taint = ref taint" (flow_str slow)
    (flow_str fast);
  match fast with
  | Some s ->
    Alcotest.(check (pair int int)) "control via memory, one tainted store"
      (1, 1)
      (s.Sim.Taint.control_via_memory, s.Sim.Taint.memory_hits)
  | None -> Alcotest.fail "no fault flow on a taint run"

(* ------------------------------------------------------------------ *)
(* Guards: the fast engine's compile-time binding is enforced.         *)

let test_engine_guards () =
  let ctx = ctx_of_seed 0 in
  Alcotest.(check string) "engine names" "fast,ref"
    (String.concat ","
       (List.map Sim.Interp.engine_name [ Sim.Interp.Fast; Sim.Interp.Ref ]));
  (* The injection's tag mask must be the compiled one (physical
     equality): a structurally equal copy is rejected. *)
  let copy = Array.map Array.copy ctx.tags in
  Alcotest.(check bool) "foreign tag mask rejected" true
    (try
       ignore
         (Sim.Interp.machine ~image:ctx.image
            ~injection:(Sim.Interp.injection ~tags:copy ~plan:[])
            ctx.code);
       false
     with Invalid_argument _ -> true);
  (* Counting runs on the fast engine too (through a counting flavour
     of the image) and counts what the reference loop counts. *)
  let counted image =
    Sim.Interp.finish
      (Sim.Interp.machine ?image
         ~injection:(Sim.Interp.injection ~tags:ctx.tags ~plan:[])
         ~count_exec:true ctx.code)
  in
  let fast = counted (Some ctx.image) and slow = counted None in
  Alcotest.(check bool) "count_exec runs on the fast engine" true
    (fast.Sim.Interp.exec_counts = slow.Sim.Interp.exec_counts
    && fast.Sim.Interp.dyn_count = slow.Sim.Interp.dyn_count
    && fast.Sim.Interp.injectable_seen = slow.Sim.Interp.injectable_seen
    && Array.exists (Array.exists (fun c -> c > 0)) fast.Sim.Interp.exec_counts);
  (* An image serves only machines of its flavour: every constructor
     that takes one rejects a taint machine on a plain image and a
     plain machine on a taint image, even with the matching tag mask,
     and no flavour both counts and taints. *)
  let injection = Sim.Interp.injection ~tags:ctx.tags ~plan:[] in
  let tainted = Sim.Interp.taint_image ctx.image in
  let rejects name want f =
    Alcotest.(check string) name want
      (try
         ignore (f ());
         "accepted"
       with Invalid_argument msg -> msg)
  in
  let snap =
    let m = Sim.Interp.machine ~injection ctx.code in
    assert (Sim.Interp.advance m ~pause_at:0 = `Paused);
    Sim.Interp.capture m
  in
  let plain_on_taint = "Interp: a taint machine cannot run a plain image" in
  rejects "taint run rejects a plain image" plain_on_taint (fun () ->
      Sim.Interp.run ~image:ctx.image ~injection ~taint:true ctx.code);
  rejects "plain machine rejects a taint image"
    "Interp: a plain machine cannot run a taint image" (fun () ->
      Sim.Interp.machine ~image:tainted ~injection ctx.code);
  rejects "counting taint machine stays on the reference loop"
    "Interp: a counting taint machine requires the reference engine"
    (fun () ->
      Sim.Interp.machine ~image:tainted ~injection ~count_exec:true
        ~taint:true ctx.code);
  rejects "taint resume rejects a plain image" plain_on_taint (fun () ->
      Sim.Interp.resume ~image:ctx.image ~injection ~taint:true snap);
  (* The taint flavour is compiled once and kept on the plain image. *)
  Alcotest.(check bool) "taint flavour kept on the image" true
    (Sim.Interp.taint_image ctx.image == tainted
    && Sim.Interp.taint_image tainted == tainted);
  (* Without [~memory] a machine lays out the strict model whichever
     engine runs it: a wild store traps, at the same site, on both. *)
  let wild =
    Sim.Code.of_prog
      (Mlang.Compile.to_ir
         (program
            [ garray "out" 2 ]
            [
              fn "main" [] ~ret:(Some Mlang.Ast.TInt)
                [ let_ "k" (i 100_000); sto "out" (v "k") (i 1); ret (i 0) ];
            ]))
  in
  let strict image = Sim.Interp.finish (Sim.Interp.machine ?image wild) in
  let ref_run = strict None in
  (match ref_run.Sim.Interp.outcome with
   | Sim.Interp.Trapped (Sim.Trap.Out_of_bounds _) -> ()
   | _ -> Alcotest.failf "strict wild store: %s" (outcome_str ref_run));
  Alcotest.(check (pair string int))
    "strict wild store traps alike"
    (outcome_str ref_run, ref_run.Sim.Interp.dyn_count)
    (let r = strict (Some (Sim.Interp.compile wild)) in
     (outcome_str r, r.Sim.Interp.dyn_count))

(* ------------------------------------------------------------------ *)
(* Speed guards: the fast engine must beat the reference loop on the
   golden susan run by at least 1.25x, plain and with shadow taint.
   Runs alternate between the two engines and each side keeps its min
   of 5 walls, so a scheduler stall or a burst of load from other
   processes cannot flip the verdict. The two engines running the same
   loop land near 1.0x, which is what the margin catches: an image
   that silently falls back to the reference loop.                     *)

let beats_ref ~what ~fast ~slow =
  let wall run =
    let t0 = Unix.gettimeofday () in
    ignore (run ());
    Unix.gettimeofday () -. t0
  in
  let fast_s = ref infinity and ref_s = ref infinity in
  for _ = 1 to 5 do
    fast_s := Float.min !fast_s (wall fast);
    ref_s := Float.min !ref_s (wall slow)
  done;
  let ratio = !ref_s /. !fast_s in
  Printf.printf "susan golden %s run: fast %.2f ms, ref %.2f ms (%.2fx)\n%!"
    what (!fast_s *. 1e3) (!ref_s *. 1e3) ratio;
  if ratio < 1.25 then
    Alcotest.failf "fast %s %.2f ms vs ref %.2f ms on susan: %.2fx < 1.25x"
      what (!fast_s *. 1e3) (!ref_s *. 1e3) ratio

let susan_code () =
  Sim.Code.of_prog (Apps.Susan.app.Apps.App.build ~seed:1).Apps.App.prog

let test_fast_beats_ref () =
  let code = susan_code () in
  let image = Sim.Interp.compile code in
  beats_ref ~what:"plain"
    ~fast:(fun () -> Sim.Interp.run_exn ~image code)
    ~slow:(fun () -> Sim.Interp.run_exn code)

let test_fast_taint_beats_ref () =
  let code = susan_code () in
  let image = Sim.Interp.taint_image (Sim.Interp.compile code) in
  beats_ref ~what:"taint"
    ~fast:(fun () ->
      Sim.Interp.done_exn (Sim.Interp.run ~image ~taint:true code))
    ~slow:(fun () -> Sim.Interp.done_exn (Sim.Interp.run ~taint:true code))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest run_differential;
          QCheck_alcotest.to_alcotest pause_resume_cross;
          QCheck_alcotest.to_alcotest taint_differential;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "records over jobs x strides" `Quick
            test_campaign_grid;
          Alcotest.test_case "taint fault flows" `Quick
            test_campaign_taint_flows;
          Alcotest.test_case "audit reports: fast = ref on 7 apps" `Quick
            test_audit_reports;
        ] );
      ( "directed",
        [
          Alcotest.test_case "abnormal outcome parity" `Quick
            test_abnormal_parity;
          Alcotest.test_case "memory edges: fast = ref, both models" `Quick
            test_memory_edges;
          Alcotest.test_case "byte stores union lane taint" `Quick
            test_byte_lane_taint;
          Alcotest.test_case "engine guards" `Quick test_engine_guards;
          Alcotest.test_case "fast beats ref on susan" `Quick
            test_fast_beats_ref;
          Alcotest.test_case "fast taint beats ref taint on susan" `Quick
            test_fast_taint_beats_ref;
        ] );
    ]
