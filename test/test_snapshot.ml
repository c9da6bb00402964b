(* Checkpointed execution: the explicit-machine pause/capture/resume
   API, the golden Snapshot sequence, and the campaign fast-forward
   path. The load-bearing property throughout: resuming from any
   checkpoint is bit-exact versus from-scratch execution — same
   outcome, dynamic count, landings, memory image — for any stride,
   any plan, and any jobs fan-out. *)

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

(* A fresh sim-safe (lenient) memory image of [prog], the model
   campaign trials run on. A machine takes ownership of its image. *)
let lenient prog = Sim.Memory.of_prog ~lenient:true prog

(* Shared fixture: program, code, protect-nothing tags (the densest
   pool), fault-free baseline. *)
let fixture =
  lazy
    (let prog = Mlang.Compile.to_ir gcd_mlang in
     let code = Sim.Code.of_prog prog in
     let tagging = Core.Tagging.compute prog in
     let tags = Core.Tagging.mask tagging Core.Policy.Protect_nothing in
     let injection = Core.Fault_model.profiling_injection ~tags in
     let baseline = Sim.Interp.run ~injection ~memory:(lenient prog) code in
     (prog, code, tags, baseline))

let campaign_target =
  lazy
    (let prog, _, _, _ = Lazy.force fixture in
     Core.Campaign.of_prog prog)

let budget () =
  let _, _, _, baseline = Lazy.force fixture in
  Core.Campaign.timeout_factor * baseline.Sim.Interp.dyn_count

let outcome_str (r : Sim.Interp.result) =
  match r.Sim.Interp.outcome with
  | Sim.Interp.Done v ->
    "done:" ^ Option.fold ~none:"()" ~some:Sim.Value.to_string v
  | Sim.Interp.Trapped t ->
    "trap:" ^ Sim.Trap.to_string t
    ^ (match r.Sim.Interp.trap_site with
       | Some (f, pc) -> Printf.sprintf "@%s+%d" f pc
       | None -> "@?")
  | Sim.Interp.Timeout -> "timeout"

(* Full-result fingerprint, memory image included. *)
let fingerprint (r : Sim.Interp.result) =
  let prog, _, _, _ = Lazy.force fixture in
  Printf.sprintf "%s/%d/%d/%d/%s" (outcome_str r) r.Sim.Interp.dyn_count
    r.Sim.Interp.injectable_seen r.Sim.Interp.faults_landed
    (String.concat ","
       (Array.to_list
          (Array.map string_of_int
             (Sim.Memory.read_global_ints r.Sim.Interp.memory prog "out"))))

let run_scratch plan =
  let prog, code, tags, _ = Lazy.force fixture in
  let injection = Sim.Interp.injection ~tags ~plan in
  Sim.Interp.run ~injection ~budget:(budget ()) ~memory:(lenient prog) code

let snapshots stride =
  let prog, code, tags, _ = Lazy.force fixture in
  Sim.Snapshot.build ~stride ~tags ~budget:(budget ()) ~memory:(lenient prog)
    code

let run_resumed snaps plan =
  let _, _, tags, _ = Lazy.force fixture in
  let injection = Sim.Interp.injection ~tags ~plan in
  let first = List.fold_left (fun acc (o, _) -> min acc o) max_int plan in
  let snap = Sim.Snapshot.nearest snaps ~ordinal:first in
  (Sim.Interp.finish (Sim.Interp.resume ~injection snap), snap)

let check_equiv ~stride msg plan =
  let a = run_scratch plan in
  let b, _ = run_resumed (snapshots stride) plan in
  Alcotest.(check string) msg (fingerprint a) (fingerprint b)

(* ------------------------------------------------------------------ *)
(* Machine API basics.                                                 *)

let test_pause_points () =
  let prog, code, tags, baseline = Lazy.force fixture in
  let total = baseline.Sim.Interp.injectable_seen in
  Alcotest.(check bool) "pool non-trivial" true (total > 10);
  let injection = Sim.Interp.injection ~tags ~plan:[] in
  let m = Sim.Interp.machine ~injection ~memory:(lenient prog) code in
  (* Pause at 0 = initial state; then walk forward and capture; every
     capture sits exactly on its requested ordinal. *)
  Alcotest.(check bool) "pause at 0" true
    (Sim.Interp.advance m ~pause_at:0 = `Paused);
  let s0 = Sim.Interp.capture m in
  Alcotest.(check int) "ordinal 0" 0 (Sim.Interp.snapshot_ordinal s0);
  Alcotest.(check int) "dyn 0" 0 (Sim.Interp.snapshot_dyn s0);
  let mid = total / 2 in
  Alcotest.(check bool) "pause mid" true
    (Sim.Interp.advance m ~pause_at:mid = `Paused);
  let s1 = Sim.Interp.capture m in
  Alcotest.(check int) "ordinal mid" mid (Sim.Interp.snapshot_ordinal s1);
  Alcotest.(check bool) "dyn advanced" true (Sim.Interp.snapshot_dyn s1 > 0);
  Alcotest.(check bool) "halts" true
    (Sim.Interp.advance m ~pause_at:max_int = `Halted);
  let r = Sim.Interp.finish m in
  Alcotest.(check string) "paused-and-finished == straight run"
    (fingerprint (run_scratch []))
    (fingerprint r);
  (* Resuming the mid snapshot with an empty plan replays the tail
     exactly (the mask keeps counting ordinals; nothing fires). *)
  let r' = Sim.Interp.finish (Sim.Interp.resume ~injection s1) in
  Alcotest.(check string) "resume tail == straight run"
    (fingerprint (run_scratch []))
    (fingerprint r')

let test_capture_guards () =
  let prog, code, tags, _ = Lazy.force fixture in
  let injection = Sim.Interp.injection ~tags ~plan:[] in
  let m = Sim.Interp.machine ~injection ~memory:(lenient prog) code in
  ignore (Sim.Interp.advance m ~pause_at:max_int);
  Alcotest.check_raises "capture after halt"
    (Invalid_argument "Interp.capture: machine has halted") (fun () ->
      ignore (Sim.Interp.capture m));
  let mp =
    Sim.Interp.machine ~count_exec:true ~memory:(lenient prog) code
  in
  ignore (Sim.Interp.advance mp ~pause_at:0);
  Alcotest.check_raises "capture under count_exec"
    (Invalid_argument "Interp.capture: profiling machines are not snapshotable")
    (fun () -> ignore (Sim.Interp.capture mp));
  (* A plan ordinal before the snapshot could never land: rejected. *)
  let m2 = Sim.Interp.machine ~injection ~memory:(lenient prog) code in
  ignore (Sim.Interp.advance m2 ~pause_at:5);
  let s = Sim.Interp.capture m2 in
  Alcotest.check_raises "plan precedes snapshot"
    (Invalid_argument "Interp.resume: plan ordinal precedes snapshot")
    (fun () ->
      ignore
        (Sim.Interp.resume
           ~injection:(Sim.Interp.injection ~tags ~plan:[ (2, 0) ])
           s))

let test_snapshot_build_shape () =
  let _, _, _, baseline = Lazy.force fixture in
  let total = baseline.Sim.Interp.injectable_seen in
  let stride = 5 in
  let snaps = snapshots stride in
  Alcotest.(check int) "stride recorded" stride (Sim.Snapshot.stride snaps);
  Alcotest.(check int) "checkpoint count" ((total / stride) + 1)
    (Sim.Snapshot.count snaps);
  Alcotest.(check int) "nearest rounds down" 10
    (Sim.Interp.snapshot_ordinal (Sim.Snapshot.nearest snaps ~ordinal:14));
  Alcotest.(check int) "nearest clamps" (total / stride * stride)
    (Sim.Interp.snapshot_ordinal (Sim.Snapshot.nearest snaps ~ordinal:max_int));
  Alcotest.check_raises "stride must be positive"
    (Invalid_argument "Snapshot.build: stride must be positive") (fun () ->
      ignore (snapshots 0))

let test_auto_stride_bounds () =
  (* Small pool, small image: one ordinal per checkpoint. *)
  Alcotest.(check int) "tiny" 1
    (Sim.Snapshot.auto_stride ~injectable_total:10 ~image_bytes:100);
  (* 64-checkpoint cap: stride = ceil(total / 64). *)
  Alcotest.(check int) "dense" (1_000_000 / 64)
    (Sim.Snapshot.auto_stride ~injectable_total:1_000_000 ~image_bytes:100);
  (* Memory budget backs off the checkpoint count: a 32 MiB image keeps
     only 2 checkpoints. *)
  Alcotest.(check int) "huge image" 500_000
    (Sim.Snapshot.auto_stride ~injectable_total:1_000_000
       ~image_bytes:(32 * 1024 * 1024));
  Alcotest.(check bool) "never zero" true
    (Sim.Snapshot.auto_stride ~injectable_total:0 ~image_bytes:0 >= 1)

(* ------------------------------------------------------------------ *)
(* Directed edge cases.                                                *)

let test_fault_at_ordinal_zero () =
  check_equiv ~stride:4 "ordinal 0" [ (0, 3) ]

let test_fault_past_last_checkpoint () =
  let _, _, _, baseline = Lazy.force fixture in
  let total = baseline.Sim.Interp.injectable_seen in
  let stride = 7 in
  let plan = [ (total - 1, 5) ] in
  check_equiv ~stride "last ordinal" plan;
  (* And confirm that trial really fast-forwarded past a prefix. *)
  let _, snap = run_resumed (snapshots stride) plan in
  Alcotest.(check int) "resumed from last checkpoint" (total / stride * stride)
    (Sim.Interp.snapshot_ordinal snap);
  Alcotest.(check bool) "skipped a prefix" true
    (Sim.Interp.snapshot_dyn snap > 0)

let test_empty_plan () = check_equiv ~stride:3 "empty plan" []

(* Scan for a single-fault plan that crashes (flipping gcd's exit
   condition when [b] has reached 0 sends the loop into [a % 0]), then
   check the crash — outcome, dynamic count and trap site — reproduces
   identically from a checkpoint resume in the suffix. *)
let test_crash_in_resumed_suffix () =
  let _, _, _, baseline = Lazy.force fixture in
  let total = baseline.Sim.Interp.injectable_seen in
  let stride = 3 in
  let crash =
    let rec scan ord bit =
      if ord >= total then None
      else if bit > 31 then scan (ord + 1) 0
      else
        let r = run_scratch [ (ord, bit) ] in
        match r.Sim.Interp.outcome with
        | Sim.Interp.Trapped _ when ord >= stride -> Some (ord, bit)
        | _ -> scan ord (bit + 1)
    in
    scan stride 0
  in
  match crash with
  | None -> Alcotest.fail "no crashing single fault found past first stride"
  | Some (ord, bit) ->
    let _, snap = run_resumed (snapshots stride) [ (ord, bit) ] in
    Alcotest.(check bool) "crash is in a resumed suffix" true
      (Sim.Interp.snapshot_ordinal snap > 0);
    check_equiv ~stride
      (Printf.sprintf "crash at ordinal %d bit %d" ord bit)
      [ (ord, bit) ]

(* ------------------------------------------------------------------ *)
(* Properties: random plans, strides, jobs.                            *)

let resume_equals_scratch =
  QCheck.Test.make ~name:"checkpoint-resume == from-scratch (random plans)"
    ~count:150
    QCheck.(triple (int_bound 100_000) (int_range 1 20) (int_range 1 25))
    (fun (seed, errors, stride) ->
      let _, _, _, baseline = Lazy.force fixture in
      let total = baseline.Sim.Interp.injectable_seen in
      let rng = Random.State.make [| seed; errors; stride |] in
      let plan =
        Hashtbl.fold
          (fun o b acc -> (o, b) :: acc)
          (Core.Fault_model.make_plan ~rng ~injectable_total:total ~errors)
          []
      in
      let a = run_scratch plan in
      let b, _ = run_resumed (snapshots stride) plan in
      fingerprint a = fingerprint b)

(* Campaign level: the prepared target's stride (or disabling
   checkpointing entirely) and the jobs fan-out are both invisible in
   the per-trial records, fidelities included. *)
let campaign_stride_jobs_invariant =
  QCheck.Test.make ~name:"campaign records invariant under stride x jobs"
    ~count:12
    QCheck.(triple (int_bound 1_000) (int_range 1 8) (int_range 1 4))
    (fun (seed, stride, jobs) ->
      let prog, _, _, _ = Lazy.force fixture in
      let target = Lazy.force campaign_target in
      let score (r : Sim.Interp.result) =
        let out = Sim.Memory.read_global_ints r.Sim.Interp.memory prog "out" in
        float_of_int out.(0)
      in
      let records checkpoint_stride jobs =
        let p =
          Core.Campaign.prepare ~checkpoint_stride target
            Core.Policy.Protect_nothing
        in
        let s = Core.Campaign.run ~jobs ~score p ~errors:2 ~trials:9 ~seed in
        List.map
          (fun (t : Core.Campaign.trial) ->
            Printf.sprintf "%d/%s/%d/%d/%d/%s" t.Core.Campaign.index
              (Core.Outcome.describe t.Core.Campaign.outcome)
              t.Core.Campaign.dyn_count t.Core.Campaign.faults_planned
              t.Core.Campaign.faults_landed
              (match t.Core.Campaign.fidelity with
               | None -> "-"
               | Some f -> Printf.sprintf "%h" f))
          s.Core.Campaign.trials
      in
      records 0 1 = records stride jobs)

(* ------------------------------------------------------------------ *)
(* Campaign plumbing.                                                  *)

let test_prepare_snapshot_modes () =
  let target = Lazy.force campaign_target in
  let p_off =
    Core.Campaign.prepare ~checkpoint_stride:0 target Core.Policy.Protect_nothing
  in
  Alcotest.(check bool) "stride 0 disables" true
    (p_off.Core.Campaign.snapshots = None);
  let p_on = Core.Campaign.prepare target Core.Policy.Protect_nothing in
  Alcotest.(check bool) "default stride checkpoints" true
    (p_on.Core.Campaign.snapshots <> None);
  Alcotest.check_raises "negative stride"
    (Invalid_argument "Campaign.prepare: negative checkpoint stride") (fun () ->
      ignore
        (Core.Campaign.prepare ~checkpoint_stride:(-1) target
           Core.Policy.Protect_nothing))

let test_summary_resume_counters () =
  let target = Lazy.force campaign_target in
  let run p = Core.Campaign.run ~jobs:1 p ~errors:1 ~trials:16 ~seed:3 in
  let off =
    run
      (Core.Campaign.prepare ~checkpoint_stride:0 target
         Core.Policy.Protect_nothing)
  in
  Alcotest.(check int) "scratch: no resumes" 0 off.Core.Campaign.resumed_trials;
  Alcotest.(check int) "scratch: no skips" 0 off.Core.Campaign.skipped_dyn;
  let on =
    run
      (Core.Campaign.prepare ~checkpoint_stride:1 target
         Core.Policy.Protect_nothing)
  in
  Alcotest.(check bool) "stride 1: some trials fast-forward" true
    (on.Core.Campaign.resumed_trials > 0);
  Alcotest.(check bool) "stride 1: work skipped" true
    (on.Core.Campaign.skipped_dyn > 0);
  Alcotest.(check bool) "hits bounded by trials" true
    (on.Core.Campaign.resumed_trials <= 16);
  let taint =
    Core.Campaign.run ~jobs:1 ~taint:true
      (Core.Campaign.prepare ~checkpoint_stride:1 target
         Core.Policy.Protect_nothing)
      ~errors:1 ~trials:16 ~seed:3
  in
  Alcotest.(check bool) "taint trials fast-forward too" true
    (taint.Core.Campaign.resumed_trials > 0)

(* ------------------------------------------------------------------ *)
(* Chained checkpoint storage.                                         *)

(* A memory-level chain over adversarial cell histories: kind flips,
   stale halves, signed zeros and NaN payloads all count as changes,
   so every thawed link digests like the image it froze. *)
let freeze_thaw_chain =
  let special =
    [| 0.0; -0.0; Float.nan; Int64.float_of_bits 0x7ff0000000000001L; 1.5 |]
  in
  QCheck.Test.make ~name:"freeze chain thaws to every frozen image"
    ~count:200
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (triple bool (int_range 1 7) small_nat))
    (fun steps ->
      let mem = Sim.Memory.create ~cells:8 () in
      let root = Sim.Memory.freeze mem in
      let running = Sim.Memory.thaw root in
      let _, ok =
        List.fold_left
          (fun (prev, ok) (flt, cell, x) ->
            let addr = 4 * cell in
            if flt then
              Sim.Memory.store_flt mem addr special.(x mod Array.length special)
            else Sim.Memory.store_int mem addr (x land 3);
            let f = Sim.Memory.freeze ~prev:(prev, running) mem in
            let d = Sim.Memory.digest mem in
            ( f,
              ok
              && d = Sim.Memory.digest (Sim.Memory.thaw f)
              && d = Sim.Memory.digest running ))
          (root, true) steps
      in
      ok)

(* Every checkpoint [Snapshot.build] chains onto its predecessor
   digests, and restores a memory image, exactly like a full capture
   taken at the same ordinal in an independent pass (the chained build
   on the fast engine, the full captures on the reference loop). *)
let chained_equals_full =
  QCheck.Test.make
    ~name:"chained checkpoints == full captures (random programs)" ~count:40
    QCheck.(pair (int_bound 10_000) (oneofl [ 1; 3; 5 ]))
    (fun (seed, stride) ->
      let code =
        Sim.Code.of_prog (Mlang.Compile.to_ir (Rand_prog.gen_prog seed))
      in
      let tagging = Core.Tagging.compute code.Sim.Code.prog in
      let tags = Core.Tagging.mask tagging Core.Policy.Protect_nothing in
      let image = Sim.Interp.compile ~tags code in
      let snaps =
        Sim.Snapshot.build ~stride ~tags ~image
          ~memory:(lenient code.Sim.Code.prog) code
      in
      let m =
        Sim.Interp.machine
          ~injection:(Sim.Interp.injection ~tags ~plan:[])
          ~memory:(lenient code.Sim.Code.prog) code
      in
      let key s =
        ( Sim.Interp.snapshot_digest ~fid_key:string_of_int s,
          Sim.Memory.digest (Sim.Interp.snapshot_memory s) )
      in
      List.for_all
        (fun k ->
          let ordinal = k * stride in
          Sim.Interp.advance m ~pause_at:ordinal = `Paused
          && key (Sim.Snapshot.nearest snaps ~ordinal)
             = key (Sim.Interp.capture m))
        (List.init (Sim.Snapshot.count snaps) Fun.id))

(* The point of chaining: on mpeg (full mode, protect-control) the
   built sequence holds less than half the heap of the same
   checkpoints captured as full images. *)
let test_chain_smaller_than_full () =
  let built = Apps.Mpeg.app.Apps.App.build ~seed:1 in
  let target =
    Core.Campaign.of_prog ~protect_addresses:true built.Apps.App.prog
  in
  let p = Core.Campaign.prepare target Core.Policy.Protect_control in
  let snaps = Option.get p.Core.Campaign.snapshots in
  let stride = Sim.Snapshot.stride snaps in
  let m =
    Sim.Interp.machine ?image:p.Core.Campaign.image
      ~injection:(Sim.Interp.injection ~tags:p.Core.Campaign.tags ~plan:[])
      ~budget:p.Core.Campaign.budget
      ~memory:(Sim.Memory.copy target.Core.Campaign.proto)
      target.Core.Campaign.code
  in
  let full =
    Array.init (Sim.Snapshot.count snaps) (fun k ->
        ignore (Sim.Interp.advance m ~pause_at:(k * stride));
        Sim.Interp.capture m)
  in
  Alcotest.(check bool) "many checkpoints" true (Array.length full > 8);
  let chained = Obj.reachable_words (Obj.repr snaps)
  and copies = Obj.reachable_words (Obj.repr full) in
  if 2 * chained >= copies then
    Alcotest.failf "chained %d words, full captures %d words" chained copies

(* ------------------------------------------------------------------ *)
(* Cache-key stability.                                                *)

(* gsm (seed 1, full mode, protect-control) as the campaign cache sees
   it: the prototype image and the middle golden checkpoint. Both
   digests feed `--cache-dir` keys, so a change to how images or
   checkpoints are stored must leave them unchanged or every existing
   store silently misses. *)
let gsm_prepared =
  lazy
    (let built = Apps.Gsm.app.Apps.App.build ~seed:1 in
     let target =
       Core.Campaign.of_prog ~protect_addresses:true built.Apps.App.prog
     in
     Core.Campaign.prepare target Core.Policy.Protect_control)


(* The counted golden pass on the fast engine stands for the reference
   engine's counted run: equal execution counts, dynamic count, pools
   and final image on every app, at two seeds. *)
let test_fast_counted_baseline () =
  List.iter
    (fun seed ->
      List.iter
        (fun (app : Apps.App.t) ->
          let prog = (app.Apps.App.build ~seed).Apps.App.prog in
          let fast = Core.Campaign.of_prog prog in
          let slow =
            {
              fast with
              Core.Campaign.baseline =
                Sim.Interp.run_exn ~count_exec:true fast.Core.Campaign.code;
            }
          in
          let what = Printf.sprintf "%s seed %d" app.Apps.App.name seed in
          let fb = fast.Core.Campaign.baseline
          and sb = slow.Core.Campaign.baseline in
          Alcotest.(check bool) (what ^ " exec counts") true
            (fb.Sim.Interp.exec_counts = sb.Sim.Interp.exec_counts);
          Alcotest.(check int) (what ^ " dyn count") sb.Sim.Interp.dyn_count
            fb.Sim.Interp.dyn_count;
          Alcotest.(check int) (what ^ " injectable seen")
            sb.Sim.Interp.injectable_seen fb.Sim.Interp.injectable_seen;
          Alcotest.(check string) (what ^ " final image")
            (Sim.Memory.digest sb.Sim.Interp.memory)
            fast.Core.Campaign.baseline_digest;
          List.iter
            (fun protect_addresses ->
              let tagging = Core.Tagging.compute ~protect_addresses prog in
              List.iter
                (fun policy ->
                  let tags = Core.Tagging.mask tagging policy in
                  Alcotest.(check int)
                    (what ^ " pool " ^ Core.Policy.to_string policy)
                    (Core.Campaign.injectable_pool slow tags)
                    (Core.Campaign.injectable_pool fast tags))
                Core.Policy.all)
            [ true; false ])
        Apps.Registry.all)
    [ 1; 7 ]

(* A tiny image and a long run: the pass holds thousands of
   provisional checkpoints' worth of ordinals, so it thins its sequence
   over and over. A call per iteration keeps call-return write-backs
   pending at many pauses. *)
let long_run_mlang =
  let open Mlang.Dsl in
  program
    [ garray "out" 2 ]
    [
      fn "step" [ p_int "a"; p_int "k" ] ~ret:(Some Mlang.Ast.TInt)
        [ ret (((v "a" *! i 3) +! v "k") %! i 1000003) ];
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "acc" (i 1);
          for_ "k" (i 0) (i 20000)
            [
              set "acc" (call "step" [ v "acc"; v "k" ]);
              when_ (v "acc" %! i 7 ==! i 0) [ sto "out" (i 0) (v "acc") ];
            ];
          sto "out" (i 1) (v "acc");
          ret (v "acc" %! i 256);
        ];
    ]

(* Every chain [Experiment.load] derives equals the chain the golden
   pass builds, checkpoint for checkpoint, under both control masks and
   protect-nothing: on every app — mcf (large image, short run) derives
   from a handful of provisional checkpoints, susan (small image, long
   run) from a couple of hundred — and on [long_run_mlang]. *)
let check_derived name prog =
  let tagging protect_addresses =
    Core.Tagging.compute ~protect_addresses prog
  in
  let targets, chains =
    Core.Campaign.of_taggings [ tagging true; tagging false ] prog
  in
  let full = List.nth targets 0 and literal = List.nth targets 1 in
  List.iter
    (fun (label, t, policy) ->
      let what = Printf.sprintf "%s %s" name label in
      let snaps p = Option.get p.Core.Campaign.snapshots in
      let derived = snaps (Core.Campaign.prepare ~chains t policy)
      and built = snaps (Core.Campaign.prepare t policy) in
      Alcotest.(check int) (what ^ " stride") (Sim.Snapshot.stride built)
        (Sim.Snapshot.stride derived);
      Alcotest.(check int) (what ^ " count") (Sim.Snapshot.count built)
        (Sim.Snapshot.count derived);
      for k = 0 to Sim.Snapshot.count built - 1 do
        let at c = Sim.Snapshot.nearest c ~ordinal:(k * Sim.Snapshot.stride c) in
        let key s =
          ( Sim.Interp.snapshot_ordinal s,
            Sim.Interp.snapshot_dyn s,
            Sim.Interp.snapshot_digest ~fid_key:string_of_int s )
        in
        Alcotest.(check (triple int int string))
          (Printf.sprintf "%s checkpoint %d" what k)
          (key (at built)) (key (at derived))
      done)
    [
      ("full/control", full, Core.Policy.Protect_control);
      ("literal/control", literal, Core.Policy.Protect_control);
      ("nothing", full, Core.Policy.Protect_nothing);
    ]

let test_derived_chains () =
  List.iter
    (fun (app : Apps.App.t) ->
      check_derived app.Apps.App.name (app.Apps.App.build ~seed:1).Apps.App.prog)
    Apps.Registry.all;
  check_derived "long run" (Mlang.Compile.to_ir long_run_mlang)

(* Thawing into a working image: every checkpoint of a gsm chain,
   frozen as a delta chain, thaws into a dirtied image — from its root,
   or stepped from its predecessor — with the digest [thaw] gives; two
   joined deltas thaw like the later one; and a resume into a reused
   image runs like one into a fresh image. *)
let test_thaw_into () =
  let p = Lazy.force gsm_prepared in
  let snaps = Option.get p.Core.Campaign.snapshots in
  let stride = Sim.Snapshot.stride snaps in
  let images =
    Array.init (Sim.Snapshot.count snaps) (fun k ->
        Sim.Interp.snapshot_memory (Sim.Snapshot.nearest snaps ~ordinal:(k * stride)))
  in
  let running = Sim.Memory.copy images.(0) in
  let frozen = Array.make (Array.length images) (Sim.Memory.freeze images.(0)) in
  for k = 1 to Array.length images - 1 do
    frozen.(k) <- Sim.Memory.freeze ~prev:(frozen.(k - 1), running) images.(k)
  done;
  let dirty () =
    let m = Sim.Memory.copy p.Core.Campaign.target.Core.Campaign.proto in
    for c = 1 to (Sim.Memory.size_bytes m / 4) - 1 do
      if c mod 7 = 0 then Sim.Memory.store_int m (4 * c) (c * 31)
    done;
    m
  in
  let stepped = dirty () in
  Array.iteri
    (fun k f ->
      let want = Sim.Memory.digest (Sim.Memory.thaw f) in
      Alcotest.(check string) (Printf.sprintf "checkpoint %d" k)
        (Sim.Memory.digest images.(k)) want;
      let m = dirty () in
      Sim.Memory.thaw_into f m;
      Alcotest.(check string) (Printf.sprintf "thaw_into %d" k) want
        (Sim.Memory.digest m);
      Sim.Memory.thaw_into
        ?from:(if k = 0 then None else Some frozen.(k - 1))
        f stepped;
      Alcotest.(check string) (Printf.sprintf "stepped %d" k) want
        (Sim.Memory.digest stepped))
    frozen;
  let n = Array.length frozen in
  Alcotest.(check string) "joined deltas"
    (Sim.Memory.digest images.(n - 1))
    (Sim.Memory.digest
       (Sim.Memory.thaw
          (Sim.Memory.join ~parent:frozen.(n - 3) frozen.(n - 2) frozen.(n - 1))));
  let snap = Sim.Snapshot.nearest snaps ~ordinal:(n / 2 * stride) in
  let injection = Sim.Interp.injection ~tags:p.Core.Campaign.tags ~plan:[] in
  let finish memory =
    let r =
      Sim.Interp.finish
        (Sim.Interp.resume ?image:p.Core.Campaign.image ~injection ?memory snap)
    in
    (r.Sim.Interp.dyn_count, Sim.Memory.digest r.Sim.Interp.memory)
  in
  Alcotest.(check (pair int string)) "resume into a reused image"
    (finish None) (finish (Some (dirty ())))

let test_gsm_digests_pinned () =
  let p = Lazy.force gsm_prepared in
  Alcotest.(check string) "prototype image digest"
    "339f7189ccfafe4366723cfb03fea5a3"
    (Sim.Memory.digest p.Core.Campaign.target.Core.Campaign.proto);
  let snaps = Option.get p.Core.Campaign.snapshots in
  let mid = Sim.Snapshot.count snaps / 2 * Sim.Snapshot.stride snaps in
  let snap = Sim.Snapshot.nearest snaps ~ordinal:mid in
  Alcotest.(check int) "checkpoint ordinal" mid
    (Sim.Interp.snapshot_ordinal snap);
  Alcotest.(check string) "mid-run checkpoint digest"
    "31b438b088e668eaf30f982ad7f0c85c"
    (Sim.Interp.snapshot_digest ~fid_key:string_of_int snap)

(* Blowfish (seed 1, full mode): its P-array and S-boxes are the first
   1,042 words of pi's hex expansion, laid into the prototype image as
   initialised globals. The words, the prototype and the baseline's
   final image all feed `--cache-dir` keys, so a change to how the
   constants are produced must leave all three digests unchanged. *)
let test_blowfish_digests_pinned () =
  let words = Apps.Pi_digits.words 1042 in
  Alcotest.(check string) "pi words digest"
    "935dbafcdaae5d6269970c162c7fe969"
    (Digest.to_hex
       (Digest.string
          (String.concat ""
             (Array.to_list (Array.map (Printf.sprintf "%08x") words)))));
  let built = Apps.Blowfish.app.Apps.App.build ~seed:1 in
  let target =
    Core.Campaign.of_prog ~protect_addresses:true built.Apps.App.prog
  in
  Alcotest.(check string) "prototype image digest"
    "f615ff73138ea8f440a54dce44d8f5aa"
    (Sim.Memory.digest target.Core.Campaign.proto);
  Alcotest.(check string) "baseline digest"
    "a2205c3e9df8ff080f96408da52e477c"
    target.Core.Campaign.baseline_digest

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "snapshot"
    [
      ( "machine",
        [
          Alcotest.test_case "pause points and tails" `Quick test_pause_points;
          Alcotest.test_case "capture/resume guards" `Quick test_capture_guards;
          Alcotest.test_case "snapshot build shape" `Quick
            test_snapshot_build_shape;
          Alcotest.test_case "auto stride bounds" `Quick test_auto_stride_bounds;
        ] );
      ( "edges",
        [
          Alcotest.test_case "fault at ordinal 0" `Quick
            test_fault_at_ordinal_zero;
          Alcotest.test_case "fault past last checkpoint" `Quick
            test_fault_past_last_checkpoint;
          Alcotest.test_case "empty plan" `Quick test_empty_plan;
          Alcotest.test_case "crash in resumed suffix" `Quick
            test_crash_in_resumed_suffix;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest resume_equals_scratch;
          QCheck_alcotest.to_alcotest campaign_stride_jobs_invariant;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "prepare snapshot modes" `Quick
            test_prepare_snapshot_modes;
          Alcotest.test_case "summary resume counters" `Quick
            test_summary_resume_counters;
        ] );
      ( "chain",
        [
          QCheck_alcotest.to_alcotest freeze_thaw_chain;
          QCheck_alcotest.to_alcotest chained_equals_full;
          Alcotest.test_case "chain smaller than full copies" `Quick
            test_chain_smaller_than_full;
        ] );
      ( "one pass",
        [
          Alcotest.test_case "fast counted baseline == reference" `Quick
            test_fast_counted_baseline;
          Alcotest.test_case "derived chains == built chains" `Quick
            test_derived_chains;
          Alcotest.test_case "thaw into a working image" `Quick test_thaw_into;
        ] );
      ( "cache keys",
        [
          Alcotest.test_case "gsm digests pinned" `Quick
            test_gsm_digests_pinned;
          Alcotest.test_case "blowfish digests pinned" `Quick
            test_blowfish_digests_pinned;
        ] );
    ]
