(* Fault-injection campaigns: the experimental loop of the paper.

   A [target] bundles a compiled program with its tagging analysis and
   a fault-free baseline run per policy. Each trial draws a fresh plan
   (deterministically from [seed] and the trial number), executes, and
   classifies the outcome. "Infinite execution" is a dynamic count
   above [timeout_factor] x the fault-free count.

   Trials are scored at the source: the optional [score] callback is
   applied to the raw simulator result inside the trial, and only the
   resulting [fidelity : float option] is retained. A summary therefore
   never holds a live [Memory.t] — campaign memory is O(1) per trial
   instead of O(memory image), and nothing heavy crosses domains in
   [Pool.map_n]. Callers that need more of a trial than its record —
   its final memory image, its landed-fault sites — use the
   {!run_trial_result} escape hatch, which returns the raw
   [Sim.Interp.result] for one trial. *)

type target = {
  code : Sim.Code.t;
  tagging : Tagging.t;
  baseline : Sim.Interp.result;  (* fault-free reference run *)
  lenient : bool;                (* sim-safe sparse-memory model *)
  proto : Sim.Memory.t;
      (* prototype trial image: globals laid out once; per-trial
         memories are blit-copies of this, never rebuilt from the
         globals list *)
  engine : Sim.Interp.engine;
      (* which interpreter executes trials; the fast engine compiles a
         per-policy closure image at [prepare] time *)
  baseline_digest : string;
      (* content digest of the baseline's final memory image, computed
         once here: cache keys (lib/core/memo) fold it into every group
         key, and a sweep evaluates many keys per target *)
}

type prepared = {
  target : target;
  policy : Policy.t;
  tags : bool array array;
  injectable_total : int;  (* dynamic injectable instructions under policy *)
  budget : int;
  snapshots : Sim.Snapshot.t option;
      (* golden checkpoints for fork-from-prefix trials; [None] when
         checkpointing is disabled ([~checkpoint_stride:0]) *)
  image : Sim.Interp.image option;
      (* threaded-closure compilation of (code, tags) for the fast
         engine; [None] iff the target runs the reference engine. Its
         taint flavour is compiled by the first taint trial and kept on
         it (Sim.Interp.taint_image). *)
}

type trial = {
  index : int;
  outcome : Outcome.t;
  dyn_count : int;
  faults_planned : int;
      (* the plan's actual size: the request capped at the injectable
         pool ([Fault_model.planned]), not the raw [errors] argument *)
  faults_landed : int;
  fidelity : float option;
      (* [Some] iff the trial completed and a scorer was supplied *)
  fault_flow : Sim.Taint.summary option;
      (* [Some] iff the trial ran with taint on *)
}

type summary = {
  trials : trial list;
  stats : Stats.t;
  errors_requested : int;  (* the [errors] argument *)
  errors_planned : int;    (* per-trial plan size after the pool cap *)
  resumed_trials : int;
      (* trials that fast-forwarded past a non-empty prefix by
         restoring a checkpoint *)
  skipped_dyn : int;
      (* dynamic instructions those restores avoided re-executing *)
}

let timeout_factor = 10

(* The targets of one program under several taggings, sharing its
   code, baseline, prototype and digest. The baseline is the counted
   golden pass ([Sim.Snapshot.golden]) on the fast engine whatever the
   trial engine: it equals the reference engine's counted run field
   for field, at about half the cost. Trials run lenient: the paper ran
   on SimpleScalar sim-safe, whose sparse memory does not fault wild
   accesses. *)
let targets ?(engine = Sim.Interp.Fast) ~masks taggings (prog : Ir.Prog.t) =
  let code = Sim.Code.of_prog prog in
  let baseline, golden = Sim.Snapshot.golden ~masks code in
  let proto = Sim.Memory.of_prog ~lenient:true prog in
  let baseline_digest = Sim.Memory.digest baseline.Sim.Interp.memory in
  ( List.map
      (fun tagging ->
        { code; tagging; baseline; lenient = true; proto; engine; baseline_digest })
      taggings,
    golden )

let of_prog ?protect_addresses ?engine (prog : Ir.Prog.t) =
  let tagging = Tagging.compute ?protect_addresses prog in
  List.hd (fst (targets ?engine ~masks:[] [ tagging ] prog))

(* The injectable pool needs no profiling interpretation: the baseline
   already counted every dynamic execution, and the fault hook fires
   exactly once per execution of a tagged (value-producing)
   instruction — including call-return write-backs, which are counted
   at the DCall's own body slot. So the pool is the sum of the
   baseline's exec counts over tagged slots. (The fault-free baseline
   runs strict and trials run lenient, but a fault-free run never
   leaves the image, so the counts coincide; test_core pins this
   arithmetic against an actual profiled run.) *)
let injectable_pool (t : target) (tags : bool array array) =
  let counts = t.baseline.Sim.Interp.exec_counts in
  let total = ref 0 in
  Array.iteri
    (fun fid row ->
      let cr = counts.(fid) in
      Array.iteri (fun pc tagged -> if tagged then total := !total + cr.(pc)) row)
    tags;
  !total

let auto_stride (t : target) tags =
  Sim.Snapshot.auto_stride
    ~injectable_total:(injectable_pool t tags)
    ~image_bytes:(Sim.Memory.size_bytes t.proto)

(* A golden chain derived for one tag mask. *)
type chain = { c_tags : bool array array; c_snaps : Sim.Snapshot.t }

type chains = chain list

(* One counted golden pass for every distinct mask the taggings'
   control and nothing policies give (protect-all is never derived: its
   pool is empty wherever it is prepared), then each mask's
   auto-stride chain derived from the pass's provisional checkpoints,
   which are dropped on return. *)
let of_taggings taggings prog =
  let masks =
    List.fold_left
      (fun acc tagging ->
        List.fold_left
          (fun acc policy ->
            let m = Tagging.mask tagging policy in
            if List.mem m acc then acc else acc @ [ m ])
          acc
          [ Policy.Protect_control; Policy.Protect_nothing ])
      [] taggings
  in
  let targets, golden = targets ~masks taggings prog in
  let t = List.hd targets in
  let budget = timeout_factor * t.baseline.Sim.Interp.dyn_count in
  ( targets,
    List.map
      (fun tags ->
        {
          c_tags = tags;
          c_snaps =
            Sim.Snapshot.derive ~stride:(auto_stride t tags) ~tags
              ~image:(Sim.Interp.compile ~tags t.code)
              ~budget golden;
        })
      masks )

let prepare ?checkpoint_stride ?(chains = []) (t : target) (policy : Policy.t) =
  let t0 = Obs.span_begin () in
  let tags = Tagging.mask t.tagging policy in
  (* A chain derived for this mask stands for the auto-stride golden
     pass below, checkpoint for checkpoint. *)
  let derived =
    match checkpoint_stride with
    | None -> List.find_opt (fun c -> c.c_tags = tags) chains
    | Some _ -> None
  in
  let tags = match derived with Some c -> c.c_tags | None -> tags in
  let injectable_total = injectable_pool t tags in
  let budget = timeout_factor * t.baseline.Sim.Interp.dyn_count in
  (* Fast engine: compile the (code, tags) pair once per prepared
     policy; every trial and the checkpointing pass below reuse the
     closure image. *)
  let image =
    match t.engine with
    | Sim.Interp.Fast -> Some (Sim.Interp.compile ~tags t.code)
    | Sim.Interp.Ref -> None
  in
  (* Golden checkpointing pass: one fault-free interpretation under the
     policy's tag mask, recording a snapshot every [stride] injectable
     ordinals. Every trial of this prepared target fast-forwards from
     it. *)
  let snapshots =
    match (derived, checkpoint_stride) with
    | Some c, _ ->
      Sim.Snapshot.claim c.c_snaps;
      Some c.c_snaps
    | None, Some 0 -> None  (* checkpointing off: trials run from scratch *)
    | None, Some s when s < 0 ->
      invalid_arg "Campaign.prepare: negative checkpoint stride"
    | None, stride ->
      let stride = Option.value stride ~default:(auto_stride t tags) in
      Some
        (Sim.Snapshot.build ~stride ~tags ?image ~budget
           ~memory:(Sim.Memory.copy t.proto) t.code)
  in
  if Obs.enabled () then begin
    Obs.count "campaign.prepares" 1;
    Obs.span_end ~name:"prepare" ~cat:"campaign"
      ~args:
        [
          ("policy", Policy.to_string policy);
          ("injectable_total", string_of_int injectable_total);
        ]
      t0
  end;
  { target = t; policy; tags; injectable_total; budget; snapshots; image }

(* One trial's raw simulator result, plus the dynamic instructions a
   checkpoint restore let it skip (0 when it ran from scratch). Taint
   trials run the taint flavour of the prepared image, compiled by the
   first of them and kept on the image, so a target that never runs a
   taint trial never compiles it; on a reference-engine target they run
   the reference loop. They resume from the same engine-independent
   checkpoints as every other trial. *)
let run_trial_raw ?(taint = false) (p : prepared) ~errors ~rng :
    Sim.Interp.result * int =
  let plan =
    Fault_model.make_plan ~rng ~injectable_total:p.injectable_total ~errors
  in
  let injection = Fault_model.injection ~tags:p.tags ~plan in
  let image =
    if taint then Option.map Sim.Interp.taint_image p.image else p.image
  in
  match p.snapshots with
  | Some snaps ->
    (* Fast-forward: restore the nearest checkpoint at or before the
       trial's first planned ordinal. The prefix up to that ordinal is
       fault-free and identical in every trial, so the result is
       bit-exact versus from-scratch execution. An empty plan resolves
       to the last checkpoint and replays only the tail. *)
    let first = Hashtbl.fold (fun o _ acc -> min o acc) plan max_int in
    let snap = Sim.Snapshot.nearest snaps ~ordinal:first in
    let m = Sim.Interp.resume ?image ~injection ~taint snap in
    let skipped = Sim.Interp.snapshot_dyn snap in
    if Obs.enabled () then begin
      (* snapshot.* telemetry is stride-dependent by nature (how much
         prefix a restore skips depends on checkpoint spacing); only
         campaign.* and sim.* counters are stride-invariant. *)
      if skipped > 0 then begin
        Obs.count "snapshot.hit" 1;
        Obs.count "snapshot.skipped_dyn" skipped
      end
      else Obs.count "snapshot.miss" 1
    end;
    (Sim.Interp.finish m, skipped)
  | None ->
    if Obs.enabled () then Obs.count "snapshot.miss" 1;
    ( Sim.Interp.run ?image ~injection ~budget:p.budget ~taint
        ~memory:(Sim.Memory.copy p.target.proto) p.target.code,
      0 )

(* Per-trial telemetry: counters keyed only on what the trial computed
   (outcome class, landed faults) — never on which domain or stripe ran
   it — so totals are identical for any [--jobs]; the wall-clock lives
   only in the span and the latency histogram. *)
let obs_trial ~index ~(r : Sim.Interp.result) ~resumed t0 =
  let cls =
    match Outcome.of_result r with
    | Outcome.Crash _ -> "crash"
    | Outcome.Infinite -> "infinite"
    | Outcome.Completed -> "completed"
  in
  Obs.count "campaign.trials" 1;
  Obs.count ("campaign.trials." ^ cls) 1;
  let landed = r.Sim.Interp.faults_landed in
  if landed > 0 then Obs.count "campaign.faults_landed" landed;
  Obs.observe "campaign.trial_us" (Obs.elapsed_us t0);
  Obs.span_end ~name:"trial" ~cat:"campaign"
    ~args:
      (("index", string_of_int index)
       :: ("outcome", cls)
       :: (if resumed then [ ("resumed", "1") ] else []))
    t0

(* Trial [index]'s raw result and the dynamic instructions a checkpoint
   restore let it skip, with the trial's telemetry recorded. *)
let run_trial_observed ?taint (p : prepared) ~errors ~rng ~index =
  let t0 = Obs.span_begin () in
  let r, skipped = run_trial_raw ?taint p ~errors ~rng in
  if Obs.enabled () then obs_trial ~index ~r ~resumed:(skipped > 0) t0;
  (r, skipped)

(* Escape hatch: the raw simulator result of one trial, memory image
   included. Everything else should go through {!run_trial}/{!run},
   which discard the image after scoring. *)
let run_trial_result ?taint (p : prepared) ~errors ~rng ~index :
    Sim.Interp.result =
  fst (run_trial_observed ?taint p ~errors ~rng ~index)

let run_trial_skip ?score ?taint (p : prepared) ~errors ~rng ~index :
    trial * int =
  let r, skipped = run_trial_observed ?taint p ~errors ~rng ~index in
  let outcome = Outcome.of_result r in
  let fidelity =
    match (outcome, score) with
    | Outcome.Completed, Some score -> Some (score r)
    | _ -> None
  in
  ( {
      index;
      outcome;
      dyn_count = r.Sim.Interp.dyn_count;
      faults_planned =
        Fault_model.planned ~injectable_total:p.injectable_total ~errors;
      faults_landed = r.Sim.Interp.faults_landed;
      fidelity;
      fault_flow = r.Sim.Interp.fault_flow;
    },
    skipped )

let run_trial ?score ?taint (p : prepared) ~errors ~rng ~index : trial =
  fst (run_trial_skip ?score ?taint p ~errors ~rng ~index)

(* Trial [i]'s RNG depends only on [(seed, i, errors, policy)] — not on
   any other trial — so trials may run in any order, on any domain, and
   still produce bit-exact results. [Policy.seed_tag] replaces the old
   [Hashtbl.hash policy] component with a stable explicit encoding
   (frozen to the same values, so historic outputs are unchanged). *)
let trial_rng ~seed ~errors ~policy index =
  Random.State.make [| seed; index; errors; Policy.seed_tag policy |]

(* The one summary fold. [results] holds each trial with the dynamic
   instructions a checkpoint restore let it skip, in trial-index order;
   a trial that ran nothing in this call (a cache hit) carries 0. *)
let summary_of ~injectable_total ~errors (results : (trial * int) list) :
    summary =
  let observe acc (t, _) =
    let flow =
      Option.map (fun (s : Sim.Taint.summary) -> s.Sim.Taint.flow) t.fault_flow
    in
    Stats.observe ?flow acc t.outcome ~fidelity:t.fidelity
  in
  {
    trials = List.map fst results;
    stats = List.fold_left observe Stats.empty results;
    errors_requested = errors;
    errors_planned = Fault_model.planned ~injectable_total ~errors;
    resumed_trials =
      List.fold_left (fun n (_, sk) -> if sk > 0 then n + 1 else n) 0 results;
    skipped_dyn = List.fold_left (fun n (_, sk) -> n + sk) 0 results;
  }

let run ?jobs ?score ?taint (p : prepared) ~errors ~trials ~seed : summary =
  Pool.map_n ?jobs trials (fun i ->
      let rng = trial_rng ~seed ~errors ~policy:p.policy i in
      run_trial_skip ?score ?taint p ~errors ~rng ~index:i)
  |> Array.to_list
  |> summary_of ~injectable_total:p.injectable_total ~errors

(* True when the pool was too small for the request, so each plan holds
   fewer faults than asked — surfaced by the CLI next to the summary. *)
let errors_capped (s : summary) = s.errors_planned < s.errors_requested

let n (s : summary) = s.stats.Stats.n
let crashes (s : summary) = s.stats.Stats.crashes
let infinite (s : summary) = s.stats.Stats.infinite
let completed (s : summary) = s.stats.Stats.completed
let pct_catastrophic (s : summary) = Stats.pct_catastrophic s.stats
let mean_fidelity (s : summary) = Stats.mean_fidelity s.stats

(* Fidelities of the scored completed trials, in trial order. *)
let fidelities (s : summary) = List.filter_map (fun t -> t.fidelity) s.trials
