(* The traced twin of [Harness.Experiment.load]: the same public calls
   (app build, [Core.Tagging.compute], the counted baseline run,
   [Sim.Interp.compile], [Sim.Snapshot.build]) made one at a time, each
   timed as a leaf of its layer, with the app's scorer wrapped so every
   fidelity call is timed too. Targets and prepared configurations are
   built eagerly for the [(mode, policy)] pairs the workload needs.

   Nothing here changes a result: the traced workloads check that the
   trial records they produce equal the untraced run's. *)

open Harness

let of_prog ~mode (prog : Ir.Prog.t) : Core.Campaign.target =
  let code = Ledger.leaf "campaign.of_prog" (fun () -> Sim.Code.of_prog prog) in
  let tagging =
    Ledger.leaf "tagging" (fun () ->
        Core.Tagging.compute ~protect_addresses:(mode = Experiment.Full) prog)
  in
  Ledger.leaf "campaign.of_prog" (fun () ->
      let baseline = Sim.Interp.run_exn ~count_exec:true code in
      let proto = Sim.Memory.of_prog ~lenient:true prog in
      {
        Core.Campaign.code;
        tagging;
        baseline;
        lenient = true;
        proto;
        engine = Sim.Interp.Fast;
        baseline_digest = Sim.Memory.digest baseline.Sim.Interp.memory;
      })

let prepare (t : Core.Campaign.target) policy : Core.Campaign.prepared =
  let tags, injectable_total, budget, image =
    Ledger.leaf "campaign.prepare" (fun () ->
        let tags = Core.Tagging.mask t.Core.Campaign.tagging policy in
        ( tags,
          Core.Campaign.injectable_pool t tags,
          Core.Campaign.timeout_factor
          * t.Core.Campaign.baseline.Sim.Interp.dyn_count,
          Some (Sim.Interp.compile ~tags t.Core.Campaign.code) ))
  in
  let snapshots =
    Ledger.leaf "snapshot" (fun () ->
        let stride =
          Sim.Snapshot.auto_stride ~injectable_total
            ~image_bytes:(Sim.Memory.size_bytes t.Core.Campaign.proto)
        in
        Some
          (Sim.Snapshot.build ~stride ~tags ?image ~budget
             ~memory:(Sim.Memory.copy t.Core.Campaign.proto)
             t.Core.Campaign.code))
  in
  { Core.Campaign.target = t; policy; tags; injectable_total; budget; snapshots; image }

let scored = Atomic.make 0

let wrap_score (b : Apps.App.built) : Apps.App.built =
  {
    b with
    Apps.App.score =
      (fun ~golden r ->
        Atomic.incr scored;
        Ledger.leaf "fidelity" (fun () -> b.Apps.App.score ~golden r));
  }

(* [combos name]: the (mode, policy) pairs to prepare for app [name];
   with [skip_empty], pairs with an empty injectable pool are left
   unprepared, as [Harness.Matrix] leaves them. *)
let load ?(skip_empty = false) ~seed ~modes ~combos (app : Apps.App.t) :
    Experiment.loaded =
  let built = wrap_score (Ledger.leaf "apps" (fun () -> app.Apps.App.build ~seed)) in
  let modes = if List.mem Experiment.Full modes then modes else Experiment.Full :: modes in
  let targets = List.map (fun m -> (m, of_prog ~mode:m built.Apps.App.prog)) modes in
  let target m = List.assoc m targets in
  let prepared =
    List.filter_map
      (fun (m, p) ->
        let t = target m in
        if
          skip_empty
          && Core.Campaign.injectable_pool t
               (Core.Tagging.mask t.Core.Campaign.tagging p)
             = 0
        then None
        else Some ((m, p), prepare t p))
      (combos app.Apps.App.name)
  in
  {
    Experiment.app;
    built;
    golden = (target Experiment.Full).Core.Campaign.baseline;
    target;
    prepared =
      (fun m p ->
        match List.assoc_opt (m, p) prepared with
        | Some v -> v
        | None -> invalid_arg "Loader.load: configuration not prepared");
  }

let load_all ?skip_empty ~jobs ~seed ~modes ~combos apps =
  Ledger.fan_list ~jobs (load ?skip_empty ~seed ~modes ~combos) apps

(* ------------------------------------------------------------------ *)
(* Traced campaigns *)

type trial_obs = {
  trial : Core.Campaign.trial;
  skipped : int;  (* dynamic instructions a checkpoint restore skipped *)
  sim_s : float;  (* self time of the trial, scoring excluded *)
}

(* [Core.Campaign.run], one leaf per trial: the same [trial_rng] and
   [run_trial_skip], fanned out over the same pool. *)
let campaign ~jobs ?score ?(taint = false) (p : Core.Campaign.prepared)
    ~errors ~trials ~seed : trial_obs array =
  let layer = if taint then "taint" else "sim" in
  Ledger.fan ~jobs trials (fun i ->
      let rng = Core.Campaign.trial_rng ~seed ~errors ~policy:p.Core.Campaign.policy i in
      let (trial, skipped), sim_s =
        Ledger.leaf_timed layer (fun () ->
            Core.Campaign.run_trial_skip ?score ~taint p ~errors ~rng ~index:i)
      in
      { trial; skipped; sim_s })

(* The summary [Core.Campaign.run] would have returned. *)
let summary (p : Core.Campaign.prepared) ~errors (obs : trial_obs array) :
    Core.Campaign.summary =
  let stats =
    Array.fold_left
      (fun acc o ->
        let t = o.trial in
        let flow =
          Option.map (fun (s : Sim.Taint.summary) -> s.Sim.Taint.flow) t.Core.Campaign.fault_flow
        in
        Core.Stats.observe ?flow acc t.Core.Campaign.outcome ~fidelity:t.Core.Campaign.fidelity)
      Core.Stats.empty obs
  in
  {
    Core.Campaign.trials = Array.to_list (Array.map (fun o -> o.trial) obs);
    stats;
    errors_requested = errors;
    errors_planned =
      Core.Fault_model.planned ~injectable_total:p.Core.Campaign.injectable_total ~errors;
    resumed_trials = Array.fold_left (fun n o -> if o.skipped > 0 then n + 1 else n) 0 obs;
    skipped_dyn = Array.fold_left (fun n o -> n + o.skipped) 0 obs;
  }
