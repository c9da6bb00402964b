(* Shared experiment context: each application built once per seed,
   with campaign targets under both tagging modes and prepared
   injection configurations per policy.

   Mode vocabulary (see DESIGN.md and EXPERIMENTS.md):
   - [Full]: control + address protection (the companion work's
     treatment; reproduces Table 2's near-zero protected failures);
   - [Literal]: the paper's Section-3 rules verbatim — loads terminate
     def-use chains and addresses are not pulled into CVar (reproduces
     Table 3's large low-reliability fractions). *)

type mode =
  | Full
  | Literal

let mode_name = function Full -> "full" | Literal -> "literal"

(* The mode a request's [literal] flag names — `--literal`, a spec's or
   a daemon request's ["literal"] field. *)
let mode_of_literal literal = if literal then Literal else Full

type loaded = {
  app : Apps.App.t;
  built : Apps.App.built;
  golden : Sim.Interp.result;
  target : mode -> Core.Campaign.target;
  prepared : mode -> Core.Policy.t -> Core.Campaign.prepared;
}

(* One counted golden pass per app serves both modes: the modes differ
   only in tagging, so the Full and Literal targets share the code,
   baseline, prototype and baseline digest, and the pass derives the
   checkpoint chain of each distinct protect-control and
   protect-nothing mask (at most three) up front. A prepared target
   then only sizes its pool, compiles its image and adopts its chain. *)
let load ?(seed = 1) (app : Apps.App.t) : loaded =
  let built = app.Apps.App.build ~seed in
  let prog = built.Apps.App.prog in
  let tagging protect_addresses =
    Core.Tagging.compute ~protect_addresses prog
  in
  let full, literal, chains =
    match Core.Campaign.of_taggings [ tagging true; tagging false ] prog with
    | [ full; literal ], chains -> (full, literal, chains)
    | _ -> assert false
  in
  let target = function Full -> full | Literal -> literal in
  (* Prepared on first use, from any domain (Table 2's cells, the
     daemon's requests): one build per (mode, policy), kept. *)
  let prepared = Core.Once.create All in
  {
    app;
    built;
    golden = full.Core.Campaign.baseline;
    target;
    prepared =
      (fun mode policy ->
        fst
          (Core.Once.get prepared (mode, policy) (fun () ->
               Core.Campaign.prepare ~chains (target mode) policy)));
  }

(* The fraction of [l]'s fault-free dynamic instructions that [mode]'s
   tagging marks low-reliability: Table 3, Ablation A and the cost
   model read it off the baseline counted at load. *)
let low_fraction (l : loaded) mode =
  let t = l.target mode in
  Core.Tagging.dynamic_low_fraction t.Core.Campaign.tagging
    t.Core.Campaign.baseline.Sim.Interp.exec_counts

(* Building an app (workload generation, Mlang compilation, tagging,
   baseline run) touches no cross-app state, so the builds themselves
   fan out across domains. *)
let load_all ?seed ?jobs () =
  Core.Pool.map_list ?jobs (load ?seed) Apps.Registry.all

let find (loaded : loaded list) name =
  List.find (fun l -> l.app.Apps.App.name = name) loaded

let mem (loaded : loaded list) name =
  List.exists (fun l -> l.app.Apps.App.name = name) loaded

(* Catastrophic-failure percentage for one cell of Table 2. *)
let pct_catastrophic ?jobs (l : loaded) ~mode ~policy ~errors ~trials ~seed =
  let p = l.prepared mode policy in
  Core.Campaign.pct_catastrophic
    (Core.Campaign.run ?jobs p ~errors ~trials ~seed)

(* Fidelity summary of a sweep point: mean fidelity over completed
   trials plus the catastrophic percentage. The campaign scores each
   trial at the source (on the worker domain), so the sweep point only
   ever holds floats — no simulator results survive the campaign. *)
type sweep_point = {
  errors : int;
  n : int;
  pct_failed : float;
  mean_fidelity : float option;  (* None when no trial completed *)
  fidelities : float list;
  stats : Core.Stats.t;
}

let point_of_summary ~errors (s : Core.Campaign.summary) : sweep_point =
  {
    errors;
    n = Core.Campaign.n s;
    pct_failed = Core.Campaign.pct_catastrophic s;
    mean_fidelity = Core.Campaign.mean_fidelity s;
    fidelities = Core.Campaign.fidelities s;
    stats = s.Core.Campaign.stats;
  }

(* The summary of a campaign with nothing to inject into: every trial
   runs the golden run, so none fails, none plans a fault, and each
   scores what the golden run scores against itself. Both modes share
   one baseline, so the mode does not enter. *)
let fault_free_summary (l : loaded) ~errors ~trials : Core.Campaign.summary =
  let f = l.built.Apps.App.score ~golden:l.golden l.golden in
  let trial index =
    {
      Core.Campaign.index;
      outcome = Core.Outcome.Completed;
      dyn_count = l.golden.Sim.Interp.dyn_count;
      faults_planned = 0;
      faults_landed = 0;
      fidelity = Some f;
      fault_flow = None;
    }
  in
  Core.Campaign.summary_of ~injectable_total:0 ~errors
    (List.init trials (fun i -> (trial i, 0)))

let sweep_point ?jobs (l : loaded) ~mode ~policy ~errors ~trials ~seed :
    sweep_point =
  let p = l.prepared mode policy in
  let score r = l.built.Apps.App.score ~golden:l.golden r in
  point_of_summary ~errors
    (Core.Campaign.run ?jobs ~score p ~errors ~trials ~seed)
