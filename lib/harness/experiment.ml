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

(* Mutex-protected so the per-app closures may be forced from worker
   domains (e.g. Table 3 computing its rows in parallel, one app per
   domain). The lock is held across the compute: concurrent callers of
   the same memo serialize, distinct apps (distinct memos) do not, and
   an exception caches nothing. The serve daemon's warm registry entries
   are such memos too: its per-key promises. *)
let memo f =
  let tbl = Hashtbl.create 4 in
  let lock = Mutex.create () in
  fun k ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match Hashtbl.find_opt tbl k with
        | Some v -> v
        | None ->
          let v = f k in
          Hashtbl.replace tbl k v;
          v)

(* The two modes differ only in tagging: [Campaign.of_prog]'s baseline
   is a reference-engine run that ignores tags, and the code and
   prototype image do not depend on them either. So the Full target is
   built eagerly (its baseline is [golden]) and the Literal target
   shares its code, baseline, prototype and baseline digest: one
   baseline run per app, whichever modes are used. The Literal memo
   reads [full] directly rather than calling [target Full], and a memo
   rather than a [lazy] keeps two domains from forcing it at once. *)
let load ?(seed = 1) (app : Apps.App.t) : loaded =
  let built = app.Apps.App.build ~seed in
  let prog = built.Apps.App.prog in
  let full = Core.Campaign.of_prog ~protect_addresses:true prog in
  let literal =
    memo (fun () ->
        {
          full with
          Core.Campaign.tagging =
            Core.Tagging.compute ~protect_addresses:false prog;
        })
  in
  let target = function Full -> full | Literal -> literal () in
  let prepared =
    memo (fun (mode, policy) -> Core.Campaign.prepare (target mode) policy)
  in
  {
    app;
    built;
    golden = full.Core.Campaign.baseline;
    target;
    prepared = (fun m p -> prepared (m, p));
  }

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
