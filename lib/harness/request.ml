(* One request type for every campaign command, and one runner.

   `etap inject`, `matrix`, `audit`, `profile` and `reproduce` parse
   their flags into a [t]; the serve daemon reads its inject, matrix,
   audit and profile requests into the same [t] ([of_json]). [run]
   runs a request in-process: it writes the command's text through
   [say] as each part is ready, hands the finished etap-report/1
   document to [emit], and returns that document and the request's
   typed error.
   The CLI and the daemon differ only in the [env] they run it in: how
   work fans out, how an app is loaded, and which result store (if
   any) campaign cells go through (DESIGN.md §16, §17). *)

module J = Report.Json

(* The coordinates of a single-app campaign. *)
type campaign = { errors : int; trials : int; seed : int; literal : bool }

(* The CLI flags' defaults, which absent request fields take too. *)
let defaults = { errors = 10; trials = 20; seed = 1; literal = false }

type t =
  | Inject of { app : string; at : campaign }
  | Matrix of Matrix.spec
  | Audit of { app : string option; at : campaign }  (* None: every app *)
  | Profile of { app : string; at : campaign; top : int option }
      (* [top]: sites shown, None for all ([profile]) *)
  | Reproduce of { experiments : string list; quick : bool }
      (* [] runs every experiment *)

(* `etap profile --top`'s default, which an absent "top" takes too. *)
let default_top = 20

(* A profile request showing [top] sites, 0 for all. *)
let profile ~app ~at ~top =
  Profile { app; at; top = (if top = 0 then None else Some top) }

let command = function
  | Inject _ -> "inject"
  | Matrix _ -> "matrix"
  | Audit _ -> "audit"
  | Profile _ -> "profile"
  | Reproduce _ -> "reproduce"

(* Canonical identity of the computation a request names — everything
   that determines its report, nothing else. The daemon coalesces
   in-flight requests with equal keys. *)
let key (r : t) : string =
  let coords app at =
    Printf.sprintf "%s app=%s errors=%d trials=%d seed=%d literal=%b"
      (command r) app at.errors at.trials at.seed at.literal
  in
  match r with
  | Inject { app; at } -> coords app at
  | Audit { app; at } -> coords (Option.value app ~default:"*") at
  | Profile { app; at; top } ->
    Printf.sprintf "%s top=%d" (coords app at) (Option.value top ~default:0)
  | Matrix s ->
    Printf.sprintf
      "matrix apps=%s mode=%s policies=%s errors=%s trials=%d seed=%d"
      (String.concat "," s.Matrix.apps)
      (Experiment.mode_name s.Matrix.mode)
      (String.concat ","
         (List.map Core.Policy.to_string s.Matrix.policies))
      (String.concat "," (List.map string_of_int s.Matrix.errors))
      s.Matrix.trials s.Matrix.seed
  | Reproduce { experiments; quick } ->
    Printf.sprintf "reproduce experiments=%s quick=%b"
      (String.concat "," experiments) quick

(* ------------------------------------------------------------------ *)
(* Reading a request *)

(* The request [cmd] names, read from the daemon's request object [j]
   (absent fields take [defaults]); [None] for a [cmd] that is not a
   campaign command the daemon serves. *)
let of_json (cmd : string) (j : J.t) : (t, string) result option =
  let ( let* ) = Result.bind in
  (* The app field (required for an inject or a profile), then the
     coordinates. *)
  let campaign ~required make =
    let* app =
      match J.member "app" j with
      | Some (J.Str s) -> Ok (Some s)
      | Some _ -> Error "field \"app\": expected a string"
      | None when required -> Error (cmd ^ " request: missing \"app\"")
      | None -> Ok None
    in
    let d = defaults in
    let* errors =
      Matrix.field_int ~check:Matrix.check_errors j "errors" d.errors
    in
    let* trials =
      Matrix.field_int ~check:Matrix.check_trials j "trials" d.trials
    in
    let* seed = Matrix.field_int j "seed" d.seed in
    let* literal = Matrix.field_bool j "literal" d.literal in
    Ok (make app { errors; trials; seed; literal })
  in
  match cmd with
  | "inject" ->
    Some
      (campaign ~required:true (fun app at ->
           Inject { app = Option.get app; at }))
  | "audit" -> Some (campaign ~required:false (fun app at -> Audit { app; at }))
  | "profile" ->
    Some
      (let* top =
         Matrix.field_int ~check:(Matrix.at_least "top" 0) j "top" default_top
       in
       campaign ~required:true (fun app at ->
           profile ~app:(Option.get app) ~at ~top))
  | "matrix" ->
    Some
      (match J.member "spec" j with
       | Some spec ->
         Result.map (fun s -> Matrix s)
           (Matrix.spec_of_json ~base:Matrix.default_spec spec)
       | None -> Error "matrix request: missing \"spec\"")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The environment a request runs in. *)

type env = {
  jobs : int option;
      (* every fan-out's [Core.Pool] limit — loads, cells and trials —
         and the report's "jobs" meta *)
  load : seed:int -> Apps.App.t -> Experiment.loaded;
      (* its result's own table prepares each target once *)
  store : Core.Memo.Store.t option;
      (* the result cache campaign cells go through; its root is the
         reports' "cache_dir" *)
}

(* A one-shot run: [Core.Pool] at [jobs], apps loaded afresh. *)
let local ?jobs ?store () =
  { jobs; load = (fun ~seed -> Experiment.load ~seed); store }

let collect env ~loaded cells =
  Matrix.collect ?jobs:env.jobs ?store:env.store ~loaded cells

let cache_dir env = Option.map Core.Memo.Store.root env.store

let find_app name =
  match Apps.Registry.find name with
  | Some app -> Ok app
  | None ->
    Error
      (Printf.sprintf "unknown application %S (known: %s)" name
         (String.concat ", " Apps.Registry.names))

(* The error of a request naming one app the registry does not know,
   which the CLI refuses before it runs anything. [run] fails such an
   inject or profile request outright; an audit over it has failed
   cells, like a sweep over it. *)
let unknown (r : t) : string option =
  match r with
  | Inject { app; _ } | Profile { app; _ } | Audit { app = Some app; _ } ->
    Result.fold ~ok:(fun _ -> None) ~error:Option.some (find_app app)
  | Matrix _ | Audit { app = None; _ } | Reproduce _ -> None

(* ------------------------------------------------------------------ *)
(* Reproduce: the paper's experiments at fixed trial counts. *)

let figure_ids =
  List.map (fun (f : Figures.figure) -> f.Figures.id) Figures.figures

let experiments =
  [ "table2"; "table3"; "figures"; "ablation"; "extensions" ] @ figure_ids

(* Table 2 and its audit at 25 trials per cell (10 quick), every other
   campaign at 20 (8 quick). *)
let reproduce_trials ~quick = if quick then (10, 8) else (25, 20)

(* ------------------------------------------------------------------ *)
(* Meta *)

let coords_meta (at : campaign) =
  [ ("errors", J.Int at.errors); ("trials", J.Int at.trials);
    ("seed", J.Int at.seed); ("literal", J.Bool at.literal) ]

(* Every campaign runs on the fast engine with the automatic checkpoint
   stride; meta blocks still name both, as constants. *)
let meta_engine = ("engine", J.Str (Sim.Interp.engine_name Sim.Interp.Fast))
let meta_stride = ("checkpoint_stride", J.Null)

(* The request's invocation meta: the metrics stream's header, and the
   report meta of an audit or a reproduce run. *)
let meta env (r : t) : (string * J.t) list =
  let jobs = ("jobs", J.of_int_opt env.jobs) in
  match r with
  | Inject { app; at } ->
    (("app", J.Str app) :: coords_meta at)
    @ [
        meta_engine;
        jobs;
        meta_stride;
        ("incremental", J.Bool (env.store <> None));
        ("cache_dir", match cache_dir env with Some d -> J.Str d | None -> J.Null);
      ]
  | Matrix s -> Matrix.spec_meta ~jobs:env.jobs ~cache_dir:(cache_dir env) s
  | Audit { app; at } ->
    (("app", match app with Some a -> J.Str a | None -> J.Null)
     :: coords_meta at)
    @ [ jobs ]
  | Profile { app; at; _ } ->
    (("app", J.Str app) :: coords_meta at) @ [ jobs; meta_stride ]
  | Reproduce { experiments; quick } ->
    let t2_trials, trials = reproduce_trials ~quick in
    [ ("experiments", J.Arr (List.map (fun e -> J.Str e) experiments));
      ("quick", J.Bool quick); ("table2_trials", J.Int t2_trials);
      ("trials", J.Int trials); jobs ]

(* ------------------------------------------------------------------ *)
(* Inject: one campaign cell per default policy. *)

let inject_cells ~app (at : campaign) : Matrix.cell_spec list =
  List.map
    (fun policy ->
      Matrix.make_cell ~mode:(Experiment.mode_of_literal at.literal) ~policy
        ~errors:at.errors ~trials:at.trials
        ~seed:(Matrix.campaign_seed at.seed) app)
    Matrix.default_policies

(* The inject report. [cache = Some (dir, totals)] is the result-cache
   path; [None] a run without a store. Every caller passes
   [~engine:Fast ~checkpoint_stride:None], the constants campaigns run
   with; the labels stay because etapbench's serve-mix workload calls
   this builder (as [Serve.inject_report]) with them. *)
let inject_report ~app ~errors ~trials ~seed ~literal ~engine ~jobs
    ~checkpoint_stride ~fidelity_units
    ~(cache : (string * Core.Memo.stats) option)
    (summaries : (Core.Policy.t * Core.Campaign.summary) list) : Report.t =
  let table =
    Report.table ~id:"inject"
      ~title:
        (Printf.sprintf "Fault-injection campaign: %s, %d errors" app errors)
      ~columns:
        [
          Report.column ~key:"policy" "policy";
          Report.column ~key:"trials" "trials";
          Report.column ~key:"errors_planned" "errors planned";
          Report.column ~key:"pct_catastrophic" "% catastrophic";
          Report.column ~key:"crashes" "crashes";
          Report.column ~key:"infinite" "infinite";
          Report.column ~key:"completed" "completed";
          Report.column ~key:"mean_fidelity" "mean fidelity";
        ]
      (List.map
         (fun (policy, s) ->
           [
             Report.text (Core.Policy.to_string policy);
             Report.int (Core.Campaign.n s);
             Report.int s.Core.Campaign.errors_planned;
             Report.pct (Core.Campaign.pct_catastrophic s);
             Report.int (Core.Campaign.crashes s);
             Report.int (Core.Campaign.infinite s);
             Report.int (Core.Campaign.completed s);
             Report.opt ~missing:"n/a"
               (fun m -> Report.num ~text:(Printf.sprintf "%.1f" m) m)
               (Core.Campaign.mean_fidelity s);
           ])
         summaries)
  in
  Report.make ~command:"inject"
    ~meta:
      ([
         ("app", J.Str app);
         ("errors", J.Int errors);
         ("trials", J.Int trials);
         ("seed", J.Int seed);
         ("literal", J.Bool literal);
         ("engine", J.Str (Sim.Interp.engine_name engine));
         ("jobs", J.of_int_opt jobs);
         ("checkpoint_stride", J.of_int_opt checkpoint_stride);
         ("fidelity_units", J.Str fidelity_units);
         ("incremental", J.Bool (cache <> None));
         ( "cache_dir",
           match cache with Some (d, _) -> J.Str d | None -> J.Null );
       ]
      @
      match cache with
      | None -> []
      | Some (_, st) ->
        [
          ("cache_sections", J.Int st.Core.Memo.sections);
          ("cache_hits", J.Int st.Core.Memo.hits);
          ("cache_misses", J.Int st.Core.Memo.misses);
          ("cache_trials_reused", J.Int st.Core.Memo.trials_reused);
          ("cache_trials_run", J.Int st.Core.Memo.trials_run);
        ])
    [ table ]

let add_stats (a : Core.Memo.stats) (b : Core.Memo.stats) : Core.Memo.stats =
  Core.Memo.
    {
      sections = a.sections + b.sections;
      hits = a.hits + b.hits;
      misses = a.misses + b.misses;
      trials_reused = a.trials_reused + b.trials_reused;
      trials_run = a.trials_run + b.trials_run;
    }

(* ------------------------------------------------------------------ *)
(* Reproduce's driver: the wanted sections' cells collected in one
   list, then each section's banner and text in order, and a wall-time
   ledger to close the run. All campaigns are deterministic for a fixed
   seed and for any jobs value: trial RNGs derive from the trial
   index. *)

(* A section: the experiment name that selects it, its banner title,
   the cells it reads (none for the sections that run no registry
   campaign), and its table with the text printed for it, read through
   the collected cells' lookup. *)
type section = {
  experiment : string;
  title : string;
  plan : Matrix.cell_spec list;
  render : (Matrix.cell_spec -> Matrix.cell) -> Report.table * string;
}

let reproduce env ~say ~experiments ~quick : Report.table list =
  let jobs = env.jobs in
  let t2_trials, trials = reproduce_trials ~quick in
  let want name =
    experiments = [] || List.mem name experiments
    || (List.mem name figure_ids && List.mem "figures" experiments)
  in
  let t0 = Unix.gettimeofday () in
  let times = ref [] in
  let timed name f =
    let t = Unix.gettimeofday () in
    let r = f () in
    times := (name, Unix.gettimeofday () -. t) :: !times;
    r
  in
  say
    (Printf.sprintf "building applications and baselines... (jobs=%s)"
       (match jobs with
        | Some j -> string_of_int j
        | None -> Printf.sprintf "auto:%d" (Core.Pool.default_jobs ())));
  (* A figure reads its own app's cells only; every other section reads
     every registry app. *)
  let apps =
    if List.exists want [ "table2"; "table3"; "ablation"; "extensions" ] then
      Apps.Registry.names
    else
      List.filter
        (fun n ->
          List.exists
            (fun (f : Figures.figure) -> f.app = n && want f.id)
            Figures.figures)
        Apps.Registry.names
  in
  let named =
    timed "load_apps" (fun () ->
        Matrix.load_known ?jobs ~load:(env.load ~seed:1) apps)
  in
  let loaded = List.map snd named in
  let section ?(plan = []) experiment title render =
    { experiment; title; plan; render }
  in
  let table t = (t, Report.to_text t) in
  let full = Experiment.Full and literal = Experiment.Literal in
  let audit =
    Taxonomy.audit_plan ~errors:Taxonomy.default_errors ~trials:t2_trials
      ~seed:Taxonomy.seed ~mode:full (List.map fst named)
  in
  let sections =
    [
      section "table2"
        "Table 2 — catastrophic failures with/without control protection"
        ~plan:(Table2.plan ~trials:t2_trials loaded) (fun find ->
          table (Table2.to_table ~trials:t2_trials loaded find));
      section "table2" "Fault-flow taxonomy (dynamic taint audit)" ~plan:audit
        (fun find ->
          let cells = List.map find audit in
          ( Taxonomy.audit_table ~mode:full cells,
            Taxonomy.render_audit ~mode:full cells ));
      section "table3"
        "Table 3 — % of dynamic instructions tagged low-reliability" (fun _ ->
          table (Table3.to_table (Table3.run loaded)));
    ]
    @ List.map
        (fun (f : Figures.figure) ->
          section f.id (String.uppercase_ascii f.id)
            ~plan:(Figures.plan ~trials f) (fun find ->
              table (Figures.to_table (Figures.result ~trials loaded find f))))
        Figures.figures
    @ [
        section "ablation" "Ablation A — address protection"
          ~plan:(Ablation.address_plan ~trials loaded) (fun find ->
            table (Ablation.address_table ~trials loaded find));
        section "ablation" "Ablation B — programmer eligibility marking"
          (fun _ ->
            table
              (Ablation.eligibility_table
                 (timed "ablation_eligibility" (fun () ->
                      Ablation.eligibility ~trials ?jobs ()))));
        section "extensions"
          "Cost model — selective vs uniform protection (paper Sec. 5.3)"
          (fun _ ->
            table
              (Cost_model.to_table ~mode:literal
                 (Cost_model.run ~mode:literal loaded)));
        section "extensions"
          "Fault outcome taxonomy (benign / degraded / catastrophic)"
          ~plan:(Taxonomy.plan ~trials ~mode:literal loaded) (fun find ->
            table
              (Taxonomy.to_table ~mode:literal
                 (Taxonomy.rows ~trials ~mode:literal loaded find)));
      ]
  in
  let sections = List.filter (fun s -> want s.experiment) sections in
  let cells =
    timed "collect" (fun () ->
        collect env ~loaded:named (List.concat_map (fun s -> s.plan) sections))
  in
  let bar = String.make 72 '=' and find = Matrix.find cells in
  let tables =
    List.map
      (fun s ->
        List.iter say [ ""; bar; s.title; bar ];
        let t, text = s.render find in
        say text;
        t)
      sections
  in
  say "";
  List.iter
    (fun (name, secs) -> say (Printf.sprintf "  %-28s %7.2f s" name secs))
    (List.rev !times);
  say (Printf.sprintf "total wall time: %.1f s" (Unix.gettimeofday () -. t0));
  tables

(* ------------------------------------------------------------------ *)
(* The runner *)

(* Run [r] in [env]. Text goes to [say] line by line, the report to
   [emit] once it is complete (before a matrix's closing totals line).
   Returns the report — [None] when the request failed before it had
   one — and the request's typed error: an unknown app, a failed cell,
   or a soundness violation. *)
let run env ?(say = ignore) ?(emit = ignore) (r : t) :
    Report.t option * string option =
  let finish ?error rep =
    emit rep;
    (Some rep, error)
  in
  (* The one app an inject or profile request names, loaded. *)
  let with_app app (at : campaign) f =
    match find_app app with
    | Error m -> (None, Some m)
    | Ok a -> f (env.load ~seed:at.seed a)
  in
  match r with
  | Inject { app; at } -> (
    with_app app at @@ fun l ->
    let cells = collect env ~loaded:[ (app, l) ] (inject_cells ~app at) in
    match Matrix.cells_failures_message cells with
    | Some m -> (None, Some m)
    | None ->
      (* Per cell: its cache line (with a store), its summary line, and a
         note when the injectable pool capped the plan. A skipped cell
         reads as fault-free trials ([Matrix.summary]). *)
      let units = l.Experiment.built.Apps.App.fidelity_units in
      let summaries =
        List.map
          (fun (c : Matrix.cell) -> (c.cell.policy, Matrix.summary l c))
          cells
      in
      List.iter2
        (fun (c : Matrix.cell) (policy, s) ->
          let p = Core.Policy.to_string policy and st = Matrix.cache c in
          if env.store <> None then
            say
              (Printf.sprintf
                 "%-18s cache: %d/%d section groups hit — %d trial(s) \
                  reused, %d run"
                 p st.hits st.sections st.trials_reused st.trials_run);
          say
            (Printf.sprintf
               "%-18s errors=%-4d trials=%-3d catastrophic=%5.1f%% (%d \
                crash, %d infinite)  mean fidelity=%s"
               p at.errors (Core.Campaign.n s)
               (Core.Campaign.pct_catastrophic s)
               (Core.Campaign.crashes s) (Core.Campaign.infinite s)
               (match Core.Campaign.mean_fidelity s with
                | None -> "n/a"
                | Some m -> Printf.sprintf "%.1f %s" m units));
          if Core.Campaign.errors_capped s then
            say
              (Printf.sprintf
                 "  note: injectable pool (%d) smaller than request — each \
                  plan holds %d fault(s), not %d"
                 (match c.status with Matrix.Ok ok -> ok.pool | _ -> 0)
                 s.Core.Campaign.errors_planned at.errors))
        cells summaries;
      let totals =
        List.fold_left (fun acc c -> add_stats acc (Matrix.cache c))
          Core.Memo.zero_stats cells
      in
      finish
        (inject_report ~app ~errors:at.errors ~trials:at.trials ~seed:at.seed
           ~literal:at.literal ~engine:Sim.Interp.Fast ~jobs:env.jobs
           ~checkpoint_stride:None ~fidelity_units:units
           ~cache:(Option.map (fun d -> (d, totals)) (cache_dir env))
           summaries))
  | Matrix s ->
    let m =
      Matrix.run_with ?jobs:env.jobs ~load:(env.load ~seed:s.Matrix.seed)
        ~collect:(collect env) s
    in
    let tables = [ Matrix.to_table m; Matrix.anomaly_table m ] in
    List.iter (fun t -> say (Report.to_text t)) tables;
    let meta = Matrix.report_meta ~jobs:env.jobs ~cache_dir:(cache_dir env) m in
    let result =
      finish ?error:(Matrix.failures_message m)
        (Report.make ~command:"matrix" ~meta tables)
    in
    let t = Matrix.totals m in
    say
      (Printf.sprintf
         "cells: %d requested, %d ok (%d fully cached, %d executed), %d \
          skipped, %d failed | trials: %d reused, %d run | cache: %s"
         t.Matrix.requested t.Matrix.ok t.Matrix.cells_hit
         t.Matrix.cells_miss t.Matrix.skipped t.Matrix.failed
         t.Matrix.trials_reused t.Matrix.trials_run
         (Option.value (cache_dir env) ~default:"none"));
    result
  | Audit { app; at } ->
    let mode = Experiment.mode_of_literal at.literal in
    let names = match app with Some a -> [ a ] | None -> Apps.Registry.names in
    let loaded =
      Matrix.load_known ?jobs:env.jobs ~load:(env.load ~seed:at.seed) names
    in
    let cells =
      collect env ~loaded
        (Taxonomy.audit_plan ~errors:at.errors ~trials:at.trials
           ~seed:(Matrix.campaign_seed at.seed) ~mode names)
    in
    say (Taxonomy.render_audit ~mode cells);
    let error =
      match
        (Matrix.cells_failures_message cells, Taxonomy.audit_violations cells)
      with
      | (Some _ as m), _ | (m, []) -> m
      | None, bad ->
        Some
          (Printf.sprintf
             "tagging soundness violated in %d audit cell(s) — see table \
              above"
             (List.length bad))
    in
    finish ?error
      (Report.make ~command:"audit" ~meta:(meta env r)
         [ Taxonomy.audit_table ~mode cells ])
  | Profile { app; at; top } ->
    with_app app at @@ fun l ->
    let p =
      Profile.run ~errors:at.errors ~trials:at.trials
        ~seed:(Matrix.campaign_seed at.seed) ?jobs:env.jobs
        ~mode:(Experiment.mode_of_literal at.literal) l
    in
    say (Profile.render ?top p);
    finish (Profile.report ?top p)
  | Reproduce { experiments; quick } ->
    let tables = reproduce env ~say ~experiments ~quick in
    finish (Report.make ~command:"reproduce" ~meta:(meta env r) tables)
