(* The experiment runner: an explicit list of (app, mode, policy,
   errors) cells, each a scored campaign or a taint audit, run as
   nested executor batches with a typed status per cell. Table 2, the
   figures, the audits, Ablation A and every [Request] that runs cells
   (inject, matrix, audit, on the CLI and on the serve daemon) run
   through here; DESIGN.md §16 describes the shape of a run.

   A campaign cell scores its trials with the app's scorer against the
   mode's golden baseline. With a store it goes through [Core.Memo.run],
   so a sweep's cell and the equivalent inject cell share cache
   entries, and without one it is a plain [Core.Campaign.run]; the two
   give bit-identical summaries. An audit cell runs shadow-taint trials
   (Core.Audit) and never goes through the store. *)

type spec = {
  apps : string list;
  mode : Experiment.mode;
  policies : Core.Policy.t list;
  errors : int list;
  trials : int;
  seed : int;
}

let default_policies = [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ]
let default_errors = [ 1; 5; 20 ]

let default_spec =
  {
    apps = List.map (fun (a : Apps.App.t) -> a.Apps.App.name) Apps.Registry.all;
    mode = Experiment.Full;
    policies = default_policies;
    errors = default_errors;
    trials = 20;
    seed = 1;
  }

type kind =
  | Campaign  (* scored fault-injection trials *)
  | Audit  (* shadow-taint trials, summarised by Core.Audit *)

type cell_spec = {
  app : string;
  mode : Experiment.mode;
  policy : Core.Policy.t;
  errors : int;
  trials : int;
  seed : int;  (* the campaign seed *)
  kind : kind;
}

type cell_ok = {
  summary : Core.Campaign.summary;
  cache : Core.Memo.stats;
      (* without a store (and for audit cells): no sections, every
         trial run *)
  pool : int;  (* injectable pool size under the cell's tag mask *)
  audit : Core.Audit.report option;  (* [Some] iff an [Audit] cell *)
}

(* The cell status model: one constructor per requested cell, always.
   [Skipped] is for cells that are structurally not runnable (empty
   injectable pool — nothing to inject into); [Failed] captures any
   exception a cell raised. A single [Failed] cell fails the request
   that ran it (see [Request.run]): a non-zero exit on the CLI, a
   "failed" reply from the daemon. *)
type status =
  | Ok of cell_ok
  | Skipped of string
  | Failed of string

type cell = { cell : cell_spec; status : status }

type result = {
  spec : spec;
  cells : cell list;  (* one per requested cell, spec order *)
  load_s : float;  (* wall: loading the distinct apps (once each) *)
  wall_s : float;
}

(* The one range rule for campaign sizes, applied where they enter:
   CLI flags, spec files, daemon requests and [make_cell]. A cell may
   inject 0 errors (the figures' fault-free point) but needs at least
   one trial. *)
let at_least what min v =
  if v >= min then Stdlib.Ok v
  else Stdlib.Error (Printf.sprintf "%s must be >= %d, got %d" what min v)

let check_errors = at_least "errors" 0
let check_trials = at_least "trials" 1

(* An optional field of a JSON object, [default] when absent; [conv]
   reads its value, [None] for the wrong type. Spec files and daemon
   requests read their fields here; every error names the field. *)
let field ~expected conv (j : Report.Json.t) name default =
  let bad = Stdlib.Error ("expected " ^ expected) in
  Result.map_error (Printf.sprintf "field %S: %s" name)
    (match Report.Json.member name j with
     | None -> Stdlib.Ok default
     | Some v -> Option.value (conv v) ~default:bad)

let field_int ?(check = Result.ok) =
  field ~expected:"an int" (function
    | Report.Json.Int i -> Some (check i)
    | _ -> None)

let field_bool =
  field ~expected:"a bool" (function
    | Report.Json.Bool b -> Some (Stdlib.Ok b)
    | _ -> None)

(* The campaign seed of a request at workload seed [seed]: sweeps,
   inject requests, `etap audit` and `etap profile` all run their
   campaigns at this offset, so equal requests share cache entries. *)
let campaign_seed seed = seed + 100

let make_cell ?(kind = Campaign) ~mode ~policy ~errors ~trials ~seed app =
  let valid = function
    | Stdlib.Ok v -> v
    | Stdlib.Error m -> invalid_arg ("Matrix.make_cell: " ^ m)
  in
  let errors = valid (check_errors errors)
  and trials = valid (check_trials trials) in
  { app; mode; policy; errors; trials; seed; kind }

let cell_label (c : cell_spec) =
  Printf.sprintf "%s/%s/%s e=%d t=%d" c.app
    (Experiment.mode_name c.mode)
    (Core.Policy.to_string c.policy)
    c.errors c.trials

let status_kind = function
  | Ok _ -> "ok"
  | Skipped _ -> "skipped"
  | Failed _ -> "failed"

(* Requested cells in deterministic spec order: app-major, then policy,
   then error count. Duplicates in the spec stay duplicates here —
   every requested cell appears in the output exactly once per
   request. *)
let cells_of_spec (s : spec) : cell_spec list =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun policy ->
          List.map
            (fun errors ->
              make_cell ~mode:s.mode ~policy ~errors ~trials:s.trials
                ~seed:(campaign_seed s.seed) app)
            s.errors)
        s.policies)
    s.apps

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* ------------------------------------------------------------------ *)
(* Running cells *)

let all_run (s : Core.Campaign.summary) =
  { Core.Memo.zero_stats with Core.Memo.trials_run = Core.Campaign.n s }

(* Injectable pool size of [l]'s target under [mode] and [policy], as
   [prepare] would size it — without preparing. *)
let pool_of (l : Experiment.loaded) mode policy =
  let t = l.Experiment.target mode in
  Core.Campaign.injectable_pool t
    (Core.Tagging.mask t.Core.Campaign.tagging policy)

(* One cell. [lookup] resolves an app name to its loaded context (None
   = unknown app, a Failed cell); [prepared_of] gives the cell's
   injectable pool size and, for a non-empty pool, its prepared target
   with the section partition when a store is in use. [memo_fanout]
   forwards to {!Core.Memo.run}'s [fanout]; without it the cell's
   trials fan out through [Core.Pool] at [jobs] — from inside a job, a
   nested batch on the job's executor. *)
let exec_cell ?jobs ~(lookup : string -> Experiment.loaded option)
    ~(prepared_of :
       cell_spec ->
       int * (Core.Campaign.prepared * Analysis.Section.t option) option)
    ?memo_fanout ?store (c : cell_spec) : status =
  match lookup c.app with
  | None -> Failed (Printf.sprintf "unknown application %S" c.app)
  | Some l -> (
    match prepared_of c with
    | 0, _ | _, None -> Skipped "empty injectable pool"
    | pool, Some (p, sections) ->
      let golden = (l.Experiment.target c.mode).Core.Campaign.baseline in
      let score r = l.Experiment.built.Apps.App.score ~golden r in
      let { errors; trials; seed; _ } = c in
      let summary, cache, audit =
        match c.kind with
        | Audit ->
          let s =
            Core.Campaign.run ?jobs ~taint:true p ~errors ~trials ~seed
          in
          (s, all_run s, Some (Core.Audit.of_summary p ~errors ~trials ~seed s))
        | Campaign -> (
          (* Through the result cache when [store] is given, else a
             plain run that counts every trial as run; both give the
             same summary. *)
          match store with
          | Some store ->
            let s, st =
              Core.Memo.run ?jobs ?fanout:memo_fanout ~score ~salt:c.app
                ?sections ~store p ~errors ~trials ~seed
            in
            (s, st, None)
          | None ->
            let s = Core.Campaign.run ?jobs ~score p ~errors ~trials ~seed in
            (s, all_run s, None))
      in
      Ok { summary; cache; pool; audit })

(* The typed-status contract: any exception a cell raises becomes its
   [Failed] status, and every cell records a [matrix.cell] span. *)
let guarded (c : cell_spec) f : status =
  let t0 = Obs.span_begin () in
  let status = try f () with e -> Failed (Printexc.to_string e) in
  Obs.span_end ~name:"matrix.cell" ~cat:"matrix"
    ~args:[ ("cell", cell_label c); ("status", status_kind status) ]
    t0;
  status

(* One cell of a single-mode sweep whose targets the caller prepared
   itself, keyed by (app, policy) — etapbench's traced sweep. *)
let run_cell ?jobs ~lookup ~prepared_of ?memo_fanout ?store (c : cell_spec) :
    status =
  let prepared_of (c : cell_spec) =
    let pool, v = prepared_of c.app c.policy in
    (pool, Option.map (fun (p, sections) -> (p, Some sections)) v)
  in
  guarded c (fun () ->
      exec_cell ?jobs ~lookup ~prepared_of ?memo_fanout ?store c)

(* Cell-status counters, recorded on the calling domain after
   collection so they are jobs-invariant like every other counter in
   the tree. A cell is a "hit" when the cache served every one of its
   trials. *)
let record_counters (cells : cell list) =
  List.iter
    (fun { status; _ } ->
      let kind =
        match status with
        | Ok ok -> if ok.cache.Core.Memo.trials_run = 0 then "hit" else "miss"
        | s -> status_kind s
      in
      Obs.count ("matrix.cells_" ^ kind) 1)
    cells

(* The collect path every run ends in. [loaded] holds the resolved
   apps; an unknown name is absent and its cells fail. Each distinct
   target is prepared once, in its app's own table, and with a [store]
   its section partition is computed once per collect and shared by
   the target's cells. Empty-pool targets (e.g. protect-all, or adpcm
   under protect-control) skip the checkpointing pass and engine
   compilation entirely; their cells report [Skipped].
   Concurrent cells share [store]; overlapping keys are safe (atomic
   publish, last rename wins, identical content either way). *)
let collect ?jobs ?store ~(loaded : (string * Experiment.loaded) list)
    (cells : cell_spec list) : cell list =
  let sp = Obs.span_begin () in
  let key (c : cell_spec) = (c.app, c.mode, c.policy) in
  let targets =
    dedup
      (List.filter_map
         (fun c -> if List.mem_assoc c.app loaded then Some (key c) else None)
         cells)
  in
  let prepared =
    Core.Pool.map_list ?jobs
      (fun ((app, mode, policy) as k) ->
        let l = List.assoc app loaded in
        let pool = pool_of l mode policy in
        if pool = 0 then (k, (0, None))
        else
          let p = l.Experiment.prepared mode policy in
          let sections = Option.map (fun _ -> Core.Memo.sections_of p) store in
          (k, (pool, Some (p, sections))))
      targets
  in
  let lookup name = List.assoc_opt name loaded in
  let prepared_of c = List.assoc (key c) prepared in
  let statuses =
    Core.Pool.map_list ?jobs
      (fun c ->
        guarded c (fun () -> exec_cell ?jobs ~lookup ~prepared_of ?store c))
      cells
  in
  let cells = List.map2 (fun cell status -> { cell; status }) cells statuses in
  record_counters cells;
  Obs.span_end ~name:"matrix.run" ~cat:"matrix"
    ~args:[ ("cells", string_of_int (List.length cells)) ]
    sp;
  cells

(* Each distinct known name of [names] resolved once by [load], fanned
   out at [jobs], paired with its name. Unknown names never load: their
   cells fail. *)
let load_known ?jobs ~load (names : string list) =
  Core.Pool.map_list ?jobs
    (fun (n, app) -> (n, load app))
    (List.filter_map
       (fun n -> Option.map (fun a -> (n, a)) (Apps.Registry.find n))
       (dedup names))

(* A spec's sweep: its apps through [load_known], then the spec's cells
   through [collect]: {!collect} with the caller's hooks applied. *)
let run_with ?jobs ~load ~collect (s : spec) : result =
  let t_run = Unix.gettimeofday () in
  let loaded = load_known ?jobs ~load s.apps in
  let load_s = Unix.gettimeofday () -. t_run in
  let cells = collect ~loaded (cells_of_spec s) in
  { spec = s; cells; load_s; wall_s = Unix.gettimeofday () -. t_run }

let run ?jobs ?store (s : spec) : result =
  run_with ?jobs ~load:(Experiment.load ~seed:s.seed)
    ~collect:(fun ~loaded cells -> collect ?jobs ?store ~loaded cells)
    s

(* A campaign cell's summary, for the renderers. A skipped cell (empty
   injectable pool) stands for trials that each run fault-free; a
   failed cell raises, as its campaign did. *)
let summary (l : Experiment.loaded) (c : cell) : Core.Campaign.summary =
  match c.status with
  | Ok ok -> ok.summary
  | Skipped _ ->
    Experiment.fault_free_summary l ~errors:c.cell.errors ~trials:c.cell.trials
  | Failed m -> failwith (cell_label c.cell ^ ": " ^ m)

(* A cell's cache stats: a skipped cell ran and reused nothing. *)
let cache (c : cell) : Core.Memo.stats =
  match c.status with Ok ok -> ok.cache | _ -> Core.Memo.zero_stats

let point l (c : cell) : Experiment.sweep_point =
  Experiment.point_of_summary ~errors:c.cell.errors (summary l c)

(* The collected cell of a requested one: the lookup the experiments'
   renderers read their cells through. Equal specs have equal results,
   so the first match serves a duplicate too. *)
let find (cells : cell list) (c : cell_spec) : cell =
  List.find (fun r -> r.cell = c) cells

(* ------------------------------------------------------------------ *)
(* Aggregates *)

type totals = {
  requested : int;
  ok : int;
  skipped : int;
  failed : int;
  cells_hit : int;  (* Ok cells served entirely from the cache *)
  cells_miss : int;
  trials_reused : int;
  trials_run : int;
}

let totals (r : result) : totals =
  let count kind =
    List.length (List.filter (fun c -> status_kind c.status = kind) r.cells)
  in
  let caches =
    List.filter_map
      (fun c -> match c.status with Ok ok -> Some ok.cache | _ -> None)
      r.cells
  in
  let sum f =
    List.fold_left (fun n (c : Core.Memo.stats) -> n + f c) 0 caches
  in
  let hit (c : Core.Memo.stats) = if c.Core.Memo.trials_run = 0 then 1 else 0 in
  {
    requested = List.length r.cells;
    ok = count "ok";
    skipped = count "skipped";
    failed = count "failed";
    cells_hit = sum hit;
    cells_miss = sum (fun c -> 1 - hit c);
    trials_reused = sum (fun c -> c.Core.Memo.trials_reused);
    trials_run = sum (fun c -> c.Core.Memo.trials_run);
  }

let failed (cells : cell list) =
  List.filter_map
    (fun c ->
      match c.status with Failed m -> Some (cell_label c.cell, m) | _ -> None)
    cells

let failures (r : result) = failed r.cells
let any_failed (r : result) = failures r <> []

(* One diagnostic string for the fail-fast surface of any cell list —
   shared verbatim by the CLI's non-zero exit message and the daemon's
   typed [Failed] response. [None] when every cell is ok or skipped. *)
let cells_failures_message (cells : cell list) : string option =
  match failed cells with
  | [] -> None
  | fs ->
    Some
      (Printf.sprintf "%d matrix cell(s) failed:\n%s" (List.length fs)
         (String.concat "\n"
            (List.map (fun (l, m) -> "  " ^ l ^ ": " ^ m) fs)))

let failures_message (r : result) = cells_failures_message r.cells

(* ------------------------------------------------------------------ *)
(* Anomaly clustering: recurring oddities across the sweep, ranked by
   occurrence count. Each anomaly carries a stable signature (the
   cluster key), a human explanation, and up to 3 example cells. *)

type anomaly = {
  signature : string;
  detail : string;
  occurrences : int;
  examples : string list;  (* at most 3 cell labels, spec order *)
}

let max_examples = 3

let anomalies (r : result) : anomaly list =
  let ok_cells =
    List.filter_map
      (fun c -> match c.status with Ok ok -> Some (c.cell, ok) | _ -> None)
      r.cells
  in
  (* Per-cell findings, in spec order: (signature, detail, label). *)
  let direct =
    List.concat_map
      (fun c ->
        let label = cell_label c.cell in
        match c.status with
        | Failed m -> [ ("failed-cell", m, label) ]
        | Skipped _ ->
          [
            ( "empty-pool",
              "no injectable instructions under this policy's tag mask",
              label );
          ]
        | Ok ok ->
          let s = ok.summary in
          List.filter_map
            (fun (found, signature, detail) ->
              if found then Some (signature, detail, label) else None)
            [
              ( Core.Campaign.errors_capped s,
                "errors-capped",
                "injectable pool smaller than the request; fault plans \
                 were truncated" );
              ( c.cell.policy = Core.Policy.Protect_control
                && Core.Campaign.pct_catastrophic s > 0.0,
                "protected-catastrophic",
                "catastrophic outcomes survive control protection" );
              ( Core.Campaign.n s > 0 && Core.Campaign.completed s = 0,
                "no-completions",
                "every trial crashed or hung; fidelity unmeasurable" );
            ])
      r.cells
  in
  (* Catastrophic-rate outliers: within each policy's Ok cells (groups
     of at least 4, so the spread is meaningful), flag cells more than
     two standard deviations above the group mean. *)
  let outliers =
    List.concat_map
      (fun policy ->
        let group =
          List.filter (fun ((c : cell_spec), _) -> c.policy = policy) ok_cells
        in
        let n = List.length group in
        if n < 4 then []
        else
          let rates =
            List.map
              (fun (_, ok) -> Core.Campaign.pct_catastrophic ok.summary)
              group
          in
          let mean = List.fold_left ( +. ) 0.0 rates /. float_of_int n in
          let var =
            List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 rates
            /. float_of_int n
          in
          let sd = sqrt var in
          if sd <= 0.0 then []
          else
            List.filter_map
              (fun ((c : cell_spec), ok) ->
                let rate = Core.Campaign.pct_catastrophic ok.summary in
                if rate > mean +. (2.0 *. sd) then
                  Some
                    ( "catastrophic-outlier",
                      Printf.sprintf
                        "rate > mean + 2 sigma among %s cells (mean %.1f%%, \
                         sd %.1f%%)"
                        (Core.Policy.to_string policy) mean sd,
                      cell_label c )
                else None)
              group)
      (dedup (List.map (fun ((c : cell_spec), _) -> c.policy) ok_cells))
  in
  let findings = direct @ outliers in
  (* Cluster by signature (first detail wins as the cluster's detail —
     details within a signature differ only for failed-cell, where the
     examples carry the specifics anyway). *)
  let sigs = dedup (List.map (fun (s, _, _) -> s) findings) in
  let clusters =
    List.map
      (fun signature ->
        let members =
          List.filter (fun (s, _, _) -> s = signature) findings
        in
        let detail =
          match members with (_, d, _) :: _ -> d | [] -> assert false
        in
        let examples =
          List.filteri (fun i _ -> i < max_examples)
            (List.map (fun (_, _, l) -> l) members)
        in
        { signature; detail; occurrences = List.length members; examples })
      sigs
  in
  List.sort
    (fun a b ->
      match compare b.occurrences a.occurrences with
      | 0 -> compare a.signature b.signature
      | c -> c)
    clusters

(* ------------------------------------------------------------------ *)
(* Report tables *)

let miss s = Report.Missing s

let to_table (r : result) : Report.table =
  Report.table ~id:"matrix"
    ~title:
      (Printf.sprintf "Matrix sweep (%s mode, seed %d, %d trials/cell)"
         (Experiment.mode_name r.spec.mode)
         r.spec.seed r.spec.trials)
    ~columns:
      [
        Report.column ~key:"app" "app";
        Report.column ~key:"policy" "policy";
        Report.column ~key:"errors" "errors";
        Report.column ~key:"status" "status";
        Report.column ~key:"note" "note";
        Report.column ~key:"pool" "pool";
        Report.column ~key:"errors_planned" "planned";
        Report.column ~key:"pct_catastrophic" "% catastrophic";
        Report.column ~key:"crashes" "crashes";
        Report.column ~key:"infinite" "infinite";
        Report.column ~key:"completed" "completed";
        Report.column ~key:"mean_fidelity" "mean fidelity";
        Report.column ~key:"trials_reused" "reused";
        Report.column ~key:"trials_run" "run";
      ]
    (List.map
       (fun { cell = c; status } ->
         [ Report.text c.app;
           Report.text (Core.Policy.to_string c.policy);
           Report.int c.errors;
           Report.text (status_kind status) ]
         @
         match status with
         | Ok ok ->
           let s = ok.summary in
           [
             Report.text "";
             Report.int ok.pool;
             Report.int s.Core.Campaign.errors_planned;
             Report.pct (Core.Campaign.pct_catastrophic s);
             Report.int (Core.Campaign.crashes s);
             Report.int (Core.Campaign.infinite s);
             Report.int (Core.Campaign.completed s);
             Report.opt ~missing:"n/a"
               (fun f -> Report.num ~text:(Printf.sprintf "%.1f" f) f)
               (Core.Campaign.mean_fidelity s);
             Report.int ok.cache.Core.Memo.trials_reused;
             Report.int ok.cache.Core.Memo.trials_run;
           ]
         | Skipped reason ->
           Report.text reason :: Report.int 0 :: List.init 8 (fun _ -> miss "-")
         | Failed err -> Report.text err :: List.init 9 (fun _ -> miss "-"))
       r.cells)

let anomaly_table (r : result) : Report.table =
  let rows = anomalies r in
  Report.table ~id:"matrix_anomalies" ~title:"Anomaly clusters (ranked)"
    ~columns:
      [
        Report.column ~key:"signature" "signature";
        Report.column ~key:"occurrences" "occurrences";
        Report.column ~key:"examples" "examples";
        Report.column ~key:"detail" "detail";
      ]
    (List.map
       (fun a ->
         [
           Report.text a.signature;
           Report.int a.occurrences;
           Report.text (String.concat ", " a.examples);
           Report.text a.detail;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Report meta: the invocation-parameter block of a matrix report,
   built by [Request.run] for `etap matrix --json` and the serve daemon
   alike. [spec_meta] is the pre-run half (also the obs-stream meta);
   [report_meta] appends the sweep's cache/status accounting.
   [cache_dir] is the store's root, null without one. The [engine] and
   [checkpoint_stride] keys are the constants every sweep runs with. *)

let spec_meta ~jobs ~cache_dir (s : spec) : (string * Report.Json.t) list =
  let open Report.Json in
  [
    ("apps", Arr (List.map (fun a -> Str a) s.apps));
    ( "policies",
      Arr (List.map (fun p -> Str (Core.Policy.to_string p)) s.policies) );
    ("errors", Arr (List.map (fun e -> Int e) s.errors));
    ("trials", Int s.trials);
    ("seed", Int s.seed);
    ("literal", Bool (s.mode = Experiment.Literal));
    ("engine", Str (Sim.Interp.engine_name Sim.Interp.Fast));
    ("jobs", of_int_opt jobs);
    ("checkpoint_stride", Null);
    ("cache_dir", match cache_dir with Some d -> Str d | None -> Null);
  ]

let report_meta ~jobs ~cache_dir (r : result) : (string * Report.Json.t) list =
  let t = totals r in
  spec_meta ~jobs ~cache_dir r.spec
  @ [
      ("cells_requested", Report.Json.Int t.requested);
      ("cells_ok", Report.Json.Int t.ok);
      ("cells_skipped", Report.Json.Int t.skipped);
      ("cells_failed", Report.Json.Int t.failed);
      ("cells_hit", Report.Json.Int t.cells_hit);
      ("cells_miss", Report.Json.Int t.cells_miss);
      ("trials_reused", Report.Json.Int t.trials_reused);
      ("trials_run", Report.Json.Int t.trials_run);
    ]

(* ------------------------------------------------------------------ *)
(* Spec parsing: a small JSON spec file overrides the CLI-derived base
   spec field by field. Unknown policy/app names surface as [Error]
   here (a malformed spec is a usage error, not a cell failure). *)

let policy_of_string = function
  | "control" | "protect-control" -> Stdlib.Ok Core.Policy.Protect_control
  | "nothing" | "protect-nothing" -> Stdlib.Ok Core.Policy.Protect_nothing
  | "all" | "protect-all" -> Stdlib.Ok Core.Policy.Protect_all
  | s -> Stdlib.Error (Printf.sprintf "unknown policy %S" s)

let spec_of_json ~(base : spec) (j : Report.Json.t) :
    (spec, string) Stdlib.result =
  let open Report.Json in
  let ( let* ) = Result.bind in
  (* [elem] reads one array element, [None] when it has the wrong type. *)
  let list name what elem =
    let expected = "an array of " ^ what in
    let bad = Stdlib.Error ("expected " ^ expected) in
    let elems xs =
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          let* v = Option.value (elem x) ~default:bad in
          Stdlib.Ok (acc @ [ v ]))
        (Stdlib.Ok []) xs
    in
    field ~expected (function Arr xs -> Some (elems xs) | _ -> None) j name
  in
  match j with
  | Obj _ ->
    let str conv = function Str s -> Some (conv s) | _ -> None in
    Result.map_error (( ^ ) "spec ")
      (let* apps = list "apps" "strings" (str Result.ok) base.apps in
       let* policies =
         list "policies" "strings" (str policy_of_string) base.policies
       in
       let* errors =
         list "errors" "ints"
           (function Int i -> Some (check_errors i) | _ -> None)
           base.errors
       in
       let* trials = field_int ~check:check_trials j "trials" base.trials in
       let* seed = field_int j "seed" base.seed in
       let* literal = field_bool j "literal" (base.mode = Experiment.Literal) in
       Stdlib.Ok
         { apps; mode = Experiment.mode_of_literal literal; policies; errors;
           trials; seed })
  | _ -> Stdlib.Error "matrix spec: expected a JSON object"
