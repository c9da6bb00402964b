(* Spec-driven sweep runner: apps x policies x error counts, every cell
   routed through the campaign result cache (Core.Memo).

   Shape of a run (see DESIGN.md §16):

   1. each distinct app loads/compiles ONCE, loads fanned over the
      domain pool;
   2. each distinct (app, policy) with a non-empty injectable pool is
      prepared once, and its section partition (Memo.sections_of) is
      computed once and shared by every error-count cell on it;
   3. cells fan out over the pool with inner [~jobs:1] (the pool runs
      jobs=1 work inline on the calling domain, so campaigns inside
      pool workers never nest domain spawns);
   4. every cell gets a typed status — [Ok] with its summary and cache
      stats, [Skipped] with a reason, or [Failed] with the error — so
      a sweep never yields silent partial results.

   Cells use campaign seed [spec.seed + 100] and the app's own scorer
   against the mode's golden baseline: exactly the configuration of
   [etap inject --incremental], so a matrix cell's summary is
   bit-identical to the equivalent standalone run and the two share
   cache entries. *)

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

type cell_spec = {
  app : string;
  mode : Experiment.mode;
  policy : Core.Policy.t;
  errors : int;
  trials : int;
  seed : int;
}

type cell_ok = {
  summary : Core.Campaign.summary;
  cache : Core.Memo.stats;
  pool : int;  (* injectable pool size under the cell's tag mask *)
  fidelity_units : string;
}

(* The cell status model: one constructor per requested cell, always.
   [Skipped] is for cells that are structurally not runnable (empty
   injectable pool — nothing to inject into); [Failed] captures any
   exception a cell raised. A single [Failed] cell makes the whole
   sweep exit non-zero (see bin/etap.ml). *)
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
              {
                app;
                mode = s.mode;
                policy;
                errors;
                trials = s.trials;
                seed = s.seed;
              })
            s.errors)
        s.policies)
    s.apps

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* Shared per-cell execution path. Both schedulers — the one-shot sweep
   below and the serve daemon's executor — route cells through here, so
   a cell's summary cannot depend on who scheduled it. [lookup] resolves
   an app name to its loaded context (None = unknown app, a Failed
   cell); [prepared_of] resolves (app, policy) to the injectable pool
   size and, for non-empty pools, the prepared target plus its shared
   section partition. [memo_fanout] forwards to {!Core.Memo.run}'s
   external-scheduler entry; without it the cell's missed trials fan
   out through [Core.Pool] at [jobs] — from inside a pool job, a nested
   batch on the same executor. *)
let exec_cell ?jobs
    ~(lookup : string -> Experiment.loaded option)
    ~(prepared_of :
       string ->
       Core.Policy.t ->
       int * (Core.Campaign.prepared * Analysis.Section.t) option)
    ?memo_fanout ~(store : Core.Memo.Store.t) (c : cell_spec) : status =
  match lookup c.app with
  | None -> Failed (Printf.sprintf "unknown application %S" c.app)
  | Some l -> (
    match prepared_of c.app c.policy with
    | 0, _ | _, None -> Skipped "empty injectable pool"
    | pool, Some (p, sections) ->
      let b = l.Experiment.built in
      let target = l.Experiment.target c.mode in
      let golden = target.Core.Campaign.baseline in
      let score r = b.Apps.App.score ~golden r in
      let summary, cache =
        Core.Memo.run ?jobs ?fanout:memo_fanout ~score ~salt:c.app
          ~sections ~store p ~errors:c.errors ~trials:c.trials
          ~seed:(c.seed + 100)
      in
      Ok { summary; cache; pool; fidelity_units = b.Apps.App.fidelity_units })

(* [exec_cell] under the typed-status contract: any exception a cell
   raises becomes its [Failed] status, and every cell records a
   [matrix.cell] span. *)
let run_cell ?jobs ~lookup ~prepared_of ?memo_fanout ~store (c : cell_spec) :
    status =
  let t0 = Obs.span_begin () in
  let status =
    try exec_cell ?jobs ~lookup ~prepared_of ?memo_fanout ~store c
    with e -> Failed (Printexc.to_string e)
  in
  Obs.span_end ~name:"matrix.cell" ~cat:"matrix"
    ~args:[ ("cell", cell_label c); ("status", status_kind status) ]
    t0;
  status

(* Cell-status counters, recorded on the calling domain after
   collection so they are jobs-invariant like every other counter in
   the tree. A cell is a "hit" when the cache served every one of its
   trials. *)
let record_counters (cells : cell list) =
  List.iter
    (fun { status; _ } ->
      match status with
      | Ok ok ->
        if ok.cache.Core.Memo.trials_run = 0 then Obs.count "matrix.cells_hit" 1
        else Obs.count "matrix.cells_miss" 1
      | Skipped _ -> Obs.count "matrix.cells_skipped" 1
      | Failed _ -> Obs.count "matrix.cells_failed" 1)
    cells

let run ?jobs ~(store : Core.Memo.Store.t) (s : spec) : result =
  let t_run = Unix.gettimeofday () in
  let sp = Obs.span_begin () in
  let cells = cells_of_spec s in
  (* Load each distinct known app exactly once, loads fanned across
     the pool. Unknown names never load — their cells fail below. *)
  let names = dedup s.apps in
  let known =
    List.filter_map
      (fun n ->
        Option.map (fun a -> (n, a)) (Apps.Registry.find n))
      names
  in
  let t_load = Unix.gettimeofday () in
  let loaded =
    Core.Pool.map_list ?jobs
      (fun (n, app) -> (n, Experiment.load ~seed:s.seed app))
      known
  in
  let load_s = Unix.gettimeofday () -. t_load in
  (* Prepare each distinct (app, policy) once — but only when its
     injectable pool is non-empty. Empty-pool combos (e.g. protect-all,
     or adpcm under protect-control) skip the checkpointing pass and
     engine compilation entirely; their cells report [Skipped]. The
     section partition is computed here, once per prepared target, and
     shared by every error-count cell on that target. *)
  let pool_of (l : Experiment.loaded) policy =
    let t = l.Experiment.target s.mode in
    Core.Campaign.injectable_pool t (Core.Tagging.mask t.Core.Campaign.tagging policy)
  in
  let combos =
    dedup
      (List.filter_map
         (fun (c : cell_spec) ->
           if List.mem_assoc c.app loaded then Some (c.app, c.policy) else None)
         cells)
  in
  let prepared_tbl = Hashtbl.create 16 in
  Core.Pool.map_list ?jobs
    (fun (name, policy) ->
      let l = List.assoc name loaded in
      let pool = pool_of l policy in
      let v =
        if pool = 0 then None
        else
          let p = l.Experiment.prepared s.mode policy in
          Some (p, Core.Memo.sections_of p)
      in
      ((name, policy), (pool, v)))
    combos
  |> List.iter (fun (k, v) -> Hashtbl.replace prepared_tbl k v);
  (* Fan the cells over the pool, and each cell's missed trials too:
     the trials are a batch nested in the cell's job, claimed by any
     free domain, so the sweep balances per trial whatever the cell
     order. Concurrent cells share [store]; overlapping keys are safe
     (atomic publish, last rename wins, identical content either way). *)
  let lookup name = List.assoc_opt name loaded in
  let prepared_of name policy = Hashtbl.find prepared_tbl (name, policy) in
  let statuses =
    Core.Pool.map_list ?jobs (run_cell ?jobs ~lookup ~prepared_of ~store) cells
  in
  let cells = List.map2 (fun cell status -> { cell; status }) cells statuses in
  record_counters cells;
  Obs.span_end ~name:"matrix.run" ~cat:"matrix"
    ~args:[ ("cells", string_of_int (List.length cells)) ]
    sp;
  { spec = s; cells; load_s; wall_s = Unix.gettimeofday () -. t_run }

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
  List.fold_left
    (fun t { status; _ } ->
      match status with
      | Ok ok ->
        let c = ok.cache in
        {
          t with
          ok = t.ok + 1;
          cells_hit =
            (t.cells_hit + if c.Core.Memo.trials_run = 0 then 1 else 0);
          cells_miss =
            (t.cells_miss + if c.Core.Memo.trials_run = 0 then 0 else 1);
          trials_reused = t.trials_reused + c.Core.Memo.trials_reused;
          trials_run = t.trials_run + c.Core.Memo.trials_run;
        }
      | Skipped _ -> { t with skipped = t.skipped + 1 }
      | Failed _ -> { t with failed = t.failed + 1 })
    {
      requested = List.length r.cells;
      ok = 0;
      skipped = 0;
      failed = 0;
      cells_hit = 0;
      cells_miss = 0;
      trials_reused = 0;
      trials_run = 0;
    }
    r.cells

let any_failed (r : result) =
  List.exists (fun c -> match c.status with Failed _ -> true | _ -> false) r.cells

let failures (r : result) =
  List.filter_map
    (fun c ->
      match c.status with Failed m -> Some (cell_label c.cell, m) | _ -> None)
    r.cells

(* One diagnostic string for the fail-fast surface — shared verbatim by
   the CLI's non-zero exit message and the daemon's typed [Failed]
   response. [None] when every cell is ok or skipped. *)
let failures_message (r : result) : string option =
  match failures r with
  | [] -> None
  | fs ->
    Some
      (Printf.sprintf "%d matrix cell(s) failed:\n%s" (List.length fs)
         (String.concat "\n"
            (List.map (fun (l, m) -> "  " ^ l ^ ": " ^ m) fs)))

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
          (if Core.Campaign.errors_capped s then
             [
               ( "errors-capped",
                 "injectable pool smaller than the request; fault plans \
                  were truncated",
                 label );
             ]
           else [])
          @ (if
               c.cell.policy = Core.Policy.Protect_control
               && Core.Campaign.pct_catastrophic s > 0.0
             then
               [
                 ( "protected-catastrophic",
                   "catastrophic outcomes survive control protection",
                   label );
               ]
             else [])
          @
          if Core.Campaign.n s > 0 && Core.Campaign.completed s = 0 then
            [
              ( "no-completions",
                "every trial crashed or hung; fidelity unmeasurable",
                label );
            ]
          else [])
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
           [
             Report.text reason;
             Report.int 0;
             miss "-"; miss "-"; miss "-"; miss "-"; miss "-"; miss "-";
             miss "-"; miss "-";
           ]
         | Failed err ->
           [
             Report.text err;
             miss "-"; miss "-"; miss "-"; miss "-"; miss "-"; miss "-";
             miss "-"; miss "-"; miss "-";
           ])
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
   shared by `etap matrix --json` and the serve daemon so the two
   emit identical documents for identical work. [spec_meta] is the
   pre-run half (also the obs-stream meta); [report_meta] appends the
   sweep's cache/status accounting. The [engine] and
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
    ("cache_dir", Str cache_dir);
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
  let str_list field conv default =
    match member field j with
    | None -> Stdlib.Ok default
    | Some (Arr xs) ->
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          match x with
          | Str s ->
            let* v = conv s in
            Stdlib.Ok (acc @ [ v ])
          | _ ->
            Stdlib.Error
              (Printf.sprintf "spec field %S: expected an array of strings"
                 field))
        (Stdlib.Ok []) xs
    | Some _ ->
      Stdlib.Error
        (Printf.sprintf "spec field %S: expected an array of strings" field)
  in
  let int_list field default =
    match member field j with
    | None -> Stdlib.Ok default
    | Some (Arr xs) ->
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          match x with
          | Int i -> Stdlib.Ok (acc @ [ i ])
          | _ ->
            Stdlib.Error
              (Printf.sprintf "spec field %S: expected an array of ints" field))
        (Stdlib.Ok []) xs
    | Some _ ->
      Stdlib.Error
        (Printf.sprintf "spec field %S: expected an array of ints" field)
  in
  let int field default =
    match member field j with
    | None -> Stdlib.Ok default
    | Some (Int i) -> Stdlib.Ok i
    | Some _ ->
      Stdlib.Error (Printf.sprintf "spec field %S: expected an int" field)
  in
  match j with
  | Obj _ ->
    let* apps = str_list "apps" (fun s -> Stdlib.Ok s) base.apps in
    let* policies = str_list "policies" policy_of_string base.policies in
    let* errors = int_list "errors" base.errors in
    let* trials = int "trials" base.trials in
    let* seed = int "seed" base.seed in
    let* mode =
      match member "literal" j with
      | None -> Stdlib.Ok base.mode
      | Some (Bool true) -> Stdlib.Ok Experiment.Literal
      | Some (Bool false) -> Stdlib.Ok Experiment.Full
      | Some _ -> Stdlib.Error "spec field \"literal\": expected a bool"
    in
    Stdlib.Ok { apps; mode; policies; errors; trials; seed }
  | _ -> Stdlib.Error "matrix spec: expected a JSON object"
