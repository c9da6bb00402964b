(* Matrix sweep runner (Harness.Matrix).

   The load-bearing properties:
   - every requested cell appears in the result, in spec order, with a
     typed status — unknown apps fail, empty injectable pools skip,
     nothing silently disappears;
   - an Ok cell's summary is bit-identical to the equivalent standalone
     campaign (the `etap inject --incremental` configuration: campaign
     seed = spec seed + 100, app scorer against the mode's golden);
   - a warm re-run of an unchanged spec is served entirely from the
     cache and composes the same summaries;
   - the report tables carry one row per cell and the anomaly table
     clusters what the sweep surfaced. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let fresh_cache_dir () =
  incr dir_counter;
  let d = Printf.sprintf "_matrix_test_cache_%d" !dir_counter in
  rm_rf d;
  d

let with_store f =
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Core.Memo.Store.open_ dir))

let summary_core (s : Core.Campaign.summary) =
  ( s.Core.Campaign.trials,
    s.Core.Campaign.stats,
    s.Core.Campaign.errors_requested,
    s.Core.Campaign.errors_planned )

let statuses_of (r : Harness.Matrix.result) =
  List.map
    (fun (c : Harness.Matrix.cell) ->
      Harness.Matrix.status_kind c.Harness.Matrix.status)
    r.Harness.Matrix.cells

(* ------------------------- cell statuses --------------------------- *)

let test_statuses () =
  let spec =
    {
      Harness.Matrix.apps = [ "gsm"; "adpcm"; "nope" ];
      mode = Harness.Experiment.Full;
      policies = [ Core.Policy.Protect_control; Core.Policy.Protect_all ];
      errors = [ 1; 2 ];
      trials = 4;
      seed = 1;
    }
  in
  with_store @@ fun store ->
  let r = Harness.Matrix.run ~jobs:2 ~store spec in
  (* Cross product, spec order: app-major, then policy, then errors. *)
  Alcotest.(check int) "every requested cell present" 12
    (List.length r.Harness.Matrix.cells);
  Alcotest.(check (list string))
    "typed status per cell, in spec order"
    [
      (* gsm: control runnable, protect-all pool is empty *)
      "ok"; "ok"; "skipped"; "skipped";
      (* adpcm: control pool is empty (no eligible control data) *)
      "skipped"; "skipped"; "skipped"; "skipped";
      (* unknown app: every cell fails, none vanish *)
      "failed"; "failed"; "failed"; "failed";
    ]
    (statuses_of r);
  Alcotest.(check bool) "failed cells flag the sweep" true
    (Harness.Matrix.any_failed r);
  Alcotest.(check int) "failures enumerated" 4
    (List.length (Harness.Matrix.failures r));
  let t = Harness.Matrix.totals r in
  Alcotest.(check int) "totals: requested" 12 t.Harness.Matrix.requested;
  Alcotest.(check int) "totals: ok" 2 t.Harness.Matrix.ok;
  Alcotest.(check int) "totals: skipped" 6 t.Harness.Matrix.skipped;
  Alcotest.(check int) "totals: failed" 4 t.Harness.Matrix.failed;
  (* Anomaly clustering surfaces both oddities, ranked by count. *)
  let anomalies = Harness.Matrix.anomalies r in
  let find s =
    List.find_opt (fun a -> a.Harness.Matrix.signature = s) anomalies
  in
  (match find "empty-pool" with
   | Some a ->
     Alcotest.(check int) "empty-pool occurrences" 6
       a.Harness.Matrix.occurrences;
     Alcotest.(check bool) "examples capped at 3" true
       (List.length a.Harness.Matrix.examples <= 3)
   | None -> Alcotest.fail "no empty-pool anomaly cluster");
  (match find "failed-cell" with
   | Some a ->
     Alcotest.(check int) "failed-cell occurrences" 4
       a.Harness.Matrix.occurrences
   | None -> Alcotest.fail "no failed-cell anomaly cluster");
  (match anomalies with
   | first :: _ ->
     Alcotest.(check string) "ranked by occurrences" "empty-pool"
       first.Harness.Matrix.signature
   | [] -> Alcotest.fail "no anomalies at all")

(* -------------- bit-identity vs standalone campaigns --------------- *)

(* The standalone equivalent of one matrix cell: exactly what
   `etap inject` runs for (app, policy, errors, trials) — same loaded
   context, same scorer. [seed] is the cell's campaign seed, which
   [cells_of_spec] already offset from the spec seed by 100, as `etap
   inject` offsets its --seed. *)
let standalone (l : Harness.Experiment.loaded) ~mode ~policy ~errors ~trials
    ~seed =
  let b = l.Harness.Experiment.built in
  let target = l.Harness.Experiment.target mode in
  let golden = target.Core.Campaign.baseline in
  let score r = b.Apps.App.score ~golden r in
  let p = l.Harness.Experiment.prepared mode policy in
  Core.Campaign.run ~jobs:1 ~score p ~errors ~trials ~seed

let test_bit_identity_and_warm () =
  let seed = 3 and trials = 6 in
  let spec =
    {
      Harness.Matrix.apps = [ "gsm" ];
      mode = Harness.Experiment.Full;
      policies = [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ];
      errors = [ 1; 5 ];
      trials;
      seed;
    }
  in
  with_store @@ fun store ->
  let cold = Harness.Matrix.run ~jobs:2 ~store spec in
  Alcotest.(check bool) "no failures" false (Harness.Matrix.any_failed cold);
  Alcotest.(check (list int)) "campaign seed = spec seed + 100"
    [ seed + 100 ]
    (Harness.Matrix.dedup
       (List.map
          (fun (c : Harness.Matrix.cell) ->
            c.Harness.Matrix.cell.Harness.Matrix.seed)
          cold.Harness.Matrix.cells));
  let l =
    Harness.Experiment.load ~seed
      (Option.get (Apps.Registry.find "gsm"))
  in
  List.iter
    (fun (c : Harness.Matrix.cell) ->
      let cs = c.Harness.Matrix.cell in
      match c.Harness.Matrix.status with
      | Harness.Matrix.Ok ok ->
        let mono =
          standalone l ~mode:cs.Harness.Matrix.mode
            ~policy:cs.Harness.Matrix.policy ~errors:cs.Harness.Matrix.errors
            ~trials:cs.Harness.Matrix.trials ~seed:cs.Harness.Matrix.seed
        in
        Alcotest.(check bool)
          (Harness.Matrix.cell_label cs
          ^ ": summary bit-identical to standalone campaign")
          true
          (compare (summary_core mono)
             (summary_core ok.Harness.Matrix.summary)
          = 0)
      | _ ->
        Alcotest.fail
          (Harness.Matrix.cell_label cs ^ ": expected an Ok cell"))
    cold.Harness.Matrix.cells;
  (* Warm re-run of the unchanged spec: everything from the cache, and
     the composed summaries match the cold run's bit-for-bit. *)
  let warm = Harness.Matrix.run ~jobs:2 ~store spec in
  let tw = Harness.Matrix.totals warm in
  Alcotest.(check int) "warm: every Ok cell fully cached" 4
    tw.Harness.Matrix.cells_hit;
  Alcotest.(check int) "warm: no trials executed" 0
    tw.Harness.Matrix.trials_run;
  Alcotest.(check int) "warm: all trials reused" (4 * trials)
    tw.Harness.Matrix.trials_reused;
  List.iter2
    (fun (a : Harness.Matrix.cell) (b : Harness.Matrix.cell) ->
      match (a.Harness.Matrix.status, b.Harness.Matrix.status) with
      | Harness.Matrix.Ok x, Harness.Matrix.Ok y ->
        Alcotest.(check bool)
          (Harness.Matrix.cell_label a.Harness.Matrix.cell
          ^ ": warm summary identical to cold")
          true
          (compare
             (summary_core x.Harness.Matrix.summary)
             (summary_core y.Harness.Matrix.summary)
          = 0)
      | _ -> Alcotest.fail "warm run changed a cell's status")
    cold.Harness.Matrix.cells warm.Harness.Matrix.cells

(* A sweep's results cannot depend on how its work was scheduled: the
   same spec with the apps reversed (which reverses cell order), at any
   job count, gives every cell the same trial records and the same
   matrix.* / memo.* counters. Each run starts from an empty store. *)
let test_schedule_independent () =
  let spec =
    {
      Harness.Matrix.apps = [ "gsm"; "adpcm"; "blowfish" ];
      mode = Harness.Experiment.Full;
      policies = [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ];
      errors = [ 1; 5 ];
      trials = 5;
      seed = 2;
    }
  in
  let observe jobs (s : Harness.Matrix.spec) =
    with_store @@ fun store ->
    let sink = Obs.make () in
    let r = Obs.with_sink sink (fun () -> Harness.Matrix.run ~jobs ~store s) in
    let cells =
      List.map
        (fun (c : Harness.Matrix.cell) ->
          ( Harness.Matrix.cell_label c.Harness.Matrix.cell,
            match c.Harness.Matrix.status with
            | Harness.Matrix.Ok ok ->
              Ok ok.Harness.Matrix.summary.Core.Campaign.trials
            | st -> Error (Harness.Matrix.status_kind st) ))
        r.Harness.Matrix.cells
      |> List.sort compare
    in
    let counters =
      List.filter
        (fun (k, _) ->
          String.starts_with ~prefix:"matrix." k
          || String.starts_with ~prefix:"memo." k)
        (Obs.view sink).Obs.counters
    in
    (cells, counters)
  in
  let ref_cells, ref_counters = observe 1 spec in
  Alcotest.(check bool) "reference run has Ok cells" true
    (List.exists (fun (_, c) -> Result.is_ok c) ref_cells);
  Alcotest.(check bool) "reference run has memo counters" true
    (List.mem_assoc "memo.trials_run" ref_counters);
  List.iter
    (fun (jobs, s, what) ->
      let cells, counters = observe jobs s in
      let name = Printf.sprintf "jobs=%d %s" jobs what in
      Alcotest.(check (list string))
        (name ^ ": same cells") (List.map fst ref_cells) (List.map fst cells);
      List.iter2
        (fun (label, a) (_, b) ->
          Alcotest.(check bool)
            (name ^ ": " ^ label ^ " trial records identical")
            true
            (compare a b = 0))
        ref_cells cells;
      Alcotest.(check (list (pair string int)))
        (name ^ ": matrix.*/memo.* counters") ref_counters counters)
    (List.concat_map
       (fun jobs ->
         [
           (jobs, spec, "spec order");
           ( jobs,
             {
               spec with
               Harness.Matrix.apps = List.rev spec.Harness.Matrix.apps;
             },
             "apps reversed" );
         ])
       [ 1; 2; 4 ]
    |> List.tl (* the first is the reference run itself *))

(* Matrix cells and `inject --incremental` share cache keys: a matrix
   cold run must leave the store so a direct Memo.run of the same cell
   is served without executing anything. *)
let test_cache_shared_with_inject () =
  let seed = 3 and trials = 5 and errors = 2 in
  let spec =
    {
      Harness.Matrix.apps = [ "adpcm" ];
      mode = Harness.Experiment.Full;
      policies = [ Core.Policy.Protect_nothing ];
      errors = [ errors ];
      trials;
      seed;
    }
  in
  with_store @@ fun store ->
  let r = Harness.Matrix.run ~jobs:1 ~store spec in
  Alcotest.(check (list string)) "one ok cell" [ "ok" ] (statuses_of r);
  let l =
    Harness.Experiment.load ~seed
      (Option.get (Apps.Registry.find "adpcm"))
  in
  let b = l.Harness.Experiment.built in
  let target = l.Harness.Experiment.target Harness.Experiment.Full in
  let golden = target.Core.Campaign.baseline in
  let score r = b.Apps.App.score ~golden r in
  let p =
    l.Harness.Experiment.prepared Harness.Experiment.Full
      Core.Policy.Protect_nothing
  in
  let s, st =
    Core.Memo.run ~jobs:1 ~score ~salt:"adpcm" ~store p ~errors ~trials
      ~seed:(seed + 100)
  in
  Alcotest.(check int) "inject path: everything reused" 0
    st.Core.Memo.trials_run;
  match r.Harness.Matrix.cells with
  | [ { Harness.Matrix.status = Harness.Matrix.Ok ok; _ } ] ->
    Alcotest.(check bool) "inject path: identical summary" true
      (compare (summary_core s) (summary_core ok.Harness.Matrix.summary) = 0)
  | _ -> Alcotest.fail "expected exactly one ok cell"

(* ------------------- experiments as cell lists --------------------- *)

(* One mixed cell list — Table 2, Figure 3 and audit cells over mcf and
   adpcm, plus a campaign cell on adpcm's empty protect-control pool —
   run without a store. The results cannot depend on [jobs], and each
   cell equals the point-at-a-time entry the paper-repro benchmark
   calls for it. *)
let test_runner_differential () =
  let named =
    Harness.Matrix.load_known ~jobs:1 ~load:(Harness.Experiment.load ~seed:1)
      [ "mcf"; "adpcm" ]
  in
  let loaded = List.map snd named in
  let trials = 3 in
  let table2 = Harness.Table2.plan ~trials loaded in
  let cells =
    table2
    @ List.filter
        (fun (c : Harness.Matrix.cell_spec) -> c.Harness.Matrix.errors <= 20)
        (Harness.Figures.plan ~trials (Harness.Figures.by_id "fig3"))
    @ Harness.Taxonomy.audit_plan ~errors:2 ~trials ~seed:41
        ~mode:Harness.Experiment.Full [ "mcf"; "adpcm" ]
    @ [
        Harness.Matrix.make_cell ~mode:Harness.Experiment.Full
          ~policy:Core.Policy.Protect_control ~errors:2 ~trials ~seed:5
          "adpcm";
      ]
  in
  let r1 = Harness.Matrix.collect ~jobs:1 ~loaded:named cells in
  let r2 = Harness.Matrix.collect ~jobs:2 ~loaded:named cells in
  let kinds =
    List.map (fun (c : Harness.Matrix.cell) ->
        Harness.Matrix.status_kind c.Harness.Matrix.status)
  in
  Alcotest.(check (list string)) "statuses" (kinds r1) (kinds r2);
  Alcotest.(check bool) "an empty pool is skipped" true
    (List.mem "skipped" (kinds r1));
  Alcotest.(check bool) "jobs 1 and 2 give identical cells" true
    (compare r1 r2 = 0);
  List.iter
    (fun (c : Harness.Matrix.cell) ->
      let cs = c.Harness.Matrix.cell in
      let { Harness.Matrix.app; mode; policy; errors; trials; seed; kind } =
        cs
      in
      let l = Harness.Experiment.find loaded app in
      let label = Harness.Matrix.cell_label cs in
      match kind with
      | Harness.Matrix.Audit ->
        let direct =
          Core.Audit.run ~jobs:1 (l.Harness.Experiment.prepared mode policy)
            ~errors ~trials ~seed
        in
        Alcotest.(check bool) (label ^ ": = Core.Audit.run") true
          (compare (Harness.Taxonomy.audit_report c) direct = 0)
      | Harness.Matrix.Campaign ->
        let p = Harness.Matrix.point l c in
        let direct =
          Harness.Experiment.sweep_point ~jobs:1 l ~mode ~policy ~errors
            ~trials ~seed
        in
        Alcotest.(check bool) (label ^ ": = Experiment.sweep_point") true
          (compare p direct = 0);
        if List.mem cs table2 then
          Alcotest.(check (float 0.0))
            (label ^ ": = Experiment.pct_catastrophic")
            (Harness.Experiment.pct_catastrophic ~jobs:1 l ~mode ~policy
               ~errors ~trials ~seed)
            p.Harness.Experiment.pct_failed)
    r1

(* A reproduction of two figures is one collect over both plans: the
   run records one [matrix.run] span, and each table, as text and as
   JSON, is the one the figure's reproduction alone renders. *)
let test_reproduce_one_collect () =
  let tables experiments =
    match
      Harness.Request.run
        (Harness.Request.local ~jobs:2 ())
        (Harness.Request.Reproduce { experiments; quick = true })
    with
    | Some rep, None ->
      List.map
        (fun t ->
          ( Report.to_text t,
            Report.Json.to_compact_string (Report.table_json t) ))
        rep.Report.tables
    | _ -> Alcotest.fail "reproduce failed"
  in
  let sink = Obs.make () in
  let both = Obs.with_sink sink (fun () -> tables [ "fig3"; "fig6" ]) in
  Alcotest.(check int) "one matrix.run span" 1
    (List.length
       (List.filter
          (fun s -> s.Obs.sp_name = "matrix.run")
          (Obs.view sink).Obs.spans));
  Alcotest.(check (list (pair string string)))
    "each table = its experiment alone"
    (tables [ "fig3" ] @ tables [ "fig6" ])
    both

(* Figures read their own app's cells only, so a reproduction of
   figures alone loads just those apps; Table 3 reads every app. *)
let test_reproduce_loads_wanted () =
  let loads experiments =
    let seen = Atomic.make [] in
    let rec note name =
      let l = Atomic.get seen in
      if not (Atomic.compare_and_set seen l (name :: l)) then note name
    in
    let env =
      {
        (Harness.Request.local ~jobs:2 ()) with
        Harness.Request.load =
          (fun ~seed app ->
            note app.Apps.App.name;
            Harness.Experiment.load ~seed app);
      }
    in
    (match
       Harness.Request.run env
         (Harness.Request.Reproduce { experiments; quick = true })
     with
     | Some _, None -> ()
     | _ -> Alcotest.fail "reproduce failed");
    List.sort compare (Atomic.get seen)
  in
  Alcotest.(check (list string)) "fig3 and fig6 load mcf and art"
    [ "art"; "mcf" ] (loads [ "fig3"; "fig6" ]);
  Alcotest.(check (list string)) "table3 loads every app"
    (List.sort compare Apps.Registry.names)
    (loads [ "fig6"; "table3" ])

(* --------------------------- reporting ----------------------------- *)

let test_report_tables () =
  let spec =
    {
      Harness.Matrix.apps = [ "adpcm"; "nope" ];
      mode = Harness.Experiment.Full;
      policies = [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ];
      errors = [ 1 ];
      trials = 3;
      seed = 1;
    }
  in
  with_store @@ fun store ->
  let r = Harness.Matrix.run ~jobs:1 ~store spec in
  let table = Harness.Matrix.to_table r in
  Alcotest.(check int) "one row per requested cell" 4
    (List.length table.Report.rows);
  let rendered = Report.to_text table in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec go i =
      i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true (contains needle))
    [ "adpcm"; "skipped"; "failed"; "empty injectable pool" ];
  let anomaly_table = Harness.Matrix.anomaly_table r in
  Alcotest.(check bool) "anomaly table non-empty" true
    (anomaly_table.Report.rows <> [])

(* --------------------------- spec JSON ----------------------------- *)

let test_spec_of_json () =
  let base = Harness.Matrix.default_spec in
  let parse s =
    match Report.Json.of_string s with
    | Ok j -> Harness.Matrix.spec_of_json ~base j
    | Error e -> Alcotest.failf "JSON parse failed: %s" e
  in
  (match
     parse
       {|{"apps": ["gsm"], "policies": ["control", "all"],
          "errors": [2, 7], "trials": 9, "seed": 4, "literal": true}|}
   with
   | Ok s ->
     Alcotest.(check (list string)) "apps" [ "gsm" ] s.Harness.Matrix.apps;
     Alcotest.(check int) "policies" 2
       (List.length s.Harness.Matrix.policies);
     Alcotest.(check (list int)) "errors" [ 2; 7 ] s.Harness.Matrix.errors;
     Alcotest.(check int) "trials" 9 s.Harness.Matrix.trials;
     Alcotest.(check int) "seed" 4 s.Harness.Matrix.seed;
     Alcotest.(check bool) "literal" true
       (s.Harness.Matrix.mode = Harness.Experiment.Literal)
   | Error e -> Alcotest.failf "spec rejected: %s" e);
  (* Absent fields fall back to the base spec. *)
  (match parse {|{"trials": 2}|} with
   | Ok s ->
     Alcotest.(check int) "trials overridden" 2 s.Harness.Matrix.trials;
     Alcotest.(check (list int)) "errors defaulted"
       base.Harness.Matrix.errors s.Harness.Matrix.errors;
     Alcotest.(check bool) "apps defaulted" true
       (s.Harness.Matrix.apps = base.Harness.Matrix.apps)
   | Error e -> Alcotest.failf "partial spec rejected: %s" e);
  (* Malformed specs are usage errors, not cell failures. *)
  (match parse {|{"policies": ["bogus"]}|} with
   | Ok _ -> Alcotest.fail "bogus policy accepted"
   | Error _ -> ());
  (match parse {|[1, 2]|} with
   | Ok _ -> Alcotest.fail "non-object spec accepted"
   | Error _ -> ());
  (* Campaign sizes: errors >= 0 (0 is the fault-free point), trials
     >= 1; anything else is a parse error, never a cell. *)
  (match parse {|{"errors": [0, 3], "trials": 1}|} with
   | Ok s ->
     Alcotest.(check (list int)) "errors 0 accepted" [ 0; 3 ]
       s.Harness.Matrix.errors
   | Error e -> Alcotest.failf "errors 0 rejected: %s" e);
  List.iter
    (fun bad ->
      match parse bad with
      | Ok _ -> Alcotest.failf "out-of-range spec accepted: %s" bad
      | Error _ -> ())
    [
      {|{"errors": [-3]}|};
      {|{"errors": [1, -1]}|};
      {|{"trials": -2}|};
      {|{"trials": 0}|};
    ]

let test_make_cell () =
  let make ~errors ~trials =
    Harness.Matrix.make_cell ~mode:Harness.Experiment.Full
      ~policy:Core.Policy.Protect_control ~errors ~trials ~seed:1 "gsm"
  in
  let c = make ~errors:0 ~trials:1 in
  Alcotest.(check int) "errors 0 accepted" 0 c.Harness.Matrix.errors;
  Alcotest.(check bool) "campaign kind by default" true
    (c.Harness.Matrix.kind = Harness.Matrix.Campaign);
  List.iter
    (fun (errors, trials) ->
      match make ~errors ~trials with
      | _ -> Alcotest.failf "cell e=%d t=%d accepted" errors trials
      | exception Invalid_argument _ -> ())
    [ (-3, 4); (2, 0); (2, -2) ]

let () =
  Alcotest.run "matrix"
    [
      ( "statuses",
        [ Alcotest.test_case "typed status per requested cell" `Quick
            test_statuses ] );
      ( "equivalence",
        [
          Alcotest.test_case "cells bit-identical to standalone + warm rerun"
            `Quick test_bit_identity_and_warm;
          Alcotest.test_case "cache shared with inject --incremental" `Quick
            test_cache_shared_with_inject;
          Alcotest.test_case "schedule-independent over jobs and cell order"
            `Quick test_schedule_independent;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "mixed cell list = point-at-a-time, any jobs"
            `Quick test_runner_differential;
          Alcotest.test_case "reproduce collects once, renders as alone"
            `Quick test_reproduce_one_collect;
          Alcotest.test_case "reproduce loads only the wanted apps" `Quick
            test_reproduce_loads_wanted;
        ] );
      ( "reporting",
        [ Alcotest.test_case "tables carry every cell" `Quick
            test_report_tables ] );
      ( "spec",
        [
          Alcotest.test_case "JSON spec parsing" `Quick test_spec_of_json;
          Alcotest.test_case "cell constructor range rule" `Quick
            test_make_cell;
        ] );
    ]
