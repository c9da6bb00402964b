(* Tests for the experiment harness: table rendering via the report
   layer, experiment loading, sweeps and the tables' shapes on small
   trial counts. *)

let test_table_text () =
  let t =
    Report.table ~id:"t" ~title:"T"
      ~columns:[ Report.column "a"; Report.column "bb" ]
      [
        [ Report.int 1; Report.int 2 ];
        [ Report.text "333"; Report.pct 12.34 ];
      ]
  in
  let s = Report.to_text t in
  Alcotest.(check bool) "title" true (String.length s > 0);
  (* every row line has the same width *)
  let lines = String.split_on_char '\n' s in
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 && l.[0] = '|' then Some (String.length l) else None)
      lines
  in
  (match widths with
   | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest
   | [] -> Alcotest.fail "no rows");
  Alcotest.(check bool) "pct formats as in the tables" true
    (let rec has_sub i =
       i + 5 <= String.length s && (String.sub s i 5 = "12.3%" || has_sub (i + 1))
     in
     has_sub 0)

let loaded =
  lazy (Harness.Experiment.load ~seed:1 (Option.get (Apps.Registry.find "mcf")))

(* Both modes share one target but for its tagging: one baseline run
   per app. *)
let test_experiment_load () =
  let l = Lazy.force loaded in
  let t_full = l.Harness.Experiment.target Harness.Experiment.Full in
  let t_lit = l.Harness.Experiment.target Harness.Experiment.Literal in
  Alcotest.(check bool) "code shared" true
    (t_full.Core.Campaign.code == t_lit.Core.Campaign.code);
  Alcotest.(check bool) "baseline shared" true
    (t_full.Core.Campaign.baseline == t_lit.Core.Campaign.baseline);
  Alcotest.(check bool) "proto shared" true
    (t_full.Core.Campaign.proto == t_lit.Core.Campaign.proto);
  Alcotest.(check bool) "golden is the shared baseline" true
    (l.Harness.Experiment.golden == t_lit.Core.Campaign.baseline);
  let mask (t : Core.Campaign.target) =
    Core.Tagging.mask t.Core.Campaign.tagging Core.Policy.Protect_control
  in
  Alcotest.(check bool) "tagging differs" true (mask t_full <> mask t_lit);
  (* memoization: same target back *)
  Alcotest.(check bool) "memoized" true
    (l.Harness.Experiment.target Harness.Experiment.Full == t_full
    && l.Harness.Experiment.target Harness.Experiment.Literal == t_lit)

(* A campaign on the shared Literal target gives the records of one on
   a target built on its own. *)
let test_literal_target_standalone () =
  let app = Option.get (Apps.Registry.find "gsm") in
  let l = Harness.Experiment.load ~seed:1 app in
  let standalone =
    Core.Campaign.of_prog ~protect_addresses:false
      l.Harness.Experiment.built.Apps.App.prog
  in
  let records p =
    (Core.Campaign.run p ~errors:10 ~trials:5 ~seed:11).Core.Campaign.trials
  in
  let ctl = Core.Policy.Protect_control in
  Alcotest.(check bool) "identical records" true
    (records (l.Harness.Experiment.prepared Harness.Experiment.Literal ctl)
    = records (Core.Campaign.prepare standalone ctl))

(* Two domains forcing different modes of a fresh load: both finish
   (the Literal target does not re-enter a held memo lock) and agree
   with the same configurations forced one after the other. *)
let test_concurrent_first_use () =
  let app = Option.get (Apps.Registry.find "adpcm") in
  let lit = (Harness.Experiment.Literal, Core.Policy.Protect_control)
  and full = (Harness.Experiment.Full, Core.Policy.Protect_nothing) in
  let force l (m, p) = l.Harness.Experiment.prepared m p in
  let l = Harness.Experiment.load ~seed:1 app in
  let d1 = Domain.spawn (fun () -> force l lit)
  and d2 = Domain.spawn (fun () -> force l full) in
  let concurrent = [ Domain.join d1; Domain.join d2 ] in
  let l' = Harness.Experiment.load ~seed:1 app in
  let sequential = [ force l' lit; force l' full ] in
  List.iter2
    (fun (c : Core.Campaign.prepared) (s : Core.Campaign.prepared) ->
      Alcotest.(check bool) "tags" true
        (c.Core.Campaign.tags = s.Core.Campaign.tags);
      Alcotest.(check int) "injectable pool" s.Core.Campaign.injectable_total
        c.Core.Campaign.injectable_total;
      let records p =
        (Core.Campaign.run p ~errors:3 ~trials:4 ~seed:5).Core.Campaign.trials
      in
      Alcotest.(check bool) "records" true (records c = records s))
    concurrent sequential

(* A keep-all [Core.Once] table over one build function, as
   [Experiment.load] keeps its prepared targets. *)
let memo f =
  let t = Core.Once.create All in
  fun k -> fst (Core.Once.get t k (fun () -> f k))

(* Per-key memo slots: two domains forcing different keys of one memo
   build at the same time. Each build waits (up to 5 s) on a latch the
   other one opens, so under one lock held across every build the
   first would time out alone. Each key still builds once. *)
let test_memo_keys_overlap () =
  let arrived = Atomic.make 0 and builds = Atomic.make 0 in
  let memo =
    memo (fun k ->
        Atomic.incr builds;
        Atomic.incr arrived;
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        (k, Atomic.get arrived >= 2))
  in
  let d1 = Domain.spawn (fun () -> memo 1)
  and d2 = Domain.spawn (fun () -> memo 2) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "builds overlapped" true (snd r1 && snd r2);
  Alcotest.(check bool) "cached" true (memo 1 == r1 && memo 2 == r2);
  Alcotest.(check int) "one build per key" 2 (Atomic.get builds)

(* A raising build caches nothing: the next caller builds again. *)
let test_memo_failure_uncached () =
  let calls = ref 0 in
  let memo =
    memo (fun k ->
        incr calls;
        if !calls = 1 then failwith "build failed" else k)
  in
  Alcotest.check_raises "first build raises" (Failure "build failed")
    (fun () -> ignore (memo 3));
  Alcotest.(check int) "second build" 3 (memo 3);
  Alcotest.(check int) "then cached" 3 (memo 3);
  Alcotest.(check int) "two builds" 2 !calls

let test_sweep_zero_errors_is_clean () =
  let l = Lazy.force loaded in
  let p =
    Harness.Experiment.sweep_point l ~mode:Harness.Experiment.Full
      ~policy:Core.Policy.Protect_control ~errors:0 ~trials:3 ~seed:1
  in
  Alcotest.(check (float 0.0)) "no failures at 0 errors" 0.0
    p.Harness.Experiment.pct_failed;
  Alcotest.(check (option (float 0.0))) "perfect fidelity at 0 errors"
    (Some 100.0) p.Harness.Experiment.mean_fidelity

let test_table3_shape () =
  (* table 3 needs only baselines; run it on two apps *)
  let loaded =
    List.filter_map
      (fun n -> Option.map (Harness.Experiment.load ~seed:1) (Apps.Registry.find n))
      [ "mcf"; "adpcm" ]
  in
  let rows = Harness.Table3.run loaded in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Harness.Table3.row) ->
      Alcotest.(check bool) "literal >= full" true
        (r.Harness.Table3.pct_low_literal >= r.Harness.Table3.pct_low_full);
      Alcotest.(check bool) "percent bounds" true
        (r.Harness.Table3.pct_low_literal >= 0.0
        && r.Harness.Table3.pct_low_literal <= 100.0))
    rows;
  Alcotest.(check bool) "renders" true
    (String.length (Report.to_text (Harness.Table3.to_table rows)) > 0)

let test_figure_render () =
  (* structural check on a tiny synthetic figure result *)
  let point errors =
    {
      Harness.Experiment.errors;
      n = 2;
      pct_failed = 0.0;
      mean_fidelity = Some 50.0;
      fidelities = [ 50.0; 50.0 ];
      stats = Core.Stats.empty;
    }
  in
  let r =
    {
      Harness.Figures.id = "figX";
      title = "X";
      fidelity_name = "f";
      series =
        [ { Harness.Figures.label = "s"; points = [ point 0; point 5 ] } ];
    }
  in
  let s = Report.to_text (Harness.Figures.to_table r) in
  Alcotest.(check bool) "has error rows" true
    (String.length s > 0
    && String.split_on_char '\n' s
       |> List.exists (fun l -> String.length l > 2 && l.[0] = '|' && l.[2] = '5'))

let test_ablation_eligibility_rows () =
  (* tiny trial counts: checks structure and the pool ordering *)
  let rows = Harness.Ablation.eligibility ~errors:2 ~trials:3 () in
  Alcotest.(check int) "three configurations" 3 (List.length rows);
  match rows with
  | [ none; kernel; everything ] ->
    Alcotest.(check int) "nothing eligible -> empty pool" 0
      none.Harness.Ablation.pool;
    Alcotest.(check bool) "kernel pool nonempty" true
      (kernel.Harness.Ablation.pool > 0);
    Alcotest.(check bool) "everything >= kernel" true
      (everything.Harness.Ablation.pool >= kernel.Harness.Ablation.pool)
  | _ -> Alcotest.fail "unexpected rows"

let test_cost_model_math () =
  Alcotest.(check (float 1e-9)) "p=0 no speedup" 1.0
    (Harness.Cost_model.speedup ~k:3.0 ~p:0.0);
  Alcotest.(check (float 1e-9)) "p=1 full speedup" 3.0
    (Harness.Cost_model.speedup ~k:3.0 ~p:1.0);
  Alcotest.(check (float 1e-9)) "half exposed, k=2" (4.0 /. 3.0)
    (Harness.Cost_model.speedup ~k:2.0 ~p:0.5);
  Alcotest.(check bool) "monotone in p" true
    (Harness.Cost_model.speedup ~k:3.0 ~p:0.8
    > Harness.Cost_model.speedup ~k:3.0 ~p:0.2)

let test_cost_model_rows () =
  let rows =
    Harness.Cost_model.run ~mode:Harness.Experiment.Literal
      [ Lazy.force loaded ]
  in
  match rows with
  | [ r ] ->
    Alcotest.(check bool) "speedups within [1,k]" true
      (r.Harness.Cost_model.speedup_dmr >= 1.0
      && r.Harness.Cost_model.speedup_dmr <= 2.0
      && r.Harness.Cost_model.speedup_tmr >= 1.0
      && r.Harness.Cost_model.speedup_tmr <= 3.0)
  | _ -> Alcotest.fail "one row expected"

let test_taxonomy_sums_to_100 () =
  let l = Lazy.force loaded in
  let mode = Harness.Experiment.Literal and errors = 2 and trials = 8 in
  let cells =
    Harness.Matrix.collect ~loaded:[ ("mcf", l) ]
      (Harness.Taxonomy.plan ~errors ~trials ~mode [ l ])
  in
  let rows =
    Harness.Taxonomy.rows ~errors ~trials ~mode [ l ]
      (Harness.Matrix.find cells)
  in
  match rows with
  | [ r ] ->
    Alcotest.(check (float 0.5)) "partitions the trials" 100.0
      (r.Harness.Taxonomy.pct_benign +. r.Harness.Taxonomy.pct_degraded
      +. r.Harness.Taxonomy.pct_catastrophic)
  | _ -> Alcotest.fail "one row expected"

(* The fault-site profile tallies its own trials: the same rows at any
   jobs value, and rows that account for every landed fault — the
   campaign.faults_landed counter its trials record, and, class by
   class, the records of the same campaign run by [Campaign.run]. *)
let profile ?jobs () =
  Harness.Profile.run ~errors:10 ~trials:8 ~seed:7 ?jobs
    ~mode:Harness.Experiment.Full (Lazy.force loaded)

let test_profile_jobs_invariant () =
  let p1 = profile ~jobs:1 () and p2 = profile ~jobs:2 () in
  Alcotest.(check bool) "sites found" true (p1.Harness.Profile.rows <> []);
  Alcotest.(check bool) "rows at jobs 1 = rows at jobs 2" true
    (p1.Harness.Profile.rows = p2.Harness.Profile.rows);
  Alcotest.(check string) "rendered alike"
    (Harness.Profile.render p1) (Harness.Profile.render p2)

let test_profile_totals () =
  let sink = Obs.make () in
  let p = Obs.with_sink sink (fun () -> profile ~jobs:2 ()) in
  let rows = p.Harness.Profile.rows in
  let sum f = List.fold_left (fun n r -> n + f r) 0 rows in
  Alcotest.(check (option int)) "row totals = campaign.faults_landed"
    (List.assoc_opt "campaign.faults_landed" (Obs.view sink).Obs.counters)
    (Some (sum (fun r -> r.Harness.Profile.total)));
  Alcotest.(check int) "faults_total = row totals"
    (sum (fun r -> r.Harness.Profile.total))
    p.Harness.Profile.faults_total;
  let s =
    Core.Campaign.run ~jobs:2
      ((Lazy.force loaded).Harness.Experiment.prepared Harness.Experiment.Full
         Core.Policy.Protect_nothing)
      ~errors:10 ~trials:8 ~seed:7
  in
  let landed keep =
    List.fold_left
      (fun n (t : Core.Campaign.trial) ->
        if keep t.Core.Campaign.outcome then n + t.Core.Campaign.faults_landed
        else n)
      0 s.Core.Campaign.trials
  in
  let is_crash = function Core.Outcome.Crash _ -> true | _ -> false in
  Alcotest.(check bool) "trials of two classes" true
    (landed (( = ) Core.Outcome.Infinite) > 0
    && landed (( = ) Core.Outcome.Completed) > 0);
  Alcotest.(check int) "crash column = faults of crashed trials"
    (landed is_crash) (sum (fun r -> r.Harness.Profile.crash));
  Alcotest.(check int) "infinite column = faults of timed-out trials"
    (landed (( = ) Core.Outcome.Infinite))
    (sum (fun r -> r.Harness.Profile.infinite));
  Alcotest.(check int) "completed column = faults of completed trials"
    (landed (( = ) Core.Outcome.Completed))
    (sum (fun r -> r.Harness.Profile.completed))

let () =
  Alcotest.run "harness"
    [
      ("table text", [ Alcotest.test_case "render" `Quick test_table_text ]);
      ( "experiment",
        [
          Alcotest.test_case "load and memoize" `Quick test_experiment_load;
          Alcotest.test_case "literal target = standalone" `Quick
            test_literal_target_standalone;
          Alcotest.test_case "concurrent first use" `Quick
            test_concurrent_first_use;
          Alcotest.test_case "zero errors clean" `Quick
            test_sweep_zero_errors_is_clean;
          Alcotest.test_case "memo builds distinct keys at once" `Quick
            test_memo_keys_overlap;
          Alcotest.test_case "memo caches no failed build" `Quick
            test_memo_failure_uncached;
        ] );
      ( "tables",
        [ Alcotest.test_case "table 3 shape" `Quick test_table3_shape ] );
      ("figures", [ Alcotest.test_case "render" `Quick test_figure_render ]);
      ( "cost model",
        [
          Alcotest.test_case "math" `Quick test_cost_model_math;
          Alcotest.test_case "rows" `Quick test_cost_model_rows;
        ] );
      ( "taxonomy",
        [ Alcotest.test_case "partition" `Quick test_taxonomy_sums_to_100 ] );
      ( "ablation",
        [
          Alcotest.test_case "eligibility rows" `Quick
            test_ablation_eligibility_rows;
        ] );
      ( "profile",
        [
          Alcotest.test_case "rows identical at jobs 1 and 2" `Quick
            test_profile_jobs_invariant;
          Alcotest.test_case "row totals = campaign.faults_landed" `Quick
            test_profile_totals;
        ] );
    ]
