(* Reproduction driver: regenerates every table and figure of the paper
   (printed as text tables with the paper's own numbers alongside) and
   runs the ablations and extensions from DESIGN.md.

   Usage:
     dune exec bench/main.exe                 # everything, default size
     dune exec bench/main.exe -- table2 fig4  # selected experiments
     dune exec bench/main.exe -- --quick      # reduced trial counts
     dune exec bench/main.exe -- --jobs 8     # campaign trials on 8 domains

   Experiments: table2 table3 fig1..fig6 (or figures) ablation extensions.
   For JSON reports, Chrome traces or metrics of the same experiments,
   use `etap table2|table3|figure|ablation` with --json, --trace or
   --metrics; the repository's benchmark is etapbench/.

   All campaigns are deterministic for a fixed seed and for any --jobs
   value: trial RNGs derive from the trial index, so the domain fan-out
   cannot change results. *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

let section title =
  say "";
  say "%s" (String.make 72 '=');
  say "%s" title;
  say "%s" (String.make 72 '=')

(* Wall-time ledger for the console trailer. *)
let experiment_times : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  experiment_times := !experiment_times @ [ (name, Unix.gettimeofday () -. t0) ];
  r

(* ------------------------------------------------------------------ *)
(* Experiments.                                                        *)

let run_table2 ~trials ?jobs loaded =
  section "Table 2 — catastrophic failures with/without control protection";
  let rows = timed "table2" (fun () -> Harness.Table2.run ~trials ?jobs loaded) in
  say "%s" (Harness.Table2.render rows);
  section "Fault-flow taxonomy (dynamic taint audit)";
  let mode = Harness.Experiment.Full in
  let audit =
    timed "fault_flow" (fun () ->
        Harness.Taxonomy.audit ~trials ?jobs ~mode loaded)
  in
  say "%s" (Harness.Taxonomy.render_audit ~mode audit)

let run_table3 ?jobs loaded =
  section "Table 3 — % of dynamic instructions tagged low-reliability";
  let rows = timed "table3" (fun () -> Harness.Table3.run ?jobs loaded) in
  say "%s" (Harness.Table3.render rows)

let run_figures ~trials ?jobs ~which loaded =
  List.iter
    (fun (f : Harness.Figures.figure) ->
      let id = f.Harness.Figures.id in
      if which id then begin
        section (String.uppercase_ascii id);
        let r =
          timed id (fun () -> Harness.Figures.run ~trials ?jobs loaded f)
        in
        say "%s" (Harness.Figures.render r)
      end)
    Harness.Figures.figures

let run_extensions ~trials ?jobs loaded =
  section "Cost model — selective vs uniform protection (paper Sec. 5.3)";
  let cost =
    timed "cost_model" (fun () ->
        Harness.Cost_model.run ?jobs ~mode:Harness.Experiment.Literal loaded)
  in
  say "%s" (Harness.Cost_model.render ~mode:Harness.Experiment.Literal cost);
  section "Fault outcome taxonomy (benign / degraded / catastrophic)";
  let tax =
    timed "taxonomy" (fun () ->
        Harness.Taxonomy.run ~trials ?jobs ~mode:Harness.Experiment.Literal
          loaded)
  in
  say "%s" (Harness.Taxonomy.render ~mode:Harness.Experiment.Literal tax)

let run_ablations ~trials ?jobs loaded =
  section "Ablation A — address protection";
  let a =
    timed "ablation_address" (fun () ->
        Harness.Ablation.address ~trials ?jobs loaded)
  in
  say "%s" (Harness.Ablation.render_address a);
  section "Ablation B — programmer eligibility marking";
  let b =
    timed "ablation_eligibility" (fun () ->
        Harness.Ablation.eligibility ~trials ?jobs ())
  in
  say "%s" (Harness.Ablation.render_eligibility b)

(* ------------------------------------------------------------------ *)

let experiments =
  [ "table2"; "table3"; "figures"; "ablation"; "extensions" ]
  @ List.map (fun (f : Harness.Figures.figure) -> f.Harness.Figures.id)
      Harness.Figures.figures

let usage_and_exit msg =
  prerr_endline msg;
  prerr_endline "usage: main.exe [--quick] [--jobs N | -j N] [EXPERIMENT...]";
  prerr_endline ("experiments: " ^ String.concat " " experiments);
  exit 2

let () =
  let rec parse (quick, jobs, rest) = function
    | [] -> (quick, jobs, List.rev rest)
    | "--quick" :: tl -> parse (true, jobs, rest) tl
    | ("--jobs" | "-j") :: n :: tl ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> parse (quick, Some j, rest) tl
       | _ -> usage_and_exit ("bad --jobs value: " ^ n))
    | [ ("--jobs" | "-j") ] -> usage_and_exit "--jobs needs a value"
    | a :: tl when List.mem a experiments -> parse (quick, jobs, a :: rest) tl
    | a :: _ -> usage_and_exit ("unknown experiment or flag: " ^ a)
  in
  let quick, jobs, args =
    parse (false, None, []) (List.tl (Array.to_list Sys.argv))
  in
  let trials = if quick then 8 else 20 in
  let t2_trials = if quick then 10 else 25 in
  let want name =
    args = [] || List.mem name args
    || (String.length name > 3
       && String.sub name 0 3 = "fig"
       && List.mem "figures" args)
  in
  let t0 = Unix.gettimeofday () in
  say "building applications and baselines... (jobs=%s)"
    (match jobs with
     | Some j -> string_of_int j
     | None -> Printf.sprintf "auto:%d" (Core.Pool.default_jobs ()));
  let loaded =
    timed "load_apps" (fun () -> Harness.Experiment.load_all ?jobs ())
  in
  if want "table2" then run_table2 ~trials:t2_trials ?jobs loaded;
  if want "table3" then run_table3 ?jobs loaded;
  run_figures ~trials ?jobs ~which:want loaded;
  if want "ablation" then run_ablations ~trials ?jobs loaded;
  if want "extensions" then run_extensions ~trials ?jobs loaded;
  say "";
  List.iter
    (fun (name, secs) -> say "  %-28s %7.2f s" name secs)
    !experiment_times;
  say "total wall time: %.1f s" (Unix.gettimeofday () -. t0)
