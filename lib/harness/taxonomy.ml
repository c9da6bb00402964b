(* Outcome taxonomy of injected faults, the classic fault-injection
   breakdown the paper's data implies but never tabulates:

   - benign: the run completed with output indistinguishable from the
     fault-free run (the fault was masked by the application);
   - degraded: completed, but the fidelity measure moved — a silent
     data corruption the application tolerates by design;
   - catastrophic: crash or infinite execution.

   Computed per application at a fixed error count under
   [Protect_control]; a benign trial is one whose fidelity equals the
   golden run's self-score (within epsilon). *)

type row = {
  app_name : string;
  errors : int;
  n : int;
  pct_benign : float;
  pct_degraded : float;
  pct_catastrophic : float;
}

let epsilon = 1e-9

let run ?(errors = 10) ?(trials = 30) ?(seed = 41) ?jobs
    ~(mode : Experiment.mode) (loaded : Experiment.loaded list) : row list =
  let cell (l : Experiment.loaded) =
    Matrix.make_cell ~mode ~policy:Core.Policy.Protect_control ~errors ~trials
      ~seed l.Experiment.app.Apps.App.name
  in
  let point = Matrix.points ?jobs loaded (List.map cell loaded) in
  List.map
    (fun (l : Experiment.loaded) ->
      let p = point (cell l) in
      let golden = l.Experiment.golden in
      let self_score = l.Experiment.built.Apps.App.score ~golden golden in
      let benign =
        List.length
          (List.filter
             (fun f -> Float.abs (f -. self_score) < epsilon)
             p.Experiment.fidelities)
      in
      let n = p.Experiment.n in
      let pct x = 100.0 *. float_of_int x /. float_of_int (max 1 n) in
      {
        app_name = l.Experiment.app.Apps.App.name;
        errors;
        n;
        pct_benign = pct benign;
        pct_degraded = pct (p.Experiment.stats.Core.Stats.completed - benign);
        pct_catastrophic = p.Experiment.pct_failed;
      })
    loaded

let to_table ~(mode : Experiment.mode) rows : Report.table =
  let errors = match rows with [] -> 0 | r :: _ -> r.errors in
  Report.table ~id:"taxonomy"
    ~title:
      (Printf.sprintf
         "Fault outcome taxonomy at %d errors (protection ON, %s tagging): \
          benign / degraded / catastrophic"
         errors
         (Experiment.mode_name mode))
    ~columns:
      [
        Report.column ~key:"app" "app";
        Report.column ~key:"pct_benign" "% benign (masked)";
        Report.column ~key:"pct_degraded" "% degraded";
        Report.column ~key:"pct_catastrophic" "% catastrophic";
      ]
    (List.map
       (fun r ->
         [
           Report.text r.app_name;
           Report.pct r.pct_benign;
           Report.pct r.pct_degraded;
           Report.pct r.pct_catastrophic;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Fault-flow taxonomy: the shadow-taint audit (DESIGN §11), per app
   under the two informative policies. [Protect_control] carries the
   soundness invariant (zero memory-free control contamination);
   [Protect_nothing] is the positive control whose contamination shows
   the taint machinery actually observes faults reaching branches. *)

let audit_policies = [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ]

(* The audit's cell list: one audit cell per app and audit policy. An
   app the registry does not know makes failed cells, as in a sweep. *)
let audit_plan ~errors ~trials ~seed ~mode (apps : string list) :
    Matrix.cell_spec list =
  List.concat_map
    (fun app ->
      List.map
        (fun policy ->
          Matrix.make_cell ~kind:Matrix.Audit ~mode ~policy ~errors ~trials
            ~seed app)
        audit_policies)
    apps

(* An audit cell's report. A skipped cell (empty injectable pool) ran
   nothing: every trial is fault-free. A failed cell raises. *)
let audit_report (c : Matrix.cell) : Core.Audit.report =
  let s = c.Matrix.cell in
  match c.Matrix.status with
  | Matrix.Ok ok -> Option.get ok.Matrix.audit
  | Matrix.Skipped _ ->
    Core.Audit.fault_free ~policy:s.Matrix.policy ~errors:s.Matrix.errors
      ~trials:s.Matrix.trials ~seed:s.Matrix.seed
  | Matrix.Failed m -> failwith (Matrix.cell_label s ^ ": " ^ m)

(* The audit of apps already loaded: its plan, collected cells. *)
let audit ?(errors = 10) ?(trials = 30) ?(seed = 41) ?jobs
    ~(mode : Experiment.mode) (loaded : Experiment.loaded list) :
    Matrix.cell list =
  Matrix.run_cells ?jobs loaded
    (audit_plan ~errors ~trials ~seed ~mode
       (List.map (fun (l : Experiment.loaded) -> l.Experiment.app.Apps.App.name)
          loaded))

(* One row per audit cell; a failed cell's row is dashes and the
   verdict "failed". *)
let audit_table ~(mode : Experiment.mode) (cells : Matrix.cell list) :
    Report.table =
  let errors, trials =
    match cells with [] -> (0, 0) | c :: _ -> (c.cell.errors, c.cell.trials)
  in
  Report.table ~id:"audit"
    ~title:
      (Printf.sprintf
         "Fault-flow taxonomy at %d errors x %d trials (%s tagging): \
          trial counts per taint class, control-contamination events, \
          soundness verdict"
         errors trials
         (Experiment.mode_name mode))
    ~columns:
      [
        Report.column ~key:"app" "app";
        Report.column ~key:"policy" "policy";
        Report.column ~key:"vanished" "vanished";
        Report.column ~key:"data_only" "data";
        Report.column ~key:"reached_memory" "mem";
        Report.column ~key:"reached_address" "addr";
        Report.column ~key:"reached_control" "ctl";
        Report.column ~key:"ctl_free_events" "ctl-free";
        Report.column ~key:"ctl_via_mem_events" "ctl-via-mem";
        Report.column ~key:"verdict" "verdict";
      ]
    (List.map
       (fun (c : Matrix.cell) ->
         let s = c.Matrix.cell in
         Report.text s.Matrix.app
         :: Report.text (Core.Policy.to_string s.Matrix.policy)
         ::
         (match c.Matrix.status with
          | Matrix.Failed _ ->
            List.init 7 (fun _ -> Report.Missing "-") @ [ Report.text "failed" ]
          | _ ->
            let rep = audit_report c in
            let f = rep.Core.Audit.stats.Core.Stats.flows in
            [
              Report.count f.Core.Stats.vanished;
              Report.count f.Core.Stats.data_only;
              Report.count f.Core.Stats.reached_memory;
              Report.count f.Core.Stats.reached_address;
              Report.count f.Core.Stats.reached_control;
              Report.count rep.Core.Audit.control_free;
              Report.count rep.Core.Audit.control_via_memory;
              Report.text
                (match rep.Core.Audit.policy with
                 | Core.Policy.Protect_nothing -> "n/a"
                 | _ -> if Core.Audit.sound rep then "sound" else "VIOLATED");
            ]))
       cells)

(* The cells that ran and broke the soundness invariant. *)
let audit_violations (cells : Matrix.cell list) =
  List.filter
    (fun (c : Matrix.cell) ->
      match c.status with
      | Failed _ -> false
      | _ -> not (Core.Audit.sound (audit_report c)))
    cells

let render_audit ~(mode : Experiment.mode) (cells : Matrix.cell list) =
  let bad = audit_violations cells in
  Report.to_text (audit_table ~mode cells)
  ^ "\n\n"
  ^
  if bad = [] then
    "invariant holds: no memory-free control contamination under \
     protect-control in any trial"
  else
    String.concat "\n"
      (List.map
         (fun (c : Matrix.cell) ->
           Printf.sprintf "VIOLATION %s %s" c.Matrix.cell.Matrix.app
             (Core.Audit.describe (audit_report c)))
         bad)
