(* Paper Figures 1-6: fidelity and failure rate versus the number of
   errors inserted. Each figure is a set of sweeps over one
   application; series are printed as text tables (one row per error
   count).

   Sweeps run under the Literal tagging mode (the paper's Section-3
   rules): its injectable pool has the same composition as the paper's
   — dominated by mid-chain arithmetic whose corruption perturbs
   results gently — and the figures' own "Failures" series corresponds
   to the residual catastrophic rate that mode exhibits. Axes follow
   the paper's figures. *)

type series = {
  label : string;
  points : Experiment.sweep_point list;
}

type result = {
  id : string;
  title : string;
  fidelity_name : string;
  series : series list;
}

let find = Experiment.find

(* One paper figure: sweeps of one application over an error axis, one
   series per protection policy. *)
type figure = {
  id : string;
  app : string;
  errors_axis : int list;
  policies : (string * Core.Policy.t) list;  (* series label, policy *)
  seed : int;
  title : string;
  fidelity_name : string;
}

let figures =
  let on = ("analysis ON", Core.Policy.Protect_control)
  and off = ("analysis OFF", Core.Policy.Protect_nothing) in
  let fig id app errors_axis ?(policies = [ on ]) ?(seed = 23) title
      fidelity_name =
    { id; app; errors_axis; policies; seed; title; fidelity_name }
  in
  [
    fig "fig1" "susan" [ 0; 100; 550; 920; 1100; 1550; 2300 ]
      ~policies:[ on; off ] ~seed:21
      "Figure 1: Susan — PSNR of edge map vs errors inserted"
      "PSNR (dB); threshold 10 dB";
    fig "fig2" "mpeg" [ 0; 50; 150; 300; 500 ]
      "Figure 2: MPEG — % bad frames and % failed runs vs errors"
      "% bad frames (threshold 10%)";
    fig "fig3" "mcf" [ 0; 1; 5; 20; 50; 150; 300 ]
      "Figure 3: MCF — % optimal schedules and % failed runs vs errors"
      "schedule quality (100 = optimal)";
    fig "fig4" "blowfish" [ 0; 5; 10; 20; 30; 40 ]
      "Figure 4: Blowfish — % bytes correct and % failed runs vs errors"
      "% bytes correct";
    fig "fig5" "gsm" [ 0; 5; 10; 20; 30; 40 ]
      "Figure 5: GSM — % SNR from optimal and % failed runs vs errors"
      "% SNR from optimal";
    fig "fig6" "art" [ 0; 1; 2; 3; 4 ]
      "Figure 6: ART — % images recognized and % failed runs vs errors"
      "% recognized";
  ]

let by_id id = List.find (fun (f : figure) -> f.id = id) figures

let cell ~trials (f : figure) policy errors =
  Matrix.make_cell ~mode:Experiment.Literal ~policy ~errors ~trials
    ~seed:f.seed f.app

(* The runner's cell list: every series point of the figure. *)
let plan ~trials (f : figure) : Matrix.cell_spec list =
  List.concat_map
    (fun (_, policy) -> List.map (cell ~trials f policy) f.errors_axis)
    f.policies

let run ?(trials = 20) ?jobs loaded (f : figure) : result =
  let point = Matrix.points ?jobs loaded (plan ~trials f) in
  let series (label, policy) =
    let cell = cell ~trials f policy in
    { label; points = List.map (fun e -> point (cell e)) f.errors_axis }
  in
  {
    id = f.id;
    title = f.title;
    fidelity_name = f.fidelity_name;
    series = List.map series f.policies;
  }

let to_table (r : result) : Report.table =
  let columns =
    Report.column ~key:"errors" "errors"
    :: List.concat_map
         (fun s ->
           [
             Report.column (s.label ^ ": fidelity");
             Report.column (s.label ^ ": % failed");
           ])
         r.series
  in
  let fid = function
    | None -> Report.Missing "n/a (all failed)"
    | Some x -> Report.num ~text:(Printf.sprintf "%.1f" x) x
  in
  (* One row per error count, read off the first series' axis. *)
  let row i (first : Experiment.sweep_point) =
    Report.int first.Experiment.errors
    :: List.concat_map
         (fun s ->
           let p = List.nth s.points i in
           [ fid p.Experiment.mean_fidelity; Report.pct p.Experiment.pct_failed ])
         r.series
  in
  let rows =
    match r.series with [] -> [] | s :: _ -> List.mapi row s.points
  in
  Report.table ~id:r.id
    ~title:(r.title ^ "  [" ^ r.fidelity_name ^ "]")
    ~columns rows
