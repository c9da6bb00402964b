(* Paper Table 2: "% catastrophic failures (infinite runs or crashes)
   with and without protecting control data", at a low and a high
   error count per application.

   Error counts are the paper's absolute values. Because our runs are
   ~10^3 times shorter than the paper's (reduced-scale inputs), the
   same absolute count is a much higher per-instruction rate here —
   the comparison of interest (with vs. without protection at equal
   error count) is preserved. When an application's injectable pool
   under protection is smaller than the requested count, the plan
   saturates the pool; the row reports the requested count. *)

type row = {
  app_name : string;
  errors : int;
  total_instructions : int;
  pct_with : float;          (* protection ON, control+address (Full) *)
  pct_with_literal : float;  (* protection ON, paper's literal rules *)
  pct_without : float;       (* protection OFF *)
  paper_with : float;
  paper_without : float;
}

(* (app, errors, paper % with, paper % without), from the paper. *)
let cells =
  [
    ("susan", 2200, 0.0, 10.0);
    ("mpeg", 20, 0.0, 100.0);
    ("mpeg", 120, 0.0, 100.0);
    ("mcf", 1, 0.0, 100.0);
    ("mcf", 340, 6.0, 100.0);
    ("blowfish", 2, 0.0, 10.0);
    ("blowfish", 20, 19.0, 48.0);
    ("gsm", 10, 0.0, 100.0);
    ("gsm", 40, 0.0, 100.0);
    ("art", 4, 0.0, 0.0);
    ("adpcm", 3, 2.0, 8.5);
    ("adpcm", 56, 8.0, 53.5);
  ]

(* Each paper cell runs three campaigns: protection on under both
   tagging modes, and protection off. *)
let with_full = (Experiment.Full, Core.Policy.Protect_control)
let with_literal = (Experiment.Literal, Core.Policy.Protect_control)
let without = (Experiment.Full, Core.Policy.Protect_nothing)
let configs = [ with_full; with_literal; without ]

let paper_cells loaded =
  List.filter (fun (name, _, _, _) -> Experiment.mem loaded name) cells

let cell ~trials ~seed app errors (mode, policy) =
  Matrix.make_cell ~mode ~policy ~errors ~trials ~seed app

(* The runner's cell list, for the paper cells whose app is loaded. *)
let plan ~trials ~seed loaded : Matrix.cell_spec list =
  List.concat_map
    (fun (app, errors, _, _) ->
      List.map (cell ~trials ~seed app errors) configs)
    (paper_cells loaded)

let run ?(trials = 25) ?(seed = 11) ?jobs (loaded : Experiment.loaded list) :
    row list =
  let point = Matrix.points ?jobs loaded (plan ~trials ~seed loaded) in
  List.map
    (fun (name, errors, paper_with, paper_without) ->
      let pct config =
        (point (cell ~trials ~seed name errors config)).Experiment.pct_failed
      in
      {
        app_name = name;
        errors;
        total_instructions =
          (Experiment.find loaded name).Experiment.golden.Sim.Interp.dyn_count;
        pct_with = pct with_full;
        pct_with_literal = pct with_literal;
        pct_without = pct without;
        paper_with;
        paper_without;
      })
    (paper_cells loaded)

let to_table rows : Report.table =
  Report.table ~id:"table2"
    ~title:
      "Table 2: % catastrophic failures (crash or infinite run), with vs \
       without control protection"
    ~columns:
      [
        Report.column ~key:"app" "app";
        Report.column ~key:"errors" "errors";
        Report.column ~key:"instructions" "instrs";
        Report.column ~key:"pct_with" "with ctrl+addr (ours)";
        Report.column ~key:"pct_with_literal" "with literal (ours)";
        Report.column ~key:"pct_without" "without (ours)";
        Report.column ~key:"paper_with" "with (paper)";
        Report.column ~key:"paper_without" "without (paper)";
      ]
    (List.map
       (fun r ->
         [
           Report.text r.app_name;
           Report.int r.errors;
           Report.int r.total_instructions;
           Report.pct r.pct_with;
           Report.pct r.pct_with_literal;
           Report.pct r.pct_without;
           Report.pct r.paper_with;
           Report.pct r.paper_without;
         ])
       rows)
