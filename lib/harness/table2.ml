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

(* The campaign seed of every Table 2 cell. *)
let seed = 11

let cell ~trials app errors (mode, policy) =
  Matrix.make_cell ~mode ~policy ~errors ~trials ~seed app

(* The runner's cell list, for the paper cells whose app is loaded. *)
let plan ~trials loaded : Matrix.cell_spec list =
  List.concat_map
    (fun (app, errors, _, _) -> List.map (cell ~trials app errors) configs)
    (paper_cells loaded)

(* The table, read through [find] from the collected cells of [plan]:
   one row per paper cell, our three campaigns beside the paper's two
   rates. *)
let to_table ~trials (loaded : Experiment.loaded list)
    (find : Matrix.cell_spec -> Matrix.cell) : Report.table =
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
       (fun (name, errors, paper_with, paper_without) ->
         let l = Experiment.find loaded name in
         let pct config =
           Report.pct
             (Matrix.point l (find (cell ~trials name errors config)))
               .Experiment.pct_failed
         in
         [
           Report.text name;
           Report.int errors;
           Report.int l.Experiment.golden.Sim.Interp.dyn_count;
           pct with_full;
           pct with_literal;
           pct without;
           Report.pct paper_with;
           Report.pct paper_without;
         ])
       (paper_cells loaded))
