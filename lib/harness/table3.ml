(* Paper Table 3: dynamic instruction counts and the percentage of
   dynamic instructions the static analysis tags as low-reliability
   ("not leading to control instructions").

   Reported under both tagging modes; the paper's Section-3 rules
   correspond to the Literal column (see EXPERIMENTS.md for why the
   Full column is much lower). *)

type row = {
  app_name : string;
  instructions : int;
  pct_low_literal : float;
  pct_low_full : float;
  paper_pct : float;
}

let paper_pcts =
  [
    ("susan", 91.3); ("mpeg", 50.3); ("mcf", 8.9); ("blowfish", 62.4);
    ("adpcm", 93.26); ("gsm", 19.6); ("art", 70.8);
  ]

let run (loaded : Experiment.loaded list) : row list =
  List.map
    (fun (l : Experiment.loaded) ->
      let name = l.Experiment.app.Apps.App.name in
      let frac mode = 100.0 *. Experiment.low_fraction l mode in
      {
        app_name = name;
        instructions =
          (l.Experiment.target Experiment.Full).Core.Campaign.baseline
            .Sim.Interp.dyn_count;
        pct_low_literal = frac Experiment.Literal;
        pct_low_full = frac Experiment.Full;
        paper_pct =
          (try List.assoc name paper_pcts with Not_found -> nan);
      })
    loaded

let to_table rows : Report.table =
  Report.table ~id:"table3"
    ~title:
      "Table 3: dynamic instructions and % tagged low-reliability (may run \
       unprotected)"
    ~columns:
      [
        Report.column ~key:"app" "app";
        Report.column ~key:"instructions" "instrs";
        Report.column ~key:"pct_low_literal" "% low (literal rules)";
        Report.column ~key:"pct_low_full" "% low (ctrl+addr)";
        Report.column ~key:"paper_pct" "% low (paper)";
      ]
    (List.map
       (fun r ->
         [
           Report.text r.app_name;
           Report.int r.instructions;
           Report.pct r.pct_low_literal;
           Report.pct r.pct_low_full;
           Report.pct r.paper_pct;
         ])
       rows)
