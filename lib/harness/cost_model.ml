(* Section 5.3 of the paper ("Future Potential"): "we could employ
   well-known reliability implementations to protect control data
   while running the rest of the instructions ... on cheaper or faster
   hardware. In order for this to be beneficial, a sufficient
   percentage of the execution must be on low-reliability
   instructions."

   This module quantifies that claim with a simple linear cost model:
   a protected instruction costs [k]x a plain one (k = 2 models dual
   modular redundancy / re-execution, k = 3 TMR). If a fraction [p] of
   dynamic instructions may run unprotected, selective protection
   costs k(1-p) + p per instruction against k for uniform protection —
   a speedup of k / (k(1-p) + p), bounded by k as p -> 1. *)

type row = {
  app_name : string;
  pct_low : float;           (* p, in percent *)
  speedup_dmr : float;       (* selective vs uniform, k = 2 *)
  speedup_tmr : float;       (* k = 3 *)
  cost_vs_unprotected : float;  (* selective cost per instruction, k = 3 *)
}

let speedup ~k ~p = k /. ((k *. (1.0 -. p)) +. p)

let selective_cost ~k ~p = (k *. (1.0 -. p)) +. p

(* Analysis-only (no campaigns): [jobs] fans the per-app target
   computations out across domains, as in {!Table3.run}. *)
let run ?jobs ~(mode : Experiment.mode) (loaded : Experiment.loaded list) :
    row list =
  Core.Pool.map_list ?jobs
    (fun (l : Experiment.loaded) ->
      let t = l.Experiment.target mode in
      let p =
        Core.Tagging.dynamic_low_fraction t.Core.Campaign.tagging
          t.Core.Campaign.baseline.Sim.Interp.exec_counts
      in
      {
        app_name = l.Experiment.app.Apps.App.name;
        pct_low = 100.0 *. p;
        speedup_dmr = speedup ~k:2.0 ~p;
        speedup_tmr = speedup ~k:3.0 ~p;
        cost_vs_unprotected = selective_cost ~k:3.0 ~p;
      })
    loaded

let factor x = Report.num ~text:(Printf.sprintf "%.2fx" x) x

let to_table ~(mode : Experiment.mode) rows : Report.table =
  Report.table ~id:"cost_model"
    ~title:
      (Printf.sprintf
         "Protection cost model (paper Sec. 5.3): selective vs uniform \
          redundancy, %s tagging"
         (Experiment.mode_name mode))
    ~columns:
      [
        Report.column ~key:"app" "app";
        Report.column ~key:"pct_low" "% low-rel";
        Report.column ~key:"speedup_dmr" "speedup vs DMR";
        Report.column ~key:"speedup_tmr" "speedup vs TMR";
        Report.column ~key:"selective_cost_tmr" "selective cost (TMR=3.0)";
      ]
    (List.map
       (fun r ->
         [
           Report.text r.app_name;
           Report.pct r.pct_low;
           factor r.speedup_dmr;
           factor r.speedup_tmr;
           factor r.cost_vs_unprotected;
         ])
       rows)
