(* paper-repro: the paper's own experiments on one loaded app set —
   all of Table 2 (12 cells x 3 columns), the fault-flow audit (7 apps
   x 2 policies, taint trials on the reference engine) and the six
   figure sweeps — with no result cache.

   One round runs every operation once, through the public
   [Harness.Experiment] entry points that [Table2], [Figures] and
   [Taxonomy] are built from ([Experiment.pct_catastrophic],
   [Experiment.sweep_point], [Core.Audit.run]), so each operation's
   latency is visible. Trial counts are the paper's shape at a reduced
   scale ([trials] per operation) so several rounds fit in one run.

   The experiments themselves are fixed: apps are built with seed 1 and
   campaigns use the defaults of bench/main.exe (Table 2 seed 11,
   figures 21, audit 41), so every run measures the same trials. The
   workload seed orders the round's operations and picks the trials the
   correctness check re-simulates. *)

open Harness
open Common

let trials = 5
let audit_errors = 10
let ctl = Core.Policy.Protect_control
let nothing = Core.Policy.Protect_nothing

type op =
  | T2 of { app : string; errors : int; mode : Experiment.mode; policy : Core.Policy.t }
  | Audit of { app : string; policy : Core.Policy.t }
  | Fig of { app : string; errors : int; policy : Core.Policy.t }

(* Figures 1-6: app, error axis, series policies (Literal tagging). *)
let figures =
  [
    ("susan", [ 0; 100; 550; 920; 1100; 1550; 2300 ], [ ctl; nothing ]);
    ("mpeg", [ 0; 50; 150; 300; 500 ], [ ctl ]);
    ("mcf", [ 0; 1; 5; 20; 50; 150; 300 ], [ ctl ]);
    ("blowfish", [ 0; 5; 10; 20; 30; 40 ], [ ctl ]);
    ("gsm", [ 0; 5; 10; 20; 30; 40 ], [ ctl ]);
    ("art", [ 0; 1; 2; 3; 4 ], [ ctl ]);
  ]

let ops =
  List.concat_map
    (fun (app, errors, _, _) ->
      List.map
        (fun (mode, policy) -> T2 { app; errors; mode; policy })
        [ (Experiment.Full, ctl); (Experiment.Literal, ctl); (Experiment.Full, nothing) ])
    Table2.cells
  @ List.concat_map
      (fun app -> List.map (fun policy -> Audit { app; policy }) Taxonomy.audit_policies)
      app_names
  @ List.concat_map
      (fun (app, errs, pols) ->
        List.concat_map
          (fun policy -> List.map (fun errors -> Fig { app; errors; policy }) errs)
          pols)
      figures

let op_app = function T2 { app; _ } | Audit { app; _ } | Fig { app; _ } -> app

let op_config = function
  | T2 { mode; policy; _ } -> (mode, policy)
  | Audit { policy; _ } -> (Experiment.Full, policy)
  | Fig { policy; _ } -> (Experiment.Literal, policy)

let op_label op =
  let mode, policy = op_config op in
  Printf.sprintf "%s %s/%s/%s e=%d"
    (match op with T2 _ -> "table2" | Audit _ -> "audit" | Fig _ -> "figure")
    (op_app op) (Experiment.mode_name mode) (Core.Policy.to_string policy)
    (match op with T2 { errors; _ } | Fig { errors; _ } -> errors | Audit _ -> audit_errors)

let combos app =
  List.sort_uniq compare
    (List.filter_map (fun op -> if op_app op = app then Some (op_config op) else None) ops)

type seeds = { build : int; t2 : int; fig : int; audit : int }

let seeds = { build = 1; t2 = 11; fig = 21; audit = 41 }

(* The round's operations in a seeded order. *)
let shuffle ~seed xs =
  let rng = Random.State.make [| seed |] in
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) xs))

let campaign_seed = function
  | T2 _ -> seeds.t2
  | Fig _ -> seeds.fig
  | Audit _ -> seeds.audit
let op_errors = function T2 { errors; _ } | Fig { errors; _ } -> errors | Audit _ -> audit_errors

(* ------------------------------------------------------------------ *)
(* Operation results: a fingerprint (hexfloats, so equal means
   bit-identical) and the exact counts behind it. *)

type res = { fp : string; counts : (string * int) list; sound : bool }

let stats_counts (s : Core.Stats.t) =
  [ ("crash", s.Core.Stats.crashes); ("timeout", s.Core.Stats.infinite);
    ("completed", s.Core.Stats.completed) ]

let stats_fp (s : Core.Stats.t) =
  let f = s.Core.Stats.flows in
  Printf.sprintf "n=%d c=%d i=%d ok=%d flows=%d/%d/%d/%d/%d" s.Core.Stats.n
    s.Core.Stats.crashes s.Core.Stats.infinite s.Core.Stats.completed
    f.Core.Stats.vanished f.Core.Stats.data_only f.Core.Stats.reached_memory
    f.Core.Stats.reached_address f.Core.Stats.reached_control

let t2_res pct =
  {
    fp = hex pct;
    counts = [ ("catastrophic", int_of_float (Float.round (pct *. float_of_int trials /. 100.))) ];
    sound = true;
  }

let fig_res ~pct ~mean ~fids ~stats =
  {
    fp =
      Printf.sprintf "%s %s %s [%s]" (stats_fp stats) (hex pct)
        (match mean with Some m -> hex m | None -> "-")
        (String.concat "," (List.map hex fids));
    counts = stats_counts stats;
    sound = true;
  }

let audit_res (r : Core.Audit.report) =
  {
    fp =
      Printf.sprintf "%s planned=%d pool=%d ctl=%d/%d addr=%d trap=%d mem=%d viol=%d"
        (stats_fp r.Core.Audit.stats) r.Core.Audit.errors_planned
        r.Core.Audit.injectable_total r.Core.Audit.control_free
        r.Core.Audit.control_via_memory r.Core.Audit.address_hits
        r.Core.Audit.trap_operand_hits r.Core.Audit.memory_hits
        (List.length r.Core.Audit.violations);
    counts = stats_counts r.Core.Audit.stats @ [ ("violations", List.length r.Core.Audit.violations) ];
    sound = Core.Audit.sound r;
  }

(* [Core.Audit.run]'s report, rebuilt from a traced taint campaign. *)
let audit_report (p : Core.Campaign.prepared) ~seed (s : Core.Campaign.summary) :
    Core.Audit.report =
  let sum f =
    List.fold_left
      (fun a (t : Core.Campaign.trial) ->
        match t.Core.Campaign.fault_flow with Some x -> a + f x | None -> a)
      0 s.Core.Campaign.trials
  in
  let violations =
    List.filter_map
      (fun (t : Core.Campaign.trial) ->
        match t.Core.Campaign.fault_flow with
        | None -> None
        | Some f ->
          let broken =
            match p.Core.Campaign.policy with
            | Core.Policy.Protect_control -> f.Sim.Taint.control_free > 0
            | Core.Policy.Protect_all -> f.Sim.Taint.flow <> Sim.Taint.Vanished
            | Core.Policy.Protect_nothing -> false
          in
          if broken then
            Some { Core.Audit.trial = t.Core.Campaign.index; site = f.Sim.Taint.first_control }
          else None)
      s.Core.Campaign.trials
  in
  {
    Core.Audit.policy = p.Core.Campaign.policy;
    errors = audit_errors;
    errors_planned = s.Core.Campaign.errors_planned;
    trials;
    seed;
    injectable_total = p.Core.Campaign.injectable_total;
    stats = s.Core.Campaign.stats;
    control_free = sum (fun f -> f.Sim.Taint.control_free);
    control_via_memory = sum (fun f -> f.Sim.Taint.control_via_memory);
    address_hits = sum (fun f -> f.Sim.Taint.address_hits);
    trap_operand_hits = sum (fun f -> f.Sim.Taint.trap_operand_hits);
    memory_hits = sum (fun f -> f.Sim.Taint.memory_hits);
    violations;
  }

(* ------------------------------------------------------------------ *)
(* Running operations *)

let find loaded name = Figures.find loaded name

let run_untraced loaded op : res =
  let l = find loaded (op_app op) in
  let seed = campaign_seed op in
  match op with
  | T2 { errors; mode; policy; _ } ->
    t2_res (Experiment.pct_catastrophic ~jobs l ~mode ~policy ~errors ~trials ~seed)
  | Fig { errors; policy; _ } ->
    let sp = Experiment.sweep_point ~jobs l ~mode:Experiment.Literal ~policy ~errors ~trials ~seed in
    fig_res ~pct:sp.Experiment.pct_failed ~mean:sp.Experiment.mean_fidelity
      ~fids:sp.Experiment.fidelities ~stats:sp.Experiment.stats
  | Audit { policy; _ } ->
    audit_res
      (Core.Audit.run ~jobs (l.Experiment.prepared Experiment.Full policy)
         ~errors:audit_errors ~trials ~seed)

let run_traced ~sim ~taint loaded op : res =
  let l = find loaded (op_app op) in
  let seed = campaign_seed op in
  let mode, policy = op_config op in
  let p = l.Experiment.prepared mode policy in
  let errors = op_errors op in
  let is_taint = match op with Audit _ -> true | _ -> false in
  let score =
    match op with
    | Fig _ -> Some (l.Experiment.built.Apps.App.score ~golden:l.Experiment.golden)
    | _ -> None
  in
  let obs = Loader.campaign ~jobs ?score ~taint:is_taint p ~errors ~trials ~seed in
  Array.iter
    (fun (o : Loader.trial_obs) ->
      Tally.add (if is_taint then taint else sim) ~app:(op_app op) ~errors
        ~skipped:o.Loader.skipped ~sim_s:o.Loader.sim_s o.Loader.trial)
    obs;
  let sm = Loader.summary p ~errors obs in
  match op with
  | T2 _ -> t2_res (Core.Campaign.pct_catastrophic sm)
  | Fig _ ->
    fig_res ~pct:(Core.Campaign.pct_catastrophic sm) ~mean:(Core.Campaign.mean_fidelity sm)
      ~fids:(Core.Campaign.fidelities sm) ~stats:sm.Core.Campaign.stats
  | Audit _ -> audit_res (audit_report p ~seed sm)

(* One round: every operation once, in order. Returns per-operation
   latencies and results; an operation that raises is a failed op. *)
let round ~ops run loaded =
  List.map
    (fun op ->
      let t0 = Ledger.now () in
      match run loaded op with
      | r ->
        if r.sound then op_ok () else op_failed (op_label op ^ ": audit not sound");
        (Ledger.now () -. t0, Some r)
      | exception e ->
        op_failed (op_label op ^ ": " ^ Printexc.to_string e);
        (Ledger.now () -. t0, None))
    ops

let round_counts ~ops results =
  let tot = Hashtbl.create 8 in
  List.iter
    (fun (_, r) ->
      Option.iter
        (fun r ->
          List.iter
            (fun (k, v) ->
              Hashtbl.replace tot k (v + Option.value ~default:0 (Hashtbl.find_opt tot k)))
            r.counts)
        r)
    results;
  [ ("ops", List.length ops); ("trial_records", List.length ops * trials) ]
  @ List.sort compare (Hashtbl.fold (fun k v acc -> ("outcome." ^ k, v) :: acc) tot [])

let round_digest results =
  digest (String.concat "\n" (List.map (fun (_, r) -> match r with Some r -> r.fp | None -> "!") results))

(* ------------------------------------------------------------------ *)
(* Correctness: a seeded trial per Table 2 cell and figure point,
   re-simulated from scratch on the reference engine, must match the
   checkpointed fast-engine trial bit for bit. *)

let check_reference ~seed ~ops loaded =
  let refs = Hashtbl.create 32 in
  let ref_prepared (l : Experiment.loaded) mode policy =
    let key = (l.Experiment.app.Apps.App.name, mode, policy) in
    match Hashtbl.find_opt refs key with
    | Some p -> p
    | None ->
      let t = { (l.Experiment.target mode) with Core.Campaign.engine = Sim.Interp.Ref } in
      let p = Core.Campaign.prepare ~checkpoint_stride:0 t policy in
      Hashtbl.replace refs key p;
      p
  in
  let checked = ref 0 in
  List.iteri
    (fun k op ->
      match op with
      | Audit _ -> ()
      | T2 _ | Fig _ ->
        let l = find loaded (op_app op) in
        let mode, policy = op_config op in
        let errors = op_errors op in
        let score =
          match op with
          | Fig _ -> Some (l.Experiment.built.Apps.App.score ~golden:l.Experiment.golden)
          | _ -> None
        in
        List.iter
          (fun i ->
            let rng () = Core.Campaign.trial_rng ~seed:(campaign_seed op) ~errors ~policy i in
            let fast = Core.Campaign.run_trial ?score (l.Experiment.prepared mode policy) ~errors ~rng:(rng ()) ~index:i in
            let slow = Core.Campaign.run_trial ?score (ref_prepared l mode policy) ~errors ~rng:(rng ()) ~index:i in
            incr checked;
            check_equal
              ~what:(Printf.sprintf "%s trial %d: fast engine vs reference" (op_label op) i)
              (trial_fp slow) (trial_fp fast))
          (sample ~seed:(seed + k) ~k:1 trials))
    ops;
  say "check: %d sampled trials re-simulated on the reference engine" !checked

(* ------------------------------------------------------------------ *)

let setup_library () =
  let loaded = Experiment.load_all ~seed:seeds.build ~jobs () in
  ignore
    (Core.Pool.map_list ~jobs
       (fun (l : Experiment.loaded) ->
         List.iter
           (fun (m, p) -> ignore (l.Experiment.prepared m p))
           (combos l.Experiment.app.Apps.App.name))
       loaded);
  loaded

let setup_traced () =
  Loader.load_all ~jobs ~seed:seeds.build
    ~modes:[ Experiment.Full; Experiment.Literal ]
    ~combos:(fun name -> combos name)
    Apps.Registry.all

let summarize_rounds ~ops ~label rs =
  let walls = List.map fst rs in
  let n_trials = List.length ops * trials in
  let cpu = List.rev !round_cpu in
  List.iteri
    (fun i (w, _) ->
      say "%s round %d: %.3f s (%.3f CPU s), %d ops, %d trial records" label i w
        (List.nth cpu (List.length cpu - List.length rs + i)) (List.length ops) n_trials)
    rs;
  walls

let run (a : args) =
  let ops = shuffle ~seed:a.seed ops in
  say "paper-repro: %d operations per round, %d trials each, jobs=%d" (List.length ops) trials jobs;
  let per_round_counts results =
    record_counts ~what:"round" (round_counts ~ops results);
    round_digest results
  in
  let untraced_rounds loaded seconds =
    rounds ~warmup:1 ~seconds ~min_rounds:1 (fun _ -> round ~ops run_untraced loaded)
  in
  let check_digests label rs =
    match rs with
    | [] -> None
    | (_, first) :: rest ->
      let d = per_round_counts first in
      List.iter (fun (_, r) -> check_equal ~what:(label ^ " rounds repeat") d (per_round_counts r)) rest;
      Some d
  in
  if not a.trace then begin
    let loaded = timed_setups ~n:3 setup_library in
    let rs = untraced_rounds loaded a.seconds in
    let walls = summarize_rounds ~ops ~label:"timed" rs in
    ignore (check_digests "timed" rs);
    let n_ops = float_of_int (List.length ops) in
    set "trial_results_per_s" (median (List.map (fun w -> n_ops *. float_of_int trials /. w) walls));
    set "requests_per_s" (median (List.map (fun w -> n_ops /. w) walls));
    (* A request is one reproduction of the paper's experiments: the
       round. Per-operation latencies are printed for reference. *)
    set "request_p50_ms" (1e3 *. quantile 0.5 walls);
    set "request_p90_ms" (1e3 *. quantile 0.9 walls);
    let lat = List.concat_map (fun (_, r) -> List.map fst r) rs in
    say "operation latency: %d samples, p50 %.2f ms, p90 %.2f ms" (List.length lat)
      (1e3 *. quantile 0.5 lat) (1e3 *. quantile 0.9 lat);
    check_reference ~seed:a.seed ~ops loaded
  end
  else begin
    let loaded_u = setup_library () in
    let ru = untraced_rounds loaded_u (a.seconds /. 2.) in
    let walls_u = summarize_rounds ~ops ~label:"untraced" ru in
    let digest_u = check_digests "untraced" ru in
    Ledger.enabled := true;
    let t0 = Ledger.now () in
    let loaded = setup_traced () in
    let setup_wall = Ledger.now () -. t0 in
    print_self_times ~title:"setup self time" ~total:setup_wall (Ledger.self_times ~total:setup_wall);
    publish_load_layers ();
    (* The ledger and tallies keep the last traced round's figures. *)
    let sim = ref (Tally.create ()) and taint = ref (Tally.create ()) in
    let rt =
      rounds ~seconds:(a.seconds /. 2.) ~min_rounds:1 (fun _ ->
          Ledger.reset ();
          Atomic.set Loader.scored 0;
          sim := Tally.create ();
          taint := Tally.create ();
          let r = round ~ops (run_traced ~sim:!sim ~taint:!taint) loaded in
          record_counts ~what:"traced round"
            (Tally.counts !sim @ [ ("taint.dyn_instructions", !taint.Tally.executed) ]);
          r)
    in
    let walls_t = summarize_rounds ~ops ~label:"traced" rt in
    (match (digest_u, check_digests "traced" rt) with
     | Some du, Some dt -> check_equal ~what:"traced trial records equal untraced" du dt
     | _ -> mismatch "no complete round to compare");
    Tally.publish_sim !sim;
    Tally.publish_taint !taint;
    let score_s = Ledger.busy_s "fidelity" in
    set "fidelity.score_s" score_s;
    seti "fidelity.scored" (Atomic.get Loader.scored);
    set "pool.busy_share"
      (ratio (!sim.Tally.sim_s +. !taint.Tally.sim_s +. score_s) (Ledger.capacity_s ()));
    publish_self_times ~total:(List.nth walls_t (List.length walls_t - 1));
    publish_overhead ~untraced:walls_u ~traced:walls_t;
    Ledger.enabled := false;
    check_reference ~seed:a.seed ~ops loaded_u
  end
