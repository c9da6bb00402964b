(* sweep-extend: extend a cached matrix sweep with a new error count.

   Set-up fills a fresh result store with [Harness.Matrix.run] over all
   7 apps x {protect-control, protect-nothing} x errors {1, 5}. Each
   timed round restores that store (untimed copy) and reruns the sweep
   with errors {1, 5, 20}: 26 cells are served from the store, 13 run
   and are written, 3 are skipped (adpcm has no injectable pool under
   protect-control), and every app is loaded again, as every sweep
   does.

   The sweep itself is fixed (app seed 1, campaign seed 101), so every
   run measures the same cells; the workload seed orders the apps in the
   spec and picks the cells the correctness check recomputes.

   A request here is the sweep: its latency is the round's wall time,
   which is when every cell's answer arrives; requests_per_s counts
   matrix cells per second. *)

open Harness
open Common

let trials = 20
let fill_errors = [ 1; 5 ]
let extend_errors = [ 1; 5; 20 ]

let spec ~seed errors =
  let rng = Random.State.make [| seed |] in
  let apps =
    List.map snd
      (List.sort compare
         (List.map (fun a -> (Random.State.bits rng, a)) Matrix.default_spec.Matrix.apps))
  in
  { Matrix.default_spec with Matrix.apps; errors; trials; seed = 1 }

let campaign_seed (s : Matrix.spec) = s.Matrix.seed + 100

let fill ~seed dir =
  let store = Core.Memo.Store.open_ (Filename.concat dir "base") in
  let r = Matrix.run ~jobs ~store (spec ~seed fill_errors) in
  match Matrix.failures_message r with
  | Some m -> failwith m
  | None -> dir

let cell_fp (c : Matrix.cell) =
  Matrix.cell_label c.Matrix.cell ^ " "
  ^
  match c.Matrix.status with
  | Matrix.Ok ok ->
    String.concat ";" (List.map trial_fp ok.Matrix.summary.Core.Campaign.trials)
  | Matrix.Skipped why -> "skipped " ^ why
  | Matrix.Failed why -> "failed " ^ why

let account (cells : Matrix.cell list) =
  List.iter
    (fun (c : Matrix.cell) ->
      match c.Matrix.status with
      | Matrix.Failed why -> op_failed (Matrix.cell_label c.Matrix.cell ^ ": " ^ why)
      | _ -> op_ok ())
    cells

let delivered (cells : Matrix.cell list) =
  List.fold_left
    (fun n (c : Matrix.cell) ->
      match c.Matrix.status with
      | Matrix.Ok ok -> n + Core.Campaign.n ok.Matrix.summary
      | _ -> n)
    0 cells

let memo_totals (cells : Matrix.cell list) =
  List.fold_left
    (fun acc (c : Matrix.cell) ->
      match c.Matrix.status with
      | Matrix.Ok ok -> Serve.add_stats acc ok.Matrix.cache
      | _ -> acc)
    Core.Memo.zero_stats cells

let counts (cells : Matrix.cell list) =
  let st = memo_totals cells in
  let kind k =
    List.length (List.filter (fun (c : Matrix.cell) -> Matrix.status_kind c.Matrix.status = k) cells)
  in
  let hit, miss =
    List.fold_left
      (fun (h, m) (c : Matrix.cell) ->
        match c.Matrix.status with
        | Matrix.Ok ok when ok.Matrix.cache.Core.Memo.trials_run = 0 -> (h + 1, m)
        | Matrix.Ok _ -> (h, m + 1)
        | _ -> (h, m))
      (0, 0) cells
  in
  [
    ("cells", List.length cells);
    ("matrix.cells_hit", hit);
    ("matrix.cells_miss", miss);
    ("matrix.cells_skipped", kind "skipped");
    ("matrix.cells_failed", kind "failed");
    ("trial_records", delivered cells);
    ("memo.sections", st.Core.Memo.sections);
    ("memo.hits", st.Core.Memo.hits);
    ("memo.misses", st.Core.Memo.misses);
    ("memo.trials_reused", st.Core.Memo.trials_reused);
    ("memo.trials_run", st.Core.Memo.trials_run);
  ]

(* ------------------------------------------------------------------ *)
(* The traced twin of [Matrix.run]: apps loaded and prepared through
   [Loader], cells through the same [Matrix.run_cell], with the cache
   misses handed to a [fanout] that times each trial. *)

type traced = {
  cells : Matrix.cell list;
  loaded : Experiment.loaded list;
  sim : Tally.t;
  sections_of_s : float;
}

let run_traced ~(s : Matrix.spec) ~store : traced =
  let ctl = Core.Policy.Protect_control and nothing = Core.Policy.Protect_nothing in
  let apps = List.filter_map Apps.Registry.find s.Matrix.apps in
  let loaded =
    Loader.load_all ~skip_empty:true ~jobs ~seed:s.Matrix.seed ~modes:[ Experiment.Full ]
      ~combos:(fun _ -> [ (Experiment.Full, ctl); (Experiment.Full, nothing) ])
      apps
  in
  let by_name = List.map (fun (l : Experiment.loaded) -> (l.Experiment.app.Apps.App.name, l)) loaded in
  let sections_of_s = ref 0. in
  let prepared = Hashtbl.create 16 in
  List.iter
    (fun (name, (l : Experiment.loaded)) ->
      List.iter
        (fun policy ->
          let t = l.Experiment.target Experiment.Full in
          let pool = Core.Campaign.injectable_pool t (Core.Tagging.mask t.Core.Campaign.tagging policy) in
          let v =
            if pool = 0 then None
            else
              let p = l.Experiment.prepared Experiment.Full policy in
              let sec, dt = Ledger.leaf_timed "memo" (fun () -> Core.Memo.sections_of p) in
              sections_of_s := !sections_of_s +. dt;
              Some (p, sec)
          in
          Hashtbl.replace prepared (name, policy) (pool, v))
        s.Matrix.policies)
    by_name;
  let m = Mutex.create () in
  let observed = ref [] in
  let run_cell (c : Matrix.cell_spec) =
    let memo_fanout exec indices =
      List.map
        (fun i ->
          let ((trial, skipped) as r), sim_s = Ledger.leaf_timed "sim" (fun () -> exec i) in
          Mutex.lock m;
          observed := (c, trial, skipped, sim_s) :: !observed;
          Mutex.unlock m;
          r)
        indices
    in
    Ledger.leaf "memo" (fun () ->
        Matrix.run_cell
          ~lookup:(fun n -> List.assoc_opt n by_name)
          ~prepared_of:(fun n p -> Hashtbl.find prepared (n, p))
          ~memo_fanout ~store c)
  in
  let cells = Matrix.cells_of_spec s in
  let statuses = Ledger.fan_list ~jobs run_cell cells in
  let sim = Tally.create () in
  List.iter
    (fun ((c : Matrix.cell_spec), trial, skipped, sim_s) ->
      Tally.add sim ~app:c.Matrix.app ~errors:c.Matrix.errors ~skipped ~sim_s trial)
    (List.sort
       (fun (_, (a : Core.Campaign.trial), _, _) (_, (b : Core.Campaign.trial), _, _) ->
         compare a.Core.Campaign.index b.Core.Campaign.index)
       !observed);
  {
    cells = List.map2 (fun cell status -> { Matrix.cell; status }) cells statuses;
    loaded;
    sim;
    sections_of_s = !sections_of_s;
  }

(* Store and owner-walk costs, measured by calling the inner public
   functions on the inputs the round just used. *)
let inner_calls ~dir ~store =
  let entries = Core.Memo.Store.scan store in
  seti "store.entries" (List.length entries);
  seti "store.bytes" (List.fold_left (fun a (_, b, _) -> a + b) 0 entries);
  let root = Core.Memo.Store.root store in
  let key_of path =
    let rel = String.sub path (String.length root + 1) (String.length path - String.length root - 1) in
    String.concat "" (String.split_on_char '/' (Filename.chop_suffix rel ".json"))
  in
  let docs =
    List.filter_map
      (fun (path, _, _) ->
        let key = key_of path in
        let t0 = Ledger.now () in
        let d = Core.Memo.Store.load store ~key in
        Option.map (fun d -> (key, d, Ledger.now () -. t0)) d)
      entries
  in
  let mean xs = ratio (List.fold_left ( +. ) 0. xs) (float_of_int (List.length xs)) in
  set "store.load_us" (1e6 *. mean (List.map (fun (_, _, t) -> t) docs));
  let scratch = Core.Memo.Store.open_ (Filename.concat dir "republish") in
  set "store.save_us"
    (1e6
    *. mean
         (List.map
            (fun (key, d, _) ->
              let t0 = Ledger.now () in
              Core.Memo.Store.save scratch ~key d;
              Ledger.now () -. t0)
            docs));
  rm_rf (Filename.concat dir "republish")

let owner_walks ~(s : Matrix.spec) (loaded : Experiment.loaded list) =
  let t = ref 0. in
  List.iter
    (fun (l : Experiment.loaded) ->
      List.iter
        (fun policy ->
          let tg = l.Experiment.target Experiment.Full in
          if Core.Campaign.injectable_pool tg (Core.Tagging.mask tg.Core.Campaign.tagging policy) > 0
          then begin
            let p = l.Experiment.prepared Experiment.Full policy in
            List.iter
              (fun errors ->
                let firsts =
                  List.init s.Matrix.trials (fun i ->
                      let rng =
                        Core.Campaign.trial_rng ~seed:(campaign_seed s) ~errors
                          ~policy:p.Core.Campaign.policy i
                      in
                      let plan =
                        Core.Fault_model.make_plan ~rng
                          ~injectable_total:p.Core.Campaign.injectable_total ~errors
                      in
                      Hashtbl.fold (fun o _ acc -> min o acc) plan max_int)
                in
                let ordinals = List.sort_uniq Int.compare (List.filter (( <> ) max_int) firsts) in
                let t0 = Ledger.now () in
                ignore (Core.Memo.owners_of p ~ordinals);
                t := !t +. (Ledger.now () -. t0))
              s.Matrix.errors
          end)
        s.Matrix.policies)
    loaded;
  set "memo.owner_walk_s" !t

(* ------------------------------------------------------------------ *)
(* Correctness: a seeded sample of the round's cells, each recomputed as
   a monolithic [Core.Campaign.run] of the same configuration, must
   carry the same trial records. *)

let check_monolithic ~seed ~(s : Matrix.spec) (cells : Matrix.cell list) =
  let ok =
    List.filter_map
      (fun (c : Matrix.cell) ->
        match c.Matrix.status with Matrix.Ok o -> Some (c.Matrix.cell, o) | _ -> None)
      cells
  in
  let loaded = Hashtbl.create 4 in
  let picks = sample ~seed ~k:3 (List.length ok) in
  List.iter
    (fun i ->
      let (c : Matrix.cell_spec), (o : Matrix.cell_ok) = List.nth ok i in
      let l =
        match Hashtbl.find_opt loaded c.Matrix.app with
        | Some l -> l
        | None ->
          let l = Experiment.load ~seed:s.Matrix.seed (Option.get (Apps.Registry.find c.Matrix.app)) in
          Hashtbl.replace loaded c.Matrix.app l;
          l
      in
      let score r = l.Experiment.built.Apps.App.score ~golden:l.Experiment.golden r in
      let mono =
        Core.Campaign.run ~jobs ~score
          (l.Experiment.prepared c.Matrix.mode c.Matrix.policy)
          ~errors:c.Matrix.errors ~trials:c.Matrix.trials ~seed:(campaign_seed s)
      in
      let fps (x : Core.Campaign.summary) = String.concat ";" (List.map trial_fp x.Core.Campaign.trials) in
      check_equal
        ~what:(Matrix.cell_label c ^ ": cached cell vs monolithic campaign")
        (fps mono) (fps o.Matrix.summary))
    picks;
  say "check: %d cached cells recomputed as monolithic campaigns" (List.length picks)

(* ------------------------------------------------------------------ *)

let run (a : args) =
  let s = spec ~seed:a.seed extend_errors in
  say "sweep-extend: fill errors {1,5}, extend to {1,5,20}, %d trials per cell, jobs=%d" trials jobs;
  (* Every round, warm-up included, works on a fresh copy of the
     set-up store; [current dir] is the copy of the running round. *)
  let count = ref 0 in
  let current dir = Filename.concat dir (Printf.sprintf "round%d" !count) in
  let before dir _ =
    rm_rf (current dir);
    incr count;
    copy_tree (Filename.concat dir "base") (current dir)
  in
  let untraced dir seconds =
    rounds ~before:(before dir) ~warmup:1 ~seconds ~min_rounds:1 (fun _ ->
        Matrix.run ~jobs ~store:(Core.Memo.Store.open_ (current dir)) s)
  in
  let finish_round label (w, (cells : Matrix.cell list)) =
    account cells;
    let c = counts cells in
    record_counts ~what:label c;
    say "%s round: %.3f s, %s" label w
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) c));
    digest (String.concat "\n" (List.map cell_fp cells))
  in
  let same_digests label ds =
    match ds with
    | [] -> None
    | d :: rest ->
      List.iter (check_equal ~what:(label ^ " rounds repeat") d) rest;
      Some d
  in
  let fresh_dir () = scratch_dir "sweep" in
  if not a.trace then begin
    let dir =
      timed_setups ~n:3 ~teardown:rm_rf (fun () -> fill ~seed:a.seed (fresh_dir ()))
    in
    let rs = untraced dir a.seconds in
    ignore (same_digests "timed" (List.map (fun (w, r) -> finish_round "timed" (w, r.Matrix.cells)) rs));
    let walls = List.map fst rs in
    let ncells = float_of_int (List.length (Matrix.cells_of_spec s)) in
    set "trial_results_per_s"
      (median (List.map (fun (w, r) -> float_of_int (delivered r.Matrix.cells) /. w) rs));
    set "requests_per_s" (median (List.map (fun w -> ncells /. w) walls));
    set "request_p50_ms" (1e3 *. quantile 0.5 walls);
    set "request_p90_ms" (1e3 *. quantile 0.9 walls);
    (match List.rev rs with
     | (_, r) :: _ -> check_monolithic ~seed:a.seed ~s r.Matrix.cells
     | [] -> ());
    rm_rf dir
  end
  else begin
    let dir = fill ~seed:a.seed (fresh_dir ()) in
    let ru = untraced dir (a.seconds /. 2.) in
    let du = same_digests "untraced" (List.map (fun (w, r) -> finish_round "untraced" (w, r.Matrix.cells)) ru) in
    set "matrix.load_s" (median (List.map (fun (_, r) -> r.Matrix.load_s) ru));
    set "matrix.wall_s" (median (List.map (fun (_, r) -> r.Matrix.wall_s) ru));
    Ledger.enabled := true;
    (* The ledger keeps the last traced round's figures. *)
    let last = ref None in
    let rt =
      rounds ~before:(before dir) ~seconds:(a.seconds /. 2.) ~min_rounds:1 (fun _ ->
          Ledger.reset ();
          Atomic.set Loader.scored 0;
          let tr = run_traced ~s ~store:(Core.Memo.Store.open_ (current dir)) in
          last := Some tr;
          tr.cells)
    in
    Ledger.enabled := false;
    let dt = same_digests "traced" (List.map (finish_round "traced") rt) in
    (match (du, dt) with
     | Some x, Some y -> check_equal ~what:"traced cells equal untraced" x y
     | _ -> mismatch "no complete round to compare");
    let tr = Option.get !last in
    publish_load_layers ();
    set "fidelity.score_s" (Ledger.busy_s "fidelity");
    seti "fidelity.scored" (Atomic.get Loader.scored);
    set "memo.sections_of_s" tr.sections_of_s;
    set "pool.busy_share"
      (ratio
         (Ledger.busy_s "sim" +. Ledger.busy_s "fidelity" +. Ledger.busy_s "memo")
         (Ledger.capacity_s ()));
    Tally.publish_sim tr.sim;
    record_counts ~what:"traced round" (Tally.counts tr.sim);
    let st = memo_totals tr.cells in
    List.iter
      (fun (k, v) ->
        if String.starts_with ~prefix:"matrix." k || String.starts_with ~prefix:"memo." k then
          seti k v)
      (counts tr.cells);
    set "memo.hit_share" (ratioi st.Core.Memo.hits st.Core.Memo.sections);
    publish_self_times ~total:(fst (List.nth rt (List.length rt - 1)));
    publish_overhead ~untraced:(List.map fst ru) ~traced:(List.map fst rt);
    inner_calls ~dir ~store:(Core.Memo.Store.open_ (current dir));
    owner_walks ~s tr.loaded;
    (match List.rev rt with
     | (_, cells) :: _ -> check_monolithic ~seed:a.seed ~s cells
     | [] -> ());
    rm_rf dir
  end
