(* Exact trial tallies behind the sim.* / snapshot.* / taint.* layer
   metrics, fed on the orchestrating domain after each fan-out. *)

type t = {
  mutable trials : int;
  mutable executed : int;  (* dynamic instructions actually executed *)
  mutable dyn_total : int;  (* trial lengths, restored prefixes included *)
  mutable skipped : int;  (* restored-prefix instructions *)
  mutable resumed : int;
  mutable completed : int;
  mutable crash : int;
  mutable timeout : int;
  mutable timeout_executed : int;
  mutable sim_s : float;
  mutable times : float list;  (* per-trial self time, seconds *)
  per_app : (string, int * float) Hashtbl.t;  (* executed, seconds *)
  per_e : (int, int * int * int * int) Hashtbl.t;
      (* errors -> trials, resumed, skipped, dyn_total *)
}

let create () =
  {
    trials = 0; executed = 0; dyn_total = 0; skipped = 0; resumed = 0;
    completed = 0; crash = 0; timeout = 0; timeout_executed = 0; sim_s = 0.;
    times = []; per_app = Hashtbl.create 8; per_e = Hashtbl.create 8;
  }

let add t ~app ~errors ~skipped ~sim_s (tr : Core.Campaign.trial) =
  let dyn = tr.Core.Campaign.dyn_count in
  let ex = dyn - skipped in
  t.trials <- t.trials + 1;
  t.executed <- t.executed + ex;
  t.dyn_total <- t.dyn_total + dyn;
  t.skipped <- t.skipped + skipped;
  if skipped > 0 then t.resumed <- t.resumed + 1;
  (match tr.Core.Campaign.outcome with
   | Core.Outcome.Completed -> t.completed <- t.completed + 1
   | Core.Outcome.Crash _ -> t.crash <- t.crash + 1
   | Core.Outcome.Infinite ->
     t.timeout <- t.timeout + 1;
     t.timeout_executed <- t.timeout_executed + ex);
  t.sim_s <- t.sim_s +. sim_s;
  t.times <- sim_s :: t.times;
  let e0, s0 = Option.value ~default:(0, 0.) (Hashtbl.find_opt t.per_app app) in
  Hashtbl.replace t.per_app app (e0 + ex, s0 +. sim_s);
  let n, r, s, d = Option.value ~default:(0, 0, 0, 0) (Hashtbl.find_opt t.per_e errors) in
  Hashtbl.replace t.per_e errors
    (n + 1, (r + if skipped > 0 then 1 else 0), s + skipped, d + dyn)

let minstr ex s = if s <= 0. then 0. else float_of_int ex /. s /. 1e6

let counts t =
  [
    ("sim.trials", t.trials);
    ("sim.dyn_instructions", t.executed);
    ("sim.completed_trials", t.completed);
    ("sim.crash_trials", t.crash);
    ("sim.timeout_trials", t.timeout);
    ("snapshot.resumed_trials", t.resumed);
    ("snapshot.skipped_dyn", t.skipped);
  ]

(* Publish the sim.* and snapshot.* metrics. *)
let publish_sim t =
  let open Common in
  List.iter (fun (k, v) -> if String.sub k 0 4 = "sim." then seti k v) (counts t);
  set "sim.trial_s" t.sim_s;
  set "sim.trial_p50_ms" (1e3 *. quantile 0.5 t.times);
  set "sim.trial_p99_ms" (1e3 *. quantile 0.99 t.times);
  set "sim.timeout_dyn_share" (ratioi t.timeout_executed t.executed);
  set "sim.minstr_per_s" (minstr t.executed t.sim_s);
  Hashtbl.iter (fun app (ex, s) -> set ("sim.minstr_per_s." ^ app) (minstr ex s)) t.per_app;
  set "snapshot.resumed_share" (ratioi t.resumed t.trials);
  set "snapshot.skipped_dyn_share" (ratioi t.skipped t.dyn_total);
  List.iter
    (fun e ->
      match Hashtbl.find_opt t.per_e e with
      | None -> ()
      | Some (n, r, s, d) ->
        set (Printf.sprintf "snapshot.resumed_share.e%d" e) (ratioi r n);
        set (Printf.sprintf "snapshot.skipped_dyn_share.e%d" e) (ratioi s d))
    error_buckets

let publish_taint t =
  let open Common in
  set "taint.run_s" t.sim_s;
  seti "taint.dyn_instructions" t.executed;
  set "taint.minstr_per_s" (minstr t.executed t.sim_s)
