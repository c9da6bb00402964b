(* Fault-site attribution profile.

   Runs one injection campaign and renders where the injected faults
   landed: per (function, body index) counts, cross-tabbed by outcome
   class. This is the analysis companion to the paper's failure-rate
   tables — instead of asking "how often does the app fail", it asks
   "which instructions, when corrupted, make it fail", which is exactly
   the ranking a selective-protection policy would consult.

   The tally comes from the profile's own trials: each trial, on its
   worker domain, reduces its raw result to the outcome class and the
   sites its faults landed at (Interp.landed_sites), and the rows fold
   those in trial order. Trial [i] uses [Campaign.trial_rng], so the
   rows are those of the same campaign run by [Campaign.run], for any
   [jobs]; and the profile reads no shared state, so a daemon can
   serve it next to other requests. *)

type row = {
  func : string;
  pc : int;  (* body index within [func] *)
  crash : int;
  infinite : int;
  completed : int;
  total : int;  (* landed faults attributed to this site *)
}

type t = {
  app_name : string;
  mode : Experiment.mode;
  policy : Core.Policy.t;
  errors : int;
  trials : int;
  seed : int;
  rows : row list;  (* descending by [total], then by (func, pc) *)
  faults_total : int;  (* sum over rows = campaign faults landed *)
}

(* [r] with one more landed fault from a trial that ended [outcome]. *)
let tally (r : row) (outcome : Core.Outcome.t) =
  let r = { r with total = r.total + 1 } in
  match outcome with
  | Core.Outcome.Crash _ -> { r with crash = r.crash + 1 }
  | Core.Outcome.Infinite -> { r with infinite = r.infinite + 1 }
  | Core.Outcome.Completed -> { r with completed = r.completed + 1 }

let run ?(errors = 10) ?(trials = 20) ?(seed = 41) ?jobs
    ?(policy = Core.Policy.Protect_nothing) ~mode (l : Experiment.loaded) : t =
  let p = l.Experiment.prepared mode policy in
  let trial i =
    let rng = Core.Campaign.trial_rng ~seed ~errors ~policy i in
    let r = Core.Campaign.run_trial_result p ~errors ~rng ~index:i in
    (Core.Outcome.of_result r, r.Sim.Interp.landed_sites)
  in
  let by_site = Hashtbl.create 64 in
  Array.iter
    (fun (outcome, sites) ->
      Array.iter
        (fun (func, pc) ->
          let r =
            Option.value (Hashtbl.find_opt by_site (func, pc))
              ~default:
                { func; pc; crash = 0; infinite = 0; completed = 0; total = 0 }
          in
          Hashtbl.replace by_site (func, pc) (tally r outcome))
        sites)
    (Core.Pool.map_n ?jobs trials trial);
  let rows =
    List.sort
      (fun a b ->
        match Int.compare b.total a.total with
        | 0 -> compare (a.func, a.pc) (b.func, b.pc)
        | c -> c)
      (List.of_seq (Hashtbl.to_seq_values by_site))
  in
  {
    app_name = l.Experiment.built.Apps.App.app_name;
    mode;
    policy;
    errors;
    trials;
    seed;
    rows;
    faults_total = List.fold_left (fun n r -> n + r.total) 0 rows;
  }

(* Rows beyond [top] collapse into one "(other)" aggregate so column
   sums stay equal to the campaign's landed-fault totals whatever the
   cutoff. *)
let to_table ?top (p : t) : Report.table =
  let shown, rest =
    match top with
    | Some k when k >= 0 && List.length p.rows > k ->
      (List.filteri (fun i _ -> i < k) p.rows,
       List.filteri (fun i _ -> i >= k) p.rows)
    | _ -> (p.rows, [])
  in
  let cells r site =
    Report.
      [
        text site;
        int r.pc;
        count r.total;
        count r.crash;
        count r.infinite;
        count r.completed;
      ]
  in
  let rows =
    List.map (fun r -> cells r r.func) shown
    @
    match rest with
    | [] -> []
    | _ ->
      let sum f = List.fold_left (fun n r -> n + f r) 0 rest in
      [
        Report.
          [
            text (Printf.sprintf "(other: %d sites)" (List.length rest));
            Missing "-";
            count (sum (fun r -> r.total));
            count (sum (fun r -> r.crash));
            count (sum (fun r -> r.infinite));
            count (sum (fun r -> r.completed));
          ];
      ]
  in
  Report.table ~id:"profile"
    ~title:
      (Printf.sprintf "Fault-site profile: %s (%s, %s, e=%d, %d trials)"
         p.app_name
         (Experiment.mode_name p.mode)
         (Core.Policy.to_string p.policy)
         p.errors p.trials)
    ~columns:
      (List.map Report.column
         [ "function"; "pc"; "faults"; "crash"; "infinite"; "completed" ])
    rows

let footer (p : t) =
  Printf.sprintf "total injected faults: %d across %d sites" p.faults_total
    (List.length p.rows)

let render ?top (p : t) =
  Report.to_text (to_table ?top p) ^ "\n" ^ footer p

let report ?top (p : t) : Report.t =
  Report.make ~command:"profile"
    ~meta:
      [
        ("app", Report.Json.Str p.app_name);
        ("mode", Report.Json.Str (Experiment.mode_name p.mode));
        ("policy", Report.Json.Str (Core.Policy.to_string p.policy));
        ("errors", Report.Json.Int p.errors);
        ("trials", Report.Json.Int p.trials);
        ("seed", Report.Json.Int p.seed);
        ("faults_total", Report.Json.Int p.faults_total);
        ("sites", Report.Json.Int (List.length p.rows));
      ]
    [ to_table ?top p ]
