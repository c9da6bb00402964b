(* Fault-site attribution profile.

   Runs one injection campaign with telemetry on and renders where the
   injected faults landed: per (function, body index) counts,
   cross-tabbed by outcome class. This is the analysis companion to the
   paper's failure-rate tables — instead of asking "how often does the
   app fail", it asks "which instructions, when corrupted, make it
   fail", which is exactly the ranking a selective-protection policy
   would consult.

   The tally comes from the obs sink, not from re-deriving landings
   here: Campaign already attributes every landed fault to its site
   (Interp.landed_sites) and classifies the trial, so the profile is a
   pure read of the merged view. When the caller has a sink installed
   (e.g. `etap profile --trace`), the campaign records into it and the
   profile shares it — one campaign, one set of events, consumed by
   both the profile table and the exporters. Otherwise a private sink
   is installed for the duration of the run. *)

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
  summary : Core.Campaign.summary;
}

let row_of_site ((func, pc), counts) =
  let crash = counts.(Obs.cls_index Obs.Crash) in
  let infinite = counts.(Obs.cls_index Obs.Infinite) in
  let completed = counts.(Obs.cls_index Obs.Completed) in
  { func; pc; crash; infinite; completed; total = crash + infinite + completed }

let run ?(errors = 10) ?(trials = 20) ?(seed = 41) ?jobs
    ?(policy = Core.Policy.Protect_nothing) ~mode (l : Experiment.loaded) : t =
  let campaign sink =
    (* [l]'s memo: a first use prepares here, inside the sink, so the
       prepare and its snapshot build are counted with the campaign. *)
    let p = l.Experiment.prepared mode policy in
    let score r = l.Experiment.built.Apps.App.score ~golden:l.Experiment.golden r in
    let summary = Core.Campaign.run ?jobs ~score p ~errors ~trials ~seed in
    (summary, Obs.view sink)
  in
  let summary, view =
    if Obs.enabled () then campaign (Obs.installed ())
    else begin
      let sink = Obs.make () in
      Obs.with_sink sink (fun () -> campaign sink)
    end
  in
  let rows =
    List.sort
      (fun a b ->
        match Int.compare b.total a.total with
        | 0 -> compare (a.func, a.pc) (b.func, b.pc)
        | c -> c)
      (List.map row_of_site view.Obs.sites)
  in
  let faults_total = List.fold_left (fun n r -> n + r.total) 0 rows in
  {
    app_name = l.Experiment.built.Apps.App.app_name;
    mode;
    policy;
    errors;
    trials;
    seed;
    rows;
    faults_total;
    summary;
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
