(* Benchmark harness: regenerates every table and figure of the paper
   (printed as text tables with the paper's own numbers alongside),
   runs the ablations from DESIGN.md, and finishes with Bechamel
   micro-benchmarks of the toolchain itself.

   Usage:
     dune exec bench/main.exe                 # everything, default size
     dune exec bench/main.exe -- table2 fig4  # selected experiments
     dune exec bench/main.exe -- --quick      # reduced trial counts
     dune exec bench/main.exe -- micro        # only the micro-benchmarks
     dune exec bench/main.exe -- --jobs 8     # campaign trials on 8 domains
     dune exec bench/main.exe -- --json out.json  # machine-readable timings
     dune exec bench/main.exe -- --trace t.json --metrics m.jsonl
                                              # telemetry exports (lib/obs)

   All campaigns are deterministic for a fixed seed and for any --jobs
   value: trial RNGs derive from the trial index, so the domain fan-out
   cannot change results. *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

let section title =
  say "";
  say "%s" (String.make 72 '=');
  say "%s" title;
  say "%s" (String.make 72 '=')

(* Wall-time ledger, for the console trailer and the --json report.
   Each experiment also records an obs span (cat "bench"), so a --trace
   export shows the experiment envelope above the per-trial spans. *)
let experiment_times : (string * float) list ref = ref []

let timed name f =
  let s0 = Obs.span_begin () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  experiment_times := !experiment_times @ [ (name, Unix.gettimeofday () -. t0) ];
  Obs.span_end ~name ~cat:"bench" s0;
  r

(* ------------------------------------------------------------------ *)
(* Experiments.                                                        *)

let run_table2 ~trials ?jobs loaded =
  section "Table 2 — catastrophic failures with/without control protection";
  let rows = timed "table2" (fun () -> Harness.Table2.run ~trials ?jobs loaded) in
  say "%s" (Harness.Table2.render rows);
  section "Fault-flow taxonomy (dynamic taint audit)";
  let mode = Harness.Experiment.Full in
  let audit =
    timed "fault_flow" (fun () ->
        Harness.Taxonomy.audit ~trials ?jobs ~mode loaded)
  in
  say "%s" (Harness.Taxonomy.render_audit ~mode audit)

let run_table3 ?jobs loaded =
  section "Table 3 — % of dynamic instructions tagged low-reliability";
  let rows = timed "table3" (fun () -> Harness.Table3.run ?jobs loaded) in
  say "%s" (Harness.Table3.render rows)

let figures :
    (string
    * (?trials:int ->
       ?seed:int ->
       ?jobs:int ->
       Harness.Experiment.loaded list ->
       Harness.Figures.result))
    list =
  [
    ("fig1", Harness.Figures.fig1);
    ("fig2", Harness.Figures.fig2);
    ("fig3", Harness.Figures.fig3);
    ("fig4", Harness.Figures.fig4);
    ("fig5", Harness.Figures.fig5);
    ("fig6", Harness.Figures.fig6);
  ]

let run_figures ~trials ?jobs ~which loaded =
  List.iter
    (fun (id, f) ->
      if which id then begin
        section (String.uppercase_ascii id);
        let r =
          timed id (fun () -> f ?trials:(Some trials) ?seed:None ?jobs loaded)
        in
        say "%s" (Harness.Figures.render r)
      end)
    figures

let run_extensions ~trials ?jobs loaded =
  section "Cost model — selective vs uniform protection (paper Sec. 5.3)";
  let cost =
    timed "cost_model" (fun () ->
        Harness.Cost_model.run ?jobs ~mode:Harness.Experiment.Literal loaded)
  in
  say "%s" (Harness.Cost_model.render ~mode:Harness.Experiment.Literal cost);
  section "Fault outcome taxonomy (benign / degraded / catastrophic)";
  let tax =
    timed "taxonomy" (fun () ->
        Harness.Taxonomy.run ~trials ?jobs ~mode:Harness.Experiment.Literal
          loaded)
  in
  say "%s" (Harness.Taxonomy.render ~mode:Harness.Experiment.Literal tax)

let run_ablations ~trials ?jobs loaded =
  section "Ablation A — address protection";
  let a =
    timed "ablation_address" (fun () ->
        Harness.Ablation.address ~trials ?jobs loaded)
  in
  say "%s" (Harness.Ablation.render_address a);
  section "Ablation B — programmer eligibility marking";
  let b =
    timed "ablation_eligibility" (fun () ->
        Harness.Ablation.eligibility ~trials ?jobs ())
  in
  say "%s" (Harness.Ablation.render_eligibility b)

(* ------------------------------------------------------------------ *)
(* Checkpointed campaigns: fork-from-prefix vs from-scratch, with the
   per-phase wall clock (prepare / golden checkpointing / trials) and
   the checkpoint hit-rate. Two fault densities: the dense e=20 cell is
   timeout-dominated (skipping the fault-free prefix saves ~1/(e+1) of
   each completed trial and nothing of the infinite-loop trials, which
   must run to their budget to stay bit-exact), while the sparse e=1
   cell skips ~half of every trial — the regime checkpointing targets.
   Both paths must produce identical trial records; the run aborts if
   they diverge. *)

(* Bit-exactness fingerprint of one trial record — everything a
   summary's [trials] list carries except the never-populated
   [fault_flow]; fidelity travels as hexfloat so the comparison is
   exact, not printf-rounded. *)
let fingerprint (t : Core.Campaign.trial) =
  Printf.sprintf "%d/%s/%d/%d/%d/%s" t.Core.Campaign.index
    (Core.Outcome.describe t.Core.Campaign.outcome)
    t.Core.Campaign.dyn_count t.Core.Campaign.faults_planned
    t.Core.Campaign.faults_landed
    (match t.Core.Campaign.fidelity with
     | None -> "-"
     | Some f -> Printf.sprintf "%h" f)

type ckpt_cell = {
  ck_label : string;
  ck_errors : int;
  ck_trials : int;  (* per policy *)
  ck_resumed_s : float;
  ck_scratch_s : float;
  ck_hits : int;        (* trials fast-forwarded past a non-empty prefix *)
  ck_total : int;       (* trials across both policies *)
  ck_skipped_dyn : int; (* dynamic instructions not re-executed *)
}

let run_checkpoint ~quick ?jobs () : ckpt_cell list =
  section "Checkpointed campaigns — fork-from-prefix vs from-scratch (susan)";
  let trials = if quick then 25 else 100 in
  let seed = 1 in
  let b = Apps.Susan.app.Apps.App.build ~seed in
  let target =
    timed "ckpt_prepare" (fun () -> Core.Campaign.of_prog b.Apps.App.prog)
  in
  let golden = target.Core.Campaign.baseline in
  let score r = b.Apps.App.score ~golden r in
  let policies = [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ] in
  (* Golden checkpointing passes (one per policy); the stride-0 prepares
     are arithmetic only. *)
  let ps_on =
    timed "ckpt_golden" (fun () ->
        List.map (fun policy -> Core.Campaign.prepare target policy) policies)
  in
  let ps_off =
    List.map
      (fun policy -> Core.Campaign.prepare ~checkpoint_stride:0 target policy)
      policies
  in
  let campaign ps ~errors =
    List.map
      (fun p ->
        Core.Campaign.run ?jobs ~score p ~errors ~trials ~seed:(seed + 100))
      ps
  in
  List.map
    (fun errors ->
      let label = Printf.sprintf "e=%d" errors in
      let wall name f =
        let t0 = Unix.gettimeofday () in
        let r = timed name f in
        (r, Unix.gettimeofday () -. t0)
      in
      let on, resumed_s =
        wall
          (Printf.sprintf "ckpt_trials_resumed[%s]" label)
          (fun () -> campaign ps_on ~errors)
      in
      let off, scratch_s =
        wall
          (Printf.sprintf "ckpt_trials_scratch[%s]" label)
          (fun () -> campaign ps_off ~errors)
      in
      List.iter2
        (fun (a : Core.Campaign.summary) (b : Core.Campaign.summary) ->
          let fp s = List.map fingerprint s.Core.Campaign.trials in
          if fp a <> fp b then
            failwith
              ("checkpointed and from-scratch trial records diverge at "
             ^ label))
        on off;
      let hits =
        List.fold_left (fun n s -> n + s.Core.Campaign.resumed_trials) 0 on
      in
      let skipped =
        List.fold_left (fun n s -> n + s.Core.Campaign.skipped_dyn) 0 on
      in
      let total = 2 * trials in
      say
        "  %-5s %3d trials x 2 policies: %6.2f s resumed vs %6.2f s \
         from-scratch (%.2fx)  hit-rate %d/%d  skipped %d Mdyn  [records \
         identical]"
        label trials resumed_s scratch_s
        (scratch_s /. Float.max resumed_s 1e-9)
        hits total (skipped / 1_000_000);
      {
        ck_label = label;
        ck_errors = errors;
        ck_trials = trials;
        ck_resumed_s = resumed_s;
        ck_scratch_s = scratch_s;
        ck_hits = hits;
        ck_total = total;
        ck_skipped_dyn = skipped;
      })
    [ 20; 1 ]

(* ------------------------------------------------------------------ *)
(* Incremental campaigns: section-level memoization (lib/core/memo)
   after a synthetic one-function edit. Per app: a cold incremental run
   on the pristine program populates a fresh cache; the program is then
   dead-padded in one late-phase function and re-run both monolithically
   (the cost an edit implies without the cache) and incrementally (only
   section groups reached through the edit re-execute). The two must
   produce identical trial records and the re-check must reuse at least
   one group — both enforced with a hard failure; the ≤1/3 cost target
   is reported, not asserted, so a loaded machine cannot flake the
   bench. *)

type inc_cell = {
  inc_app : string;
  inc_edited : string;  (* the dead-padded function *)
  inc_errors : int;
  inc_trials : int;  (* per policy *)
  inc_cold_s : float;  (* cold incremental run (cache populate) *)
  inc_full_s : float;  (* monolithic campaign on the edited program *)
  inc_recheck_s : float;  (* warm incremental run on the edited program *)
  inc_sections : int;  (* section groups across both policies *)
  inc_hits : int;
  inc_reused : int;
  inc_ran : int;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let run_incremental ~quick ?jobs () : inc_cell list =
  section
    "Incremental campaigns — re-check after a one-function edit vs full";
  let trials = if quick then 30 else 100 in
  (* Dense plans concentrate first fault ordinals early (min of e
     uniforms), so editing a late-phase function leaves most section
     groups clean — the regime compositional injection targets. *)
  let errors = 5 in
  let seed = 1 in
  let policies =
    [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ]
  in
  List.map
    (fun (app_name, edited) ->
      let app =
        match Apps.Registry.find app_name with
        | Some a -> a
        | None -> failwith ("unknown app " ^ app_name)
      in
      let b = app.Apps.App.build ~seed in
      let prog0 = b.Apps.App.prog in
      let prog1 = Analysis.Section.dead_pad ~func:edited prog0 in
      let cache = "_bench_memo_cache_" ^ app_name in
      rm_rf cache;
      let store = Core.Memo.Store.open_ cache in
      let wall name f =
        let t0 = Unix.gettimeofday () in
        let r = timed name f in
        (r, Unix.gettimeofday () -. t0)
      in
      (* Walls include of_prog + prepare: a re-check always pays the
         golden run and checkpointing again, so both sides charge it. *)
      let campaign run_one prog =
        let target = Core.Campaign.of_prog prog in
        let golden = target.Core.Campaign.baseline in
        let score r = b.Apps.App.score ~golden r in
        List.map
          (fun policy ->
            run_one ~score (Core.Campaign.prepare target policy))
          policies
      in
      let mono ~score p =
        Core.Campaign.run ?jobs ~score p ~errors ~trials ~seed:(seed + 100)
      in
      let inc ~score p =
        Core.Memo.run ?jobs ~score ~salt:app_name ~store p ~errors ~trials
          ~seed:(seed + 100)
      in
      let _, cold_s =
        wall
          (Printf.sprintf "inc_cold[%s]" app_name)
          (fun () -> campaign inc prog0)
      in
      let full, full_s =
        wall
          (Printf.sprintf "inc_full[%s]" app_name)
          (fun () -> campaign mono prog1)
      in
      let warm, recheck_s =
        wall
          (Printf.sprintf "inc_recheck[%s]" app_name)
          (fun () -> campaign inc prog1)
      in
      List.iter2
        (fun (a : Core.Campaign.summary) ((b : Core.Campaign.summary), _) ->
          let fp s = List.map fingerprint s.Core.Campaign.trials in
          if fp a <> fp b then
            failwith
              ("incremental and monolithic trial records diverge on "
             ^ app_name))
        full warm;
      let st =
        List.fold_left
          (fun (acc : Core.Memo.stats) (_, (st : Core.Memo.stats)) ->
            Core.Memo.
              {
                sections = acc.sections + st.sections;
                hits = acc.hits + st.hits;
                misses = acc.misses + st.misses;
                trials_reused = acc.trials_reused + st.trials_reused;
                trials_run = acc.trials_run + st.trials_run;
              })
          Core.Memo.zero_stats warm
      in
      if st.Core.Memo.hits = 0 then
        failwith ("incremental re-check reused nothing on " ^ app_name);
      rm_rf cache;
      let ratio = recheck_s /. Float.max full_s 1e-9 in
      say
        "  %-6s edit %-8s %3d trials x 2 policies: full %6.2f s vs \
         re-check %6.2f s (%.2fx cost)  %d/%d groups hit, %d/%d trials \
         reused  [records identical]%s"
        app_name edited trials full_s recheck_s ratio st.Core.Memo.hits
        st.Core.Memo.sections st.Core.Memo.trials_reused
        (st.Core.Memo.trials_reused + st.Core.Memo.trials_run)
        (if ratio > 1.0 /. 3.0 then "  [above 1/3 target]" else "");
      {
        inc_app = app_name;
        inc_edited = edited;
        inc_errors = errors;
        inc_trials = trials;
        inc_cold_s = cold_s;
        inc_full_s = full_s;
        inc_recheck_s = recheck_s;
        inc_sections = st.Core.Memo.sections;
        inc_hits = st.Core.Memo.hits;
        inc_reused = st.Core.Memo.trials_reused;
        inc_ran = st.Core.Memo.trials_run;
      })
    [ ("gsm", "decode"); ("mpeg", "decode") ]

(* ------------------------------------------------------------------ *)
(* Matrix sweep: the spec-driven runner (Harness.Matrix) cold vs warm
   on a shared result cache. The warm run must be served entirely from
   the cache (cell hits > 0, zero trials executed) and its summaries
   must be bit-identical to the cold run's — both enforced with a hard
   failure. The wall ratio is reported, not asserted, so a loaded
   machine cannot flake the bench. *)

type mx_cell = {
  mx_label : string;
  mx_requested : int;
  mx_ok : int;
  mx_skipped : int;
  mx_trials : int;  (* per cell *)
  mx_cold_s : float;
  mx_warm_s : float;
  mx_warm_hits : int;  (* warm cells served entirely from the cache *)
  mx_trials_reused : int;  (* warm run *)
}

let run_matrix ~quick ?jobs () : mx_cell list =
  section "Matrix sweep — cold vs warm on a shared result cache";
  let trials = if quick then 8 else 25 in
  let spec =
    {
      Harness.Matrix.apps = [ "adpcm"; "gsm" ];
      mode = Harness.Experiment.Full;
      policies = [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ];
      errors = [ 1; 5 ];
      trials;
      seed = 1;
    }
  in
  let cache = "_bench_matrix_cache" in
  rm_rf cache;
  let store = Core.Memo.Store.open_ cache in
  let wall name f =
    let t0 = Unix.gettimeofday () in
    let r = timed name f in
    (r, Unix.gettimeofday () -. t0)
  in
  let cold, cold_s =
    wall "matrix_cold" (fun () -> Harness.Matrix.run ?jobs ~store spec)
  in
  let warm, warm_s =
    wall "matrix_warm" (fun () -> Harness.Matrix.run ?jobs ~store spec)
  in
  rm_rf cache;
  (match
     Harness.Matrix.failures cold @ Harness.Matrix.failures warm
   with
   | [] -> ()
   | (l, m) :: _ -> failwith ("matrix cell failed: " ^ l ^ ": " ^ m));
  let tc = Harness.Matrix.totals cold in
  let tw = Harness.Matrix.totals warm in
  if tw.Harness.Matrix.cells_hit = 0 then
    failwith "warm matrix run hit nothing in the cache";
  if tw.Harness.Matrix.trials_run > 0 then
    failwith "warm matrix run re-executed trials";
  List.iter2
    (fun (a : Harness.Matrix.cell) (b : Harness.Matrix.cell) ->
      match (a.Harness.Matrix.status, b.Harness.Matrix.status) with
      | Harness.Matrix.Ok x, Harness.Matrix.Ok y ->
        let fp (ok : Harness.Matrix.cell_ok) =
          List.map fingerprint ok.Harness.Matrix.summary.Core.Campaign.trials
        in
        if fp x <> fp y then
          failwith
            ("cold and warm matrix summaries diverge at "
            ^ Harness.Matrix.cell_label a.Harness.Matrix.cell)
      | Harness.Matrix.Skipped _, Harness.Matrix.Skipped _ -> ()
      | _ ->
        failwith
          ("cold and warm matrix statuses diverge at "
          ^ Harness.Matrix.cell_label a.Harness.Matrix.cell))
    cold.Harness.Matrix.cells warm.Harness.Matrix.cells;
  say
    "  %d cells (%d ok, %d skipped) x %d trials: cold %6.2f s vs warm \
     %6.2f s (%.2fx)  warm: %d/%d cells cached, %d trials reused  \
     [records identical]"
    tc.Harness.Matrix.requested tc.Harness.Matrix.ok
    tc.Harness.Matrix.skipped trials cold_s warm_s
    (warm_s /. Float.max cold_s 1e-9)
    tw.Harness.Matrix.cells_hit tw.Harness.Matrix.ok
    tw.Harness.Matrix.trials_reused;
  [
    {
      mx_label = "adpcm+gsm 2x2x2";
      mx_requested = tc.Harness.Matrix.requested;
      mx_ok = tc.Harness.Matrix.ok;
      mx_skipped = tc.Harness.Matrix.skipped;
      mx_trials = trials;
      mx_cold_s = cold_s;
      mx_warm_s = warm_s;
      mx_warm_hits = tw.Harness.Matrix.cells_hit;
      mx_trials_reused = tw.Harness.Matrix.trials_reused;
    };
  ]

(* ------------------------------------------------------------------ *)
(* `etap serve` daemon: the same inject request cold, warm (second
   request against the now-populated registry and result cache) and as
   a coalesced pair (two identical in-flight requests on one daemon).
   All three drive the real connection handler over pipes, so the
   measurement covers the full protocol path the CLI client sees.
   Hard guards: warm and coalesced responses carry tables bit-identical
   to the cold run's, the warm request executes zero trials and lands
   under 0.1x the cold wall, and the coalesced pair runs trials exactly
   once (serve.coalesced = 1, campaign.trials equal to a single
   request's). *)

type sv_cell = {
  sv_label : string;
  sv_trials : int;  (* per policy *)
  sv_cold_s : float;
  sv_warm_s : float;
  sv_coalesced : int;  (* serve.coalesced during the pair *)
  sv_pair_trials : int;  (* campaign.trials during the pair *)
  sv_single_trials : int;  (* campaign.trials during the cold run *)
}

(* One request/response exchange against [t]'s connection handler,
   running the handler on its own systhread with a pipe pair standing
   in for the socket. *)
let serve_request (t : Harness.Serve.t) (line : string) : string =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr req_r in
  let oc = Unix.out_channel_of_descr resp_w in
  let handler =
    Thread.create
      (fun () ->
        ignore (Harness.Serve.serve_connection t ~ic ~oc);
        close_out_noerr oc)
      ()
  in
  let req = Unix.out_channel_of_descr req_w in
  output_string req line;
  output_char req '\n';
  close_out req;
  let resp_ic = Unix.in_channel_of_descr resp_r in
  let resp = input_line resp_ic in
  Thread.join handler;
  close_in_noerr resp_ic;
  close_in_noerr ic;
  resp

(* The identity surface of a served report: its tables. Cache-stat
   meta (hits, reused trials) legitimately varies with cache state. *)
let serve_tables (resp : string) : string =
  match Harness.Proto.reply_of_line resp with
  | Error m -> failwith ("serve: unreadable response: " ^ m)
  | Ok r ->
    if not r.Harness.Proto.ok then
      failwith
        ("serve: request failed: "
        ^ Option.value ~default:"(no error)" r.Harness.Proto.error);
    (match r.Harness.Proto.report with
     | None -> failwith "serve: ok response without a report"
     | Some rep -> (
       match Report.Json.member "tables" rep with
       | Some t -> Report.Json.to_compact_string t
       | None -> failwith "serve: response report without tables"))

let sink_counter sink name =
  Option.value ~default:0
    (List.assoc_opt name (Obs.view sink).Obs.counters)

let run_serve ~quick ?jobs () : sv_cell list =
  section "`etap serve` — cold vs warm vs coalesced on one daemon";
  let trials = if quick then 8 else 25 in
  let errors = 3 in
  let line =
    Report.Json.to_compact_string
      (Report.Json.Obj
         [
           ("id", Report.Json.Int 1);
           ("cmd", Report.Json.Str "inject");
           ("app", Report.Json.Str "gsm");
           ("errors", Report.Json.Int errors);
           ("trials", Report.Json.Int trials);
         ])
  in
  let cache = "_bench_serve_cache" in
  let config gate =
    { Harness.Serve.default_config with cache_dir = cache; jobs; gate }
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Cold then warm: same daemon, same request. *)
  rm_rf cache;
  let t = Harness.Serve.create ~config:(config None) () in
  let sink_cold = Obs.make () in
  let cold_resp, cold_s =
    wall (fun () ->
        timed "serve_cold" (fun () ->
            Obs.with_sink sink_cold (fun () -> serve_request t line)))
  in
  let sink_warm = Obs.make () in
  let warm_resp, warm_s =
    wall (fun () ->
        timed "serve_warm" (fun () ->
            Obs.with_sink sink_warm (fun () -> serve_request t line)))
  in
  (* Hard guard on the introspection path: two stats polls against the
     still-live daemon (outside any with_sink wrapper, so the daemon's
     own sink records them). The second document's interval section
     must cover exactly the one request since the first poll. *)
  ignore (serve_request t {|{"id":90,"cmd":"stats"}|});
  (match Harness.Proto.reply_of_line (serve_request t {|{"id":91,"cmd":"stats"}|}) with
   | Error m -> failwith ("serve: unreadable stats response: " ^ m)
   | Ok r ->
     (match Report.Json.member "stats" r.Harness.Proto.body with
      | None -> failwith "serve: stats response carries no document"
      | Some doc ->
        let geti path =
          match
            List.fold_left
              (fun acc k -> Option.bind acc (Report.Json.member k))
              (Some doc) path
          with
          | Some (Report.Json.Int i) -> i
          | _ ->
            failwith
              ("serve: stats." ^ String.concat "." path ^ " missing")
        in
        if Report.Json.member "schema" doc
           <> Some (Report.Json.Str Harness.Proto.stats_schema)
        then failwith "serve: stats document without its schema marker";
        if geti [ "uptime_us" ] <= 0 then
          failwith "serve: stats uptime not positive";
        if geti [ "executor"; "workers" ] < 1 then
          failwith "serve: stats reports no workers";
        let w = geti [ "interval"; "counters"; "serve.requests" ] in
        if w <> 1 then
          failwith
            (Printf.sprintf
               "serve: stats interval saw %d requests, expected exactly 1" w)));
  Harness.Serve.shutdown t;
  let cold_tables = serve_tables cold_resp in
  if serve_tables warm_resp <> cold_tables then
    failwith "serve: warm response diverges from cold";
  if sink_counter sink_warm "campaign.trials" > 0 then
    failwith "serve: warm request re-executed trials";
  (* The 50 ms absolute floor keeps scheduler noise on a tiny warm
     request from failing the ratio when cold itself is fast. *)
  if warm_s > 0.1 *. cold_s && warm_s > 0.05 then
    failwith
      (Printf.sprintf
         "serve: warm request too slow (%.3f s vs cold %.3f s, > 0.1x)"
         warm_s cold_s);
  (* Coalesced pair: fresh daemon, fresh cache, two identical requests
     in flight at once. The gate parks the winner until the second
     request has attached, so the overlap is deterministic rather than
     a race against campaign wall time. *)
  rm_rf cache;
  let tref = ref None in
  let gate key =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      match !tref with
      | Some t2 when Harness.Serve.inflight_waiters t2 ~key >= 1 -> ()
      | _ ->
        if Unix.gettimeofday () < deadline then begin
          Thread.yield ();
          wait ()
        end
    in
    wait ()
  in
  let t2 = Harness.Serve.create ~config:(config (Some gate)) () in
  tref := Some t2;
  let sink_pair = Obs.make () in
  let (pair_a, pair_b), pair_s =
    wall (fun () ->
        timed "serve_coalesced" (fun () ->
            Obs.with_sink sink_pair (fun () ->
                let ra = ref "" and rb = ref "" in
                let th_a = Thread.create (fun () -> ra := serve_request t2 line) () in
                let th_b = Thread.create (fun () -> rb := serve_request t2 line) () in
                Thread.join th_a;
                Thread.join th_b;
                (!ra, !rb))))
  in
  Harness.Serve.shutdown t2;
  rm_rf cache;
  let coalesced = sink_counter sink_pair "serve.coalesced" in
  if coalesced <> 1 then
    failwith
      (Printf.sprintf "serve: expected 1 coalesced request, saw %d" coalesced);
  let pair_trials = sink_counter sink_pair "campaign.trials" in
  let single_trials = sink_counter sink_cold "campaign.trials" in
  if pair_trials <> single_trials then
    failwith
      (Printf.sprintf
         "serve: coalesced pair ran %d trials, single request ran %d"
         pair_trials single_trials);
  if serve_tables pair_a <> cold_tables || serve_tables pair_b <> cold_tables
  then failwith "serve: coalesced responses diverge from a standalone run";
  say
    "  gsm inject e%d t%d: cold %6.2f s, warm %6.2f s (%.2fx), coalesced \
     pair %6.2f s  [%d trials once, records identical]"
    errors trials cold_s warm_s
    (warm_s /. Float.max cold_s 1e-9)
    pair_s pair_trials;
  [
    {
      sv_label = Printf.sprintf "gsm e%d" errors;
      sv_trials = trials;
      sv_cold_s = cold_s;
      sv_warm_s = warm_s;
      sv_coalesced = coalesced;
      sv_pair_trials = pair_trials;
      sv_single_trials = single_trials;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the platform itself.                   *)

let micro () : (string * float * float option) list =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let susan = (Apps.Susan.app.Apps.App.build ~seed:1).Apps.App.prog in
  let code = Sim.Code.of_prog susan in
  let mcf = (Apps.Mcf.app.Apps.App.build ~seed:1).Apps.App.prog in
  let mcf_code = Sim.Code.of_prog mcf in
  let adpcm_code =
    Sim.Code.of_prog (Apps.Adpcm.app.Apps.App.build ~seed:1).Apps.App.prog
  in
  let gsm_code =
    Sim.Code.of_prog (Apps.Gsm.app.Apps.App.build ~seed:1).Apps.App.prog
  in
  (* Dynamic instruction count per workload, read back through the
     sim.instructions obs counter so the derived throughput column
     measures exactly what the engines report. *)
  let dyn_of c =
    let sink = Obs.make () in
    ignore (Obs.with_sink sink (fun () -> Sim.Interp.run_exn c));
    match List.assoc_opt "sim.instructions" (Obs.view sink).Obs.counters with
    | Some n -> Some (float n)
    | None -> None
  in
  let gcd_src =
    let open Mlang.Dsl in
    program []
      [
        fn "main" [] ~ret:(Some Mlang.Ast.TInt)
          [
            let_ "a" (i 1071);
            let_ "b" (i 462);
            while_ (v "b" <>! i 0)
              [ let_ "t" (v "b"); set "b" (v "a" %! v "b"); set "a" (v "t") ];
            ret (v "a");
          ];
      ]
  in
  (* The interp micros run the fast (threaded-closure) engine — the
     engine campaigns use by default — but on untagged images (no tag
     mask), unlike campaign images, which always carry a policy's mask;
     interp-ref micros keep the reference match-dispatch loop on the
     table for the cross-engine trajectory. *)
  let interp name c =
    let image = Sim.Interp.compile c in
    (Test.make ~name
       (Staged.stage (fun () -> ignore (Sim.Interp.run_exn ~image c))),
     dyn_of c)
  in
  let interp_ref name c =
    (Test.make ~name
       (Staged.stage (fun () -> ignore (Sim.Interp.run_exn c))),
     dyn_of c)
  in
  let plain t = (t, None) in
  let tests =
    [
      interp "interp: susan (630k instrs)" code;
      interp "interp: mcf (100k instrs)" mcf_code;
      interp "interp: adpcm (160k instrs)" adpcm_code;
      interp "interp: gsm (1.2M instrs)" gsm_code;
      interp_ref "interp-ref: susan (630k instrs)" code;
      interp_ref "interp-ref: mcf (100k instrs)" mcf_code;
      plain
        (Test.make ~name:"tagging: susan (full)"
           (Staged.stage (fun () ->
                ignore (Core.Tagging.compute ~protect_addresses:true susan))));
      plain
        (Test.make ~name:"tagging: susan (literal)"
           (Staged.stage (fun () ->
                ignore (Core.Tagging.compute ~protect_addresses:false susan))));
      plain
        (Test.make ~name:"compile: mlang gcd"
           (Staged.stage (fun () -> ignore (Mlang.Compile.to_ir gcd_src))));
      plain
        (Test.make ~name:"decode: susan"
           (Staged.stage (fun () -> ignore (Sim.Code.of_prog susan))));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 10) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results =
    List.concat_map
      (fun (test, dyn) ->
        List.map
          (fun elt ->
            let raw = Benchmark.run cfg [ instance ] elt in
            let est = Analyze.one ols instance raw in
            let ns =
              match Analyze.OLS.estimates est with
              | Some [ t ] -> t
              | Some _ | None -> nan
            in
            (* instrs / (ns * 1e-9) / 1e6 = instrs / ns * 1e3 *)
            let mips =
              match dyn with
              | Some d when Float.is_finite ns && ns > 0.0 ->
                Some (d /. ns *. 1e3)
              | _ -> None
            in
            say "  %-32s %14.1f ns/run  (%.3f ms)%s" (Test.Elt.name elt) ns
              (ns /. 1e6)
              (match mips with
               | Some m -> Printf.sprintf "  %8.1f Minstr/s" m
               | None -> "");
            (Test.Elt.name elt, ns, mips))
          (Test.elements test))
      tests
  in
  (* Engine regression guard: the threaded engine must never come out
     slower than the reference loop on the susan micro. A violation is
     a build/perf regression and fails the bench run (and CI's
     bench-smoke job) loudly. *)
  let ns_of name =
    List.find_map
      (fun (n, ns, _) -> if n = name then Some ns else None)
      results
  in
  (match (ns_of "interp: susan (630k instrs)",
          ns_of "interp-ref: susan (630k instrs)") with
   | Some fast, Some ref_ns
     when Float.is_finite fast && Float.is_finite ref_ns && fast > ref_ns ->
     failwith
       (Printf.sprintf
          "engine regression: fast interp slower than ref on susan \
           (%.0f ns/run > %.0f ns/run)"
          fast ref_ns)
   | _ -> ());
  results

(* ------------------------------------------------------------------ *)
(* JSON report: per-experiment wall times and micro ns/run, so future
   changes have a perf trajectory to diff against. Emitted through the
   shared report layer (schema etap-report/1, same document shape as
   every etap --json), whose printer renders every non-finite float
   (nan from a failed OLS fit, inf from a zero-length timing) as null —
   never a bare token that would break a JSON parser.                  *)

let round3 x = Float.round (x *. 1000.0) /. 1000.0

let bench_report ~jobs ~quick ~experiments ~micro ~checkpoint ~incremental
    ~matrix ~serve ~total : Report.t =
  let secs v = Report.num ~text:(Printf.sprintf "%.3f s" v) v in
  let timing_table ~id ~title ~key ~unit rows =
    Report.table ~id ~title
      ~columns:
        [
          Report.column ~key:"name" "name";
          Report.column ~key unit;
          Report.column ~key:"skipped" "skipped";
        ]
      (List.map
         (fun (name, v) ->
           (* Entries whose wall rounds to 0.000 are experiments that
              did no fresh work this run (their inputs were memoized
              by an earlier experiment — e.g. table3 behind
              load_apps in quick mode). The explicit [skipped]
              boolean is the marker consumers key on; the wall cell
              is null exactly when it is true, so skipped rows stay
              out of perf-trajectory diffs instead of contributing a
              misleading 0.0 — and a null wall can no longer be
              confused with a lost measurement. *)
           let skipped = v < 0.0005 in
           [
             Report.text name;
             (if skipped then Report.Missing "skipped"
              else
                let v = round3 v in
                Report.num ~text:(Printf.sprintf "%.3f" v) v);
             Report.bool skipped;
           ])
         rows)
  in
  let matrix_table =
    Report.table ~id:"matrix"
      ~title:"Matrix sweep: cold vs warm on a shared result cache"
      ~columns:
        (List.map
           (fun (k, l) -> Report.column ~key:k l)
           [
             ("cell", "cell");
             ("cells_requested", "cells");
             ("cells_ok", "ok");
             ("cells_skipped", "skipped");
             ("trials_per_cell", "trials/cell");
             ("cold_wall_s", "cold s");
             ("warm_wall_s", "warm s");
             ("warm_ratio", "warm/cold");
             ("warm_cells_hit", "warm hits");
             ("warm_trials_reused", "reused");
           ])
      (List.map
         (fun c ->
           [
             Report.text c.mx_label;
             Report.int c.mx_requested;
             Report.int c.mx_ok;
             Report.int c.mx_skipped;
             Report.int c.mx_trials;
             secs (round3 c.mx_cold_s);
             secs (round3 c.mx_warm_s);
             (let r = round3 (c.mx_warm_s /. Float.max c.mx_cold_s 1e-9) in
              Report.num ~text:(Printf.sprintf "%.2fx" r) r);
             Report.int c.mx_warm_hits;
             Report.int c.mx_trials_reused;
           ])
         matrix)
  in
  let checkpoint_table =
    Report.table ~id:"checkpoint"
      ~title:"Checkpointed campaigns: fork-from-prefix vs from-scratch"
      ~columns:
        (List.map
           (fun (k, l) -> Report.column ~key:k l)
           [
             ("cell", "cell");
             ("errors", "errors");
             ("trials_per_policy", "trials/policy");
             ("trials_resumed_wall_s", "resumed s");
             ("trials_scratch_wall_s", "scratch s");
             ("speedup", "speedup");
             ("checkpoint_hits", "hits");
             ("trials_total", "trials");
             ("skipped_dyn", "skipped dyn");
           ])
      (List.map
         (fun c ->
           [
             Report.text c.ck_label;
             Report.int c.ck_errors;
             Report.int c.ck_trials;
             secs (round3 c.ck_resumed_s);
             secs (round3 c.ck_scratch_s);
             (let s = round3 (c.ck_scratch_s /. Float.max c.ck_resumed_s 1e-9) in
              Report.num ~text:(Printf.sprintf "%.2fx" s) s);
             Report.int c.ck_hits;
             Report.int c.ck_total;
             Report.int c.ck_skipped_dyn;
           ])
         checkpoint)
  in
  let incremental_table =
    Report.table ~id:"incremental"
      ~title:
        "Incremental campaigns: re-check after a one-function edit vs full"
      ~columns:
        (List.map
           (fun (k, l) -> Report.column ~key:k l)
           [
             ("app", "app");
             ("edited", "edited");
             ("errors", "errors");
             ("trials_per_policy", "trials/policy");
             ("cold_wall_s", "cold s");
             ("full_wall_s", "full s");
             ("recheck_wall_s", "re-check s");
             ("cost_ratio", "re-check/full");
             ("groups_hit", "groups hit");
             ("groups", "groups");
             ("trials_reused", "reused");
             ("trials_run", "run");
           ])
      (List.map
         (fun c ->
           [
             Report.text c.inc_app;
             Report.text c.inc_edited;
             Report.int c.inc_errors;
             Report.int c.inc_trials;
             secs (round3 c.inc_cold_s);
             secs (round3 c.inc_full_s);
             secs (round3 c.inc_recheck_s);
             (let r = round3 (c.inc_recheck_s /. Float.max c.inc_full_s 1e-9) in
              Report.num ~text:(Printf.sprintf "%.2fx" r) r);
             Report.int c.inc_hits;
             Report.int c.inc_sections;
             Report.int c.inc_reused;
             Report.int c.inc_ran;
           ])
         incremental)
  in
  let serve_table =
    Report.table ~id:"serve"
      ~title:"etap serve: cold vs warm vs coalesced pair on one daemon"
      ~columns:
        (List.map
           (fun (k, l) -> Report.column ~key:k l)
           [
             ("cell", "cell");
             ("trials_per_policy", "trials/policy");
             ("cold_wall_s", "cold s");
             ("warm_wall_s", "warm s");
             ("warm_ratio", "warm/cold");
             ("coalesced", "coalesced");
             ("pair_trials_run", "pair trials");
             ("single_trials_run", "single trials");
           ])
      (List.map
         (fun c ->
           [
             Report.text c.sv_label;
             Report.int c.sv_trials;
             secs (round3 c.sv_cold_s);
             secs (round3 c.sv_warm_s);
             (let r = round3 (c.sv_warm_s /. Float.max c.sv_cold_s 1e-9) in
              Report.num ~text:(Printf.sprintf "%.2fx" r) r);
             Report.int c.sv_coalesced;
             Report.int c.sv_pair_trials;
             Report.int c.sv_single_trials;
           ])
         serve)
  in
  Report.make ~command:"bench"
    ~meta:
      [
        ("quick", Report.Json.Bool quick);
        ("jobs", Report.Json.of_int_opt jobs);
        ("total_wall_s", Report.Json.Float (round3 total));
      ]
    [
      timing_table ~id:"experiments" ~title:"Experiment wall times"
        ~key:"wall_s" ~unit:"wall_s" experiments;
      Report.table ~id:"micro" ~title:"Micro-benchmarks"
        ~columns:
          [
            Report.column ~key:"name" "name";
            Report.column ~key:"ns_per_run" "ns_per_run";
            Report.column ~key:"minstr_per_s" "minstr_per_s";
          ]
        (List.map
           (fun (name, ns, mips) ->
             let ns = round3 ns in
             [
               Report.text name;
               Report.num ~text:(Printf.sprintf "%.3f" ns) ns;
               (match mips with
                | Some m ->
                  let m = round3 m in
                  Report.num ~text:(Printf.sprintf "%.1f" m) m
                | None -> Report.text "-");
             ])
           micro);
      checkpoint_table;
      incremental_table;
      matrix_table;
      serve_table;
    ]

let write_json (path, oc) report =
  Out_channel.output_string oc (Report.Json.to_string (Report.to_json report));
  close_out oc;
  say "wrote %s" path

(* ------------------------------------------------------------------ *)

let usage_and_exit msg =
  prerr_endline msg;
  prerr_endline
    "usage: main.exe [--quick] [--jobs N | -j N] [--json PATH] [--trace PATH] \
     [--metrics PATH] [EXPERIMENT...]";
  exit 2

let () =
  let rec parse (quick, jobs, json, trace, metrics, rest) = function
    | [] -> (quick, jobs, json, trace, metrics, List.rev rest)
    | "--quick" :: tl -> parse (true, jobs, json, trace, metrics, rest) tl
    | ("--jobs" | "-j") :: n :: tl ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> parse (quick, Some j, json, trace, metrics, rest) tl
       | _ -> usage_and_exit ("bad --jobs value: " ^ n))
    | [ ("--jobs" | "-j") ] -> usage_and_exit "--jobs needs a value"
    | "--json" :: path :: tl -> parse (quick, jobs, Some path, trace, metrics, rest) tl
    | [ "--json" ] -> usage_and_exit "--json needs a path"
    | "--trace" :: path :: tl -> parse (quick, jobs, json, Some path, metrics, rest) tl
    | [ "--trace" ] -> usage_and_exit "--trace needs a path"
    | "--metrics" :: path :: tl -> parse (quick, jobs, json, trace, Some path, rest) tl
    | [ "--metrics" ] -> usage_and_exit "--metrics needs a path"
    | a :: tl -> parse (quick, jobs, json, trace, metrics, a :: rest) tl
  in
  let quick, jobs, json, trace, metrics, args =
    parse (false, None, None, None, None, []) (List.tl (Array.to_list Sys.argv))
  in
  (* Telemetry sink for --trace/--metrics: installed for the whole run,
     so every campaign span and counter below lands in it. Without the
     flags the ambient sink stays disabled and instrumentation is
     no-op. *)
  let obs_sink =
    if trace <> None || metrics <> None then begin
      let s = Obs.make () in
      Obs.install s;
      Some s
    end
    else None
  in
  (* Open the report up front so a bad path fails before the (possibly
     long) benchmark run, not after it. *)
  let json =
    Option.map
      (fun path ->
        match open_out path with
        | oc -> (path, oc)
        | exception Sys_error e -> usage_and_exit ("cannot open --json path: " ^ e))
      json
  in
  let trials = if quick then 8 else 20 in
  let t2_trials = if quick then 10 else 25 in
  let want name =
    args = [] || List.mem name args
    || (String.length name > 3
       && String.sub name 0 3 = "fig"
       && List.mem "figures" args)
  in
  let needs_apps =
    args = []
    || List.exists
         (fun a ->
           a <> "micro" && a <> "checkpoint" && a <> "incremental"
           && a <> "matrix" && a <> "serve")
         args
  in
  let t0 = Unix.gettimeofday () in
  let loaded =
    if needs_apps then begin
      say "building applications and baselines... (jobs=%s)"
        (match jobs with
         | Some j -> string_of_int j
         | None -> Printf.sprintf "auto:%d" (Core.Pool.default_jobs ()));
      timed "load_apps" (fun () -> Harness.Experiment.load_all ?jobs ())
    end
    else []
  in
  if want "table2" then run_table2 ~trials:t2_trials ?jobs loaded;
  if want "table3" then run_table3 ?jobs loaded;
  run_figures ~trials ?jobs ~which:want loaded;
  if want "ablation" then run_ablations ~trials ?jobs loaded;
  if want "extensions" then run_extensions ~trials ?jobs loaded;
  let checkpoint_results =
    if want "checkpoint" then run_checkpoint ~quick ?jobs () else []
  in
  let incremental_results =
    if want "incremental" then run_incremental ~quick ?jobs () else []
  in
  let matrix_results =
    if want "matrix" then run_matrix ~quick ?jobs () else []
  in
  let serve_results =
    if want "serve" then run_serve ~quick ?jobs () else []
  in
  let micro_results = if want "micro" then timed "micro" micro else [] in
  let total = Unix.gettimeofday () -. t0 in
  say "";
  List.iter
    (fun (name, secs) -> say "  %-28s %7.2f s" name secs)
    !experiment_times;
  say "total wall time: %.1f s" total;
  (* Telemetry trailer + exports. The trial-latency histogram comes
     from the merged obs view (campaign.trial_us, fed by every campaign
     above); quantiles are bucket representatives, ~9% resolution. *)
  (match obs_sink with
   | None -> ()
   | Some sink ->
     let v = Obs.view sink in
     (match List.assoc_opt "campaign.trial_us" v.Obs.hists with
      | Some h when Core.Stats.hist_count h > 0 ->
        let q p =
          match Core.Stats.hist_quantile h p with
          | Some us -> Printf.sprintf "%.2f ms" (us /. 1000.0)
          | None -> "n/a"
        in
        say "trial latency (%d trials): p50 %s  p90 %s  p99 %s"
          (Core.Stats.hist_count h) (q 0.50) (q 0.90) (q 0.99)
      | _ -> ());
     (match trace with
      | None -> ()
      | Some path ->
        Obs.write_trace ~path v;
        say "wrote %s" path);
     match metrics with
     | None -> ()
     | Some path ->
       Obs.write_metrics ~path ~command:"bench"
         ~meta:
           [
             ("quick", Report.Json.Bool quick);
             ("jobs", Report.Json.of_int_opt jobs);
           ]
         v;
       say "wrote %s" path);
  match json with
  | None -> ()
  | Some dest ->
    write_json dest
      (bench_report ~jobs ~quick ~experiments:!experiment_times
         ~micro:micro_results ~checkpoint:checkpoint_results
         ~incremental:incremental_results ~matrix:matrix_results
         ~serve:serve_results ~total)
