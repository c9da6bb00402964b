(* etap — Error-Tolerance Analysis Platform command-line interface.

   Subcommands:
     list                      enumerate benchmark applications
     run APP                   fault-free run + fidelity self-check
     tag APP                   tagging analysis summary (both modes)
     sections APP              section partition + content hashes
     disasm APP [FUNC]         print the compiled IR
     inject APP -e N [-t T]    fault-injection campaign
     matrix [--apps ...]       cached sweep over apps x policies x errors
     audit [APP]               dynamic taint audit of the tagging analysis
     profile APP               fault-site attribution profile
     reproduce [EXPERIMENT...] the paper's tables, figures and ablations
     asm FILE, compile FILE    assemble / compile and run a program
     serve, top                campaign daemon and its live view
     cache gc|stats            result-cache maintenance

   The five campaign commands (inject, matrix, audit, profile,
   reproduce) only parse their flags into a [Harness.Request.t]; one
   shared call ([campaign]) runs it through [Harness.Request.run],
   which the serve daemon runs too. *)

open Cmdliner

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Shared arguments.                                                   *)

let app_arg =
  let doc = "Benchmark application name (see `etap list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

(* The named application, resolved; an unknown name is an error. *)
let known_app_arg =
  Term.(term_result' (const Harness.Request.find_app $ app_arg))

let seed_arg =
  let doc = "Workload generation seed." in
  Arg.(value & opt int Harness.Request.defaults.seed & info [ "seed" ] ~doc)

(* Campaign sizes pass the runner's one range rule where they enter; a
   violation is a usage error. *)
let count check =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (Printf.sprintf "%S is not an integer" s)
    | Some n -> check n
  in
  Arg.conv' ~docv:"N" (parse, Format.pp_print_int)

let trials_count = count Harness.Matrix.check_trials
let errors_count = count Harness.Matrix.check_errors

(* The cache bounds of `cache gc` and `serve`: a negative size or age
   (or a NaN age) would evict every entry, so it is a usage error. *)
let bytes_bound = count (Harness.Matrix.at_least "bytes" 0)

let days_bound =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (Printf.sprintf "%S is not a number" s)
    | Some d when d >= 0.0 -> Ok d
    | Some d -> Error (Printf.sprintf "days must be >= 0, got %g" d)
  in
  Arg.conv' ~docv:"D" (parse, Format.pp_print_float)

(* A run that failed — a failed cell, a soundness violation, a request
   answered "failed" — prints its error and exits 123
   ([Cmd.Exit.some_error]); cmdliner's usage errors exit 124. *)
let fail_run m =
  Printf.eprintf "etap: %s\n%!" m;
  exit Cmd.Exit.some_error

let exit_if_failed = function None -> () | Some m -> fail_run m

(* A client's connection to a daemon; without one it exits 123 like a
   failed request, with one line naming the socket. *)
let connect_or_exit ~path =
  match Harness.Serve.dial ~path with Ok c -> c | Error m -> fail_run m

let trials_arg =
  let doc = "Trials per campaign cell (at least 1)." in
  Arg.(
    value
    & opt trials_count Harness.Request.defaults.trials
    & info [ "t"; "trials" ] ~doc)

let errors_arg =
  let doc = "Number of single-bit errors to insert per run (0 or more)." in
  Arg.(
    value
    & opt errors_count Harness.Request.defaults.errors
    & info [ "e"; "errors" ] ~doc)

let jobs_arg =
  let doc =
    "Domains to fan campaign trials (and per-app analyses) over (at \
     least 1). Defaults to the machine's core count minus one. Results \
     are bit-identical for every value."
  in
  Arg.(
    value
    & opt (some (count (Harness.Matrix.at_least "jobs" 1))) None
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let literal_arg =
  let doc =
    "Use the paper's literal Section-3 tagging rules (addresses \
     unprotected) instead of control+address protection."
  in
  Arg.(value & flag & info [ "literal" ] ~doc)

let json_arg =
  let doc =
    "Also write the result as a machine-readable etap-report/1 JSON \
     document to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let incremental_arg =
  let doc =
    "Memoize per-section campaign results in a content-addressed on-disk \
     cache and compose re-runs from it: only sections whose composed \
     content hash (or fault-model coordinates) changed re-execute. \
     Summaries are bit-identical to a non-incremental run."
  in
  Arg.(value & flag & info [ "incremental" ] ~doc)

let cache_dir_arg ?(doc =
    "Result-cache root for $(b,--incremental) (created on demand; safe \
     to delete at any time).") () =
  Arg.(
    value & opt string "_etap_cache" & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event file (etap-trace/1, loadable in \
     Perfetto or chrome://tracing) of the command's spans — per-trial, \
     per-fan-out, snapshot builds — to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)

let metrics_arg =
  let doc =
    "Write a JSONL metrics stream (etap-metrics/1) — one line per \
     counter, latency histogram and fault site — to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"PATH" ~doc)

(* Telemetry scope of one command invocation: when [--trace] or
   [--metrics] was given, install a fresh collecting sink for the
   duration of [f] (one top-level span around the whole command) and
   export on the way out — also when [f] raises or returns [Error], so
   a failing campaign still leaves its partial trace behind. With
   neither flag the ambient sink stays [Obs.disabled] and the
   instrumentation throughout the stack stays a no-op. *)
let with_obs ~trace ~metrics ~command ~meta f =
  match (trace, metrics) with
  | None, None -> f ()
  | _ ->
    let sink = Obs.make () in
    Obs.with_sink sink (fun () ->
        Fun.protect
          ~finally:(fun () ->
            let v = Obs.view sink in
            (match trace with
             | None -> ()
             | Some path ->
               Obs.write_trace ~path v;
               say "wrote %s" path);
            match metrics with
            | None -> ()
            | Some path ->
              Obs.write_metrics ~path ~command ~meta v;
              say "wrote %s" path)
          (fun () -> Obs.span ~name:command ~cat:"cli" f))

(* One emitter for every subcommand: the text table(s) go to stdout
   unchanged; [--json PATH] additionally writes the same tables as an
   etap-report/1 document ([write_json] alone when the text says more
   than the tables). *)
let write_json json report =
  match json with
  | None -> ()
  | Some path ->
    Report.write_json ~path report;
    say "wrote %s" path

let emit ?json ~command ~meta tables =
  List.iter (fun t -> say "%s" (Report.to_text t)) tables;
  write_json json (Report.make ~command ~meta tables)

(* ------------------------------------------------------------------ *)
(* Commands.                                                           *)

let list_cmd =
  let action () =
    List.iter
      (fun (a : Apps.App.t) ->
        say "%-10s [%s]" a.Apps.App.name a.Apps.App.source;
        say "    %s" a.Apps.App.description)
      Apps.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmark applications")
    Term.(const action $ const ())

let run_cmd =
  let action (app : Apps.App.t) seed =
    let b = app.Apps.App.build ~seed in
    let code = Sim.Code.of_prog b.Apps.App.prog in
    let r = Sim.Interp.run_exn ~image:(Sim.Interp.compile code) code in
    say "%s: %d dynamic instructions, fault-free" app.Apps.App.name
      r.Sim.Interp.dyn_count;
    (match b.Apps.App.host_check r with
     | Ok () -> say "host reference check: OK"
     | Error m -> say "host reference check: FAILED (%s)" m);
    say "fidelity vs self: %.1f %s"
      (b.Apps.App.score ~golden:r r)
      b.Apps.App.fidelity_units
  in
  Cmd.v (Cmd.info "run" ~doc:"Fault-free run with host-reference check")
    Term.(const action $ known_app_arg $ seed_arg)

let tag_cmd =
  let action (app : Apps.App.t) seed =
    let b = app.Apps.App.build ~seed in
    let code = Sim.Code.of_prog b.Apps.App.prog in
    let baseline, _ = Sim.Snapshot.golden ~masks:[] code in
    say "%-28s %10s %10s" "" "ctrl+addr" "literal";
    let line label f = say "%-28s %10s %10s" label (f true) (f false) in
    let tagging pa = Core.Tagging.compute ~protect_addresses:pa b.Apps.App.prog in
    let t_full = tagging true and t_lit = tagging false in
    let t_of pa = if pa then t_full else t_lit in
    line "static tagged / producing" (fun pa ->
        let `Tagged tg, `Producing pr, `Total _ =
          Core.Tagging.static_stats (t_of pa)
        in
        Printf.sprintf "%d/%d" tg pr);
    line "dynamic low-reliability %" (fun pa ->
        Printf.sprintf "%.1f%%"
          (100.0
          *. Core.Tagging.dynamic_low_fraction (t_of pa)
               baseline.Sim.Interp.exec_counts));
    say "dynamic instructions: %d" baseline.Sim.Interp.dyn_count;
    List.iter
      (fun (f : Ir.Func.t) ->
        match Core.Tagging.low_reliability t_full f.Ir.Func.name with
        | None -> ()
        | Some low ->
          let n = Array.fold_left (fun a b -> if b then a + 1 else a) 0 low in
          say "  %-20s %4d/%4d static instrs tagged (ctrl+addr)%s"
            f.Ir.Func.name n (Array.length low)
            (if f.Ir.Func.eligible then "" else "  [ineligible]"))
      (Ir.Prog.funcs b.Apps.App.prog)
  in
  Cmd.v (Cmd.info "tag" ~doc:"Show the control-protection tagging analysis")
    Term.(const action $ known_app_arg $ seed_arg)

let sections_cmd =
  let policy_arg =
    let p =
      Arg.enum
        [
          ("control", Core.Policy.Protect_control);
          ("nothing", Core.Policy.Protect_nothing);
        ]
    in
    let doc =
      "Protection policy whose tag mask is folded into the hashes \
       ($(b,control) or $(b,nothing)) — the same hashes `inject \
       --incremental` keys its cache by."
    in
    Arg.(
      value & opt p Core.Policy.Protect_control
      & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let action (app : Apps.App.t) seed literal policy json =
    let meta =
      [
        ("app", Report.Json.Str app.Apps.App.name);
        ("seed", Report.Json.Int seed);
        ("literal", Report.Json.Bool literal);
        ("policy", Report.Json.Str (Core.Policy.to_string policy));
      ]
    in
    let table = Harness.Sections.table app ~seed ~literal ~policy in
    emit ?json ~command:"sections" ~meta [ table ]
  in
  Cmd.v
    (Cmd.info "sections"
       ~doc:
         "Show the program's section partition: per-function canonical \
          content hashes (local and composed over the call subtree) that \
          key the incremental-injection result cache")
    Term.(
      const action $ known_app_arg $ seed_arg $ literal_arg $ policy_arg
      $ json_arg)

let disasm_cmd =
  let func_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FUNC")
  in
  let action (app : Apps.App.t) func seed =
    let prog = (app.Apps.App.build ~seed).Apps.App.prog in
    match func with
    | None -> say "%s" (Format.asprintf "%a" Ir.Prog.pp prog)
    | Some f -> (
      match Ir.Prog.find_func prog f with
      | Some fn -> say "%s" (Format.asprintf "%a" Ir.Func.pp fn)
      | None -> say "no function %s" f)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Print compiled IR")
    Term.(const action $ known_app_arg $ func_arg $ seed_arg)

let asm_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Assembly source file (the syntax `etap disasm` prints).")
  in
  let action file =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Ir.Asm.parse_program_res source with
    | Error m -> Error (`Msg m)
    | Ok prog ->
      (match Ir.Validate.check prog with
       | [] -> (
         let code = Sim.Code.of_prog prog in
         match Sim.Interp.run_exn ~image:(Sim.Interp.compile code) code with
         | exception Failure m -> Error (`Msg m)
         | r ->
           say "ran %d dynamic instructions" r.Sim.Interp.dyn_count;
           (match r.Sim.Interp.outcome with
            | Sim.Interp.Done (Some v) ->
              say "main returned %s" (Sim.Value.to_string v)
            | Sim.Interp.Done None -> say "main returned (void)"
            | _ -> ());
           Ok ())
       | errs ->
         Error
           (`Msg
             (String.concat "\n"
                (List.map (Format.asprintf "%a" Ir.Validate.pp_error) errs))))
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble, validate and run a textual IR file")
    Term.(term_result (const action $ file_arg))

let compile_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Mlang source file (C-like surface syntax).")
  in
  let inject_arg =
    Arg.(value & opt (some errors_count) None & info [ "inject" ]
           ~doc:"After compiling, run a fault campaign with this many errors.")
  in
  let show_arg =
    Arg.(value & flag & info [ "ir" ] ~doc:"Print the compiled IR.")
  in
  let action file inject show trials jobs =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Mlang.Parser.parse_program_res source with
    | Error m -> Error (`Msg m)
    | Ok ast ->
      (match Mlang.Compile.to_ir ast with
       | exception Mlang.Ast.Type_error m -> Error (`Msg m)
       | prog -> (
         if show then say "%s" (Format.asprintf "%a" Ir.Prog.pp prog);
         let code = Sim.Code.of_prog prog in
         match Sim.Interp.run_exn ~image:(Sim.Interp.compile code) code with
         | exception Failure m -> Error (`Msg m)
         | r ->
           say "ran %d dynamic instructions%s" r.Sim.Interp.dyn_count
             (match r.Sim.Interp.outcome with
              | Sim.Interp.Done (Some v) ->
                Printf.sprintf ", main returned %s" (Sim.Value.to_string v)
              | _ -> "");
           (match inject with
            | None -> ()
            | Some errors ->
              let target = Core.Campaign.of_prog prog in
              List.iter
                (fun policy ->
                  let p = Core.Campaign.prepare target policy in
                  let s = Core.Campaign.run ?jobs p ~errors ~trials ~seed:1 in
                  say "%-18s %d errors x %d: %4.1f%% catastrophic (pool %d)"
                    (Core.Policy.to_string policy)
                    errors (Core.Campaign.n s)
                    (Core.Campaign.pct_catastrophic s)
                    p.Core.Campaign.injectable_total)
                [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ]);
           Ok ()))
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile an Mlang source file; optionally print IR and campaign")
    Term.(
      term_result
        (const action $ file_arg $ inject_arg $ show_arg $ trials_arg
       $ jobs_arg))

(* ------------------------------------------------------------------ *)
(* Campaign commands: flags parsed into a [Harness.Request.t], then one
   shared call. *)

(* A campaign command's term: its [request] (with the result store's
   root, for the commands that go through one) and the flags every
   campaign command shares, run by one shared call. It refuses an
   unknown app (a usage error) before anything runs, then runs
   [Request.run] under one obs scope — text to stdout, the report to
   [--json], a typed error to exit 123. *)
let campaign request =
  let run (cache, r) jobs json trace metrics =
    match Harness.Request.unknown r with
    | Some m -> Error m
    | None -> (
      let store = Option.map Core.Memo.Store.open_ cache in
      let env = Harness.Request.local ?jobs ?store () in
      exit_if_failed
        ( with_obs ~trace ~metrics ~command:(Harness.Request.command r)
            ~meta:(Harness.Request.meta env r)
        @@ fun () ->
          let say = say "%s" and emit = write_json json in
          snd (Harness.Request.run env ~say ~emit r) );
      Ok ())
  in
  Term.(
    term_result'
      (const run $ request $ jobs_arg $ json_arg $ trace_arg $ metrics_arg))

let coords_arg =
  let coords errors trials seed literal =
    { Harness.Request.errors; trials; seed; literal }
  in
  Term.(const coords $ errors_arg $ trials_arg $ seed_arg $ literal_arg)

let inject_cmd =
  let request app at incremental cache_dir =
    ( (if incremental then Some cache_dir else None),
      Harness.Request.Inject { app; at } )
  in
  Cmd.v
    (Cmd.info "inject" ~doc:"Run a fault-injection campaign on one app")
    (campaign
       Term.(const request $ app_arg $ coords_arg $ incremental_arg
             $ cache_dir_arg ()))

let matrix_cmd =
  let split_commas s =
    List.filter
      (fun x -> x <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  let apps_arg =
    let doc =
      "Comma-separated application names to sweep (default: every \
       registered app). Unknown names become $(b,failed) cells."
    in
    Arg.(
      value & opt (some string) None & info [ "apps" ] ~docv:"A,B,..." ~doc)
  in
  let policies_arg =
    let doc =
      "Comma-separated protection policies per app: $(b,control), \
       $(b,nothing), $(b,all)."
    in
    let policy =
      Arg.conv' (Harness.Matrix.policy_of_string, Core.Policy.pp)
    in
    Arg.(
      value
      & opt (list policy) Harness.Matrix.default_policies
      & info [ "policies" ] ~docv:"P,..." ~doc)
  in
  let errors_list_arg =
    let doc = "Comma-separated error counts — one campaign cell each." in
    Arg.(
      value
      & opt (list errors_count) Harness.Matrix.default_errors
      & info [ "e"; "errors" ] ~docv:"N,..." ~doc)
  in
  let spec_arg =
    let doc =
      "JSON spec file. Present fields ($(b,apps), $(b,policies), \
       $(b,errors), $(b,trials), $(b,seed), $(b,literal)) override the \
       corresponding flags."
    in
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let matrix_cache_dir_arg =
    cache_dir_arg
      ~doc:
        "Result-cache root (created on demand; safe to delete at any \
         time). Every cell routes through the cache, so re-running an \
         unchanged spec — or overlapping a previous `inject \
         --incremental` run — reuses stored trial records."
      ()
  in
  let request apps policies errors trials seed literal spec cache_dir =
    let apps =
      match apps with
      | None -> Harness.Matrix.default_spec.Harness.Matrix.apps
      | Some s -> split_commas s
    in
    let mode = Harness.Experiment.mode_of_literal literal in
    let base = { Harness.Matrix.apps; mode; policies; errors; trials; seed } in
    let spec =
      match spec with
      | None -> Ok base
      | Some path ->
        Result.map_error
          (Printf.sprintf "%s: %s" path)
          (Result.bind
             (Report.Json.of_string
                (In_channel.with_open_bin path In_channel.input_all))
             (Harness.Matrix.spec_of_json ~base))
    in
    Result.map (fun s -> (Some cache_dir, Harness.Request.Matrix s)) spec
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Sweep apps x policies x error counts through the result cache: \
          every cell gets a typed status (ok/skipped/failed), anomalies \
          are clustered and ranked, and any failed cell exits 123")
    (campaign
       Term.(
         term_result'
           (const request $ apps_arg $ policies_arg $ errors_list_arg
          $ trials_arg $ seed_arg $ literal_arg $ spec_arg
          $ matrix_cache_dir_arg)))

let audit_cmd =
  let app_opt_arg =
    let doc =
      "Audit only this application (default: all registered apps)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)
  in
  let request app at = (None, Harness.Request.Audit { app; at }) in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Dynamic taint audit: classify where injected faults flow and \
          verify the tagging soundness invariant (exit 123 on \
          violation)")
    (campaign Term.(const request $ app_opt_arg $ coords_arg))

let profile_cmd =
  let top_arg =
    let doc = "Show at most $(docv) hottest sites (0 = all); sites past \
               the cutoff collapse into one aggregate row, so column \
               sums always equal the campaign totals." in
    Arg.(
      value
      & opt
          (count (Harness.Matrix.at_least "top" 0))
          Harness.Request.default_top
      & info [ "top" ] ~docv:"N" ~doc)
  in
  let request app at top = (None, Harness.Request.profile ~app ~at ~top) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Fault-site attribution profile: run a campaign and rank the \
          (function, instruction) sites where injected faults landed by \
          how the trials ended")
    (campaign Term.(const request $ app_arg $ coords_arg $ top_arg))

(* The reproduction driver: the paper's tables and figures, the
   fault-flow audit, the ablations and the extensions, at the fixed
   trial counts EXPERIMENTS.md is built from. *)
let reproduce_cmd =
  let experiments_arg =
    let doc =
      Printf.sprintf
        "Experiments to run (default: all): %s. $(b,table2) includes the \
         fault-flow audit, $(b,figures) stands for every figure, \
         $(b,extensions) is the cost model and the outcome taxonomy."
        (String.concat ", " Harness.Request.experiments)
    in
    Arg.(
      value
      & pos_all
          (enum (List.map (fun e -> (e, e)) Harness.Request.experiments))
          []
      & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let quick_arg =
    let doc =
      "Reduced trial counts: Table 2 and the audit at 10 trials per cell \
       instead of 25, every other campaign at 8 instead of 20."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let request experiments quick =
    (None, Harness.Request.Reproduce { experiments; quick })
  in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:
         "Reproduce the paper's Table 2, Table 3 and Figures 1-6, the \
          fault-flow audit, the ablations and the extensions; \
          $(b,--json) collects every printed table into one document")
    (campaign Term.(const request $ experiments_arg $ quick_arg))

let serve_cmd =
  let socket_arg =
    let doc =
      "Run the daemon on a Unix-domain socket at $(docv): one handler \
       per connection, all sharing the warm registry, result cache and \
       worker pool."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let stdio_arg =
    let doc =
      "Run the daemon over stdin/stdout: one connection, line-delimited \
       etap-serve/1 requests in, responses out."
    in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let connect_arg =
    let doc =
      "Client mode: connect to a daemon at $(docv), forward request \
       lines from stdin, print each response line to stdout. Exits \
       123 if any response has status $(b,failed)."
    in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"PATH" ~doc)
  in
  let gc_bytes_arg =
    let doc =
      "Between requests, evict least-recently-used cache entries until \
       the store fits under $(docv) bytes."
    in
    Arg.(
      value
      & opt (some bytes_bound) None
      & info [ "gc-max-bytes" ] ~docv:"N" ~doc)
  in
  let gc_days_arg =
    let doc =
      "Between requests, evict cache entries not used for more than \
       $(docv) days."
    in
    Arg.(
      value
      & opt (some days_bound) None
      & info [ "gc-max-age-days" ] ~docv:"D" ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one etap-access/1 JSONL line per request to $(docv): id, \
       kind, group key, status, wall time, warm/cache/trial accounting \
       and the coalesced flag."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"PATH" ~doc)
  in
  let action socket stdio connect jobs cache_dir gc_max_bytes gc_max_age_days
      access_log trace metrics =
    let config =
      {
        Harness.Serve.jobs;
        cache_dir;
        gc_max_bytes;
        gc_max_age_days;
        access_log;
        gate = None;
      }
    in
    let meta transport =
      [
        ("transport", Report.Json.Str transport);
        ("jobs", Report.Json.of_int_opt jobs);
        Harness.Request.meta_engine;
        Harness.Request.meta_stride;
        ("cache_dir", Report.Json.Str cache_dir);
        ("gc_max_bytes", Report.Json.of_int_opt gc_max_bytes);
        ( "gc_max_age_days",
          match gc_max_age_days with
          | None -> Report.Json.Null
          | Some d -> Report.Json.Float d );
      ]
    in
    (* The daemon under one obs scope; exit 123 when any request was
       answered with status failed. *)
    let daemon transport run =
      exit_if_failed
        ( with_obs ~trace ~metrics ~command:"serve" ~meta:(meta transport)
        @@ fun () ->
          let t = Harness.Serve.create ~config () in
          run t;
          match Harness.Serve.failed_requests t with
          | 0 -> None
          | n ->
            Some (Printf.sprintf "%d request(s) answered with status failed" n)
        );
      Ok ()
    in
    match (connect, socket, stdio) with
    | Some path, None, false ->
      (* Client: pipe stdin request lines to the daemon, echo response
         lines. The daemon does the work; no obs scope here. *)
      let ic, oc = connect_or_exit ~path in
      let failed = ref 0 in
      (try
         while true do
           let line = input_line stdin in
           if String.trim line <> "" then begin
             output_string oc line;
             output_char oc '\n';
             flush oc;
             let resp = input_line ic in
             print_endline resp;
             match Harness.Proto.reply_of_line resp with
             | Ok r when r.Harness.Proto.ok -> ()
             | Ok _ | Error _ -> incr failed
           end
         done
       with End_of_file | Sys_error _ -> ());
      (try close_out oc with Sys_error _ -> ());
      if !failed > 0 then
        exit_if_failed (Some (Printf.sprintf "%d request(s) failed" !failed));
      Ok ()
    | None, Some path, false ->
      daemon "socket" (fun t ->
          say "etap serve: listening on %s (cache: %s)" path cache_dir;
          Harness.Serve.run_socket t ~path)
    | None, None, true ->
      (* stdout carries the protocol stream: no banner. *)
      daemon "stdio" Harness.Serve.run_stdio
    | _ ->
      Error (`Msg "pass exactly one of --socket PATH, --stdio, --connect PATH")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running campaign daemon: answers line-delimited \
          etap-serve/1 inject, matrix and audit requests with the CLI's \
          etap-report/1 documents, keeping loaded apps, compiled \
          engines and prepared targets warm across requests, \
          coalescing identical in-flight requests, and \
          scheduling all work through one shared worker pool")
    Term.(
      term_result
        (const action $ socket_arg $ stdio_arg $ connect_arg $ jobs_arg
       $ cache_dir_arg () $ gc_bytes_arg $ gc_days_arg $ access_log_arg
       $ trace_arg $ metrics_arg))

let top_cmd =
  let connect_arg =
    let doc = "Socket path of the daemon to poll." in
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH" ~doc)
  in
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"S" ~doc)
  in
  let count_arg =
    let doc = "Stop after $(docv) polls (0 = run until the daemon goes away)." in
    Arg.(
      value
      & opt (count (Harness.Matrix.at_least "count" 0)) 0
      & info [ "count" ] ~docv:"N" ~doc)
  in
  let action path interval count =
    let ic, oc = connect_or_exit ~path in
    (* Each poll sends one stats request; the daemon's interval section
       is exactly the window since our previous poll, so rates need no
       client-side bookkeeping. *)
    let poll i =
      output_string oc (Printf.sprintf {|{"id":%d,"cmd":"stats"}|} i);
      output_char oc '\n';
      flush oc;
      let line = input_line ic in
      match Harness.Proto.reply_of_line line with
      | Ok r when r.Harness.Proto.ok -> (
        match Report.Json.member "stats" r.Harness.Proto.body with
        | Some doc ->
          List.iter
            (fun t -> say "%s" (Report.to_text t))
            (Harness.Top.tables doc);
          Ok ()
        | None -> Error "response carried no stats document")
      | Ok r ->
        Error (Option.value ~default:"request failed" r.Harness.Proto.error)
      | Error e -> Error e
    in
    let rec go i =
      match poll i with
      | Error e -> Error (`Msg e)
      | Ok () ->
        if count > 0 && i >= count then Ok ()
        else begin
          Unix.sleepf interval;
          go (i + 1)
        end
    in
    let res = try go 1 with End_of_file | Sys_error _ -> Ok () in
    (try close_out oc with Sys_error _ -> ());
    res
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live daemon introspection: poll a running $(b,etap serve) \
          daemon's $(b,stats) verb and render uptime, request rates, \
          warm-registry and cache pressure, worker utilization and \
          per-kind latency tails")
    Term.(term_result (const action $ connect_arg $ interval_arg $ count_arg))

let cache_cmd =
  let max_bytes_arg =
    let doc =
      "Evict least-recently-used entries until the store fits under \
       $(docv) bytes."
    in
    Arg.(
      value & opt (some bytes_bound) None & info [ "max-bytes" ] ~docv:"N" ~doc)
  in
  let max_age_arg =
    let doc = "Evict entries not used for more than $(docv) days." in
    Arg.(
      value
      & opt (some days_bound) None
      & info [ "max-age-days" ] ~docv:"D" ~doc)
  in
  let gc_action cache_dir max_bytes max_age_days json =
    let store = Core.Memo.Store.open_ cache_dir in
    let st = Core.Memo.Store.gc ?max_bytes ?max_age_days store in
    let meta =
      [
        ("cache_dir", Report.Json.Str cache_dir);
        ("max_bytes", Report.Json.of_int_opt max_bytes);
        ( "max_age_days",
          match max_age_days with
          | None -> Report.Json.Null
          | Some d -> Report.Json.Float d );
      ]
    in
    let table =
      Report.table ~id:"cache_gc"
        ~title:(Printf.sprintf "Cache GC: %s" cache_dir)
        ~columns:
          [
            Report.column ~key:"scanned" "scanned";
            Report.column ~key:"evicted" "evicted";
            Report.column ~key:"kept" "kept";
            Report.column ~key:"bytes_before" "bytes before";
            Report.column ~key:"bytes_after" "bytes after";
          ]
        [
          [
            Report.int st.Core.Memo.Store.gc_scanned;
            Report.int st.Core.Memo.Store.gc_evicted;
            Report.int st.Core.Memo.Store.gc_kept;
            Report.int st.Core.Memo.Store.gc_bytes_before;
            Report.int st.Core.Memo.Store.gc_bytes_after;
          ];
        ]
    in
    emit ?json ~command:"cache-gc" ~meta [ table ]
  in
  let gc_cmd =
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Evict result-cache entries, least-recently-used first: by \
            age ($(b,--max-age-days)), then oldest-first until under \
            $(b,--max-bytes). Loads refresh an entry's recency; with no \
            bound the pass only reports sizes and reaps stale temp \
            files")
      Term.(
        const gc_action $ cache_dir_arg () $ max_bytes_arg $ max_age_arg
        $ json_arg)
  in
  let stats_action cache_dir json =
    let store = Core.Memo.Store.open_ cache_dir in
    let entries = Core.Memo.Store.scan store in
    let now = Unix.gettimeofday () in
    let n = List.length entries in
    let bytes = List.fold_left (fun acc (_, b, _) -> acc + b) 0 entries in
    let ages = List.map (fun (_, _, mtime) -> now -. mtime) entries in
    let in_bucket lo hi = List.length (List.filter (fun a -> a > lo && a <= hi) ages) in
    let hour = 3600.0 and day = 86400.0 in
    let le_1h = in_bucket neg_infinity hour in
    let le_1d = in_bucket hour day in
    let le_7d = in_bucket day (7.0 *. day) in
    let older = in_bucket (7.0 *. day) infinity in
    let age_extreme f = match ages with [] -> Report.text "-" | a :: tl ->
      let v = List.fold_left f a tl in
      Report.num ~text:(Printf.sprintf "%.1f" v) v
    in
    let meta = [ ("cache_dir", Report.Json.Str cache_dir) ] in
    let table =
      Report.table ~id:"cache_stats"
        ~title:(Printf.sprintf "Cache stats: %s" cache_dir)
        ~columns:
          [
            Report.column ~key:"entries" "entries";
            Report.column ~key:"bytes" "bytes";
            Report.column ~key:"age_le_1h" "age <=1h";
            Report.column ~key:"age_le_1d" "<=1d";
            Report.column ~key:"age_le_7d" "<=7d";
            Report.column ~key:"age_gt_7d" ">7d";
            Report.column ~key:"newest_age_s" "newest (s)";
            Report.column ~key:"oldest_age_s" "oldest (s)";
          ]
        [
          [
            Report.int n;
            Report.int bytes;
            Report.int le_1h;
            Report.int le_1d;
            Report.int le_7d;
            Report.int older;
            age_extreme min;
            age_extreme max;
          ];
        ]
    in
    emit ?json ~command:"cache-stats" ~meta [ table ]
  in
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Report result-cache pressure without mutating it: entry \
            count, total bytes, and an age distribution over the same \
            store walk the GC pass uses")
      Term.(const stats_action $ cache_dir_arg () $ json_arg)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Maintain the campaign result cache")
    [ gc_cmd; stats_cmd ]

let () =
  let info =
    Cmd.info "etap" ~version:"1.0.0"
      ~doc:
        "Error-Tolerance Analysis Platform: control-data protection for \
         error-tolerant applications (IISWC 2006 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; tag_cmd; sections_cmd; disasm_cmd; asm_cmd;
            compile_cmd; inject_cmd; matrix_cmd; audit_cmd; profile_cmd;
            reproduce_cmd; serve_cmd; top_cmd; cache_cmd;
          ]))
