(* Campaign daemon (Harness.Serve + Harness.Proto).

   The load-bearing properties:
   - the etap-serve/1 line protocol round-trips: requests parse with
     CLI-default fields, malformed lines salvage their id and yield a
     typed error instead of raising, responses read back losslessly;
   - a served inject/matrix/audit/profile report carries tables
     bit-identical to the equivalent standalone run (same seed
     derivation, same cache), a profile even while another request's
     trials run beside it;
   - the second identical request is answered from the warm registry —
     no app reload, no target re-preparation, zero trials executed,
     and at most 0.1x the cold request's wall;
   - a daemon asked for more workers than cores runs one per core;
   - the warm registry is bounded: past its capacity of (app, seed)
     entries it evicts the least recently used one, an evicted key
     reloads cold with an identical table, and a key in use stays warm;
   - registry builds run outside the registry lock: a parked cold
     build leaves other keys' lookups free, concurrent first lookups
     of one key build it once, and a build that raises is a typed
     failure that caches nothing;
   - two identical in-flight requests coalesce: trials run exactly
     once and both clients receive the same document;
   - between-requests GC evicts what the daemon stored: with a zero
     byte budget the store is empty after each request, and an
     identical repeat runs its trials again;
   - failures are typed responses, never crashes: unknown apps and
     malformed lines leave the connection serving, a client that
     vanishes mid-request leaves the daemon serving. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let fresh_cache_dir () =
  incr dir_counter;
  let d = Printf.sprintf "_serve_test_cache_%d" !dir_counter in
  rm_rf d;
  d

(* A daemon over a fresh cache, torn down (executor joined, cache
   removed) even when the test body raises. *)
let with_serve ?(jobs = 2) ?gate ?gc_max_bytes f =
  let dir = fresh_cache_dir () in
  let config =
    {
      Harness.Serve.default_config with
      cache_dir = dir;
      jobs = Some jobs;
      gate;
      gc_max_bytes;
    }
  in
  let t = Harness.Serve.create ~config () in
  Fun.protect
    ~finally:(fun () ->
      Harness.Serve.shutdown t;
      rm_rf dir)
    (fun () -> f t)

(* One connection against [t]'s handler, pipes standing in for the
   socket: write [lines], close, collect every response line. *)
let exchange t (lines : string list) : string list =
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
  List.iter
    (fun l ->
      output_string req l;
      output_char req '\n')
    lines;
  close_out req;
  let resp_ic = Unix.in_channel_of_descr resp_r in
  let rec collect acc =
    match input_line resp_ic with
    | l -> collect (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = collect [] in
  Thread.join handler;
  close_in_noerr resp_ic;
  close_in_noerr ic;
  responses

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let reply_exn line =
  match Harness.Proto.reply_of_line line with
  | Ok r -> r
  | Error m -> Alcotest.failf "unreadable response %S: %s" line m

let report_exn (r : Harness.Proto.reply) =
  match r.Harness.Proto.report with
  | Some rep -> rep
  | None -> Alcotest.fail "response without a report"

let member_exn name j =
  match Report.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "report without %S" name

(* The identity surface of a served report: its tables. Cache-stat
   meta legitimately varies with cache state. *)
let tables_of (r : Harness.Proto.reply) =
  Report.Json.to_compact_string (member_exn "tables" (report_exn r))

let inject_line ?(id = 1) ~errors ~trials ~seed app =
  Report.Json.to_compact_string
    (Report.Json.Obj
       [
         ("id", Report.Json.Int id);
         ("cmd", Report.Json.Str "inject");
         ("app", Report.Json.Str app);
         ("errors", Report.Json.Int errors);
         ("trials", Report.Json.Int trials);
         ("seed", Report.Json.Int seed);
       ])

(* ----------------------------- protocol ---------------------------- *)

let test_proto_requests () =
  let id, req =
    Harness.Proto.request_of_line {|{"id":7,"cmd":"inject","app":"gsm"}|}
  in
  Alcotest.(check bool) "id echoed" true (id = Report.Json.Int 7);
  (* Optional fields fall back to the CLI flag defaults, which are
     [Request.defaults]: -e 10 -t 20 --seed 1, no --literal. *)
  let cli_defaults (at : Harness.Request.campaign) =
    Alcotest.(check int) "default errors" 10 at.Harness.Request.errors;
    Alcotest.(check int) "default trials" 20 at.Harness.Request.trials;
    Alcotest.(check int) "default seed" 1 at.Harness.Request.seed;
    Alcotest.(check bool) "default literal" false at.Harness.Request.literal;
    Alcotest.(check bool) "= Request.defaults" true
      (at = Harness.Request.defaults)
  in
  (match req with
   | Ok (Harness.Proto.Run (Harness.Request.Inject { app; at })) ->
     Alcotest.(check string) "app" "gsm" app;
     cli_defaults at
   | _ -> Alcotest.fail "expected an inject request");
  (match Harness.Proto.request_of_line {|{"id":5,"cmd":"audit"}|} with
   | _, Ok (Harness.Proto.Run (Harness.Request.Audit { app; at })) ->
     Alcotest.(check (option string)) "no app: every app" None app;
     cli_defaults at
   | _ -> Alcotest.fail "expected an audit request");
  (match
     Harness.Proto.request_of_line
       {|{"id":6,"cmd":"audit","app":"gsm","errors":2,"trials":5,"literal":true}|}
   with
   | _, Ok (Harness.Proto.Run (Harness.Request.Audit { app; at })) ->
     Alcotest.(check (option string)) "audit app" (Some "gsm") app;
     Alcotest.(check bool) "audit fields read" true
       (at = { Harness.Request.errors = 2; trials = 5; seed = 1; literal = true })
   | _ -> Alcotest.fail "expected an audit request");
  (match
     Harness.Proto.request_of_line {|{"id":8,"cmd":"audit","trials":0}|}
   with
   | Report.Json.Int 8, Error e ->
     Alcotest.(check bool) "audit trials range" true
       (contains e "trials must be >= 1")
   | _ -> Alcotest.fail "audit with 0 trials should fail");
  (match Harness.Proto.request_of_line {|{"id":9,"cmd":"profile","app":"gsm"}|} with
   | _, Ok (Harness.Proto.Run (Harness.Request.Profile { app; at; top })) ->
     Alcotest.(check string) "profile app" "gsm" app;
     cli_defaults at;
     Alcotest.(check (option int)) "default top = --top's" (Some 20) top
   | _ -> Alcotest.fail "expected a profile request");
  (match
     Harness.Proto.request_of_line
       {|{"id":9,"cmd":"profile","app":"gsm","errors":2,"top":0,"literal":true}|}
   with
   | _, Ok (Harness.Proto.Run (Harness.Request.Profile { at; top; _ })) ->
     Alcotest.(check bool) "profile fields read" true
       (at = { Harness.Request.errors = 2; trials = 20; seed = 1; literal = true });
     Alcotest.(check (option int)) "top 0: every site" None top
   | _ -> Alcotest.fail "expected a profile request");
  List.iter
    (fun (line, what) ->
      match Harness.Proto.request_of_line line with
      | Report.Json.Int 9, Error e ->
        Alcotest.(check bool) ("profile " ^ what ^ ": " ^ e) true
          (contains e what)
      | _ -> Alcotest.failf "%s should fail" line)
    [
      ({|{"id":9,"cmd":"profile"}|}, "missing \"app\"");
      ({|{"id":9,"cmd":"profile","app":"gsm","top":-1}|}, "top must be >= 0");
      ({|{"id":9,"cmd":"profile","app":"gsm","trials":0}|}, "trials must be >= 1");
    ];
  (match Harness.Proto.request_of_line {|{"id":2,"cmd":"ping"}|} with
   | _, Ok Harness.Proto.Ping -> ()
   | _ -> Alcotest.fail "expected ping");
  (match
     Harness.Proto.request_of_line
       {|{"id":3,"cmd":"matrix","spec":{"apps":["gsm"],"errors":[1,2]}}|}
   with
   | _, Ok (Harness.Proto.Run (Harness.Request.Matrix s)) ->
     Alcotest.(check (list string)) "spec apps" [ "gsm" ] s.Harness.Matrix.apps;
     Alcotest.(check (list int)) "spec errors" [ 1; 2 ] s.Harness.Matrix.errors
   | _ -> Alcotest.fail "expected a matrix request");
  (* Malformed lines never raise: junk salvages no id, a bad field
     salvages the id it was addressed with. *)
  (match Harness.Proto.request_of_line "not json at all" with
   | Report.Json.Null, Error _ -> ()
   | _ -> Alcotest.fail "junk should fail with a null id");
  (match Harness.Proto.request_of_line {|{"id":9,"cmd":"frobnicate"}|} with
   | Report.Json.Int 9, Error _ -> ()
   | _ -> Alcotest.fail "unknown cmd should fail, keeping its id")

let test_proto_group_key () =
  let parse l = snd (Harness.Proto.request_of_line l) |> Result.get_ok in
  let k l =
    match parse l with
    | Harness.Proto.Run r -> Harness.Request.key r
    | _ -> Alcotest.fail "expected a work request"
  in
  (* Ids and field order are not part of a request's identity. *)
  Alcotest.(check string) "id not in key"
    (k {|{"id":1,"cmd":"inject","app":"gsm","errors":3}|})
    (k {|{"errors":3,"cmd":"inject","app":"gsm","id":2}|});
  Alcotest.(check bool) "trials in key" true
    (k {|{"id":1,"cmd":"inject","app":"gsm","trials":5}|}
    <> k {|{"id":1,"cmd":"inject","app":"gsm","trials":6}|})

let test_proto_responses () =
  let rep =
    Report.make ~command:"inject" ~meta:[ ("app", Report.Json.Str "gsm") ]
      [
        Report.table ~id:"t" ~title:"t"
          ~columns:[ Report.column ~key:"k" "k" ]
          [ [ Report.int 1 ] ];
      ]
  in
  let ok =
    reply_exn
      (Harness.Proto.response_line
         { Harness.Proto.rid = Report.Json.Int 4; report = Some rep;
           error = None; extra = [] })
  in
  Alcotest.(check bool) "ok status" true ok.Harness.Proto.ok;
  Alcotest.(check bool) "report embedded" true (ok.Harness.Proto.report <> None);
  let failed =
    reply_exn
      (Harness.Proto.response_line
         { Harness.Proto.rid = Report.Json.Null; report = None;
           error = Some "boom"; extra = [] })
  in
  Alcotest.(check bool) "failed status" false failed.Harness.Proto.ok;
  Alcotest.(check (option string)) "error carried" (Some "boom")
    failed.Harness.Proto.error

(* An inject request is one campaign cell per default policy at the
   request's coordinates; cells over an app that did not load fail,
   and the failure message names each of them. *)
let test_inject_cells () =
  let cells =
    Harness.Request.inject_cells ~app:"gsm"
      { Harness.Request.errors = 3; trials = 7; seed = 5; literal = true }
  in
  Alcotest.(check (list string)) "one cell per policy"
    [ "gsm/literal/protect-control e=3 t=7";
      "gsm/literal/protect-nothing e=3 t=7" ]
    (List.map Harness.Matrix.cell_label cells);
  Alcotest.(check (list int)) "campaign seed = seed + 100" [ 105; 105 ]
    (List.map (fun (c : Harness.Matrix.cell_spec) -> c.seed) cells);
  let failed = Harness.Matrix.collect ~loaded:[] cells in
  Alcotest.(check (option string)) "failed cells end the request"
    (Some
       "2 matrix cell(s) failed:\n\
       \  gsm/literal/protect-control e=3 t=7: unknown application \"gsm\"\n\
       \  gsm/literal/protect-nothing e=3 t=7: unknown application \"gsm\"")
    (Harness.Matrix.cells_failures_message failed)

(* --------------------- served = standalone ------------------------- *)

(* An independent inject oracle, free of the daemon and the runner:
   Experiment.load + Memo.run on both policies (an empty pool
   included) over Pool fan-out, the same report builder. Distinct
   cache, same seed derivation — trials must be bit-identical. *)
let direct_inject ~errors ~trials ~seed app_name =
  let dir = fresh_cache_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Core.Memo.Store.open_ dir in
  let app = Option.get (Apps.Registry.find app_name) in
  let l = Harness.Experiment.load ~seed app in
  let b = l.Harness.Experiment.built in
  let target = l.Harness.Experiment.target Harness.Experiment.Full in
  let golden = target.Core.Campaign.baseline in
  let score r = b.Apps.App.score ~golden r in
  let totals = ref Core.Memo.zero_stats in
  let summaries =
    List.map
      (fun policy ->
        let p = l.Harness.Experiment.prepared Harness.Experiment.Full policy in
        let sections = Core.Memo.sections_of p in
        let s, st =
          Core.Memo.run ~jobs:2 ~score ~salt:app_name ~sections ~store p
            ~errors ~trials ~seed:(seed + 100)
        in
        totals := Harness.Serve.add_stats !totals st;
        (policy, s))
      [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ]
  in
  Harness.Serve.inject_report ~app:app_name ~errors ~trials ~seed
    ~literal:false ~engine:Sim.Interp.Fast ~jobs:None ~checkpoint_stride:None
    ~fidelity_units:b.Apps.App.fidelity_units
    ~cache:(Some (dir, !totals))
    summaries

(* gsm, and adpcm, whose Full/protect-control pool is empty: the daemon
   skips that cell, while [direct_inject] runs it fault-free. *)
let test_inject_bit_identity () =
  let errors = 2 and trials = 5 and seed = 1 in
  List.iter
    (fun app ->
      let served =
        with_serve @@ fun t ->
        reply_exn
          (List.hd (exchange t [ inject_line ~errors ~trials ~seed app ]))
      in
      Alcotest.(check bool) (app ^ " served ok") true served.Harness.Proto.ok;
      let direct = direct_inject ~errors ~trials ~seed app in
      let direct_tables =
        Report.Json.to_compact_string
          (member_exn "tables" (Report.to_json direct))
      in
      Alcotest.(check string)
        (app ^ " tables bit-identical to the standalone run")
        direct_tables (tables_of served))
    [ "gsm"; "adpcm" ]

let test_matrix_bit_identity () =
  let spec_json =
    {|{"apps":["gsm","adpcm"],"errors":[1],"trials":3,"seed":1}|}
  in
  let line =
    Printf.sprintf {|{"id":1,"cmd":"matrix","spec":%s}|} spec_json
  in
  let served =
    with_serve @@ fun t -> reply_exn (List.hd (exchange t [ line ]))
  in
  Alcotest.(check bool) "served ok" true served.Harness.Proto.ok;
  (* The standalone sweep over its own fresh cache. *)
  let spec =
    Result.get_ok
      (Harness.Matrix.spec_of_json ~base:Harness.Matrix.default_spec
         (Result.get_ok (Report.Json.of_string spec_json)))
  in
  let dir = fresh_cache_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Core.Memo.Store.open_ dir in
  let r = Harness.Matrix.run ~jobs:2 ~store spec in
  let direct_tables =
    Report.Json.to_compact_string
      (Report.Json.Arr
         (List.map Report.table_json
            [ Harness.Matrix.to_table r; Harness.Matrix.anomaly_table r ]))
  in
  Alcotest.(check string) "matrix tables bit-identical to the standalone sweep"
    direct_tables (tables_of served)

(* A served audit against its plan collected over a fresh load: the
   same cells, the campaign seed at seed + 100, no daemon. gsm, and
   adpcm, whose Full/protect-control pool is empty (a skipped cell). *)
let test_audit_bit_identity () =
  let errors = 2 and trials = 5 and seed = 1 in
  List.iter
    (fun app ->
      let served =
        with_serve @@ fun t ->
        reply_exn
          (List.hd
             (exchange t
                [
                  Printf.sprintf
                    {|{"id":1,"cmd":"audit","app":"%s","errors":%d,"trials":%d}|}
                    app errors trials;
                ]))
      in
      Alcotest.(check bool) (app ^ " served ok") true served.Harness.Proto.ok;
      let mode = Harness.Experiment.Full in
      let l =
        Harness.Experiment.load ~seed (Option.get (Apps.Registry.find app))
      in
      let direct =
        Harness.Matrix.collect ~jobs:2 ~loaded:[ (app, l) ]
          (Harness.Taxonomy.audit_plan ~errors ~trials ~seed:(seed + 100) ~mode
             [ app ])
      in
      Alcotest.(check string)
        (app ^ " audit tables = Taxonomy.audit_table")
        (Report.Json.to_compact_string
           (Report.Json.Arr
              [ Report.table_json (Harness.Taxonomy.audit_table ~mode direct) ]))
        (tables_of served))
    [ "gsm"; "adpcm" ]

(* A served profile against the same request run standalone, with an
   inject on another app in flight beside it: the gate holds each
   request until both have registered, so they compute at once, and
   the profile's rows must count its own trials only. *)
let test_profile_bit_identity () =
  let at = { Harness.Request.defaults with errors = 3; trials = 6 } in
  let line =
    {|{"id":2,"cmd":"profile","app":"adpcm","errors":3,"trials":6,"top":5}|}
  in
  let entered = Atomic.make 0 in
  let gate _key =
    Atomic.incr entered;
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get entered < 2 && Unix.gettimeofday () < deadline do
      Thread.yield ()
    done
  in
  let inject = ref "" in
  let served =
    with_serve ~gate @@ fun t ->
    let th =
      Thread.create
        (fun () ->
          inject :=
            List.hd (exchange t [ inject_line ~errors:3 ~trials:10 ~seed:1 "gsm" ]))
        ()
    in
    let r = reply_exn (List.hd (exchange t [ line ])) in
    Thread.join th;
    r
  in
  Alcotest.(check int) "both requests in flight together" 2
    (Atomic.get entered);
  Alcotest.(check bool) "inject served ok" true
    (reply_exn !inject).Harness.Proto.ok;
  Alcotest.(check bool) "profile served ok" true served.Harness.Proto.ok;
  match
    Harness.Request.run
      (Harness.Request.local ~jobs:1 ())
      (Harness.Request.profile ~app:"adpcm" ~at ~top:5)
  with
  | Some direct, None ->
    Alcotest.(check string) "profile tables bit-identical to the standalone run"
      (Report.Json.to_compact_string
         (member_exn "tables" (Report.to_json direct)))
      (tables_of served)
  | _ -> Alcotest.fail "standalone profile failed"

(* An audit cell that fails (here: an app the registry does not know)
   is a failed reply that still carries its report, as a matrix reply
   does; the cell's row reads "failed". *)
let test_audit_failed_cell () =
  with_serve @@ fun t ->
  let r =
    reply_exn
      (List.hd
         (exchange t [ {|{"id":1,"cmd":"audit","app":"nope","errors":1,"trials":2}|} ]))
  in
  Alcotest.(check bool) "failed status" false r.Harness.Proto.ok;
  Alcotest.(check bool) "error names the cells" true
    (match r.Harness.Proto.error with
     | Some e -> contains e "2 matrix cell(s) failed" && contains e {|"nope"|}
     | None -> false);
  Alcotest.(check bool) "report carried" true
    (contains (tables_of r) {|"verdict":"failed"|});
  Alcotest.(check int) "daemon-side failure count" 1
    (Harness.Serve.failed_requests t)

(* --------------------------- warm state ---------------------------- *)

let spans_named name (v : Obs.view) =
  List.length
    (List.filter (fun s -> s.Obs.sp_name = name) v.Obs.spans)

let counter name (v : Obs.view) =
  Option.value ~default:0 (List.assoc_opt name v.Obs.counters)

let geti path doc =
  match List.fold_left (fun acc k -> member_exn k acc) doc path with
  | Report.Json.Int i -> i
  | j -> Alcotest.failf "expected an int, got %s" (Report.Json.to_compact_string j)

let stats_of t =
  let r = reply_exn (List.hd (exchange t [ {|{"id":9,"cmd":"stats"}|} ])) in
  member_exn "stats" r.Harness.Proto.body

(* A daemon-lifetime counter from a [stats] reply; 0 until first
   counted. *)
let total_counter name stats =
  let counters = member_exn "counters" (member_exn "totals" stats) in
  match Report.Json.member name counters with
  | Some (Report.Json.Int i) -> i
  | _ -> 0

(* Handler threads never compute, so a daemon asked for more workers
   than cores runs one per core. *)
let test_workers_capped () =
  let cores = Domain.recommended_domain_count () in
  with_serve ~jobs:(cores + 1) @@ fun t ->
  Alcotest.(check int) "executor.workers = cores" cores
    (geti [ "executor"; "workers" ] (stats_of t))

let test_warm_reuse () =
  with_serve @@ fun t ->
  let line = inject_line ~errors:2 ~trials:4 ~seed:1 "adpcm" in
  let cold = Obs.make () in
  let first =
    Obs.with_sink cold (fun () -> reply_exn (List.hd (exchange t [ line ])))
  in
  Alcotest.(check bool) "cold ok" true first.Harness.Proto.ok;
  (* adpcm's protect-control pool is empty: one target to prepare. *)
  Alcotest.(check int) "cold prepares its target" 1
    (spans_named "prepare" (Obs.view cold));
  (* Fresh sink around the repeat: everything it records belongs to
     the second request alone. *)
  let sink = Obs.make () in
  let second =
    Obs.with_sink sink (fun () -> reply_exn (List.hd (exchange t [ line ])))
  in
  let v = Obs.view sink in
  Alcotest.(check int) "no app reload" 0 (spans_named "serve.load" v);
  Alcotest.(check int) "no target re-preparation" 0
    (spans_named "prepare" v);
  Alcotest.(check bool) "registry hits recorded" true
    (counter "serve.warm_hit" v > 0);
  Alcotest.(check int) "zero trials executed" 0 (counter "campaign.trials" v);
  (match member_exn "cache_trials_run" (member_exn "meta" (report_exn second)) with
   | Report.Json.Int 0 -> ()
   | j ->
     Alcotest.failf "warm meta cache_trials_run: %s"
       (Report.Json.to_compact_string j));
  Alcotest.(check string) "warm tables identical" (tables_of first)
    (tables_of second)

(* Speed guard on the warm path: repeating gsm -e 3 (8 trials per
   policy) on the same daemon must take at most 0.1x the cold request's
   wall, with a 50 ms floor for when cold itself is fast. A warm repeat
   loads nothing, prepares nothing and runs no trial — the stats
   counters pin that exactly — so what is left is reading the cached
   records and a few owner lookups from the golden checkpoints, a few
   ms. Test binaries running alongside can still stall one repeat, so
   the warm wall is the best of up to 20 repeats, stopping at the first
   one within the bound. A warm path that is slow on every repeat
   still fails. *)
let test_warm_speed () =
  with_serve @@ fun t ->
  let line = inject_line ~errors:3 ~trials:8 ~seed:1 "gsm" in
  let timed_exchange () =
    let t0 = Unix.gettimeofday () in
    let r = reply_exn (List.hd (exchange t [ line ])) in
    Alcotest.(check bool) "request ok" true r.Harness.Proto.ok;
    Unix.gettimeofday () -. t0
  in
  let cold = timed_exchange () in
  let before = stats_of t in
  let bound = Float.max (0.1 *. cold) 0.05 in
  let rec best n acc =
    if n = 0 || acc <= bound then acc
    else best (n - 1) (Float.min acc (timed_exchange ()))
  in
  let warm = best 20 infinity in
  let after = stats_of t in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " over the warm repeats")
        (total_counter name before) (total_counter name after))
    [ "serve.warm_miss"; "memo.trials_run"; "campaign.prepares" ];
  Printf.printf "gsm e3 t8: cold %.3f s, warm %.3f s (%.3fx)\n%!" cold warm
    (warm /. cold);
  if warm > bound then
    Alcotest.failf "warm request too slow: %.3f s vs cold %.3f s (> 0.1x)"
      warm cold

(* ------------------------- registry bound -------------------------- *)

(* Twice the capacity in distinct (app, seed) keys through one daemon:
   the registry never holds more than its capacity, each key past it
   evicts one entry, and the first key — long evicted — comes back as
   a cold load whose table is byte-identical to its first reply. *)
let test_registry_bound () =
  with_serve @@ fun t ->
  let cap = Harness.Serve.registry_capacity in
  let key k = ((if k mod 2 = 0 then "mcf" else "adpcm"), 10 + k) in
  let request (app, seed) =
    let line = inject_line ~errors:1 ~trials:2 ~seed app in
    let r = reply_exn (List.hd (exchange t [ line ])) in
    Alcotest.(check bool) "request ok" true r.Harness.Proto.ok;
    r
  in
  let first = request (key 0) in
  for k = 1 to (2 * cap) - 1 do
    ignore (request (key k));
    let apps = geti [ "warm"; "apps" ] (stats_of t) in
    if apps > cap then
      Alcotest.failf "%d registry entries after key %d, capacity %d" apps k cap
  done;
  let before = stats_of t in
  Alcotest.(check int) "full registry" cap (geti [ "warm"; "apps" ] before);
  Alcotest.(check int) "one eviction per key past capacity" cap
    (total_counter "serve.warm_evicted" before);
  let again = request (key 0) in
  let after = stats_of t in
  Alcotest.(check int) "evicted key is a warm miss"
    (total_counter "serve.warm_miss" before + 1)
    (total_counter "serve.warm_miss" after);
  Alcotest.(check string) "reloaded table identical to the first reply"
    (tables_of first) (tables_of again)

(* A key requested between new-seed requests is never the least
   recently used entry, so it survives twice the capacity in new keys
   and its last request still hits. *)
let test_registry_keeps_used_key () =
  with_serve @@ fun t ->
  let cap = Harness.Serve.registry_capacity in
  let hot = inject_line ~errors:1 ~trials:2 ~seed:1 "mcf" in
  let ok line =
    Alcotest.(check bool) "request ok" true
      (reply_exn (List.hd (exchange t [ line ]))).Harness.Proto.ok
  in
  ok hot;
  for k = 1 to 2 * cap do
    ok (inject_line ~errors:1 ~trials:2 ~seed:(100 + k) "adpcm");
    let before = stats_of t in
    ok hot;
    Alcotest.(check int) "used key stays warm"
      (total_counter "serve.warm_miss" before)
      (total_counter "serve.warm_miss" (stats_of t))
  done;
  Alcotest.(check bool) "new keys were evicted" true
    (total_counter "serve.warm_evicted" (stats_of t) > 0)

(* ------------------------- registry builds ------------------------- *)

let gsm = Option.get (Apps.Registry.find "gsm")

(* Polls [p] until it holds (true) or 10 s pass (false). *)
let eventually p =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if p () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

(* A gsm twin whose build parks until [opened] is set, so a test can
   hold a cold build open: [parked] counts builds waiting, [builds]
   every build started. A build parked for 10 s gives up and sets
   [gave_up], so a lookup the parked build blocks fails the test
   instead of hanging it. *)
type held = {
  app : Apps.App.t;
  opened : bool Atomic.t;
  parked : int Atomic.t;
  builds : int Atomic.t;
  gave_up : bool Atomic.t;
}

let held_app () =
  let opened = Atomic.make false and parked = Atomic.make 0 in
  let builds = Atomic.make 0 and gave_up = Atomic.make false in
  let build ~seed =
    Atomic.incr builds;
    Atomic.incr parked;
    if not (eventually (fun () -> Atomic.get opened)) then
      Atomic.set gave_up true;
    Atomic.decr parked;
    gsm.Apps.App.build ~seed
  in
  { app = { gsm with Apps.App.name = "gsm-held"; build };
    opened; parked; builds; gave_up }

(* The registry entry of [app] at seed 1, and whether the lookup found
   it. *)
let lookup t (app : Apps.App.t) = Harness.Serve.registry_load t app ~seed:1

(* While a cold build is parked, a lookup of an already loaded key
   returns: the registry lock is not held across the build. *)
let test_cold_build_leaves_other_keys () =
  with_serve @@ fun t ->
  ignore (lookup t gsm);
  let h = held_app () in
  let cold = Domain.spawn (fun () -> lookup t h.app) in
  Alcotest.(check bool) "held build started" true
    (eventually (fun () -> Atomic.get h.parked = 1));
  let _, found = lookup t gsm in
  let parked_through = Atomic.get h.parked = 1 && not (Atomic.get h.gave_up) in
  Atomic.set h.opened true;
  ignore (Domain.join cold);
  Alcotest.(check bool) "warm lookup returned while the build was parked" true
    parked_through;
  Alcotest.(check bool) "the warm lookup hit" true found

(* Two first lookups of one key: the second finds the first's entry
   while its build is parked, waits on it, and gets the same app — one
   build, one load span, one miss. *)
let test_first_lookups_build_once () =
  with_serve @@ fun t ->
  let h = held_app () in
  let sink = Obs.make () in
  let key = (h.app.Apps.App.name, 1) in
  let first, second, second_waited =
    Obs.with_sink sink (fun () ->
        let first = Domain.spawn (fun () -> lookup t h.app) in
        ignore (eventually (fun () -> Atomic.get h.parked = 1));
        let second = Domain.spawn (fun () -> lookup t h.app) in
        let waited =
          eventually (fun () ->
              Core.Once.waiters t.Harness.Serve.registry key = 1)
          && not (Atomic.get h.gave_up)
        in
        Atomic.set h.opened true;
        (Domain.join first, Domain.join second, waited))
  in
  let v = Obs.view sink in
  Alcotest.(check bool) "second lookup found the entry mid-build" true
    second_waited;
  Alcotest.(check int) "one build" 1 (Atomic.get h.builds);
  Alcotest.(check int) "one serve.load span" 1 (spans_named "serve.load" v);
  Alcotest.(check int) "one warm miss" 1 (counter "serve.warm_miss" v);
  Alcotest.(check int) "one warm hit" 1 (counter "serve.warm_hit" v);
  Alcotest.(check (pair bool bool)) "the first built, the second found" (false, true)
    (snd first, snd second);
  Alcotest.(check bool) "both got the same app" true
    (fst first == fst second)

(* A build that raises fails its request with the exception — the
   [Error] a request's worker job returns becomes its typed "failed"
   reply — and leaves nothing behind: the key is not in the registry,
   and the next lookup builds again. *)
let test_failing_build () =
  with_serve @@ fun t ->
  let builds = Atomic.make 0 and fail = Atomic.make true in
  let build ~seed =
    Atomic.incr builds;
    if Atomic.get fail then failwith "build failed"
    else gsm.Apps.App.build ~seed
  in
  let app = { gsm with Apps.App.name = "gsm-failing"; build } in
  let on_worker () = Harness.Serve.on_worker t (fun () -> lookup t app) in
  let apps () = geti [ "warm"; "apps" ] (stats_of t) in
  (match on_worker () with
   | Error (Failure m) ->
     Alcotest.(check string) "the build's error" "build failed" m
   | Error e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
   | Ok _ -> Alcotest.fail "a failing build returned an entry");
  Alcotest.(check int) "failed entry not kept" 0 (apps ());
  Atomic.set fail false;
  Alcotest.(check bool) "next lookup built afresh" true
    (Result.map snd (on_worker ()) = Ok false);
  Alcotest.(check int) "build ran again" 2 (Atomic.get builds);
  Alcotest.(check int) "entry kept once built" 1 (apps ());
  let line = inject_line ~errors:1 ~trials:2 ~seed:1 "adpcm" in
  Alcotest.(check bool) "daemon still serves" true
    (reply_exn (List.hd (exchange t [ line ]))).Harness.Proto.ok

(* ------------------------------- gc -------------------------------- *)

(* The same inject twice on one daemon, the store checked in between;
   returns the repeat's [cache_trials_run]. With [gc_max_bytes = Some 0]
   the GC after the first request empties the store, so the warm
   registry still answers but every trial runs again. *)
let test_gc_between_requests () =
  let line = inject_line ~errors:2 ~trials:4 ~seed:1 "adpcm" in
  let repeat ?gc_max_bytes check_store =
    with_serve ?gc_max_bytes @@ fun t ->
    let first = reply_exn (List.hd (exchange t [ line ])) in
    Alcotest.(check bool) "first ok" true first.Harness.Proto.ok;
    check_store (member_exn "store" (stats_of t));
    let second = reply_exn (List.hd (exchange t [ line ])) in
    Alcotest.(check string) "repeat tables identical" (tables_of first)
      (tables_of second);
    geti [ "meta"; "cache_trials_run" ] (report_exn second)
  in
  let rerun =
    repeat ~gc_max_bytes:0 (fun st ->
        Alcotest.(check bool) "gc ran" true (geti [ "gc_runs" ] st >= 1);
        Alcotest.(check bool) "gc evicted" true (geti [ "gc_evicted" ] st > 0);
        Alcotest.(check int) "store emptied" 0 (geti [ "entries" ] st))
  in
  Alcotest.(check bool) "repeat after gc runs trials" true (rerun > 0);
  let kept =
    repeat (fun st ->
        Alcotest.(check int) "no gc without a bound" 0 (geti [ "gc_runs" ] st);
        Alcotest.(check bool) "store kept" true (geti [ "entries" ] st > 0))
  in
  Alcotest.(check int) "repeat without gc runs none" 0 kept

(* --------------------------- coalescing ---------------------------- *)

let test_coalescing () =
  (* The gate parks the winning request between flight registration
     and compute until the second request has attached as a waiter, so
     the overlap is deterministic. *)
  let tref = ref None in
  let gate key =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      match !tref with
      | Some t when Harness.Serve.inflight_waiters t ~key >= 1 -> ()
      | _ ->
        if Unix.gettimeofday () < deadline then begin
          Thread.yield ();
          wait ()
        end
    in
    wait ()
  in
  (* Trials a single request executes, measured on its own daemon and
     cache. *)
  let line = inject_line ~errors:2 ~trials:4 ~seed:1 "gsm" in
  let single_sink = Obs.make () in
  let single =
    with_serve @@ fun t ->
    Obs.with_sink single_sink (fun () ->
        reply_exn (List.hd (exchange t [ line ])))
  in
  let single_trials = counter "campaign.trials" (Obs.view single_sink) in
  Alcotest.(check bool) "single run executed trials" true (single_trials > 0);
  with_serve ~gate @@ fun t ->
  tref := Some t;
  let sink = Obs.make () in
  let ra = ref "" and rb = ref "" in
  Obs.with_sink sink (fun () ->
      let th_a = Thread.create (fun () -> ra := List.hd (exchange t [ line ])) () in
      let th_b = Thread.create (fun () -> rb := List.hd (exchange t [ line ])) () in
      Thread.join th_a;
      Thread.join th_b);
  let v = Obs.view sink in
  Alcotest.(check int) "one request coalesced" 1 (counter "serve.coalesced" v);
  Alcotest.(check int) "pair ran trials exactly once" single_trials
    (counter "campaign.trials" v);
  Alcotest.(check string) "both clients got the same document" !ra !rb;
  Alcotest.(check string) "coalesced tables match the standalone run"
    (tables_of single)
    (tables_of (reply_exn !ra))

(* ------------------------- typed failures -------------------------- *)

let test_typed_failures () =
  with_serve @@ fun t ->
  (* One connection: junk line, unknown app, then a real request —
     each gets a typed response and the connection keeps serving. *)
  let responses =
    exchange t
      [
        "this is not json";
        inject_line ~id:2 ~errors:1 ~trials:2 ~seed:1 "nope";
        inject_line ~id:3 ~errors:1 ~trials:2 ~seed:1 "gsm";
      ]
  in
  Alcotest.(check int) "every line answered" 3 (List.length responses);
  let r1 = reply_exn (List.nth responses 0) in
  Alcotest.(check bool) "malformed line fails" false r1.Harness.Proto.ok;
  Alcotest.(check bool) "malformed line has a null id" true
    (r1.Harness.Proto.id = Report.Json.Null);
  let r2 = reply_exn (List.nth responses 1) in
  Alcotest.(check bool) "unknown app fails" false r2.Harness.Proto.ok;
  Alcotest.(check bool) "unknown app named in the error" true
    (match r2.Harness.Proto.error with
     | Some e -> contains e {|"nope"|}
     | None -> false);
  let r3 = reply_exn (List.nth responses 2) in
  Alcotest.(check bool) "connection still serves real work" true
    r3.Harness.Proto.ok;
  Alcotest.(check int) "daemon-side failure count" 2
    (Harness.Serve.failed_requests t)

(* Campaign sizes out of range are parse errors: each such line gets a
   typed failed reply under its own id, and no work runs. *)
let test_out_of_range_counts () =
  with_serve @@ fun t ->
  let lines =
    [
      inject_line ~id:4 ~errors:(-3) ~trials:2 ~seed:1 "gsm";
      inject_line ~id:5 ~errors:1 ~trials:0 ~seed:1 "gsm";
      {|{"id":6,"cmd":"matrix","spec":{"apps":["gsm"],"errors":[-1]}}|};
      {|{"id":7,"cmd":"matrix","spec":{"apps":["gsm"],"trials":-2}}|};
    ]
  in
  let replies = List.map reply_exn (exchange t lines) in
  Alcotest.(check (list int)) "each line answered under its id" [ 4; 5; 6; 7 ]
    (List.map
       (fun (r : Harness.Proto.reply) ->
         match r.Harness.Proto.id with Report.Json.Int i -> i | _ -> -1)
       replies);
  List.iter
    (fun (r : Harness.Proto.reply) ->
      Alcotest.(check bool) "typed failure" false r.Harness.Proto.ok;
      Alcotest.(check bool) "no report" true (r.Harness.Proto.report = None);
      Alcotest.(check bool) "error names the rule" true
        (match r.Harness.Proto.error with
         | Some e ->
           contains e "errors must be >= 0" || contains e "trials must be >= 1"
         | None -> false))
    replies;
  Alcotest.(check int) "daemon-side failure count" 4
    (Harness.Serve.failed_requests t)

(* Nothing listens at a missing socket path: [Serve.dial] says so as a
   typed error naming the path, and both clients of the CLI ([serve
   --connect], [top --connect]) print that one line and exit 123, the
   status of a failed run — not an uncaught exception. *)
let test_missing_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "etap-missing-%d.sock" (Unix.getpid ()))
  in
  (match Harness.Serve.dial ~path with
   | Ok _ -> Alcotest.fail "dial to a missing socket succeeded"
   | Error m ->
     Alcotest.(check string) "typed error"
       (Printf.sprintf "cannot connect to %s: %s" path
          (Unix.error_message Unix.ENOENT))
       m);
  let etap =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "etap.exe" ]
  in
  List.iter
    (fun cmd ->
      Alcotest.(check int) (cmd ^ " --connect exits 123") 123
        (Sys.command
           (Filename.quote_command etap ~stdin:Filename.null
              ~stdout:Filename.null ~stderr:Filename.null
              [ cmd; "--connect"; path ])))
    [ "serve"; "top" ]

let test_client_disconnect () =
  with_serve @@ fun t ->
  (* Client sends a request then vanishes — both pipe ends closed
     before the response can be written. The handler's send fails;
     the daemon must shrug, not die. *)
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
  output_string req (inject_line ~errors:1 ~trials:2 ~seed:1 "gsm");
  output_char req '\n';
  flush req;
  (* Vanish: the response pipe has no reader from here on. *)
  Unix.close resp_r;
  close_out_noerr req;
  Thread.join handler;
  close_in_noerr ic;
  (* A fresh connection is served normally. *)
  let r =
    reply_exn
      (List.hd (exchange t [ inject_line ~errors:1 ~trials:2 ~seed:1 "gsm" ]))
  in
  Alcotest.(check bool) "daemon survives and serves" true r.Harness.Proto.ok

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "requests parse with CLI defaults" `Quick
            test_proto_requests;
          Alcotest.test_case "group keys name the computation" `Quick
            test_proto_group_key;
          Alcotest.test_case "responses round-trip" `Quick
            test_proto_responses;
          Alcotest.test_case "inject requests are two cells" `Quick
            test_inject_cells;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "served inject = standalone inject" `Quick
            test_inject_bit_identity;
          Alcotest.test_case "served matrix = standalone sweep" `Quick
            test_matrix_bit_identity;
          Alcotest.test_case "served profile = standalone profile" `Quick
            test_profile_bit_identity;
          Alcotest.test_case "served audit = standalone audit" `Quick
            test_audit_bit_identity;
          Alcotest.test_case "a failed audit cell still ships its report"
            `Quick test_audit_failed_cell;
        ] );
      ( "warm state",
        [
          Alcotest.test_case "second request reuses the registry" `Quick
            test_warm_reuse;
          Alcotest.test_case "warm repeat at most 0.1x cold" `Quick
            test_warm_speed;
        ] );
      ( "executor",
        [
          Alcotest.test_case "workers capped at cores" `Quick
            test_workers_capped;
        ] );
      ( "registry",
        [
          Alcotest.test_case "capacity holds, reloads identically" `Quick
            test_registry_bound;
          Alcotest.test_case "a key in use stays warm" `Quick
            test_registry_keeps_used_key;
          Alcotest.test_case "a cold build leaves other keys" `Quick
            test_cold_build_leaves_other_keys;
          Alcotest.test_case "first lookups of a key build once" `Quick
            test_first_lookups_build_once;
          Alcotest.test_case "a failing build caches nothing" `Quick
            test_failing_build;
        ] );
      ( "store gc",
        [
          Alcotest.test_case "gc between requests empties the store" `Quick
            test_gc_between_requests;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "identical in-flight requests run once" `Quick
            test_coalescing;
        ] );
      ( "failures",
        [
          Alcotest.test_case "typed failures keep the connection up" `Quick
            test_typed_failures;
          Alcotest.test_case "client disconnect mid-request" `Quick
            test_client_disconnect;
          Alcotest.test_case "a missing socket exits 123" `Quick
            test_missing_socket;
          Alcotest.test_case "out-of-range counts get typed failures" `Quick
            test_out_of_range_counts;
        ] );
    ]
