(* Campaign daemon (Harness.Serve + Harness.Proto).

   The load-bearing properties:
   - the etap-serve/1 line protocol round-trips: requests parse with
     CLI-default fields, malformed lines salvage their id and yield a
     typed error instead of raising, responses read back losslessly;
   - a served inject/matrix report carries tables bit-identical to the
     equivalent standalone run (same seed derivation, same cache);
   - the second identical request is answered from the warm registry —
     no app reload, no target re-preparation, zero trials executed,
     and at most 0.1x the cold request's wall;
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
let with_serve ?gate ?gc_max_bytes f =
  let dir = fresh_cache_dir () in
  let config =
    {
      Harness.Serve.default_config with
      cache_dir = dir;
      jobs = Some 2;
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
  (match req with
   | Ok (Harness.Proto.Inject i) ->
     (* Optional fields fall back to the CLI flag defaults. *)
     Alcotest.(check string) "app" "gsm" i.Harness.Proto.app;
     Alcotest.(check int) "default errors" 10 i.Harness.Proto.errors;
     Alcotest.(check int) "default trials" 20 i.Harness.Proto.trials;
     Alcotest.(check int) "default seed" 1 i.Harness.Proto.seed;
     Alcotest.(check bool) "default literal" false i.Harness.Proto.literal
   | _ -> Alcotest.fail "expected an inject request");
  (match Harness.Proto.request_of_line {|{"id":2,"cmd":"ping"}|} with
   | _, Ok Harness.Proto.Ping -> ()
   | _ -> Alcotest.fail "expected ping");
  (match
     Harness.Proto.request_of_line
       {|{"id":3,"cmd":"matrix","spec":{"apps":["gsm"],"errors":[1,2]}}|}
   with
   | _, Ok (Harness.Proto.Matrix s) ->
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
  let k l = Harness.Proto.group_key (parse l) in
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

(* --------------------- served = standalone ------------------------- *)

(* The CLI inject path, daemon-free: Experiment.load + Memo.run over
   Pool fan-out, the same report builder. Distinct cache, same seed
   derivation — trials must be bit-identical. *)
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

let test_inject_bit_identity () =
  let errors = 2 and trials = 5 and seed = 1 in
  let served =
    with_serve @@ fun t ->
    reply_exn
      (List.hd (exchange t [ inject_line ~errors ~trials ~seed "gsm" ]))
  in
  Alcotest.(check bool) "served ok" true served.Harness.Proto.ok;
  let direct = direct_inject ~errors ~trials ~seed "gsm" in
  let direct_tables =
    Report.Json.to_compact_string
      (member_exn "tables" (Report.to_json direct))
  in
  Alcotest.(check string) "tables bit-identical to the standalone run"
    direct_tables (tables_of served)

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

(* --------------------------- warm state ---------------------------- *)

let spans_named name (v : Obs.view) =
  List.length
    (List.filter (fun s -> s.Obs.sp_name = name) v.Obs.spans)

let counter name (v : Obs.view) =
  Option.value ~default:0 (List.assoc_opt name v.Obs.counters)

let test_warm_reuse () =
  with_serve @@ fun t ->
  let line = inject_line ~errors:2 ~trials:4 ~seed:1 "adpcm" in
  let first = reply_exn (List.hd (exchange t [ line ])) in
  Alcotest.(check bool) "cold ok" true first.Harness.Proto.ok;
  (* Fresh sink around the repeat: everything it records belongs to
     the second request alone. *)
  let sink = Obs.make () in
  let second =
    Obs.with_sink sink (fun () -> reply_exn (List.hd (exchange t [ line ])))
  in
  let v = Obs.view sink in
  Alcotest.(check int) "no app reload" 0 (spans_named "serve.load" v);
  Alcotest.(check int) "no target re-preparation" 0
    (spans_named "serve.prepare" v);
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
   wall, with a 50 ms floor for when cold itself is fast. A warm request
   is ~30 ms of owner walks on one core, so load from test binaries
   running alongside can double it: the warm wall is the best of up to
   20 repeats, stopping at the first one within the bound. A warm path
   that is slow on every repeat still fails. *)
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
  let bound = Float.max (0.1 *. cold) 0.05 in
  let rec best n acc =
    if n = 0 || acc <= bound then acc
    else best (n - 1) (Float.min acc (timed_exchange ()))
  in
  let warm = best 20 infinity in
  Printf.printf "gsm e3 t8: cold %.3f s, warm %.3f s (%.3fx)\n%!" cold warm
    (warm /. cold);
  if warm > bound then
    Alcotest.failf "warm request too slow: %.3f s vs cold %.3f s (> 0.1x)"
      warm cold

(* ------------------------------- gc -------------------------------- *)

let geti path doc =
  match List.fold_left (fun acc k -> member_exn k acc) doc path with
  | Report.Json.Int i -> i
  | j -> Alcotest.failf "expected an int, got %s" (Report.Json.to_compact_string j)

let stats_of t =
  let r = reply_exn (List.hd (exchange t [ {|{"id":9,"cmd":"stats"}|} ])) in
  member_exn "stats" r.Harness.Proto.body

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
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "served inject = standalone inject" `Quick
            test_inject_bit_identity;
          Alcotest.test_case "served matrix = standalone sweep" `Quick
            test_matrix_bit_identity;
        ] );
      ( "warm state",
        [
          Alcotest.test_case "second request reuses the registry" `Quick
            test_warm_reuse;
          Alcotest.test_case "warm repeat at most 0.1x cold" `Quick
            test_warm_speed;
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
          Alcotest.test_case "out-of-range counts get typed failures" `Quick
            test_out_of_range_counts;
        ] );
    ]
