(* Live daemon introspection (DESIGN.md §18).

   The load-bearing properties:
   - [Obs.diff] is the exact interval between two views of a
     growing sink, and it distributes over [Obs.merge] — so interval
     deltas inherit the jobs-invariance of the totals (qcheck'd at the
     histogram and the view level, then witnessed end-to-end: the same
     request stream against a jobs=1 and a jobs=2 daemon yields
     byte-identical interval counter sections);
   - the [stats] verb answers a versioned etap-stats/1 document whose
     interval section covers exactly the requests since the previous
     [stats] call;
   - the access log writes one etap-access/1 line per request, with
     per-request attribution (a coalesced pair logs its execution
     exactly once, on the winner's line). *)

module J = Report.Json

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let fresh_path prefix =
  incr dir_counter;
  let d = Printf.sprintf "_stats_test_%s_%d" prefix !dir_counter in
  rm_rf d;
  d

let with_serve ?gate ?access_log ?(jobs = Some 2) f =
  let dir = fresh_path "cache" in
  let config =
    {
      Harness.Serve.default_config with
      cache_dir = dir;
      jobs;
      gate;
      access_log;
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

let reply_exn line =
  match Harness.Proto.reply_of_line line with
  | Ok r -> r
  | Error m -> Alcotest.failf "unreadable response %S: %s" line m

let member_exn name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "document without %S" name

let get_path path doc =
  List.fold_left (fun acc k -> member_exn k acc) doc path

let geti path doc =
  match get_path path doc with
  | J.Int i -> i
  | j -> Alcotest.failf "expected an int, got %s" (J.to_compact_string j)

let stats_doc line =
  let r = reply_exn line in
  if not r.Harness.Proto.ok then
    Alcotest.failf "stats request failed: %s"
      (Option.value ~default:"(no error)" r.Harness.Proto.error);
  member_exn "stats" r.Harness.Proto.body

let stats_line id = Printf.sprintf {|{"id":%d,"cmd":"stats"}|} id

let inject_line ?(id = 1) ~errors ~trials ~seed app =
  Printf.sprintf
    {|{"id":%d,"cmd":"inject","app":"%s","errors":%d,"trials":%d,"seed":%d}|}
    id app errors trials seed

(* ------------------------- diff algebra ---------------------------- *)

let hist_of xs = List.fold_left Obs.Hist.add Obs.Hist.empty xs

let hist_eq a b =
  Obs.Hist.count a = Obs.Hist.count b
  && Obs.Hist.buckets a = Obs.Hist.buckets b

let samples =
  QCheck.(
    list_of_size
      Gen.(int_range 0 80)
      (oneof [ float_range (-10.0) 1e9; always 0.0; always 1e-12 ]))

(* A histogram grown from [xs] to [xs @ ys]: the diff of its two
   snapshots is exactly the histogram of the growth. *)
let hist_diff_exact =
  QCheck.Test.make ~name:"Hist.diff of a growth is exact" ~count:300
    QCheck.(pair samples samples)
    (fun (xs, ys) ->
      hist_eq (Obs.Hist.diff (hist_of (xs @ ys)) (hist_of xs)) (hist_of ys))

(* Recording ops, appliable to the ambient sink — the view-level
   algebra is checked on views produced by real sinks, not records
   assembled by hand, so the sorted-assoc invariants hold. *)
type op =
  | Count of string * int
  | Observe of string * float

let apply_ops ops =
  List.iter
    (function
      | Count (n, v) -> Obs.count n v
      | Observe (n, x) -> Obs.observe n x)
    ops

let view_of ops =
  let s = Obs.make () in
  Obs.with_sink s (fun () -> apply_ops ops);
  Obs.view s

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun n v -> Count (n, v))
          (oneofl [ "a"; "b"; "c.d" ])
          (int_range 0 50);
        map2
          (fun n x -> Observe (n, x))
          (oneofl [ "h"; "h.two" ])
          (float_range 0.5 1e6);
      ])

let ops_arb = QCheck.make QCheck.Gen.(list_size (int_range 0 40) op_gen)

(* Span-free view equality: counters structurally, histograms
   bucket-by-bucket. *)
let view_eq (a : Obs.view) (b : Obs.view) =
  a.Obs.counters = b.Obs.counters
  && List.map fst a.Obs.hists = List.map fst b.Obs.hists
  && List.for_all2
       (fun (_, x) (_, y) -> hist_eq x y)
       a.Obs.hists b.Obs.hists

(* The property the stats verb's exactness rests on: with per-domain
   buffers [a] and [b] each growing by a delta, diffing the merged
   snapshots equals merging the per-buffer diffs. *)
let diff_distributes_over_merge =
  QCheck.Test.make ~name:"Obs.diff distributes over Obs.merge" ~count:150
    QCheck.(quad ops_arb ops_arb ops_arb ops_arb)
    (fun (a0, da, b0, db) ->
      let a0v = view_of a0 and b0v = view_of b0 in
      let a1v = view_of (a0 @ da) and b1v = view_of (b0 @ db) in
      view_eq
        (Obs.diff (Obs.merge a1v b1v) (Obs.merge a0v b0v))
        (Obs.merge (Obs.diff a1v a0v) (Obs.diff b1v b0v)))

(* Live multi-domain sink: snapshots bracket joined phases exactly,
   and the interval is identical for any domain fan-out. *)
let test_multi_domain_interval () =
  let phase0 = List.init 300 (fun i -> Count ("campaign.trials", 1 + (i mod 3))) in
  let phase1 =
    List.init 200 (fun i ->
        if i mod 5 = 0 then Observe ("trial.us", float_of_int (i + 1))
        else Count ("campaign.trials", 1))
  in
  let split n ops =
    List.init n (fun d ->
        List.filteri (fun i _ -> i mod n = d) ops)
  in
  let run fan =
    let s = Obs.make () in
    Obs.with_sink s (fun () ->
        let go ops =
          let ds =
            List.map (fun o -> Domain.spawn (fun () -> apply_ops o)) (split fan ops)
          in
          List.iter Domain.join ds
        in
        go phase0;
        let s0 = Obs.view s in
        go phase1;
        let s1 = Obs.view s in
        Obs.diff s1 s0)
  in
  let d1 = run 1 and d2 = run 2 in
  let expected = view_of phase1 in
  Alcotest.(check bool) "interval = phase-1 ops exactly" true
    (view_eq d1 expected);
  Alcotest.(check bool) "interval invariant under domain fan-out" true
    (view_eq d1 d2)

(* ------------------------- stats protocol -------------------------- *)

let test_stats_document () =
  with_serve @@ fun t ->
  let responses =
    exchange t
      [
        stats_line 1;
        inject_line ~id:2 ~errors:2 ~trials:4 ~seed:1 "adpcm";
        stats_line 3;
      ]
  in
  Alcotest.(check int) "every line answered" 3 (List.length responses);
  let d1 = stats_doc (List.nth responses 0) in
  let d2 = stats_doc (List.nth responses 2) in
  (match member_exn "schema" d2 with
   | J.Str s ->
     Alcotest.(check string) "schema marker" "etap-stats/1" s
   | _ -> Alcotest.fail "schema is not a string");
  Alcotest.(check bool) "uptime covers the window" true
    (geti [ "uptime_us" ] d2 >= geti [ "window_us" ] d2);
  Alcotest.(check bool) "window is positive" true (geti [ "window_us" ] d2 > 0);
  Alcotest.(check int) "first stats sees itself served" 1
    (geti [ "requests"; "served" ] d1);
  Alcotest.(check int) "served total" 3 (geti [ "requests"; "served" ] d2);
  Alcotest.(check int) "no failures" 0 (geti [ "requests"; "failed" ] d2);
  Alcotest.(check int) "executor workers" 2 (geti [ "executor"; "workers" ] d2);
  Alcotest.(check int) "one app warm" 1 (geti [ "warm"; "apps" ] d2);
  Alcotest.(check bool) "store populated" true
    (geti [ "store"; "entries" ] d2 > 0);
  (* The interval section covers exactly the requests since the
     previous stats call: the inject plus this stats request. *)
  Alcotest.(check int) "interval served = inject + this stats" 2
    (geti [ "interval"; "counters"; "serve.requests" ] d2);
  Alcotest.(check bool) "interval saw the campaign" true
    (geti [ "interval"; "counters"; "campaign.trials" ] d2 > 0);
  Alcotest.(check int) "interval inject latency count" 1
    (geti [ "interval"; "latency"; "inject"; "count" ] d2);
  (* Totals carry latency digests for every kind seen so far. *)
  Alcotest.(check int) "totals stats latency count" 1
    (geti [ "totals"; "latency"; "stats"; "count" ] d2)

(* The same request stream against a jobs=1 and a jobs=2 daemon:
   byte-identical interval counter sections (DESIGN.md §13's contract
   surfaced through the stats verb). *)
let test_stats_jobs_invariance () =
  let lines =
    [ stats_line 1; inject_line ~id:2 ~errors:2 ~trials:5 ~seed:1 "gsm";
      stats_line 3 ]
  in
  let interval_counters jobs =
    with_serve ~jobs @@ fun t ->
    let responses = exchange t lines in
    J.to_compact_string
      (get_path [ "interval"; "counters" ] (stats_doc (List.nth responses 2)))
  in
  Alcotest.(check string) "interval counters invariant under --jobs"
    (interval_counters (Some 1))
    (interval_counters (Some 2))

(* -------------------------- access log ----------------------------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let access_entries path =
  List.map
    (fun l ->
      match J.of_string l with
      | Ok j -> j
      | Error m -> Alcotest.failf "unreadable access line %S: %s" l m)
    (read_lines path)

let gets path doc =
  match get_path path doc with
  | J.Str s -> s
  | j -> Alcotest.failf "expected a string, got %s" (J.to_compact_string j)

let getb path doc =
  match get_path path doc with
  | J.Bool b -> b
  | j -> Alcotest.failf "expected a bool, got %s" (J.to_compact_string j)

let test_access_log () =
  let log = fresh_path "access" ^ ".jsonl" in
  Fun.protect ~finally:(fun () -> rm_rf log) @@ fun () ->
  (with_serve ~access_log:log @@ fun t ->
   ignore
     (exchange t
        [
          {|{"id":5,"cmd":"ping"}|};
          inject_line ~id:6 ~errors:1 ~trials:3 ~seed:1 "adpcm";
          inject_line ~id:7 ~errors:1 ~trials:3 ~seed:1 "adpcm";
          "this is not json";
        ]));
  let entries = access_entries log in
  Alcotest.(check int) "one line per request" 4 (List.length entries);
  List.iter
    (fun e ->
      Alcotest.(check string) "schema marker" "etap-access/1"
        (gets [ "schema" ] e);
      Alcotest.(check bool) "wall_us non-negative" true
        (geti [ "wall_us" ] e >= 0);
      Alcotest.(check bool) "nothing coalesced" false (getb [ "coalesced" ] e))
    entries;
  Alcotest.(check (list string)) "kinds in request order"
    [ "ping"; "inject"; "inject"; "malformed" ]
    (List.map (gets [ "kind" ]) entries);
  Alcotest.(check (list string)) "statuses"
    [ "ok"; "ok"; "ok"; "failed" ]
    (List.map (gets [ "status" ]) entries);
  let cold = List.nth entries 1 and warm = List.nth entries 2 in
  Alcotest.(check bool) "cold inject ran trials" true
    (geti [ "trials_run" ] cold > 0);
  Alcotest.(check int) "cold inject missed the registry" 1
    (geti [ "warm_misses" ] cold);
  Alcotest.(check int) "warm inject ran nothing" 0 (geti [ "trials_run" ] warm);
  Alcotest.(check int) "warm inject hit the registry" 1
    (geti [ "warm_hits" ] warm);
  Alcotest.(check bool) "warm inject reused trials" true
    (geti [ "trials_reused" ] warm > 0)

(* Two identical in-flight requests: two access lines, but the
   execution is attributed exactly once — the winner's line carries the
   trial counts, the waiter's line is marked coalesced and carries
   none. *)
let test_access_coalesced () =
  let log = fresh_path "access" ^ ".jsonl" in
  Fun.protect ~finally:(fun () -> rm_rf log) @@ fun () ->
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
  let line = inject_line ~errors:2 ~trials:4 ~seed:1 "gsm" in
  (with_serve ~gate ~access_log:log @@ fun t ->
   tref := Some t;
   let th_a = Thread.create (fun () -> ignore (exchange t [ line ])) () in
   let th_b = Thread.create (fun () -> ignore (exchange t [ line ])) () in
   Thread.join th_a;
   Thread.join th_b);
  let entries = access_entries log in
  Alcotest.(check int) "one line per request" 2 (List.length entries);
  let coalesced, winners =
    List.partition (fun e -> getb [ "coalesced" ] e) entries
  in
  Alcotest.(check int) "exactly one waiter" 1 (List.length coalesced);
  Alcotest.(check int) "exactly one winner" 1 (List.length winners);
  Alcotest.(check bool) "execution on the winner's line" true
    (geti [ "trials_run" ] (List.hd winners) > 0);
  Alcotest.(check int) "no execution on the waiter's line" 0
    (geti [ "trials_run" ] (List.hd coalesced))

let () =
  Alcotest.run "stats_proto"
    [
      ( "diff algebra",
        [
          QCheck_alcotest.to_alcotest hist_diff_exact;
          QCheck_alcotest.to_alcotest diff_distributes_over_merge;
          Alcotest.test_case "multi-domain interval exact and fan-out invariant"
            `Quick test_multi_domain_interval;
        ] );
      ( "stats verb",
        [
          Alcotest.test_case "etap-stats/1 document and exact intervals" `Quick
            test_stats_document;
          Alcotest.test_case "interval counters invariant under --jobs" `Quick
            test_stats_jobs_invariance;
        ] );
      ( "access log",
        [
          Alcotest.test_case "one etap-access/1 line per request" `Quick
            test_access_log;
          Alcotest.test_case "coalesced pair logs one execution" `Quick
            test_access_coalesced;
        ] );
    ]
