(* Shared plumbing: command line, the metric catalogue, exact work
   counts, correctness accounting and the result line. *)

module J = Report.Json

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  inject_mismatch : bool;
  commit : string;
  source_digest : string;
}

(* Scratch stores, sockets, result documents and the counts ledger, all
   under the directory the benchmark runs in. *)
let work_dir = "_etapbench"

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-repro|sweep-extend|serve-mix --seed N \
     --seconds S --trace 0|1 [--commit SHA] \
     [--source-digest HEX] [--inject-mismatch]";
  exit 2

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = -1;
        seconds = 0.;
        trace = false;
        inject_mismatch = false;
        commit = "unknown";
        source_digest = "unknown";
      }
  in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: tl -> a := { !a with workload = v }; go tl
    | "--seed" :: v :: tl -> a := { !a with seed = int_arg v }; go tl
    | "--seconds" :: v :: tl ->
      a := { !a with seconds = float_of_int (int_arg v) }; go tl
    | "--trace" :: v :: tl -> a := { !a with trace = int_arg v = 1 }; go tl
    | "--commit" :: v :: tl -> a := { !a with commit = v }; go tl
    | "--source-digest" :: v :: tl -> a := { !a with source_digest = v }; go tl
    | "--inject-mismatch" :: tl -> a := { !a with inject_mismatch = true }; go tl
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !a.seed < 0 || !a.seconds <= 0. || !a.workload = "" then usage ();
  !a

(* Campaigns fan out over every core, as a user on this host would. *)
let jobs = max 1 (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Metric catalogue. BENCHMARK.json lists exactly these; every workload
   reports every metric of its mode. A layer a workload never enters
   reports 0 (no work, no time). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("trial_results_per_s", "trials/s");
    ("requests_per_s", "req/s");
    ("request_p50_ms", "ms");
    ("request_p90_ms", "ms");
    ("peak_rss_mb", "MiB");
  ]

let app_names = Apps.Registry.names
let error_buckets = [ 1; 5; 20 ]

(* Layers of the round self-time table, in the order they are printed
   when tied; "pool.idle" and "(other)" are the two remainders. *)
let self_layers =
  [
    "apps"; "tagging"; "campaign.of_prog"; "campaign.prepare"; "snapshot";
    "sim"; "taint"; "fidelity"; "memo"; "serve.daemon"; "proto"; "pool.idle";
  ]

let per_layer =
  [
    ("apps.build_s", "s");
    ("tagging.compute_s", "s");
    ("campaign.of_prog_s", "s");
    ("campaign.prepare_s", "s");
    ("snapshot.build_s", "s");
    ("snapshot.resumed_share", "ratio");
    ("snapshot.skipped_dyn_share", "ratio");
  ]
  @ List.concat_map
      (fun e ->
        [
          (Printf.sprintf "snapshot.resumed_share.e%d" e, "ratio");
          (Printf.sprintf "snapshot.skipped_dyn_share.e%d" e, "ratio");
        ])
      error_buckets
  @ [
      ("sim.trials", "count");
      ("sim.dyn_instructions", "count");
      ("sim.completed_trials", "count");
      ("sim.crash_trials", "count");
      ("sim.timeout_trials", "count");
      ("sim.trial_s", "s");
      ("sim.trial_p50_ms", "ms");
      ("sim.trial_p99_ms", "ms");
      ("sim.timeout_dyn_share", "ratio");
      ("sim.minstr_per_s", "Minstr/s");
    ]
  @ List.map (fun a -> ("sim.minstr_per_s." ^ a, "Minstr/s")) app_names
  @ [
      ("taint.run_s", "s");
      ("taint.dyn_instructions", "count");
      ("taint.minstr_per_s", "Minstr/s");
      ("fidelity.score_s", "s");
      ("fidelity.scored", "count");
      ("pool.busy_share", "ratio");
      ("memo.sections", "count");
      ("memo.hits", "count");
      ("memo.misses", "count");
      ("memo.trials_reused", "count");
      ("memo.trials_run", "count");
      ("memo.hit_share", "ratio");
      ("memo.owner_walk_s", "s");
      ("memo.sections_of_s", "s");
      ("store.load_us", "us");
      ("store.save_us", "us");
      ("store.entries", "count");
      ("store.bytes", "B");
      ("matrix.load_s", "s");
      ("matrix.wall_s", "s");
      ("matrix.cells_hit", "count");
      ("matrix.cells_miss", "count");
      ("matrix.cells_skipped", "count");
      ("serve.daemon_p50_ms", "ms");
      ("serve.daemon_p90_ms", "ms");
      ("proto.overhead_p50_ms", "ms");
      ("serve.warm_hit_share", "ratio");
      ("serve.coalesced", "count");
      ("executor.busy_share", "ratio");
      ("executor.queued_jobs_mean", "jobs");
      ("serve.requests.repeat", "count");
      ("serve.requests.new_errors", "count");
      ("serve.requests.new_seed", "count");
      ("serve.requests.matrix", "count");
      ("serve.requests.stats", "count");
      ("trace.overhead_s", "s");
      ("trace.overhead_share", "ratio");
    ]
  @ List.map
      (fun l -> ("self_s." ^ l, "s"))
      (self_layers @ [ "other" ])

(* ------------------------------------------------------------------ *)
(* Values *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace metrics name v
let seti name v = set name (float_of_int v)
let ratio a b = if b = 0. then 0. else a /. b
let ratioi a b = ratio (float_of_int a) (float_of_int b)

(* Nearest-rank quantile of an unsorted sample; 0 when empty. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s ->
    let n = List.length s in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) in
    List.nth s (max 0 (min (n - 1) (k - 1)))

let median xs = quantile 0.5 xs

(* Process high-water mark, VmHWM, in MiB. *)
let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> 0
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 0
  in
  float_of_int kb /. 1024.

(* ------------------------------------------------------------------ *)
(* Correctness: operations attempted and failed, and the mismatches the
   checks found. *)

let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let op_ok () = incr attempted

let op_failed why =
  incr attempted;
  incr failed;
  problems := why :: !problems

let mismatch why =
  incr failed;
  problems := ("check: " ^ why) :: !problems

(* A check that compares [expected] with [actual]; [--inject-mismatch]
   perturbs the first comparison so the failure path can be exercised. *)
let inject_pending = ref false

let check_equal ~what expected actual =
  let actual =
    if !inject_pending then begin
      inject_pending := false;
      actual ^ "#injected"
    end
    else actual
  in
  if not (String.equal expected actual) then mismatch what

(* ------------------------------------------------------------------ *)
(* Exact work counts: printed beside every timing, compared across
   rounds of one run and — through a small ledger under the work
   directory, keyed by source digest, workload and seed — across runs
   with the same seed. *)

let exact : (string * int) list ref = ref []

let record_counts ~what (counts : (string * int) list) =
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k !exact with
      | Some v0 when v0 <> v ->
        mismatch (Printf.sprintf "%s: count %s is %d, first round had %d" what k v v0)
      | Some _ -> ()
      | None -> exact := !exact @ [ (k, v) ])
    counts

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let compare_ledger (a : args) =
  let dir = Filename.concat work_dir ("counts-" ^ a.source_digest) in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" a.workload a.seed) in
  let previous =
    if Sys.file_exists path then
      match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok (J.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (J.to_int_opt v)) kvs
      | _ -> []
    else []
  in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k previous with
      | Some v0 when v0 <> v ->
        mismatch (Printf.sprintf "count %s is %d, an earlier run with this seed had %d" k v v0)
      | _ -> ())
    !exact;
  let merged =
    previous @ List.filter (fun (k, _) -> not (List.mem_assoc k previous)) !exact
  in
  J.to_file path (J.Obj (List.map (fun (k, v) -> (k, J.Int v)) merged))

(* ------------------------------------------------------------------ *)
(* Output *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

let print_counts () =
  say "exact work counts:";
  List.iter (fun (k, v) -> say "  %-34s %d" k v) !exact

let print_self_times ~title ~total rows =
  say "%s (%.3f s wall):" title total;
  List.iter
    (fun (k, v) -> say "  %-20s %9.4f s  %5.1f%%" k v (100. *. ratio v total))
    rows

let meta_json (a : args) =
  J.Obj
    [
      ("workload", J.Str a.workload);
      ("seed", J.Int a.seed);
      ("seconds", J.Float a.seconds);
      ("trace", J.Bool a.trace);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("jobs", J.Int jobs);
      ("ocaml", J.Str Sys.ocaml_version);
      ("commit", J.Str a.commit);
      ("source_digest", J.Str a.source_digest);
    ]

let finish (a : args) =
  set "peak_rss_mb" (peak_rss_mb ());
  compare_ledger a;
  let catalogue = if a.trace then per_layer else end_to_end in
  let failed_n = min !failed (max 1 !attempted) in
  let correct = failed_n = 0 in
  say "metrics (%s):" (if a.trace then "per layer, traced" else "end to end");
  List.iter
    (fun (k, u) ->
      say "  %-34s %14.6g %s" k (Option.value ~default:0. (Hashtbl.find_opt metrics k)) u)
    catalogue;
  print_counts ();
  say "failed_share %.4f (%d failed of %d operations)"
    (ratioi failed_n (max 1 !attempted)) failed_n (max 1 !attempted);
  List.iter (fun p -> say "FAILED %s" p) (List.rev !problems);
  let metrics_json =
    J.Obj
      (List.map
         (fun (k, u) ->
           ( k,
             J.Obj
               [
                 ("value", J.Float (Option.value ~default:0. (Hashtbl.find_opt metrics k)));
                 ("unit", J.Str u);
               ] ))
         catalogue)
  in
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int (max 1 !attempted));
        ("failed", J.Int failed_n);
        ("metrics", metrics_json);
      ]
  in
  let dir = Filename.concat work_dir "results" in
  mkdir_p dir;
  J.to_file
    (Filename.concat dir
       (Printf.sprintf "%s-seed%d-trace%d.json" a.workload a.seed
          (if a.trace then 1 else 0)))
    (J.Obj
       [
         ("meta", meta_json a);
         ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) !exact));
         ("problems", J.Arr (List.map (fun p -> J.Str p) (List.rev !problems)));
         ("result", result);
       ]);
  say "meta %s" (J.to_compact_string (meta_json a));
  print_string (J.to_compact_string result);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Layer metrics from the ledger *)

(* The load path's layers, as domain-seconds since the last reset. *)
let publish_load_layers () =
  set "apps.build_s" (Ledger.busy_s "apps");
  set "tagging.compute_s" (Ledger.busy_s "tagging");
  set "campaign.of_prog_s" (Ledger.busy_s "campaign.of_prog");
  set "campaign.prepare_s" (Ledger.busy_s "campaign.prepare" +. Ledger.busy_s "snapshot");
  set "snapshot.build_s" (Ledger.busy_s "snapshot")

(* Print the self-time table of the traced round that lasted [total]
   seconds and publish it as the self_s.* metrics. *)
let publish_self_times ~total =
  let rows = Ledger.self_times ~total in
  print_self_times ~title:"round self time (last traced round)" ~total rows;
  List.iter (fun (k, v) -> set ("self_s." ^ if k = "(other)" then "other" else k) v) rows

let publish_overhead ~untraced ~traced =
  let u = median untraced and t = median traced in
  set "trace.overhead_s" (t -. u);
  set "trace.overhead_share" (ratio (t -. u) u);
  say "tracing overhead: %.3f s per round (untraced median %.3f s, traced %.3f s)" (t -. u) u t

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let hex f = Printf.sprintf "%h" f

let trial_fp (t : Core.Campaign.trial) =
  Printf.sprintf "%d:%s:%d:%d:%d:%s" t.Core.Campaign.index
    (Core.Outcome.to_string t.Core.Campaign.outcome)
    t.Core.Campaign.dyn_count t.Core.Campaign.faults_planned
    t.Core.Campaign.faults_landed
    (match t.Core.Campaign.fidelity with Some f -> hex f | None -> "-")

let digest s = Digest.to_hex (Digest.string s)

(* Seeded sample of [k] distinct indices below [n]. *)
let sample ~seed ~k n =
  let rng = Random.State.make [| seed; n; k |] in
  let rec go acc =
    if List.length acc >= min k n then List.sort Int.compare acc
    else
      let i = Random.State.int rng n in
      go (if List.mem i acc then acc else i :: acc)
  in
  go []

(* Set up [n] times from a cold process and report the median duration.
   Process-wide caches (Blowfish's pi digits, for one) make a second
   set-up in the same process cheaper than the first, so the first
   [n - 1] run in forked children — forked before this process has
   spawned any domain — and report their time through a pipe; the last
   runs here and its result is kept. [teardown] releases what a child
   set up before it exits. *)
let timed_setups ~n ?(teardown = ignore) setup =
  let child () =
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let code =
        match
          let t0 = Ledger.now () in
          let v = setup () in
          let dt = Ledger.now () -. t0 in
          teardown v;
          dt
        with
        | dt ->
          let s = Printf.sprintf "%h\n" dt in
          ignore (Unix.write_substring wr s 0 (String.length s));
          0
        | exception _ -> 1
      in
      Unix._exit code
    | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let line = In_channel.input_line ic in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      (match (line, status) with
       | Some l, Unix.WEXITED 0 -> float_of_string (String.trim l)
       | _ -> failwith "set-up failed in a child process")
  in
  let forked = List.init (max 0 (n - 1)) (fun _ -> child ()) in
  let t0 = Ledger.now () in
  let v = setup () in
  let times = forked @ [ Ledger.now () -. t0 ] in
  set "setup_s" (median times);
  say "setup: %d cold repetitions, median %.3f s (%s)" n (median times)
    (String.concat ", " (List.map (Printf.sprintf "%.3f") times));
  v

(* Run [round] until [seconds] of rounds have elapsed (at least
   [min_rounds] times), after [warmup] rounds that are run and checked
   like the others but not timed: the first rounds of a process run
   measurably slower while the heap and domain pool grow. [before i]
   runs untimed ahead of round [i]. Returns each timed round's (wall
   seconds, value). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds (all domains) of each timed round, latest first. *)
let round_cpu : float list ref = ref []

let rounds ?(before = ignore) ?(warmup = 0) ~seconds ~min_rounds round =
  let spent = ref 0. in
  let rec go i acc =
    if i >= warmup + min_rounds && !spent >= seconds then List.rev acc
    else begin
      before i;
      (* Each round starts from a collected heap, so garbage left by the
         previous one is not billed to it. *)
      Gc.full_major ();
      let t0 = Ledger.now () and c0 = cpu_s () in
      let v = round i in
      let w = Ledger.now () -. t0 in
      if i >= warmup then begin
        spent := !spent +. w;
        round_cpu := (cpu_s () -. c0) :: !round_cpu
      end;
      go (i + 1) (if i >= warmup then (w, v) :: acc else acc)
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Scratch directories under the work directory *)

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc (In_channel.with_open_bin src In_channel.input_all))

let scratch_dir name =
  let d = Filename.concat work_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  d
