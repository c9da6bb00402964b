(* serve-mix: an in-process [Harness.Serve] daemon on a Unix socket,
   driven by 2 closed-loop client connections (each waits for a reply
   before it sends the next request, like [etap serve --connect]).

   Each client repeats a fixed 10-slot pattern over [apps]:
     R N R N S N R N S stats
   R: an exact repeat of a request set-up already answered (registry
      hit, cache hit);
   N: same app and seed, new error count (registry hit, cache miss);
   S: a new seed (cold load, prepare and trials);
   stats: a [stats] poll, counted but not part of the latency sample.
   In every 20 requests one R becomes a small [matrix] request. Of the
   work requests a third are R or matrix, 4/9 are N and 2/9 are S, so
   the median falls inside N and p90 inside S rather than on a class
   boundary. App seeds are fixed (base seed 1), so every run asks for
   the same work; the workload seed rotates which app each slot names
   and picks the replies the correctness check rebuilds.

   Set-up: start the daemon with a fresh cache and answer one request
   per app (the R keys), so repeats hit from the start. *)

open Harness
open Common

let apps = [ "gsm"; "art"; "adpcm"; "blowfish" ]
let trials = 6
let base_errors = 3
let clients = 2

type cls = Repeat | New_errors | New_seed | Matrix_req | Stats_req

let cls_name = function
  | Repeat -> "repeat" | New_errors -> "new_errors" | New_seed -> "new_seed"
  | Matrix_req -> "matrix" | Stats_req -> "stats"

let pattern =
  [| Repeat; New_errors; Repeat; New_errors; New_seed; New_errors; Repeat; New_errors; New_seed; Stats_req |]

let base_seed = 1

(* Request ids at or above this belong to set-up, not to the loop. *)
let warmup_id = 900_000_000

let inject_line ~id ~app ~errors ~seed =
  Printf.sprintf {|{"id":%d,"cmd":"inject","app":"%s","errors":%d,"trials":%d,"seed":%d}|}
    id app errors trials seed

let matrix_line ~id ~app ~seed =
  Printf.sprintf
    {|{"id":%d,"cmd":"matrix","spec":{"apps":["%s"],"errors":[1],"trials":4,"seed":%d}}|}
    id app seed

let class_of k = if k mod 20 = 16 then Matrix_req else pattern.(k mod 10)

(* Request [k] of client [c]: its class, key (None for stats) and line.
   The j-th request of each class names app [j + c + seed], so every
   class cycles through all apps whatever the seed. Keys are unique per
   client where the class says "new". *)
let request ~seed ~c k =
  let id = (c * 1_000_000) + k in
  let cls = class_of k in
  let j = List.length (List.filter (fun k' -> class_of k' = cls) (List.init k Fun.id)) in
  let app = List.nth apps ((j + c + seed) mod List.length apps) in
  let b = base_seed in
  match cls with
  | Stats_req -> (cls, None, {|{"id":|} ^ string_of_int id ^ {|,"cmd":"stats"}|})
  | Matrix_req ->
    (cls, Some (Printf.sprintf "matrix %s %d" app b), matrix_line ~id ~app ~seed:b)
  | Repeat | New_errors | New_seed ->
    let errors, s =
      match cls with
      | Repeat -> (base_errors, b)
      | New_errors -> (base_errors + 1 + (2 * k) + c, b)
      | _ -> (base_errors, b + 1000 + (2 * k) + c)
    in
    (cls, Some (Printf.sprintf "inject %s e=%d s=%d" app errors s), inject_line ~id ~app ~errors ~seed:s)

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle *)

type daemon = { t : Serve.t; thread : Thread.t; sock : string; dir : string }

let roundtrip ~ic ~oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let wait_for_socket path =
  let rec go n =
    if Sys.file_exists path then ()
    else if n = 0 then failwith "daemon socket did not appear"
    else begin
      Thread.delay 0.01;
      go (n - 1)
    end
  in
  go 500

let start ~access name =
  let dir = scratch_dir name in
  let cfg =
    {
      Serve.default_config with
      Serve.jobs = Some jobs;
      cache_dir = Filename.concat dir "cache";
      access_log = (if access then Some (Filename.concat dir "access.jsonl") else None);
    }
  in
  let t = Serve.create ~config:cfg () in
  (* A short relative socket path: sun_path is limited to ~100 bytes. *)
  let sock = Filename.concat dir "s" in
  let thread = Thread.create (fun () -> Serve.run_socket t ~path:sock) () in
  wait_for_socket sock;
  let ic, oc = Serve.connect ~path:sock in
  List.iteri
    (fun i app ->
      match
        Proto.reply_of_line
          (roundtrip ~ic ~oc
             (inject_line ~id:(warmup_id + i) ~app ~errors:base_errors
                ~seed:base_seed))
      with
      | Ok r when r.Proto.ok -> ()
      | _ -> failwith ("warm-up request failed for " ^ app))
    apps;
  close_out oc;
  { t; thread; sock; dir }

let stop d =
  (try
     let ic, oc = Serve.connect ~path:d.sock in
     ignore (roundtrip ~ic ~oc {|{"id":0,"cmd":"shutdown"}|});
     close_out oc
   with _ -> ());
  Thread.join d.thread;
  rm_rf d.dir

(* ------------------------------------------------------------------ *)
(* The closed loop *)

type sample = { cls : cls; key : string option; latency : float; reply : Proto.reply option }

let client ~seed ~sock ~t_end c =
  let ic, oc = Serve.connect ~path:sock in
  let rec go k acc =
    if Ledger.now () >= t_end then List.rev acc
    else begin
      let cls, key, line = request ~seed ~c k in
      let t0 = Ledger.now () in
      let reply =
        match roundtrip ~ic ~oc line with
        | l -> Result.to_option (Proto.reply_of_line l)
        | exception (End_of_file | Sys_error _) -> None
      in
      go (k + 1) ({ cls; key; latency = Ledger.now () -. t0; reply } :: acc)
    end
  in
  let r = go 0 [] in
  close_out oc;
  r

let closed_loop ~seed ~sock ~seconds =
  let t0 = Ledger.now () in
  let t_end = t0 +. seconds in
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun c ->
        Thread.create (fun () -> results.(c) <- client ~seed ~sock ~t_end c) ())
  in
  List.iter Thread.join threads;
  (Ledger.now () -. t0, List.concat (Array.to_list results))

(* A reply's tables without the per-request cache accounting columns
   (a matrix row reports how many of its trials this request reused). *)
let tables_of (r : Proto.reply) =
  let rec strip = function
    | J.Obj kvs ->
      J.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "trials_reused" || k = "trials_run" then None else Some (k, strip v))
           kvs)
    | J.Arr xs -> J.Arr (List.map strip xs)
    | j -> j
  in
  match Option.bind r.Proto.report (J.member "tables") with
  | Some t -> J.to_compact_string (strip t)
  | None -> ""

let work s = s.cls <> Stats_req

(* Account the samples: failed requests, identical tables per key. *)
let account samples =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.reply with
      | Some r when r.Proto.ok ->
        op_ok ();
        Option.iter
          (fun k ->
            let t = tables_of r in
            match Hashtbl.find_opt by_key k with
            | Some t0 -> check_equal ~what:("repeated " ^ k ^ " carries the same tables") t0 t
            | None -> Hashtbl.replace by_key k t)
          s.key
      | Some r ->
        op_failed (cls_name s.cls ^ ": " ^ Option.value ~default:"failed" r.Proto.error)
      | None -> op_failed (cls_name s.cls ^ ": no reply"))
    samples;
  by_key

let class_counts samples =
  List.map
    (fun c -> (cls_name c, List.length (List.filter (fun s -> s.cls = c) samples)))
    [ Repeat; New_errors; New_seed; Matrix_req; Stats_req ]

let trials_delivered samples =
  List.fold_left
    (fun n s ->
      match (s.cls, s.reply) with
      | (Repeat | New_errors | New_seed), Some r when r.Proto.ok -> n + (2 * trials)
      | Matrix_req, Some r when r.Proto.ok ->
        let trials_of k = match Option.bind r.Proto.report (J.member "meta") with
          | Some m -> Option.value ~default:0 (Option.bind (J.member k m) J.to_int_opt)
          | None -> 0
        in
        n + trials_of "trials_run" + trials_of "trials_reused"
      | _ -> n)
    0 samples

let end_to_end ~wall samples =
  let w = List.filter work samples in
  let lat = List.map (fun s -> s.latency) w in
  set "requests_per_s" (float_of_int (List.length w) /. wall);
  set "trial_results_per_s" (float_of_int (trials_delivered samples) /. wall);
  set "request_p50_ms" (1e3 *. quantile 0.5 lat);
  set "request_p90_ms" (1e3 *. quantile 0.9 lat);
  say "closed loop: %.3f s, %d work requests (%s), p50 %.2f ms, p90 %.2f ms, %d above p90"
    wall (List.length w)
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (class_counts samples)))
    (1e3 *. quantile 0.5 lat) (1e3 *. quantile 0.9 lat)
    (List.length (List.filter (fun x -> x > quantile 0.9 lat) lat))

(* ------------------------------------------------------------------ *)
(* Correctness: a seeded sample of answered inject keys, rebuilt as
   standalone reports without the daemon, must carry the same tables. *)

let standalone ~app ~errors ~seed =
  let a = Option.get (Apps.Registry.find app) in
  let l = Experiment.load ~seed a in
  let score r = l.Experiment.built.Apps.App.score ~golden:l.Experiment.golden r in
  let summaries =
    List.map
      (fun policy ->
        ( policy,
          Core.Campaign.run ~jobs ~score (l.Experiment.prepared Experiment.Full policy)
            ~errors ~trials ~seed:(seed + 100) ))
      [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ]
  in
  let rep =
    Serve.inject_report ~app ~errors ~trials ~seed ~literal:false ~engine:Sim.Interp.Fast
      ~jobs:None ~checkpoint_stride:None
      ~fidelity_units:l.Experiment.built.Apps.App.fidelity_units ~cache:None summaries
  in
  match J.of_string (J.to_compact_string (Report.to_json rep)) with
  | Ok j -> Option.fold ~none:"" ~some:J.to_compact_string (J.member "tables" j)
  | Error e -> failwith e

let check_standalone ~seed by_key =
  let keys =
    Hashtbl.fold (fun k v acc -> if String.starts_with ~prefix:"inject" k then (k, v) :: acc else acc) by_key []
    |> List.sort compare
  in
  let picks = sample ~seed ~k:3 (List.length keys) in
  List.iter
    (fun i ->
      let k, tables = List.nth keys i in
      Scanf.sscanf k "inject %s e=%d s=%d" (fun app errors s ->
          check_equal ~what:(k ^ ": daemon vs standalone report") (standalone ~app ~errors ~seed:s) tables))
    picks;
  say "check: %d daemon replies rebuilt standalone" (List.length picks)

(* ------------------------------------------------------------------ *)
(* Layer metrics of the traced half *)

let stats_of (r : Proto.reply) = J.member "stats" r.Proto.body

let path j ks = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) ks
let int_at j ks = Option.value ~default:0 (Option.bind (path j ks) J.to_int_opt)

let daemon_layers ~dir ~wall samples =
  let polls = List.filter_map (fun s -> Option.bind s.reply stats_of) (List.filter (fun s -> s.cls = Stats_req) samples) in
  let busy = List.map (fun st -> ratioi (int_at st [ "executor"; "busy" ]) (max 1 (int_at st [ "executor"; "workers" ]))) polls in
  let queued = List.map (fun st -> float_of_int (int_at st [ "executor"; "queued_jobs" ])) polls in
  let mean xs = ratio (List.fold_left ( +. ) 0. xs) (float_of_int (List.length xs)) in
  set "executor.busy_share" (mean busy);
  set "executor.queued_jobs_mean" (mean queued);
  let acc =
    In_channel.with_open_bin (Filename.concat dir "access.jsonl") In_channel.input_lines
    |> List.filter_map (fun l -> Result.to_option (J.of_string l))
  in
  let kind j = Option.bind (J.member "kind" j) J.to_str_opt in
  let daemon_us =
    List.filter_map
      (fun j ->
        let id = Option.value ~default:warmup_id (Option.bind (J.member "id" j) J.to_int_opt) in
        match kind j with
        | Some ("inject" | "matrix") when id < warmup_id ->
          Option.bind (J.member "wall_us" j) J.to_int_opt
        | _ -> None)
      acc
    |> List.map float_of_int
  in
  let client_ms = List.map (fun s -> 1e3 *. s.latency) (List.filter work samples) in
  set "serve.daemon_p50_ms" (1e-3 *. quantile 0.5 daemon_us);
  set "serve.daemon_p90_ms" (1e-3 *. quantile 0.9 daemon_us);
  set "proto.overhead_p50_ms" (quantile 0.5 client_ms -. (1e-3 *. quantile 0.5 daemon_us));
  let daemon_s = 1e-6 *. List.fold_left ( +. ) 0. daemon_us in
  let client_s = 1e-3 *. List.fold_left ( +. ) 0. client_ms in
  let capacity = wall *. float_of_int clients in
  let self = [ ("serve.daemon", daemon_s); ("proto", client_s -. daemon_s) ] in
  print_self_times ~title:"client time self split (2 clients x loop wall)" ~total:capacity
    (self @ [ ("(other)", capacity -. client_s) ]);
  List.iter (fun (k, v) -> set ("self_s." ^ k) v) self;
  set "self_s.other" (capacity -. client_s)

let final_stats (d : daemon) =
  let ic, oc = Serve.connect ~path:d.sock in
  let r = Proto.reply_of_line (roundtrip ~ic ~oc {|{"id":1,"cmd":"stats"}|}) in
  close_out oc;
  match Result.to_option r with
  | Some r -> Option.value ~default:(J.Obj []) (stats_of r)
  | None -> J.Obj []

let counter_metrics st =
  let c k = int_at st [ "totals"; "counters"; k ] in
  let hits = int_at st [ "warm"; "hits" ] and misses = int_at st [ "warm"; "misses" ] in
  set "serve.warm_hit_share" (ratioi hits (hits + misses));
  seti "serve.coalesced" (int_at st [ "requests"; "coalesced" ]);
  List.iter (fun k -> seti k (c k)) [ "memo.sections"; "memo.hits"; "memo.misses"; "memo.trials_reused"; "memo.trials_run" ];
  set "memo.hit_share" (ratioi (c "memo.hits") (c "memo.sections"));
  seti "sim.trials" (c "campaign.trials");
  seti "sim.completed_trials" (c "campaign.trials.completed");
  seti "sim.crash_trials" (c "campaign.trials.crash");
  seti "sim.timeout_trials" (c "campaign.trials.infinite");
  seti "store.entries" (int_at st [ "store"; "entries" ]);
  seti "store.bytes" (int_at st [ "store"; "bytes" ])

(* Load-path layers for the apps this mix loads, measured by running the
   traced loader on the same (app, seed) inputs. *)
let load_layers () =
  Ledger.reset ();
  Ledger.enabled := true;
  let loaded =
    List.map
      (fun name ->
        Loader.load ~seed:base_seed ~modes:[ Experiment.Full ]
          ~combos:(fun _ -> [ (Experiment.Full, Core.Policy.Protect_control); (Experiment.Full, Core.Policy.Protect_nothing) ])
          (Option.get (Apps.Registry.find name)))
      apps
  in
  let sec = ref 0. in
  List.iter
    (fun (l : Experiment.loaded) ->
      List.iter
        (fun p -> sec := !sec +. snd (Ledger.leaf_timed "memo" (fun () -> Core.Memo.sections_of (l.Experiment.prepared Experiment.Full p))))
        [ Core.Policy.Protect_control; Core.Policy.Protect_nothing ])
    loaded;
  Ledger.enabled := false;
  publish_load_layers ();
  set "memo.sections_of_s" !sec

(* ------------------------------------------------------------------ *)

let run (a : args) =
  say "serve-mix: %d closed-loop clients over %s, %d trials per policy, executor jobs=%d"
    clients (String.concat "," apps) trials jobs;
  if not a.trace then begin
    let d = timed_setups ~n:3 ~teardown:stop (fun () -> start ~access:false "serve") in
    let wall, samples = closed_loop ~seed:a.seed ~sock:d.sock ~seconds:a.seconds in
    end_to_end ~wall samples;
    let by_key = account samples in
    stop d;
    check_standalone ~seed:a.seed by_key
  end
  else begin
    let du = start ~access:false "serve-untraced" in
    let wall_u, su = closed_loop ~seed:a.seed ~sock:du.sock ~seconds:(a.seconds /. 2.) in
    ignore (account su);
    stop du;
    let d = start ~access:true "serve-traced" in
    let wall, samples = closed_loop ~seed:a.seed ~sock:d.sock ~seconds:(a.seconds /. 2.) in
    let by_key = account samples in
    List.iter (fun (k, v) -> seti ("serve.requests." ^ k) v) (class_counts samples);
    daemon_layers ~dir:d.dir ~wall samples;
    counter_metrics (final_stats d);
    let p50 xs = quantile 0.5 (List.map (fun s -> s.latency) (List.filter work xs)) in
    set "trace.overhead_s" (p50 samples -. p50 su);
    set "trace.overhead_share" (ratio (p50 samples -. p50 su) (p50 su));
    say "tracing overhead: p50 %.2f ms traced vs %.2f ms untraced (loops of %.1f s and %.1f s)"
      (1e3 *. p50 samples) (1e3 *. p50 su) wall wall_u;
    stop d;
    load_layers ();
    check_standalone ~seed:a.seed by_key
  end;
  (* The exact counts of this workload: the class mix of the first 100
     requests a client sends. *)
  record_counts ~what:"requests"
    (List.map
       (fun (c, n) -> ("stream_prefix." ^ c, n))
       (class_counts
          (List.init 100 (fun k ->
               let cls, key, _ = request ~seed:a.seed ~c:0 k in
               { cls; key; latency = 0.; reply = None }))))
