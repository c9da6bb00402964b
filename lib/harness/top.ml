(* etap top — client-side rendering of the daemon's [stats] verb.

   The daemon does the hard part: every etap-stats/1 document carries
   both lifetime totals and an "interval" section — the [Obs.diff] of
   the current snapshot against the previous [stats] request's — so a
   poller gets exact per-window deltas without keeping state beyond
   the poll loop itself. This module turns one document into typed
   [Report] tables (the same renderer every other etap surface uses):
   an overview of the daemon gauges and a per-request-kind rates table
   derived from the interval latency digests. *)

module J = Report.Json

let get path (doc : J.t) : J.t option =
  List.fold_left
    (fun acc k -> match acc with Some j -> J.member k j | None -> None)
    (Some doc) path

let geti path doc =
  match get path doc with
  | Some j -> Option.value ~default:0 (J.to_int_opt j)
  | None -> 0

let getf path doc =
  match get path doc with
  | Some j -> Option.value ~default:0.0 (J.to_float_opt j)
  | None -> 0.0

(* Daemon gauges, one metric per row: uptime and the requests / warm
   registry / store / executor sections of the stats document. *)
let overview_table (doc : J.t) : Report.table =
  let num text v = Report.num ~text v in
  let secs us = num (Printf.sprintf "%.1f s" (us /. 1e6)) (us /. 1e6) in
  let mib b =
    num
      (Printf.sprintf "%.2f MiB" (float_of_int b /. 1048576.0))
      (float_of_int b /. 1048576.0)
  in
  let warm_hits = geti [ "warm"; "hits" ] doc in
  let warm_misses = geti [ "warm"; "misses" ] doc in
  let hit_rate =
    if warm_hits + warm_misses = 0 then Report.text "n/a"
    else
      Report.pct
        (100.0 *. float_of_int warm_hits /. float_of_int (warm_hits + warm_misses))
  in
  let rows =
    [
      ("uptime", secs (getf [ "uptime_us" ] doc));
      ("window", secs (getf [ "window_us" ] doc));
      ("requests served", Report.int (geti [ "requests"; "served" ] doc));
      ("requests failed", Report.int (geti [ "requests"; "failed" ] doc));
      ("requests coalesced", Report.int (geti [ "requests"; "coalesced" ] doc));
      ("requests malformed", Report.int (geti [ "requests"; "malformed" ] doc));
      ("warm hit rate", hit_rate);
      ("warm apps", Report.int (geti [ "warm"; "apps" ] doc));
      ("store entries", Report.int (geti [ "store"; "entries" ] doc));
      ("store size", mib (geti [ "store"; "bytes" ] doc));
      ("gc evicted", Report.int (geti [ "store"; "gc_evicted" ] doc));
      ( "workers busy",
        Report.text
          (Printf.sprintf "%d/%d"
             (geti [ "executor"; "busy" ] doc)
             (geti [ "executor"; "workers" ] doc)) );
      ("queued jobs", Report.int (geti [ "executor"; "queued_jobs" ] doc));
    ]
  in
  Report.table ~id:"top_overview" ~title:"etap top: daemon"
    ~columns:
      [ Report.column ~key:"metric" "metric"; Report.column ~key:"value" "value" ]
    (List.map (fun (m, v) -> [ Report.text m; v ]) rows)

(* Per-request-kind rates over the poll window: request count and
   latency digests from the interval section (live view), lifetime
   request count from totals. Kinds are whatever the daemon has seen —
   inject, matrix, ping, stats, shutdown, malformed. *)
let kinds_table (doc : J.t) : Report.table =
  let window_s = getf [ "window_us" ] doc /. 1e6 in
  let fields = function Some (J.Obj kvs) -> kvs | _ -> [] in
  let interval = fields (get [ "interval"; "latency" ] doc) in
  let totals = fields (get [ "totals"; "latency" ] doc) in
  let ms j v =
    match get [ v ] j with
    | Some (J.Float x) -> Report.num ~text:(Printf.sprintf "%.2f" (x /. 1e3)) (x /. 1e3)
    | Some (J.Int x) ->
      Report.num
        ~text:(Printf.sprintf "%.2f" (float_of_int x /. 1e3))
        (float_of_int x /. 1e3)
    | _ -> Report.text "-"
  in
  let rows =
    List.map
      (fun (kind, tot) ->
        let itv = Option.value ~default:J.Null (List.assoc_opt kind interval) in
        let window_n = geti [ "count" ] itv in
        let rate =
          if window_s <= 0.0 then Report.text "-"
          else
            let r = float_of_int window_n /. window_s in
            Report.num ~text:(Printf.sprintf "%.2f" r) r
        in
        [
          Report.text kind;
          Report.int window_n;
          rate;
          ms itv "p50_us";
          ms itv "p90_us";
          ms itv "p99_us";
          Report.int (geti [ "count" ] tot);
        ])
      totals
  in
  Report.table ~id:"top_kinds" ~title:"requests by kind (this window)"
    ~columns:
      [
        Report.column ~key:"kind" "kind";
        Report.column ~key:"window_requests" "req";
        Report.column ~key:"req_per_s" "req/s";
        Report.column ~key:"p50_ms" "p50 ms";
        Report.column ~key:"p90_ms" "p90 ms";
        Report.column ~key:"p99_ms" "p99 ms";
        Report.column ~key:"total_requests" "total";
      ]
    rows

let tables (doc : J.t) : Report.table list =
  [ overview_table doc; kinds_table doc ]
