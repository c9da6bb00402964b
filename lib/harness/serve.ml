(* etap serve — the warm-state campaign daemon (DESIGN.md §17).

   Every standalone `etap` invocation pays the full cold-start tax —
   workload generation, Mlang compilation, tagging, baseline runs,
   fast-engine compilation, snapshot builds — before the first trial
   executes. This module keeps all of that warm across *requests*: a
   long-running process answers line-delimited [Proto] requests
   (inject, matrix and audit) with the same typed-status
   [etap-report/1] documents the CLI emits, bit-identical to standalone
   runs because both sides run the same [Request.t] through the same
   [Request.run] — only its environment differs ([dispatch]) — and
   the same [Core.Memo] result cache.

   Three layers:

   - {b Warm registry} — one entry per (app, seed): the loaded app
     ([Experiment.loaded]), whose own table keeps its prepared targets.
     The registry is a [Core.Once] table, so each key builds once,
     outside the table lock, and a cold key never delays another key's
     lookup. It keeps the [registry_capacity] most recently used
     entries, prepared targets with them. A request computes the
     section partitions of the targets it runs (well under a
     millisecond each) instead of keeping them. Every campaign still
     routes through [Core.Memo], so results persist across daemon
     restarts and evictions.

   - {b In-flight coalescing} — concurrent requests whose
     [Request.key]s collide attach to the running computation (a
     [Core.Once] table that keeps a key only until its build returns):
     one execution, N responses. New requests arriving after a flight
     lands run fresh — and hit the result cache.

   - {b Shared executor} — one [Core.Executor] of worker domains
     executes every job the daemon schedules: the cells of every
     request and their trial batches, across all connections. A
     request runs on a worker, so each of its [Core.Pool] fan-outs is a
     nested batch on this executor. Workers take one job from the head
     batch then rotate it to the tail, so concurrent requests interleave
     fairly instead of queueing behind each other. Submitters on
     worker domains {e help} (they execute queued jobs — their own
     batch's or another's — while waiting, which makes nested submits
     deadlock-free on a finite pool); connection-handler threads wait
     passively and never execute jobs.

   Threading discipline for telemetry: obs buffers are per-domain and
   lock-free, so two systhreads of one domain must not record
   concurrently. All campaign work (and its obs traffic) runs on
   worker domains, each of which has exactly one thread; the few
   counters recorded on domain 0 — [serve.requests], [serve.coalesced],
   [serve.malformed], gc accounting — are serialized under the daemon
   state lock, which every handler thread shares. *)

module J = Report.Json

(* --------------------------- daemon state -------------------------- *)

type config = {
  jobs : int option;  (* worker domains, at most cores; default: cores - 1 *)
  cache_dir : string;
  gc_max_bytes : int option;  (* with either bound set, gc runs *)
  gc_max_age_days : float option;  (* between requests *)
  access_log : string option;
      (* one etap-access/1 JSONL line per request, appended *)
  gate : (string -> unit) option;
      (* test hook: a flight winner calls this with its group key after
         registering in the flight table and before computing, so
         tests can hold the winner until an attacher has joined. *)
}

let default_config =
  {
    jobs = None;
    cache_dir = "_etap_cache";
    gc_max_bytes = None;
    gc_max_age_days = None;
    access_log = None;
    gate = None;
  }

(* A request's reply, and whether each warm-registry lookup it made
   found its entry (true) or built it. *)
type outcome = (Report.t option * string option) * bool list

type t = {
  cfg : config;
  store : Core.Memo.Store.t;
  ex : Core.Executor.t;
  m : Mutex.t;  (* stopping + domain-0 obs writes + stats baseline
                   + access-log channel *)
  flights : (string, outcome) Core.Once.t;  (* by [Request.key] *)
  mutable stopping : bool;
  mutable failures : int;  (* requests answered with status "failed" *)
  registry : (string * int, Experiment.loaded) Core.Once.t;
      (* (name, seed); evicting an entry drops its prepared targets *)
  sink : Obs.sink;  (* the sink the [stats] verb snapshots *)
  owns_sink : bool;  (* we installed it; restore [disabled] on shutdown *)
  started_us : float;
  mutable last_stats : Obs.view * float;
      (* previous [stats] snapshot and its timestamp — the left edge of
         the next interval section *)
  access : out_channel option;  (* etap-access/1 JSONL, written under [m] *)
}

(* The registry bound: one seed of every app plus one spare entry, so
   a one-seed sweep over the whole app registry stays warm while
   requests for other seeds rotate through the spare. An entry costs
   about 0.4-0.7 MiB of heap (a loaded app plus two prepared targets),
   which an unbounded registry paid again for every new seed. *)
let registry_capacity = List.length Apps.Registry.all + 1

let create ?(config = default_config) () : t =
  (* A client vanishing mid-response must fail that [output_string],
     not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* Handler threads on domain 0 never compute, so the daemon runs at
     most one worker per core. *)
  let jobs =
    match config.jobs with
    | Some j -> max 1 (min j (Domain.recommended_domain_count ()))
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  (* The [stats] verb needs telemetry regardless of --trace/--metrics,
     so a daemon without an ambient sink installs its own — without
     span recording, whose per-event log would grow unboundedly over a
     daemon lifetime. When the operator did enable tracing, the daemon
     snapshots that sink instead of forking the telemetry stream. *)
  let sink, owns_sink =
    if Obs.enabled () then (Obs.installed (), false)
    else begin
      let s = Obs.make ~record_spans:false () in
      Obs.install s;
      (s, true)
    end
  in
  let started_us = Obs.now_us () in
  let ex = Core.Executor.create () in
  Core.Executor.grow ex jobs;
  {
    cfg = config;
    store = Core.Memo.Store.open_ config.cache_dir;
    ex;
    m = Mutex.create ();
    flights = Core.Once.create Until_built;
    stopping = false;
    failures = 0;
    registry =
      Core.Once.create (Recent registry_capacity) ~on_evict:(fun () ->
          Obs.count "serve.warm_evicted" 1);
    sink;
    owns_sink;
    started_us;
    last_stats = (Obs.view sink, started_us);
    access =
      Option.map
        (fun p ->
          open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 p)
        config.access_log;
  }

let shutdown t =
  Core.Executor.shutdown t.ex;
  (match t.access with
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
  | None -> ());
  if t.owns_sink && Obs.installed () == t.sink then Obs.install Obs.disabled

(* ---------------------------- warm registry ------------------------ *)

(* The app loaded at (app, seed), and whether the lookup found it.
   Concurrent lookups of one key wait for its one build while lookups
   of other keys go ahead; a build that raises caches nothing, so the
   next lookup builds afresh. Called from worker domains only (each
   its own obs buffer). *)
let registry_load t (app : Apps.App.t) ~seed : Experiment.loaded * bool =
  let name = app.Apps.App.name in
  let ((_, found) as r) =
    Core.Once.get t.registry (name, seed) (fun () ->
        let sp = Obs.span_begin () in
        let loaded = Experiment.load ~seed app in
        Obs.span_end ~name:"serve.load" ~cat:"serve" ~args:[ ("app", name) ] sp;
        loaded)
  in
  Obs.count (if found then "serve.warm_hit" else "serve.warm_miss") 1;
  r

(* ----------------------------- reports ----------------------------- *)

(* etapbench's serve-mix workload rebuilds inject reports with these. *)
let inject_report = Request.inject_report
let add_stats = Request.add_stats

(* The daemon's one work path: [Request.run] in an environment whose
   loads go through the warm registry and whose cells — each with its
   trials as a nested batch — run on the shared executor,
   interleaved with any other in-flight request's batches, through the
   daemon's store. A failed cell or a soundness violation is a failed
   response that still ships the full typed report (never a silent
   partial result); an inject request with a failed cell, whose table
   has no failed-cell row, ships none. *)
let dispatch t (r : Request.t) : outcome =
  let sp = Obs.span_begin () in
  (* The registry lookups this request made, each with its found flag;
     loads run on the executor, several at once for a sweep. *)
  let m = Mutex.create () and lookups = ref [] in
  let load ~seed app =
    let l, found = registry_load t app ~seed in
    Mutex.protect m (fun () -> lookups := found :: !lookups);
    l
  in
  (* [dispatch] runs on a worker ([on_worker]), so loads, cells and
     each cell's trial batch ([Memo.run]'s misses, an audit cell's
     trials) are [Core.Pool] batches on the shared executor, with no
     limit: every free worker may claim them, and the submitter helps. *)
  let env = { Request.jobs = None; load; store = Some t.store } in
  let ((_, err) as reply) = Request.run env r in
  Obs.span_end ~name:"serve.request" ~cat:"serve"
    ~args:
      [
        ("kind", Request.command r);
        ("status", if err = None then "ok" else "failed");
      ]
    sp;
  (reply, List.rev !lookups)

(* --------------------------- coalescing ---------------------------- *)

(* Ship the computation to a worker domain and park this (handler)
   thread until it lands. *)
let on_worker t (f : unit -> 'a) : ('a, exn) result =
  let slot = ref None in
  Core.Executor.submit_batch t.ex ~help:false
    [| (fun () -> slot := Some (try Ok (f ()) with e -> Error e)) |];
  Option.get !slot

(* One execution per in-flight group key: the first request in wins
   and dispatches [req] on a worker; any request with the same key
   arriving before the outcome lands attaches as a waiter and receives
   the same outcome. The returned flag says which side this call was —
   [true] for a waiter, whose access-log line must not claim the
   winner's work. Runs on handler threads — domain-0 obs writes stay
   under [t.m]. *)
let coalesced_run t ~key (req : Request.t) : outcome * bool =
  let ((_, coalesced) as r) =
    Core.Once.get t.flights key (fun () ->
        Option.iter (fun g -> g key) t.cfg.gate;
        match on_worker t (fun () -> dispatch t req) with
        | Ok r -> r
        | Error e -> ((None, Some (Printexc.to_string e)), []))
  in
  if coalesced then Mutex.protect t.m (fun () -> Obs.count "serve.coalesced" 1);
  r

(* Waiters currently attached to [key]'s flight — 0 when none is in
   flight. Lets a [gate] hook hold a winner until an attacher joins. *)
let inflight_waiters t ~key = Core.Once.waiters t.flights key

(* ------------------------------- gc -------------------------------- *)

(* Between-requests cache maintenance, under no daemon lock: the store
   is safe against eviction by construction, whether the concurrent
   mutation is a campaign's read or write or another request's sweep. *)
let maybe_gc t =
  if t.cfg.gc_max_bytes <> None || t.cfg.gc_max_age_days <> None then begin
    let st =
      Core.Memo.Store.gc ?max_bytes:t.cfg.gc_max_bytes
        ?max_age_days:t.cfg.gc_max_age_days t.store
    in
    Mutex.lock t.m;
    Obs.count "serve.gc_runs" 1;
    Obs.count "serve.gc_evicted" st.Core.Memo.Store.gc_evicted;
    Mutex.unlock t.m
  end

(* --------------------------- introspection ------------------------- *)

let counter (v : Obs.view) name =
  Option.value ~default:0 (List.assoc_opt name v.Obs.counters)

let counters_json (v : Obs.view) =
  J.Obj (List.map (fun (k, c) -> (k, J.Int c)) v.Obs.counters)

(* Per-request-kind latency digests, from the "serve.request_us.<kind>"
   histograms [serve_connection] observes end-to-end (receipt to
   response-ready) on every request. *)
let latency_json (v : Obs.view) =
  let prefix = "serve.request_us." in
  let plen = String.length prefix in
  J.Obj
    (List.filter_map
       (fun (name, h) ->
         if
           String.length name > plen
           && String.equal (String.sub name 0 plen) prefix
         then begin
           let q p =
             match Obs.Hist.quantile h p with
             | None -> J.Null
             | Some x -> J.Float x
           in
           Some
             ( String.sub name plen (String.length name - plen),
               J.Obj
                 [
                   ("count", J.Int (Obs.Hist.count h));
                   ("p50_us", q 0.50);
                   ("p90_us", q 0.90);
                   ("p99_us", q 0.99);
                 ] )
         end
         else None)
       v.Obs.hists)

(* The etap-stats/1 document. Registry sizes and the store walk come
   first (each under its own lock — never while holding [t.m], to keep
   the lock order trivial); the snapshot, the interval baseline swap
   and the failure count happen atomically under the state mutex, so
   two concurrent [stats] requests see disjoint, gapless windows.
   Counter deltas are [Obs.diff]s of mergeable families: exact and
   jobs-invariant (DESIGN.md §18). *)
let stats_json t : J.t =
  let apps = Core.Once.length t.registry in
  let entries = Core.Memo.Store.scan t.store in
  let store_entries = List.length entries in
  let store_bytes = List.fold_left (fun a (_, sz, _) -> a + sz) 0 entries in
  let ex = Core.Executor.stats t.ex in
  Mutex.lock t.m;
  let now = Obs.now_us () in
  let snap = Obs.view t.sink in
  let prev, prev_at = t.last_stats in
  t.last_stats <- (snap, now);
  let failures = t.failures in
  Mutex.unlock t.m;
  let delta = Obs.diff snap prev in
  let c = counter snap in
  let section v =
    J.Obj [ ("counters", counters_json v); ("latency", latency_json v) ]
  in
  J.Obj
    [
      ("schema", J.Str Proto.stats_schema);
      ("uptime_us", J.Int (int_of_float (now -. t.started_us)));
      ("window_us", J.Int (int_of_float (now -. prev_at)));
      ( "requests",
        J.Obj
          [
            ("served", J.Int (c "serve.requests"));
            ("failed", J.Int failures);
            ("coalesced", J.Int (c "serve.coalesced"));
            ("malformed", J.Int (c "serve.malformed"));
          ] );
      ( "warm",
        J.Obj
          [
            ("hits", J.Int (c "serve.warm_hit"));
            ("misses", J.Int (c "serve.warm_miss"));
            ("apps", J.Int apps);
          ] );
      ( "store",
        J.Obj
          [
            ("entries", J.Int store_entries);
            ("bytes", J.Int store_bytes);
            ("gc_runs", J.Int (c "serve.gc_runs"));
            ("gc_evicted", J.Int (c "serve.gc_evicted"));
          ] );
      ( "executor",
        J.Obj
          [
            ("workers", J.Int ex.Core.Executor.workers);
            ("busy", J.Int ex.Core.Executor.busy);
            ("queued_jobs", J.Int ex.Core.Executor.queued_jobs);
            ("queued_batches", J.Int ex.Core.Executor.queued_batches);
          ] );
      ("totals", section snap);
      ("interval", section delta);
    ]

(* The ping health object: liveness probes double as cheap health
   checks without paying for a store walk or an interval swap. *)
let info_json t : J.t =
  Mutex.lock t.m;
  let now = Obs.now_us () in
  let snap = Obs.view t.sink in
  Mutex.unlock t.m;
  J.Obj
    [
      ("uptime_us", J.Int (int_of_float (now -. t.started_us)));
      ("requests_served", J.Int (counter snap "serve.requests"));
      ( "schemas",
        J.Obj
          [
            ("serve", J.Str Proto.schema);
            ("report", J.Str Report.schema_version);
            ("stats", J.Str Proto.stats_schema);
            ("access", J.Str Proto.access_schema);
            ("cache", J.Str Core.Memo.Store.schema);
          ] );
    ]

(* One etap-access/1 JSONL line per request. Work accounting comes
   from the request's own report meta (cache_hits/cells_hit, trial
   counts) plus its own warm-registry [lookups] — never from global
   counters, so concurrent requests cannot bleed into each other's
   lines. Waiters of a coalesced flight pass [report:None] and no
   lookups: the pair logs exactly one execution, on the winner's line. Written and flushed under [t.m] so
   lines from concurrent handler threads never interleave. *)
let log_access t ~rid ~kind ~key ~status ~wall_us ~coalesced ~lookups
    ~(report : Report.t option) =
  match t.access with
  | None -> ()
  | Some oc ->
    let meta_int k =
      match report with
      | None -> 0
      | Some r -> (
        match List.assoc_opt k r.Report.meta with
        | Some (J.Int i) -> i
        | _ -> 0)
    in
    (* Inject meta carries cache_* keys, matrix meta cells_* and bare
       trial totals; each key set is absent on the other path, so the
       sums read whichever one the report carries. *)
    let line =
      J.Obj
        [
          ("schema", J.Str Proto.access_schema);
          ("ts_us", J.Int (int_of_float (Obs.now_us ())));
          ("id", rid);
          ("kind", J.Str kind);
          ("key", match key with Some k -> J.Str k | None -> J.Null);
          ("status", J.Str status);
          ("wall_us", J.Int wall_us);
          ("coalesced", J.Bool coalesced);
          ("warm_hits", J.Int (List.length (List.filter Fun.id lookups)));
          ( "warm_misses",
            J.Int (List.length (List.filter not lookups)) );
          ("cache_hits", J.Int (meta_int "cache_hits" + meta_int "cells_hit"));
          ( "cache_misses",
            J.Int (meta_int "cache_misses" + meta_int "cells_miss") );
          ( "trials_run",
            J.Int (meta_int "cache_trials_run" + meta_int "trials_run") );
          ( "trials_reused",
            J.Int (meta_int "cache_trials_reused" + meta_int "trials_reused")
          );
        ]
    in
    Mutex.lock t.m;
    output_string oc (J.to_compact_string line);
    output_char oc '\n';
    flush oc;
    Mutex.unlock t.m

(* ---------------------------- transports --------------------------- *)

(* One connection: read request lines until EOF / shutdown, answer
   each on its own line. Any write failure (client went away) ends the
   connection quietly — in-flight work completes and lands in the
   result cache either way. *)
let serve_connection t ~ic ~oc : [ `Closed | `Shutdown ] =
  let send resp =
    try
      output_string oc (Proto.response_line resp);
      output_char oc '\n';
      flush oc;
      true
    with Sys_error _ -> false
  in
  let count ?(fail = false) name =
    Mutex.lock t.m;
    Obs.count name 1;
    if fail then t.failures <- t.failures + 1;
    Mutex.unlock t.m
  in
  (* End-to-end request latency (receipt to response-ready), observed
     into the per-kind histogram the [stats] verb digests. Under [t.m]:
     handler threads share domain 0's obs buffer. *)
  let observe_latency kind wall_us =
    Mutex.lock t.m;
    Obs.observe ("serve.request_us." ^ kind) wall_us;
    Mutex.unlock t.m
  in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> `Closed
    | line when String.trim line = "" -> loop ()
    | line -> (
      let t0 = Obs.now_us () in
      let wall () = int_of_float (Obs.now_us () -. t0) in
      count "serve.requests";
      let rid, parsed = Proto.request_of_line line in
      (* Observe, log and send one response; false when the send
         failed (the client went away). *)
      let finish ~kind ~key ~status ~coalesced ~lookups ~logged_report resp =
        let w = wall () in
        observe_latency kind (float_of_int w);
        log_access t ~rid ~kind ~key ~status ~wall_us:w ~coalesced ~lookups
          ~report:logged_report;
        send resp
      in
      let simple ~kind ?error ?(extra = []) () =
        finish ~kind ~key:None
          ~status:(if error = None then "ok" else "failed")
          ~coalesced:false ~lookups:[] ~logged_report:None
          { Proto.rid; report = None; error; extra }
      in
      let next sent = if sent then loop () else `Closed in
      match parsed with
      | Error msg ->
        count ~fail:true "serve.malformed";
        next (simple ~kind:"malformed" ~error:msg ())
      | Ok Proto.Ping ->
        next (simple ~kind:"ping" ~extra:[ ("info", info_json t) ] ())
      | Ok Proto.Stats ->
        (* Answered inline on the handler thread — introspection must
           not queue behind campaign batches on a busy executor. *)
        next (simple ~kind:"stats" ~extra:[ ("stats", stats_json t) ] ())
      | Ok Proto.Shutdown ->
        (* Stops the daemon even when the response write fails — a
           vanished client must not cancel an acknowledged shutdown. *)
        ignore (simple ~kind:"shutdown" ());
        `Shutdown
      | Ok (Proto.Run req) ->
        let key = Request.key req in
        let ((report, error), lookups), coalesced = coalesced_run t ~key req in
        maybe_gc t;
        if error <> None then count ~fail:true "serve.failed";
        next
          (finish ~kind:(Request.command req) ~key:(Some key)
             ~status:(if error = None then "ok" else "failed")
             ~coalesced
             ~lookups:(if coalesced then [] else lookups)
             ~logged_report:(if coalesced then None else report)
             { Proto.rid; report; error; extra = [] }))
  in
  loop ()

(* Requests this daemon answered with a typed failure — the daemon's
   exit status is non-zero when this is, so a failing cell can never
   hide behind an otherwise clean shutdown. *)
let failed_requests t =
  Mutex.lock t.m;
  let n = t.failures in
  Mutex.unlock t.m;
  n

let request_stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  Mutex.unlock t.m

let stopping t =
  Mutex.lock t.m;
  let s = t.stopping in
  Mutex.unlock t.m;
  s

(* Unix-domain socket daemon: one handler systhread per connection,
   all sharing the executor, registry and flight table. A [shutdown]
   request from any connection stops the accept loop (checked every
   200 ms); open connections drain before the executor is torn down. *)
let run_socket t ~path =
  if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 16;
  let handlers = ref [] in
  let rec accept_loop () =
    if not (stopping t) then begin
      let readable, _, _ = Unix.select [ srv ] [] [] 0.2 in
      if readable <> [] then begin
        let fd, _ = Unix.accept srv in
        let th =
          Thread.create
            (fun fd ->
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              let res = serve_connection t ~ic ~oc in
              (try close_out oc with Sys_error _ -> ());
              match res with
              | `Shutdown -> request_stop t
              | `Closed -> ())
            fd
        in
        handlers := th :: !handlers
      end;
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Thread.join !handlers;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      shutdown t)
    accept_loop

(* Stdin/stdout transport: one connection, then a clean executor
   teardown. *)
let run_stdio t =
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () -> ignore (serve_connection t ~ic:stdin ~oc:stdout))

(* Client side of the socket transport ([etap serve --connect]). *)
let connect ~path : in_channel * out_channel =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
