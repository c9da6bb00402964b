(* etap serve — the warm-state campaign daemon (DESIGN.md §17).

   Every standalone `etap` invocation pays the full cold-start tax —
   workload generation, Mlang compilation, tagging, baseline runs,
   fast-engine compilation, snapshot builds — before the first trial
   executes. This module keeps all of that warm across *requests*: a
   long-running process answers line-delimited [Proto] requests
   (inject-shaped campaigns and matrix-shaped sweeps) with the same
   typed-status [etap-report/1] documents the CLI emits, bit-identical
   to standalone runs because both sides run the same [Matrix] cells
   through the same builders ([inject_of_cells] here,
   [Matrix.report_meta] for sweeps) and the same [Core.Memo] result
   cache.

   Three layers:

   - {b Warm registry} — one entry per (app, seed): the loaded app
     and its table of prepared targets with their section partitions.
     Both are [Core.Once] tables, so each key builds once, outside the
     table lock, and a cold key never delays another key's lookup. The
     registry keeps the [registry_capacity] most recently used entries,
     prepared targets with them. Every campaign still routes through
     [Core.Memo], so results persist across daemon restarts and
     evictions.

   - {b In-flight coalescing} — concurrent requests whose
     [Proto.group_key]s collide attach to the running computation (a
     [Core.Once] table that keeps a key only until its build returns):
     one execution, N responses. New requests arriving after a flight
     lands run fresh — and hit the result cache.

   - {b Shared executor} — one [Core.Executor] of worker domains
     executes every job the daemon schedules: the cells of every
     request and their trial batches, across all connections. Workers take one job from the head batch
     then rotate it to the tail, so concurrent requests interleave
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
  jobs : int option;  (* worker domains; default: cores - 1 *)
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

(* A warm-registry entry: an app loaded at one seed and its targets
   prepared under (mode, policy), each with its section partition.
   Evicting the entry drops them all. *)
type entry = {
  loaded : Experiment.loaded;
  prepared :
    ( Experiment.mode * Core.Policy.t,
      Core.Campaign.prepared * Analysis.Section.t option )
    Core.Once.t;
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
  flights : (string, outcome) Core.Once.t;  (* by [Proto.group_key] *)
  mutable stopping : bool;
  mutable failures : int;  (* requests answered with status "failed" *)
  registry : (string * int, entry) Core.Once.t;  (* (name, seed) *)
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
  let jobs =
    match config.jobs with
    | Some j -> max 1 j
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

(* The entry of (app, seed), its app loaded, and whether the lookup
   found it. Concurrent lookups of one key wait for its one build while
   lookups of other keys go ahead; a build that raises caches nothing,
   so the next lookup builds afresh. Called from worker domains only
   (each its own obs buffer). *)
let registry_load t (app : Apps.App.t) ~seed : entry * bool =
  let name = app.Apps.App.name in
  let ((_, found) as r) =
    Core.Once.get t.registry (name, seed) (fun () ->
        let sp = Obs.span_begin () in
        let loaded = Experiment.load ~seed app in
        Obs.span_end ~name:"serve.load" ~cat:"serve" ~args:[ ("app", name) ] sp;
        { loaded; prepared = Core.Once.create All })
  in
  Obs.count (if found then "serve.warm_hit" else "serve.warm_miss") 1;
  r

(* [e]'s target prepared under (mode, policy), with its section
   partition: built once per entry, on top of the app's own table. *)
let prepared (e : entry) ((mode, policy) as key) =
  fst
    (Core.Once.get e.prepared key (fun () ->
         let sp = Obs.span_begin () in
         let p = e.loaded.Experiment.prepared mode policy in
         let v = (p, Some (Core.Memo.sections_of p)) in
         Obs.span_end ~name:"serve.prepare" ~cat:"serve"
           ~args:
             [
               ("app", e.loaded.Experiment.app.Apps.App.name);
               ("policy", Core.Policy.to_string policy);
             ]
           sp;
         v))

(* ----------------------------- reports ----------------------------- *)

(* The inject report, byte-for-byte the document `etap inject --json`
   writes — both build it through [inject_of_cells], so the CLI and the
   daemon cannot drift apart. [cache = Some (dir, totals)] is the
   incremental path; [None] reproduces a plain (non-incremental) run's
   meta. Every caller passes [~engine:Fast ~checkpoint_stride:None],
   the constants campaigns run with; the labels stay because
   etapbench's serve-mix workload calls this builder with them. *)
let inject_report ~app ~errors ~trials ~seed ~literal ~engine ~jobs
    ~checkpoint_stride ~fidelity_units
    ~(cache : (string * Core.Memo.stats) option)
    (summaries : (Core.Policy.t * Core.Campaign.summary) list) : Report.t =
  let table =
    Report.table ~id:"inject"
      ~title:
        (Printf.sprintf "Fault-injection campaign: %s, %d errors" app errors)
      ~columns:
        [
          Report.column ~key:"policy" "policy";
          Report.column ~key:"trials" "trials";
          Report.column ~key:"errors_planned" "errors planned";
          Report.column ~key:"pct_catastrophic" "% catastrophic";
          Report.column ~key:"crashes" "crashes";
          Report.column ~key:"infinite" "infinite";
          Report.column ~key:"completed" "completed";
          Report.column ~key:"mean_fidelity" "mean fidelity";
        ]
      (List.map
         (fun (policy, s) ->
           [
             Report.text (Core.Policy.to_string policy);
             Report.int (Core.Campaign.n s);
             Report.int s.Core.Campaign.errors_planned;
             Report.pct (Core.Campaign.pct_catastrophic s);
             Report.int (Core.Campaign.crashes s);
             Report.int (Core.Campaign.infinite s);
             Report.int (Core.Campaign.completed s);
             Report.opt ~missing:"n/a"
               (fun m -> Report.num ~text:(Printf.sprintf "%.1f" m) m)
               (Core.Campaign.mean_fidelity s);
           ])
         summaries)
  in
  Report.make ~command:"inject"
    ~meta:
      ([
         ("app", J.Str app);
         ("errors", J.Int errors);
         ("trials", J.Int trials);
         ("seed", J.Int seed);
         ("literal", J.Bool literal);
         ("engine", J.Str (Sim.Interp.engine_name engine));
         ("jobs", J.of_int_opt jobs);
         ("checkpoint_stride", J.of_int_opt checkpoint_stride);
         ("fidelity_units", J.Str fidelity_units);
         ("incremental", J.Bool (cache <> None));
         ( "cache_dir",
           match cache with Some (d, _) -> J.Str d | None -> J.Null );
       ]
      @
      match cache with
      | None -> []
      | Some (_, st) ->
        [
          ("cache_sections", J.Int st.Core.Memo.sections);
          ("cache_hits", J.Int st.Core.Memo.hits);
          ("cache_misses", J.Int st.Core.Memo.misses);
          ("cache_trials_reused", J.Int st.Core.Memo.trials_reused);
          ("cache_trials_run", J.Int st.Core.Memo.trials_run);
        ])
    [ table ]

(* An inject request — the daemon's inject verb, or `etap inject`'s
   flags — as cells: one campaign cell per default policy at the
   request's app, mode, error count, trial count and campaign seed. *)
let inject_cells (i : Proto.inject_req) : Matrix.cell_spec list =
  List.map
    (fun policy ->
      Matrix.make_cell ~mode:(Experiment.mode_of_literal i.literal) ~policy
        ~errors:i.errors ~trials:i.trials ~seed:(Matrix.campaign_seed i.seed)
        i.app)
    Matrix.default_policies

let add_stats (a : Core.Memo.stats) (b : Core.Memo.stats) : Core.Memo.stats =
  Core.Memo.
    {
      sections = a.sections + b.sections;
      hits = a.hits + b.hits;
      misses = a.misses + b.misses;
      trials_reused = a.trials_reused + b.trials_reused;
      trials_run = a.trials_run + b.trials_run;
    }

(* An inject request's report read back from its cells, a skipped cell
   as fault-free trials ([Matrix.summary]). [cache_dir] is [Some] on
   the result-cache path, whose meta adds the cells' summed cache
   stats. `etap inject --json` writes this document too. *)
let inject_of_cells ~jobs ~cache_dir (i : Proto.inject_req)
    (l : Experiment.loaded) (cells : Matrix.cell list) : Report.t =
  let totals =
    List.fold_left
      (fun acc c -> add_stats acc (Matrix.cache c))
      Core.Memo.zero_stats cells
  in
  inject_report ~app:i.app ~errors:i.errors ~trials:i.trials ~seed:i.seed
    ~literal:i.literal ~engine:Sim.Interp.Fast ~jobs ~checkpoint_stride:None
    ~fidelity_units:l.Experiment.built.Apps.App.fidelity_units
    ~cache:(Option.map (fun d -> (d, totals)) cache_dir)
    (List.map (fun (c : Matrix.cell) -> (c.cell.policy, Matrix.summary l c)) cells)

(* Trial fan-out for a cell: hand [Memo.run]'s miss batch to the shared
   executor. The submitter is a cell job on a worker domain, so it
   helps. *)
let memo_fanout t exec indices = Core.Executor.map t.ex ~help:true exec indices

let unknown_app name =
  Printf.sprintf "unknown application %S (known: %s)" name
    (String.concat ", " Apps.Registry.names)

(* The daemon's one work path: a request's cells over the warm-registry
   entries it resolved, through [Matrix.collect] on the shared executor
   with targets prepared in those entries. Cells — each with its missed
   trials as a nested batch — interleave with any other in-flight
   request's batches. *)
let scheduler t =
  { Matrix.map = (fun f xs -> Core.Executor.map t.ex ~help:true f xs) }

let collect t ~(loaded : (string * entry) list) cells =
  Matrix.collect (scheduler t)
    ~prepare:(fun _ (app, mode, policy) ->
      prepared (List.assoc app loaded) (mode, policy))
    ~memo_fanout:(memo_fanout t) ~store:t.store
    ~loaded:(List.map (fun (name, e) -> (name, e.loaded)) loaded)
    cells

(* The two work verbs differ only in their cell list and renderer: an
   inject request is [inject_cells] over its one app, a matrix request
   the spec's cells over its apps, loaded on the executor. A failed cell
   is a failed response; a matrix reply still ships its full typed
   report (never a silent partial result), an inject reply, whose table
   has no failed-cell row, does not. *)
let dispatch t (req : Proto.request) : outcome =
  let sp = Obs.span_begin () in
  let kind =
    match req with
    | Proto.Inject _ -> "inject"
    | Proto.Matrix _ -> "matrix"
    | Proto.Ping | Proto.Stats | Proto.Shutdown -> "control"
  in
  let (((_, err), _) as r) =
    match req with
    | Proto.Inject i -> (
      match Apps.Registry.find i.app with
      | None -> ((None, Some (unknown_app i.app)), [])
      | Some app -> (
        let e, found = registry_load t app ~seed:i.seed in
        let cells = collect t ~loaded:[ (i.app, e) ] (inject_cells i) in
        match Matrix.cells_failures_message cells with
        | Some m -> ((None, Some m), [ found ])
        | None ->
          let cache_dir = Some t.cfg.cache_dir in
          ( (Some (inject_of_cells ~jobs:None ~cache_dir i e.loaded cells), None),
            [ found ] )))
    | Proto.Matrix s ->
      let seed = s.Matrix.seed in
      let lookups = ref [] in
      let r =
        Matrix.run_with (scheduler t)
          ~load:(fun app -> registry_load t app ~seed)
          ~collect:(fun ~loaded cells ->
            lookups := List.map (fun (_, (_, found)) -> found) loaded;
            collect t ~loaded:(List.map (fun (n, (e, _)) -> (n, e)) loaded) cells)
          s
      in
      let meta = Matrix.report_meta ~jobs:None ~cache_dir:t.cfg.cache_dir r in
      ( ( Some
            (Report.make ~command:"matrix" ~meta
               [ Matrix.to_table r; Matrix.anomaly_table r ]),
          Matrix.failures_message r ),
        !lookups )
    | Proto.Ping | Proto.Stats | Proto.Shutdown -> ((None, None), [])
  in
  Obs.span_end ~name:"serve.request" ~cat:"serve"
    ~args:
      [ ("kind", kind); ("status", if err = None then "ok" else "failed") ]
    sp;
  r

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
let coalesced_run t ~key (req : Proto.request) : outcome * bool =
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
  let prepped =
    List.fold_left
      (fun n e -> n + Core.Once.length e.prepared)
      0
      (Core.Once.values t.registry)
  in
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
            ("prepared", J.Int prepped);
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
      let finish ~kind ~key ~status ~coalesced ~lookups ~logged_report resp
          cont =
        let w = wall () in
        observe_latency kind (float_of_int w);
        log_access t ~rid ~kind ~key ~status ~wall_us:w ~coalesced ~lookups
          ~report:logged_report;
        if send resp then cont () else `Closed
      in
      let simple ~kind ?error ?(extra = []) cont =
        finish ~kind ~key:None
          ~status:(if error = None then "ok" else "failed")
          ~coalesced:false ~lookups:[] ~logged_report:None
          { Proto.rid; report = None; error; extra }
          cont
      in
      match parsed with
      | Error msg ->
        count ~fail:true "serve.malformed";
        simple ~kind:"malformed" ~error:msg loop
      | Ok Proto.Ping ->
        simple ~kind:"ping" ~extra:[ ("info", info_json t) ] loop
      | Ok Proto.Stats ->
        (* Answered inline on the handler thread — introspection must
           not queue behind campaign batches on a busy executor. *)
        simple ~kind:"stats" ~extra:[ ("stats", stats_json t) ] loop
      | Ok Proto.Shutdown ->
        (* Stops the daemon even when the response write fails — a
           vanished client must not cancel an acknowledged shutdown. *)
        let w = wall () in
        observe_latency "shutdown" (float_of_int w);
        log_access t ~rid ~kind:"shutdown" ~key:None ~status:"ok" ~wall_us:w
          ~coalesced:false ~lookups:[] ~report:None;
        ignore (send { Proto.rid; report = None; error = None; extra = [] });
        `Shutdown
      | Ok req ->
        let key = Proto.group_key req in
        let kind =
          match req with Proto.Matrix _ -> "matrix" | _ -> "inject"
        in
        let ((report, error), lookups), coalesced = coalesced_run t ~key req in
        maybe_gc t;
        if error <> None then count ~fail:true "serve.failed";
        finish ~kind ~key:(Some key)
          ~status:(if error = None then "ok" else "failed")
          ~coalesced
          ~lookups:(if coalesced then [] else lookups)
          ~logged_report:(if coalesced then None else report)
          { Proto.rid; report; error; extra = [] }
          loop)
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
