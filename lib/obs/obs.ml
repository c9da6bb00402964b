(* Campaign telemetry sink (DESIGN.md §13).

   The ambient sink is an atomic ref; [disabled] is a distinguished
   value recognised by physical equality, so every recording entry
   point costs one load and one compare when telemetry is off — no
   allocation, no branch in the caller beyond its own [enabled ()]
   guard.

   An enabled sink is a registry of per-domain buffers. A domain
   acquires its buffer once (domain-local storage keyed by the sink's
   id, registered under the sink's mutex) and then writes without any
   synchronisation: buffers are never shared between domains, and
   [view] runs after the writing jobs have finished. Executor workers
   persist and are not joined; a worker records each job's finish
   under the executor mutex, which the submitter takes before it
   returns, so the merge reads buffers whose writes are published.
   All merge operations are commutative and associative — counter
   sums and histogram bucket sums — which is what makes
   the merged totals independent of the domain fan-out and of buffer
   registration order. *)

(* ------------------------------------------------------------------ *)
(* Histogram.                                                          *)

module IntMap = Map.Make (Int)

module Hist = struct
  type t = {
    n : int;
    bkts : int IntMap.t;
  }

  let empty = { n = 0; bkts = IntMap.empty }

  (* 8 sub-buckets per octave. Indices are clamped to the largest
     finite power [2^1023], so [bucket_value] is always finite;
     non-positive and NaN samples use the underflow sentinel. *)
  let sub_per_octave = 8.0
  let max_index = 8 * 1023
  let underflow = -max_index - 8

  let bucket_of x =
    if Float.is_nan x || x <= 0.0 then underflow
    else begin
      let i = Float.round (sub_per_octave *. Float.log2 x) in
      if i >= float_of_int max_index then max_index
      else if i <= float_of_int (-max_index) then -max_index
      else int_of_float i
    end

  let bucket_value i =
    if i <= underflow then 0.0 else 2.0 ** (float_of_int i /. sub_per_octave)

  let add h x =
    let b = bucket_of x in
    {
      n = h.n + 1;
      bkts =
        IntMap.update b
          (function None -> Some 1 | Some c -> Some (c + 1))
          h.bkts;
    }

  let merge a b =
    if a.n = 0 then b
    else if b.n = 0 then a
    else
      {
        n = a.n + b.n;
        bkts = IntMap.union (fun _ x y -> Some (x + y)) a.bkts b.bkts;
      }

  let count h = h.n
  let buckets h = IntMap.bindings h.bkts

  (* [diff newer older] subtracts bucket-wise. Buckets only ever grow on
     a live sink, so on views taken of the same live sink the delta is
     exact; counts are clamped at zero (and empty buckets dropped) so a
     racy read can never produce a negative histogram. Like [merge],
     this works bucket-by-bucket, which is what makes interval deltas
     independent of the domain fan-out. *)
  let diff a b =
    if b.n = 0 then a
    else begin
      let bkts =
        IntMap.merge
          (fun _ x y ->
            match (x, y) with
            | Some x, Some y -> if x - y > 0 then Some (x - y) else None
            | Some x, None -> Some x
            | None, _ -> None)
          a.bkts b.bkts
      in
      { n = IntMap.fold (fun _ c acc -> acc + c) bkts 0; bkts }
    end

  let quantile h q =
    if h.n = 0 then None
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.n))) in
      let rank = min rank h.n in
      let rec walk seen = function
        | [] -> assert false (* counts sum to n >= rank *)
        | (b, c) :: rest ->
          if seen + c >= rank then Some (bucket_value b)
          else walk (seen + c) rest
      in
      walk 0 (IntMap.bindings h.bkts)
    end
end

(* ------------------------------------------------------------------ *)
(* Sinks and per-domain buffers.                                       *)

type span_ev = {
  sp_name : string;
  sp_cat : string;
  sp_ts_us : float;
  sp_dur_us : float;
  sp_tid : int;
  sp_args : (string * string) list;
}

type buf = {
  b_tid : int;
  b_counters : (string, int ref) Hashtbl.t;
  b_hists : (string, Hist.t ref) Hashtbl.t;
  mutable b_spans : span_ev list;  (* reversed *)
}

type sink = {
  id : int;  (* 0 iff disabled *)
  mu : Mutex.t;
  record_spans : bool;
      (* [false] for always-on sinks (the serve daemon): counters,
         histograms are bounded-size aggregates, but
         spans are a per-event list that would grow without bound over
         a daemon's lifetime. *)
  mutable bufs : buf list;
}

let disabled = { id = 0; mu = Mutex.create (); record_spans = false; bufs = [] }
let next_id = Atomic.make 1

let make ?(record_spans = true) () =
  {
    id = Atomic.fetch_and_add next_id 1;
    mu = Mutex.create ();
    record_spans;
    bufs = [];
  }

let ambient : sink Atomic.t = Atomic.make disabled
let install s = Atomic.set ambient s
let installed () = Atomic.get ambient
let enabled () = (Atomic.get ambient).id <> 0

let with_sink s f =
  let prev = installed () in
  install s;
  Fun.protect ~finally:(fun () -> install prev) f

(* The per-domain buffer of the ambient sink, created and registered on
   a domain's first write to that sink. The key caches (sink id, buf):
   a stale pair from a previously installed sink fails the id check and
   is replaced. *)
let dls_buf : (int * buf) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let buf_for (s : sink) : buf =
  match Domain.DLS.get dls_buf with
  | Some (id, b) when id = s.id -> b
  | _ ->
    let b =
      {
        b_tid = (Domain.self () :> int);
        b_counters = Hashtbl.create 32;
        b_hists = Hashtbl.create 8;
        b_spans = [];
      }
    in
    Mutex.lock s.mu;
    s.bufs <- b :: s.bufs;
    Mutex.unlock s.mu;
    Domain.DLS.set dls_buf (Some (s.id, b));
    b

(* ------------------------------------------------------------------ *)
(* Recording.                                                          *)

let count name v =
  let s = Atomic.get ambient in
  if s.id <> 0 then begin
    let b = buf_for s in
    match Hashtbl.find_opt b.b_counters name with
    | Some r -> r := !r + v
    | None -> Hashtbl.replace b.b_counters name (ref v)
  end

let observe name x =
  let s = Atomic.get ambient in
  if s.id <> 0 then begin
    let b = buf_for s in
    match Hashtbl.find_opt b.b_hists name with
    | Some r -> r := Hist.add !r x
    | None -> Hashtbl.replace b.b_hists name (ref (Hist.add Hist.empty x))
  end

(* Span clock: CLOCK_MONOTONIC (bechamel's stubs — already in the
   dependency closure), rebased once at module init onto the wall
   clock. Monotonicity is what matters operationally — daemon uptime
   and span durations must survive wall-clock steps (NTP, suspend) —
   while the epoch rebase keeps the stamps at the same epoch-µs
   magnitudes as the previous [Unix.gettimeofday] source, so trace
   export (which rebases to the earliest span) is byte-compatible. *)
let mono_ns0 = Monotonic_clock.now ()
let wall_us0 = Unix.gettimeofday () *. 1e6

let now_us () =
  wall_us0 +. (Int64.to_float (Int64.sub (Monotonic_clock.now ()) mono_ns0) /. 1e3)

let span_begin () = if enabled () then now_us () else 0.0
let elapsed_us t0 = now_us () -. t0

let span_end ~name ?(cat = "etap") ?(args = []) t0 =
  let s = Atomic.get ambient in
  if s.id <> 0 && s.record_spans && t0 > 0.0 then begin
    let b = buf_for s in
    b.b_spans <-
      {
        sp_name = name;
        sp_cat = cat;
        sp_ts_us = t0;
        sp_dur_us = now_us () -. t0;
        sp_tid = b.b_tid;
        sp_args = args;
      }
      :: b.b_spans
  end

let span ~name ?cat f =
  let t0 = span_begin () in
  Fun.protect ~finally:(fun () -> span_end ~name ?cat t0) f

(* ------------------------------------------------------------------ *)
(* Merged views.                                                       *)

type view = {
  counters : (string * int) list;
  hists : (string * Hist.t) list;
  spans : span_ev list;
}

let span_compare a b =
  match Float.compare a.sp_ts_us b.sp_ts_us with
  | 0 -> (
    match Int.compare a.sp_tid b.sp_tid with
    | 0 -> String.compare a.sp_name b.sp_name
    | c -> c)
  | c -> c

(* A view copies every counter and rebuilds every histogram, so it is
   an immutable value and may be taken of a live sink without waiting
   for the writers to quiesce. Reads of buffers that other domains are
   still mutating are memory-safe under OCaml 5 (each cell read yields some previously written value); a
   view may lag the writers by in-flight increments, but successive
   views of one sink are monotone per counter and per bucket once the
   intervening work has a happens-before edge to the reader (the serve
   daemon takes them under its state lock, after worker batches have
   landed — there the deltas are exact). *)
let view (s : sink) : view =
  Mutex.lock s.mu;
  let bufs = s.bufs in
  Mutex.unlock s.mu;
  let counters = Hashtbl.create 64 in
  let hists = Hashtbl.create 16 in
  let spans = ref [] in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun k r ->
          match Hashtbl.find_opt counters k with
          | Some acc -> Hashtbl.replace counters k (acc + !r)
          | None -> Hashtbl.replace counters k !r)
        b.b_counters;
      Hashtbl.iter
        (fun k r ->
          match Hashtbl.find_opt hists k with
          | Some acc -> Hashtbl.replace hists k (Hist.merge acc !r)
          | None -> Hashtbl.replace hists k !r)
        b.b_hists;
      spans := List.rev_append b.b_spans !spans)
    bufs;
  let sorted tbl =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  {
    counters = sorted counters;
    hists = sorted hists;
    spans = List.sort span_compare !spans;
  }

(* Sorted-assoc merge: both inputs ascend by key, the output does too.
   [combine] is only called on keys present in both. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ta, (kb, vb) :: tb ->
    let c = String.compare ka kb in
    if c = 0 then (ka, combine va vb) :: merge_assoc combine ta tb
    else if c < 0 then (ka, va) :: merge_assoc combine ta b
    else (kb, vb) :: merge_assoc combine a tb

(* Merge two views with the same commutative, associative operations
   [view] uses across per-domain buffers — so merging views of two
   sinks is indistinguishable from one sink having collected both
   streams. *)
let merge (a : view) (b : view) : view =
  {
    counters = merge_assoc ( + ) a.counters b.counters;
    hists = merge_assoc Hist.merge a.hists b.hists;
    spans = List.merge span_compare a.spans b.spans;
  }

(* [diff newer older] is the interval between two views of one
   sink: counters subtract, histograms diff bucket-wise ([Hist.diff]). Because every family is mergeable
   bucket-by-bucket/key-by-key, diff distributes over merge — the
   delta of merged streams equals the merge of per-stream deltas — so
   interval statistics are exact and jobs-invariant, like the totals.
   Zero entries are dropped (the canonical form [merge] also
   produces), and keys present only in [older] vanish. Spans are the
   multiset difference (an older view's spans are a sub-multiset
   of a newer one's). *)
let diff (newer : view) (older : view) : view =
  let rec diff_assoc sub keep a b =
    match (a, b) with
    | rest, [] -> List.filter (fun (_, v) -> keep v) rest
    | [], _ -> []
    | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c = 0 then begin
        let v = sub va vb in
        if keep v then (ka, v) :: diff_assoc sub keep ta tb
        else diff_assoc sub keep ta tb
      end
      else if c < 0 then
        if keep va then (ka, va) :: diff_assoc sub keep ta b
        else diff_assoc sub keep ta b
      else diff_assoc sub keep a tb
  in
  let rec diff_spans n o =
    match (n, o) with
    | n, [] -> n
    | [], _ -> []
    | x :: tn, y :: to_ ->
      if x = y then diff_spans tn to_
      else if span_compare x y <= 0 then x :: diff_spans tn o
      else diff_spans n to_
  in
  {
    counters = diff_assoc ( - ) (fun v -> v <> 0) newer.counters older.counters;
    hists =
      diff_assoc Hist.diff (fun h -> Hist.count h > 0) newer.hists older.hists;
    spans = diff_spans newer.spans older.spans;
  }

(* ------------------------------------------------------------------ *)
(* Exporters.                                                          *)

module Json = Report.Json

let trace_schema_version = "etap-trace/1"
let metrics_schema_version = "etap-metrics/1"

(* Chrome trace-event format: "X" (complete) events with microsecond
   [ts]/[dur], one pid, one tid per recording domain, plus "M"
   metadata events naming the threads. Perfetto and chrome://tracing
   both ignore unknown top-level keys, so the document also carries the
   [schema] marker the CI validation step dispatches on. *)
let trace_json (v : view) : Json.t =
  let tids =
    List.sort_uniq Int.compare (List.map (fun e -> e.sp_tid) v.spans)
  in
  (* Rebase timestamps to the earliest span: viewers only care about
     relative time, and epoch-microsecond magnitudes (~1.8e15) would
     lose sub-10ms precision to the 12-significant-digit float
     printer. *)
  let t_base =
    List.fold_left (fun m e -> Float.min m e.sp_ts_us) infinity v.spans
  in
  let thread_meta =
    List.map
      (fun tid ->
        Json.Obj
          [
            ("ph", Json.Str "M");
            ("name", Json.Str "thread_name");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "domain-%d" tid)) ]);
          ])
      tids
  in
  let events =
    List.map
      (fun e ->
        Json.Obj
          [
            ("name", Json.Str e.sp_name);
            ("cat", Json.Str e.sp_cat);
            ("ph", Json.Str "X");
            ("ts", Json.Float (e.sp_ts_us -. t_base));
            ("dur", Json.Float e.sp_dur_us);
            ("pid", Json.Int 1);
            ("tid", Json.Int e.sp_tid);
            ("args", Json.Obj (List.map (fun (k, s) -> (k, Json.Str s)) e.sp_args));
          ])
      v.spans
  in
  Json.Obj
    [
      ("schema", Json.Str trace_schema_version);
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (thread_meta @ events));
    ]

let write_trace ~path v = Json.to_file path (trace_json v)

let quantile_json h q =
  match Hist.quantile h q with None -> Json.Null | Some x -> Json.Float x

let metrics_lines ?(redact_volatile = false) ~command ~meta (v : view) :
    string list =
  let header =
    Json.Obj
      [
        ("schema", Json.Str metrics_schema_version);
        ("command", Json.Str command);
        ("meta", Json.Obj meta);
        ( "host",
          if redact_volatile then Json.Null else Json.Str (Unix.gethostname ())
        );
        ( "generated_at_us",
          if redact_volatile then Json.Null
          else Json.Int (int_of_float (now_us ())) );
      ]
  in
  let counter_line (name, value) =
    Json.Obj
      [
        ("type", Json.Str "counter");
        ("name", Json.Str name);
        ("value", Json.Int value);
      ]
  in
  let hist_line (name, h) =
    (* Sample counts are deterministic (one per observation site hit);
       the sampled values are wall-clock latencies, so quantiles and
       buckets are the volatile part. *)
    Json.Obj
      ([
         ("type", Json.Str "histogram");
         ("name", Json.Str name);
         ("count", Json.Int (Hist.count h));
         ("p50", if redact_volatile then Json.Null else quantile_json h 0.50);
         ("p90", if redact_volatile then Json.Null else quantile_json h 0.90);
         ("p99", if redact_volatile then Json.Null else quantile_json h 0.99);
       ]
      @
      if redact_volatile then []
      else
        [
          ( "buckets",
            Json.Arr
              (List.map
                 (fun (b, c) -> Json.Arr [ Json.Int b; Json.Int c ])
                 (Hist.buckets h)) );
        ])
  in
  List.map Json.to_compact_string
    ((header :: List.map counter_line v.counters) @ List.map hist_line v.hists)

let write_metrics ~path ~command ~meta v =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun line ->
          Out_channel.output_string oc line;
          Out_channel.output_char oc '\n')
        (metrics_lines ~command ~meta v))
