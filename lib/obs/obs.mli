(** Campaign telemetry: counters, log-bucketed histograms, spans, and
    exporters (Chrome trace-event JSON and a JSONL metrics stream).
    Per-trial facts — outcomes, crash sites, landed-fault sites — live
    in trial results, not here: [Harness.Profile] tallies fault sites
    from its own trials.

    The layer is {e ambient}: recording goes through the currently
    {!install}ed {!sink}. The default sink is {!disabled}, and every
    recording entry point is a cheap no-op then — one atomic load and a
    compare, no allocation — so instrumentation can stay in place on
    hot paths. An enabled sink gives each domain a private buffer
    (registered on first write, then written lock-free), and {!view}
    merges the buffers with commutative, associative operations, so the
    merged counters and histograms are identical for any
    domain fan-out and any merge order. Only span timestamps are
    inherently non-deterministic; they appear in obs output only, never
    in trial records.

    Determinism contract (see DESIGN.md §13): for a fixed campaign
    configuration, every counter total and histogram {e count} is
    byte-identical across [--jobs] values; histogram bucket
    contents and span timings are wall-clock and therefore volatile. *)

(** Mergeable log-bucketed histogram.

    Buckets are geometric with 8 sub-buckets per octave (ratio
    [2^(1/8)], ~9% relative width): bucket [i] holds values whose
    [log2] rounds to [i/8]. Non-positive and NaN samples land in a
    single underflow bucket whose representative value is [0.]. Merging
    adds bucket counts, so [merge] is exact, associative and
    commutative. *)
module Hist : sig
  type t

  val empty : t
  val add : t -> float -> t
  val merge : t -> t -> t
  val count : t -> int

  val quantile : t -> float -> float option
  (** [quantile h q] is the representative value of the bucket
      containing the [ceil (q * count)]-th smallest sample ([q] clamped
      to [0,1]); [None] on the empty histogram — never [nan]. *)

  val buckets : t -> (int * int) list
  (** [(bucket index, count)] pairs in ascending bucket order. *)

  val diff : t -> t -> t
  (** [diff newer older] subtracts bucket-wise, clamping each bucket at
      zero and dropping emptied buckets. On two readings of one
      growing histogram the delta is exact, and — because it works
      bucket-by-bucket, like {!merge} — diff distributes over merge:
      interval deltas are jobs-invariant. *)
end

(** {1 Sinks} *)

type sink

val disabled : sink
(** The inert sink: recording through it does nothing and allocates
    nothing. Installed by default. *)

val make : ?record_spans:bool -> unit -> sink
(** A fresh collecting sink. [record_spans] (default [true]) controls
    whether {!span_end} appends span events: counters and histograms
    are bounded-size aggregates, but spans grow per
    event, so an always-on sink (the serve daemon's) passes [false]
    to keep its footprint bounded over an unbounded lifetime. *)

val install : sink -> unit
(** Make [sink] the ambient sink for all subsequent recording, on
    every domain. *)

val installed : unit -> sink

val enabled : unit -> bool
(** Whether the ambient sink collects ([installed () != disabled]). *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install [sink], run the thunk, restore the previous sink (also on
    exception). *)

(** {1 Recording}

    All of these are no-ops when the ambient sink is {!disabled}. *)

val count : string -> int -> unit
(** [count name v] adds [v] to the counter [name]. *)

val observe : string -> float -> unit
(** [observe name x] adds one sample to the histogram [name]. *)

val now_us : unit -> float
(** The clock spans are stamped with, in microseconds: CLOCK_MONOTONIC
    (via bechamel's stubs), rebased once at startup onto the wall
    clock. Differences of [now_us] values are immune to wall-clock
    steps — daemon uptime and span durations survive NTP adjustments —
    while the epoch-µs magnitudes (and hence exported traces, which
    rebase to the earliest span) match the previous [gettimeofday]
    source byte-for-byte in shape. *)

val span_begin : unit -> float
(** Start timestamp for a span: {!now_us} when enabled, [0.] when
    disabled (a static constant — no allocation). *)

val elapsed_us : float -> float
(** Microseconds since a {!span_begin} timestamp. *)

val span_end :
  name:string -> ?cat:string -> ?args:(string * string) list -> float -> unit
(** [span_end ~name t0] records a complete span begun at [t0]. Spans
    whose [t0] is [0.] (begun while disabled) are dropped, so a sink
    installed mid-span never records a garbage duration. [cat] defaults
    to ["etap"]. *)

val span : name:string -> ?cat:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span (recorded even if it raises). *)

(** {1 Merged views and exporters} *)

type span_ev = {
  sp_name : string;
  sp_cat : string;
  sp_ts_us : float;
  sp_dur_us : float;
  sp_tid : int;  (** domain id of the recording domain *)
  sp_args : (string * string) list;
}

type view = {
  counters : (string * int) list;  (** sorted by name *)
  hists : (string * Hist.t) list;  (** sorted by name *)
  spans : span_ev list;  (** sorted by [(ts, tid, name)] *)
}

val view : sink -> view
(** Merge the sink's per-domain buffers into an immutable value (every
    counter and histogram is copied). Non-destructive: the
    sink keeps collecting, and a later [view] includes everything
    again. Taken after the writing domains have joined, it is the
    sink's total. It may also be taken of a {e live} sink: concurrent
    reads are memory-safe under OCaml 5 and may lag in-flight
    increments, but once the intervening work has a happens-before
    edge to the caller (e.g. the serve daemon takes views under its
    state lock after worker batches have landed), successive views
    bracket it exactly. *)

val merge : view -> view -> view
(** Merge two views with the same commutative, associative operations
    {!view} applies across per-domain buffers: counters add, histograms {!Hist.merge}, spans interleave in
    timestamp order. *)

val diff : view -> view -> view
(** [diff newer older] — the interval between two views of one
    sink. Counters subtract (zero entries dropped),
    histograms {!Hist.diff} bucket-wise, spans take the multiset
    difference. Diff distributes over {!merge}, so interval deltas
    inherit the determinism contract of the totals: exact and
    jobs-invariant. Keys present only in [older] are dropped. *)

val write_trace : path:string -> view -> unit
(** Write the Chrome trace-event document (loadable by chrome://tracing
    and Perfetto): one ["ph": "X"] complete event per span plus
    thread-name metadata, under a top-level [schema] marker
    (["etap-trace/1"]). *)

val metrics_lines :
  ?redact_volatile:bool ->
  command:string ->
  meta:(string * Report.Json.t) list ->
  view ->
  string list
(** The JSONL metrics stream, one compact JSON document per line: a
    header line declaring [schema]/[command]/[meta] plus capture host
    and wall-clock time, then one line per counter and histogram.
    [redact_volatile] (default false, used by the golden
    generator) nulls the wall-clock-dependent fields — capture time,
    hostname, histogram quantiles and buckets — leaving a byte-stable
    document; deterministic fields (every counter, histogram counts)
    are kept. *)

val write_metrics :
  path:string ->
  command:string ->
  meta:(string * Report.Json.t) list ->
  view ->
  unit
