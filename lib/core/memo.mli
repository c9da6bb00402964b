(** Compositional campaign memoization: section-level result reuse
    through a content-addressed on-disk cache (FastFlip-style — see
    DESIGN.md §15).

    {!run} is a drop-in sibling of {!Campaign.run}: same arguments plus
    a {!Store.t}, same [summary] — bit-identical to the monolithic one
    on a cold cache, and composed from cached per-section records on a
    warm one. Each trial is attributed to the section (function, with a
    composed content hash over its call subtree — [Analysis.Section])
    owning its first planned fault ordinal; a group of trials is
    reusable iff nothing its key covers changed: the owning section's
    composed hash, the fault-model coordinates (policy, errors, seed,
    injectable pool, budget), the baseline behaviour digest, and each
    trial's entry-state class (digest of the checkpoint it resumes
    from, frames keyed by local section hashes).

    Incremental campaigns never run under taint — audit flows stay
    monolithic ({!Campaign.run} [~taint:true]). *)

type stats = {
  sections : int;  (** section groups (sections owning at least 1 trial) *)
  hits : int;  (** groups served entirely from the cache *)
  misses : int;  (** groups executed and stored *)
  trials_reused : int;
  trials_run : int;
}

val zero_stats : stats

(** Content-addressed entry store under a root directory (by
    convention [_etap_cache/]): one JSON document per group, schema
    [etap-cache/1], at [root/<key[0:2]>/<key[2:]>.json]. Corrupt,
    foreign-schema or stale-membership entries read as misses, never
    as errors; writes are atomic (temp file + rename). *)
module Store : sig
  type t

  val schema : string
  (** ["etap-cache/1"] *)

  val open_ : string -> t
  (** Create (mkdir -p) or reopen the store rooted at the path. *)

  val root : t -> string

  val load : t -> key:string -> Report.Json.t option
  (** The entry stored under [key], or [None] when absent, corrupt or
      carrying a foreign schema marker. *)

  val save : t -> key:string -> Report.Json.t -> unit
  (** Atomically publish an entry: the document is written to a
      temp file unique per (process, domain, save) and renamed over the
      final path, so concurrent writers of the same key — domains of
      one matrix run, or separate processes sharing a store — never
      expose a torn entry to a reader. *)

  val scan : t -> (string * int * float) list
  (** Every entry under the store root as [(path, bytes, mtime)],
      unsorted — the same walk {!gc} evicts from, without the
      side-effects (no temp-file reaping). Feeds the offline store
      summary ([etap cache stats]) and the serve daemon's [stats]
      store section. *)

  type gc_stats = {
    gc_scanned : int;  (** entries found under the store root *)
    gc_evicted : int;
    gc_kept : int;
    gc_bytes_before : int;
    gc_bytes_after : int;
  }

  val gc : ?max_bytes:int -> ?max_age_days:float -> t -> gc_stats
  (** LRU-by-mtime eviction ([etap cache gc]). {!load} touches entries
      on every hit, so mtime order is recency-of-use order: entries
      older than [max_age_days] are evicted first, then oldest-first
      until total size fits under [max_bytes]. With neither bound the
      pass only reports sizes (and reaps stale [.tmp] files from
      crashed writers). Safe to run concurrently with readers and
      writers of the same store. *)
end

val sections_of : Campaign.prepared -> Analysis.Section.t
(** Section partition of the prepared target's program, with the
    policy's tag mask folded into the hashes. *)

val owners_of : Campaign.prepared -> ordinals:int list -> (int, int) Hashtbl.t
(** Owning fid of each requested injectable ordinal (ascending list),
    from the golden walk pausing at [o + 1] — the paused frame is
    exactly the one that consumed ordinal [o]. The walk runs on the
    prepared fast-engine image (when there is one) and resumes the
    nearest golden checkpoint at or below [o + 1] whenever it lies
    ahead of the walking machine; the owners equal a reference-engine
    walk from ordinal 0. Ordinals past the last pause point attribute
    to the entry section. *)

val trial_to_json : Campaign.trial -> Report.Json.t
(** Cache-entry encoding of one trial record. Floats travel as hexfloat
    strings so records roundtrip bit-exactly; [fault_flow] is always
    [None] on this path and is not encoded. *)

val trial_of_json : Report.Json.t -> Campaign.trial
(** Inverse of {!trial_to_json}. Raises on malformed input (callers in
    this module convert that to a cache miss). *)

val run :
  ?jobs:int ->
  ?fanout:
    ((int -> Campaign.trial * int) -> int list -> (Campaign.trial * int) list) ->
  ?score:(Sim.Interp.result -> float) ->
  ?salt:string ->
  ?sections:Analysis.Section.t ->
  store:Store.t ->
  Campaign.prepared ->
  errors:int ->
  trials:int ->
  seed:int ->
  Campaign.summary * stats
(** Incremental counterpart of {!Campaign.run}. Cache misses execute
    through {!Campaign.run_trial_skip} (the monolithic per-trial path)
    and are then published to [store]; hits are composed from their
    stored records. The summary's [trials], [stats], [errors_*] fields
    are bit-identical to {!Campaign.run}'s for the same arguments;
    [resumed_trials]/[skipped_dyn] count executed trials only (a fully
    warm run reports 0/0).

    [salt] folds an out-of-band identity into every key — callers pass
    the app name (and anything else that selects the scorer/workload)
    because a [score] closure itself cannot be hashed. [jobs] fans the
    misses out over domains; results are jobs-invariant.

    [fanout] hands the miss fan-out to an external scheduler (the
    serve daemon's shared executor): it receives the per-trial
    execution function and the missing indices, and must return one
    result per index in the given order. When supplied, this run
    spawns no domains of its own — the coalescing-safe entry. The
    per-trial computation is identical either way, so summaries are
    scheduler-invariant.

    [sections] lets a batch caller (the matrix sweep runner) compute
    {!sections_of} once per prepared target and share it across every
    cell on that target; it must be the partition of exactly this
    prepared's program and tag mask. *)
