(** Functional simulator — the SimpleScalar sim-safe role in the
    paper's methodology: exact architectural state, no timing model,
    faithful traps, and the paper's fault-injection hook.

    An {!injection} carries a per-instruction injectability mask (the
    tagging analysis output) and a plan over ordinals *among dynamic
    executions of injectable instructions*. When execution reaches a
    planned ordinal, the chosen bit is flipped in the just-computed
    destination value before write-back; the corruption then
    propagates architecturally.

    The plan is stored pre-sorted by ordinal and consumed with a
    monotone cursor, so the per-execution check is one integer compare
    (ordinals are assigned in increasing order). Build values with
    {!injection} rather than filling the record directly. *)

type injection = Machine.injection = {
  tags : bool array array;  (** fid -> body index -> injectable *)
  plan_ords : int array;    (** planned ordinals, strictly increasing *)
  plan_bits : int array;    (** bit to flip, parallel to [plan_ords] *)
}

val injection : tags:bool array array -> plan:(int * int) list -> injection
(** [injection ~tags ~plan] sorts the [(ordinal, bit)] pairs by
    ordinal. Raises [Invalid_argument] on a negative or duplicate
    ordinal. *)

type outcome =
  | Done of Value.t option  (** entry function returned *)
  | Trapped of Trap.t
  | Timeout  (** exceeded the dynamic-instruction budget *)

type result = {
  outcome : outcome;
  dyn_count : int;
  injectable_seen : int;
  faults_landed : int;
  memory : Memory.t;
  exec_counts : int array array;
      (** per-function, per-body-index execution counts; populated only
          when [count_exec] was set (empty array otherwise) *)
  trap_site : (string * int) option;
      (** provenance of a [Trapped] outcome: name of the function and
          body index of the instruction whose evaluation trapped.
          Stack-overflow traps are attributed to the overflowing call
          site. [None] for [Done] and [Timeout]. *)
  landed_sites : (string * int) array;
      (** (function name, body index) of each landed fault, in landing
          order; length [faults_landed]. Return write-back landings are
          attributed to the caller's [DCall], matching where the
          injection hook runs. What [Harness.Profile] tallies. *)
  fault_flow : Taint.summary option;
      (** shadow-taint fault-flow classification; [Some] iff the
          machine was built (or resumed) with [~taint:true] *)
}

exception Timeout_exn

val max_call_depth : int

(** {1 Engines}

    Two engines execute the same explicit machine. The {e reference}
    engine is the match-dispatch loop — one [Code.d] match per dynamic
    instruction, easy to audit. The {e fast} engine pre-compiles each
    function body into a flat array of specialized closures (threaded
    dispatch: operand indices, immediates, branch targets and
    injectability tags resolved at compile time, control transfer by
    direct tail call). Both produce bit-identical results — outcomes,
    counters, trap sites, landed-fault attribution, snapshots — pinned
    by the cross-engine differential suite in [test_engine].

    Selection is by construction: a machine built from a compiled
    {!image} runs fast; one built without runs on the reference
    engine. *)

type engine =
  | Fast  (** threaded-closure dispatch (the default in campaigns) *)
  | Ref   (** match-dispatch reference loop *)

val engine_name : engine -> string

type image = Machine.image
(** A program compiled for the fast engine against one (code, tags)
    pair. Immutable and safe to share across domains; compile once per
    prepared campaign target, reuse for every trial. (Its record, like
    {!machine}'s and {!snapshot}'s, is internal to [Sim].) *)

val compile : ?tags:bool array array -> Code.t -> image
(** Compile every function body into its closure table. [tags]
    (default: none) must be the exact mask later passed in the
    {!injection} — the machine constructors enforce this by physical
    equality. *)

val taint_image : image -> image
(** The taint flavour of a plain image: the same closures, each run
    after its instruction's shadow transfer, for machines built with
    [~taint:true]. Compiled on the first call and kept on [image], so
    every later call (from any domain) returns the same table. A taint
    image is its own taint flavour; a counting image has none
    ([Invalid_argument]). *)

(** {1 Explicit machine}

    The interpreter is an explicit machine — a frame stack plus the
    dynamic counters — so execution can pause at any
    injectable-ordinal boundary, be captured into an immutable
    {!snapshot}, and resume later. This is the substrate of
    checkpointed fork-from-prefix campaigns (see [Sim.Snapshot] and
    [Core.Campaign]). Plain, profiling ([count_exec]) and shadow-taint
    ([taint]) runs are the same machine, driven by the same reference
    dispatch loop or by the matching flavour of a compiled image. *)

type machine = Machine.t
(** A paused or running execution. Mutable; single-owner. *)

val machine :
  ?image:image ->
  ?injection:injection ->
  ?budget:int ->
  ?count_exec:bool ->
  ?taint:bool ->
  ?memory:Memory.t ->
  Code.t ->
  machine
(** A fresh machine at the entry function, same defaults as {!run}.
    [memory] supplies a pre-built memory image, which carries its own
    access model (ownership transfers to the machine); without it the
    machine lays out the program's globals in the strict model
    ({!Memory.of_prog}). [taint] (default off) adds shadow-taint state: per-register
    and per-memory-cell masks and a sink tracker, summarized into the
    result's [fault_flow]. [image] selects the fast engine; it must
    have been compiled from this [code] and with the same tag-mask
    array as [injection] (physical equality), and a taint machine needs
    a taint image ({!taint_image}) where every other machine needs a
    non-taint one — raises [Invalid_argument] otherwise, and for
    [count_exec] with [taint] on an image. [count_exec] with a plain
    [image] counts on the fast engine: the machine runs a counting
    flavour compiled from the image's code and tags, and the image
    itself (the one trials share) stays count-free. *)

val advance : machine -> pause_at:int -> [ `Halted | `Paused ]
(** Execute until the machine halts, or pause as soon as [pause_at]
    injectable ordinals have been seen. Ordinals advance by at most one
    per dispatched instruction and the pause check precedes dispatch,
    so a pause lands exactly at ordinal [pause_at], before any ordinal
    [>= pause_at] is consumed. Calling {!advance} on a halted machine
    returns [`Halted] and does nothing. *)

val finish : machine -> result
(** Run to completion ([advance ~pause_at:max_int]) and package the
    result, with [fault_flow] summarized from the tracker of a taint
    machine. *)

type snapshot = Machine.snapshot
(** An immutable copy of a paused machine's full architectural state
    (memory image, frame stack, counters). One snapshot can seed any
    number of {!resume}d trials, concurrently across domains — restore
    copies everything mutable. *)

val capture : ?prev:snapshot * Memory.t -> machine -> snapshot
(** Snapshot a paused machine. Raises [Invalid_argument] if the
    machine has halted, was created with [count_exec], or has already
    landed a fault — snapshots are taken on fault-free (golden)
    passes only. Without [prev] the snapshot holds a full copy of the
    memory image. [prev = (p, running)] chains it onto an earlier
    capture [p] of the same pass: only the cells that changed since
    [p] are stored ({!Memory.freeze}), where [running] holds [p]'s
    memory image and is updated in place to this one. Either way the
    snapshot restores, resumes and digests identically. *)

val resume :
  ?image:image ->
  ?injection:injection ->
  ?taint:bool ->
  ?memory:Memory.t ->
  snapshot ->
  machine
(** A fresh machine restored from the snapshot, with a new plan.
    [memory] is a working image of the same size to thaw the snapshot
    into ({!Memory.thaw_into}; ownership passes to the machine), for a
    single-owner walk that resumes many times — without it the machine
    gets a freshly thawed image.
    Raises [Invalid_argument] if the plan's first ordinal precedes the
    snapshot's ordinal (that fault could never land). [image] selects
    the fast engine for the resumed execution, with the same validity
    rules as {!machine}; snapshots carry no engine state, so a capture
    under one engine may resume under the other. [taint] resumes with
    shadow taint on, from zeroed masks: no fault has landed before a
    capture, so every mask is clean there and the resumed run equals a
    taint run from scratch. *)

val snapshot_ordinal : snapshot -> int
(** Injectable ordinal at which the snapshot was taken. *)

val snapshot_dyn : snapshot -> int
(** Dynamic instructions executed up to the snapshot — the work a
    resumed trial skips. *)

val snapshot_memory : snapshot -> Memory.t
(** A fresh copy of the memory image {!resume} restores. *)

val snapshot_digest : fid_key:(int -> string) -> snapshot -> string
(** Hex MD5 over the snapshot's full architectural state: counters,
    frame stack (each frame's function named by [fid_key fid] — pass a
    rename-stable identity such as a section local hash — plus its pc
    and both register banks) and the memory image. Equal digests mean
    resuming either snapshot is observably identical. *)

val machine_fid : machine -> int
(** Fid of the frame the dispatch loop is executing in. At a pause this
    is exactly the frame that consumed the most recent injectable
    ordinal — compositional campaigns pause at [o + 1] and read it to
    attribute ordinal [o] to its owning section. *)

val run :
  ?image:image ->
  ?injection:injection ->
  ?budget:int ->
  ?count_exec:bool ->
  ?taint:bool ->
  ?memory:Memory.t ->
  Code.t ->
  result
(** Execute from the entry function. [budget] defaults to 10^8 dynamic
    instructions; the memory model is [memory]'s (default strict).
    [taint] (default off) adds shadow taint: identical architectural
    behaviour and fault landings, plus a {!Taint.summary} in
    [fault_flow]. [image], [taint] and [memory] as in {!machine}:
    [finish (machine ...)]. *)

val run_exn : ?image:image -> ?count_exec:bool -> Code.t -> result
(** Like {!run} for fault-free execution: fails on trap or timeout.
    Without [image], [count_exec] counts on the reference engine. *)

val done_exn : result -> result
(** [r] if it ran to completion; otherwise fails as {!run_exn} does. *)
