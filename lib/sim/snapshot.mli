(** Golden checkpoint sequence for fork-from-prefix campaigns.

    A single fault-free pass (the {e golden} pass) records immutable
    {!Interp.snapshot}s every [stride] injectable ordinals, each
    chained onto the one before it: only checkpoint 0 holds a full
    memory image. Trials whose first planned fault lands at ordinal [o]
    resume from the nearest checkpoint at or before [o] instead of
    re-executing the fault-free prefix — bit-exact for any stride,
    because the prefix is identical across all trials of a prepared
    target. Checkpoints are immutable after the build and safe to share
    read-only across domains ({!Interp.resume} copies all mutable
    state). *)

type t

val build :
  stride:int ->
  tags:bool array array ->
  ?image:Interp.image ->
  ?budget:int ->
  ?memory:Memory.t ->
  Code.t ->
  t
(** Run the golden pass with the given tagging mask (empty plan — the
    mask only makes ordinals advance as they will in trials) and
    capture a checkpoint every [stride] ordinals, plus the initial
    state at ordinal 0. Raises [Invalid_argument] if [stride <= 0];
    propagates traps or {!Interp.Timeout_exn} if the fault-free run
    itself fails ([Campaign] targets are validated by their baseline
    first). [image] runs the golden pass on the fast engine (it must
    carry the same [tags] array); checkpoints are engine-independent.
    [memory] as in {!Interp.machine}. *)

val auto_stride : injectable_total:int -> image_bytes:int -> int
(** Stride giving [n = clamp (64 MiB / image_bytes) 1 64] evenly spaced
    checkpoints. Always [>= 1]. The sequence retains one full memory
    image (17 B per 4-byte cell) plus about 25 B per cell changed
    between consecutive checkpoints. *)

val nearest : t -> ordinal:int -> Interp.snapshot
(** The checkpoint at the largest multiple of [stride] at or below
    [ordinal] (clamped to the last one recorded). [ordinal] may exceed
    the run's total — e.g. [max_int] for an empty plan — and still
    resolves to the last checkpoint. Raises on negative [ordinal]. *)

val stride : t -> int

val count : t -> int
(** Number of checkpoints recorded (including ordinal 0). *)

(** {1 One golden pass per program}

    {!build} runs a golden pass per tag mask. A program's campaign
    targets differ only in their masks, so one counted pass can stand
    for all of them: it pauses on the ordinals of the masks' union to
    record a short sequence of provisional checkpoints, each tagged
    with its ordinal under every mask, and {!derive} then re-creates
    each mask's chain from them, checkpoint for checkpoint. *)

type golden
(** The provisional checkpoints of one counted pass. Single-owner;
    drop it once every mask's chain is derived. *)

val golden :
  masks:bool array array list -> Code.t -> Interp.result * golden
(** Run [code] fault-free once on the fast engine with execution
    counting, in the strict model and the default budget. The result
    equals [Interp.run_exn ~count_exec:true code] (reference engine)
    field for field and records the same [sim.*] counters; fails as
    {!Interp.run_exn} does. Provisional checkpoints are spaced by an
    internal rule that scales with the image size and thins the
    sequence as the run grows, so the pass retains one image plus at
    most 256 deltas. With [masks = []] the pass never pauses. *)

val derive :
  stride:int ->
  tags:bool array array ->
  ?image:Interp.image ->
  budget:int ->
  golden ->
  t
(** The chain [build ~stride ~tags ?image ~budget ~memory] builds from
    the program's initial image in the lenient model (campaign trials'
    model, [Memory.of_prog ~lenient:true]), for one of the masks the
    pass was given ([tags] must be one of them, physically;
    [Invalid_argument] otherwise): equal stride and count, and every
    checkpoint equal in ordinal, dynamic count and
    {!Interp.snapshot_digest}. Each checkpoint resumes the latest
    provisional one before it under [tags] and advances to it.
    Checkpoint 0 shares its image with every chain derived from the
    same pass, and a mask with an empty pool gets checkpoint 0 without
    running the program. Records no telemetry; see {!claim}. *)

val claim : t -> unit
(** Record a build's telemetry for a derived chain as its campaign
    target adopts it: the [snapshot.builds] and [snapshot.checkpoints]
    counters and a [snapshot.build] span, as {!build} records them. *)
