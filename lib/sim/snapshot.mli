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
