(** Fault-injection campaigns: the experimental loop of the paper.

    Typical use:
    {[
      let target = Campaign.of_prog prog in
      let prepared = Campaign.prepare target Policy.Protect_control in
      let summary =
        Campaign.run prepared ~score ~errors:20 ~trials:40 ~seed:7
      in
      Campaign.pct_catastrophic summary
    ]}

    Trials are scored at the source: [score] runs inside the trial, on
    the worker domain, and only its [float] survives. A {!summary}
    never retains a simulator result (in particular no [Memory.t]), so
    campaigns cost O(1) memory per trial and nothing heavy crosses
    domains. {!run_trial_result} is the escape hatch for callers that
    need more of a trial than its record: its final memory image or
    its landed-fault sites. *)

type target = {
  code : Sim.Code.t;
  tagging : Tagging.t;
  baseline : Sim.Interp.result;  (** fault-free run, with exec counts *)
  lenient : bool;  (** sim-safe sparse-memory model for injected runs *)
  proto : Sim.Memory.t;
      (** the one pristine image every trial machine starts from:
          globals laid out once, per-trial memories (and the golden
          checkpoint pass) are blit-copies *)
  engine : Sim.Interp.engine;
      (** which interpreter executes trials, taint trials included
          (default [Fast]); the baseline is always the fast engine's
          counted golden pass *)
  baseline_digest : string;
      (** {!Sim.Memory.digest} of the baseline's final image, computed
          once per target so batch consumers (the result cache, the
          matrix sweep runner) key many cells without re-digesting *)
}

type prepared = {
  target : target;
  policy : Policy.t;
  tags : bool array array;
  injectable_total : int;
      (** dynamic executions of injectable instructions — the sum of
          the baseline's exec counts over tagged slots *)
  budget : int;  (** timeout bound: 10x the fault-free dynamic count *)
  snapshots : Sim.Snapshot.t option;
      (** golden checkpoints for fork-from-prefix trials; [None] iff
          checkpointing was disabled *)
  image : Sim.Interp.image option;
      (** threaded-closure compilation of (code, tags) for the fast
          engine; [None] iff the target runs the reference engine. The
          first taint trial compiles its taint flavour and keeps it on
          the image ({!Sim.Interp.taint_image}). *)
}

type trial = {
  index : int;
  outcome : Outcome.t;  (** compact classification with crash site *)
  dyn_count : int;  (** dynamic instructions the trial executed *)
  faults_planned : int;
      (** the plan's actual size — the request capped at the injectable
          pool ({!Fault_model.planned}), not the raw [errors] argument *)
  faults_landed : int;
  fidelity : float option;
      (** [Some] iff the trial completed and a scorer was supplied *)
  fault_flow : Sim.Taint.summary option;
      (** [Some] iff the trial ran with taint on *)
}

type summary = {
  trials : trial list;
  stats : Stats.t;
  errors_requested : int;  (** the [errors] argument *)
  errors_planned : int;  (** per-trial plan size after the pool cap *)
  resumed_trials : int;
      (** trials that fast-forwarded past a non-empty prefix by
          restoring a checkpoint (the checkpoint hit count) *)
  skipped_dyn : int;
      (** dynamic instructions those restores avoided re-executing *)
}

val timeout_factor : int

val of_prog :
  ?protect_addresses:bool ->
  ?engine:Sim.Interp.engine ->
  Ir.Prog.t ->
  target
(** Compile, tag and run the fault-free baseline, and lay out the
    target's prototype in the lenient model — the SimpleScalar sim-safe
    memory the paper ran every campaign on. The baseline is one counted
    run on the fast engine ({!Sim.Snapshot.golden}), equal to the
    reference engine's counted run field for field. [engine] (default
    [Fast]) selects the trial interpreter; both engines produce
    bit-identical summaries (the differential suite in [test_engine]
    pins this). *)

type chains
(** Golden checkpoint chains derived from one counted pass, one per
    distinct tag mask. *)

val of_taggings : Tagging.t list -> Ir.Prog.t -> target list * chains
(** One target per tagging of the program (fast engine), all sharing
    one code, baseline, prototype and baseline digest — each equal to
    [of_prog]'s — from a single counted golden pass. The pass also
    yields the auto-stride checkpoint chain of every distinct mask the
    taggings' protect-control and protect-nothing policies give
    ({!Sim.Snapshot.derive}), for {!prepare}'s [chains]. *)

val injectable_pool : target -> bool array array -> int
(** Size of the injectable pool under a tag mask: the sum of the
    baseline's exec counts over tagged slots. What {!prepare} computes,
    exposed separately so batch callers (the matrix sweep runner) can
    detect an empty pool — and skip the cell — without paying for the
    checkpointing pass and engine compilation a full prepare implies. *)

val prepare :
  ?checkpoint_stride:int -> ?chains:chains -> target -> Policy.t -> prepared
(** Size the injectable pool (arithmetically, from the baseline's exec
    counts over the policy's tag mask — no profiling interpretation)
    and run the golden checkpointing pass: one fault-free execution
    recording immutable snapshots every [checkpoint_stride] injectable
    ordinals. Trials in {!run} then resume from the nearest checkpoint
    at or before their first planned fault instead of re-executing the
    fault-free prefix — bit-exact for any stride and any [jobs].

    [checkpoint_stride] defaults to {!Sim.Snapshot.auto_stride}; [0]
    disables checkpointing (trials run from scratch); negative values
    raise [Invalid_argument].

    [chains] (from {!of_taggings} for this target) replaces the golden
    pass: with the default stride and a chain for the policy's mask,
    the prepared target adopts that chain — identical checkpoints, the
    same [campaign.prepares], [snapshot.builds], [snapshot.checkpoints]
    and [snapshot.build] telemetry — and runs nothing. Other masks fall back to the pass. Taint trials ({!run} with [~taint:true])
    resume from the same checkpoints, on the target's engine, with
    clean shadow taint — exact, because no fault has landed before any
    checkpoint. *)

val run_trial_result :
  ?taint:bool ->
  prepared ->
  errors:int ->
  rng:Random.State.t ->
  index:int ->
  Sim.Interp.result
(** Escape hatch: trial [index]'s raw simulator result, memory image
    and landed-fault sites included — for output rendering, per-site
    analysis ([Harness.Profile]) and debugging. It records the trial's
    [campaign.*] telemetry exactly as {!run_trial} does. Use
    {!trial_rng} to reproduce the RNG of a {!run} trial. [taint] runs
    the trial with shadow taint (identical behaviour and fault
    landings, plus a fault-flow summary) on the taint flavour of the
    prepared image, or on the reference loop for a reference-engine
    target. *)

val run_trial :
  ?score:(Sim.Interp.result -> float) ->
  ?taint:bool ->
  prepared ->
  errors:int ->
  rng:Random.State.t ->
  index:int ->
  trial

val run_trial_skip :
  ?score:(Sim.Interp.result -> float) ->
  ?taint:bool ->
  prepared ->
  errors:int ->
  rng:Random.State.t ->
  index:int ->
  trial * int
(** {!run_trial} plus the dynamic instructions a checkpoint restore let
    the trial skip (0 when it ran from scratch) — the exact per-trial
    unit {!run} aggregates into [resumed_trials]/[skipped_dyn].
    {!Memo.run} executes its cache misses through this so incremental
    and monolithic campaigns produce bit-identical trial records. *)

val trial_rng :
  seed:int -> errors:int -> policy:Policy.t -> int -> Random.State.t
(** The RNG {!run} derives for trial [i]: a function of
    [(seed, i, errors, policy)] only, via {!Policy.seed_tag}. *)

val summary_of :
  injectable_total:int -> errors:int -> (trial * int) list -> summary
(** The summary of [results]: each trial, in trial-index order, with the
    dynamic instructions a checkpoint restore let it skip (0 for a
    trial this call did not execute). The one place a summary's
    [stats], [errors_planned], [resumed_trials] and [skipped_dyn] are
    folded; {!run}, {!Memo.run} and fault-free sweep points all call
    it. *)

val run :
  ?jobs:int ->
  ?score:(Sim.Interp.result -> float) ->
  ?taint:bool ->
  prepared ->
  errors:int ->
  trials:int ->
  seed:int ->
  summary
(** Deterministic: trial [i] uses {!trial_rng}, so trials are
    order-independent. [jobs] fans the trials out over that many
    domains (default [Domain.recommended_domain_count () - 1], clamped
    to [\[1, trials\]]); the summary is identical for every [jobs]
    value, assembled in trial-index order. [score] is applied on the
    worker domain to each completed trial. [taint] runs every trial
    with shadow taint, as {!run_trial_result} does, and feeds the
    fault-flow counters in [stats]. *)

val errors_capped : summary -> bool
(** True when the injectable pool was smaller than the request, so each
    plan holds [errors_planned] < [errors_requested] faults. *)

val n : summary -> int
val crashes : summary -> int
val infinite : summary -> int
val completed : summary -> int
val pct_catastrophic : summary -> float

val mean_fidelity : summary -> float option
(** [None] when no completed trial was scored — never [nan]. *)

val fidelities : summary -> float list
(** Fidelities of the scored completed trials, in trial order. *)
