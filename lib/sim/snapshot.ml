(* Golden checkpoint sequence for fork-from-prefix campaigns.

   One fault-free pass over the program (with the tagging mask
   installed so injectable ordinals are counted) captures an immutable
   [Interp.snapshot] every [stride] injectable ordinals, plus the
   initial state at ordinal 0. A trial whose first planned fault lands
   at ordinal [o] then resumes from checkpoint [o / stride] instead of
   re-executing the whole fault-free prefix — exact, because the
   snapshot carries the complete architectural state and the fault-free
   prefix is identical across all trials of a prepared target.

   Checkpoint [k] sits exactly at ordinal [k * stride]
   ([Interp.advance]'s pause guarantee), so lookup is pure
   arithmetic. Checkpoint 0 holds the sequence's one full memory
   image; every later one stores only the cells changed since its
   predecessor, so restoring checkpoint [k] costs a root copy plus
   [k] deltas. *)

type t = {
  stride : int;
  checkpoints : Interp.snapshot array;
      (* checkpoints.(k) at injectable ordinal k * stride; index 0 is
         the initial state. The last entry may sit short of the final
         ordinal when the run ends between strides. *)
}

let stride t = t.stride
let count t = Array.length t.checkpoints

(* Stride choice trades golden-pass memory against skipped prefix
   length: aim for up to [max_checkpoints] evenly spaced snapshots,
   backed off to [mem_budget / image_bytes] of them for a huge image.
   That count is not a byte bound. Checkpoints retain one full image
   (17 B per 4-byte cell) plus about 25 B per cell changed between
   consecutive checkpoints; only if every cell changed at every stride
   would that reach 25/4 x [mem_budget]. Golden passes change few
   cells: the 28 paper targets retain 5.2 MiB of checkpoints in all. *)
let max_checkpoints = 64
let mem_budget = 64 * 1024 * 1024

let auto_stride ~injectable_total ~image_bytes =
  let by_mem = max 1 (mem_budget / max 1 image_bytes) in
  let n = max 1 (min max_checkpoints by_mem) in
  max 1 ((injectable_total + n - 1) / n)

let build ~stride ~tags ?image ?budget ?memory code : t =
  if stride <= 0 then invalid_arg "Snapshot.build: stride must be positive";
  let t0 = Obs.span_begin () in
  (* Empty plan: the injection only installs the tag mask, so ordinals
     advance exactly as they will in every trial, and no fault fires. *)
  let injection = Interp.injection ~tags ~plan:[] in
  let m = Interp.machine ?image ~injection ?budget ?memory code in
  let first = Interp.capture m in
  (* Each later capture is chained onto the one before it, diffed
     against [running], which tracks that checkpoint's image in place. *)
  let running = Interp.snapshot_memory first in
  let acc = ref [ first ] in
  let k = ref 1 in
  let rec go () =
    match Interp.advance m ~pause_at:(!k * stride) with
    | `Paused ->
      acc := Interp.capture ~prev:(List.hd !acc, running) m :: !acc;
      incr k;
      go ()
    | `Halted -> ()
  in
  go ();
  let t = { stride; checkpoints = Array.of_list (List.rev !acc) } in
  if Obs.enabled () then begin
    (* Stride-dependent by construction (unlike the sim.* run counters,
       which are jobs- and stride-invariant). *)
    Obs.count "snapshot.builds" 1;
    Obs.count "snapshot.checkpoints" (Array.length t.checkpoints);
    Obs.span_end ~name:"snapshot.build" ~cat:"sim"
      ~args:
        [
          ("stride", string_of_int stride);
          ("checkpoints", string_of_int (Array.length t.checkpoints));
        ]
      t0
  end;
  t

let nearest t ~ordinal =
  if ordinal < 0 then invalid_arg "Snapshot.nearest: negative ordinal";
  let k = min (ordinal / t.stride) (Array.length t.checkpoints - 1) in
  t.checkpoints.(k)
