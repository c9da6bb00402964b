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

(* Build telemetry, shared by [build] and by a derived chain's
   adoption ([claim]), so a prepared target records the same counters
   and span whichever way its chain was made. *)
let obs_build t0 t =
  if Obs.enabled () then begin
    (* Stride-dependent by construction (unlike the sim.* run counters,
       which are jobs- and stride-invariant). *)
    Obs.count "snapshot.builds" 1;
    Obs.count "snapshot.checkpoints" (Array.length t.checkpoints);
    Obs.span_end ~name:"snapshot.build" ~cat:"sim"
      ~args:
        [
          ("stride", string_of_int t.stride);
          ("checkpoints", string_of_int (Array.length t.checkpoints));
        ]
      t0
  end

let claim t = obs_build (Obs.span_begin ()) t

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
  obs_build t0 t;
  t

let nearest t ~ordinal =
  if ordinal < 0 then invalid_arg "Snapshot.nearest: negative ordinal";
  let k = min (ordinal / t.stride) (Array.length t.checkpoints - 1) in
  t.checkpoints.(k)

(* ------------------------- one golden pass ------------------------- *)

(* The counted golden pass runs each program once for every tag mask
   of its campaign targets. It pauses on the ordinals of the masks'
   union to record provisional checkpoints, each tagged with the
   ordinal it sits at under every mask; [derive] then re-creates any
   mask's [build] chain from them by resuming the nearest provisional
   checkpoint under that mask and advancing a short way.

   The ordinal under mask M at a pause is the sum of M-tagged
   execution counts, minus the caller frames parked on an M-tagged
   DCall: a call-return write-back consumes its ordinal when the callee
   returns, but the DCall is counted at dispatch. *)

type provisional = {
  snap : Interp.snapshot;  (* strict image, union ordinal, pass budget *)
  ords : int array;  (* ordinal under each mask *)
}

type golden = {
  g_code : Code.t;
  root : Memory.frozen;
      (* the program's initial image in the lenient model: the root of
         the provisional chain and checkpoint 0's image in every
         derived chain *)
  masks : bool array array array;
  totals : int array;  (* each mask's injectable pool *)
  prov : provisional array;  (* pass order; index 0 is the initial state *)
  cur : Memory.t;
      (* the pass's running image; each [derive] steps it through the
         provisional images it restores *)
  work : (Memory.t * Memory.t) Lazy.t;
      (* the walker's image and the running image of the chain being
         derived, shared by every [derive] (the pass is single-owner) *)
}

let ordinal_under (mask : bool array array) (m : Machine.t) =
  let n = ref 0 in
  Array.iteri
    (fun fid row ->
      let counts = m.Machine.exec_counts.(fid) in
      Array.iteri (fun pc tagged -> if tagged then n := !n + counts.(pc)) row)
    mask;
  (match m.Machine.stack with
   | _ :: callers ->
     List.iter
       (fun (fr : Machine.frame) -> if mask.(fr.fid).(fr.pc) then decr n)
       callers
   | [] -> ());
  !n

(* Provisional spacing: the first gap is four union ordinals per image
   cell. A capture scans every cell, so this bounds the pass's capture
   cost to a fixed share of its execution whatever the image size,
   while [derive] still resumes within a short walk of most targets.
   On the 7 paper apps a cold load was fastest at 1–2 ordinals per cell
   and within 6% of that at 4, which holds half as many checkpoints,
   and a load's heap high-water mark matched per-policy builds only
   from 4 on (scratch probes, shared 2-core host). Whenever [max_prov]
   + 1 checkpoints are held, every other one goes (its delta joined
   into its successor's) and the gap doubles, so the sequence keeps
   between [max_prov / 2] and [max_prov] checkpoints of a long run and
   retains one root image plus at most [max_prov] deltas. *)
let max_prov = 256

(* Keep checkpoints 0, 2, 4, ... of an odd-length sequence, joining
   each dropped delta into its successor's. *)
let thin (acc : provisional array) =
  let kept = Array.make ((Array.length acc + 1) / 2) acc.(0) in
  for j = 1 to Array.length kept - 1 do
    let a = acc.((2 * j) - 1) and b = acc.(2 * j) in
    let s_memory =
      Memory.join ~parent:kept.(j - 1).snap.Machine.s_memory
        a.snap.Machine.s_memory b.snap.Machine.s_memory
    in
    kept.(j) <- { b with snap = { b.snap with Machine.s_memory } }
  done;
  kept

let golden ~masks code =
  let masks = Array.of_list masks in
  let union =
    Array.mapi
      (fun fid (df : Code.dfunc) ->
        Array.init (Array.length df.Code.dbody) (fun pc ->
            Array.exists (fun mask -> mask.(fid).(pc)) masks))
      code.Code.funcs
  in
  let image = Threaded.compile ~tags:union ~flavour:Machine.Counting code in
  let injection = Interp.injection ~tags:union ~plan:[] in
  let m = Machine.make ~image ~injection ~count_exec:true code in
  let running = Memory.of_prog ~lenient:true code.Code.prog in
  let root = Memory.freeze running in
  let first =
    {
      snap = Machine.freeze_state ~root m;
      ords = Array.map (fun _ -> 0) masks;
    }
  in
  (* [acc]: the sequence so far, latest first, [n] long. *)
  let acc = ref [ first ] and n = ref 1 in
  let gap = ref (max 1 (Memory.size_bytes running)) in
  let rec go () =
    match Interp.advance m ~pause_at:(m.Machine.inj_seen + !gap) with
    | `Paused ->
      let prev = ((List.hd !acc).snap, running) in
      acc :=
        {
          snap = Machine.freeze_state ~prev m;
          ords = Array.map (fun mask -> ordinal_under mask m) masks;
        }
        :: !acc;
      incr n;
      if !n > max_prov then begin
        let kept = thin (Array.of_list (List.rev !acc)) in
        acc := List.rev (Array.to_list kept);
        n := Array.length kept;
        gap := 2 * !gap
      end;
      go ()
    | `Halted -> ()
  in
  go ();
  (* The union mask only spaces the captures: the baseline this pass
     stands for runs unmasked, so its result and sim.* counters carry
     no injectable ordinals. *)
  m.Machine.inj_seen <- 0;
  let r = Interp.done_exn (Interp.finish m) in
  let totals = Array.map (fun mask -> ordinal_under mask m) masks in
  ( r,
    {
      g_code = code;
      root;
      masks;
      totals;
      prov = Array.of_list (List.rev !acc);
      cur = running;
      work = lazy (Memory.thaw root, Memory.thaw root);
    } )

let derive ~stride ~tags ?image ~budget g =
  if stride <= 0 then invalid_arg "Snapshot.derive: stride must be positive";
  let i =
    match Array.find_index (fun mask -> mask == tags) g.masks with
    | Some i -> i
    | None -> invalid_arg "Snapshot.derive: mask not given to the pass"
  in
  let injection = Interp.injection ~tags ~plan:[] in
  let walker, running = Lazy.force g.work in
  Memory.thaw_into g.root walker;
  Memory.thaw_into g.root running;
  let m = ref (Machine.make ?image ~injection ~budget ~memory:walker g.g_code) in
  let first = Machine.freeze_state ~root:g.root !m in
  let n = (g.totals.(i) / stride) + 1 in
  let checkpoints = Array.make n first in
  (* [cur] holds provisional checkpoint [!at]'s image, stepped forward
     delta by delta, so a restore costs the deltas since the last one
     plus a blit into the walker's image. *)
  let cur = g.cur and at = ref (-1) in
  let prov_mem j = g.prov.(j).snap.Machine.s_memory in
  (* [p]: the latest provisional checkpoint strictly before the target
     ordinal under this mask. One at the target ordinal itself may sit
     past untagged instructions that follow the target's write-back. *)
  let p = ref 0 in
  for k = 1 to n - 1 do
    let target = k * stride in
    while
      !p + 1 < Array.length g.prov && g.prov.(!p + 1).ords.(i) < target
    do
      incr p
    done;
    let from = g.prov.(!p) in
    if from.snap.Machine.s_dyn > !m.Machine.dyn then begin
      let w = !m.Machine.memory in
      Memory.thaw_into
        ?from:(if !at < 0 then None else Some (prov_mem !at))
        (prov_mem !p) cur;
      at := !p;
      Memory.blit ~src:cur ~dst:w;
      m :=
        Machine.restore_on ?image ~injection ~memory:w ~ordinal:from.ords.(i)
          ~budget from.snap
    end;
    (match Interp.advance !m ~pause_at:target with
     | `Paused -> ()
     | `Halted -> invalid_arg "Snapshot.derive: pass and mask disagree");
    checkpoints.(k) <-
      Machine.capture ~prev:(checkpoints.(k - 1), running) !m
  done;
  { stride; checkpoints }
