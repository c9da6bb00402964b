(* Execution-state substrate shared by the two engines.

   Both the reference match-dispatch loop (Interp) and the
   threaded-closure engine (Threaded) drive the same explicit machine:
   a frame stack of {fid; pc; iregs; fregs} plus the dynamic counters
   and the plan cursor. Everything observable about a run — ordinals,
   landed faults and their sites, trap provenance, pause/capture/resume
   — is defined here once, so the engines can only differ in how they
   dispatch instructions, never in what a dispatched instruction does.

   Shadow taint (DESIGN §11) is optional state of the same machine: a
   [tracker] in [taint] plus per-frame register masks, all absent when
   taint is off. The tracker is defined here, inside the simulator, so
   only lib/sim writes it; its transfer helpers ([shade],
   [shadow_load], [shadow_store], the sinks, [shadow_args],
   [shadow_return]) live in Threaded, where the fast engine's taint
   flavour inlines them, and the reference loop calls them there.

   The [fast] field selects the engine: a machine built from a
   compiled [image] carries the closure table and is driven by
   Threaded.exec; an empty table means reference dispatch. An image
   has one flavour — plain (trials), counting (counted golden runs) or
   taint (audit trials) — and serves only machines of that kind. It is
   compiled against one (code, tags) pair, and [make]/[restore]
   validate both by physical equality — campaigns pass the same tag
   mask to every trial of a prepared target, so the check is free and
   catches any mix-up between policies. *)

type injection = {
  tags : bool array array;  (* fid -> body index -> injectable *)
  plan_ords : int array;    (* planned ordinals, strictly increasing *)
  plan_bits : int array;    (* bit to flip, parallel to [plan_ords] *)
}

exception Timeout_exn
exception Pause_exn

let max_call_depth = 4096
let default_budget = 100_000_000

let binop_i (op : Ir.Instr.binop) a b =
  match op with
  | Add -> Value.sx32 (a + b)
  | Sub -> Value.sx32 (a - b)
  | Mul -> Value.sx32 (a * b)
  | Div ->
    if b = 0 then raise (Trap.Error Trap.Division_by_zero)
    else Value.sx32 (a / b)
  | Rem ->
    if b = 0 then raise (Trap.Error Trap.Division_by_zero)
    else Value.sx32 (a mod b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Sll -> Value.sx32 (a lsl (b land 31))
  | Srl -> Value.sx32 ((a land 0xFFFFFFFF) lsr (b land 31))
  | Sra -> a asr (b land 31)

let cmp_i (op : Ir.Instr.cmpop) a b =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let binop_f (op : Ir.Instr.fbinop) a b =
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b  (* IEEE: yields inf/nan, no trap *)

let unop_f (op : Ir.Instr.funop) a =
  match op with Fneg -> -.a | Fabs -> Float.abs a | Fsqrt -> Float.sqrt a

let cmp_f (op : Ir.Instr.cmpop) (a : float) (b : float) =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let no_counts : int array = [||]
let no_tags : bool array = [||]
let no_ops : bool array array = [||]
let no_masks : Taint.mask array = [||]

(* One activation record. [pc] always holds the body index of the
   instruction currently (or next) being dispatched whenever the
   machine is observable (paused, trapped, or at a frame switch), so
   trap provenance and snapshot/resume both read it directly. While a
   callee runs, the caller's [pc] stays parked on its DCall — return
   write-back and the post-call resume point are recovered from it.
   [itn]/[ftn] shadow the register banks with taint masks on a taint
   machine and are empty otherwise. *)
type frame = {
  fid : int;
  mutable pc : int;
  iregs : int array;
  fregs : float array;
  itn : Taint.mask array;
  ftn : Taint.mask array;
}

(* The event accumulator of a taint machine: first-contamination
   counts at each sink (Taint's header lists them) and the per-cell
   taint mask of the memory image. Its writers are the transfer helpers
   in Threaded; [summarize] reads it once a run ends. *)
type tracker = {
  mutable propagated : bool;
  mutable control_free : int;
  mutable control_via_memory : int;
  mutable address_hits : int;
  mutable trap_operand_hits : int;
  mutable memory_hits : int;
  mutable first_control_fid : int; (* first memory-free control event *)
  mutable first_control_pc : int;
  tmem : Bytes.t; (* per-cell taint mask, parallel to the data image *)
}

let make_tracker ~cells =
  {
    propagated = false;
    control_free = 0;
    control_via_memory = 0;
    address_hits = 0;
    trap_operand_hits = 0;
    memory_hits = 0;
    first_control_fid = -1;
    first_control_pc = -1;
    tmem = Bytes.make (max cells 0) '\000';
  }

(* The five-class flow of a run, most severe sink first. *)
let summarize (tr : tracker) ~func_name : Taint.summary =
  let flow : Taint.flow =
    if tr.control_free + tr.control_via_memory > 0 then Reached_control
    else if tr.address_hits + tr.trap_operand_hits > 0 then Reached_address
    else if tr.memory_hits > 0 then Reached_memory
    else if tr.propagated then Data_only
    else Vanished
  in
  {
    flow;
    control_free = tr.control_free;
    control_via_memory = tr.control_via_memory;
    address_hits = tr.address_hits;
    trap_operand_hits = tr.trap_operand_hits;
    memory_hits = tr.memory_hits;
    first_control =
      (if tr.first_control_fid >= 0 then
         Some (func_name tr.first_control_fid, tr.first_control_pc)
       else None);
  }

type status =
  | Running
  | Done_ of Value.t option
  | Trapped_ of Trap.t * (int * int) option  (* trap, (fid, pc) site *)
  | Timeout_

type t = {
  code : Code.t;
  memory : Memory.t;
  budget : int;
  count_exec : bool;
  exec_counts : int array array;
  all_tags : bool array array;
  has_injection : bool;
  plan_ords : int array;
  plan_bits : int array;
  mutable cursor : int;
  mutable next_planned : int;  (* smallest pending ordinal, max_int when done *)
  mutable dyn : int;
  mutable inj_seen : int;
  mutable landed : int;
  land_fids : int array;  (* fid of landing [i], parallel to the plan *)
  land_pcs : int array;
  mutable cur_fid : int;
      (* fid of the frame the dispatch loop is executing in — the
         landing-site attribution for the next fault. Synced when the
         head frame changes and on return write-back. *)
  mutable stack : frame list;  (* innermost frame first; never empty while Running *)
  mutable depth : int;         (* depth of the head frame; entry frame is 0 *)
  mutable status : status;
  taint : tracker option;  (* [Some] iff shadow taint is on *)
  fast : op array array;
      (* per-function closure tables from the compiled image; [||]
         selects the reference match-dispatch loop *)
  mutable pause_at : int;
      (* the live [advance ~pause_at] bound; both engines read it so
         mid-chain ordinal bumps can pause without re-entering the
         driver *)
  mutable run_fr : frame;
      (* the head frame, cached for the fast engine: ops are unary
         closures over the machine (a unary unknown application is a
         bare code-pointer jump in ocamlopt — no caml_apply arity
         check), so the frame rides in this field, set by the driver at
         each re-entry. Meaningless between driver entries of the
         reference engine. *)
}

and op = t -> unit
(* One compiled instruction: executes against the machine ([run_fr]
   holds the head frame), then either tail-calls its successor closure
   (straight-line and branch flow) or returns unit when the head frame
   changed (call, return) so the driver re-enters. *)

(* What an image's ops do besides executing: a [Counting] image also
   bumps [exec_counts] and only counted golden runs build one; a
   [Taint] image runs each instruction's shadow transfer first and
   only taint machines run one. *)
type flavour =
  | Plain
  | Counting
  | Taint

type image = {
  icode : Code.t;
  itags : bool array array;
  iops : op array array;
  iflavour : flavour;
  itaint : image option Atomic.t;
      (* a plain image's taint flavour, compiled from the same (code,
         tags) pair on first use (Interp.taint_image) and kept here, so
         a prepared target that never runs a taint trial never compiles
         it; empty on the other flavours *)
}

let flavour_name = function
  | Plain -> "plain"
  | Counting -> "counting"
  | Taint -> "taint"

let shadow_of ~shadow regs =
  if shadow then Array.make (Array.length regs) Taint.none else no_masks

let fresh_frame (code : Code.t) ~shadow fid =
  let df = code.Code.funcs.(fid) in
  let iregs = Array.make (max df.Code.n_int 1) 0 in
  let fregs = Array.make (max df.Code.n_flt 1) 0.0 in
  {
    fid;
    pc = 0;
    iregs;
    fregs;
    itn = shadow_of ~shadow iregs;
    ftn = shadow_of ~shadow fregs;
  }

(* An image is valid for exactly the (code, tags) pair it was compiled
   against: tag rows are baked into the closures, so running it under
   any other mask would silently miscount ordinals. Campaigns reuse one
   tags array across every trial of a prepared target, so physical
   equality is the precise check, not an approximation. Its flavour
   must be the machine's: a plain image keeps no shadow state and
   counts nothing, and no flavour both counts and taints. *)
let check_image ~count_exec ~taint (image : image option)
    (injection : injection option) (code : Code.t) =
  match image with
  | None -> ()
  | Some img ->
    if img.icode != code then
      invalid_arg "Interp: image was compiled from a different program";
    let want =
      match (count_exec, taint) with
      | false, false -> Plain
      | true, false -> Counting
      | false, true -> Taint
      | true, true ->
        invalid_arg
          "Interp: a counting taint machine requires the reference engine"
    in
    if img.iflavour <> want then
      invalid_arg
        (Printf.sprintf "Interp: a %s machine cannot run a %s image"
           (flavour_name want) (flavour_name img.iflavour));
    let tags = match injection with Some { tags; _ } -> tags | None -> no_ops in
    if
      not
        (img.itags == tags
        || (Array.length img.itags = 0 && Array.length tags = 0))
    then invalid_arg "Interp: image was compiled with a different tag mask"

(* The tracker shadows every 4-byte cell of the memory image. *)
let tracker ~taint memory =
  if taint then Some (make_tracker ~cells:(Memory.size_bytes memory / 4))
  else None

(* The one initializer of the machine record, behind both [make] (a
   fresh run at the entry function) and [restore] (a resumed snapshot):
   it validates the image, decodes the injection into the plan arrays
   and tag rows, and starts the plan cursor at [inj_seen]. [stack] is
   the live frame stack, innermost first and never empty. *)
let init ~image ~injection ~taint ~count_exec ~budget ~memory ~dyn ~inj_seen
    ~depth ~stack (code : Code.t) : t =
  check_image ~count_exec ~taint image injection code;
  let all_tags, plan_ords, plan_bits =
    match (injection : injection option) with
    | Some { tags; plan_ords; plan_bits } -> (tags, plan_ords, plan_bits)
    | None -> ([||], no_counts, no_counts)
  in
  if Array.length plan_ords > 0 && plan_ords.(0) < inj_seen then
    invalid_arg "Interp.resume: plan ordinal precedes snapshot";
  (* Per-function execution counters are only materialized when
     requested: campaigns run hundreds of trials per prepared target
     and none of them profiles. *)
  let exec_counts =
    if count_exec then
      Array.map
        (fun (df : Code.dfunc) -> Array.make (Array.length df.Code.dbody) 0)
        code.Code.funcs
    else [||]
  in
  let head = List.hd stack in
  {
    code;
    memory;
    budget;
    count_exec;
    exec_counts;
    all_tags;
    has_injection = Array.length all_tags > 0;
    plan_ords;
    plan_bits;
    cursor = 0;
    next_planned =
      (if Array.length plan_ords > 0 then plan_ords.(0) else max_int);
    dyn;
    inj_seen;
    landed = 0;
    land_fids = Array.make (Array.length plan_ords) 0;
    land_pcs = Array.make (Array.length plan_ords) 0;
    cur_fid = head.fid;
    stack;
    depth;
    status = Running;
    taint = tracker ~taint memory;
    fast = (match image with Some img -> img.iops | None -> [||]);
    pause_at = max_int;
    run_fr = head;
  }

(* Without [memory] the machine lays out the program's globals in the
   strict model; campaigns pass a copy of their target's prototype. *)
let make ?image ?injection ?(budget = default_budget) ?(count_exec = false)
    ?(taint = false) ?memory (code : Code.t) : t =
  let memory =
    match memory with Some mem -> mem | None -> Memory.of_prog code.Code.prog
  in
  init ~image ~injection ~taint ~count_exec ~budget ~memory ~dyn:0
    ~inj_seen:0 ~depth:0
    ~stack:[ fresh_frame code ~shadow:taint code.Code.entry_fid ]
    code

let advance_plan m =
  let c = m.cursor + 1 in
  m.cursor <- c;
  m.next_planned <-
    (if c < Array.length m.plan_ords then Array.unsafe_get m.plan_ords c
     else max_int);
  m.landed <- m.landed + 1;
  Array.unsafe_get m.plan_bits (c - 1)

(* Landing-site record: (fid, pc) per plan entry, written into arrays
   preallocated at plan length — no allocation on the landing path, and
   plans hold only a handful of entries. *)
let record_land m pc =
  m.land_fids.(m.landed - 1) <- m.cur_fid;
  m.land_pcs.(m.landed - 1) <- pc

(* Fault hooks: called with the body index of the defining instruction
   and the freshly computed value, on every value-producing write-back
   (including call-return write-back, attributed to the DCall). *)
let inject_i m ftags pc v =
  if m.has_injection && Array.unsafe_get ftags pc then begin
    let ord = m.inj_seen in
    m.inj_seen <- ord + 1;
    if ord = m.next_planned then begin
      let bit = advance_plan m in
      record_land m pc;
      Value.flip_int ~bit:(bit land 31) v
    end
    else v
  end
  else v

let inject_f m ftags pc x =
  if m.has_injection && Array.unsafe_get ftags pc then begin
    let ord = m.inj_seen in
    m.inj_seen <- ord + 1;
    if ord = m.next_planned then begin
      let bit = advance_plan m in
      record_land m pc;
      Value.flip_float ~bit:(bit land 63) x
    end
    else x
  end
  else x

(* Pop the head frame and deliver [v] to its caller (or halt when it
   was the entry frame). Return write-back runs the injection hook at
   the caller's DCall, then steps the caller past the call. *)
let return m (v : Value.t option) =
  match m.stack with
  | [] -> assert false
  | [ _ ] -> m.status <- Done_ v
  | _ :: (caller :: _ as rest) ->
    m.stack <- rest;
    m.depth <- m.depth - 1;
    let df = m.code.Code.funcs.(caller.fid) in
    m.cur_fid <- caller.fid;
    (match df.Code.dbody.(caller.pc) with
     | Code.DCall c ->
       (if c.Code.dst >= 0 then
          let ftags =
            if m.has_injection then m.all_tags.(caller.fid) else no_tags
          in
          match v with
          | Some (Value.I x) when not c.Code.dst_flt ->
            caller.iregs.(c.Code.dst) <- inject_i m ftags caller.pc x
          | Some (Value.F x) when c.Code.dst_flt ->
            caller.fregs.(c.Code.dst) <- inject_f m ftags caller.pc x
          | _ -> invalid_arg "return bank mismatch at runtime");
       caller.pc <- caller.pc + 1
     | _ -> assert false)

let is_running m = match m.status with Running -> true | _ -> false

(* --------------------------- snapshots --------------------------- *)

(* An immutable copy of a paused machine's full architectural state.
   Snapshots are taken during a fault-free pass (no landed faults, no
   partially consumed plan), so they carry no plan bookkeeping: resume
   installs a fresh plan whose ordinals must all lie at or after the
   snapshot's ordinal. Restore copies everything mutable, so one
   snapshot can seed any number of trials concurrently — including
   read-only sharing across domains. A snapshot carries no engine
   state: it can be captured under one engine and resumed under the
   other, which the cross-engine differential suite exercises.

   Nor does a snapshot carry shadow taint: fresh taint is only seeded
   when a fault lands, so at any capture ([landed = 0]) every mask is
   [Taint.none] and the tracker is empty. A taint machine restored with
   zeroed masks and a fresh tracker is therefore exact.

   The memory image is frozen: a full copy, or — when the capture is
   chained onto the previous checkpoint of the same pass — only the
   cells that changed since it ([Memory.freeze]). *)
type snapshot = {
  s_code : Code.t;
  s_budget : int;
  s_memory : Memory.frozen;
  s_frames : frame array;  (* innermost first, like the live stack *)
  s_depth : int;
  s_dyn : int;
  s_inj_seen : int;
}

let copy_frame ~shadow fr =
  {
    fr with
    iregs = Array.copy fr.iregs;
    fregs = Array.copy fr.fregs;
    itn = shadow_of ~shadow fr.iregs;
    ftn = shadow_of ~shadow fr.fregs;
  }

(* [copy] is a snapshot's copy of the live frame [fr] as it stood then:
   same function, pc and registers, floats compared bit for bit. *)
let same_frame (copy : frame) (fr : frame) =
  copy.fid = fr.fid && copy.pc = fr.pc && copy.iregs = fr.iregs
  &&
  let a = copy.fregs and b = fr.fregs in
  Array.length a = Array.length b
  &&
  let rec eq i =
    i = Array.length a
    || Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i))
       && eq (i + 1)
  in
  eq 0

(* Snapshot frames are never mutated ([restore] copies them), so a
   capture chained onto [prev] shares each of [prev]'s frame copies
   that still matches the live frame at the same depth: the callers
   parked below the running frame rarely change between two
   checkpoints. *)
let frames_of ?prev stack =
  let live = Array.of_list stack in
  let n = Array.length live in
  let before = match prev with Some p -> p.s_frames | None -> [||] in
  Array.mapi
    (fun i fr ->
      let j = Array.length before - n + i in
      if j >= 0 && same_frame before.(j) fr then before.(j)
      else copy_frame ~shadow:false fr)
    live

(* The state capture behind [capture]; the counted golden pass
   (Snapshot.golden) also takes it from its counting machine, whose
   checkpoints are only ever resumed at re-derived ordinals. [root], a
   frozen image equal to the machine's memory, is shared instead of
   frozen anew. *)
let freeze_state ?prev ?root m : snapshot =
  (match m.status with
   | Running -> ()
   | _ -> invalid_arg "Interp.capture: machine has halted");
  if m.landed > 0 then
    invalid_arg "Interp.capture: snapshots must be fault-free";
  {
    s_code = m.code;
    s_budget = m.budget;
    s_memory =
      (match root with
       | Some r -> r
       | None ->
         Memory.freeze
           ?prev:(Option.map (fun (p, running) -> (p.s_memory, running)) prev)
           m.memory);
    s_frames = frames_of ?prev:(Option.map fst prev) m.stack;
    s_depth = m.depth;
    s_dyn = m.dyn;
    s_inj_seen = m.inj_seen;
  }

let capture ?prev m : snapshot =
  if m.count_exec then
    invalid_arg "Interp.capture: profiling machines are not snapshotable";
  freeze_state ?prev m

let snapshot_ordinal s = s.s_inj_seen
let snapshot_dyn s = s.s_dyn
let snapshot_memory s = Memory.thaw s.s_memory

(* A machine resuming [s] on [memory], which already holds the
   snapshot's image, at [ordinal] under [budget]: with the snapshot's
   own, this is [restore]; with others, a checkpoint of one golden pass
   restarts under another tag mask at the ordinal it sits at under that
   mask (Snapshot.derive). *)
let restore_on ?image ?injection ?(taint = false) ~memory ~ordinal ~budget
    (s : snapshot) : t =
  init ~image ~injection ~taint ~count_exec:false ~budget ~memory ~dyn:s.s_dyn
    ~inj_seen:ordinal ~depth:s.s_depth
    ~stack:(Array.to_list (Array.map (copy_frame ~shadow:taint) s.s_frames))
    s.s_code

(* [memory], when given, is a working image the snapshot is thawed
   into, its arrays reused. *)
let restore ?image ?injection ?taint ?memory (s : snapshot) : t =
  let memory =
    match memory with
    | Some mem ->
      Memory.thaw_into s.s_memory mem;
      mem
    | None -> Memory.thaw s.s_memory
  in
  restore_on ?image ?injection ?taint ~memory ~ordinal:s.s_inj_seen
    ~budget:s.s_budget s

(* Fid of the frame the dispatch loop is executing in. At a pause this
   is exactly the frame that consumed the most recent injectable
   ordinal: the hook bumps [inj_seen] at write-back (with [cur_fid]
   already synced — [return] re-syncs it before the call-return
   write-back hook runs) and the pause check sits at the top of
   dispatch, before any frame switch can follow. Compositional
   campaigns read it to attribute an ordinal to its owning section. *)
let machine_fid m = m.cur_fid

(* Content digest of a snapshot's full architectural state. [fid_key]
   names each stack frame's function with a rename-stable identity
   (section local hashes in compositional campaigns) so the digest
   survives renames/reorders but changes with any frame code, register,
   pc, counter or memory difference. *)
let snapshot_digest ~fid_key (s : snapshot) : string =
  let b = Buffer.create 1024 in
  Buffer.add_int64_le b (Int64.of_int s.s_budget);
  Buffer.add_int64_le b (Int64.of_int s.s_dyn);
  Buffer.add_int64_le b (Int64.of_int s.s_inj_seen);
  Buffer.add_int64_le b (Int64.of_int s.s_depth);
  Array.iter
    (fun fr ->
      Buffer.add_string b (fid_key fr.fid);
      Buffer.add_int64_le b (Int64.of_int fr.pc);
      Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) fr.iregs;
      Array.iter
        (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))
        fr.fregs;
      Buffer.add_char b ';')
    s.s_frames;
  Buffer.add_string b (Memory.digest (Memory.thaw s.s_memory));
  Digest.to_hex (Digest.string (Buffer.contents b))
