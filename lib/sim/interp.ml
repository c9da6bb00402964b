(* Functional simulator.

   Executes a decoded [Code.t] image: no timing model, exact
   architectural state, faithful trap semantics — the SimpleScalar
   "sim-safe" role in the paper's methodology. The interpreter exposes
   the paper's fault-injection hook: an [injection] carries a
   per-instruction injectability mask (the tagging analysis output) and
   a plan mapping ordinals *among dynamic executions of injectable
   instructions* to bit positions. When execution reaches a planned
   ordinal, the bit is flipped in the just-computed destination value
   before write-back, and the corruption then propagates
   architecturally.

   The plan is kept as a pair of parallel arrays sorted by ordinal and
   consumed with a monotone cursor: ordinals are assigned in increasing
   order, so "is this ordinal planned?" is a single integer compare
   against the next pending entry instead of a hash probe on every
   injectable execution.

   Execution is an *explicit machine* (see Machine): a frame stack of
   {fid; pc; iregs; fregs} plus the dynamic counters, so the full
   architectural state is a first-class value — execution can pause at
   any injectable-ordinal boundary, be captured into an immutable
   [snapshot], and resume later, the basis of checkpointed
   fork-from-prefix campaigns (see Snapshot and Core.Campaign).

   Two engines drive that machine:
   - the *reference* engine is the match-dispatch loop below ([exec]):
     one [Code.d] match per dynamic instruction, easy to audit against
     the semantics;
   - the *fast* engine (Threaded) pre-compiles each function body into
     a flat array of specialized closures with direct threading, and is
     selected by building the machine from a compiled [image].
   Both engines produce bit-identical results — trial records,
   outcomes, trap sites, landed-fault attribution, snapshots — which
   the differential suite in test_engine pins on random programs.

   Shadow taint (DESIGN §11) is optional machine state that both
   engines maintain. On a machine built with [~taint:true] the
   reference loop runs each instruction's shadow transfer ([shadow]:
   sinks, destination mask, fresh taint where a fault will land) just
   before dispatching it; the fast engine runs the same transfer,
   specialised at compile time, from the taint flavour of an image
   ([taint_image]). Both call the same transfer helpers, defined in
   Threaded so that the fast engine inlines them (Threaded.shade and
   its siblings, shadow_args and shadow_return). Plain, counting and
   taint runs of the reference loop share one step function, so they
   execute instructions in the same order and land faults at the same
   ordinals; taint machines pause, capture and resume like any other.
   The reference taint path is the differential oracle of the fast
   one. *)

open Machine

type injection = Machine.injection = {
  tags : bool array array;  (* fid -> body index -> injectable *)
  plan_ords : int array;    (* planned ordinals, strictly increasing *)
  plan_bits : int array;    (* bit to flip, parallel to [plan_ords] *)
}

let injection ~tags ~plan : injection =
  let plan = List.sort (fun (a, _) (b, _) -> Int.compare a b) plan in
  let n = List.length plan in
  let ords = Array.make n 0 and bits = Array.make n 0 in
  List.iteri
    (fun i (o, b) ->
      if o < 0 then invalid_arg "Interp.injection: negative ordinal";
      if i > 0 && ords.(i - 1) = o then
        invalid_arg "Interp.injection: duplicate ordinal";
      ords.(i) <- o;
      bits.(i) <- b)
    plan;
  { tags; plan_ords = ords; plan_bits = bits }

type outcome =
  | Done of Value.t option
  | Trapped of Trap.t
  | Timeout

type result = {
  outcome : outcome;
  dyn_count : int;          (* dynamic instructions executed *)
  injectable_seen : int;    (* dynamic executions of injectable instructions *)
  faults_landed : int;      (* plan entries actually applied *)
  memory : Memory.t;
  exec_counts : int array array;  (* fid -> body index -> executions *)
  trap_site : (string * int) option;
      (* (function name, body index) of the trapping instruction when
         [outcome] is [Trapped]; [None] otherwise *)
  landed_sites : (string * int) array;
      (* (function name, body index) of each landed fault, in landing
         order; length [faults_landed]. What Harness.Profile
         tallies. *)
  fault_flow : Taint.summary option;
      (* [Some] iff [taint] was set: the shadow-taint fault-flow
         classification of this run *)
}

exception Timeout_exn = Machine.Timeout_exn

let max_call_depth = Machine.max_call_depth

(* ---------------------------- engines ---------------------------- *)

type engine =
  | Fast
  | Ref

let engine_name = function Fast -> "fast" | Ref -> "ref"

type image = Machine.image

let compile ?tags code = Threaded.compile ?tags code
let taint_image = Threaded.taint_of

type machine = Machine.t

(* A counting machine on the fast engine runs the counting flavour of
   its image, compiled here from the same (code, tags) pair. *)
let machine ?image ?injection ?budget ?(count_exec = false) ?taint ?memory code
    : machine =
  let image =
    match image with
    | Some (img : image) when count_exec && img.iflavour = Plain ->
      Some (Threaded.compile ~tags:img.itags ~flavour:Counting img.icode)
    | _ -> image
  in
  Machine.make ?image ?injection ?budget ~count_exec ?taint ?memory code

(* ------------------------- shadow taint ------------------------- *)

(* Shadow-taint transfer of one instruction on a taint machine, run by
   the reference loop just before the instruction executes, over the
   fast engine's transfer helpers (Threaded). It hits the sinks the
   operands reach and sets the shadow of the destination from the
   operands' shadows, plus fresh taint when the write-back will land a
   planned fault ([Threaded.shade]). Doing this before execution is
   exact: the operands (registers, the loaded cell) are read before
   the instruction can overwrite them, and when the instruction traps
   instead of writing back, the run ends there. Calls are shadowed
   where frames change: the DCall arm copies argument masks into the
   callee, and [Threaded.shadow_return] carries the return register's
   mask back. *)
let shadow m tr ftags (fr : frame) pc (ins : Code.d) =
  let open Threaded in
  let itn = fr.itn and ftn = fr.ftn and iregs = fr.iregs in
  let lands = will_land m ftags pc in
  let cell a = cell_index m.memory a
  and byte_cell a = byte_cell_index m.memory a in
  match ins with
  | Code.DNop | Code.DJmp _ | Code.DCall _ | Code.DRetI _ | Code.DRetF _
  | Code.DRetV ->
    ()
  | Code.DLi (d, _) | Code.DLa (d, _) -> shade tr ~lands itn d Taint.none
  | Code.DLf (d, _) -> shade tr ~lands ftn d Taint.none
  | Code.DMovI (d, s) -> shade tr ~lands itn d itn.(s)
  | Code.DMovF (d, s) -> shade tr ~lands ftn d ftn.(s)
  | Code.DBin (op, d, a, b) ->
    (match op with
     | Ir.Instr.Div | Ir.Instr.Rem -> sink_trap_operand tr itn.(b)
     | _ -> ());
    shade tr ~lands itn d (itn.(a) lor itn.(b))
  | Code.DBini (_, d, a, _) -> shade tr ~lands itn d itn.(a)
  | Code.DCmp (_, d, a, b) -> shade tr ~lands itn d (itn.(a) lor itn.(b))
  | Code.DFbin (_, d, a, b) -> shade tr ~lands ftn d (ftn.(a) lor ftn.(b))
  | Code.DFun (_, d, s) -> shade tr ~lands ftn d ftn.(s)
  | Code.DFcmp (_, d, a, b) -> shade tr ~lands itn d (ftn.(a) lor ftn.(b))
  | Code.DI2f (d, s) -> shade tr ~lands ftn d itn.(s)
  | Code.DF2i (d, s) ->
    sink_trap_operand tr ftn.(s);
    shade tr ~lands itn d ftn.(s)
  | Code.DLw (d, b, o) ->
    shadow_load tr ~lands itn d (cell (iregs.(b) + o)) ~base:itn.(b)
  | Code.DLb (d, b, o) ->
    shadow_load tr ~lands itn d (byte_cell (iregs.(b) + o)) ~base:itn.(b)
  | Code.DLwf (d, b, o) ->
    shadow_load tr ~lands ftn d (cell (iregs.(b) + o)) ~base:itn.(b)
  | Code.DSw (v, b, o) ->
    shadow_store tr ~byte:false (cell (iregs.(b) + o)) ~base:itn.(b) itn.(v)
  | Code.DSb (v, b, o) ->
    shadow_store tr ~byte:true (byte_cell (iregs.(b) + o)) ~base:itn.(b)
      itn.(v)
  | Code.DSwf (v, b, o) ->
    shadow_store tr ~byte:false (cell (iregs.(b) + o)) ~base:itn.(b) ftn.(v)
  | Code.DBr (_, a, b, _) ->
    sink_control tr ~fid:fr.fid ~pc (itn.(a) lor itn.(b))
  | Code.DBrz (_, a, _) -> sink_control tr ~fid:fr.fid ~pc itn.(a)

(* The reference dispatch loop. Executes until the machine halts, or
   pauses as soon as [m.pause_at] injectable ordinals have been seen —
   the pause check sits at the top of dispatch and ordinals advance by
   at most one per dispatched instruction, so a pause lands exactly at
   ordinal [pause_at] (before any ordinal >= pause_at is consumed).

   The outer loop re-caches per-frame state (body, registers, shadow
   masks, tag row, counter row) whenever a call or return switches the
   head frame; the inner [loop] is a tail-recursive hot path over one
   frame. On a taint machine each dispatched instruction first runs
   its [shadow] transfer; the [taint] flag guarding it is read once
   per entry (a machine never switches taint on or off), so a plain
   run pays one predictable branch per instruction and never touches
   the (empty) masks. *)
let exec m =
  let funcs = m.code.Code.funcs in
  let memory = m.memory in
  let pause_at = m.pause_at in
  let taint = Option.is_some m.taint in
  let tr = match m.taint with Some tr -> tr | None -> make_tracker ~cells:0 in
  while is_running m do
    let fr = match m.stack with fr :: _ -> fr | [] -> assert false in
    let df = Array.unsafe_get funcs fr.fid in
    let body = df.Code.dbody in
    let len = Array.length body in
    let iregs = fr.iregs and fregs = fr.fregs in
    let counts = if m.count_exec then m.exec_counts.(fr.fid) else no_counts in
    let ftags = if m.has_injection then m.all_tags.(fr.fid) else no_tags in
    m.cur_fid <- fr.fid;
    (* Returns unit when the head frame changed (call or return) or the
       machine halted; the outer loop then re-enters. *)
    let rec loop pc =
      fr.pc <- pc;
      if m.inj_seen >= pause_at then raise Pause_exn;
      if pc >= len then
        (* The validator guarantees terminators, so this is only
           reachable through interpreter bugs; fail loudly. *)
        invalid_arg (Printf.sprintf "pc past end of %s" df.Code.name);
      let d = Array.unsafe_get body pc in
      (match d with
       | Code.DNop -> ()
       | _ ->
         m.dyn <- m.dyn + 1;
         if m.dyn > m.budget then raise Timeout_exn;
         if m.count_exec then counts.(pc) <- counts.(pc) + 1);
      if taint then shadow m tr ftags fr pc d;
      match d with
      | Code.DNop -> loop (pc + 1)
      | Code.DLi (d, v) ->
        iregs.(d) <- inject_i m ftags pc v;
        loop (pc + 1)
      | Code.DLf (d, x) ->
        fregs.(d) <- inject_f m ftags pc x;
        loop (pc + 1)
      | Code.DLa (d, addr) ->
        iregs.(d) <- inject_i m ftags pc addr;
        loop (pc + 1)
      | Code.DMovI (d, s) ->
        iregs.(d) <- inject_i m ftags pc iregs.(s);
        loop (pc + 1)
      | Code.DMovF (d, s) ->
        fregs.(d) <- inject_f m ftags pc fregs.(s);
        loop (pc + 1)
      | Code.DBin (op, d, a, b) ->
        iregs.(d) <- inject_i m ftags pc (binop_i op iregs.(a) iregs.(b));
        loop (pc + 1)
      | Code.DBini (op, d, a, n) ->
        iregs.(d) <- inject_i m ftags pc (binop_i op iregs.(a) n);
        loop (pc + 1)
      | Code.DCmp (op, d, a, b) ->
        iregs.(d) <-
          inject_i m ftags pc (if cmp_i op iregs.(a) iregs.(b) then 1 else 0);
        loop (pc + 1)
      | Code.DFbin (op, d, a, b) ->
        fregs.(d) <- inject_f m ftags pc (binop_f op fregs.(a) fregs.(b));
        loop (pc + 1)
      | Code.DFun (op, d, s) ->
        fregs.(d) <- inject_f m ftags pc (unop_f op fregs.(s));
        loop (pc + 1)
      | Code.DFcmp (op, d, a, b) ->
        iregs.(d) <-
          inject_i m ftags pc (if cmp_f op fregs.(a) fregs.(b) then 1 else 0);
        loop (pc + 1)
      | Code.DI2f (d, s) ->
        fregs.(d) <- inject_f m ftags pc (float_of_int iregs.(s));
        loop (pc + 1)
      | Code.DF2i (d, s) ->
        iregs.(d) <- inject_i m ftags pc (Threaded.f2i fregs.(s));
        loop (pc + 1)
      | Code.DLw (d, b, o) ->
        iregs.(d) <- inject_i m ftags pc (Memory.load_int memory (iregs.(b) + o));
        loop (pc + 1)
      | Code.DSw (v, b, o) ->
        Memory.store_int memory (iregs.(b) + o) iregs.(v);
        loop (pc + 1)
      | Code.DLb (d, b, o) ->
        iregs.(d) <-
          inject_i m ftags pc (Memory.load_byte memory (iregs.(b) + o));
        loop (pc + 1)
      | Code.DSb (v, b, o) ->
        Memory.store_byte memory (iregs.(b) + o) iregs.(v);
        loop (pc + 1)
      | Code.DLwf (d, b, o) ->
        fregs.(d) <- inject_f m ftags pc (Memory.load_flt memory (iregs.(b) + o));
        loop (pc + 1)
      | Code.DSwf (v, b, o) ->
        Memory.store_flt memory (iregs.(b) + o) fregs.(v);
        loop (pc + 1)
      | Code.DBr (op, a, b, target) ->
        if cmp_i op iregs.(a) iregs.(b) then loop target else loop (pc + 1)
      | Code.DBrz (op, a, target) ->
        if cmp_i op iregs.(a) 0 then loop target else loop (pc + 1)
      | Code.DJmp target -> loop target
      | Code.DCall c ->
        (* Depth check before the push: the overflow is attributed to
           this call site (the head frame's pc is parked here), with
           the callee's would-be depth as payload. *)
        let callee_depth = m.depth + 1 in
        if callee_depth > max_call_depth then
          raise (Trap.Error (Trap.Call_stack_overflow callee_depth));
        let nf = fresh_frame m.code ~shadow:taint c.Code.fid in
        Array.iter
          (fun (src, dst) -> nf.iregs.(dst) <- iregs.(src))
          c.Code.iargs;
        Array.iter
          (fun (src, dst) -> nf.fregs.(dst) <- fregs.(src))
          c.Code.fargs;
        if taint then Threaded.shadow_args c ~caller:fr nf;
        m.depth <- callee_depth;
        m.stack <- nf :: m.stack
        (* head frame changed: fall out to the outer loop *)
      | Code.DRetI r ->
        if taint then Threaded.shadow_return m tr fr.itn.(r);
        return m (Some (Value.I iregs.(r)))
      | Code.DRetF r ->
        if taint then Threaded.shadow_return m tr fr.ftn.(r);
        return m (Some (Value.F fregs.(r)))
      | Code.DRetV -> return m None
    in
    loop fr.pc
  done

let advance m ~pause_at : [ `Paused | `Halted ] =
  match m.status with
  | Running -> (
    m.pause_at <- pause_at;
    try
      (if Array.length m.fast > 0 then Threaded.exec m else exec m);
      `Halted
    with
    | Pause_exn -> `Paused
    | Trap.Error t ->
      (* The head frame's pc is synced at every observable point, so it
         points at the trapping instruction; traps raised inside a
         callee are attributed innermost (the callee is the head
         frame). *)
      let site =
        match m.stack with fr :: _ -> Some (fr.fid, fr.pc) | [] -> None
      in
      m.status <- Trapped_ (t, site);
      `Halted
    | Timeout_exn ->
      m.status <- Timeout_;
      `Halted)
  | _ -> `Halted

(* Telemetry for one finished run. Cold path (once per run) and
   guarded by [Obs.enabled], so the dispatch loop stays oblivious to
   observability. Counter totals depend only on what the run executed,
   never on scheduling or engine — the jobs-invariance contract of
   lib/obs extends to engine-invariance. *)
let obs_run_counters ~dyn ~inj_seen ~landed ~outcome =
  if Obs.enabled () then begin
    Obs.count "sim.runs" 1;
    Obs.count "sim.instructions" dyn;
    Obs.count "sim.injectable_seen" inj_seen;
    if landed > 0 then Obs.count "sim.faults_landed" landed;
    match outcome with
    | Trapped t -> Obs.count ("sim.trap." ^ Trap.kind t) 1
    | Timeout -> Obs.count "sim.timeouts" 1
    | Done _ -> ()
  end

let finish m : result =
  (match advance m ~pause_at:max_int with
   | `Halted -> ()
   | `Paused -> assert false);
  let outcome, trap_site =
    match m.status with
    | Running -> assert false
    | Done_ v -> (Done v, None)
    | Timeout_ -> (Timeout, None)
    | Trapped_ (t, site) ->
      ( Trapped t,
        match site with
        | Some (fid, pc) -> Some (m.code.Code.funcs.(fid).Code.name, pc)
        | None -> None )
  in
  obs_run_counters ~dyn:m.dyn ~inj_seen:m.inj_seen ~landed:m.landed ~outcome;
  {
    outcome;
    dyn_count = m.dyn;
    injectable_seen = m.inj_seen;
    faults_landed = m.landed;
    memory = m.memory;
    exec_counts = m.exec_counts;
    trap_site;
    landed_sites =
      Array.init m.landed (fun i ->
          (m.code.Code.funcs.(m.land_fids.(i)).Code.name, m.land_pcs.(i)));
    fault_flow =
      Option.map
        (summarize ~func_name:(fun f -> m.code.Code.funcs.(f).Code.name))
        m.taint;
  }

(* --------------------------- snapshots --------------------------- *)

type snapshot = Machine.snapshot

let capture = Machine.capture
let snapshot_ordinal = Machine.snapshot_ordinal
let snapshot_dyn = Machine.snapshot_dyn
let snapshot_memory = Machine.snapshot_memory
let snapshot_digest = Machine.snapshot_digest
let machine_fid = Machine.machine_fid

let resume ?image ?injection ?taint ?memory (s : snapshot) : machine =
  Machine.restore ?image ?injection ?taint ?memory s

let run ?image ?injection ?budget ?count_exec ?taint ?memory code : result =
  finish (machine ?image ?injection ?budget ?count_exec ?taint ?memory code)

let done_exn r =
  match r.outcome with
  | Done _ -> r
  | Trapped t -> failwith ("fault-free run trapped: " ^ Trap.to_string t)
  | Timeout -> failwith "fault-free run exceeded budget"

(* Fault-free execution, trusting the program: raises on trap/timeout. *)
let run_exn ?image ?count_exec code = done_exn (run ?image ?count_exec code)
