(* Threaded-closure execution engine — the "fast" engine.

   [compile] lowers each decoded function body into a flat array of
   specialized closures, one per instruction. Operand bank indices,
   immediates, branch targets and the per-instruction injectability tag
   are all resolved at compile time and captured in the closure, so the
   hot path never re-matches a boxed [Code.d] variant, never consults
   the tag mask, and touches the register banks only through
   [Array.unsafe_get]/[unsafe_set] (indices were validated at decode).
   Control transfer is direct threading: every closure fetches its
   successor from the shared [ops] array and tail-calls it, so a whole
   basic-block chain runs without returning to a driver; the driver
   loop below re-enters only when the head frame changes (call or
   return) or the machine halts.

   Ops are *unary* closures over the machine; the head frame rides in
   [m.run_fr]. A unary unknown application compiles to a bare
   code-pointer load and jump in ocamlopt — no caml_apply arity check —
   and gives each instruction-class body its own indirect branch site,
   so the BTB sees one dispatch point per opcode instead of a single
   mega-morphic one.

   Equivalence contract with the reference loop (see Interp.exec; the
   differential suite in test_engine pins all of it):
   - dyn/budget: every non-DNop closure counts [dyn] against the budget
     before executing, so a timeout fires with [dyn = budget + 1] in
     both engines.
   - ordinals: [inj_seen] advances exactly on tagged write-backs (and
     call-return write-back via Machine.return), compiled statically
     into the closures from the same tag mask the reference engine
     reads dynamically.
   - pause: the reference engine checks [inj_seen >= pause_at] before
     every dispatch, but ordinals only move on tagged write-backs and
     frame switches — so checking right after each tagged write-back
     (here) and at each driver re-entry is state-identical: the pause
     lands at the same pc, dyn and ordinal.
   - trap provenance: closures park [fr.pc] before any operation that
     can raise [Trap.Error] (division, float-to-int, memory access,
     call-depth check), so Interp.advance attributes the trap to the
     same (fid, pc) site as the reference engine.

   One (code, tags) pair compiles to three flavours of table: plain
   (campaign trials), counting ([counted]: counted golden runs) and
   taint ([shadowed]: audit trials, which run each instruction's shadow
   transfer before the op). The flavours wrap the same plain closures
   and thread their chains through their own table, so a plain image
   carries no counting or shadow code at all; only DCall and the value
   returns have taint-specific arms.

   OCaml guarantees tail calls for exact-arity applications in native
   code, so closure-to-closure chaining runs in constant stack. *)

open Machine

let[@inline] ig (r : int array) i = Array.unsafe_get r i
let[@inline] is_ (r : int array) i v = Array.unsafe_set r i v
let[@inline] fg (r : float array) i : float = Array.unsafe_get r i
let[@inline] fs (r : float array) i (x : float) = Array.unsafe_set r i x

(* ------------------- per-instruction helpers -------------------

   Everything an op calls per executed instruction is defined in this
   module, so it inlines into the closures under any build profile (a
   call into another module is never inlined where modules compile
   [-opaque], as in dune's dev profile). The reference loop (Interp)
   calls the same definitions here, so each exists once. *)

(* Sign-extend the low 32 bits: the canonical form of every integer
   value in the machine (Value.sx32, written again here to inline). *)
let[@inline] sx32 v = ((v land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

let[@inline] f2i (x : float) =
  if Float.is_nan x || x >= 2147483648.0 || x < -2147483648.0 then
    raise (Trap.Error (Trap.Float_to_int_overflow x));
  int_of_float (Float.trunc x)

(* Memory fast paths: an access that is aligned (word and float),
   past the null guard, inside the image and of its cell's kind — the
   overwhelmingly common case in a healthy program — is served here;
   anything else re-runs Memory's full model (traps, lenient zero
   pages, misaligned truncation, kind confusion). A store of the right
   width needs no kind test: it overwrites the cell's kind. *)
let[@inline] in_image (mem : Memory.t) a = a >= 4 && a < mem.size_bytes
let[@inline] word_fits mem a = a land 3 = 0 && in_image mem a
let[@inline] holds (mem : Memory.t) a k =
  Bytes.unsafe_get mem.kind (a lsr 2) = k

let[@inline] load_int (mem : Memory.t) a =
  if word_fits mem a && holds mem a Memory.int_kind then
    Array.unsafe_get mem.ints (a lsr 2)
  else Memory.load_int mem a

let[@inline] load_flt (mem : Memory.t) a =
  if word_fits mem a && holds mem a Memory.flt_kind then
    Array.unsafe_get mem.flts (a lsr 2)
  else Memory.load_flt mem a

let[@inline] load_byte (mem : Memory.t) a =
  if in_image mem a && holds mem a Memory.int_kind then
    ((Array.unsafe_get mem.ints (a lsr 2) land 0xFFFFFFFF) lsr (8 * (a land 3)))
    land 0xFF
  else Memory.load_byte mem a

let[@inline] store_int (mem : Memory.t) a v =
  if word_fits mem a then begin
    Bytes.unsafe_set mem.kind (a lsr 2) Memory.int_kind;
    Array.unsafe_set mem.ints (a lsr 2) v
  end
  else Memory.store_int mem a v

let[@inline] store_flt (mem : Memory.t) a x =
  if word_fits mem a then begin
    Bytes.unsafe_set mem.kind (a lsr 2) Memory.flt_kind;
    Array.unsafe_set mem.flts (a lsr 2) x
  end
  else Memory.store_flt mem a x

(* Shadow taint transfer (Taint's header has the lattice and the
   sinks), run before the instruction it shadows by the taint flavour
   below ([shadowed]) and by the reference loop ([Interp.shadow]). *)

let[@inline] propagate tr (t : Taint.mask) =
  if t <> 0 then tr.propagated <- true

(* Anything that goes into or comes out of memory (or through a
   corrupted base) is a through-memory chain from here on. Clean stays
   clean. *)
let[@inline] stored (t : Taint.mask) = if t = 0 then 0 else t lor 2
let[@inline] loaded ~cell ~base = stored (cell lor base)

let[@inline] tainted (t : Taint.mask) = t land 1 <> 0
let[@inline] via_memory (t : Taint.mask) = t land 2 <> 0

let[@inline] sink_control tr ~fid ~pc t =
  if tainted t then
    if via_memory t then tr.control_via_memory <- tr.control_via_memory + 1
    else begin
      tr.control_free <- tr.control_free + 1;
      if tr.first_control_fid < 0 then begin
        tr.first_control_fid <- fid;
        tr.first_control_pc <- pc
      end
    end

let[@inline] sink_address tr t =
  if tainted t then tr.address_hits <- tr.address_hits + 1

let[@inline] sink_trap_operand tr t =
  if tainted t then tr.trap_operand_hits <- tr.trap_operand_hits + 1

let[@inline] sink_memory tr t =
  if tainted t then tr.memory_hits <- tr.memory_hits + 1

(* Shadow of a write-back to register [d] of the bank shadowed by [sh]:
   the operand taint [tv] flows into it, plus fresh (memory-free) taint
   when the write-back [lands] a planned fault. *)
let[@inline] shade tr ~lands (sh : Taint.mask array) d tv =
  propagate tr tv;
  Array.unsafe_set sh d (if lands then tv lor Taint.fresh else tv)

(* The cell a word access at [a] touches under [mem]'s model, or -1
   when it misses the image (lenient zero page) or would trap. The
   transfer runs before the access, and an access that traps ends the
   run, so -1 means "no cell to shadow", never a swallowed trap. Byte
   accesses resolve without alignment handling. *)
let[@inline] cell_index (mem : Memory.t) a =
  let a =
    if a land 3 = 0 then a else if mem.lenient then a land lnot 3 else -1
  in
  if in_image mem a then a lsr 2 else -1

let[@inline] byte_cell_index mem a = if in_image mem a then a lsr 2 else -1

(* A load through a base with taint [base] from cell [c] hits the
   address sink; the loaded value carries the cell's and the base's
   taint, memory-marked. *)
let[@inline] shadow_load tr ~lands sh d c ~base =
  sink_address tr base;
  let cell = if c >= 0 then Char.code (Bytes.unsafe_get tr.tmem c) else 0 in
  shade tr ~lands sh d (loaded ~cell ~base)

(* A store of a value with taint [tv] hits the address and memory
   sinks and memory-marks [tv] and the base's taint into cell [c]. A
   byte store overwrites one lane of its cell, so it unions. *)
let[@inline] shadow_store tr ~byte c ~base tv =
  sink_address tr base;
  sink_memory tr tv;
  if c >= 0 then
    let t = stored (tv lor base) in
    let t = if byte then t lor Char.code (Bytes.unsafe_get tr.tmem c) else t in
    Bytes.unsafe_set tr.tmem c (Char.unsafe_chr t)

(* True iff the next injection hook run at [pc] of the function whose
   tag row is [ftags] lands a planned fault: the instruction is tagged
   and its ordinal is the next planned one. Ordinals only move inside
   the hook, so this holds from dispatch until the instruction's
   write-back. The taint flavour knows the tag at compile time and
   tests [lands] instead. *)
let will_land m ftags pc =
  m.has_injection && Array.unsafe_get ftags pc && m.inj_seen = m.next_planned

(* Arguments carry their masks into the callee frame [callee] of call
   [c] made from [caller]. *)
let shadow_args (c : Code.call) ~(caller : frame) (callee : frame) =
  Array.iter
    (fun (src, dst) -> callee.itn.(dst) <- caller.itn.(src))
    c.Code.iargs;
  Array.iter
    (fun (src, dst) -> callee.ftn.(dst) <- caller.ftn.(src))
    c.Code.fargs

(* Shadow of a return whose value has taint [tv], run just before
   [return] pops the head frame: the caller's destination is shaded at
   its DCall, where [return] runs the write-back's injection hook. A
   tainted entry return value is program output contamination even
   though no frame survives to hold it. *)
let shadow_return m tr tv =
  match m.stack with
  | [ _ ] -> propagate tr tv
  | _ :: caller :: _ -> (
    match m.code.Code.funcs.(caller.fid).Code.dbody.(caller.pc) with
    | Code.DCall c when c.Code.dst >= 0 ->
      let ftags =
        if m.has_injection then m.all_tags.(caller.fid) else no_tags
      in
      shade tr
        ~lands:(will_land m ftags caller.pc)
        (if c.Code.dst_flt then caller.ftn else caller.itn)
        c.Code.dst tv
    | _ -> ())
  | [] -> ()

(* --------------------------- the engine --------------------------- *)

(* Bind the incremented count before storing it so the budget compare
   uses the register value — re-reading [m.dyn] after the store would
   put a store-to-load forward on the critical path of every single
   instruction. *)
let[@inline] bump m =
  let d = m.dyn + 1 in
  m.dyn <- d;
  if d > m.budget then raise Timeout_exn

let[@inline] next (ops : op array) pc m = (Array.unsafe_get ops (pc + 1)) m

(* Planned-fault landing: cold path, one call per plan entry. *)
let land_i m pc v =
  let bit = advance_plan m in
  record_land m pc;
  Value.flip_int ~bit:(bit land 31) v

let land_f m pc x =
  let bit = advance_plan m in
  record_land m pc;
  Value.flip_float ~bit:(bit land 63) x

(* Write-back for a tagged (injectable) destination: advance the
   ordinal, apply a planned flip, then honor a pending pause exactly
   where the reference engine would — at the next dispatch boundary,
   with [fr.pc] on the successor instruction. *)
let wbi (ops : op array) pc d m (fr : frame) v =
  let ord = m.inj_seen in
  m.inj_seen <- ord + 1;
  let v = if ord = m.next_planned then land_i m pc v else v in
  is_ fr.iregs d v;
  if ord + 1 >= m.pause_at then begin
    fr.pc <- pc + 1;
    raise Pause_exn
  end;
  next ops pc m

let wbf (ops : op array) pc d m (fr : frame) x =
  let ord = m.inj_seen in
  m.inj_seen <- ord + 1;
  let x = if ord = m.next_planned then land_f m pc x else x in
  fs fr.fregs d x;
  if ord + 1 >= m.pause_at then begin
    fr.pc <- pc + 1;
    raise Pause_exn
  end;
  next ops pc m

(* Specialized write-back dispatch: [tg] is the instruction's
   compile-time injectability. The untagged branch is a register store
   plus the threaded jump; the predictable [if tg] costs nothing
   against eliminating the tag-row load and hook call of the reference
   engine. *)
let[@inline] seti (ops : op array) tg pc d m (fr : frame) v =
  if tg then wbi ops pc d m fr v
  else begin
    is_ fr.iregs d v;
    next ops pc m
  end

let[@inline] setf (ops : op array) tg pc d m (fr : frame) x =
  if tg then wbf ops pc d m fr x
  else begin
    fs fr.fregs d x;
    next ops pc m
  end

let div_by_zero (fr : frame) pc =
  fr.pc <- pc;
  raise (Trap.Error Trap.Division_by_zero)

(* Helpers of the taint flavour (see [shadowed]). *)
let[@inline] live m = m.dyn < m.budget
let[@inline] lands tg m = tg && m.inj_seen = m.next_planned
let[@inline] cell m b o = cell_index m.memory (ig m.run_fr.iregs b + o)
let[@inline] byte_cell m b o =
  byte_cell_index m.memory (ig m.run_fr.iregs b + o)

(* The tracker of a taint machine: a taint image runs on nothing else
   ([Machine.check_image]). *)
let[@inline] tracker_of m =
  match m.taint with Some tr -> tr | None -> assert false

(* [taint] compiles the taint-aware DCall and return arms (see
   [shadowed]); every other arm is the same closure in every flavour. *)
let rec compile_instr ~taint (code : Code.t) (ops : op array) tg pc
    (ins : Code.d) : op =
  match ins with
  | Code.DNop -> fun m -> next ops pc m
  | Code.DLi (d, v) ->
    fun m ->
      bump m;
      seti ops tg pc d m m.run_fr v
  | Code.DLf (d, x) ->
    fun m ->
      bump m;
      setf ops tg pc d m m.run_fr x
  | Code.DLa (d, addr) ->
    fun m ->
      bump m;
      seti ops tg pc d m m.run_fr addr
  | Code.DMovI (d, s) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      seti ops tg pc d m fr (ig fr.iregs s)
  | Code.DMovF (d, s) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      setf ops tg pc d m fr (fg fr.fregs s)
  | Code.DBin (op, d, a, b) -> (
    match op with
    | Ir.Instr.Add ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (sx32 (ig r a + ig r b))
    | Ir.Instr.Sub ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (sx32 (ig r a - ig r b))
    | Ir.Instr.Mul ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (sx32 (ig r a * ig r b))
    | Ir.Instr.Div ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        let bv = ig r b in
        if bv = 0 then div_by_zero fr pc;
        seti ops tg pc d m fr (sx32 (ig r a / bv))
    | Ir.Instr.Rem ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        let bv = ig r b in
        if bv = 0 then div_by_zero fr pc;
        seti ops tg pc d m fr (sx32 (ig r a mod bv))
    | Ir.Instr.And ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (ig r a land ig r b)
    | Ir.Instr.Or ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (ig r a lor ig r b)
    | Ir.Instr.Xor ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (ig r a lxor ig r b)
    | Ir.Instr.Sll ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (sx32 (ig r a lsl (ig r b land 31)))
    | Ir.Instr.Srl ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr
          (sx32 ((ig r a land 0xFFFFFFFF) lsr (ig r b land 31)))
    | Ir.Instr.Sra ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (ig r a asr (ig r b land 31)))
  | Code.DBini (op, d, a, n) -> (
    match op with
    | Ir.Instr.Add ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 (ig fr.iregs a + n))
    | Ir.Instr.Sub ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 (ig fr.iregs a - n))
    | Ir.Instr.Mul ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 (ig fr.iregs a * n))
    | Ir.Instr.Div ->
      (* The divisor is a compile-time immediate, so the zero check
         resolves now: either every execution traps or none does. The
         trapping closure still counts the instruction first, like the
         reference loop. *)
      if n = 0 then
        fun m ->
          bump m;
          div_by_zero m.run_fr pc
      else
        fun m ->
          bump m;
          let fr = m.run_fr in
          seti ops tg pc d m fr (sx32 (ig fr.iregs a / n))
    | Ir.Instr.Rem ->
      if n = 0 then
        fun m ->
          bump m;
          div_by_zero m.run_fr pc
      else
        fun m ->
          bump m;
          let fr = m.run_fr in
          seti ops tg pc d m fr (sx32 (ig fr.iregs a mod n))
    | Ir.Instr.And ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (ig fr.iregs a land n)
    | Ir.Instr.Or ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (ig fr.iregs a lor n)
    | Ir.Instr.Xor ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (ig fr.iregs a lxor n)
    | Ir.Instr.Sll ->
      let sh = n land 31 in
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 (ig fr.iregs a lsl sh))
    | Ir.Instr.Srl ->
      let sh = n land 31 in
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (sx32 ((ig fr.iregs a land 0xFFFFFFFF) lsr sh))
    | Ir.Instr.Sra ->
      let sh = n land 31 in
      fun m ->
        bump m;
        let fr = m.run_fr in
        seti ops tg pc d m fr (ig fr.iregs a asr sh))
  | Code.DCmp (op, d, a, b) -> (
    match op with
    | Ir.Instr.Eq ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a = ig r b then 1 else 0)
    | Ir.Instr.Ne ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a <> ig r b then 1 else 0)
    | Ir.Instr.Lt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a < ig r b then 1 else 0)
    | Ir.Instr.Le ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a <= ig r b then 1 else 0)
    | Ir.Instr.Gt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a > ig r b then 1 else 0)
    | Ir.Instr.Ge ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.iregs in
        seti ops tg pc d m fr (if ig r a >= ig r b then 1 else 0))
  | Code.DFbin (op, d, a, b) -> (
    match op with
    | Ir.Instr.Fadd ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        setf ops tg pc d m fr (fg r a +. fg r b)
    | Ir.Instr.Fsub ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        setf ops tg pc d m fr (fg r a -. fg r b)
    | Ir.Instr.Fmul ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        setf ops tg pc d m fr (fg r a *. fg r b)
    | Ir.Instr.Fdiv ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        setf ops tg pc d m fr (fg r a /. fg r b))
  | Code.DFun (op, d, s) -> (
    match op with
    | Ir.Instr.Fneg ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        setf ops tg pc d m fr (-.fg fr.fregs s)
    | Ir.Instr.Fabs ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        setf ops tg pc d m fr (Float.abs (fg fr.fregs s))
    | Ir.Instr.Fsqrt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        setf ops tg pc d m fr (Float.sqrt (fg fr.fregs s)))
  | Code.DFcmp (op, d, a, b) -> (
    match op with
    | Ir.Instr.Eq ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a = fg r b then 1 else 0)
    | Ir.Instr.Ne ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a <> fg r b then 1 else 0)
    | Ir.Instr.Lt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a < fg r b then 1 else 0)
    | Ir.Instr.Le ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a <= fg r b then 1 else 0)
    | Ir.Instr.Gt ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a > fg r b then 1 else 0)
    | Ir.Instr.Ge ->
      fun m ->
        bump m;
        let fr = m.run_fr in
        let r = fr.fregs in
        seti ops tg pc d m fr (if fg r a >= fg r b then 1 else 0))
  | Code.DI2f (d, s) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      setf ops tg pc d m fr (float_of_int (ig fr.iregs s))
  | Code.DF2i (d, s) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      seti ops tg pc d m fr (f2i (fg fr.fregs s))
  | Code.DLw (d, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      (* park pc for strict-model trap provenance; one image serves
         both memory models, so the store is unconditional *)
      fr.pc <- pc;
      seti ops tg pc d m fr (load_int m.memory (ig fr.iregs b + o))
  | Code.DSw (v, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      let r = fr.iregs in
      store_int m.memory (ig r b + o) (ig r v);
      next ops pc m
  | Code.DLb (d, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      seti ops tg pc d m fr (load_byte m.memory (ig fr.iregs b + o))
  | Code.DSb (v, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      let r = fr.iregs in
      Memory.store_byte m.memory (ig r b + o) (ig r v);
      next ops pc m
  | Code.DLwf (d, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      setf ops tg pc d m fr (load_flt m.memory (ig fr.iregs b + o))
  | Code.DSwf (v, b, o) ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      fr.pc <- pc;
      store_flt m.memory (ig fr.iregs b + o) (fg fr.fregs v);
      next ops pc m
  | Code.DBr (op, a, b, t) -> (
    match op with
    | Ir.Instr.Eq ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a = ig r b then t else pc + 1)) m
    | Ir.Instr.Ne ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a <> ig r b then t else pc + 1)) m
    | Ir.Instr.Lt ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a < ig r b then t else pc + 1)) m
    | Ir.Instr.Le ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a <= ig r b then t else pc + 1)) m
    | Ir.Instr.Gt ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a > ig r b then t else pc + 1)) m
    | Ir.Instr.Ge ->
      fun m ->
        bump m;
        let r = m.run_fr.iregs in
        (Array.unsafe_get ops (if ig r a >= ig r b then t else pc + 1)) m)
  | Code.DBrz (op, a, t) -> (
    match op with
    | Ir.Instr.Eq ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a = 0 then t else pc + 1)) m
    | Ir.Instr.Ne ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a <> 0 then t else pc + 1))
          m
    | Ir.Instr.Lt ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a < 0 then t else pc + 1)) m
    | Ir.Instr.Le ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a <= 0 then t else pc + 1))
          m
    | Ir.Instr.Gt ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a > 0 then t else pc + 1)) m
    | Ir.Instr.Ge ->
      fun m ->
        bump m;
        (Array.unsafe_get ops (if ig m.run_fr.iregs a >= 0 then t else pc + 1))
          m)
  | Code.DJmp t ->
    fun m ->
      bump m;
      (Array.unsafe_get ops t) m
  | Code.DCall c when taint ->
    (* The plain call pushes the callee frame; the taint arm gives it
       shadow masks and copies the argument masks in. *)
    let push = compile_instr ~taint:false code ops tg pc ins in
    fun m ->
      let caller = m.run_fr in
      push m;
      (match m.stack with
       | fr :: rest ->
         let callee =
           {
             fr with
             itn = shadow_of ~shadow:true fr.iregs;
             ftn = shadow_of ~shadow:true fr.fregs;
           }
         in
         shadow_args c ~caller callee;
         m.stack <- callee :: rest
       | [] -> assert false)
  | Code.DCall c ->
    let callee = code.Code.funcs.(c.Code.fid) in
    let ni = max callee.Code.n_int 1 and nf = max callee.Code.n_flt 1 in
    let iargs = c.Code.iargs and fargs = c.Code.fargs in
    let cfid = c.Code.fid in
    fun m ->
      bump m;
      let fr = m.run_fr in
      (* park pc: the caller resumes past this DCall, the overflow trap
         is attributed here, and return write-back reads it *)
      fr.pc <- pc;
      let callee_depth = m.depth + 1 in
      if callee_depth > max_call_depth then
        raise (Trap.Error (Trap.Call_stack_overflow callee_depth));
      let iregs = Array.make ni 0 and fregs = Array.make nf 0.0 in
      let src_i = fr.iregs in
      for k = 0 to Array.length iargs - 1 do
        let src, dst = Array.unsafe_get iargs k in
        iregs.(dst) <- src_i.(src)
      done;
      let src_f = fr.fregs in
      for k = 0 to Array.length fargs - 1 do
        let src, dst = Array.unsafe_get fargs k in
        fregs.(dst) <- src_f.(src)
      done;
      m.depth <- callee_depth;
      m.stack <-
        { fid = cfid; pc = 0; iregs; fregs; itn = no_masks; ftn = no_masks }
        :: m.stack
      (* head frame changed: return to the driver *)
  | Code.DRetI r when taint ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      shadow_return m (tracker_of m) (ig fr.itn r);
      return m (Some (Value.I (ig fr.iregs r)))
  | Code.DRetF r when taint ->
    fun m ->
      bump m;
      let fr = m.run_fr in
      shadow_return m (tracker_of m) (ig fr.ftn r);
      return m (Some (Value.F (fg fr.fregs r)))
  | Code.DRetI r ->
    fun m ->
      bump m;
      return m (Some (Value.I (ig m.run_fr.iregs r)))
  | Code.DRetF r ->
    fun m ->
      bump m;
      return m (Some (Value.F (fg m.run_fr.fregs r)))
  | Code.DRetV ->
    fun m ->
      bump m;
      return m None

(* Counting flavour of an op: bump the instruction's execution count,
   then run it. The count is skipped when the op's own budget check is
   about to time out, as the reference loop counts only after that
   check; DNop is neither counted nor wrapped. The chain runs through
   the wrappers (they sit in the same [ops] table), so counting costs
   one extra indirect call per instruction and only counting images
   pay it. *)
let counted fid pc (op : op) : op =
 fun m ->
  if m.dyn < m.budget then begin
    let row = Array.unsafe_get m.exec_counts fid in
    Array.unsafe_set row pc (Array.unsafe_get row pc + 1)
  end;
  op m

(* Taint flavour of an op: run the instruction's shadow transfer,
   specialised now from its operands and compile-time tag [tg], then
   the op. The transfer is the reference loop's ([Interp.shadow]) over
   the same helpers ([shade] and friends): it hits the sinks the
   operands reach and shades the destination, with fresh taint when
   the write-back lands a fault ([lands], the compile-time form of
   [will_land]). Like [counted], it is skipped when the op's
   own budget check is about to time out ([live]) — the reference loop
   shadows only after that check, so a timed-out trial records no sink
   for the instruction that timed it out. A pause raised by the
   previous op's write-back fires before this transfer runs, exactly
   where the reference loop checks it. Instructions with no transfer
   (DNop, jumps, calls, returns) are the op itself; calls and returns
   shadow in their own arms ([compile_instr ~taint]). *)
let shadowed tg pc (ins : Code.d) (op : op) : op =
  match ins with
  | Code.DNop | Code.DJmp _ | Code.DCall _ | Code.DRetI _ | Code.DRetF _
  | Code.DRetV ->
    op
  | Code.DLi (d, _) | Code.DLa (d, _) ->
    fun m ->
      if live m then
        shade (tracker_of m) ~lands:(lands tg m) m.run_fr.itn d
          Taint.none;
      op m
  | Code.DLf (d, _) ->
    fun m ->
      if live m then
        shade (tracker_of m) ~lands:(lands tg m) m.run_fr.ftn d
          Taint.none;
      op m
  | Code.DMovI (d, s) | Code.DBini (_, d, s, _) ->
    fun m ->
      (if live m then
         let itn = m.run_fr.itn in
         shade (tracker_of m) ~lands:(lands tg m) itn d (ig itn s));
      op m
  | Code.DMovF (d, s) | Code.DFun (_, d, s) ->
    fun m ->
      (if live m then
         let ftn = m.run_fr.ftn in
         shade (tracker_of m) ~lands:(lands tg m) ftn d (ig ftn s));
      op m
  | Code.DBin ((Ir.Instr.Div | Ir.Instr.Rem), d, a, b) ->
    fun m ->
      (if live m then
         let tr = tracker_of m and itn = m.run_fr.itn in
         sink_trap_operand tr (ig itn b);
         shade tr ~lands:(lands tg m) itn d (ig itn a lor ig itn b));
      op m
  | Code.DBin (_, d, a, b) | Code.DCmp (_, d, a, b) ->
    fun m ->
      (if live m then
         let itn = m.run_fr.itn in
         shade (tracker_of m) ~lands:(lands tg m) itn d
           (ig itn a lor ig itn b));
      op m
  | Code.DFbin (_, d, a, b) ->
    fun m ->
      (if live m then
         let ftn = m.run_fr.ftn in
         shade (tracker_of m) ~lands:(lands tg m) ftn d
           (ig ftn a lor ig ftn b));
      op m
  | Code.DFcmp (_, d, a, b) ->
    fun m ->
      (if live m then
         let fr = m.run_fr in
         shade (tracker_of m) ~lands:(lands tg m) fr.itn d
           (ig fr.ftn a lor ig fr.ftn b));
      op m
  | Code.DI2f (d, s) ->
    fun m ->
      (if live m then
         let fr = m.run_fr in
         shade (tracker_of m) ~lands:(lands tg m) fr.ftn d (ig fr.itn s));
      op m
  | Code.DF2i (d, s) ->
    fun m ->
      (if live m then
         let tr = tracker_of m and fr = m.run_fr in
         sink_trap_operand tr (ig fr.ftn s);
         shade tr ~lands:(lands tg m) fr.itn d (ig fr.ftn s));
      op m
  | Code.DLw (d, b, o) ->
    fun m ->
      (if live m then
         let itn = m.run_fr.itn in
         shadow_load (tracker_of m) ~lands:(lands tg m) itn d (cell m b o)
           ~base:(ig itn b));
      op m
  | Code.DLb (d, b, o) ->
    fun m ->
      (if live m then
         let itn = m.run_fr.itn in
         shadow_load (tracker_of m) ~lands:(lands tg m) itn d
           (byte_cell m b o) ~base:(ig itn b));
      op m
  | Code.DLwf (d, b, o) ->
    fun m ->
      (if live m then
         let fr = m.run_fr in
         shadow_load (tracker_of m) ~lands:(lands tg m) fr.ftn d
           (cell m b o) ~base:(ig fr.itn b));
      op m
  | Code.DSw (v, b, o) ->
    fun m ->
      (if live m then
         let itn = m.run_fr.itn in
         shadow_store (tracker_of m) ~byte:false (cell m b o)
           ~base:(ig itn b) (ig itn v));
      op m
  | Code.DSb (v, b, o) ->
    fun m ->
      (if live m then
         let itn = m.run_fr.itn in
         shadow_store (tracker_of m) ~byte:true (byte_cell m b o)
           ~base:(ig itn b) (ig itn v));
      op m
  | Code.DSwf (v, b, o) ->
    fun m ->
      (if live m then
         let fr = m.run_fr in
         shadow_store (tracker_of m) ~byte:false (cell m b o)
           ~base:(ig fr.itn b) (ig fr.ftn v));
      op m
  | Code.DBr (_, a, b, _) ->
    fun m ->
      (if live m then
         let fr = m.run_fr in
         sink_control (tracker_of m) ~fid:fr.fid ~pc
           (ig fr.itn a lor ig fr.itn b));
      op m
  | Code.DBrz (_, a, _) ->
    fun m ->
      (if live m then
         let fr = m.run_fr in
         sink_control (tracker_of m) ~fid:fr.fid ~pc (ig fr.itn a));
      op m

let compile_func ~flavour (code : Code.t) (tags : bool array array) fid
    (df : Code.dfunc) : op array =
  let body = df.Code.dbody in
  let len = Array.length body in
  let ftags = if Array.length tags > 0 then tags.(fid) else no_tags in
  let name = df.Code.name in
  (* Guard slot at index [len]: the validator guarantees terminators so
     it is unreachable, but a threaded chain must never fetch past the
     table. Same failure message as the reference loop. *)
  let guard : op =
   fun _ -> invalid_arg (Printf.sprintf "pc past end of %s" name)
  in
  let ops = Array.make (len + 1) guard in
  let taint = flavour = Taint in
  for pc = 0 to len - 1 do
    let tg = Array.length ftags > 0 && Array.unsafe_get ftags pc in
    let ins = body.(pc) in
    let op = compile_instr ~taint code ops tg pc ins in
    ops.(pc) <-
      (match (flavour, ins) with
       | Plain, _ | Counting, Code.DNop -> op
       | Counting, _ -> counted fid pc op
       | Taint, _ -> shadowed tg pc ins op)
  done;
  ops

(* [flavour] (default plain) compiles the counting flavour (see
   [counted]), for machines built with [count_exec], or the taint
   flavour (see [shadowed]), for machines built with [taint]; campaign
   trial images are plain. *)
let compile ?(tags = ([||] : bool array array)) ?(flavour = Plain)
    (code : Code.t) : image =
  {
    icode = code;
    itags = tags;
    iops =
      Array.mapi
        (fun fid df -> compile_func ~flavour code tags fid df)
        code.Code.funcs;
    iflavour = flavour;
    itaint = Atomic.make None;
  }

(* The taint flavour of a plain image, compiled on the first call and
   kept on the image. Domains racing on the first call may each
   compile one; the first to publish wins and every caller gets its
   table, so an image has at most one taint flavour in use. *)
let taint_of (img : image) : image =
  match img.iflavour with
  | Taint -> img
  | Counting ->
    invalid_arg "Interp.taint_image: a counting image has no taint flavour"
  | Plain -> (
    match Atomic.get img.itaint with
    | Some t -> t
    | None ->
      let t = compile ~tags:img.itags ~flavour:Taint img.icode in
      if Atomic.compare_and_set img.itaint None (Some t) then t
      else Option.get (Atomic.get img.itaint))

(* The driver: re-entered once per frame switch (and once at start /
   after a resume). Mirrors the reference loop's per-dispatch pause
   check at each re-entry; within a frame the compiled chain handles
   pausing itself (see wbi/wbf). *)
let exec (m : Machine.t) =
  let fast = m.fast in
  while is_running m do
    match m.stack with
    | fr :: _ ->
      m.cur_fid <- fr.fid;
      m.run_fr <- fr;
      if m.inj_seen >= m.pause_at then raise Pause_exn;
      (Array.unsafe_get (Array.unsafe_get fast fr.fid) fr.pc) m
    | [] -> assert false
  done
