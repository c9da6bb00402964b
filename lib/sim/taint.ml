(* Shadow taint for dynamic fault-flow classification (DESIGN §11).

   Alongside each register and each memory cell a taint machine
   carries a 2-bit mask:

     bit 0 — the value derives (transitively) from an injected fault;
     bit 1 — the derivation chain passed through memory: the value was
             stored and loaded back, or came out of a load whose base
             address was corrupted.

   The lattice is the powerset of the two bits ordered by inclusion;
   [union] ([lor]) is the join and [none] the bottom. Bit 1 is sticky:
   [loaded]/[stored] set it and every further propagation unions it
   along. That stickiness is exactly the paper's "no memory
   disambiguation" exclusion — the tagging analysis terminates def-use
   chains at loads and lets stored values escape untracked, so
   contamination that round-trips through memory is the *documented*
   residual of the protection scheme, not a soundness bug. The audit
   ([Core.Audit]) therefore asserts the tagging invariant only over
   memory-free chains: bit 0 set, bit 1 clear.

   A [tracker] accumulates first-contamination events at the sinks the
   paper's failure modes run through:

   - a tainted branch operand ([sink_control]) — the fault reached
     control flow; counted separately for memory-free chains (the
     invariant) and through-memory chains (the residual);
   - a tainted load/store base register ([sink_address]) — a wild
     access in the making;
   - a tainted integer div/rem denominator or [F2i] operand
     ([sink_trap_operand]) — a trap hazard: these cannot redirect a
     branch but can crash the run, the paper's other catastrophic
     class;
   - a tainted stored value ([sink_memory]) — silent data corruption
     now resident in the image.

   [summarize] collapses the event counts into the five-class
   [flow] taxonomy, ordered by severity. *)

type mask = int

let none : mask = 0
let fresh : mask = 1 (* seeded at the injection site: tainted, memory-free *)

let is_tainted (m : mask) = m land 1 <> 0
let via_memory (m : mask) = m land 2 <> 0

(* Anything that comes out of memory (or through a corrupted base) is a
   through-memory chain from here on. Clean stays clean. *)
let memified (m : mask) = if m = 0 then 0 else m lor 2

let loaded ~cell ~base : mask = memified (cell lor base)
let stored (m : mask) : mask = memified m

type flow =
  | Vanished        (* taint never propagated past the injected register *)
  | Data_only       (* propagated through registers, reached no sink *)
  | Reached_memory  (* a tainted value was stored *)
  | Reached_address (* a tainted base address / div denominator / F2i operand *)
  | Reached_control (* a tainted branch operand *)

let flow_to_string = function
  | Vanished -> "vanished"
  | Data_only -> "data-only"
  | Reached_memory -> "reached-memory"
  | Reached_address -> "reached-address"
  | Reached_control -> "reached-control"

let pp_flow fmt f = Format.pp_print_string fmt (flow_to_string f)

type tracker = {
  mutable propagated : bool;
  mutable control_free : int;
  mutable control_via_memory : int;
  mutable address_hits : int;
  mutable trap_operand_hits : int;
  mutable memory_hits : int;
  mutable first_control_fid : int; (* first memory-free control event *)
  mutable first_control_pc : int;
  mem : Bytes.t; (* per-cell taint mask, parallel to the data image *)
}

let make ~cells =
  {
    propagated = false;
    control_free = 0;
    control_via_memory = 0;
    address_hits = 0;
    trap_operand_hits = 0;
    memory_hits = 0;
    first_control_fid = -1;
    first_control_pc = -1;
    mem = Bytes.make (max cells 0) '\000';
  }

let mem_get tr c : mask = Char.code (Bytes.unsafe_get tr.mem c)
let mem_set tr c (m : mask) = Bytes.unsafe_set tr.mem c (Char.unsafe_chr m)

(* Byte stores overwrite one lane of a cell, so taint accumulates
   instead of replacing. *)
let mem_union tr c (m : mask) = mem_set tr c (mem_get tr c lor m)

let propagate tr (m : mask) = if m <> 0 then tr.propagated <- true

let sink_control tr ~fid ~pc (m : mask) =
  if is_tainted m then
    if via_memory m then tr.control_via_memory <- tr.control_via_memory + 1
    else begin
      tr.control_free <- tr.control_free + 1;
      if tr.first_control_fid < 0 then begin
        tr.first_control_fid <- fid;
        tr.first_control_pc <- pc
      end
    end

let sink_address tr (m : mask) =
  if is_tainted m then tr.address_hits <- tr.address_hits + 1

let sink_trap_operand tr (m : mask) =
  if is_tainted m then tr.trap_operand_hits <- tr.trap_operand_hits + 1

let sink_memory tr (m : mask) =
  if is_tainted m then tr.memory_hits <- tr.memory_hits + 1

(* The transfer helpers both engines' shadow code calls (Interp.shadow,
   Threaded.shadowed); the engines only pick the operands. *)

(* Shadow of a write-back to register [d] of the bank shadowed by [sh]:
   the operand taint [tv] flows into it, plus fresh (memory-free) taint
   when the write-back [lands] a planned fault. *)
let shade tr ~lands (sh : mask array) d tv =
  propagate tr tv;
  Array.unsafe_set sh d (if lands then tv lor fresh else tv)

(* A load through a base with taint [base] from cell [c] (-1: no cell
   to shadow) hits the address sink; the loaded value carries the
   cell's and the base's taint, memory-marked. *)
let shadow_load tr ~lands sh d c ~base =
  sink_address tr base;
  let cell = if c >= 0 then mem_get tr c else none in
  shade tr ~lands sh d (loaded ~cell ~base)

(* A store of a value with taint [tv] hits the address and memory
   sinks and memory-marks [tv] and the base's taint into cell [c]. A
   byte store overwrites one lane of its cell, so it unions. *)
let shadow_store tr ~byte c ~base tv =
  sink_address tr base;
  sink_memory tr tv;
  if c >= 0 then
    (if byte then mem_union else mem_set) tr c (stored (tv lor base))

type summary = {
  flow : flow;
  control_free : int;
  control_via_memory : int;
  address_hits : int;
  trap_operand_hits : int;
  memory_hits : int;
  first_control : (string * int) option;
      (* site of the first memory-free control contamination *)
}

let summarize (tr : tracker) ~func_name : summary =
  let flow =
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
