(* Shadow taint for dynamic fault-flow classification (DESIGN §11).

   Alongside each register and each memory cell a taint machine
   carries a 2-bit mask:

     bit 0 — the value derives (transitively) from an injected fault;
     bit 1 — the derivation chain passed through memory: the value was
             stored and loaded back, or came out of a load whose base
             address was corrupted.

   The lattice is the powerset of the two bits ordered by inclusion;
   [lor] is the join and [none] the bottom. Bit 1 is sticky: a load
   or a store sets it (Threaded.loaded, Threaded.stored) and every
   further propagation unions it along. That stickiness is exactly the
   paper's "no memory disambiguation" exclusion — the tagging analysis
   terminates def-use chains at loads and lets stored values escape
   untracked, so
   contamination that round-trips through memory is the *documented*
   residual of the protection scheme, not a soundness bug. The audit
   ([Core.Audit]) therefore asserts the tagging invariant only over
   memory-free chains: bit 0 set, bit 1 clear.

   A taint machine's tracker (Machine.tracker) accumulates
   first-contamination events at the sinks the paper's failure modes
   run through:

   - a tainted branch operand — the fault reached control flow;
     counted separately for memory-free chains (the invariant) and
     through-memory chains (the residual);
   - a tainted load/store base register — a wild access in the making;
   - a tainted integer div/rem denominator or [F2i] operand — a trap
     hazard: these cannot redirect a branch but can crash the run, the
     paper's other catastrophic class;
   - a tainted stored value — silent data corruption now resident in
     the image.

   The transfer itself (sinks, [loaded]/[stored] marking, the shade of
   a write-back) runs once per executed instruction, so it lives with
   the fast engine that inlines it (Threaded); the reference loop calls
   the same definitions. Machine.summarize collapses the event counts
   into the five-class [flow] taxonomy below, ordered by severity. *)

type mask = int

let none : mask = 0
let fresh : mask = 1 (* seeded at the injection site: tainted, memory-free *)

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
