(* Dynamic taint audit of the tagging analysis (DESIGN §11).

   The tagging analysis promises: under [Protect_control], no injected
   fault can reach a branch operand along a memory-free def-use chain —
   every register chain that feeds control is in CVar and therefore
   protected. The analysis deliberately does NOT track values through
   memory (no disambiguation), so chains that round-trip through a
   store/load, or pass through a load with a corrupted base, are the
   documented residual, not violations.

   The audit checks the promise empirically: run a campaign with shadow
   taint on and assert that no trial observed a
   memory-free control contamination ([Taint.summary.control_free]).
   Under [Protect_all] nothing is injectable at all, so the stronger
   assertion is that taint never even propagates. [Protect_nothing]
   promises nothing — its (expected, non-zero) control contamination is
   reported as the positive control of the experiment. *)

type violation = {
  trial : int;
  site : (string * int) option;
      (* (function, body index) of the first memory-free branch whose
         operand was tainted, from the trial's [Taint.summary] *)
}

type report = {
  policy : Policy.t;
  errors : int;            (* per-trial faults requested *)
  errors_planned : int;    (* after the injectable-pool cap *)
  trials : int;
  seed : int;
  injectable_total : int;
  stats : Stats.t;         (* includes the fault-flow class counters *)
  control_free : int;      (* memory-free control contaminations, summed *)
  control_via_memory : int;(* through-memory residual, summed *)
  address_hits : int;
  trap_operand_hits : int;
  memory_hits : int;
  violations : violation list;  (* trials breaking the policy's promise *)
}

(* The report of a finished taint campaign [s] on [p]. *)
let of_summary (p : Campaign.prepared) ~errors ~trials ~seed
    (s : Campaign.summary) : report =
  let control_free = ref 0
  and control_via_memory = ref 0
  and address_hits = ref 0
  and trap_operand_hits = ref 0
  and memory_hits = ref 0 in
  let violations = ref [] in
  List.iter
    (fun (t : Campaign.trial) ->
      match t.Campaign.fault_flow with
      | None -> ()
      | Some f ->
        control_free := !control_free + f.Sim.Taint.control_free;
        control_via_memory := !control_via_memory + f.Sim.Taint.control_via_memory;
        address_hits := !address_hits + f.Sim.Taint.address_hits;
        trap_operand_hits := !trap_operand_hits + f.Sim.Taint.trap_operand_hits;
        memory_hits := !memory_hits + f.Sim.Taint.memory_hits;
        let broken =
          match p.Campaign.policy with
          | Policy.Protect_control -> f.Sim.Taint.control_free > 0
          | Policy.Protect_all ->
            (* nothing is injectable: any propagation is a violation *)
            f.Sim.Taint.flow <> Sim.Taint.Vanished
          | Policy.Protect_nothing -> false
        in
        if broken then
          violations :=
            { trial = t.Campaign.index; site = f.Sim.Taint.first_control }
            :: !violations)
    s.Campaign.trials;
  {
    policy = p.Campaign.policy;
    errors;
    errors_planned = s.Campaign.errors_planned;
    trials;
    seed;
    injectable_total = p.Campaign.injectable_total;
    stats = s.Campaign.stats;
    control_free = !control_free;
    control_via_memory = !control_via_memory;
    address_hits = !address_hits;
    trap_operand_hits = !trap_operand_hits;
    memory_hits = !memory_hits;
    violations = List.rev !violations;
  }

let run ?jobs (p : Campaign.prepared) ~errors ~trials ~seed : report =
  of_summary p ~errors ~trials ~seed
    (Campaign.run ?jobs ~taint:true p ~errors ~trials ~seed)

(* The report of a campaign with nothing to inject into: every trial
   runs fault-free, so each fault flow vanishes and nothing breaks the
   policy's promise. *)
let fault_free ~policy ~errors ~trials ~seed : report =
  let stats =
    List.fold_left
      (fun s _ ->
        Stats.observe ~flow:Sim.Taint.Vanished s Outcome.Completed
          ~fidelity:None)
      Stats.empty (List.init trials Fun.id)
  in
  {
    policy;
    errors;
    errors_planned = Fault_model.planned ~injectable_total:0 ~errors;
    trials;
    seed;
    injectable_total = 0;
    stats;
    control_free = 0;
    control_via_memory = 0;
    address_hits = 0;
    trap_operand_hits = 0;
    memory_hits = 0;
    violations = [];
  }

let sound (r : report) = r.violations = []

let describe (r : report) =
  match r.violations with
  | [] ->
    Printf.sprintf "%s: sound (%d trials, ctl-free=0, ctl-via-mem=%d)"
      (Policy.to_string r.policy) r.trials r.control_via_memory
  | v :: _ ->
    Printf.sprintf "%s: VIOLATED in %d/%d trials (first: trial %d%s)"
      (Policy.to_string r.policy)
      (List.length r.violations)
      r.trials v.trial
      (match v.site with
       | Some (f, pc) -> Printf.sprintf " at %s[%d]" f pc
       | None -> "")

let check (r : report) =
  if not (sound r) then failwith ("Audit.check: " ^ describe r)
