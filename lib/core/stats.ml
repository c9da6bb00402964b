(* Streaming statistics for campaign results.

   Two layers: [acc] is a general single-pass accumulator over floats
   (Welford's algorithm for mean/variance plus running min/max), and
   [t] is the campaign-level summary — the catastrophic breakdown
   counters together with a fidelity accumulator over the scored
   completed trials. Both are immutable and mergeable, so partial
   statistics computed on different domains (or different sweeps)
   combine associatively without revisiting the trials. *)

type acc = {
  count : int;
  mean : float;   (* running mean; 0.0 when empty *)
  m2 : float;     (* sum of squared deviations from the running mean *)
  min : float;    (* +inf when empty *)
  max : float;    (* -inf when empty *)
}

let acc_empty =
  { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let acc_add (a : acc) x =
  let count = a.count + 1 in
  let delta = x -. a.mean in
  let mean = a.mean +. (delta /. float_of_int count) in
  let m2 = a.m2 +. (delta *. (x -. mean)) in
  { count; mean; m2; min = Float.min a.min x; max = Float.max a.max x }

(* Chan et al.'s pairwise-combination update. *)
let acc_merge (a : acc) (b : acc) =
  if a.count = 0 then b
  else if b.count = 0 then a
  else begin
    let count = a.count + b.count in
    let na = float_of_int a.count and nb = float_of_int b.count in
    let n = float_of_int count in
    let delta = b.mean -. a.mean in
    {
      count;
      mean = a.mean +. (delta *. nb /. n);
      m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n);
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
    }
  end

let acc_count (a : acc) = a.count
let acc_mean (a : acc) = if a.count = 0 then None else Some a.mean

(* Population variance (divide by n): the trials are the whole
   population of the campaign, not a sample from a larger one. *)
let acc_variance (a : acc) =
  if a.count = 0 then None else Some (a.m2 /. float_of_int a.count)

let acc_stddev (a : acc) = Option.map Float.sqrt (acc_variance a)
let acc_min (a : acc) = if a.count = 0 then None else Some a.min
let acc_max (a : acc) = if a.count = 0 then None else Some a.max

(* ------------------------------------------------------------------ *)

(* Fault-flow class counters (shadow-taint taxonomy, DESIGN §11).
   Plain additive counters, so they merge like everything else; only
   trials run with taint on feed them, so [flows_total] can be below
   [n] for untainted campaigns (and is 0 for all of them today). *)
type flows = {
  vanished : int;
  data_only : int;
  reached_memory : int;
  reached_address : int;
  reached_control : int;
}

let flows_empty =
  {
    vanished = 0;
    data_only = 0;
    reached_memory = 0;
    reached_address = 0;
    reached_control = 0;
  }

let flows_add (f : flows) (c : Sim.Taint.flow) =
  match c with
  | Sim.Taint.Vanished -> { f with vanished = f.vanished + 1 }
  | Sim.Taint.Data_only -> { f with data_only = f.data_only + 1 }
  | Sim.Taint.Reached_memory -> { f with reached_memory = f.reached_memory + 1 }
  | Sim.Taint.Reached_address ->
    { f with reached_address = f.reached_address + 1 }
  | Sim.Taint.Reached_control ->
    { f with reached_control = f.reached_control + 1 }

let flows_merge (a : flows) (b : flows) =
  {
    vanished = a.vanished + b.vanished;
    data_only = a.data_only + b.data_only;
    reached_memory = a.reached_memory + b.reached_memory;
    reached_address = a.reached_address + b.reached_address;
    reached_control = a.reached_control + b.reached_control;
  }

let flows_get (f : flows) (c : Sim.Taint.flow) =
  match c with
  | Sim.Taint.Vanished -> f.vanished
  | Sim.Taint.Data_only -> f.data_only
  | Sim.Taint.Reached_memory -> f.reached_memory
  | Sim.Taint.Reached_address -> f.reached_address
  | Sim.Taint.Reached_control -> f.reached_control

type t = {
  n : int;          (* trials observed *)
  crashes : int;
  infinite : int;
  completed : int;
  fidelity : acc;   (* over completed trials that were scored *)
  flows : flows;    (* taint-mode trials only *)
}

let empty =
  {
    n = 0;
    crashes = 0;
    infinite = 0;
    completed = 0;
    fidelity = acc_empty;
    flows = flows_empty;
  }

let observe ?flow (s : t) (outcome : Outcome.t) ~(fidelity : float option) =
  let s = { s with n = s.n + 1 } in
  let s =
    match flow with None -> s | Some c -> { s with flows = flows_add s.flows c }
  in
  match outcome with
  | Outcome.Crash _ -> { s with crashes = s.crashes + 1 }
  | Outcome.Infinite -> { s with infinite = s.infinite + 1 }
  | Outcome.Completed ->
    {
      s with
      completed = s.completed + 1;
      fidelity =
        (match fidelity with
         | None -> s.fidelity
         | Some f -> acc_add s.fidelity f);
    }

let merge (a : t) (b : t) =
  {
    n = a.n + b.n;
    crashes = a.crashes + b.crashes;
    infinite = a.infinite + b.infinite;
    completed = a.completed + b.completed;
    fidelity = acc_merge a.fidelity b.fidelity;
    flows = flows_merge a.flows b.flows;
  }

let catastrophic (s : t) = s.crashes + s.infinite

let pct_catastrophic (s : t) =
  if s.n = 0 then 0.0
  else 100.0 *. float_of_int (catastrophic s) /. float_of_int s.n

let mean_fidelity (s : t) = acc_mean s.fidelity
