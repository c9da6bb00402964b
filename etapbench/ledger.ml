(* Benchmark-side tracing: per-layer time attribution measured from
   outside the library, around the public calls the benchmark makes.

   A [leaf] times one call into a layer on the calling domain. Leaves
   nest per domain (a scoring call inside a trial), and each leaf adds
   only its self time — its duration minus that of the leaves nested
   in it — so layer totals never double count.

   Two tallies are kept:
   - [busy]: domain-seconds per layer, summed over every domain;
   - [wall]: seconds of the orchestrating domain's timeline per layer.
     A leaf outside any fan-out adds to it directly. A [fan] over [j]
     domains lasting [w] seconds adds each layer's busy delta divided
     by [j], and the part of [w] those shares do not cover goes to
     ["pool.idle"] (stragglers and fan-out overhead).

   The [wall] rows of one phase plus "(other)" — the phase's wall time
   no row covers — sum to the phase wall, so a layer nobody timed can
   not hide. Everything stays in memory until the run ends.

   When tracing is off, [leaf] and [fan] are plain calls. *)

let now () = Obs.now_us () *. 1e-6

let enabled = ref false

let m = Mutex.create ()
let busy : (string, float) Hashtbl.t = Hashtbl.create 32
let wall : (string, float) Hashtbl.t = Hashtbl.create 32

(* Domain-seconds the fans offered: wall x domains, summed. *)
let capacity = ref 0.

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let fan_depth = Atomic.make 0

(* Per domain: one child-time accumulator per open leaf. *)
let stack_key : float ref list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let reset () =
  locked (fun () ->
      Hashtbl.reset busy;
      Hashtbl.reset wall;
      capacity := 0.)

(* [f ()] and the self time it spent in [layer] (0 when tracing is
   off). Never call [fan] inside a leaf: the fan's wall would count as
   the leaf's self time. *)
let leaf_timed layer f =
  if not !enabled then (f (), 0.)
  else begin
    let st = Domain.DLS.get stack_key in
    let child = ref 0. in
    st := child :: !st;
    let t0 = now () in
    let self = ref 0. in
    let close () =
      let dur = now () -. t0 in
      st := List.tl !st;
      (match !st with parent :: _ -> parent := !parent +. dur | [] -> ());
      self := dur -. !child;
      locked (fun () ->
          add busy layer !self;
          if Atomic.get fan_depth = 0 then add wall layer !self)
    in
    let r = Fun.protect ~finally:close f in
    (r, !self)
  end

let leaf layer f = fst (leaf_timed layer f)

let fan ~jobs n f =
  if not !enabled then Core.Pool.map_n ~jobs n f
  else begin
    let before = locked (fun () -> Hashtbl.copy busy) in
    Atomic.incr fan_depth;
    let t0 = now () in
    let r =
      Fun.protect
        ~finally:(fun () -> Atomic.decr fan_depth)
        (fun () -> Core.Pool.map_n ~jobs n f)
    in
    let w = now () -. t0 in
    let j = float_of_int (max 1 (min jobs n)) in
    locked (fun () ->
        let covered = ref 0. in
        Hashtbl.iter
          (fun k v ->
            let d = v -. Option.value ~default:0. (Hashtbl.find_opt before k) in
            if d > 0. then begin
              add wall k (d /. j);
              covered := !covered +. (d /. j)
            end)
          busy;
        add wall "pool.idle" (w -. !covered);
        capacity := !capacity +. (w *. j));
    r
  end

let fan_list ~jobs f xs =
  let a = Array.of_list xs in
  Array.to_list (fan ~jobs (Array.length a) (fun i -> f a.(i)))

let busy_s layer = Option.value ~default:0. (locked (fun () -> Hashtbl.find_opt busy layer))
let capacity_s () = locked (fun () -> !capacity)

(* The self-time table of a phase that lasted [total] seconds: one row
   per layer, largest first, then the uncovered remainder. *)
let self_times ~total =
  let rows =
    locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) wall [])
    |> List.sort (fun (a, x) (b, y) ->
           match Float.compare y x with 0 -> String.compare a b | c -> c)
  in
  let covered = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  rows @ [ ("(other)", total -. covered) ]
