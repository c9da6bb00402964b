(* Deterministic fan-out of an indexed job set over OCaml 5 domains.

   Campaign trials are embarrassingly parallel *and* order-independent:
   trial [i] derives its RNG from the trial index, so the result of
   [f i] does not depend on which domain runs it or when. Each call is
   one batch on a process-wide {!Executor}: free domains claim jobs one
   at a time, and each job writes its result into its own slot, so the
   returned array is always in index order, bit-exact with a
   sequential run. A call made from inside a job (a matrix cell's
   missed trials, an app load's modes) is a nested batch on the same
   executor, claimed by whichever domain is free.

   The executor is created on the first call with [jobs > 1], never at
   module initialisation: a process that has not fanned out yet has no
   extra domains and can still fork. Its worker count grows to the
   largest [jobs - 1] requested, capped at one less than the
   recommended domain count; the caller always helps, so a call runs
   on at most [jobs] domains at once. *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* Clamp a requested job count into [1, n]: never more runners than
   jobs to run, never fewer than one. *)
let resolve_jobs ?jobs n =
  let j = match jobs with Some j -> j | None -> default_jobs () in
  max 1 (min j n)

let shared = ref None
let shared_m = Mutex.create ()

let executor ~workers =
  let ex =
    Mutex.protect shared_m (fun () ->
        match !shared with
        | Some ex -> ex
        | None ->
          let ex = Executor.create () in
          shared := Some ex;
          ex)
  in
  Executor.grow ex (min workers (Domain.recommended_domain_count () - 1));
  ex

(* One span per call on the calling domain. Spans only, never
   counters: scheduling is not work, and counter totals must stay
   identical across [--jobs] values (lib/obs determinism contract). *)
let map_n ?jobs n (f : int -> 'a) : 'a array =
  if n <= 0 then [||]
  else
    let jobs = resolve_jobs ?jobs n in
    let t0 = Obs.span_begin () in
    let r =
      if jobs = 1 then Array.init n f
      else
        Executor.map_n (executor ~workers:(jobs - 1)) ~limit:jobs ~help:true
          n f
    in
    Obs.span_end ~name:"map" ~cat:"pool"
      ~args:[ ("n", string_of_int n); ("jobs", string_of_int jobs) ]
      t0;
    r

let map_list ?jobs (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match xs with
  | [] | [ _ ] -> List.map f xs
  | _ ->
    let arr = Array.of_list xs in
    Array.to_list (map_n ?jobs (Array.length arr) (fun i -> f arr.(i)))
