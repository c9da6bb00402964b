(* Tests for the domain pool: bit-exact determinism across job counts,
   clamping, order preservation, exception propagation, and the
   executor contract under it — nested calls, the concurrency cap, the
   lowest-index failure and inline single-job runs. *)

let seq n f = Array.init n f

let test_matches_sequential () =
  let f i = (i * 2654435761) land 0xFFFF in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d equals sequential" jobs)
        (seq 37 f)
        (Core.Pool.map_n ~jobs 37 f))
    [ 1; 2; 3; 4; 8; 37; 100 ]

let test_empty_and_small () =
  Alcotest.(check (array int)) "n=0" [||] (Core.Pool.map_n ~jobs:4 0 Fun.id);
  Alcotest.(check (array int)) "n=1" [| 0 |] (Core.Pool.map_n ~jobs:4 1 Fun.id);
  (* a requested job count below 1 clamps to a sequential run *)
  Alcotest.(check (array int))
    "jobs=0 clamps" (seq 5 Fun.id)
    (Core.Pool.map_n ~jobs:0 5 Fun.id);
  Alcotest.(check (array int))
    "negative jobs clamp" (seq 5 Fun.id)
    (Core.Pool.map_n ~jobs:(-3) 5 Fun.id)

let test_map_list_order () =
  Alcotest.(check (list string))
    "order preserved"
    [ "a!"; "b!"; "c!"; "d!"; "e!" ]
    (Core.Pool.map_list ~jobs:3 (fun s -> s ^ "!") [ "a"; "b"; "c"; "d"; "e" ])

exception Boom of int

(* The lowest failing index is the one reported, even when a higher
   one fails first (index 3 is slow), and the executor stays usable. *)
let test_exception_propagates () =
  List.iter
    (fun jobs ->
      (match
         Core.Pool.map_n ~jobs 16 (fun i ->
             if i = 3 then Unix.sleepf 0.02;
             if i = 3 || i = 7 || i = 11 then raise (Boom i) else i)
       with
       | _ -> Alcotest.fail "expected Boom"
       | exception Boom 3 -> ()
       | exception e -> raise e);
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d: next call works" jobs)
        (seq 16 Fun.id)
        (Core.Pool.map_n ~jobs 16 Fun.id))
    [ 1; 2; 4 ]

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one job" true (Core.Pool.default_jobs () >= 1)

(* A job that itself fans out (a matrix cell's missed trials) submits a
   nested batch on the same executor; the caller helps, so it ends. *)
let test_nested () =
  let inner i k = (k * i) + 1 in
  let f i = Array.fold_left ( + ) 0 (Array.init (i + 1) (inner i)) in
  List.iter
    (fun jobs ->
      let nested =
        Core.Pool.map_n ~jobs 12 (fun i ->
            Array.fold_left ( + ) 0
              (Core.Pool.map_n ~jobs (i + 1) (inner i)))
      in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d nested equals sequential" jobs)
        (seq 12 f) nested)
    [ 2; 4 ]

(* The most jobs [map] had running at once, each spinning 2 ms. *)
let peak_running map =
  let running = Atomic.make 0 and peak = Atomic.make 0 in
  let rec raise_peak now =
    let p = Atomic.get peak in
    if now > p && not (Atomic.compare_and_set peak p now) then raise_peak now
  in
  ignore
    (map 32 (fun _ ->
         raise_peak (Atomic.fetch_and_add running 1 + 1);
         let t = Unix.gettimeofday () in
         while Unix.gettimeofday () -. t < 0.002 do
           Domain.cpu_relax ()
         done;
         Atomic.decr running));
  Atomic.get peak

(* The caller helps, so a call never has more than [jobs] of its jobs
   running at once, however many workers an earlier call left. The
   process-wide executor never has more workers than cores, so the
   limit itself is also checked on an executor with more workers than
   the limit. *)
let test_concurrency_cap () =
  ignore (Core.Pool.map_n ~jobs:8 8 Fun.id);
  List.iter
    (fun jobs ->
      let peak = peak_running (fun n f -> Core.Pool.map_n ~jobs n f) in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: peak %d <= jobs" jobs peak)
        true (peak <= jobs))
    [ 1; 2; 3 ];
  let ex = Core.Executor.create () in
  Core.Executor.grow ex 3;
  let peak =
    Fun.protect
      ~finally:(fun () -> Core.Executor.shutdown ex)
      (fun () -> peak_running (Core.Executor.map_n ex ~limit:2 ~help:true))
  in
  Alcotest.(check bool)
    (Printf.sprintf "3 workers, limit 2: peak %d <= 2" peak)
    true (peak <= 2)

let test_jobs1_inline () =
  let self = (Domain.self () :> int) in
  let ran_on = Core.Pool.map_n ~jobs:1 9 (fun _ -> (Domain.self () :> int)) in
  Alcotest.(check (array int))
    "every job on the caller" (Array.make 9 self) ran_on

(* The contract the campaign runner relies on: results land in index
   order even though jobs run on any domain in any order. *)
let pool_determinism_prop =
  QCheck.Test.make ~name:"map_n deterministic for any (n, jobs)" ~count:60
    QCheck.(pair (int_bound 64) (int_range 1 9))
    (fun (n, jobs) ->
      let f i = Hashtbl.hash (i, n) in
      Core.Pool.map_n ~jobs n f = seq n f)

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick test_matches_sequential;
          Alcotest.test_case "empty and clamping" `Quick test_empty_and_small;
          Alcotest.test_case "map_list order" `Quick test_map_list_order;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
          Alcotest.test_case "nested map_n" `Quick test_nested;
          Alcotest.test_case "at most jobs running" `Quick test_concurrency_cap;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs1_inline;
          QCheck_alcotest.to_alcotest pool_determinism_prop;
        ] );
    ]
