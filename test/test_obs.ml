(* Telemetry layer tests.

   Three claims, matching the lib/obs determinism contract (DESIGN.md
   §13):

   1. The histogram primitive merges exactly: associative, commutative,
      and equal to a single pass over the concatenated samples; its
      quantile never returns nan.
   2. A sink merges per-domain buffers into totals that depend only on
      what was recorded, not on which domain recorded it.
   3. Campaign telemetry is invariant: every counter is identical
      across --jobs values, the campaign.*/sim.* families are
      additionally identical across checkpoint strides, and turning
      telemetry on does not perturb the trial records.

   Plus the reason it is safe to leave the instrumentation in place:
   the disabled-sink recording path does not allocate. *)

let hist_of xs = List.fold_left Obs.Hist.add Obs.Hist.empty xs

let hist_eq a b =
  Obs.Hist.count a = Obs.Hist.count b
  && Obs.Hist.buckets a = Obs.Hist.buckets b

(* Samples include negatives, zeros and nan — all must land in the
   underflow bucket rather than corrupt the merge. *)
let samples =
  QCheck.(
    list_of_size
      Gen.(int_range 0 100)
      (oneof
         [
           float_range (-10.0) 1e9;
           always 0.0;
           always Float.nan;
           always 1e-12;
         ]))

let merge_is_concat =
  QCheck.Test.make ~name:"Hist.merge = one pass over the concatenation"
    ~count:300
    QCheck.(pair samples samples)
    (fun (xs, ys) ->
      hist_eq (Obs.Hist.merge (hist_of xs) (hist_of ys)) (hist_of (xs @ ys)))

let merge_commutes =
  QCheck.Test.make ~name:"Hist.merge commutative" ~count:300
    QCheck.(pair samples samples)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      hist_eq (Obs.Hist.merge a b) (Obs.Hist.merge b a))

let merge_associates =
  QCheck.Test.make ~name:"Hist.merge associative" ~count:300
    QCheck.(triple samples samples samples)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      hist_eq
        (Obs.Hist.merge a (Obs.Hist.merge b c))
        (Obs.Hist.merge (Obs.Hist.merge a b) c))

let quantile_total =
  QCheck.Test.make ~name:"Hist.quantile finite on non-empty, None on empty"
    ~count:300
    QCheck.(pair samples (float_range (-0.5) 1.5))
    (fun (xs, q) ->
      match Obs.Hist.quantile (hist_of xs) q with
      | None -> xs = []
      | Some v -> xs <> [] && Float.is_finite v && v >= 0.0)

(* Quantiles are bucket representatives: within one sub-octave (~9%)
   of the true order statistic for positive samples. *)
let test_quantile_bucket_accuracy () =
  let h = hist_of [ 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  (match Obs.Hist.quantile h 0.5 with
   | Some v ->
     Alcotest.(check bool) "median near 4" true (v > 3.5 && v < 4.5)
   | None -> Alcotest.fail "median of non-empty histogram");
  match Obs.Hist.quantile h 1.0 with
  | Some v -> Alcotest.(check bool) "max near 16" true (v > 14.0 && v < 18.0)
  | None -> Alcotest.fail "p100 of non-empty histogram"

(* ------------------------------------------------------------------ *)
(* Sink: multi-domain totals.                                          *)

let test_sink_multi_domain () =
  let sink = Obs.make () in
  Obs.with_sink sink (fun () ->
      let worker k () =
        for i = 1 to 100 do
          Obs.count "ticks" 1;
          Obs.count (Printf.sprintf "domain.%d" k) 1;
          Obs.observe "lat" (float_of_int i)
        done
      in
      let ds = List.init 3 (fun k -> Domain.spawn (worker (k + 1))) in
      worker 0 ();
      List.iter Domain.join ds);
  let v = Obs.view sink in
  Alcotest.(check (option int))
    "counter sums across domains" (Some 400)
    (List.assoc_opt "ticks" v.Obs.counters);
  (match List.assoc_opt "lat" v.Obs.hists with
   | Some h -> Alcotest.(check int) "histogram count" 400 (Obs.Hist.count h)
   | None -> Alcotest.fail "lat histogram missing");
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "domain %d's own counter" k)
        (Some 100)
        (List.assoc_opt (Printf.sprintf "domain.%d" k) v.Obs.counters))
    [ 0; 1; 2; 3 ];
  (* Non-destructive view: reading again yields the same totals. *)
  let v2 = Obs.view sink in
  Alcotest.(check bool) "view is non-destructive" true
    (v.Obs.counters = v2.Obs.counters)

(* ------------------------------------------------------------------ *)
(* Campaign telemetry invariance.                                      *)

let gcd_mlang =
  let open Mlang.Dsl in
  program
    [ garray "out" 2 ]
    [
      fn "gcd" [ p_int "a"; p_int "b" ] ~ret:(Some Mlang.Ast.TInt)
        [
          while_ (v "b" <>! i 0)
            [ let_ "t" (v "b"); set "b" (v "a" %! v "b"); set "a" (v "t") ];
          ret (v "a");
        ];
      fn "main" [] ~ret:(Some Mlang.Ast.TInt)
        [
          let_ "g" (call "gcd" [ i 252; i 105 ]);
          let_ "scaled" (v "g" *! i 3);
          sto "out" (i 0) (v "scaled");
          ret (i 0);
        ];
    ]

let fingerprint (t : Core.Campaign.trial) =
  Printf.sprintf "%d/%s/%d/%d/%d/%s" t.Core.Campaign.index
    (Core.Outcome.describe t.Core.Campaign.outcome)
    t.Core.Campaign.dyn_count t.Core.Campaign.faults_planned
    t.Core.Campaign.faults_landed
    (match t.Core.Campaign.fidelity with
     | None -> "-"
     | Some f -> Printf.sprintf "%h" f)

(* One campaign under a fresh sink; returns trial fingerprints, the
   merged counters and the faults landed over the trial records. *)
let campaign_obs ~jobs ~stride =
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let target = Core.Campaign.of_prog prog in
  let sink = Obs.make () in
  let summary =
    Obs.with_sink sink (fun () ->
        let p =
          Core.Campaign.prepare ~checkpoint_stride:stride target
            Core.Policy.Protect_nothing
        in
        Core.Campaign.run ~jobs p ~errors:2 ~trials:9 ~seed:5)
  in
  let trials = summary.Core.Campaign.trials in
  ( List.map fingerprint trials,
    (Obs.view sink).Obs.counters,
    List.fold_left (fun n t -> n + t.Core.Campaign.faults_landed) 0 trials )

let campaign_plain ~jobs ~stride =
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let target = Core.Campaign.of_prog prog in
  let p =
    Core.Campaign.prepare ~checkpoint_stride:stride target
      Core.Policy.Protect_nothing
  in
  let s = Core.Campaign.run ~jobs p ~errors:2 ~trials:9 ~seed:5 in
  List.map fingerprint s.Core.Campaign.trials

let stride_invariant_families (counters : (string * int) list) =
  List.filter
    (fun (name, _) ->
      String.starts_with ~prefix:"campaign." name
      || String.starts_with ~prefix:"sim." name)
    counters

let test_jobs_invariance () =
  (* Within each stride, every counter — campaign.*, sim.* and
     snapshot.* alike — must be identical for any domain fan-out; the
     trial records must also match a telemetry-off run. *)
  List.iter
    (fun stride ->
      let tag j = Printf.sprintf "stride=%d jobs=%d" stride j in
      let (fp1, c1, _) = campaign_obs ~jobs:1 ~stride in
      Alcotest.(check bool)
        (tag 1 ^ " has campaign counters")
        true
        (List.mem_assoc "campaign.trials" c1);
      List.iter
        (fun jobs ->
          let (fp, c, _) = campaign_obs ~jobs ~stride in
          Alcotest.(check (list string)) (tag jobs ^ " trials") fp1 fp;
          Alcotest.(check bool) (tag jobs ^ " counters") true (c = c1);
          Alcotest.(check (list string))
            (tag jobs ^ " records match obs-off")
            (campaign_plain ~jobs ~stride)
            fp)
        [ 2; 4 ])
    [ 0; 1; 5 ]

let test_stride_invariance () =
  (* Across strides only the snapshot.* family may move: checkpoint
     spacing changes how many restores hit and how much prefix they
     skip, but never what the trials compute. *)
  let (fp0, c0, _) = campaign_obs ~jobs:2 ~stride:0 in
  let inv0 = stride_invariant_families c0 in
  List.iter
    (fun stride ->
      let (fp, c, _) = campaign_obs ~jobs:2 ~stride in
      let tag = Printf.sprintf "stride=%d" stride in
      Alcotest.(check (list string)) (tag ^ " trials") fp0 fp;
      Alcotest.(check bool)
        (tag ^ " campaign.*/sim.* counters")
        true
        (stride_invariant_families c = inv0))
    [ 1; 3; 5 ]

let test_faults_landed_consistency () =
  (* The counters are exactly the landed faults: the campaign.* and
     sim.* counters both equal the sum over the trial records. (The
     profile's site rows sum to the same counter: test_harness.) *)
  let (_, counters, landed) = campaign_obs ~jobs:2 ~stride:1 in
  Alcotest.(check bool) "some faults landed" true (landed > 0);
  Alcotest.(check (option int))
    "records sum = campaign.faults_landed" (Some landed)
    (List.assoc_opt "campaign.faults_landed" counters);
  Alcotest.(check (option int))
    "sim.faults_landed agrees" (Some landed)
    (List.assoc_opt "sim.faults_landed" counters)

(* ------------------------------------------------------------------ *)
(* Disabled-path allocation guard.                                     *)

let test_disabled_no_alloc () =
  Alcotest.(check bool) "ambient sink disabled" false (Obs.enabled ());
  (* Warm up so any one-time setup is paid before measuring. *)
  for _ = 1 to 100 do
    Obs.count "warm" 1
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.count "c" 1;
    Obs.observe "h" 1.0;
    let t0 = Obs.span_begin () in
    Obs.span_end ~name:"s" t0
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "disabled recording allocates nothing (%.0f minor words)"
       dw)
    true (dw < 256.0)

let test_interp_alloc_unchanged () =
  (* The interpreter's per-run allocation must be identical with the
     instrumentation compiled in but disabled: a bit-identical workload
     allocates a bit-identical number of minor words. *)
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let code = Sim.Code.of_prog prog in
  let measure () =
    let w0 = Gc.minor_words () in
    ignore (Sim.Interp.run_exn code);
    Gc.minor_words () -. w0
  in
  ignore (measure ());  (* warm-up: first run pays lazy setup *)
  let a = measure () and b = measure () in
  Alcotest.(check (float 0.0)) "warm interpreter runs allocate equally" a b

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          QCheck_alcotest.to_alcotest merge_is_concat;
          QCheck_alcotest.to_alcotest merge_commutes;
          QCheck_alcotest.to_alcotest merge_associates;
          QCheck_alcotest.to_alcotest quantile_total;
          Alcotest.test_case "quantile bucket accuracy" `Quick
            test_quantile_bucket_accuracy;
        ] );
      ( "sink",
        [ Alcotest.test_case "multi-domain merge" `Quick test_sink_multi_domain ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs invariance (per stride)" `Quick
            test_jobs_invariance;
          Alcotest.test_case "stride invariance (campaign.*/sim.*)" `Quick
            test_stride_invariance;
          Alcotest.test_case "faults-landed consistency" `Quick
            test_faults_landed_consistency;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_no_alloc;
          Alcotest.test_case "interpreter allocation unchanged" `Quick
            test_interp_alloc_unchanged;
        ] );
    ]
