(* Byte-parity against the frozen goldens in test/golden/.

   The goldens were generated by test/golden_gen/gen.exe before the
   report-layer and campaign refactors; these tests pin the renderers
   and the campaign engine to that output byte for byte. Regenerate the
   goldens (and say so in the commit) only when an output change is
   intended. *)

let read_file path = In_channel.with_open_text path In_channel.input_all

let check_golden name actual =
  (* gen.exe writes each file with one trailing newline *)
  Alcotest.(check string) name (read_file (Filename.concat "golden" name))
    (actual ^ "\n")

let loaded =
  lazy
    (List.filter_map
       (fun n ->
         Option.map (Harness.Experiment.load ~seed:1) (Apps.Registry.find n))
       [ "mcf"; "adpcm" ])

let test_table2 () =
  check_golden "table2_quick.txt"
    (Harness.Table2.render (Harness.Table2.run ~trials:4 ~jobs:1 (Lazy.force loaded)))

let test_table3 () =
  check_golden "table3_quick.txt"
    (Harness.Table3.render (Harness.Table3.run (Lazy.force loaded)))

let test_taxonomy () =
  check_golden "taxonomy_quick.txt"
    (Harness.Taxonomy.render ~mode:Harness.Experiment.Literal
       (Harness.Taxonomy.run ~errors:2 ~trials:8 ~seed:41
          ~mode:Harness.Experiment.Literal
          [ List.hd (Lazy.force loaded) ]))

let test_audit () =
  check_golden "audit_quick.txt"
    (Harness.Taxonomy.render_audit ~mode:Harness.Experiment.Full
       (Harness.Taxonomy.audit ~errors:2 ~trials:8 ~seed:41
          ~mode:Harness.Experiment.Full (Lazy.force loaded)))

let test_fig3 () =
  check_golden "fig3_quick.txt"
    (Harness.Figures.render
       (Harness.Figures.run ~trials:4 ~jobs:1 (Lazy.force loaded)
          (Harness.Figures.by_id "fig3")))

let test_ablation () =
  check_golden "ablation_quick.txt"
    (Harness.Ablation.render_address
       (Harness.Ablation.address ~trials:4 ~jobs:1 (Lazy.force loaded)))

(* Fixed-seed campaign content, identical across jobs counts. Mirrors
   the dump in gen.ml: per-trial classification, landed faults, dynamic
   length and fidelity, plus the summary totals. *)
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

let campaign_dump ~jobs =
  let prog = Mlang.Compile.to_ir gcd_mlang in
  let target = Core.Campaign.of_prog prog in
  let p = Core.Campaign.prepare target Core.Policy.Protect_nothing in
  let score (r : Sim.Interp.result) =
    float_of_int
      (Sim.Memory.read_global_ints r.Sim.Interp.memory prog "out").(0)
  in
  let s = Core.Campaign.run ~jobs ~score p ~errors:2 ~trials:13 ~seed:5 in
  let buf = Buffer.create 512 in
  List.iter
    (fun (t : Core.Campaign.trial) ->
      let dyn, fid =
        match t.Core.Campaign.outcome with
        | Core.Outcome.Completed ->
          ( string_of_int t.Core.Campaign.dyn_count,
            match t.Core.Campaign.fidelity with
            | Some f -> Printf.sprintf "%.6f" f
            | None -> "-" )
        | Core.Outcome.Crash _ | Core.Outcome.Infinite -> ("-", "-")
      in
      Buffer.add_string buf
        (Printf.sprintf "trial %02d: %s landed=%d dyn=%s fidelity=%s\n"
           t.Core.Campaign.index
           (Core.Outcome.to_string t.Core.Campaign.outcome)
           t.Core.Campaign.faults_landed dyn fid))
    s.Core.Campaign.trials;
  Buffer.add_string buf
    (Printf.sprintf "totals: n=%d crashes=%d infinite=%d completed=%d"
       (Core.Campaign.n s) (Core.Campaign.crashes s)
       (Core.Campaign.infinite s) (Core.Campaign.completed s));
  Buffer.contents buf

let test_campaign () =
  List.iter
    (fun jobs ->
      check_golden "campaign_gcd.txt" (campaign_dump ~jobs))
    [ 1; 4 ]

(* Telemetry goldens: the susan fault-site profile table and the
   redacted metrics stream of the same campaign. Mirrors
   profile_susan in gen.ml. *)
let profile_susan ~render =
  let l =
    match Apps.Registry.find "susan" with
    | Some app -> Harness.Experiment.load ~seed:1 app
    | None -> Alcotest.fail "susan not registered"
  in
  let sink = Obs.make () in
  let p =
    Obs.with_sink sink (fun () ->
        Harness.Profile.run ~errors:2 ~trials:8 ~seed:41 ~jobs:1
          ~mode:Harness.Experiment.Full l)
  in
  if render then Harness.Profile.render ~top:10 p
  else
    String.concat "\n"
      (Obs.metrics_lines ~redact_volatile:true ~command:"profile"
         ~meta:
           [
             ("app", Report.Json.Str "susan");
             ("errors", Report.Json.Int 2);
             ("trials", Report.Json.Int 8);
             ("seed", Report.Json.Int 41);
           ]
         (Obs.view sink))

let test_profile () = check_golden "profile_susan.txt" (profile_susan ~render:true)
let test_metrics () = check_golden "metrics_susan.txt" (profile_susan ~render:false)

let () =
  Alcotest.run "golden"
    [
      ( "parity",
        [
          Alcotest.test_case "table2 quick" `Quick test_table2;
          Alcotest.test_case "table3 quick" `Quick test_table3;
          Alcotest.test_case "taxonomy quick" `Quick test_taxonomy;
          Alcotest.test_case "audit quick" `Quick test_audit;
          Alcotest.test_case "campaign gcd, jobs 1 and 4" `Quick
            test_campaign;
          Alcotest.test_case "profile susan" `Quick test_profile;
          Alcotest.test_case "metrics susan (redacted)" `Quick test_metrics;
          Alcotest.test_case "fig3 quick" `Quick test_fig3;
          Alcotest.test_case "ablation A quick" `Quick test_ablation;
        ] );
    ]
