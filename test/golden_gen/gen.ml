(* Regenerates the golden files under test/golden/.

   The files freeze the text output of the quick-scale experiments and
   the observable content of a fixed-seed campaign, so the report-layer
   and campaign refactors can be checked for byte parity. Run from the
   repository root:

     dune exec test/golden_gen/gen.exe -- test/golden

   Regenerate only when an output change is intended, and say so in the
   commit message. *)

let write dir name s =
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc s;
      Out_channel.output_string oc "\n");
  Printf.printf "wrote %s\n%!" path

(* The gcd kernel from the core tests: small, branchy, with a memory
   sink whose value serves as a cheap fidelity score. *)
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
    float_of_int (Sim.Memory.read_global_ints r.Sim.Interp.memory prog "out").(0)
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

(* Fault-site attribution profile for susan at quick scale, and the
   redacted metrics stream of the same campaign. Both come from the obs
   sink, so they freeze the telemetry layer's deterministic content:
   counter totals, site tallies and histogram counts (wall-clock-derived
   fields are nulled by [redact_volatile]). *)
let profile_susan ~render =
  let l =
    match Apps.Registry.find "susan" with
    | Some app -> Harness.Experiment.load ~seed:1 app
    | None -> failwith "susan not registered"
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

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let loaded =
    List.filter_map
      (fun n ->
        Option.map (Harness.Experiment.load ~seed:1) (Apps.Registry.find n))
      [ "mcf"; "adpcm" ]
  in
  write dir "table2_quick.txt"
    (Harness.Table2.render (Harness.Table2.run ~trials:4 ~jobs:1 loaded));
  write dir "table3_quick.txt" (Harness.Table3.render (Harness.Table3.run loaded));
  write dir "taxonomy_quick.txt"
    (Harness.Taxonomy.render ~mode:Harness.Experiment.Literal
       (Harness.Taxonomy.run ~errors:2 ~trials:8 ~seed:41
          ~mode:Harness.Experiment.Literal
          [ List.hd loaded ]));
  write dir "fig3_quick.txt"
    (Harness.Figures.render (Harness.Figures.run ~trials:4 ~jobs:1 loaded
          (Harness.Figures.by_id "fig3")));
  write dir "ablation_quick.txt"
    (Harness.Ablation.render_address
       (Harness.Ablation.address ~trials:4 ~jobs:1 loaded));
  write dir "audit_quick.txt"
    (Harness.Taxonomy.render_audit ~mode:Harness.Experiment.Full
       (Harness.Taxonomy.audit ~errors:2 ~trials:8 ~seed:41
          ~mode:Harness.Experiment.Full loaded));
  let d1 = campaign_dump ~jobs:1 and d4 = campaign_dump ~jobs:4 in
  if d1 <> d4 then failwith "campaign dump differs between jobs=1 and jobs=4";
  write dir "campaign_gcd.txt" d1;
  write dir "profile_susan.txt" (profile_susan ~render:true);
  write dir "metrics_susan.txt" (profile_susan ~render:false)
