(* The golden table: every file under test/golden/, the test case that
   checks it, and the computation that produces its content (without
   the one trailing newline the file ends in). gen.exe writes the files
   from this list and test_golden compares against them, so the two
   cannot compute a golden differently.

   The files freeze the text output of the quick-scale experiments and
   the observable content of a fixed-seed campaign, so report-layer and
   campaign refactors can be checked for byte parity. *)

let loaded =
  lazy
    (List.filter_map
       (fun n ->
         Option.map (Harness.Experiment.load ~seed:1) (Apps.Registry.find n))
       [ "mcf"; "adpcm" ])

let table t = Report.to_text t

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

(* Per-trial classification, landed faults, dynamic length and
   fidelity, plus the summary totals. *)
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

(* Trial RNGs derive from the trial index, so the dump must not depend
   on how many domains ran the campaign. *)
let campaign_gcd () =
  let d1 = campaign_dump ~jobs:1 and d4 = campaign_dump ~jobs:4 in
  if d1 <> d4 then failwith "campaign dump differs between jobs=1 and jobs=4";
  d1

(* One susan campaign at quick scale with telemetry on: its fault-site
   attribution profile and its redacted metrics stream. Both come from
   the obs sink, so they freeze the telemetry layer's deterministic
   content: counter totals, site tallies and histogram counts
   (wall-clock-derived fields are nulled by [redact_volatile]). *)
let susan_profile =
  lazy
    (let l =
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
     (p, Obs.view sink))

let susan_metrics () =
  String.concat "\n"
    (Obs.metrics_lines ~redact_volatile:true ~command:"profile"
       ~meta:
         [
           ("app", Report.Json.Str "susan");
           ("errors", Report.Json.Int 2);
           ("trials", Report.Json.Int 8);
           ("seed", Report.Json.Int 41);
         ]
       (snd (Lazy.force susan_profile)))

(* The inject report's table, as `etap inject` and the daemon's inject
   verb print it, for adpcm and gsm under both tagging modes at seed 1,
   without a result store. adpcm's Full/protect-control pool is empty,
   so the file also covers a campaign with nothing to inject into. *)
let inject_quick () =
  let errors = 3 and trials = 4 and seed = 1 in
  String.concat "\n"
    (List.concat_map
       (fun name ->
         let l =
           Harness.Experiment.load ~seed (Option.get (Apps.Registry.find name))
         in
         List.map
           (fun literal ->
             let req =
               { Harness.Proto.app = name; errors; trials; seed; literal }
             in
             let cells =
               Harness.Matrix.run_cells ~jobs:1 [ l ]
                 (Harness.Serve.inject_cells req)
             in
             let r =
               Harness.Serve.inject_of_cells ~jobs:None ~cache_dir:None req l
                 cells
             in
             String.concat "\n" (List.map table r.Report.tables))
           [ false; true ])
       [ "adpcm"; "gsm" ])

(* (test case name, file under test/golden/, content). *)
let all : (string * string * (unit -> string)) list =
  let loaded () = Lazy.force loaded in
  [
    ( "table2 quick",
      "table2_quick.txt",
      fun () ->
        table
          (Harness.Table2.to_table
             (Harness.Table2.run ~trials:4 ~jobs:1 (loaded ()))) );
    ( "table3 quick",
      "table3_quick.txt",
      fun () -> table (Harness.Table3.to_table (Harness.Table3.run (loaded ())))
    );
    ( "taxonomy quick",
      "taxonomy_quick.txt",
      fun () ->
        let mode = Harness.Experiment.Literal in
        table
          (Harness.Taxonomy.to_table ~mode
             (Harness.Taxonomy.run ~errors:2 ~trials:8 ~seed:41 ~mode
                [ List.hd (loaded ()) ])) );
    ( "audit quick",
      "audit_quick.txt",
      fun () ->
        let mode = Harness.Experiment.Full in
        Harness.Taxonomy.render_audit ~mode
          (Harness.Taxonomy.audit ~errors:2 ~trials:8 ~seed:41 ~mode
             (loaded ())) );
    ("campaign gcd, jobs 1 and 4", "campaign_gcd.txt", campaign_gcd);
    ( "profile susan",
      "profile_susan.txt",
      fun () -> Harness.Profile.render ~top:10 (fst (Lazy.force susan_profile))
    );
    ("metrics susan (redacted)", "metrics_susan.txt", susan_metrics);
    ( "fig3 quick",
      "fig3_quick.txt",
      fun () ->
        table
          (Harness.Figures.to_table
             (Harness.Figures.run ~trials:4 ~jobs:1 (loaded ())
                (Harness.Figures.by_id "fig3"))) );
    ( "ablation A quick",
      "ablation_quick.txt",
      fun () ->
        table
          (Harness.Ablation.address_table
             (Harness.Ablation.address ~trials:4 ~jobs:1 (loaded ()))) );
    ("inject quick", "inject_quick.txt", inject_quick);
  ]
