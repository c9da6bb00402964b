(* Ablations called out in DESIGN.md.

   A. Address protection: the paper's Section-3 rules (Literal) versus
      control+address protection (Full). Quantifies both sides of the
      trade: the protected-instruction fraction and the residual
      catastrophic-failure rate under protection.

   B. Function eligibility: what the programmer's eligibility marking
      buys. Campaigns on a variant program in which *every* function
      (including the top-level driver) is eligible for relaxation. *)

(* Every Ablation A cell runs under protection at 20 errors, campaign
   seed 31. *)
let address_errors = 20

let address_cell ~trials (l : Experiment.loaded) mode =
  Matrix.make_cell ~mode ~policy:Core.Policy.Protect_control
    ~errors:address_errors ~trials ~seed:31 l.Experiment.app.Apps.App.name

(* The runner's cell list: each app under both tagging modes. *)
let address_plan ~trials (loaded : Experiment.loaded list) :
    Matrix.cell_spec list =
  List.concat_map
    (fun l ->
      List.map (address_cell ~trials l) [ Experiment.Full; Experiment.Literal ])
    loaded

(* The table, read through [find] from the collected cells of
   [address_plan]: per app, each mode's low-reliability fraction and
   catastrophic rate. *)
let address_table ~trials (loaded : Experiment.loaded list)
    (find : Matrix.cell_spec -> Matrix.cell) : Report.table =
  Report.table ~id:"ablation_address"
    ~title:
      (Printf.sprintf
         "Ablation A: address protection (catastrophic %% at %d errors, \
          protection ON)"
         address_errors)
    ~columns:
      [
        Report.column ~key:"app" "app";
        Report.column ~key:"pct_low_full" "% low-rel (ctrl+addr)";
        Report.column ~key:"pct_low_literal" "% low-rel (literal)";
        Report.column ~key:"pct_fail_full" "% fail (ctrl+addr)";
        Report.column ~key:"pct_fail_literal" "% fail (literal)";
      ]
    (List.map
       (fun (l : Experiment.loaded) ->
         let low mode = Report.pct (100.0 *. Experiment.low_fraction l mode) in
         let fail mode =
           Report.pct
             (Matrix.point l (find (address_cell ~trials l mode)))
               .Experiment.pct_failed
         in
         [
           Report.text l.Experiment.app.Apps.App.name;
           low Experiment.Full;
           low Experiment.Literal;
           fail Experiment.Full;
           fail Experiment.Literal;
         ])
       loaded)

(* ------------------------------------------------------------------ *)

(* B. Eligibility: the paper's benchmarks concentrate all work in
   compute kernels, so protecting their (trivial) drivers is nearly
   free — a finding in itself, reported by [driver_rows]. To expose
   what the marking *buys*, [pipeline_rows] studies a two-stage sensor
   pipeline (smoothing kernel feeding a threshold peak detector) under
   three programmer choices: nothing eligible, only the data kernel
   (recommended), or everything including the detector. *)

type eligibility_row = {
  config : string;
  pool : int;            (* injectable dynamic instructions *)
  pct_fail : float;
  mean_fidelity : float option;
      (* recall of true peaks on completed runs; None if none completed *)
  errors : int;
}

let pipeline_samples = 256

let pipeline_program ~smooth_eligible ~detect_eligible =
  let open Mlang.Dsl in
  let n = pipeline_samples in
  let samples =
    Array.init n (fun k ->
        let base = 100.0 *. sin (float_of_int k /. 9.0) in
        let spike = if k mod 61 >= 16 && k mod 61 <= 18 then 400 else 0 in
        (* Total conversion (not raw [int_of_float], unspecified off the
           int range) so sample generation stays defined whatever the
           expression above evolves into. Same clamp as
           [Memory.read_global_ints]; [base] is in [-100, 100] today,
           so the emitted samples are unchanged. *)
        Int32.of_int (Sim.Memory.int_of_float_total base + spike + 500))
  in
  program
    [ garray_init "raw" samples; garray "smooth" n; garray "peaks" 16;
      garray "n_peaks" 1 ]
    [
      fn ~eligible:smooth_eligible "smooth_all" [] ~ret:None
        [
          for_ "k" (i 2) (i (n - 2))
            [
              let_ "acc"
                ("raw".%(v "k" -! i 2) +! "raw".%(v "k" -! i 1)
                +! "raw".%(v "k") +! "raw".%(v "k" +! i 1)
                +! "raw".%(v "k" +! i 2));
              sto "smooth" (v "k") (v "acc" /! i 5);
            ];
        ];
      fn ~eligible:detect_eligible "detect" [] ~ret:None
        [
          let_ "count" (i 0);
          for_ "k" (i 1) (i (n - 1))
            [
              when_
                ((("smooth".%(v "k") >! i 700)
                 &&! ("smooth".%(v "k") >=! "smooth".%(v "k" -! i 1)))
                &&! ("smooth".%(v "k") >=! "smooth".%(v "k" +! i 1)))
                [
                  when_ (v "count" <! i 16)
                    [
                      sto "peaks" (v "count") (v "k");
                      set "count" (v "count" +! i 1);
                    ];
                ];
            ];
          sto "n_peaks" (i 0) (v "count");
        ];
      fn ~eligible:false "main" [] ~ret:(Some Mlang.Ast.TInt)
        [ call_ "smooth_all" []; call_ "detect" []; ret (i 0) ];
    ]

let eligibility ?(errors = 6) ?(trials = 30) ?(seed = 37) ?jobs () :
    eligibility_row list =
  List.map
    (fun (config, smooth_eligible, detect_eligible) ->
      let prog =
        Mlang.Compile.to_ir (pipeline_program ~smooth_eligible ~detect_eligible)
      in
      let target = Core.Campaign.of_prog prog in
      let golden = target.Core.Campaign.baseline in
      let read r name =
        Sim.Memory.read_global_ints r.Sim.Interp.memory prog name
      in
      let peak_list r =
        let count = (read r "n_peaks").(0) in
        let peaks = read r "peaks" in
        List.init (max 0 (min count 16)) (fun k -> peaks.(k))
      in
      let golden_peaks = peak_list golden in
      let prepared = Core.Campaign.prepare target Core.Policy.Protect_control in
      (* Recall of the true peaks, scored at the source: the peak lists
         are read out of each trial's memory image on the worker domain
         and only the percentage survives. *)
      let score r =
        let got = peak_list r in
        let found = List.filter (fun p -> List.mem p got) golden_peaks in
        100.0
        *. float_of_int (List.length found)
        /. float_of_int (max 1 (List.length golden_peaks))
      in
      let s = Core.Campaign.run ?jobs ~score prepared ~errors ~trials ~seed in
      {
        config;
        pool = prepared.Core.Campaign.injectable_total;
        pct_fail = Core.Campaign.pct_catastrophic s;
        mean_fidelity = Core.Campaign.mean_fidelity s;
        errors;
      })
    [
      ("nothing eligible", false, false);
      ("data kernel only (recommended)", true, false);
      ("everything eligible", true, true);
    ]

let eligibility_table rows : Report.table =
  let errors = match rows with [] -> 0 | r :: _ -> r.errors in
  Report.table ~id:"ablation_eligibility"
    ~title:
      (Printf.sprintf
         "Ablation B: eligibility marking on a sensor pipeline (%d errors, \
          protection ON)"
         errors)
    ~columns:
      [
        Report.column ~key:"configuration" "configuration";
        Report.column ~key:"pool" "injectable pool";
        Report.column ~key:"pct_catastrophic" "% catastrophic";
        Report.column ~key:"recall" "true-peak recall";
      ]
    (List.map
       (fun r ->
         [
           Report.text r.config;
           Report.int r.pool;
           Report.pct r.pct_fail;
           Report.opt ~missing:"n/a (all failed)" Report.pct r.mean_fidelity;
         ])
       rows)
