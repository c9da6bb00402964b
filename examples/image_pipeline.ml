(* Image pipeline: Susan edge detection under increasing error rates,
   with the edge maps rendered as ASCII art so the fidelity loss is
   visible, not just numeric.

   Run with:  dune exec examples/image_pipeline.exe *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

let render_edges ~width (resp : int array) =
  let shades = [| ' '; '.'; ':'; '+'; '*'; '#' |] in
  Array.iteri
    (fun i r ->
      let level = min 5 (r * 6 / 256) in
      print_char shades.(level);
      if (i + 1) mod width = 0 then print_newline ())
    resp

let () =
  let built = Apps.Susan.build ~seed:3 in
  let prog = built.Apps.App.prog in
  let target = Core.Campaign.of_prog ~protect_addresses:false prog in
  let golden = target.Core.Campaign.baseline in
  let golden_resp =
    Sim.Memory.read_global_ints golden.Sim.Interp.memory prog "resp"
  in
  say "fault-free edge map (%d dynamic instructions):"
    golden.Sim.Interp.dyn_count;
  render_edges ~width:32 golden_resp;

  let prepared =
    Core.Campaign.prepare target Core.Policy.Protect_control
  in
  (* This example renders the corrupted memory image itself, so it uses
     the [run_trial_result] escape hatch rather than [run] (whose
     summaries deliberately never retain a [Memory.t]). [trial_rng]
     reproduces the RNG that [run] would give trial 0. *)
  List.iter
    (fun errors ->
      let rng =
        Core.Campaign.trial_rng ~seed:5 ~errors
          ~policy:Core.Policy.Protect_control 0
      in
      let r = Core.Campaign.run_trial_result prepared ~errors ~rng ~index:0 in
      match Core.Outcome.of_result r with
      | Core.Outcome.Completed ->
        let resp = Sim.Memory.read_global_ints r.Sim.Interp.memory prog "resp" in
        say "";
        say "with %d errors inserted (control protected): PSNR %.1f dB"
          errors
          (Fidelity.Psnr.psnr_db golden_resp resp);
        render_edges ~width:32 resp
      | _ -> say "with %d errors: catastrophic failure" errors)
    [ 200; 1000; 3000 ];
  say "";
  say "the paper's fidelity threshold for Susan is 10 dB PSNR \
       (ImageMagick comparison)."
