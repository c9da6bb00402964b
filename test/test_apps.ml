(* Tests for the seven benchmark applications: every compiled program
   must agree bit-for-bit with its pure-OCaml host reference, plus
   per-application algorithmic invariants and property tests. *)

let golden (b : Apps.App.built) =
  Sim.Interp.run_exn (Sim.Code.of_prog b.Apps.App.prog)

let check_host name (b : Apps.App.built) =
  match b.Apps.App.host_check (golden b) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

(* Host agreement across several workload seeds, for every app. *)
let test_host_agreement (app : Apps.App.t) () =
  List.iter
    (fun seed -> check_host app.Apps.App.name (app.Apps.App.build ~seed))
    [ 1; 2; 5 ]

let test_self_score (app : Apps.App.t) () =
  let b = app.Apps.App.build ~seed:1 in
  let g = golden b in
  let s = b.Apps.App.score ~golden:g g in
  Alcotest.(check bool)
    (app.Apps.App.name ^ " self-score meets threshold")
    true (Apps.App.meets b s)

(* ------------------------------------------------------------------ *)
(* Blowfish invariants.                                                *)

let test_blowfish_pi_constants () =
  let w = Apps.Pi_digits.words 6 in
  (* the published Blowfish P-array head *)
  Alcotest.(check (list int)) "P[0..5]"
    [ 0x243F6A88; 0x85A308D3; 0x13198A2E; 0x03707344; 0xA4093822; 0x299F31D0 ]
    (Array.to_list w)

(* The literal table against its BBP derivation: the whole P-array, the
   first of every 16 S-box words and the last word. Comparing all 1,042
   words takes seconds; `dune exec test/bbp/pi_table.exe` does that. *)
let test_blowfish_pi_table () =
  let table = Apps.Pi_digits.words Apps.Pi_digits.count in
  let sampled =
    List.init 18 Fun.id
    @ List.init ((Apps.Pi_digits.count - 18) / 16) (fun k -> 18 + (16 * k))
    @ [ Apps.Pi_digits.count - 1 ]
  in
  List.iter
    (fun w ->
      Alcotest.(check int) (Printf.sprintf "word %d" w) (Pi_bbp.word w)
        table.(w))
    sampled

let test_blowfish_roundtrip_host () =
  (* host encrypt/decrypt is an identity on words, for several texts *)
  List.iter
    (fun seed ->
      let text = Workloads.Text_gen.generate ~seed ~bytes:64 in
      let words =
        Array.map
          (fun w -> Int32.to_int w land 0xFFFFFFFF)
          (Workloads.Text_gen.to_words text)
      in
      let enc, dec = Apps.Blowfish.host_roundtrip words in
      Alcotest.(check bool) "ciphertext differs" true (enc <> words);
      Alcotest.(check bool) "roundtrip identity" true
        (Array.map Apps.Blowfish.sx32 dec
        = Array.map Apps.Blowfish.sx32 words))
    [ 10; 11; 12 ]

let test_blowfish_avalanche () =
  (* flipping one plaintext bit changes many ciphertext bits *)
  let words = Array.make 2 0 in
  let enc1, _ = Apps.Blowfish.host_roundtrip words in
  let words2 = [| 1; 0 |] in
  let enc2, _ = Apps.Blowfish.host_roundtrip words2 in
  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go x 0
  in
  let flipped =
    popcount ((enc1.(0) lxor enc2.(0)) land 0xFFFFFFFF)
    + popcount ((enc1.(1) lxor enc2.(1)) land 0xFFFFFFFF)
  in
  Alcotest.(check bool) "avalanche" true (flipped > 16)

(* ------------------------------------------------------------------ *)
(* ADPCM invariants.                                                   *)

let test_adpcm_reconstruction_quality () =
  let pcm = Workloads.Audio_gen.speech ~seed:9 ~samples:800 in
  let dec = Apps.Adpcm.host_decode (Apps.Adpcm.host_encode pcm) in
  let snr = Fidelity.Snr.snr_db pcm dec in
  Alcotest.(check bool) "codec reconstructs speech (> 8 dB)" true (snr > 8.0)

let adpcm_codes_in_range_prop =
  QCheck.Test.make ~name:"adpcm codes are 4-bit" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let pcm = Workloads.Audio_gen.speech ~seed ~samples:200 in
      Array.for_all (fun c -> c >= 0 && c <= 15) (Apps.Adpcm.host_encode pcm))

let adpcm_output_16bit_prop =
  QCheck.Test.make ~name:"adpcm decode stays 16-bit" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let pcm = Workloads.Audio_gen.speech ~seed ~samples:200 in
      Array.for_all
        (fun x -> x >= -32768 && x <= 32767)
        (Apps.Adpcm.host_decode (Apps.Adpcm.host_encode pcm)))

(* ------------------------------------------------------------------ *)
(* Susan invariants.                                                   *)

let test_susan_finds_edges () =
  let img = Workloads.Image_gen.scene ~seed:1 ~width:32 ~height:32 in
  let resp = Apps.Susan.host_edges img.Workloads.Image_gen.pixels in
  let edge_pixels = Array.fold_left (fun n r -> if r > 0 then n + 1 else n) 0 resp in
  Alcotest.(check bool) "finds edges" true (edge_pixels > 20);
  Alcotest.(check bool) "not everything is an edge" true
    (edge_pixels < Array.length resp / 2)

let test_susan_flat_image_no_edges () =
  let flat = Array.make (32 * 32) 128 in
  let resp = Apps.Susan.host_edges flat in
  Alcotest.(check bool) "no edges on flat image" true
    (Array.for_all (fun r -> r = 0) resp)

let test_susan_mask_is_37_points () =
  Alcotest.(check int) "SUSAN circular mask" 37
    (List.length Apps.Susan.mask_offsets)

(* ------------------------------------------------------------------ *)
(* MPEG invariants.                                                    *)

let test_mpeg_dct_roundtrip () =
  (* inv_dct (fwd_dct x) ~ x within quantization-free rounding error *)
  let rng = Workloads.Rng.make 13 in
  let blk = Array.init 64 (fun _ -> Workloads.Rng.range rng (-128) 128) in
  let back = Apps.Mpeg.inv_dct (Apps.Mpeg.fwd_dct blk) in
  Array.iteri
    (fun k x ->
      if abs (x - back.(k)) > 6 then
        Alcotest.failf "dct roundtrip error at %d: %d vs %d" k x back.(k))
    blk

let test_mpeg_decoder_matches_encoder_recon () =
  let video = Workloads.Image_gen.video ~seed:4 ~width:16 ~height:16 ~frames:7 in
  let frames =
    Array.concat (List.map (fun im -> im.Workloads.Image_gen.pixels) video)
  in
  let _, recon, decoded = Apps.Mpeg.host_codec frames in
  Alcotest.(check bool) "closed loop" true (recon = decoded)

let test_mpeg_reconstruction_quality () =
  let video = Workloads.Image_gen.video ~seed:4 ~width:16 ~height:16 ~frames:7 in
  let frames =
    Array.concat (List.map (fun im -> im.Workloads.Image_gen.pixels) video)
  in
  let _, _, decoded = Apps.Mpeg.host_codec frames in
  let snr = Fidelity.Snr.snr_db frames decoded in
  Alcotest.(check bool) "codec useful (> 15 dB)" true (snr > 15.0)

(* ------------------------------------------------------------------ *)
(* MCF invariants.                                                     *)

let test_mcf_host_optimal_and_feasible () =
  List.iter
    (fun seed ->
      let inst = Apps.Mcf.instance ~seed in
      let flows, cost, shipped = Apps.Mcf.host_solve inst in
      Alcotest.(check int) "ships full supply"
        inst.Workloads.Network_gen.supply shipped;
      match
        Fidelity.Schedule.check
          (Workloads.Network_gen.to_fidelity_instance inst)
          ~optimal_cost:cost ~flows ~reported_cost:cost
      with
      | Fidelity.Schedule.Optimal -> ()
      | _ -> Alcotest.fail "host solution must be feasible and optimal")
    [ 1; 2; 3; 4 ]

let test_mcf_ssp_is_optimal_vs_bruteforce () =
  (* tiny instance where min cost is computable by hand:
     s->a (2, cost 1), s->b (2, cost 2), a->t (1, cost 1), a->b (2, cost 1),
     b->t (3, cost 1); supply 3.
     Cheapest: s-a-t (1 unit, cost 2); s-a-b-t (1 unit, cost 3);
     s-b-t (1 unit, cost 3) -> total 8. *)
  let inst =
    {
      Workloads.Network_gen.n_nodes = 4;
      arcs = [| (0, 1, 2, 1); (0, 2, 2, 2); (1, 3, 1, 1); (1, 2, 2, 1); (2, 3, 3, 1) |];
      source = 0;
      sink = 3;
      supply = 3;
    }
  in
  let _, cost, shipped = Apps.Mcf.host_solve inst in
  Alcotest.(check int) "ships 3" 3 shipped;
  Alcotest.(check int) "min cost 8" 8 cost

(* ------------------------------------------------------------------ *)
(* GSM invariants.                                                     *)

let test_gsm_codec_quality () =
  let speech = Workloads.Audio_gen.speech ~seed:21 ~samples:640 in
  let _, recon, dec = Apps.Gsm.host_codec speech in
  Alcotest.(check bool) "decoder mirrors encoder" true (recon = dec);
  let snr = Fidelity.Snr.snr_db speech dec in
  Alcotest.(check bool) "codec useful (> 3 dB)" true (snr > 3.0)

let test_gsm_lags_in_range () =
  let speech = Workloads.Audio_gen.speech ~seed:22 ~samples:640 in
  let coded, _, _ = Apps.Gsm.host_codec speech in
  Alcotest.(check bool) "lags in [40,120]" true
    (Array.for_all (fun l -> l >= 40 && l <= 120) coded.Apps.Gsm.lags);
  Alcotest.(check bool) "gains 2-bit" true
    (Array.for_all (fun g -> g >= 0 && g <= 3) coded.Apps.Gsm.gains);
  Alcotest.(check bool) "pulses 4-bit signed" true
    (Array.for_all (fun q -> q >= -7 && q <= 7) coded.Apps.Gsm.pulses)

(* ------------------------------------------------------------------ *)
(* ART invariants.                                                     *)

let test_art_recognizes_trained_patterns () =
  let net = Apps.Art.make_net () in
  Apps.Art.train net;
  (* after training, each pattern matches its best category above the
     vigilance level *)
  Array.iter
    (fun p ->
      let best = ref 0 and bestv = ref (-1.0) in
      for c = 0 to Apps.Art.n_categories - 1 do
        let t = Apps.Art.choice net c p in
        if t > !bestv then begin
          bestv := t;
          best := c
        end
      done;
      Alcotest.(check bool) "match above vigilance" true
        (Apps.Art.match_ratio net !best p >= Apps.Art.vigilance))
    Apps.Art.patterns

let test_art_distinct_categories () =
  let net = Apps.Art.make_net () in
  Apps.Art.train net;
  let cat_of p =
    let best = ref 0 and bestv = ref (-1.0) in
    for c = 0 to Apps.Art.n_categories - 1 do
      let t = Apps.Art.choice net c p in
      if t > !bestv then begin
        bestv := t;
        best := c
      end
    done;
    !best
  in
  let cats = Array.to_list (Array.map cat_of Apps.Art.patterns) in
  Alcotest.(check int) "four distinct categories" 4
    (List.length (List.sort_uniq compare cats))

let test_art_scan_finds_object () =
  (* the golden scan should pick the window where the object was
     embedded; verify via the host for a few seeds *)
  List.iter
    (fun seed ->
      let b = Apps.Art.build ~seed in
      let g = golden b in
      let scan = Apps.Art.scan_of_run b.Apps.App.prog g in
      Alcotest.(check bool) "confident match" true
        (scan.Fidelity.Confidence.confidence > 0.5))
    [ 1; 3; 8 ]

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)

let test_registry () =
  Alcotest.(check int) "seven apps" 7 (List.length Apps.Registry.all);
  Alcotest.(check (list string)) "names"
    [ "susan"; "mpeg"; "mcf"; "blowfish"; "adpcm"; "gsm"; "art" ]
    Apps.Registry.names;
  Alcotest.(check bool) "find" true (Apps.Registry.find "gsm" <> None);
  Alcotest.(check bool) "find missing" true (Apps.Registry.find "nope" = None)

(* ------------------------------------------------------------------ *)

let () =
  let host_cases =
    List.map
      (fun (app : Apps.App.t) ->
        Alcotest.test_case (app.Apps.App.name ^ " host agreement") `Slow
          (test_host_agreement app))
      Apps.Registry.all
  in
  let self_cases =
    List.map
      (fun (app : Apps.App.t) ->
        Alcotest.test_case (app.Apps.App.name ^ " self-score") `Quick
          (test_self_score app))
      Apps.Registry.all
  in
  Alcotest.run "apps"
    [
      ("host agreement", host_cases);
      ("fidelity self-score", self_cases);
      ( "blowfish",
        [
          Alcotest.test_case "pi constants" `Quick test_blowfish_pi_constants;
          Alcotest.test_case "pi table vs BBP" `Quick test_blowfish_pi_table;
          Alcotest.test_case "roundtrip" `Quick test_blowfish_roundtrip_host;
          Alcotest.test_case "avalanche" `Quick test_blowfish_avalanche;
        ] );
      ( "adpcm",
        [
          Alcotest.test_case "reconstruction quality" `Quick
            test_adpcm_reconstruction_quality;
          QCheck_alcotest.to_alcotest adpcm_codes_in_range_prop;
          QCheck_alcotest.to_alcotest adpcm_output_16bit_prop;
        ] );
      ( "susan",
        [
          Alcotest.test_case "finds edges" `Quick test_susan_finds_edges;
          Alcotest.test_case "flat image" `Quick test_susan_flat_image_no_edges;
          Alcotest.test_case "37-point mask" `Quick test_susan_mask_is_37_points;
        ] );
      ( "mpeg",
        [
          Alcotest.test_case "dct roundtrip" `Quick test_mpeg_dct_roundtrip;
          Alcotest.test_case "closed loop" `Quick
            test_mpeg_decoder_matches_encoder_recon;
          Alcotest.test_case "quality" `Quick test_mpeg_reconstruction_quality;
        ] );
      ( "mcf",
        [
          Alcotest.test_case "optimal and feasible" `Quick
            test_mcf_host_optimal_and_feasible;
          Alcotest.test_case "known optimum" `Quick
            test_mcf_ssp_is_optimal_vs_bruteforce;
        ] );
      ( "gsm",
        [
          Alcotest.test_case "codec quality" `Quick test_gsm_codec_quality;
          Alcotest.test_case "field ranges" `Quick test_gsm_lags_in_range;
        ] );
      ( "art",
        [
          Alcotest.test_case "recognizes patterns" `Quick
            test_art_recognizes_trained_patterns;
          Alcotest.test_case "distinct categories" `Quick
            test_art_distinct_categories;
          Alcotest.test_case "scan confidence" `Quick test_art_scan_finds_object;
        ] );
      ("registry", [ Alcotest.test_case "contents" `Quick test_registry ]);
    ]
