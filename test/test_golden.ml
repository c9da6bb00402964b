(* Byte-parity against the frozen goldens in test/golden/: every entry
   of the golden table (test/golden_gen/goldens.ml) must reproduce its
   file byte for byte. Regenerate the goldens (and say so in the
   commit) only when an output change is intended. *)

let read_file path = In_channel.with_open_text path In_channel.input_all

let check_golden file actual =
  (* gen.exe writes each file with one trailing newline *)
  Alcotest.(check string) file (read_file (Filename.concat "golden" file))
    (actual ^ "\n")

let () =
  Alcotest.run "golden"
    [
      ( "parity",
        List.map
          (fun (name, file, compute) ->
            Alcotest.test_case name `Quick (fun () ->
                check_golden file (compute ())))
          Goldens.all );
    ]
