(* Byte-parity against the frozen goldens in test/golden/: every entry
   of the golden table (test/golden_gen/goldens.ml) must reproduce its
   file byte for byte. Regenerate the goldens (and say so in the
   commit) only when an output change is intended. *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* test/golden of the source tree, whatever the working directory:
   dune names the tree in DUNE_SOURCEROOT (for [dune test] and
   [dune exec] alike); a bare run finds it from the executable, which
   dune builds into <root>/_build/default/test. *)
let golden_dir =
  let root =
    match Sys.getenv_opt "DUNE_SOURCEROOT" with
    | Some root -> root
    | None ->
      List.fold_left Filename.concat
        (Filename.dirname Sys.executable_name)
        [ Filename.parent_dir_name; Filename.parent_dir_name;
          Filename.parent_dir_name ]
  in
  Filename.concat (Filename.concat root "test") "golden"

let check_golden file actual =
  (* gen.exe writes each file with one trailing newline *)
  Alcotest.(check string) file
    (read_file (Filename.concat golden_dir file))
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
