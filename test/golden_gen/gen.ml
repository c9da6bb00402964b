(* Regenerates the golden files under test/golden/ from the golden
   table in goldens.ml. Run from the repository root:

     dune exec test/golden_gen/gen.exe -- test/golden

   Regenerate only when an output change is intended, and say so in the
   commit message. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  List.iter
    (fun (_, file, compute) ->
      let path = Filename.concat dir file in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (compute ());
          Out_channel.output_string oc "\n");
      Printf.printf "wrote %s\n%!" path)
    Goldens.all
