(* Compares every word of [Apps.Pi_digits] with its BBP derivation and
   exits 1 on any difference. About 2.6 s on one core; test_apps checks
   only a sample. *)

let () =
  let table = Apps.Pi_digits.words Apps.Pi_digits.count in
  let bad = ref 0 in
  Array.iteri
    (fun w v ->
      let expected = Pi_bbp.word w in
      if v <> expected then begin
        incr bad;
        Printf.eprintf "word %d: table %08X, BBP %08X\n" w v expected
      end)
    table;
  if !bad > 0 then begin
    Printf.eprintf "pi table: %d of %d words differ from BBP\n" !bad
      (Array.length table);
    exit 1
  end;
  Printf.printf "pi table: all %d words match BBP\n" (Array.length table)
