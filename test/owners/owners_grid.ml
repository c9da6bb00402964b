(* Compares [Core.Memo.owners_of] with the reference owner walk on
   every app, mode and policy, and exits 1 on any difference. About
   10 s on one core; test_memo checks two apps. *)

let () =
  let rng = Random.State.make [| 2006 |] in
  let checked = ref 0 and bad = ref 0 in
  List.iter
    (fun app ->
      let n, mismatches = Owner_oracle.check_app ~rng ~rounds:3 app in
      checked := !checked + n;
      bad := !bad + List.length mismatches;
      List.iter
        (fun m -> prerr_endline (Owner_oracle.pp_mismatch m))
        mismatches)
    Apps.Registry.all;
  if !bad > 0 then begin
    Printf.eprintf "owners: %d of %d ordinals differ from the reference walk\n"
      !bad !checked;
    exit 1
  end;
  Printf.printf "owners: all %d ordinals match the reference walk\n" !checked
