(* Entry point: main.exe --workload W --seed N --seconds S --trace 0|1.
   Prints a human-readable account of the run, then, as its last line,
   the result object {correct, attempted, failed, metrics}. *)

let () =
  let a = Common.parse_args () in
  Common.mkdir_p Common.work_dir;
  Common.inject_pending := a.Common.inject_mismatch;
  (match a.Common.workload with
   | "paper-repro" -> Paper.run a
   | "sweep-extend" -> Sweep.run a
   | "serve-mix" -> Servemix.run a
   | w ->
     prerr_endline ("unknown workload " ^ w);
     exit 2);
  Common.finish a
