(* `etap sections`: an app's section partition under one tagging mode
   and policy, with the hashes the result cache keys trials by
   (DESIGN.md §15). The golden files pin this table. *)

let table (app : Apps.App.t) ~seed ~literal ~policy : Report.table =
  let prog = (app.Apps.App.build ~seed).Apps.App.prog in
  let tagging = Core.Tagging.compute ~protect_addresses:(not literal) prog in
  let sections =
    Analysis.Section.compute ~tags:(Core.Tagging.mask tagging policy) prog
  in
  let entry = (Analysis.Section.entry sections).Analysis.Section.fid in
  let short h = String.sub h 0 12 in
  Report.table ~id:"sections"
    ~title:
      (Printf.sprintf "Section partition: %s (%s)" app.Apps.App.name
         (Core.Policy.to_string policy))
    ~columns:
      [
        Report.column ~key:"section" "section";
        Report.column ~key:"static_slots" "static";
        Report.column ~key:"tagged_slots" "tagged";
        Report.column ~key:"callees" "callees";
        Report.column ~key:"local_hash" "local hash";
        Report.column ~key:"section_hash" "section hash";
      ]
    (Array.to_list
       (Array.map
          (fun (i : Analysis.Section.info) ->
            [
              Report.text
                (if i.fid = entry then i.name ^ " (entry)" else i.name);
              Report.int i.static_slots;
              Report.int i.tagged_slots;
              Report.text (String.concat "," i.callees);
              Report.text (short i.local_hash);
              Report.text (short i.section_hash);
            ])
          sections.Analysis.Section.infos))
