(* The reference owner walk and the differential check against
   [Core.Memo.owners_of].

   [walk] is the attribution [Memo] used before it resumed from golden
   checkpoints: one fault-free machine on the reference engine from
   ordinal 0, paused at [o + 1] for each ascending ordinal [o], the
   paused frame's fid taken as [o]'s owner; once the machine halts,
   every remaining ordinal goes to the entry section. *)

let walk (p : Core.Campaign.prepared) ~(ordinals : int list) :
    (int, int) Hashtbl.t =
  let tbl = Hashtbl.create (2 * List.length ordinals) in
  let t = p.Core.Campaign.target in
  let entry_fid = t.Core.Campaign.code.Sim.Code.entry_fid in
  let injection =
    Core.Fault_model.profiling_injection ~tags:p.Core.Campaign.tags
  in
  let m =
    Sim.Interp.machine ~injection ~budget:p.Core.Campaign.budget
      ~memory:(Sim.Memory.copy t.Core.Campaign.proto)
      t.Core.Campaign.code
  in
  let halted = ref false in
  List.iter
    (fun o ->
      if !halted then Hashtbl.replace tbl o entry_fid
      else
        match Sim.Interp.advance m ~pause_at:(o + 1) with
        | `Paused -> Hashtbl.replace tbl o (Sim.Interp.machine_fid m)
        | `Halted ->
          halted := true;
          Hashtbl.replace tbl o entry_fid)
    ordinals;
  tbl

(* Ascending ordinal sets for a prepared target with a pool of [pool]
   ordinals: the boundary set {0, pool - 1, pool}, the ordinals on
   either side of every checkpoint ([o + 1] equal to a checkpoint's
   ordinal resumes it and pauses at once), and [rounds] random sets
   each of 1, 6, 20 and 200 ordinals drawn from [0, pool). *)
let ordinal_sets ~rng ~rounds (p : Core.Campaign.prepared) =
  let pool = p.Core.Campaign.injectable_total in
  let uniq l = List.sort_uniq Int.compare (List.filter (fun o -> o >= 0) l) in
  let checkpoints =
    match p.Core.Campaign.snapshots with
    | None -> []
    | Some snaps ->
      let stride = Sim.Snapshot.stride snaps in
      List.concat
        (List.init (Sim.Snapshot.count snaps) (fun k ->
             [ (k * stride) - 2; (k * stride) - 1; k * stride ]))
  in
  let sizes = List.concat (List.init rounds (fun _ -> [ 1; 6; 20; 200 ])) in
  uniq [ 0; pool - 1; pool ]
  :: uniq checkpoints
  :: List.map
       (fun n ->
         uniq (List.init n (fun _ -> Random.State.int rng (max 1 pool))))
       sizes

type mismatch = {
  target : string;  (* app/mode/policy *)
  ordinal : int;
  oracle : int;
  got : int;
}

(* The ordinals of [ordinals] whose [owners_of] owner differs from the
   reference walk's. *)
let mismatches ~target (p : Core.Campaign.prepared) ~ordinals =
  let want = walk p ~ordinals and got = Core.Memo.owners_of p ~ordinals in
  List.filter_map
    (fun o ->
      let oracle = Hashtbl.find want o and got = Hashtbl.find got o in
      if oracle = got then None else Some { target; ordinal = o; oracle; got })
    ordinals

(* Every mode and policy of [app] (seed 1), over [ordinal_sets]: the
   number of ordinals compared, and the ones whose owner differs from
   the reference walk. *)
let check_app ~rng ~rounds (app : Apps.App.t) : int * mismatch list =
  let l = Harness.Experiment.load ~seed:1 app in
  let checked = ref 0 and bad = ref [] in
  List.iter
    (fun mode ->
      List.iter
        (fun policy ->
          let p = l.Harness.Experiment.prepared mode policy in
          let target =
            Printf.sprintf "%s/%s/%s" app.Apps.App.name
              (Harness.Experiment.mode_name mode)
              (Core.Policy.to_string policy)
          in
          List.iter
            (fun ordinals ->
              checked := !checked + List.length ordinals;
              bad := List.rev_append (mismatches ~target p ~ordinals) !bad)
            (ordinal_sets ~rng ~rounds p))
        Core.Policy.all)
    [ Harness.Experiment.Full; Harness.Experiment.Literal ];
  (!checked, List.rev !bad)

let pp_mismatch m =
  Printf.sprintf "%s ordinal %d: reference walk fid %d, owners_of fid %d"
    m.target m.ordinal m.oracle m.got
