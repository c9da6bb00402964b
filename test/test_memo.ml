(* Compositional injection: section hashing and the content-addressed
   campaign cache (Core.Memo / Analysis.Section).

   The load-bearing properties:
   - section hashes are invariant under function/label renames and
     declaration reordering, and sensitive to exactly the edited
     function (local hash) and its call-graph ancestors (composed);
   - an incremental campaign composes, from cache + re-runs, trial
     records bit-identical to the monolithic [Campaign.run] — cold,
     warm, across jobs {1, 2, 4}, and after a one-function edit;
   - cache-entry records roundtrip bit-exactly through JSON;
   - a corrupted store degrades to misses, never to wrong results. *)

module SS = Set.Make (String)

let build_memo = Hashtbl.create 4

let built name =
  match Hashtbl.find_opt build_memo name with
  | Some b -> b
  | None ->
    let app =
      match Apps.Registry.find name with
      | Some a -> a
      | None -> Alcotest.failf "unknown app %s" name
    in
    let b = app.Apps.App.build ~seed:1 in
    Hashtbl.replace build_memo name b;
    b

(* Section tables under the Protect_nothing mask of the program's own
   tagging — the densest mask, so tag bits genuinely participate. *)
let sections_of_prog prog =
  let tagging = Core.Tagging.compute prog in
  let tags = Core.Tagging.mask tagging Core.Policy.Protect_nothing in
  Analysis.Section.compute ~tags prog

let hash_of sections name =
  match Analysis.Section.find sections name with
  | Some i -> (i.Analysis.Section.local_hash, i.Analysis.Section.section_hash)
  | None -> Alcotest.failf "no section for %s" name

(* ------------------- rename / reorder stability ------------------- *)

let rename_instr ren_f ren_l (i : Ir.Instr.t) : Ir.Instr.t =
  match i with
  | Ir.Instr.Call c -> Ir.Instr.Call { c with func = ren_f c.func }
  | Ir.Instr.Br (op, a, b, l) -> Ir.Instr.Br (op, a, b, ren_l l)
  | Ir.Instr.Brz (op, a, l) -> Ir.Instr.Brz (op, a, ren_l l)
  | Ir.Instr.Jmp l -> Ir.Instr.Jmp (ren_l l)
  | Ir.Instr.Label l -> Ir.Instr.Label (ren_l l)
  | i -> i

let rename_and_permute ~suffix ~perm_seed (prog : Ir.Prog.t) : Ir.Prog.t =
  let ren_f n = n ^ suffix in
  let ren_l n = "L" ^ suffix ^ n in
  let funcs =
    List.map
      (fun (f : Ir.Func.t) ->
        Ir.Func.make ~eligible:f.Ir.Func.eligible
          ~name:(ren_f f.Ir.Func.name) ~params:f.Ir.Func.params
          ~ret:f.Ir.Func.ret
          (Array.to_list (Array.map (rename_instr ren_f ren_l) f.Ir.Func.body)))
      (Ir.Prog.funcs prog)
  in
  let arr = Array.of_list funcs in
  let rng = Random.State.make [| perm_seed |] in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Ir.Prog.make
    ~entry:(ren_f prog.Ir.Prog.entry)
    ~globals:prog.Ir.Prog.globals (Array.to_list arr)

let hash_apps = [| "adpcm"; "mcf"; "gsm" |]

let stability_qcheck =
  QCheck.Test.make ~count:24
    ~name:"section hashes invariant under rename + reorder"
    QCheck.(
      triple (int_bound (Array.length hash_apps - 1)) small_nat
        (int_bound 2))
    (fun (app_i, perm_seed, sfx_i) ->
      let b = built hash_apps.(app_i) in
      let prog = b.Apps.App.prog in
      let suffix = [| "_x"; "_renamed"; "__2" |].(sfx_i) in
      let prog' = rename_and_permute ~suffix ~perm_seed prog in
      let s = sections_of_prog prog and s' = sections_of_prog prog' in
      List.for_all
        (fun (f : Ir.Func.t) ->
          hash_of s f.Ir.Func.name = hash_of s' (f.Ir.Func.name ^ suffix))
        (Ir.Prog.funcs prog))

(* --------------------- edit sensitivity ---------------------------- *)

(* Transitive callers of [f], plus [f] itself: the exact set whose
   composed hash must change under any edit confined to [f]. *)
let dirty_set prog f =
  let callers g =
    List.filter_map
      (fun (h : Ir.Func.t) ->
        if
          Array.exists
            (function Ir.Instr.Call { func; _ } -> func = g | _ -> false)
            h.Ir.Func.body
        then Some h.Ir.Func.name
        else None)
      (Ir.Prog.funcs prog)
    |> SS.of_list
  in
  let rec go acc frontier =
    match frontier with
    | [] -> acc
    | g :: rest ->
      let fresh = SS.diff (callers g) acc |> SS.elements in
      go (List.fold_left (fun a x -> SS.add x a) acc fresh) (fresh @ rest)
  in
  go (SS.singleton f) [ f ]

let test_edit_sensitivity () =
  List.iter
    (fun app_name ->
      let prog = (built app_name).Apps.App.prog in
      let s = sections_of_prog prog in
      List.iter
        (fun (f : Ir.Func.t) ->
          let name = f.Ir.Func.name in
          let prog' = Analysis.Section.dead_pad ~func:name prog in
          let s' = sections_of_prog prog' in
          let dirty = dirty_set prog name in
          List.iter
            (fun (g : Ir.Func.t) ->
              let gname = g.Ir.Func.name in
              let l, c = hash_of s gname and l', c' = hash_of s' gname in
              Alcotest.(check bool)
                (Printf.sprintf "%s: local %s changed iff edited (%s)"
                   app_name gname name)
                (gname = name) (l <> l');
              Alcotest.(check bool)
                (Printf.sprintf "%s: composed %s changed iff ancestor of %s"
                   app_name gname name)
                (SS.mem gname dirty) (c <> c'))
            (Ir.Prog.funcs prog))
        (Ir.Prog.funcs prog))
    [ "adpcm"; "mcf" ]

let test_tag_sensitivity () =
  let prog = (built "adpcm").Apps.App.prog in
  let tagging = Core.Tagging.compute prog in
  let t_none = Core.Tagging.mask tagging Core.Policy.Protect_nothing in
  let t_ctrl = Core.Tagging.mask tagging Core.Policy.Protect_control in
  let s_none = Analysis.Section.compute ~tags:t_none prog in
  let s_ctrl = Analysis.Section.compute ~tags:t_ctrl prog in
  (* The masks genuinely differ on adpcm, so some section must hash
     differently — tag bits are part of the identity. *)
  Alcotest.(check bool) "masks differ" true (t_none <> t_ctrl);
  Alcotest.(check bool) "hashes see the mask" true
    (List.exists
       (fun (f : Ir.Func.t) ->
         hash_of s_none f.Ir.Func.name <> hash_of s_ctrl f.Ir.Func.name)
       (Ir.Prog.funcs prog))

(* -------------------- composition, by hand ------------------------ *)

(* [main] calls [ping]; [ping] and [pong] call each other, so the
   composed hashes never reach a fixpoint and all three rounds run.
   The reference is the canonical text written out by hand, composed
   the plain way: every round re-fills every callee with the previous
   round's hashes. *)
let test_mutual_recursion () =
  let r0 = Ir.Reg.int 0 and r1 = Ir.Reg.int 1 in
  let call func arg = Ir.Instr.Call { dst = None; func; args = [ arg ] } in
  let prog =
    Ir.Prog.make ~globals:[]
      [
        Ir.Func.make ~name:"main" ~params:[] ~ret:None
          [ Ir.Instr.Li (r0, 7l); call "ping" r0; Ir.Instr.Ret None ];
        Ir.Func.make ~name:"ping" ~params:[ r0 ] ~ret:None
          [ Ir.Instr.Mov (r1, r0); call "pong" r1; Ir.Instr.Ret None ];
        Ir.Func.make ~eligible:false ~name:"pong" ~params:[ r0 ] ~ret:None
          [ call "ping" r0; Ir.Instr.Ret None ];
      ]
  in
  let tags = [| [| true; false; false |]; [| false; true; false |]; [||] |] in
  (* Function [fid]'s text, with [ref] naming a callee by its fid. *)
  let text fid ref =
    match fid with
    | 0 -> "sig -> void eligible\nli $r0 7 !\ncall " ^ ref 1 ^ " _ $r0\nret"
    | 1 ->
      "sig $r0 -> void eligible\nmov $r1 $r0\ncall " ^ ref 2
      ^ " _ $r1 !\nret"
    | _ -> "sig $r0 -> void protected\ncall " ^ ref 1 ^ " _ $r0\nret"
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let round prev = Array.init 3 (fun fid -> md5 (text fid (Array.get prev))) in
  let local = Array.init 3 (fun fid -> md5 (text fid (fun _ -> "@"))) in
  let rounds = Array.make 4 local in
  for k = 1 to 3 do
    rounds.(k) <- round rounds.(k - 1)
  done;
  let s = Analysis.Section.compute ~tags prog in
  Array.iteri
    (fun fid name ->
      let l, c = hash_of s name in
      Alcotest.(check string) (name ^ " local") local.(fid) l;
      Alcotest.(check string) (name ^ " composed") rounds.(3).(fid) c;
      Alcotest.(check bool) (name ^ " needs the last round") true
        (rounds.(2).(fid) <> c))
    [| "main"; "ping"; "pong" |]

(* ---------------------- record JSON roundtrip ---------------------- *)

let trial_gen : Core.Campaign.trial QCheck.Gen.t =
  let open QCheck.Gen in
  let site =
    oneof
      [
        return None;
        map2
          (fun func pc -> Some { Core.Outcome.func; pc })
          (oneofl [ "f"; "spfa"; "weird name\n\"x" ])
          small_nat;
      ]
  in
  let float_any =
    oneof
      [
        float;
        oneofl
          [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 1e-312 ];
      ]
  in
  let trap =
    oneof
      [
        map (fun a -> Sim.Trap.Out_of_bounds a) int;
        map (fun a -> Sim.Trap.Unaligned a) int;
        return Sim.Trap.Division_by_zero;
        map (fun a -> Sim.Trap.Type_confusion a) int;
        map (fun x -> Sim.Trap.Float_to_int_overflow x) float_any;
        map (fun d -> Sim.Trap.Call_stack_overflow d) small_nat;
        return Sim.Trap.Null_access;
      ]
  in
  let outcome =
    oneof
      [
        return Core.Outcome.Completed;
        return Core.Outcome.Infinite;
        map2 (fun t s -> Core.Outcome.Crash (t, s)) trap site;
      ]
  in
  map
    (fun (index, outcome, dyn_count, (planned, landed, fid)) ->
      {
        Core.Campaign.index;
        outcome;
        dyn_count;
        faults_planned = planned;
        faults_landed = landed;
        fidelity = fid;
        fault_flow = None;
      })
    (quad small_nat outcome small_nat
       (triple small_nat small_nat (option float_any)))

let roundtrip_qcheck =
  QCheck.Test.make ~count:500 ~name:"cache trial records roundtrip bit-exactly"
    (QCheck.make trial_gen)
    (fun t ->
      let t' = Core.Memo.trial_of_json (Core.Memo.trial_to_json t) in
      compare t t' = 0
      &&
      (* and through an actual serialized document, not just the tree *)
      match
        Report.Json.of_string
          (Report.Json.to_string (Core.Memo.trial_to_json t))
      with
      | Ok v -> compare (Core.Memo.trial_of_json v) t = 0
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

(* ------------------ composed vs monolithic equality ---------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let fresh_cache_dir () =
  incr dir_counter;
  let d = Printf.sprintf "_memo_test_cache_%d" !dir_counter in
  rm_rf d;
  d

let summary_core (s : Core.Campaign.summary) =
  ( s.Core.Campaign.trials,
    s.Core.Campaign.stats,
    s.Core.Campaign.errors_requested,
    s.Core.Campaign.errors_planned )

let check_same_records what (mono : Core.Campaign.summary)
    (inc : Core.Campaign.summary) =
  Alcotest.(check bool)
    (what ^ ": composed records bit-identical to monolithic")
    true
    (compare (summary_core mono) (summary_core inc) = 0)

(* Full cycle on one app: cold run == monolithic (and populates the
   store), warm run == monolithic with zero executed trials, and after
   a dead-pad edit of [edit_fn] the incremental run still matches the
   edited program's monolithic campaign while reusing clean sections. *)
let equivalence_cycle app_name edit_fn jobs () =
  let b = built app_name in
  let errors = 5 and trials = 12 and seed = 3 in
  let prep prog =
    let target = Core.Campaign.of_prog prog in
    let p = Core.Campaign.prepare target Core.Policy.Protect_nothing in
    let golden = target.Core.Campaign.baseline in
    (p, fun r -> b.Apps.App.score ~golden r)
  in
  let p, score = prep b.Apps.App.prog in
  let mono = Core.Campaign.run ~jobs ~score p ~errors ~trials ~seed in
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Core.Memo.Store.open_ dir in
      let cold, st =
        Core.Memo.run ~jobs ~score ~salt:app_name ~store p ~errors ~trials
          ~seed
      in
      check_same_records (app_name ^ " cold") mono cold;
      Alcotest.(check int) "cold: no hits" 0 st.Core.Memo.hits;
      Alcotest.(check int)
        "cold: all groups missed" st.Core.Memo.sections st.Core.Memo.misses;
      Alcotest.(check int) "cold: every trial ran" trials
        st.Core.Memo.trials_run;
      let warm, st2 =
        Core.Memo.run ~jobs ~score ~salt:app_name ~store p ~errors ~trials
          ~seed
      in
      check_same_records (app_name ^ " warm") mono warm;
      Alcotest.(check int)
        "warm: all groups hit" st2.Core.Memo.sections st2.Core.Memo.hits;
      Alcotest.(check int) "warm: nothing ran" 0 st2.Core.Memo.trials_run;
      Alcotest.(check int)
        "warm: nothing resumed" 0 warm.Core.Campaign.resumed_trials;
      (* One-function edit: dead code appended to [edit_fn]. Golden
         behaviour is unchanged, so the edited program's monolithic
         records equal the original's — and the incremental run must
         both match them and reuse the sections the edit left clean. *)
      let prog' = Analysis.Section.dead_pad ~func:edit_fn b.Apps.App.prog in
      let p', score' = prep prog' in
      let mono' = Core.Campaign.run ~jobs ~score:score' p' ~errors ~trials ~seed in
      let inc, st3 =
        Core.Memo.run ~jobs ~score:score' ~salt:app_name ~store p' ~errors
          ~trials ~seed
      in
      check_same_records (app_name ^ " edited") mono' inc;
      Alcotest.(check bool) "edit: some sections reused" true
        (st3.Core.Memo.hits > 0);
      Alcotest.(check bool) "edit: fewer trials executed" true
        (st3.Core.Memo.trials_run < trials);
      Alcotest.(check int) "edit: every trial accounted for" trials
        (st3.Core.Memo.trials_run + st3.Core.Memo.trials_reused))

(* Single-fault plans spread first ordinals uniformly over the pool, so
   with enough trials both phases of adpcm own some — after editing
   [decode], encode-owned groups must hit and decode-owned groups must
   miss and re-run, and the composed records still match monolithic. *)
let test_dirty_sections_rerun () =
  let b = built "adpcm" in
  let errors = 1 and trials = 16 and seed = 7 in
  let target = Core.Campaign.of_prog b.Apps.App.prog in
  let p = Core.Campaign.prepare target Core.Policy.Protect_nothing in
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Core.Memo.Store.open_ dir in
      let _ = Core.Memo.run ~jobs:2 ~store p ~errors ~trials ~seed in
      let prog' = Analysis.Section.dead_pad ~func:"decode" b.Apps.App.prog in
      let target' = Core.Campaign.of_prog prog' in
      let p' = Core.Campaign.prepare target' Core.Policy.Protect_nothing in
      let mono' = Core.Campaign.run ~jobs:2 p' ~errors ~trials ~seed in
      let inc, st =
        Core.Memo.run ~jobs:2 ~store p' ~errors ~trials ~seed
      in
      check_same_records "dirty rerun" mono' inc;
      Alcotest.(check bool) "clean sections hit" true (st.Core.Memo.hits > 0);
      Alcotest.(check bool) "dirty sections missed" true
        (st.Core.Memo.misses > 0);
      Alcotest.(check bool) "some trials re-ran" true
        (st.Core.Memo.trials_run > 0);
      Alcotest.(check bool) "some trials reused" true
        (st.Core.Memo.trials_reused > 0))

let test_corrupt_store_degrades () =
  let b = built "adpcm" in
  let errors = 4 and trials = 8 and seed = 11 in
  let target = Core.Campaign.of_prog b.Apps.App.prog in
  let p = Core.Campaign.prepare target Core.Policy.Protect_nothing in
  let mono = Core.Campaign.run ~jobs:1 p ~errors ~trials ~seed in
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Core.Memo.Store.open_ dir in
      let _ = Core.Memo.run ~jobs:1 ~store p ~errors ~trials ~seed in
      (* Smash every entry: truncated JSON, wrong schema, garbage. *)
      let n = ref 0 in
      let rec smash path =
        if Sys.is_directory path then
          Array.iter
            (fun e -> smash (Filename.concat path e))
            (Sys.readdir path)
        else begin
          let payload =
            match !n mod 3 with
            | 0 -> "{ not json at all"
            | 1 -> "{\"schema\": \"etap-cache/999\", \"trials\": []}\n"
            | _ -> "{\"schema\": \"etap-cache/1\", \"trials\": [{\"index\": 99}]}\n"
          in
          incr n;
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc payload)
        end
      in
      smash dir;
      let s, st = Core.Memo.run ~jobs:1 ~store p ~errors ~trials ~seed in
      check_same_records "corrupt store" mono s;
      Alcotest.(check int) "corrupt entries read as misses" 0
        st.Core.Memo.hits;
      (* ... and the rewritten entries serve the next run again. *)
      let s2, st2 = Core.Memo.run ~jobs:1 ~store p ~errors ~trials ~seed in
      check_same_records "repaired store" mono s2;
      Alcotest.(check int)
        "repaired: all hit" st2.Core.Memo.sections st2.Core.Memo.hits)

let test_empty_plan_bucket () =
  (* errors = 0: every plan is empty, every trial lands in the entry
     bucket, and the composed summary still matches monolithic. *)
  let b = built "adpcm" in
  let target = Core.Campaign.of_prog b.Apps.App.prog in
  let p = Core.Campaign.prepare target Core.Policy.Protect_nothing in
  let mono = Core.Campaign.run ~jobs:1 p ~errors:0 ~trials:5 ~seed:2 in
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Core.Memo.Store.open_ dir in
      let s, st = Core.Memo.run ~jobs:1 ~store p ~errors:0 ~trials:5 ~seed:2 in
      check_same_records "errors=0" mono s;
      Alcotest.(check int) "one group (entry bucket)" 1 st.Core.Memo.sections;
      let s2, st2 =
        Core.Memo.run ~jobs:1 ~store p ~errors:0 ~trials:5 ~seed:2
      in
      check_same_records "errors=0 warm" mono s2;
      Alcotest.(check int) "entry bucket hit" 1 st2.Core.Memo.hits)

(* ------------------------ owner attribution ------------------------ *)

(* [Memo.owners_of] resumes golden checkpoints on the fast engine; the
   reference walk from ordinal 0 (test/owners) is its oracle. Every
   mode and policy of one app, boundary ordinals included. *)
let test_owners_match_walk name () =
  let rng = Random.State.make [| 11 |] in
  let app = Option.get (Apps.Registry.find name) in
  let checked, bad = Owner_oracle.check_app ~rng ~rounds:1 app in
  List.iter (fun m -> print_endline (Owner_oracle.pp_mismatch m)) bad;
  Alcotest.(check bool) "ordinals compared" true (checked > 0);
  Alcotest.(check int) "owners differing from the reference walk" 0
    (List.length bad)

(* The two other shapes of a prepared target: no checkpoints (one
   fast-engine machine from ordinal 0) and no fast-engine image
   (checkpoints resumed on the reference engine). *)
let test_owners_other_shapes () =
  let b = built "gsm" in
  let fast = Core.Campaign.of_prog b.Apps.App.prog in
  let reference =
    Core.Campaign.of_prog ~engine:Sim.Interp.Ref b.Apps.App.prog
  in
  let rng = Random.State.make [| 12 |] in
  List.iter
    (fun (target, p) ->
      List.iter
        (fun ordinals ->
          let bad = Owner_oracle.mismatches ~target p ~ordinals in
          List.iter (fun m -> print_endline (Owner_oracle.pp_mismatch m)) bad;
          Alcotest.(check int) (target ^ ": owners differing") 0
            (List.length bad))
        (Owner_oracle.ordinal_sets ~rng ~rounds:1 p))
    [
      ( "no checkpoints",
        Core.Campaign.prepare ~checkpoint_stride:0 fast
          Core.Policy.Protect_nothing );
      ( "reference engine",
        Core.Campaign.prepare reference Core.Policy.Protect_control );
    ]

(* ------------------------- concurrency ----------------------------- *)

(* The store's atomic-publish contract under real concurrency: unique
   temp names (pid + domain + counter) mean parallel writers of the
   same key never truncate each other's in-flight temp file, so a
   reader observes either nothing or one writer's complete document —
   never a torn or mixed one. *)

let list_store_files dir =
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter (fun e -> walk (Filename.concat path e)) (Sys.readdir path)
    else acc := path :: !acc
  in
  if Sys.file_exists dir then walk dir;
  !acc

(* `etap cache gc` refuses a negative size or age bound (or a NaN age)
   as a usage error, exit 124, before it touches the store: every entry
   stays. A zero size bound, the control, evicts them all. *)
let test_gc_refuses_negative_bounds () =
  let etap =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "etap.exe" ]
  in
  if not (Sys.file_exists etap) then
    Alcotest.failf "%s is not built (dune build bin/etap.exe)" etap;
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Core.Memo.Store.open_ dir in
      List.iter
        (fun c ->
          Core.Memo.Store.save store ~key:(String.make 32 c)
            (Report.Json.Obj
               [ ("schema", Report.Json.Str Core.Memo.Store.schema) ]))
        [ 'a'; 'b'; 'c' ];
      let entries () = List.sort compare (Core.Memo.Store.scan store) in
      let before = entries () in
      let gc bound =
        Sys.command
          (Filename.quote_command etap ~stdout:Filename.null
             ~stderr:Filename.null
             [ "cache"; "gc"; "--cache-dir"; dir; bound ])
      in
      List.iter
        (fun bound ->
          Alcotest.(check int) (bound ^ " is a usage error") 124 (gc bound);
          Alcotest.(check bool) (bound ^ " leaves the store") true
            (entries () = before))
        [ "--max-bytes=-1"; "--max-age-days=-1"; "--max-age-days=nan" ];
      Alcotest.(check int) "--max-bytes=0 runs" 0 (gc "--max-bytes=0");
      Alcotest.(check int) "--max-bytes=0 evicts every entry" 0
        (List.length (entries ())))

let test_store_save_race () =
  let dir = fresh_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Core.Memo.Store.open_ dir in
      let key = String.make 32 'a' in
      let blob i = String.make 4096 (Char.chr (65 + (i mod 26))) in
      let payload i =
        Report.Json.Obj
          [
            ("schema", Report.Json.Str Core.Memo.Store.schema);
            ("writer", Report.Json.Int i);
            ("blob", Report.Json.Str (blob i));
          ]
      in
      let writers =
        List.init 4 (fun i ->
            Domain.spawn (fun () ->
                for _ = 1 to 50 do
                  Core.Memo.Store.save store ~key (payload i)
                done))
      in
      let readers =
        List.init 2 (fun _ ->
            Domain.spawn (fun () ->
                let bad = ref 0 in
                for _ = 1 to 400 do
                  match Core.Memo.Store.load store ~key with
                  | None -> ()  (* not yet published *)
                  | Some (Report.Json.Obj kvs) -> (
                    match
                      ( List.assoc_opt "writer" kvs,
                        List.assoc_opt "blob" kvs )
                    with
                    | Some (Report.Json.Int i), Some (Report.Json.Str s)
                      when s = blob i ->
                      ()
                    | _ -> incr bad)
                  | Some _ -> incr bad
                done;
                !bad))
      in
      List.iter Domain.join writers;
      let torn = List.map Domain.join readers in
      Alcotest.(check (list int)) "no torn or mixed reads" [ 0; 0 ] torn;
      (match Core.Memo.Store.load store ~key with
       | Some (Report.Json.Obj kvs) ->
         Alcotest.(check bool) "final entry is one writer's document" true
           (match List.assoc_opt "writer" kvs with
            | Some (Report.Json.Int i) -> i >= 0 && i < 4
            | _ -> false)
       | _ -> Alcotest.fail "final entry unreadable after the race");
      Alcotest.(check (list string))
        "no temp files survive the race" []
        (List.filter
           (fun f -> Filename.check_suffix f ".tmp")
           (list_store_files dir)))

(* N domains race whole campaigns (overlapping group keys, jobs=1 each
   so nothing nests the pool) against one store. Afterwards every entry
   on disk must raw-parse as a complete etap-cache/1 document, no temp
   litter may remain, and a warm run must be all-hits and bit-exact
   against the monolithic campaign. *)
let concurrent_writers_qcheck =
  QCheck.Test.make ~count:6
    ~name:"concurrent campaign writers: store stays valid, hits bit-exact"
    QCheck.(pair (int_range 2 4) (int_bound 2))
    (fun (ndomains, seed_off) ->
      let b = built "adpcm" in
      let errors_list = [ 1; 3 ] in
      let trials = 8 and seed = 5 + seed_off in
      let target = Core.Campaign.of_prog b.Apps.App.prog in
      let p = Core.Campaign.prepare target Core.Policy.Protect_nothing in
      let dir = fresh_cache_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let store = Core.Memo.Store.open_ dir in
          let domains =
            List.init ndomains (fun _ ->
                Domain.spawn (fun () ->
                    List.iter
                      (fun errors ->
                        ignore
                          (Core.Memo.run ~jobs:1 ~store p ~errors ~trials
                             ~seed))
                      errors_list))
          in
          List.iter Domain.join domains;
          let files = list_store_files dir in
          let entries_valid =
            files <> []
            && List.for_all
                 (fun f ->
                   (not (Filename.check_suffix f ".tmp"))
                   &&
                   match
                     Report.Json.of_string
                       (In_channel.with_open_bin f In_channel.input_all)
                   with
                   | Ok j ->
                     Report.Json.member "schema" j
                     = Some (Report.Json.Str Core.Memo.Store.schema)
                   | Error _ -> false)
                 files
          in
          entries_valid
          && List.for_all
               (fun errors ->
                 let mono =
                   Core.Campaign.run ~jobs:1 p ~errors ~trials ~seed
                 in
                 let s, st =
                   Core.Memo.run ~jobs:1 ~store p ~errors ~trials ~seed
                 in
                 st.Core.Memo.trials_run = 0
                 && compare (summary_core mono) (summary_core s) = 0)
               errors_list))

let () =
  Alcotest.run "memo"
    [
      ( "hashing",
        [
          QCheck_alcotest.to_alcotest stability_qcheck;
          Alcotest.test_case "edit sensitivity (local + composed)" `Quick
            test_edit_sensitivity;
          Alcotest.test_case "tag mask is part of the identity" `Quick
            test_tag_sensitivity;
          Alcotest.test_case "mutual recursion = reference composition"
            `Quick test_mutual_recursion;
        ] );
      ("records", [ QCheck_alcotest.to_alcotest roundtrip_qcheck ]);
      ( "equivalence",
        [
          Alcotest.test_case "adpcm jobs=1" `Quick
            (equivalence_cycle "adpcm" "decode" 1);
          Alcotest.test_case "adpcm jobs=2" `Quick
            (equivalence_cycle "adpcm" "decode" 2);
          Alcotest.test_case "adpcm jobs=4" `Quick
            (equivalence_cycle "adpcm" "decode" 4);
          Alcotest.test_case "gsm jobs=1" `Quick
            (equivalence_cycle "gsm" "decode" 1);
          Alcotest.test_case "gsm jobs=2" `Quick
            (equivalence_cycle "gsm" "decode" 2);
          Alcotest.test_case "gsm jobs=4" `Quick
            (equivalence_cycle "gsm" "decode" 4);
        ] );
      ( "store",
        [
          Alcotest.test_case "dirty sections miss, clean sections hit" `Quick
            test_dirty_sections_rerun;
          Alcotest.test_case "corrupt entries degrade to misses" `Quick
            test_corrupt_store_degrades;
          Alcotest.test_case "empty plans go to the entry bucket" `Quick
            test_empty_plan_bucket;
          Alcotest.test_case "cache gc refuses negative bounds" `Quick
            test_gc_refuses_negative_bounds;
        ] );
      ( "owners",
        [
          Alcotest.test_case "adpcm owners = reference walk" `Quick
            (test_owners_match_walk "adpcm");
          Alcotest.test_case "mcf owners = reference walk" `Quick
            (test_owners_match_walk "mcf");
          Alcotest.test_case "no checkpoints, no image" `Quick
            test_owners_other_shapes;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "save race: atomic publish, unique temps" `Quick
            test_store_save_race;
          QCheck_alcotest.to_alcotest concurrent_writers_qcheck;
        ] );
    ]
