(* Compositional campaign memoization — ROADMAP item 2, the
   FastFlip-style decomposition.

   A monolithic campaign is an opaque loop: trials × policy × app, all
   re-run on any change. This module splits it along the program's
   sections (Analysis.Section — functions, with composed content
   hashes): each trial is attributed to the section that *owns* its
   first planned fault ordinal, trials group by owning section, and
   each group's records are stored in a content-addressed on-disk cache
   keyed by everything that determines them:

     key = H( etap-cache/1,
              section_hash,                 composed over the call subtree
              policy, errors, seed,         the fault model coordinates
              injectable_total, budget,     pool geometry (plans + timeout)
              lenient, scored, salt,        memory model / scorer / workload id
              golden digest + dyn count,    baseline behaviour of the program
              per-trial (index, first ordinal, entry-state digest) )

   The entry-state digest is the full architectural state (frames keyed
   by *local* section hashes, registers, counters, memory image) of the
   checkpoint the trial resumes from. After an edit, a group whose
   owning section's call subtree, entry state and plan geometry are all
   unchanged re-reads its records from the cache; only dirty groups
   re-execute — through the exact same [Campaign.run_trial_skip] path a
   monolithic run uses, so composed summaries are bit-identical to
   monolithic ones whenever every group is either clean-by-key or
   re-run (see DESIGN.md §15 for the exactness envelope).

   Everything here is deterministic: group membership, keys and record
   assembly depend only on (prepared, errors, trials, seed, salt,
   scorer presence), never on jobs, wall-clock or cache state. *)

module J = Report.Json

type stats = {
  sections : int;  (* section groups = sections owning >= 1 trial *)
  hits : int;  (* groups served entirely from the cache *)
  misses : int;  (* groups executed and stored *)
  trials_reused : int;
  trials_run : int;
}

let zero_stats =
  { sections = 0; hits = 0; misses = 0; trials_reused = 0; trials_run = 0 }

(* ------------------------------ store ------------------------------ *)

module Store = struct
  let schema = "etap-cache/1"

  type t = { root : string }

  let rec mkdir_p dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
    then begin
      mkdir_p (Filename.dirname dir);
      try Sys.mkdir dir 0o755 with Sys_error _ -> ()
    end

  let open_ root =
    mkdir_p root;
    { root }

  let root t = t.root

  (* Two-level fan-out by key prefix, one JSON document per entry —
     the usual content-addressed layout (git-object style), so the
     root directory stays listable at any campaign size. *)
  let path t ~key =
    Filename.concat
      (Filename.concat t.root (String.sub key 0 2))
      (String.sub key 2 (String.length key - 2) ^ ".json")

  (* Successful loads touch the entry's mtime, making mtime a
     last-use stamp — the recency order [gc] evicts by. Failure to
     touch (read-only store, concurrent eviction) is harmless: the
     entry just keeps its older stamp. *)
  let touch p = try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ()

  let load t ~key : J.t option =
    let p = path t ~key in
    if not (Sys.file_exists p) then None
    else
      match
        In_channel.with_open_bin p In_channel.input_all |> J.of_string
      with
      | Ok v when J.member "schema" v = Some (J.Str schema) ->
        touch p;
        Some v
      | Ok _ | Error _ -> None  (* foreign schema / corrupt: treat as miss *)
      | exception Sys_error _ -> None

  (* Atomic publish: write to a temp file in the same directory, then
     rename over the final path. A concurrent reader sees either the
     old entry or the new one, never a torn write. The temp name is
     unique per (process, domain, save) — a shared [p ^ ".tmp"] would
     let two concurrent writers of the same group key truncate each
     other's half-written file and rename torn JSON into place, voiding
     the atomic-rename contract the loaders rely on. Concurrent saves
     of the same key are idempotent (keys are content addresses), so
     whichever rename lands last wins harmlessly. *)
  let tmp_counter = Atomic.make 0

  let save t ~key (v : J.t) =
    let p = path t ~key in
    mkdir_p (Filename.dirname p);
    let tmp =
      Printf.sprintf "%s.%d.%d.%d.tmp" p (Unix.getpid ())
        (Domain.self () :> int)
        (Atomic.fetch_and_add tmp_counter 1)
    in
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc (J.to_string v));
    Sys.rename tmp p

  (* ------------------------------ gc ------------------------------- *)

  type gc_stats = {
    gc_scanned : int;
    gc_evicted : int;
    gc_kept : int;
    gc_bytes_before : int;
    gc_bytes_after : int;
  }

  (* LRU-by-mtime eviction. Two independent bounds, both optional:
     entries older than [max_age_days] go first, then oldest-first
     until the store fits under [max_bytes]. [load] touches entries on
     every hit, so mtime order is recency-of-use order. Stale temp
     files (crashed writers) older than an hour are reaped on the way;
     younger ones may belong to an in-flight [save] and are left
     alone. Everything here tolerates concurrent mutation of the
     store — an entry vanishing mid-scan is simply not counted. *)
  let tmp_grace_s = 3600.0

  (* One pass over the two-level prefix tree: every [.json] entry as
     [(path, bytes, mtime)], unsorted. [reap_tmp] (the gc pass)
     additionally removes stale temp files from crashed writers on the
     way. Shared by [gc] and the offline store summary ([etap cache
     stats], the daemon's [stats] store section) so every consumer
     counts exactly what eviction would see. *)
  let scan_entries ?(reap_tmp = false) t : (string * int * float) list =
    let now = Unix.gettimeofday () in
    let entries = ref [] in
    let scan_dir dir =
      match Sys.readdir dir with
      | names ->
        Array.iter
          (fun name ->
            let p = Filename.concat dir name in
            match Unix.stat p with
            | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
              if Filename.check_suffix name ".json" then
                entries := (p, st_size, st_mtime) :: !entries
              else if
                reap_tmp
                && Filename.check_suffix name ".tmp"
                && now -. st_mtime > tmp_grace_s
              then (try Sys.remove p with Sys_error _ -> ())
            | _ | (exception Unix.Unix_error _) -> ())
          names
      | exception Sys_error _ -> ()
    in
    (match Sys.readdir t.root with
     | prefixes ->
       Array.iter
         (fun d ->
           let p = Filename.concat t.root d in
           if try Sys.is_directory p with Sys_error _ -> false then
             scan_dir p)
         prefixes
     | exception Sys_error _ -> ());
    !entries

  let scan t = scan_entries t

  let gc ?max_bytes ?max_age_days t : gc_stats =
    let now = Unix.gettimeofday () in
    (* Oldest first; ties break on path so the order is stable. *)
    let by_age =
      List.sort
        (fun (pa, _, ma) (pb, _, mb) ->
          match Float.compare ma mb with 0 -> String.compare pa pb | c -> c)
        (scan_entries ~reap_tmp:true t)
    in
    let bytes_before =
      List.fold_left (fun a (_, sz, _) -> a + sz) 0 by_age
    in
    let cutoff =
      match max_age_days with
      | None -> Float.neg_infinity
      | Some d -> now -. (d *. 86400.0)
    in
    let evicted = ref 0 in
    let live = ref bytes_before in
    let over_budget () =
      match max_bytes with None -> false | Some b -> !live > b
    in
    List.iter
      (fun (p, sz, mtime) ->
        if mtime < cutoff || over_budget () then begin
          (* An entry a concurrent sweep removed first is that sweep's
             eviction, not this one's. *)
          (try
             Sys.remove p;
             incr evicted
           with Sys_error _ -> ());
          live := !live - sz
        end)
      by_age;
    (* Prefix directories drained by eviction fold away. *)
    (match Sys.readdir t.root with
     | prefixes ->
       Array.iter
         (fun d ->
           let p = Filename.concat t.root d in
           if
             (try Sys.is_directory p && Sys.readdir p = [||]
              with Sys_error _ -> false)
           then try Unix.rmdir p with Unix.Unix_error _ -> ())
         prefixes
     | exception Sys_error _ -> ());
    let scanned = List.length by_age in
    {
      gc_scanned = scanned;
      gc_evicted = !evicted;
      gc_kept = scanned - !evicted;
      gc_bytes_before = bytes_before;
      gc_bytes_after = !live;
    }
end

(* ----------------------- record serialization --------------------- *)

exception Bad_entry

(* Trial records must roundtrip bit-exactly — the composed-vs-monolithic
   equivalence suite compares them field by field. Floats therefore
   serialize as hexfloat strings ("%h"), which [float_of_string] reads
   back to the identical bits (including nan and infinities), never
   through decimal shortening. *)
let hexfloat x = Printf.sprintf "%h" x

let json_of_trap (t : Sim.Trap.t) : (string * J.t) list =
  let arg =
    match t with
    | Sim.Trap.Out_of_bounds a | Sim.Trap.Unaligned a
    | Sim.Trap.Type_confusion a | Sim.Trap.Call_stack_overflow a ->
      J.Int a
    | Sim.Trap.Float_to_int_overflow x -> J.Str (hexfloat x)
    | Sim.Trap.Division_by_zero | Sim.Trap.Null_access -> J.Null
  in
  [ ("trap", J.Str (Sim.Trap.kind t)); ("arg", arg) ]

let trap_of_json ~kind ~arg : Sim.Trap.t =
  let int_arg () = match arg with J.Int a -> a | _ -> raise Bad_entry in
  match kind with
  | "out_of_bounds" -> Sim.Trap.Out_of_bounds (int_arg ())
  | "unaligned" -> Sim.Trap.Unaligned (int_arg ())
  | "div_by_zero" -> Sim.Trap.Division_by_zero
  | "type_confusion" -> Sim.Trap.Type_confusion (int_arg ())
  | "f2i_overflow" -> (
    match arg with
    | J.Str s -> Sim.Trap.Float_to_int_overflow (float_of_string s)
    | _ -> raise Bad_entry)
  | "stack_overflow" -> Sim.Trap.Call_stack_overflow (int_arg ())
  | "null_access" -> Sim.Trap.Null_access
  | _ -> raise Bad_entry

let json_of_outcome (o : Outcome.t) : J.t =
  match o with
  | Outcome.Completed -> J.Str "completed"
  | Outcome.Infinite -> J.Str "infinite"
  | Outcome.Crash (trap, site) ->
    let site_json =
      match site with
      | None -> J.Null
      | Some s ->
        J.Obj
          [ ("func", J.Str s.Outcome.func); ("pc", J.Int s.Outcome.pc) ]
    in
    J.Obj (json_of_trap trap @ [ ("site", site_json) ])

let outcome_of_json (v : J.t) : Outcome.t =
  match v with
  | J.Str "completed" -> Outcome.Completed
  | J.Str "infinite" -> Outcome.Infinite
  | J.Obj _ ->
    let kind =
      match J.member "trap" v with Some (J.Str k) -> k | _ -> raise Bad_entry
    in
    let arg = Option.value ~default:J.Null (J.member "arg" v) in
    let site =
      match J.member "site" v with
      | Some (J.Obj _ as s) -> (
        match (J.member "func" s, J.member "pc" s) with
        | Some (J.Str func), Some (J.Int pc) -> Some { Outcome.func; pc }
        | _ -> raise Bad_entry)
      | Some J.Null | None -> None
      | Some _ -> raise Bad_entry
    in
    Outcome.Crash (trap_of_json ~kind ~arg, site)
  | _ -> raise Bad_entry

let trial_to_json (t : Campaign.trial) : J.t =
  (* [fault_flow] is deliberately absent: incremental campaigns never
     run under taint (audits are monolithic by design — DESIGN.md §15),
     so cached trials always carry [None] there. *)
  J.Obj
    [
      ("index", J.Int t.Campaign.index);
      ("outcome", json_of_outcome t.Campaign.outcome);
      ("dyn", J.Int t.Campaign.dyn_count);
      ("planned", J.Int t.Campaign.faults_planned);
      ("landed", J.Int t.Campaign.faults_landed);
      ( "fidelity",
        match t.Campaign.fidelity with
        | None -> J.Null
        | Some f -> J.Str (hexfloat f) );
    ]

let trial_of_json (v : J.t) : Campaign.trial =
  let geti k =
    match J.member k v with Some (J.Int i) -> i | _ -> raise Bad_entry
  in
  let outcome =
    match J.member "outcome" v with
    | Some o -> outcome_of_json o
    | None -> raise Bad_entry
  in
  let fidelity =
    match J.member "fidelity" v with
    | Some (J.Str s) -> Some (float_of_string s)
    | Some J.Null | None -> None
    | Some _ -> raise Bad_entry
  in
  {
    Campaign.index = geti "index";
    outcome;
    dyn_count = geti "dyn";
    faults_planned = geti "planned";
    faults_landed = geti "landed";
    fidelity;
    fault_flow = None;
  }

(* --------------------- sectioning + attribution -------------------- *)

let sections_of (p : Campaign.prepared) : Analysis.Section.t =
  Analysis.Section.compute ~tags:p.Campaign.tags
    p.Campaign.target.Campaign.code.Sim.Code.prog

(* First planned ordinal of trial [i] — [max_int] for an empty plan.
   Recomputed from the same derived RNG [Campaign.run] uses, so this
   costs one plan draw per trial and agrees with the plan the trial
   will execute. *)
let first_ordinal (p : Campaign.prepared) ~errors ~seed i =
  let rng = Campaign.trial_rng ~seed ~errors ~policy:p.Campaign.policy i in
  let plan =
    Fault_model.make_plan ~rng ~injectable_total:p.Campaign.injectable_total
      ~errors
  in
  Hashtbl.fold (fun o _ acc -> min o acc) plan max_int

(* Owner of each requested ordinal: the golden walk paused at [o + 1]
   for each (ascending) ordinal [o]. The pause check precedes dispatch
   and [cur_fid] is re-synced before the call-return write-back hook,
   so the fid read at ordinal [o + 1] is exactly the frame that
   consumed ordinal [o]. The walk runs on the prepared fast-engine
   image and jumps ahead by resuming the nearest golden checkpoint at
   or below [o + 1] whenever that lies past the machine's ordinal: a
   checkpoint is the golden walk's own state at its ordinal, and both
   engines pause in the same state (DESIGN.md §15). Without
   checkpoints one machine walks from ordinal 0. If the machine halts
   before a pause (only possible after the last injectable
   consumption) the remaining ordinals attribute to the entry section
   — the conservative bucket, since the entry's composed hash covers
   the whole program. *)
let owners_of (p : Campaign.prepared) ~(ordinals : int list) :
    (int, int) Hashtbl.t =
  let tbl = Hashtbl.create (2 * List.length ordinals) in
  let t = p.Campaign.target in
  let entry_fid = t.Campaign.code.Sim.Code.entry_fid in
  let injection = Fault_model.profiling_injection ~tags:p.Campaign.tags in
  let image = p.Campaign.image in
  (* The walking machine and the ordinal it stands at; none until the
     first requested ordinal, so an empty request builds nothing. Every
     resume thaws into one working image: the walk is its only owner,
     and a resume drops the machine that held it. *)
  let m = ref None and at = ref 0 and halted = ref false in
  let work = lazy (Sim.Memory.copy t.Campaign.proto) in
  let start_for o =
    match p.Campaign.snapshots with
    | Some snaps ->
      let s = Sim.Snapshot.nearest snaps ~ordinal:(o + 1) in
      let so = Sim.Interp.snapshot_ordinal s in
      if Option.is_none !m || so > !at then begin
        m :=
          Some
            (Sim.Interp.resume ?image ~injection ~memory:(Lazy.force work) s);
        at := so
      end
    | None ->
      if Option.is_none !m then
        m :=
          Some
            (Sim.Interp.machine ?image ~injection ~budget:p.Campaign.budget
               ~memory:(Sim.Memory.copy t.Campaign.proto)
               t.Campaign.code)
  in
  List.iter
    (fun o ->
      if !halted then Hashtbl.replace tbl o entry_fid
      else begin
        start_for o;
        let m = Option.get !m in
        match Sim.Interp.advance m ~pause_at:(o + 1) with
        | `Paused ->
          at := o + 1;
          Hashtbl.replace tbl o (Sim.Interp.machine_fid m)
        | `Halted ->
          halted := true;
          Hashtbl.replace tbl o entry_fid
      end)
    ordinals;
  tbl

(* Entry-state class of each trial: digest of the checkpoint it resumes
   from. Frames are keyed by *local* section hashes — composing there
   would put [main]'s (whole-program) hash into every digest and defeat
   reuse. With checkpointing disabled every trial starts from the
   pristine prototype image. *)
let entry_digests (sections : Analysis.Section.t) (p : Campaign.prepared)
    (firsts : int array) : string array =
  let fid_key fid =
    (Analysis.Section.info sections ~fid).Analysis.Section.local_hash
  in
  match p.Campaign.snapshots with
  | None ->
    let d =
      "scratch:" ^ Sim.Memory.digest p.Campaign.target.Campaign.proto
    in
    Array.map (fun _ -> d) firsts
  | Some snaps ->
    let memo = Hashtbl.create 64 in
    Array.map
      (fun first ->
        let snap = Sim.Snapshot.nearest snaps ~ordinal:(max first 0) in
        let o = Sim.Interp.snapshot_ordinal snap in
        match Hashtbl.find_opt memo o with
        | Some d -> d
        | None ->
          let d = Sim.Interp.snapshot_digest ~fid_key snap in
          Hashtbl.replace memo o d;
          d)
      firsts

(* ------------------------------ keys ------------------------------- *)

let group_key (p : Campaign.prepared) ~section_hash ~salt ~scored ~errors
    ~seed ~(members : (int * int * string) list) : string =
  let t = p.Campaign.target in
  let b = Buffer.create 1024 in
  Buffer.add_string b Store.schema;
  Buffer.add_char b '\n';
  Buffer.add_string b section_hash;
  Buffer.add_string b
    (Printf.sprintf "\npolicy=%d errors=%d seed=%d pool=%d budget=%d"
       (Policy.seed_tag p.Campaign.policy)
       errors seed p.Campaign.injectable_total p.Campaign.budget);
  Buffer.add_string b
    (Printf.sprintf " lenient=%b scored=%b salt=%s" t.Campaign.lenient scored
       salt);
  Buffer.add_string b
    (Printf.sprintf "\ngolden=%s dyn=%d" t.Campaign.baseline_digest
       t.Campaign.baseline.Sim.Interp.dyn_count);
  List.iter
    (fun (i, first, entry) ->
      Buffer.add_string b (Printf.sprintf "\n%d:%d:%s" i first entry))
    members;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------- run ------------------------------- *)

let entry_json ~key ~(sec : Analysis.Section.info) ~context ~trials : J.t =
  J.Obj
    [
      ("schema", J.Str Store.schema);
      ("key", J.Str key);
      ( "section",
        J.Obj
          [
            ("name", J.Str sec.Analysis.Section.name);
            ("hash", J.Str sec.Analysis.Section.section_hash);
          ] );
      ("context", context);
      ("trials", J.Arr (List.map trial_to_json trials));
    ]

let cached_trials (v : J.t) ~(expect : int list) : Campaign.trial list option
    =
  match J.member "trials" v with
  | Some (J.Arr items) -> (
    match List.map trial_of_json items with
    | ts ->
      if List.map (fun t -> t.Campaign.index) ts = expect then Some ts
      else None  (* stale membership: different grouping wrote this key *)
    | exception (Bad_entry | Failure _) -> None)
  | _ -> None

let run ?jobs ?fanout ?score ?(salt = "") ?sections ~(store : Store.t)
    (p : Campaign.prepared) ~errors ~trials ~seed : Campaign.summary * stats =
  let t0 = Obs.span_begin () in
  (* Batch callers (the matrix sweep runner) compute the partition once
     per prepared target and pass it to every cell that shares the
     target; one-shot callers let each run derive it. *)
  let sections =
    match sections with Some s -> s | None -> sections_of p
  in
  let entry_fid = p.Campaign.target.Campaign.code.Sim.Code.entry_fid in
  let firsts = Array.init trials (first_ordinal p ~errors ~seed) in
  let needed =
    Array.to_list firsts
    |> List.filter (fun o -> o <> max_int)
    |> List.sort_uniq Int.compare
  in
  let owners = owners_of p ~ordinals:needed in
  let owner_of i =
    if firsts.(i) = max_int then entry_fid
    else
      match Hashtbl.find_opt owners firsts.(i) with
      | Some fid -> fid
      | None -> entry_fid
  in
  let digests = entry_digests sections p firsts in
  (* Group trial indices by owning section, members ascending. *)
  let groups = Hashtbl.create 16 in
  for i = trials - 1 downto 0 do
    let fid = owner_of i in
    let prev = Option.value ~default:[] (Hashtbl.find_opt groups fid) in
    Hashtbl.replace groups fid (i :: prev)
  done;
  let group_list =
    Hashtbl.fold (fun fid idxs acc -> (fid, idxs) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let scored = Option.is_some score in
  let decided =
    List.map
      (fun (fid, idxs) ->
        let sec = Analysis.Section.info sections ~fid in
        let members =
          List.map (fun i -> (i, firsts.(i), digests.(i))) idxs
        in
        let key =
          group_key p
            ~section_hash:sec.Analysis.Section.section_hash
            ~salt ~scored ~errors ~seed ~members
        in
        match Store.load store ~key with
        | Some v -> (
          match cached_trials v ~expect:idxs with
          | Some cached -> `Hit (sec, key, idxs, cached)
          | None -> `Miss (sec, key, idxs))
        | None -> `Miss (sec, key, idxs))
      group_list
  in
  (* All cache misses fan out over the pool in one flat batch — the
     same per-trial path as [Campaign.run], so records are
     bit-identical to a monolithic campaign's. *)
  let missing =
    List.concat_map
      (function `Miss (_, _, idxs) -> idxs | `Hit _ -> [])
      decided
    |> List.sort Int.compare
  in
  let ran = Hashtbl.create (2 * List.length missing + 1) in
  (match missing with
   | [] -> ()
   | _ ->
     let exec i =
       let rng =
         Campaign.trial_rng ~seed ~errors ~policy:p.Campaign.policy i
       in
       Campaign.run_trial_skip ?score p ~errors ~rng ~index:i
     in
     (* [fanout] lets an external scheduler (the serve daemon's shared
        executor) own the trial fan-out: no domains are spawned here,
        and results come back in request order. Absent, the pool path
        is unchanged. Either way the per-trial computation is [exec] —
        results cannot depend on who scheduled them. *)
     let results =
       match fanout with
       | Some f -> List.combine missing (f exec missing)
       | None -> Pool.map_list ?jobs (fun i -> (i, exec i)) missing
     in
     List.iter (fun (i, r) -> Hashtbl.replace ran i r) results);
  (* Publish each missed group, then assemble the composed summary. *)
  let context =
    J.Obj
      [
        ("policy", J.Str (Policy.to_string p.Campaign.policy));
        ("errors", J.Int errors);
        ("seed", J.Int seed);
        ("injectable_total", J.Int p.Campaign.injectable_total);
        ("budget", J.Int p.Campaign.budget);
        ("lenient", J.Bool p.Campaign.target.Campaign.lenient);
        ("scored", J.Bool scored);
        ("salt", J.Str salt);
      ]
  in
  let st = ref zero_stats in
  let collected =
    List.concat_map
      (function
        | `Hit (_, _, idxs, cached) ->
          st :=
            {
              !st with
              sections = !st.sections + 1;
              hits = !st.hits + 1;
              trials_reused = !st.trials_reused + List.length idxs;
            };
          (* Resume accounting covers executed trials only: a reused
             trial ran nothing, so it skipped nothing in this run. *)
          List.map (fun t -> (t, 0)) cached
        | `Miss (sec, key, idxs) ->
          let group = List.map (fun i -> Hashtbl.find ran i) idxs in
          st :=
            {
              !st with
              sections = !st.sections + 1;
              misses = !st.misses + 1;
              trials_run = !st.trials_run + List.length idxs;
            };
          Store.save store ~key
            (entry_json ~key ~sec ~context ~trials:(List.map fst group));
          group)
      decided
  in
  let all =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a.Campaign.index b.Campaign.index)
      collected
  in
  let summary =
    Campaign.summary_of ~injectable_total:p.Campaign.injectable_total ~errors
      all
  in
  if Obs.enabled () then begin
    (* All jobs-invariant: pure functions of the request + cache
       state, never of scheduling. *)
    Obs.count "memo.sections" !st.sections;
    Obs.count "memo.hits" !st.hits;
    Obs.count "memo.misses" !st.misses;
    Obs.count "memo.trials_reused" !st.trials_reused;
    Obs.count "memo.trials_run" !st.trials_run;
    Obs.span_end ~name:"memo.run" ~cat:"campaign"
      ~args:
        [
          ("policy", Policy.to_string p.Campaign.policy);
          ("hits", string_of_int !st.hits);
          ("misses", string_of_int !st.misses);
        ]
      t0
  end;
  (summary, !st)
