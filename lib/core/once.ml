type retention =
  | All
  | Recent of int
  | Until_built

type 'v state =
  | Building
  | Built of 'v
  | Failed

type 'v slot = {
  mutable state : 'v state;
  mutable waiters : int;
  mutable last_use : int;  (* [clock] at the key's latest lookup *)
}

type ('k, 'v) t = {
  retention : retention;
  on_evict : unit -> unit;
  m : Mutex.t;
  settled : Condition.t;  (* some build returned or raised *)
  slots : ('k, 'v slot) Hashtbl.t;
  mutable clock : int;  (* lookups so far *)
}

let create ?(on_evict = ignore) retention =
  let m = Mutex.create () and settled = Condition.create () in
  { retention; on_evict; m; settled; slots = Hashtbl.create 8; clock = 0 }

(* Under [t.m]: room for one more key under [bound], least recently
   used keys out first. *)
let evict_for_one t bound =
  while Hashtbl.length t.slots >= bound do
    let lru =
      Hashtbl.fold
        (fun k s acc ->
          match acc with
          | Some (_, use) when use <= s.last_use -> acc
          | _ -> Some (k, s.last_use))
        t.slots None
    in
    Hashtbl.remove t.slots (fst (Option.get lru));
    t.on_evict ()
  done

let building s = match s.state with Building -> true | Built _ | Failed -> false

let rec get t k build =
  let joined =
    Mutex.protect t.m (fun () ->
        t.clock <- t.clock + 1;
        match Hashtbl.find_opt t.slots k with
        | Some s ->
          s.last_use <- t.clock;
          s.waiters <- s.waiters + 1;
          while building s do
            Condition.wait t.settled t.m
          done;
          s.waiters <- s.waiters - 1;
          `Joined s.state
        | None ->
          (match t.retention with
          | Recent bound -> evict_for_one t bound
          | All | Until_built -> ());
          let s = { state = Building; waiters = 0; last_use = t.clock } in
          Hashtbl.replace t.slots k s;
          `Build s)
  in
  match joined with
  | `Joined (Built v) -> (v, true)
  | `Joined (Building | Failed) -> get t k build
  | `Build s ->
    let settle state =
      Mutex.protect t.m (fun () ->
          s.state <- state;
          (match (state, t.retention, Hashtbl.find_opt t.slots k) with
          | Built _, (All | Recent _), _ -> ()
          (* an evicted key may have been inserted again meanwhile *)
          | _, _, Some cur when cur == s -> Hashtbl.remove t.slots k
          | _ -> ());
          Condition.broadcast t.settled)
    in
    (match build () with
    | v ->
      settle (Built v);
      (v, false)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      settle Failed;
      Printexc.raise_with_backtrace e bt)

let waiters t k =
  Mutex.protect t.m (fun () ->
      match Hashtbl.find_opt t.slots k with Some s -> s.waiters | None -> 0)

let length t = Mutex.protect t.m (fun () -> Hashtbl.length t.slots)

let values t =
  Mutex.protect t.m (fun () ->
      Hashtbl.fold
        (fun _ s acc -> match s.state with Built v -> v :: acc | _ -> acc)
        t.slots [])
