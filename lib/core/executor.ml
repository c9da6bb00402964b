(* A work-claiming executor (DESIGN.md §9, §17); the interface is
   documented in executor.mli.

   Deadlock-freedom of helping: a thread only waits when no job is
   takeable, and then every batch with jobs left has a job in flight
   on a live runner that will finish it (a batch at its limit has
   [limit] of them).

   Publication: every job's writes happen before its runner re-takes
   the executor mutex to record the finish, and the submitter reads its
   results after observing the last finish under the same mutex. That
   is the happens-before edge for result slots and for the per-domain
   obs buffers the jobs wrote. *)

type batch = {
  jobs : (unit -> unit) array;  (* each job stores its own result *)
  limit : int;  (* most jobs of this batch in flight at once *)
  mutable next : int;  (* next job index to hand out *)
  mutable running : int;  (* handed out, not yet finished *)
  mutable finished : int;
}

type t = {
  m : Mutex.t;
  progress : Condition.t;  (* job finished / queue grew / stop *)
  queue : batch Queue.t;  (* batches with unhanded jobs, rotating *)
  mutable stop : bool;
  mutable idle : int;  (* workers parked in [Condition.wait] *)
  mutable workers : unit Domain.t list;
}

(* Take one job, round-robin over batches: rotate past batches at
   their limit, hand out the first eligible batch's next job, and
   re-queue that batch at the tail if jobs remain. Caller holds [m]. *)
let take t =
  let rec scan k =
    if k = 0 then None
    else begin
      let b = Queue.pop t.queue in
      if b.running >= b.limit then begin
        Queue.push b t.queue;
        scan (k - 1)
      end
      else begin
        let job = b.jobs.(b.next) in
        b.next <- b.next + 1;
        b.running <- b.running + 1;
        if b.next < Array.length b.jobs then Queue.push b t.queue;
        Some (job, b)
      end
    end
  in
  scan (Queue.length t.queue)

(* Run a taken job outside the lock and record its finish. Caller
   holds [m] on entry and on return. *)
let run t (job, b) =
  Mutex.unlock t.m;
  job ();
  Mutex.lock t.m;
  b.running <- b.running - 1;
  b.finished <- b.finished + 1;
  Condition.broadcast t.progress

let worker_loop t =
  Mutex.lock t.m;
  let rec loop () =
    if t.stop && Queue.is_empty t.queue then Mutex.unlock t.m
    else
      match take t with
      | Some j ->
        run t j;
        loop ()
      | None ->
        t.idle <- t.idle + 1;
        Condition.wait t.progress t.m;
        t.idle <- t.idle - 1;
        loop ()
  in
  loop ()

let create () =
  {
    m = Mutex.create ();
    progress = Condition.create ();
    queue = Queue.create ();
    stop = false;
    idle = 0;
    workers = [];
  }

let grow t n =
  Mutex.lock t.m;
  let have = List.length t.workers in
  if not t.stop && n > have then
    t.workers <-
      List.init (n - have) (fun _ -> Domain.spawn (fun () -> worker_loop t))
      @ t.workers;
  Mutex.unlock t.m

let submit_batch t ?(limit = max_int) ~help (thunks : (unit -> unit) array) =
  let n = Array.length thunks in
  if n > 0 then begin
    let limit = max 1 limit in
    let b = { jobs = thunks; limit; next = 0; running = 0; finished = 0 } in
    Mutex.lock t.m;
    Queue.push b t.queue;
    Condition.broadcast t.progress;
    while b.finished < n do
      match if help then take t else None with
      | Some j -> run t j
      | None -> Condition.wait t.progress t.m
    done;
    Mutex.unlock t.m
  end

let map_n t ?limit ~help n (f : int -> 'a) : 'a array =
  let out = Array.make n None in
  submit_batch t ?limit ~help
    (Array.init n (fun i () ->
         out.(i) <- Some (try Ok (f i) with e -> Error e)));
  (* Scanning in index order re-raises the lowest failing index's
     exception, whatever order the jobs ran in. *)
  Array.map
    (function
      | Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
    out

let map t ~help f xs =
  let arr = Array.of_list xs in
  Array.to_list (map_n t ~help (Array.length arr) (fun i -> f arr.(i)))

type stats = {
  workers : int;
  busy : int;
  queued_jobs : int;
  queued_batches : int;
}

let stats t : stats =
  Mutex.lock t.m;
  let queued_jobs =
    Queue.fold (fun acc b -> acc + (Array.length b.jobs - b.next)) 0 t.queue
  in
  let workers = List.length t.workers in
  let s =
    {
      workers;
      busy = workers - t.idle;
      queued_jobs;
      queued_batches = Queue.length t.queue;
    }
  in
  Mutex.unlock t.m;
  s

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.progress;
  let ws = t.workers in
  t.workers <- [];
  Mutex.unlock t.m;
  List.iter Domain.join ws
