(* Flat data memory.

   One 4-byte-addressed cell per program word. A cell holds either a
   32-bit integer or a double; the per-cell kind tag reproduces the
   segmentation behaviour relevant to the paper: a corrupted address
   that stays inside memory silently corrupts *other program data*
   (like a wild store inside a process image).

   Two models for accesses that leave the image, selectable per
   machine:

   - strict (default): out-of-range, null, misaligned or kind-confused
     accesses trap — a conventional MMU/segfault model;
   - lenient: the SimpleScalar sim-safe model the paper ran on: the
     sparse memory transparently allocates zero-filled pages (wild
     loads return 0, wild stores vanish, kind confusion reads as 0)
     and word accesses are not alignment-checked — an unaligned
     address is truncated to its word, as the PISA accessors do.

   Cells are split across two unboxed arrays for speed; [kind] says
   which array holds the live value. *)

type t = {
  ints : int array;      (* integer image of each cell *)
  flts : float array;    (* float image of each cell *)
  kind : Bytes.t;        (* '\000' = int cell, '\001' = float cell *)
  size_bytes : int;
  lenient : bool;
}

let int_kind = '\000'
let flt_kind = '\001'

let create ?(lenient = false) ~cells () =
  {
    ints = Array.make cells 0;
    flts = Array.make cells 0.0;
    kind = Bytes.make cells int_kind;
    size_bytes = cells * 4;
    lenient;
  }

(* Deep copy: fresh cell arrays, same model — a handful of memcpys
   instead of replaying the global-initialization walk of [of_prog].
   Every trial starts from a copy of a prototype image or, through
   [thaw], of a checkpoint's root. *)
let copy t =
  {
    t with
    ints = Array.copy t.ints;
    flts = Array.copy t.flts;
    kind = Bytes.copy t.kind;
  }

let size_bytes t = t.size_bytes

(* Frozen images: the storage format of golden checkpoints. A chain
   keeps one full copy at its root; every later image is the set of
   cells that differ from its parent's, compared bit for bit on all
   three halves (kind, int image, float image — the stale half of a
   cell included), so thawing rebuilds a byte-identical [t] and its
   digest. A delta costs 25 B per changed cell (index, int, float,
   kind) against 17 B per cell for a full copy, and consecutive golden
   checkpoints differ in few cells. *)
type frozen =
  | Root of t
  | Delta of {
      parent : frozen;
      cells : int array;  (* changed cell indices, ascending *)
      d_ints : int array;
      d_flts : float array;
      d_kind : Bytes.t;
    }

let[@inline] same_cell a b i =
  Bytes.unsafe_get a.kind i = Bytes.unsafe_get b.kind i
  && Array.unsafe_get a.ints i = Array.unsafe_get b.ints i
  && Int64.equal
       (Int64.bits_of_float (Array.unsafe_get a.flts i))
       (Int64.bits_of_float (Array.unsafe_get b.flts i))

(* [running] holds the parent's image and is brought up to [t] in
   place, so a chain of k freezes costs k linear scans and never
   re-thaws the chain. One scan collects the changed indices into a
   buffer grown by doubling; only those cells are then copied. *)
let freeze ?prev t =
  match prev with
  | None -> Root (copy t)
  | Some (parent, running) ->
    if Array.length running.ints <> Array.length t.ints then
      invalid_arg "Memory.freeze: running image size differs";
    let buf = ref (Array.make 64 0) and k = ref 0 in
    for i = 0 to Array.length t.ints - 1 do
      if not (same_cell running t i) then begin
        if !k = Array.length !buf then begin
          let b = Array.make (2 * !k) 0 in
          Array.blit !buf 0 b 0 !k;
          buf := b
        end;
        Array.unsafe_set !buf !k i;
        incr k
      end
    done;
    let cells = Array.sub !buf 0 !k in
    let d_ints = Array.map (fun i -> Array.unsafe_get t.ints i) cells
    and d_flts = Array.map (fun i -> Array.unsafe_get t.flts i) cells
    and d_kind = Bytes.init !k (fun j -> Bytes.unsafe_get t.kind cells.(j)) in
    Array.iter
      (fun i ->
        Bytes.unsafe_set running.kind i (Bytes.unsafe_get t.kind i);
        Array.unsafe_set running.ints i (Array.unsafe_get t.ints i);
        Array.unsafe_set running.flts i (Array.unsafe_get t.flts i))
      cells;
    Delta { parent; cells; d_ints; d_flts; d_kind }

let apply_delta t d =
  match d with
  | Root _ -> ()
  | Delta d ->
    for j = 0 to Array.length d.cells - 1 do
      let i = Array.unsafe_get d.cells j in
      Bytes.unsafe_set t.kind i (Bytes.unsafe_get d.d_kind j);
      Array.unsafe_set t.ints i (Array.unsafe_get d.d_ints j);
      Array.unsafe_set t.flts i (Array.unsafe_get d.d_flts j)
    done

(* Root copy plus every delta on the path, oldest first. *)
let rec thaw = function
  | Root t -> copy t
  | Delta { parent; _ } as d ->
    let t = thaw parent in
    apply_delta t d;
    t

(* [src]'s cells over [dst]'s; [dst] keeps its access model. *)
let blit ~src ~dst =
  if Array.length src.ints <> Array.length dst.ints then
    invalid_arg "Memory.blit: image size differs";
  Array.blit src.ints 0 dst.ints 0 (Array.length src.ints);
  Array.blit src.flts 0 dst.flts 0 (Array.length src.flts);
  Bytes.blit src.kind 0 dst.kind 0 (Bytes.length src.kind)

(* [thaw] into [t]'s own arrays: the root's cells blitted over [t]'s,
   then every delta on the path — or, when [t] already holds [from]'s
   image, only the deltas after [from]. [t] keeps its access model, so
   a strict chain can be thawed into a lenient working image. *)
let thaw_into ?from f t =
  let rec root = function Root r -> r | Delta d -> root d.parent in
  if Array.length (root f).ints <> Array.length t.ints then
    invalid_arg "Memory.thaw_into: image size differs";
  let rec go f =
    match (f, from) with
    | _, Some a when a == f -> ()
    | Root _, Some _ ->
      invalid_arg "Memory.thaw_into: [from] is not an ancestor"
    | Root r, None -> blit ~src:r ~dst:t
    | Delta { parent; _ }, _ ->
      go parent;
      apply_delta t f
  in
  go f

(* Two consecutive deltas folded into one on [parent]: the union of
   their cells, the later delta's values winning. Both index arrays
   are ascending, so one merge pass keeps the union ascending. *)
let join ~parent a b =
  match (a, b) with
  | Delta a, Delta b ->
    let na = Array.length a.cells and nb = Array.length b.cells in
    let cells = Array.make (na + nb) 0 and d_ints = Array.make (na + nb) 0 in
    let d_flts = Array.make (na + nb) 0.0 and d_kind = Bytes.create (na + nb) in
    let put k c ints flts kind j =
      cells.(k) <- c;
      d_ints.(k) <- ints.(j);
      d_flts.(k) <- flts.(j);
      Bytes.set d_kind k (Bytes.get kind j)
    in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na || !j < nb do
      let ca = if !i < na then a.cells.(!i) else max_int
      and cb = if !j < nb then b.cells.(!j) else max_int in
      if cb <= ca then begin
        put !k cb b.d_ints b.d_flts b.d_kind !j;
        incr j;
        if ca = cb then incr i
      end
      else begin
        put !k ca a.d_ints a.d_flts a.d_kind !i;
        incr i
      end;
      incr k
    done;
    let n = !k in
    Delta
      {
        parent;
        cells = Array.sub cells 0 n;
        d_ints = Array.sub d_ints 0 n;
        d_flts = Array.sub d_flts 0 n;
        d_kind = Bytes.sub d_kind 0 n;
      }
  | _ -> invalid_arg "Memory.join: both images must be deltas"

(* Address checks are split so the interpreter reports the most precise
   trap: the null guard occupies bytes 0..3. Returns the cell index, or
   -1 when a lenient machine should treat the access as hitting a
   zero page. *)
let cell t addr =
  let addr =
    if addr land 3 = 0 then addr
    else if t.lenient then addr land lnot 3
    else raise (Trap.Error (Trap.Unaligned addr))
  in
  if addr < 4 || addr >= t.size_bytes then begin
    if t.lenient then -1
    else if addr >= 0 && addr < 4 then raise (Trap.Error Trap.Null_access)
    else raise (Trap.Error (Trap.Out_of_bounds addr))
  end
  else addr lsr 2

(* The full access model: alignment, the null guard, bounds, cell kind
   and the lenient rules, checked from scratch on every access. The
   fast engine serves the common case (aligned, in range, expected
   kind) itself and falls back here (Threaded's memory fast paths);
   the reference loop calls these directly, so it stays the model's
   oracle. *)

let load_int t addr =
  let c = cell t addr in
  if c < 0 then 0
  else if Bytes.unsafe_get t.kind c <> int_kind then
    if t.lenient then 0 else raise (Trap.Error (Trap.Type_confusion addr))
  else Array.unsafe_get t.ints c

let load_flt t addr =
  let c = cell t addr in
  if c < 0 then 0.0
  else if Bytes.unsafe_get t.kind c <> flt_kind then
    if t.lenient then 0.0 else raise (Trap.Error (Trap.Type_confusion addr))
  else Array.unsafe_get t.flts c

(* Stores overwrite the cell kind: a wild integer store into a float
   region corrupts it silently, as on real hardware. *)
let store_int t addr v =
  let c = cell t addr in
  if c >= 0 then begin
    Bytes.unsafe_set t.kind c int_kind;
    Array.unsafe_set t.ints c v
  end

let store_flt t addr x =
  let c = cell t addr in
  if c >= 0 then begin
    Bytes.unsafe_set t.kind c flt_kind;
    Array.unsafe_set t.flts c x
  end

(* Byte accesses: little-endian lanes within a word cell. Never
   alignment-trap (as on MIPS lbu/sb). *)
let byte_cell t addr =
  if addr < 4 || addr >= t.size_bytes then begin
    if t.lenient then -1
    else if addr >= 0 && addr < 4 then raise (Trap.Error Trap.Null_access)
    else raise (Trap.Error (Trap.Out_of_bounds addr))
  end
  else addr lsr 2

let load_byte t addr =
  let c = byte_cell t addr in
  if c < 0 then 0
  else if Bytes.unsafe_get t.kind c <> int_kind then
    if t.lenient then 0 else raise (Trap.Error (Trap.Type_confusion addr))
  else ((Array.unsafe_get t.ints c land 0xFFFFFFFF) lsr (8 * (addr land 3))) land 0xFF

let store_byte t addr v =
  let c = byte_cell t addr in
  if c >= 0 then begin
    if Bytes.unsafe_get t.kind c <> int_kind then
      if t.lenient then ()
      else raise (Trap.Error (Trap.Type_confusion addr))
    else begin
      let sh = 8 * (addr land 3) in
      let u = Array.unsafe_get t.ints c land 0xFFFFFFFF in
      let u = u land lnot (0xFF lsl sh) lor ((v land 0xFF) lsl sh) in
      Array.unsafe_set t.ints c (Value.sx32 u)
    end
  end

(* Non-trapping inspection, for harness output extraction and tests. *)
let peek t addr : Value.t option =
  if addr land 3 <> 0 || addr < 0 || addr >= t.size_bytes then None
  else
    let c = addr lsr 2 in
    if Bytes.get t.kind c = int_kind then Some (Value.I t.ints.(c))
    else Some (Value.F t.flts.(c))

let of_prog ?lenient (prog : Ir.Prog.t) =
  let entries, total_bytes = Ir.Prog.layout prog in
  (* Name -> address table: one pass over the layout instead of a
     [List.find_opt] per global (quadratic in the global count, and
     [of_prog] used to run once per trial before prototype images). *)
  let addr_of = Hashtbl.create (List.length entries) in
  List.iter (fun (n, a, _) -> Hashtbl.replace addr_of n a) entries;
  let t = create ?lenient ~cells:(total_bytes / 4) () in
  List.iter
    (fun (g : Ir.Prog.global) ->
      let addr =
        match Hashtbl.find_opt addr_of g.Ir.Prog.gname with
        | Some a -> a
        | None -> assert false
      in
      let base_cell = addr / 4 in
      (match g.Ir.Prog.gty with
       | Ir.Ty.F64 ->
         for i = 0 to g.Ir.Prog.size - 1 do
           Bytes.set t.kind (base_cell + i) flt_kind
         done
       | Ir.Ty.I32 | Ir.Ty.I8 -> ());
      match (g.Ir.Prog.gty, g.Ir.Prog.init) with
      | _, Ir.Prog.Zero -> ()
      | Ir.Ty.I8, Ir.Prog.Int_data a ->
        Array.iteri
          (fun i v -> store_byte t (addr + i) (Int32.to_int v land 0xFF))
          a
      | _, Ir.Prog.Int_data a ->
        Array.iteri (fun i v -> t.ints.(base_cell + i) <- Value.of_int32 v) a
      | _, Ir.Prog.Flt_data a ->
        Array.iteri (fun i x -> t.flts.(base_cell + i) <- x) a)
    prog.Ir.Prog.globals;
  t

(* Read a whole global back out as values, in element order. *)
let read_global t (prog : Ir.Prog.t) name : Value.t array =
  match Ir.Prog.find_global prog name with
  | None -> invalid_arg ("read_global: unknown global " ^ name)
  | Some g ->
    let addr = Ir.Prog.global_addr prog name in
    let base_cell = addr / 4 in
    (match g.Ir.Prog.gty with
     | Ir.Ty.I8 ->
       Array.init g.Ir.Prog.size (fun i -> Value.I (load_byte t (addr + i)))
     | Ir.Ty.I32 | Ir.Ty.F64 ->
       Array.init g.Ir.Prog.size (fun i ->
           if Bytes.get t.kind (base_cell + i) = int_kind then
             Value.I t.ints.(base_cell + i)
           else Value.F t.flts.(base_cell + i)))

(* [int_of_float] has an unspecified result for nan/inf and values
   outside the int range — all reachable in a cell after a float-bank
   injection (a flipped exponent bit turns a finite double into inf).
   Clamp those to 0 so output extraction (and the byte-match fidelity
   built on it) stays deterministic instead of poisoned by whatever the
   platform's conversion returns. *)
let int_of_float_total x =
  if Float.is_finite x && x >= -2147483648.0 && x < 2147483648.0 then
    int_of_float x
  else 0

let read_global_ints t prog name =
  Array.map
    (function Value.I v -> v | Value.F x -> int_of_float_total x)
    (read_global t prog name)

let read_global_flts t prog name =
  Array.map
    (function Value.F x -> x | Value.I v -> float_of_int v)
    (read_global t prog name)

(* Content digest of the full image — cell values, kind tags and the
   access model. The raw material of cache keys in compositional
   campaigns: two memories with equal digests are observably identical
   to the interpreter. Values are packed as fixed-width little-endian
   words (no decimal formatting) so digesting stays cheap even for the
   largest app images. *)
let digest t : string =
  let n = Array.length t.ints in
  let b = Buffer.create (16 + (n * 17)) in
  Buffer.add_string b (if t.lenient then "L" else "S");
  Buffer.add_int64_le b (Int64.of_int t.size_bytes);
  for i = 0 to n - 1 do
    Buffer.add_char b (Bytes.get t.kind i);
    Buffer.add_int64_le b (Int64.of_int (Array.unsafe_get t.ints i));
    Buffer.add_int64_le b (Int64.bits_of_float (Array.unsafe_get t.flts i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))
