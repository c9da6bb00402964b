(** Flat data memory with two access models.

    One 4-byte cell per program word; a cell holds either a 32-bit
    integer or a double (per-cell kind tag). Byte accesses address
    little-endian lanes within integer cells and never alignment-trap.

    - strict (default): out-of-range, null, misaligned or
      kind-confused accesses raise {!Sim.Trap.Error} — an MMU model;
    - lenient: the SimpleScalar sim-safe model the paper ran on —
      wild loads read 0, wild stores vanish, kind confusion reads 0,
      and misaligned word accesses are truncated to their word. *)

type t = private {
  ints : int array;    (** integer image of each cell *)
  flts : float array;  (** float image of each cell *)
  kind : Bytes.t;      (** {!int_kind} or {!flt_kind} per cell *)
  size_bytes : int;
  lenient : bool;
}
(** Readable so the fast engine can serve an aligned, in-range access
    of the right kind without a call (Threaded's memory fast paths);
    every other access goes through the model below. *)

val int_kind : char
val flt_kind : char

val create : ?lenient:bool -> cells:int -> unit -> t
val size_bytes : t -> int

val copy : t -> t
(** Deep copy (fresh cell arrays, same access model). Copying a
    prototype image replaces replaying {!of_prog}'s initialization. *)

type frozen
(** An immutable memory image: either a full copy (a root) or the
    cells that differ from a parent image. Safe to share read-only
    across domains. *)

val freeze : ?prev:frozen * t -> t -> frozen
(** [freeze m] is a root: a full copy of [m]. [freeze ~prev:(p, running)
    m] stores only the cells of [m] that differ from [running] — kind,
    int and float halves compared bit for bit — as a delta on [p], then
    updates [running] in place to equal [m]. [running] must hold
    [thaw p]'s contents; it is the caller's working image, so a chain of
    freezes never re-thaws its parents. Raises [Invalid_argument] if
    [running] and [m] differ in size. *)

val thaw : frozen -> t
(** A fresh mutable image equal to the frozen one cell for cell (so
    with the same {!digest}): the root's copy with every delta on the
    path applied, oldest first. *)

val thaw_into : ?from:frozen -> frozen -> t -> unit
(** [thaw_into f t] overwrites [t]'s cells so that [t] equals [thaw f]
    cell for cell, reusing [t]'s arrays instead of allocating an image.
    [t] keeps its own access model. With [from], [t] must already hold
    [thaw from], where [from] is [f] or an ancestor of it on its chain,
    and only the deltas after [from] are applied. Raises
    [Invalid_argument] if the sizes differ or [from] is not on [f]'s
    chain. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s cells with [src]'s; [dst] keeps its access
    model. Raises [Invalid_argument] if the sizes differ. *)

val join : parent:frozen -> frozen -> frozen -> frozen
(** [join ~parent a b] folds two consecutive deltas — [b] frozen on
    [a], [a] on an image equal to [parent] — into one delta on
    [parent] that thaws to what [b] thaws to. Thins a chain without
    re-thawing it. Raises [Invalid_argument] if [a] or [b] is a root. *)

(** {1 The access model}

    Alignment, the null guard (bytes 0..3), bounds, cell kind and the
    lenient rules, all checked on every call. *)

val load_int : t -> int -> int
val load_flt : t -> int -> float
val store_int : t -> int -> int -> unit
val store_flt : t -> int -> float -> unit

val load_byte : t -> int -> int
(** Zero-extended; never alignment-traps. *)

val store_byte : t -> int -> int -> unit
(** Stores the low 8 bits; never alignment-traps. *)

val peek : t -> int -> Value.t option
(** Non-trapping inspection (word granularity). *)

val of_prog : ?lenient:bool -> Ir.Prog.t -> t
(** Lay out and initialize the program's globals (see
    {!Ir.Prog.layout}). *)

val read_global : t -> Ir.Prog.t -> string -> Value.t array
(** A whole global in element order; byte globals are unpacked. *)

val read_global_ints : t -> Ir.Prog.t -> string -> int array
(** Float cells convert with truncation; non-finite or out-of-range
    doubles (reachable after float injection) read as [0] instead of
    the platform's unspecified [int_of_float] result. *)

val int_of_float_total : float -> int
(** The total conversion {!read_global_ints} uses: truncation for
    finite doubles inside the 32-bit int range, [0] for everything
    [int_of_float] leaves unspecified (nan, infinities, out-of-range).
    Exposed so other float-to-int sites (workload/score extraction)
    share one defined behaviour instead of raw [int_of_float]. *)

val read_global_flts : t -> Ir.Prog.t -> string -> float array

val digest : t -> string
(** Hex MD5 over the full image: cell values, kind tags, size and
    access model. Equal digests mean the two memories are observably
    identical to the interpreter. *)
