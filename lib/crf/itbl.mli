(** Open-addressed int -> float table (linear probing, unboxed float
    values) for weight storage on the training/inference hot path.

    Keys must be non-negative ([-1] is the empty-slot sentinel), which
    every packed weight key in {!Fast} satisfies. Accumulation order
    per key matches the [Hashtbl] code this replaces, so weights are
    byte-identical; only iteration order differs.

    A table is heap-backed (mutable, growable — what {!create} builds
    and training uses) or map-backed (read-only values living in a
    [Bigarray.Array1] view over an mmap'd model file — what
    {!of_sorted_mapped} builds). Lookups behave identically in both;
    {!add}/{!set} on a mapped table raise [Invalid_argument]. *)

type t

val create : int -> t
(** [create hint] sizes the table for at least [hint] slots (rounded
    up to a power of two, minimum 16). *)

val of_sorted_mapped :
  keys:int array ->
  vals:(float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  verify:(unit -> unit) ->
  t
(** A read-only table over the key run [keys] and the values [vals]
    (a view over a mapped file; [vals.(j)] belongs to [keys.(j)]),
    neither copied. [keys] must be strictly increasing and
    non-negative — the canonical order the v4 writer emits — or
    [Failure] is raised; {!get} is a binary search over it. [verify]
    is the lazy checksum for the mapped payload: it runs once, at the
    first read-path entry point that calls {!ensure_verified}, and
    should raise [Lexkit.Diag.Error] on mismatch. *)

val ensure_verified : t -> unit
(** Run the pending [verify] closure of a mapped table (idempotent;
    no-op on heap tables). Called by {!Fast} at inference entry points
    so corruption in a lazily-mapped payload surfaces as a structured
    diagnostic before any value is trusted. *)

val storage : t -> [ `Heap | `Mapped ]

val get : t -> int -> float
(** [get t k] is the value bound to [k], or [0.] when unbound. *)

val add : t -> int -> float -> unit
(** [add t k d] accumulates [d] onto the binding for [k], creating it
    at [d] when absent. [d = 0.] on an absent key is a no-op, matching
    the guarded [Hashtbl] accumulator it replaces. *)

val set : t -> int -> float -> unit
(** [set t k v] binds [k] to [v], replacing any existing binding
    (inserts even [v = 0.], like [Hashtbl.replace]). *)

val iter : (int -> float -> unit) -> t -> unit
val fold : (int -> float -> 'a -> 'a) -> t -> 'a -> 'a
val length : t -> int

(** {2 Index}

    An open-addressed map from non-negative int keys to ints, hashed
    like the tables. The weight rows below index their row keys with
    one; {!Candidates} indexes its flat count runs with another. *)

type index

val index_runs : int array -> stride:int -> index
(** [index_runs a ~stride] reads [a] as entries of [stride] ints whose
    first int, the key, is non-negative and ascending, and maps each
    distinct key to the number of its first entry. *)

val index_find : index -> int -> int
(** The value bound to a key, or [-1]. *)

(** {2 Rows}

    A table's entries grouped by all key bits except one field, the
    {e label}: one row per distinct rest-of-key, read in place from the
    table's own arrays. ICM fills a factor's column for all of a slot's
    candidate labels with one row lookup instead of one {!get} per
    candidate. *)

type rows

val rows : t -> label_shift:int -> label_bits:int -> rows
(** [rows t ~label_shift ~label_bits] groups [t]'s entries by their
    keys with the field [(k lsr label_shift) land (2^label_bits - 1)]
    zeroed. The index is sized by the number of rows; the only
    per-entry array is one int per entry. Reads [t]'s keys only. *)

val rows_current : rows -> bool
(** No binding was added to the table since {!rows} built the rows
    (values changed in place stay visible to them). *)

val scatter :
  rows ->
  int ->
  first:int array ->
  next:int array ->
  float array ->
  off:int ->
  mult:float ->
  unit
(** [scatter r k ~first ~next dst ~off ~mult]: for each entry of the
    row of [k] (a key whose label field is zero), with label [l] and
    value [w], sets [dst.(off + p)] to [mult *. w] at every position
    [p] of the chain [first.(l)], [next.(first.(l))], ... up to the
    first negative link. [first] is a dense label → position map
    covering every label of the table, [-1] for labels that take no
    value; a label may own several positions. Positions whose label
    the row lacks are left as they are — the caller zeroes them, which
    equals [mult *. get] for a positive [mult]. *)
