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
    {!add}/{!set} on a mapped table raise [Invalid_argument].

    A table may also keep its entries grouped into {{!section-rows}rows},
    which the scoring loops walk instead of looking keys up one by one:
    a heap table from its creation on, kept current by every insert and
    rehash; a mapped table once {!build_rows} has run. *)

type t

val create : ?rows:(int * int) list -> int -> t
(** [create ?rows hint] sizes the table for at least [hint] slots
    (rounded up to a power of two, minimum 16). Each [(label_shift,
    label_bits)] of [rows] names a grouping the table keeps as rows,
    numbered in list order (see {!section-rows}); none by default. *)

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

val build_dense : t -> int -> unit
(** [build_dense t n] gives a mapped table whose keys are all below [n]
    a copy of its values in an [n]-cell array indexed by key, once,
    after which {!get} reads one cell instead of searching the key run
    (a label-keyed table: [n] floats of memory). It runs the pending
    [verify] first. Heap tables, and mapped tables with a key of [n] or
    more, are left as they are. Not safe to run concurrently with
    itself: callers serialize it, like {!build_rows}. *)

val ensure_verified : t -> unit
(** Run the pending [verify] closure of a mapped table (idempotent;
    no-op on heap tables). Called by {!Fast} at inference entry points
    so corruption in a lazily-mapped payload surfaces as a structured
    diagnostic before any value is trusted. *)

val storage : t -> [ `Heap | `Mapped ]

val get : t -> int -> float
(** [get t k] is the value bound to [k], or [0.] when unbound: a hash
    probe on a heap table; on a mapped one, a binary search over the
    key run, or one load after {!build_dense}. *)

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

(** {2:rows Rows}

    A table's entries grouped by all key bits except one field, the
    {e label}: one row per distinct rest-of-key. Each entry is one int
    (its place in the table and its label) and values are read from the
    table's own arrays, so an update in place is seen at once. The
    scoring loops fill a factor's column for all of a slot's candidate
    labels with one row walk instead of one {!get} per candidate.

    A heap table gets its groupings at {!create} and keeps their rows
    current: a new key joins its row at once, each row being an array
    of its own that doubles when full, and a rehash rewrites every
    entry's table index in place. Memory per grouping: an int per
    entry, up to as much again of doubling slack, two ints per row (the
    array's header and its place in the row list), and the row index,
    two ints per slot at most half full. A mapped table's rows are
    built once by {!build_rows} over its complete key run and are
    compact: they lie one after another in a single array at exactly
    their length, an int per entry and the row index. *)

val build_rows : t -> (int * int) list -> unit
(** [build_rows t groups] gives a mapped table that has no rows compact
    ones over its key run, one grouping per [(label_shift,
    label_bits)] of [groups], numbered in list order, and publishes
    them; on a table that has rows it does nothing. A heap table's rows
    are made by {!create}: on a heap table without rows it raises
    [Invalid_argument]. Not safe to run concurrently with itself:
    callers serialize it (Fast's first use does, under its lock). *)

val rows_ready : t -> bool
(** The table has rows to walk: it was created with some, or
    {!build_rows} has run. *)

val scatter :
  t ->
  int ->
  int ->
  first:int array ->
  next:int array ->
  float array ->
  off:int ->
  mult:float ->
  unit
(** [scatter t g k ~first ~next dst ~off ~mult]: for each entry of the
    row of [k] (a key whose label field is zero) in [t]'s grouping [g],
    with label [l] and value [w], sets [dst.(off + p)] to [mult *. w] at
    every position [p] of the chain [first.(l)], [next.(first.(l))],
    ... up to the first negative link. [first] is a dense label →
    position map covering every label of the table, [-1] for labels
    that take no value; a label may own several positions. Positions
    whose label the row lacks are left as they are — a caller that
    zeroes them first gets [mult *. get] for a positive [mult]. Raises
    [Invalid_argument] when [t] has no grouping [g] (a mapped table
    before {!build_rows}). *)

val scatter_add :
  t ->
  int ->
  int ->
  first:int array ->
  next:int array ->
  float array ->
  off:int ->
  mult:float ->
  unit
(** Like {!scatter}, but adds [mult *. w] onto [dst.(off + p)]: the
    weights a row lacks add nothing, where [+. mult *. get] would add
    [+0.]. The two differ only when the cell holds [-0.], which the add
    turns into [+0.]. *)
