(** Skip-gram with negative sampling (Mikolov et al.), generalized to
    arbitrary contexts (Levy & Goldberg) — paper Section 3.2.

    Training pairs are (word, context) where a context is any string —
    here a path-context [(abstracted path, other-end value)], a
    neighboring token for the linear baseline, or a bare neighbor value
    for the path-neighbors baseline. Negatives are drawn from the
    context unigram distribution raised to the 3/4 power. *)

type config = {
  dim : int;
  epochs : int;
  negatives : int;
  learning_rate : float;  (** Initial; decays linearly to 1e-4 of it. *)
  min_count : int;
  seed : int;
}

val default_config : config

val max_dim : int
(** 4096. *)

val max_negatives : int
(** 64. *)

val config_error : config -> string option
(** [Some msg] when [dim] lies outside [1, {!max_dim}] or [negatives]
    outside [0, {!max_negatives}], naming the first such field and its
    value; [None] otherwise. The training kernel sizes stack arrays
    from both, so {!train} and {!train_stream} refuse such a config
    with [Invalid_argument] before any training, and
    {!Serialize} rejects a model or checkpoint carrying one as
    [Corrupt_model]. *)

type t = {
  config : config;
  words : Vocab.t;
  contexts : Vocab.t;
  word_vecs : float array array;
  context_vecs : float array array;
}

type parallel_mode =
  | Deterministic
      (** Shards advance in synchronized rounds: gradients are computed
          against the matrices as of the last barrier and applied in
          shard order — bitwise reproducible for a fixed job count. *)
  | Hogwild
      (** Shards update the shared matrices in place with no
          synchronization (Recht et al.) — fastest, memory-safe (no
          float tearing on 64-bit OCaml), not reproducible. *)

val train :
  ?pool:Parallel.pool ->
  ?mode:parallel_mode ->
  ?config:config ->
  ?sigmoid:[ `Lut | `Exact ] ->
  (string * string) list ->
  t
(** Flat-matrix trainer: both embedding matrices live in single
    unboxed [floatarray]s (row [i] at offset [i * dim]) with fused
    unsafe-access update loops; the public [float array array] views
    are extracted once at the end.

    [sigmoid] (default [`Lut]) picks the precomputed sigmoid table
    (4096 bins over [-8, 8), absolute error < 1e-3 — see DESIGN.md
    §10); [`Exact] uses the exact sigmoid and is then bitwise
    identical to {!Reference.train} (golden-tested).

    Without [pool] (or with a 1-job pool) this is the sequential
    trainer, and the one to use: with [`Lut] it runs the C slice
    kernel, which every pooled mode on the hosts measured so far loses
    to (the CLI calls both trainers without a pool, so its models are
    the same at every [-j]). With a larger pool, pairs split into one
    contiguous shard per job; shard [s] draws epoch shuffles and
    negatives from its own [Random.State.make [| seed; s |]] and
    follows its own linear lr schedule. [mode] (default
    [Deterministic]) picks the update discipline.

    Internally the id pairs are one flat [int array] (word, context,
    word, context, ...), shuffled in place pair by pair.

    Raises [Invalid_argument] when {!config_error} finds a field out of
    range. *)

(** {2 Out-of-core training} *)

type ckpt = {
  ck_config : config;
  ck_words : Vocab.t;
  ck_contexts : Vocab.t;
  ck_w : Float.Array.t;
      (** word matrix, flat row-major ([Vocab.size words * dim]).
          Inside [on_shard] this aliases the live training matrix:
          serialize it before the callback returns, don't hold it. *)
  ck_c : Float.Array.t;  (** context matrix, same layout *)
  ck_next_epoch : int;  (** first epoch the resumed run executes *)
  ck_next_shard : int;  (** first shard of that epoch *)
  ck_shard_sizes : int array;
      (** pairs per shard at save time — resuming against a re-sharded
          corpus is rejected *)
  ck_jobs : int;
      (** job count of the saving run; bit-identity on resume only
          holds for the same job count *)
}

val train_stream :
  ?pool:Parallel.pool ->
  ?config:config ->
  words:Vocab.t ->
  contexts:Vocab.t ->
  shard_sizes:int array ->
  pairs_of_shard:(int -> int array) ->
  ?from:ckpt ->
  ?on_shard:(epoch:int -> shard:int -> ckpt -> unit) ->
  unit ->
  t
(** Out-of-core {!train}: pairs arrive shard by shard as vocab id
    pairs, flat ([pairs_of_shard s] must return the [shard_sizes.(s)]
    pairs of shard [s] as one array of [2 * shard_sizes.(s)] ids, word
    then context for each pair, the same pairs in the same order on
    every call — shard files on disk guarantee this; the trainer
    shuffles the array in place) and at most one shard's array is live
    at a time.
    Vocabularies are built by the caller (stream the corpus through
    {!Vocab.Counter} for bounded memory) and fixed for the whole run.

    Always the [`Lut] sigmoid. Sequential runs use the C epoch kernel
    with the global learning-rate schedule (step numbers match a
    whole-epoch walk); with a pool, each shard runs {!train}'s
    deterministic synchronized rounds scoped to that shard. Every rng
    is derived from [(seed, epoch, shard)] and fully consumed within
    the shard, so a checkpoint taken at any shard boundary ([on_shard],
    which fires after each shard) resumes — via [from] — to a final
    model bit-identical to the uninterrupted run with the same job
    count. Averaging-free, so checkpoints need only matrices + cursor.

    Raises [Invalid_argument] on a config {!config_error} refuses, an
    empty shard list, a cursor or matrix shape that does not match, or
    a shard whose size changed. *)

(** The C slice kernel behind the sequential [`Lut] trainers, exposed
    for the kernel oracle test. [train_slice w c lut pairs neg_table
    iparams fparams] runs steps [iparams.(2)] to [iparams.(3) - 1] of
    one epoch over the flat matrices [w] and [c]; [pairs] is the flat
    id-pair array, [neg_table] the negative-sampling table, and the
    [iparams]/[fparams] layouts are documented in [sgns_stubs.c]. [dim]
    and [negatives] must satisfy {!config_error}; nothing is checked. *)
module Kernel : sig
  val sigmoid_table : Float.Array.t
  val lut_range : float
  val lut_scale : float

  external train_slice :
    Float.Array.t ->
    Float.Array.t ->
    Float.Array.t ->
    int array ->
    int array ->
    int array ->
    Float.Array.t ->
    unit = "caml_sgns_train_slice_bytes" "caml_sgns_train_slice"
  [@@noalloc]
end

(** The pre-flat-kernel trainer (nested [float array array] matrices,
    exact sigmoid), kept as the golden/benchmark baseline; it reads the
    same flat id pairs as {!train}. *)
module Reference : sig
  val train :
    ?pool:Parallel.pool ->
    ?mode:parallel_mode ->
    ?config:config ->
    (string * string) list ->
    t
end

val word_vec : t -> string -> float array option
val context_vec : t -> string -> float array option

val predict : t -> string list -> (string * float) list
(** Paper equation (4): rank every vocabulary word [w] by
    [Σ_{c ∈ contexts} w·c], best first. Unknown contexts are ignored. *)

val most_similar : t -> string -> k:int -> (string * float) list
(** Cosine-nearest words to the given word (for the Table 4b
    semantic-similarity probe). *)

(** An embedding matrix behind a storage abstraction: boxed heap rows
    (what training produces) or a flat float64 [Bigarray] view over an
    mmap'd model file. Operations run the same float operations in the
    same order on both, so predictions are byte-identical across
    storages. *)
module Mat : sig
  type t

  val of_rows : float array array -> t

  val of_mapped :
    vals:(float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
    rows:int ->
    dim:int ->
    verify:(unit -> unit) ->
    t
  (** A mapped matrix: row [i] lives at elements [i*dim .. (i+1)*dim-1]
      of [vals]. [verify] is the lazy payload checksum (run once, at
      the first read; should raise [Lexkit.Diag.Error] on mismatch).
      Raises [Failure] when [vals] does not hold exactly [rows*dim]
      floats. *)

  val rows : t -> int
  val row : t -> int -> float array
  (** Heap matrices return the row itself; mapped ones materialize a
      copy. *)

  val to_rows : t -> float array array
  val storage : t -> [ `Heap | `Mapped ]
  val ensure_verified : t -> unit
end

(** A model whose matrices sit behind {!Mat} — what inference paths
    (the serve engine) consume, so one code path serves heap-trained
    and mapped models alike. *)
type view = {
  v_config : config;
  v_words : Vocab.t;
  v_contexts : Vocab.t;
  v_word_vecs : Mat.t;
  v_context_vecs : Mat.t;
}

val view_of : t -> view
(** O(1) wrap of a heap model. *)

val heap_of_view : view -> t
(** Materialize every row on the heap (verifies mapped payloads
    first). *)

val view_storage : view -> [ `Heap | `Mapped ]

val verify_view : view -> unit
(** Force the lazy checksums of mapped matrices; no-op on heap
    views. *)

val predict_view : view -> string list -> (string * float) list
(** {!predict} over a view — byte-identical to the heap path. *)

val most_similar_view : view -> string -> k:int -> (string * float) list
(** {!most_similar} over a view — byte-identical to the heap path. *)

val sigmoid : float -> float

val sigmoid_lut : float -> float
(** Table-lookup sigmoid used by the default training kernel:
    [|sigmoid_lut x - sigmoid x| < 1e-3] for all [x] (bounded by the
    kernel test suite). *)

val dot : float array -> float array -> float
