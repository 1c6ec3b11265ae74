(** Int-encoded training/inference engine — the hot path behind
    {!Train}.

    Labels and relations are interned to dense ids (a {!Symbols.t}
    shared with {!Candidates}, whose guarded interning keeps every id
    inside the packed-key bit budget); factors become parallel int
    arrays and weights live in int-keyed tables, so the inner ICM loop
    never hashes a string. {!Train} re-exports the final averaged
    weights as a string-keyed {!Model.t} for inspection, and delegates
    prediction here. *)

type egraph
(** A factor graph compiled against a model's symbol table: dense
    label and relation ids in parallel int arrays. Compiling only looks
    strings up, never interns them, so it never writes the model. A
    factor whose relation, or whose known endpoint's label, the model
    has never seen has weight 0 under every candidate and adds no
    candidate evidence; it is left out, which changes no prediction. *)

type model

val create : ?symbols:Symbols.t -> unit -> model
(** The [Candidates.t] used with a model must share its symbol table
    ({!train} and the serializers maintain this). *)

val symbols : model -> Symbols.t

val encode : model -> Graph.t -> egraph
(** Factors keep the graph's order. *)

(** Builds the {!encode} of a graph straight from its nodes and factor
    occurrences, without the string graph: relations arrive as ids
    (negative = unseen), and occurrences of the same (node, relation,
    node) factor merge into one with a multiplicity, in first-occurrence
    order — the order {!Graph.make} gives. So feeding a builder what
    {!Graph.make} is fed yields [encode m (Graph.make ...)]. *)
module Builder : sig
  type t

  val create : Symbols.t -> t
  (** Against a model's symbol table ({!symbols}). *)

  val node : t -> gold:string -> unknown:bool -> unit
  (** Adds the next node: ids are [0, 1, ...] in call order. *)

  val pairwise : t -> a:int -> b:int -> rel:int -> unit
  val unary : t -> n:int -> rel:int -> unit
  val finish : t -> egraph
end

val unknown_nodes : egraph -> int array
(** Node ids of the unknown nodes, in slot order (the order candidate
    arrays and {!Scorer} slots are indexed by). *)

val name : egraph -> int -> string
(** A node's own string: a known node's label, an unknown node's
    current name. *)

type init_style =
  | No_init
  | Log_counts  (** w = scale * log(1 + count) for gold features. *)
  | Naive_bayes
      (** Log-counts normalized by the label prior (log P(f|l)-style). *)

type trainer =
  | Structured
      (** Classic structured perceptron: update against the joint MAP. *)
  | Pseudolikelihood
      (** Mistake-driven per-node updates with all other nodes clamped
          to gold — pairwise weights are estimated against correct
          neighborhoods (the pseudolikelihood view of CRF training);
          inference stays joint. The default: fastest and most accurate
          on the full-path representation. *)
  | Pl_gradient
      (** True pseudolikelihood gradient (softmax over candidates):
          frequency-consistent on inherently ambiguous labels, slower
          to converge. *)
  | Mixed
      (** Pseudolikelihood for all but the last two iterations, then
          structured fine-tuning against the model's own inference. *)

type engine =
  | Incremental
      (** Cached per-candidate factor contributions + dirty-worklist
          sweeps: only slots whose neighborhood changed are rescored.
          Exact — byte-identical to [Full_rescore] (golden-tested). The
          default. *)
  | Full_rescore
      (** The reference engine: every candidate of every node rescored
          from scratch each sweep. *)

type config = {
  max_candidates : int;
  max_passes : int;
  seed : int;
  iterations : int;
  averaged : bool;
  init : init_style;
      (** Generative weight initialization before perceptron refinement;
          features rarer than [init_min_count] are pruned from it. *)
  init_scale : float;
  init_min_count : int;
  trainer : trainer;
  engine : engine;  (** ICM implementation used by MAP inference. *)
}

val default_config : config

(** {2 Inference internals}

    Exposed for the kernel-equivalence tests and benchmarks; {!Train}
    callers never need these. *)

val node_score : model -> egraph -> int -> int array -> int -> float
(** [node_score m eg n assignment l]: score of labeling node [n] with
    [l] given every other node's label in [assignment] — bias, then
    pairwise factors in touch order, then unary factors. *)

val candidate_ids :
  config -> Candidates.t -> model -> egraph -> force_gold:bool ->
  int array array
(** Interned candidate label ids per unknown slot; the gold label is
    appended when [force_gold] and absent. Evidence is merged on the
    candidate slate of the reused MAP arena (see {!map_assignment}). *)

val map_assignment :
  ?cand:int array array ->
  config ->
  Candidates.t ->
  model ->
  egraph ->
  force_gold:bool ->
  seed:int ->
  int array
(** ICM MAP inference over the full node set (known nodes stay gold);
    dispatches on [config.engine]. Its working memory — candidate
    slate, score cache, per-slot bookkeeping, the row fill's label map
    — is one arena reused across graphs: the spare is taken with an
    atomic exchange and given back when the run completes, a
    concurrent run makes its own, and a spare too small for a graph or
    a model's label count is grown (one past a fixed size is not
    kept). *)

(** Incremental scoring cache behind {!engine} [Incremental]. After
    [create], for any slot [i], [scores t i] is bit-identical to
    mapping {!node_score} over that slot's candidates against the
    current assignment — [set_label] keeps that invariant by marking
    exactly the slots sharing a factor with the flipped one stale.
    On a model {!prepare} has frozen, factor columns are filled from
    the model's weight rows (one row per column, its entries placed
    through a dense label → candidate map); otherwise, as under
    training, one weight lookup per candidate. Both give the same
    bits. The candidates of a slot need not be distinct. *)
module Scorer : sig
  type t

  val create : model -> egraph -> int array array -> int array -> t
  (** [create m eg cand assignment]: [cand] in slot order (as from
      {!candidate_ids}); [assignment] is live — [set_label] writes it.
      The scorer gets an arena of its own. *)

  val scores : t -> int -> float array
  (** Cached candidate scores for a slot, refreshed if stale (a
      copy). *)

  val best : t -> int -> int
  (** Argmax label for a slot (first-wins on ties, current label when
      the candidate set is empty) — same tie-breaking as the
      full-rescore reference. *)

  val set_label : t -> int -> int -> unit
  (** [set_label t i l] assigns label [l] to slot [i] and marks its
      factor neighbors stale. No-op when [l] is already assigned. *)

  val is_dirty : t -> int -> bool
end

val train : ?pool:Parallel.pool -> config -> Candidates.t -> Graph.t list -> model
(** Averaged structured perceptron; candidate sets come from
    [Candidates] (string side) and are interned per node.

    Without [pool] (or with a 1-job pool) this is the sequential
    trainer, byte-for-byte. With a larger pool, each pass runs in
    synchronized rounds: every domain trains a contiguous slice of the
    round against the weights frozen at the round barrier, writing into
    a private delta; deltas merge in slice order and graphs keep the
    step numbers of the sequential pass, so a run is reproducible for a
    fixed job count (a synchronous-minibatch view of the same
    objective — not bitwise-equal to the sequential run). *)

val train_stream :
  ?pool:Parallel.pool ->
  config ->
  Candidates.t ->
  n_shards:int ->
  graphs_of_shard:(int -> Graph.t list) ->
  ?from:model * int * int ->
  ?on_shard:(it:int -> shard:int -> model -> unit) ->
  unit ->
  model
(** Out-of-core {!train}: the corpus arrives shard by shard through
    [graphs_of_shard] and at most one shard's graphs (plus their
    encodings and candidate caches) are live at a time — memory is
    O(model + largest shard), never O(corpus). Within a shard the pass
    is {!train}'s machinery verbatim; the shuffle is per
    (iteration, shard) with an rng derived from [(seed, it, shard)],
    so no rng state crosses a shard boundary.

    [on_shard ~it ~shard m] fires after each shard completes — the
    checkpoint hook. [from (m, it, shard)] resumes at that cursor
    ([m] from {!restore_full}; [it = iterations] with [shard = 0]
    resumes a run that finished its passes but died before
    finalization). Resume is bit-exact: a run checkpointed at any
    shard boundary and resumed from it produces the same model, byte
    for byte, as the uninterrupted run with the same job count —
    derived rngs mean nothing needs replaying, and {!dump_full}
    round-trips floats exactly. [Candidates] passed on resume must be
    rebuilt over the same shards against the restored model's symbol
    table (see {!Train.train_of_shards}).

    Averaging is finalized only on the final return, never in
    checkpoints. Raises [Invalid_argument] on an out-of-range cursor
    or [n_shards <= 0]. *)

val predict : config -> Candidates.t -> model -> Graph.t -> string array

val predict_batch :
  ?pool:Parallel.pool ->
  config ->
  Candidates.t ->
  model ->
  Graph.t list ->
  string array list
(** [predict_batch cfg cands m graphs] = [List.map (predict cfg cands m)
    graphs], with per-graph encoding and inference fanned out over
    [pool] (default: the shared {!Parallel.get_pool}). Output is
    identical for every job count. *)

val predict_encoded :
  ?pool:Parallel.pool ->
  config ->
  Candidates.t ->
  model ->
  egraph list ->
  string array list
(** {!predict_batch} over graphs already encoded against [model]. *)

val prepare : model -> Candidates.t Lazy.t -> Candidates.t
(** The model's first use, run once under a lock: force [cands] (the
    candidate table paired with [model]; a loaded model checksums its
    candidate sections and reads them into the table's flat runs here,
    a trained one freezes its counts), rank its global labels, verify
    the mapped weight tables and group the pairwise and unary weights
    into rows ({!Itbl.rows}) for the ICM column fill. Later calls cost
    one atomic read. After it the model is frozen: inference only reads
    it, so threads and domains may share it. A prepared model must not
    be trained further; a table that grows after it falls back to
    per-candidate lookups. Heap (copy-loaded or freshly trained) and
    mapped models both get rows. *)

val top_k :
  config ->
  Candidates.t ->
  model ->
  Graph.t ->
  node:int ->
  k:int ->
  (string * float) list

val export_weights : model -> Model.t
(** Decode the int-keyed tables into the public feature table. *)

(** {2 Serialization support} *)

type dump = {
  d_labels : string list;  (** in id order *)
  d_rels : string list;
  d_pw : (int * float) list;  (** packed key, weight; key-sorted *)
  d_un : (int * float) list;
  d_bias : (int * float) list;
}

val dump : model -> dump
val restore : dump -> model

type full_dump = {
  f_weights : dump;
  f_pw_u : (int * float) list;  (** averaging accumulators, key-sorted *)
  f_un_u : (int * float) list;
  f_bias_u : (int * float) list;
  f_steps : int;  (** averaged-perceptron step clock *)
}

val dump_full : model -> full_dump
(** {!dump} plus the averaging accumulators and step clock — the
    complete mid-training state. A model restored from this and
    trained onward makes bit-identical updates to one that never
    stopped; plain {!dump} only captures what inference needs. *)

val restore_full : full_dump -> model
(** Raises [Failure] on out-of-range keys or a negative step clock
    (the checkpoint loaders convert this to a corrupt-model
    diagnostic). *)

type mapped_table = {
  mt_keys : int array;  (** strictly increasing packed keys *)
  mt_vals : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** view over the mapped file; [mt_vals.(j)] pairs with
          [mt_keys.(j)] *)
  mt_verify : unit -> unit;
      (** lazy checksum of the mapped payload; raises
          [Lexkit.Diag.Error] on mismatch *)
}

val restore_mapped :
  labels:string list ->
  rels:string list ->
  pw:mapped_table ->
  un:mapped_table ->
  bias:mapped_table ->
  model
(** Like {!restore}, but weight values stay in the mapped file — only
    symbol tables and key runs are heap-allocated. Key range checks
    run eagerly; float payloads are verified lazily at the first
    inference entry point. Raises [Failure] on out-of-range or
    non-canonical keys. *)

val storage : model -> [ `Heap | `Mapped ]

val verify_tables : model -> unit
(** Force the lazy checksums of mapped weight tables (no-op for heap
    models). Every inference entry point calls this. *)
