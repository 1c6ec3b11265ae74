(** Variable-name prediction with word2vec (paper Section 5.3.1,
    Table 3), with the two context baselines of the paper.

    A program element (a local variable) is represented by the set of
    contexts of all its occurrences; its name is predicted by the
    paper's equation (4): the vocabulary word maximizing the summed
    dot-product with the context vectors. Other unknown locals
    appearing inside a context are masked with a placeholder (at both
    training and test time), since their names are stripped too. *)

type mode =
  | Paths of Graphs.repr
      (** AST-path contexts: (abstracted path, other-end value). *)
  | Path_neighbors of Astpath.Config.t
      (** Same surrounding nodes, path hidden: other-end value only —
          the paper's "path-neighbors, no-paths" baseline. *)
  | Linear_tokens of int
      (** Surrounding tokens within the given window, annotated with
          their offset — the classic word2vec context. *)

val mode_name : mode -> string

val pairs_of_source : lang:Lang.t -> mode:mode -> string -> (string * string list) list
(** [(variable name, contexts of all its occurrences)] for each local
    element of one source file. *)

(** {2 Out-of-core training}

    Pairs stream through {!Ingest.stream} into a [Pairs]
    {!Corpus.Shard} set; a {!plan} then derives everything
    {!Word2vec.Sgns.train_stream} needs from the finished set —
    vocabularies, post-filter shard sizes, and the per-shard pair
    loader. Every piece is a deterministic function of the set, so a
    resumed run rebuilds the exact state of the run that checkpointed. *)

val extract_pair_shards :
  ?pool:Parallel.pool ->
  ?batch:int ->
  ?records_per_shard:int ->
  lang:Lang.t ->
  mode:mode ->
  dir:string ->
  (string * string) list ->
  Corpus.Shard.set * Ingest.report
(** Extract (word, context) pairs file by file into a shard set under
    [dir]; peak memory is one ingestion batch plus one shard buffer.
    Same fault isolation as {!run}'s collection phase. *)

type plan = {
  plan_set : Corpus.Shard.set;
  plan_words : Word2vec.Vocab.t;  (** over words at [min_count] *)
  plan_contexts : Word2vec.Vocab.t;
  plan_sizes : int array;
      (** pairs per shard surviving the [min_count] filter — the
          [shard_sizes] {!Word2vec.Sgns.train_stream} wants *)
}

val plan_of_set : ?min_count:int -> Corpus.Shard.set -> plan
(** Count both sides of every pair (one streaming pass), build both
    vocabularies over the set's string table, and measure the
    post-filter shard sizes (a second pass). Raises [Invalid_argument]
    on a non-[Pairs] set. *)

val plan_pairs : plan -> int -> int array
(** Load shard [s] as vocab-id pairs, dropping pairs with a filtered
    side — exactly {!Word2vec.Sgns.train}'s in-memory filter. Returns
    [plan_sizes.(s)] pairs, flat as {!Word2vec.Sgns.train_stream}
    reads them (word, context, word, context, ...), identical on every
    call. *)

type result = {
  summary : Metrics.summary;
  model : Word2vec.Sgns.t;
  train_skips : Ingest.report;  (** what the training corpus lost *)
  test_skips : Ingest.report;  (** what the test corpus lost *)
}

val run :
  ?pool:Parallel.pool ->
  ?parallel_mode:Word2vec.Sgns.parallel_mode ->
  ?sgns_config:Word2vec.Sgns.config ->
  lang:Lang.t ->
  mode:mode ->
  train:(string * string) list ->
  test:(string * string) list ->
  unit ->
  result
(** [pool] opts SGNS *training* into sharded parallel epochs under
    [parallel_mode] (see {!Word2vec.Sgns.train}); pair collection
    always fans out over the ambient shared pool, which never changes
    its results. *)
