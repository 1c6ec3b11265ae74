(** Candidate generation for MAP inference.

    Nice2Predict-style pruning: instead of scoring the full label
    vocabulary at every node, inference considers labels that
    co-occurred in training with the node's unary relations, or with a
    (relation, known-neighbor-label) pair, topped up with the globally
    most frequent labels.

    Counts are stored per interned label/relation id (see {!Symbols});
    {!Fast} shares the same table so candidate ids flow into the
    int-keyed engine without re-interning. The string-returning
    functions resolve through the table and exist for the string-side
    reference engine and serialization.

    A table has two forms. Counting ({!create}, {!count_graph}) fills
    nested hash tables, the tally. The first query freezes it into the
    read form — flat (key, label, count) runs sorted by (key, label),
    each with an open-addressed index from key to first entry, and each
    candidate label's rank in label-string order — and drops the
    tally. Every query reads the frozen form, and a loaded model
    ({!of_ids}, {!of_entries}) is built frozen. *)

type t

val build : ?symbols:Symbols.t -> Graph.t list -> t
(** Count co-occurrences over gold-labelled training graphs, interning
    gold labels and relations into [symbols] (fresh when omitted) in
    corpus order. *)

val create : ?symbols:Symbols.t -> unit -> t
(** An empty table, for streaming construction: feed graphs through
    {!count_graph} as they come off disk. [build] = [create] + a fold
    of {!count_graph}, so a streamed build over the same graphs in the
    same order is identical. *)

val count_graph : t -> Graph.t -> unit
(** Fold one graph's gold co-occurrences into the table — the
    out-of-core counting pass's unit. Count everything before the first
    query: a query freezes the table, and counting into a frozen table
    raises [Invalid_argument]. The first query mutates the table, so
    make it before sharing the table across domains (the trainers and
    {!Fast.prepare} do). *)

val symbols : t -> Symbols.t

val num_labels : t -> int
(** Distinct labels of unknown nodes in training. *)

val global_top : t -> int -> string list
(** The [k] most frequent unknown-node labels in training; ties break
    alphabetically, so the ranking is hash-order independent. *)

val global_top_ids : t -> int -> int list

val for_node :
  t -> Graph.t -> Graph.factor list -> int -> max:int -> string list
(** [for_node t g touching n ~max] — candidate labels for node [n],
    most promising first, deduplicated, at most [max]. Only [`Known]
    neighbors contribute pairwise evidence (gold labels of unknown
    neighbors are never consulted). Never empty if training data was
    nonempty. *)

val ids_for_node :
  t -> Graph.t -> Graph.factor list -> int -> max:int -> int list
(** {!for_node} as interned label ids (same labels, same order). *)

type slate
(** A reusable per-label scoring buffer for batch candidate
    generation: flat arrays indexed by interned label id, cleared in
    O(labels touched) via an epoch stamp. One slate serves one caller
    at a time ({!Fast} keeps one in its reused ICM arena); never share
    one across domains. *)

val slate : unit -> slate

(** Id-level slate protocol, for callers (like {!Fast}) that already
    hold resolved rel and gold-label ids: [slate_begin], then any mix
    of [merge_*_id], then [slate_ranked]. Produces exactly what
    {!ids_for_node} would for the same evidence — merge order does not
    matter, ranking is a strict total order (count desc, label string
    asc). *)

val slate_begin : slate -> t -> unit

val merge_unary_id : slate -> t -> int -> unit
(** Merge the co-occurrence counts of a unary relation id. *)

val merge_pairwise_id : slate -> t -> dir:int -> rel:int -> other:int -> unit
(** Merge counts for a pairwise factor: [dir] 0 when the scored node
    is the [a] endpoint, 1 when it is [b]; [other] is the interned
    gold label of the known neighbor. *)

val slate_ranked : slate -> t -> max:int -> int array
(** Rank merged evidence and top up with globally frequent labels not
    already ranked, to at most [max] labels (a fresh array). *)

val label_count : t -> string -> int

(** {2 Serialization support} *)

type entry =
  | E_global of string * int  (** label, count *)
  | E_unary of string * string * int  (** rel, label, count *)
  | E_pairwise of string * string * int  (** packed key, label, count *)

val entries : t -> entry list

val of_entries : ?symbols:Symbols.t -> entry list -> t
(** Rebuild from entries in any order (repeats add up), interning into
    [symbols] — pass the model's table so restored candidate ids match
    restored weight keys. Raises [Failure] on a malformed pairwise
    key. *)

val dump_ids : t -> int array * int array * int array
(** The frozen runs as raw interned ids: global (label, count) pairs,
    unary (rel, label, count) and pairwise (packed key, label, count)
    triples, flattened, each sorted by (key, label) — a canonical form,
    so the binary writers are byte-deterministic. The arrays are the
    table's own: read, don't write. *)

val of_ids :
  symbols:Symbols.t ->
  global:int array ->
  unary:int array ->
  pairwise:int array ->
  t
(** Inverse of {!dump_ids} against an already-restored symbol table;
    the arrays become the table's runs. Raises [Failure] naming the
    section ([cand-global], [cand-unary], [cand-pw]) if an id falls
    outside the table, a pairwise key's direction is not 0 or 1, or
    entries are not strictly increasing by (key, label) — a mangled
    file surfaces as a corrupt-model diagnostic, not an array error or
    a double count. *)
