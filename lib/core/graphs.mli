(** Building CRF factor graphs from generic ASTs — the bridge between
    the path representation and the learners.

    Program elements become CRF nodes exactly as in Nice2Predict:
    occurrences of the same local variable (same binder) merge into one
    node, as do occurrences of the same external name or constant.
    Path-contexts become factors: a path between occurrences of two
    distinct elements is a pairwise factor whose relation is the
    abstracted path; a path between two occurrences of the *same*
    element becomes a unary factor. *)

type repr = {
  config : Astpath.Config.t;
  abstraction : Astpath.Abstraction.t;
  downsample_p : float;  (** Keep-probability for path-context occurrences. *)
  use_unary : bool;  (** The paper's +1.5% unary-factor extension. *)
  statement_local : bool;
      (** UnuglifyJS-style restriction: only paths that stay inside a
          single simple statement (no control-flow node on the path) —
          the baseline of Raychev et al. that Fig. 3 shows is weaker. *)
  seed : int;
}

val default_repr : ?config:Astpath.Config.t -> unit -> repr

type policy =
  | Locals  (** Variable-name task: locals/params unknown, rest known. *)
  | Methods of { internal_only : bool }
      (** Method-name task: definition names unknown (merged with their
          same-file invocations unless [internal_only]), all other
          names — including locals — known. *)

val build : repr -> def_labels:string list -> policy:policy -> Ast.Tree.t -> Crf.Graph.t

val build_cached :
  repr ->
  def_labels:string list ->
  policy:policy ->
  cache:Astpath.Cache.t ->
  Ast.Tree.t ->
  Crf.Graph.t
(** [build] through a session's incremental extraction cache: the
    index is built over the cache's shared label table and contexts
    stream through {!Astpath.Extract.iter_all_cached}, so unchanged
    subtrees of a previously extracted buffer replay instead of
    re-extracting. The resulting graph is identical to {!build}'s when
    [repr.downsample_p = 1.0] (the cached stream is byte-identical to
    the from-scratch one); a downsampling repr falls back to {!build}
    — the cache contract covers the full stream only. *)

(** {2 Encoded graphs}

    The request path: the same nodes and factors as {!build}, compiled
    straight from extraction output against a model's symbol table —
    no string graph, no relation strings per occurrence, and nothing
    written to the model. [Crf.Fast.encode m (build ...)] and
    [encode ... m] are equal, so they predict alike. *)

type rels
(** Path id → relation id memo of one model, for the path ids of one
    extraction table: each distinct path is rendered and looked up once
    per table, not once per occurrence. *)

val rels : ?reuse:rels -> repr -> Crf.Fast.model -> rels
(** A memo against [model]'s symbol table and [repr]'s abstraction.
    [reuse] comes back unchanged when it was made for the same table
    and abstraction — an edit session keeps its memo across edits (its
    cache keeps path ids stable) and gets a fresh one after its model
    is reloaded, evicted or revived. *)

val encode :
  repr ->
  def_labels:string list ->
  policy:policy ->
  Crf.Fast.model ->
  Ast.Tree.t ->
  Crf.Fast.egraph
(** {!build}, encoded against the model. *)

val encode_cached :
  repr ->
  def_labels:string list ->
  policy:policy ->
  cache:Astpath.Cache.t ->
  rels:rels ->
  Ast.Tree.t ->
  Crf.Fast.egraph
(** {!build_cached}, encoded against the model [rels] was made for.
    [rels] must belong to [cache]'s extraction table: one memo per
    cache. Raises [Invalid_argument] if it was made for another
    abstraction than [repr]'s. *)

val full_type_graph : repr -> Ast.Tree.t -> Crf.Graph.t
(** Full-type task over a typed tree (tags ["type:..."]): each tagged
    expression nonterminal is an unknown node whose factors are its
    leaf→nonterminal paths. *)

val type_tag_prefix : string
