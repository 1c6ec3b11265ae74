type repr = {
  config : Astpath.Config.t;
  abstraction : Astpath.Abstraction.t;
  downsample_p : float;
  use_unary : bool;
  statement_local : bool;
  seed : int;
}

let default_repr ?(config = Astpath.Config.default) () =
  {
    config;
    abstraction = Astpath.Abstraction.Full;
    downsample_p = 1.0;
    use_unary = true;
    statement_local = false;
    seed = 1;
  }

type policy = Locals | Methods of { internal_only : bool }

let type_tag_prefix = "type:"

(* Control-flow / declaration labels across all four lowerings; a path
   whose hierarchically-highest node is one of these spans more than a
   single simple statement. *)
let control_label lbl =
  let has sub =
    let n = String.length sub and m = String.length lbl in
    let rec go i = i + n <= m && (String.sub lbl i n = sub || go (i + 1)) in
    go 0
  in
  List.exists has
    [
      "If"; "While"; "For"; "Do"; "Try"; "Else"; "Catch"; "Finally"; "Except";
      "Module"; "Toplevel"; "Defun"; "Function"; "Method"; "Class";
      "CompilationUnit"; "Namespace"; "orelse"; "finalbody";
    ]

let keep_context repr (c : Astpath.Context.t) =
  (not repr.statement_local)
  || not (control_label (Astpath.Path.top (Astpath.Context.path c)))

(* Element identity of a leaf: locals by binder, other names and
   literals by value; keyword terminals are not program elements. *)
type elem = Binder of int | Named of string | Literal of string

let elem_of idx leaf =
  match Ast.Index.sort idx leaf with
  | Some (Ast.Tree.Var i) -> Some (Binder i)
  | Some Ast.Tree.Name ->
      Option.map (fun v -> Named v) (Ast.Index.value idx leaf)
  | Some Ast.Tree.Lit ->
      Option.map (fun v -> Literal v) (Ast.Index.value idx leaf)
  | Some Ast.Tree.Kw | None -> None

(* The two outputs graph construction feeds: the string graph
   (training, shard files, [build]/[build_cached]) and the encoded
   graph (serving). Nodes are numbered in [node] call order. *)
type 'g sink = {
  node : gold:string -> unknown:bool -> unit;
  unary : n:int -> Astpath.Context.t -> unit;
  pairwise : a:int -> b:int -> Astpath.Context.t -> unit;
  finish : unit -> 'g;
}

let graph_sink repr =
  let nodes_rev = ref [] and factors = ref [] and next = ref 0 in
  let rel_memo = Astpath.Abstraction.memo repr.abstraction in
  let rel c = Astpath.Abstraction.apply_memo rel_memo c in
  {
    node =
      (fun ~gold ~unknown ->
        let kind = if unknown then `Unknown else `Known in
        nodes_rev := { Crf.Graph.id = !next; gold; kind } :: !nodes_rev;
        incr next);
    unary = (fun ~n c -> factors := Crf.Graph.unary ~n ~rel:(rel c) :: !factors);
    pairwise =
      (fun ~a ~b c -> factors := Crf.Graph.pairwise ~a ~b ~rel:(rel c) :: !factors);
    finish =
      (fun () ->
        Crf.Graph.make ~nodes:(List.rev !nodes_rev) ~factors:(List.rev !factors));
  }

(* Path id -> relation id of one model, for the path ids of one
   extraction table: each distinct path is rendered and looked up once.
   -1 = a relation the model has never seen, -2 = not looked up yet. *)
type rels = {
  syms : Crf.Symbols.t;
  ab : Astpath.Abstraction.t;
  mutable ids : int array;
}

let rels ?reuse repr fast =
  let syms = Crf.Fast.symbols fast in
  match reuse with
  | Some r when r.syms == syms && r.ab = repr.abstraction -> r
  | _ -> { syms; ab = repr.abstraction; ids = Array.make 64 (-2) }

let rel_id r (c : Astpath.Context.t) =
  let pid = c.Astpath.Context.path_id in
  if pid >= Array.length r.ids then begin
    let ids = Array.make (max (2 * Array.length r.ids) (pid + 1)) (-2) in
    Array.blit r.ids 0 ids 0 (Array.length r.ids);
    r.ids <- ids
  end;
  let v = Array.unsafe_get r.ids pid in
  if v <> -2 then v
  else begin
    let s = Astpath.Abstraction.apply r.ab (Astpath.Context.path c) in
    let v = Option.value (Crf.Symbols.find_rel r.syms s) ~default:(-1) in
    r.ids.(pid) <- v;
    v
  end

let egraph_sink rels =
  let b = Crf.Fast.Builder.create rels.syms in
  {
    node = (fun ~gold ~unknown -> Crf.Fast.Builder.node b ~gold ~unknown);
    unary = (fun ~n c -> Crf.Fast.Builder.unary b ~n ~rel:(rel_id rels c));
    pairwise =
      (fun ~a ~b:b' c -> Crf.Fast.Builder.pairwise b ~a ~b:b' ~rel:(rel_id rels c));
    finish = (fun () -> Crf.Fast.Builder.finish b);
  }

(* Graph construction over a prebuilt index and an abstract context
   iterator — the one body behind every builder: it decides the nodes,
   the unknowns and which contexts become which factors, and [sink]
   renders them as a string graph or an encoded one. Everything
   downstream of the iterator is identical, so a cache that emits the
   from-scratch stream yields the identical graph. *)
let build_over repr ~def_labels ~policy idx ~iter sink =
  let leaves = Ast.Index.leaves idx in
  (* Which binders / named groups contain a definition-name leaf? *)
  let def_elems = Hashtbl.create 8 in
  Array.iter
    (fun leaf ->
      if List.mem (Ast.Index.label idx leaf) def_labels then
        match elem_of idx leaf with
        | Some e -> Hashtbl.replace def_elems e ()
        | None -> ())
    leaves;
  let is_def e = Hashtbl.mem def_elems e in
  let is_unknown e =
    match policy with
    | Locals -> ( match e with Binder _ -> not (is_def e) | _ -> false)
    | Methods _ -> is_def e
  in
  let internal_only =
    match policy with Methods { internal_only } -> internal_only | Locals -> false
  in
  (* Assign node ids; record each leaf's node (-1 = none) and which
     nodes are unknown. *)
  let elem_ids = Hashtbl.create 64 in
  let unknown = Array.make (Array.length leaves) false in
  let next = ref 0 in
  let node_of_elem e gold =
    match Hashtbl.find_opt elem_ids e with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        Hashtbl.add elem_ids e id;
        unknown.(id) <- is_unknown e;
        sink.node ~gold ~unknown:unknown.(id);
        id
  in
  let leaf_node = Array.make (Ast.Index.size idx) (-1) in
  Array.iter
    (fun leaf ->
      match elem_of idx leaf with
      | None -> ()
      | Some e ->
          (* Internal-only method graphs drop invocation occurrences of
             the unknown method names (they would leak the label). *)
          let drop =
            internal_only && is_def e
            && not (List.mem (Ast.Index.label idx leaf) def_labels)
          in
          if not drop then begin
            let gold =
              Option.value (Ast.Index.value idx leaf) ~default:"?"
            in
            leaf_node.(leaf) <- node_of_elem e gold
          end)
    leaves;
  (* Path-contexts -> factors, streamed straight off the extraction
     iterator: contexts are never materialized as a list. *)
  iter (fun (c : Astpath.Context.t) ->
      if keep_context repr c then
        let a = leaf_node.(c.Astpath.Context.start_node)
        and b = leaf_node.(c.Astpath.Context.end_node) in
        if a >= 0 && b >= 0 then begin
          if a = b then begin
            if repr.use_unary && unknown.(a) then sink.unary ~n:a c
          end
          else if unknown.(a) || unknown.(b) then sink.pairwise ~a ~b c
        end
        else if a >= 0 && unknown.(a) && repr.use_unary then
          (* Semi-path (leaf -> ancestor nonterminal): a unary factor —
             less expressive than a leafwise path but it recurs across
             programs even when full paths do not (Section 5:
             "semi-paths provide more generalization"). *)
          sink.unary ~n:a c);
  sink.finish ()

let scratch repr ~def_labels ~policy tree sink =
  let idx = Ast.Index.build tree in
  build_over repr ~def_labels ~policy idx
    ~iter:(fun f ->
      (* Leaf occurrences are downsampled before pair enumeration
         (paper §5.5) so dropped occurrences pay no extraction cost. *)
      let rng = Random.State.make [| repr.seed |] in
      Astpath.Extract.iter_all
        ~downsample:(rng, repr.downsample_p)
        idx repr.config f)
    sink

(* The cache contract covers the full (undownsampled) stream only; a
   downsampling repr falls back to from-scratch extraction. The serve
   path uses [default_repr] (p = 1.0), which at p = 1.0 draws nothing
   and emits the full stream — so the cached and plain builds
   construct the identical graph. *)
let cached repr ~def_labels ~policy ~cache tree sink =
  let idx = Astpath.Cache.index cache tree in
  build_over repr ~def_labels ~policy idx
    ~iter:(fun f -> Astpath.Extract.iter_all_cached ~cache idx repr.config f)
    sink

let build repr ~def_labels ~policy tree =
  scratch repr ~def_labels ~policy tree (graph_sink repr)

let build_cached repr ~def_labels ~policy ~cache tree =
  if repr.downsample_p < 1.0 then build repr ~def_labels ~policy tree
  else cached repr ~def_labels ~policy ~cache tree (graph_sink repr)

let encode repr ~def_labels ~policy fast tree =
  scratch repr ~def_labels ~policy tree (egraph_sink (rels repr fast))

let encode_cached repr ~def_labels ~policy ~cache ~rels:r tree =
  if r.ab <> repr.abstraction then
    invalid_arg "Graphs.encode_cached: rels made for another abstraction";
  if repr.downsample_p < 1.0 then
    (* from-scratch extraction has its own path ids: a fresh memo *)
    scratch repr ~def_labels ~policy tree
      (egraph_sink { r with ids = Array.make 64 (-2) })
  else cached repr ~def_labels ~policy ~cache tree (egraph_sink r)

let full_type_graph repr tree =
  let idx = Ast.Index.build tree in
  let leaves = Ast.Index.leaves idx in
  (* Unknown nodes: tagged expression nonterminals. *)
  let nodes_rev = ref [] in
  let next = ref 0 in
  let add_node gold kind =
    let id = !next in
    incr next;
    nodes_rev := { Crf.Graph.id; gold; kind } :: !nodes_rev;
    id
  in
  let targets = ref [] in
  for i = 0 to Ast.Index.size idx - 1 do
    match Ast.Index.tag idx i with
    | Some tag
      when String.length tag > String.length type_tag_prefix
           && String.sub tag 0 (String.length type_tag_prefix) = type_tag_prefix
      ->
        let ty =
          String.sub tag (String.length type_tag_prefix)
            (String.length tag - String.length type_tag_prefix)
        in
        targets := (i, add_node ty `Unknown) :: !targets
    | _ -> ()
  done;
  let targets = List.rev !targets in
  (* Known nodes: leaf elements (variable names are given here). *)
  let elem_ids = Hashtbl.create 64 in
  let leaf_node = Hashtbl.create 64 in
  Array.iter
    (fun leaf ->
      match elem_of idx leaf with
      | None -> ()
      | Some e ->
          let id =
            match Hashtbl.find_opt elem_ids e with
            | Some id -> id
            | None ->
                let gold = Option.value (Ast.Index.value idx leaf) ~default:"?" in
                let id = add_node gold `Known in
                Hashtbl.add elem_ids e id;
                id
          in
          Hashtbl.replace leaf_node leaf id)
    leaves;
  let rng = Random.State.make [| repr.seed |] in
  let factors = ref [] in
  let tab = Astpath.Context.Tab.create idx in
  let rel_memo = Astpath.Abstraction.memo repr.abstraction in
  List.iter
    (fun (target, tnode) ->
      let contexts = Astpath.Extract.leaf_to_node ~tab idx repr.config ~target in
      let contexts = Astpath.Downsample.keep rng ~p:repr.downsample_p contexts in
      List.iter
        (fun (c : Astpath.Context.t) ->
          if keep_context repr c then
            match Hashtbl.find_opt leaf_node c.Astpath.Context.start_node with
            | Some lnode ->
                let rel = Astpath.Abstraction.apply_memo rel_memo c in
                factors := Crf.Graph.pairwise ~a:lnode ~b:tnode ~rel :: !factors
            | None -> ())
        contexts)
    targets;
  Crf.Graph.make ~nodes:(List.rev !nodes_rev) ~factors:(List.rev !factors)
