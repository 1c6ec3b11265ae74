type mode =
  | Paths of Graphs.repr
  | Path_neighbors of Astpath.Config.t
  | Linear_tokens of int

let mode_name = function
  | Paths _ -> "AST paths"
  | Path_neighbors _ -> "path-neighbors, no-paths"
  | Linear_tokens w -> Printf.sprintf "linear token-stream (window %d)" w

let self_placeholder = "<SELF>"

(* Locals of a tree: binder id -> name, excluding definition names. *)
let locals_of idx ~def_labels =
  let tbl = Hashtbl.create 16 in
  let defs = Hashtbl.create 4 in
  Array.iter
    (fun leaf ->
      match Ast.Index.sort idx leaf with
      | Some (Ast.Tree.Var i) ->
          if List.mem (Ast.Index.label idx leaf) def_labels then
            Hashtbl.replace defs i ();
          if not (Hashtbl.mem tbl i) then
            Hashtbl.add tbl i
              (Option.value (Ast.Index.value idx leaf) ~default:"?")
      | _ -> ())
    (Ast.Index.leaves idx);
  Hashtbl.iter (fun i () -> Hashtbl.remove tbl i) defs;
  tbl

let path_pairs ~hide_path ~(repr : Graphs.repr) lang src =
  let idx = Ast.Index.build (lang.Lang.parse_tree src) in
  let locals = locals_of idx ~def_labels:lang.Lang.def_labels in
  let binder_of leaf =
    match Ast.Index.sort idx leaf with
    | Some (Ast.Tree.Var i) when Hashtbl.mem locals i -> Some i
    | _ -> None
  in
  (* Lexical-substitution setting (Section 3.2): every context word is
     observed except the target element itself — another occurrence of
     the *same* element inside a context is masked, everything else
     (including other variables) keeps its value. *)
  let value_of ~target leaf =
    match binder_of leaf with
    | Some b when b = target -> self_placeholder
    | _ -> Option.value (Ast.Index.value idx leaf) ~default:"?"
  in
  let rng = Random.State.make [| repr.Graphs.seed |] in
  let per_binder = Hashtbl.create 16 in
  let record binder ctx =
    let cur = Option.value (Hashtbl.find_opt per_binder binder) ~default:[] in
    Hashtbl.replace per_binder binder (ctx :: cur)
  in
  (* Streamed off the extraction iterator; leaf occurrences are
     downsampled before pair enumeration (paper §5.5). *)
  let rel_memo = Astpath.Abstraction.memo repr.Graphs.abstraction in
  Astpath.Extract.iter_all
    ~downsample:(rng, repr.Graphs.downsample_p)
    idx repr.Graphs.config
    (fun (c : Astpath.Context.t) ->
      let ctx_string ~target (c : Astpath.Context.t) other =
        if hide_path then value_of ~target other
        else
          Astpath.Abstraction.apply_memo rel_memo c
          ^ "\x1f" ^ value_of ~target other
      in
      (match binder_of c.Astpath.Context.start_node with
      | Some b -> record b (ctx_string ~target:b c c.Astpath.Context.end_node)
      | None -> ());
      match binder_of c.Astpath.Context.end_node with
      | Some b ->
          let r = Astpath.Context.reverse c in
          record b (ctx_string ~target:b r r.Astpath.Context.end_node)
      | None -> ());
  Hashtbl.fold
    (fun binder ctxs acc -> (Hashtbl.find locals binder, List.rev ctxs) :: acc)
    per_binder []

let token_pairs ~window lang src =
  let tokens = Array.of_list (lang.Lang.tokens src) in
  (* Which token strings are local names in this file? *)
  let idx = Ast.Index.build (lang.Lang.parse_tree src) in
  let locals = locals_of idx ~def_labels:lang.Lang.def_labels in
  let local_names = Hashtbl.create 16 in
  Hashtbl.iter (fun _ name -> Hashtbl.replace local_names name ()) locals;
  let masked ~target i =
    if String.equal tokens.(i) target then self_placeholder else tokens.(i)
  in
  let per_name = Hashtbl.create 16 in
  Array.iteri
    (fun i tok ->
      if Hashtbl.mem local_names tok then begin
        let ctxs = ref [] in
        for off = -window to window do
          let j = i + off in
          if off <> 0 && j >= 0 && j < Array.length tokens then
            (* Original word2vec: an unpositioned bag of window words. *)
            ctxs := masked ~target:tok j :: !ctxs
        done;
        let cur = Option.value (Hashtbl.find_opt per_name tok) ~default:[] in
        Hashtbl.replace per_name tok (List.rev !ctxs @ cur)
      end)
    tokens;
  Hashtbl.fold (fun name ctxs acc -> (name, ctxs) :: acc) per_name []

let pairs_of_source ~lang ~mode src =
  match mode with
  | Paths repr -> path_pairs ~hide_path:false ~repr lang src
  | Path_neighbors config ->
      let repr = Graphs.default_repr ~config () in
      path_pairs ~hide_path:true ~repr lang src
  | Linear_tokens window -> token_pairs ~window lang src

(* ---------- Out-of-core: training pairs on disk ---------- *)

let extract_pair_shards ?pool ?batch ?records_per_shard ~lang ~mode ~dir
    sources =
  let w =
    Corpus.Shard.create_writer ~dir ~kind:Corpus.Shard.Pairs ?records_per_shard
      ()
  in
  let report =
    Ingest.stream ?pool ?batch
      ~f:(fun _name src -> pairs_of_source ~lang ~mode src)
      ~emit:(fun elems ->
        List.iter
          (fun (name, ctxs) ->
            let wid = Corpus.Shard.intern w name in
            List.iter
              (fun c -> Corpus.Shard.add_pair w wid (Corpus.Shard.intern w c))
              ctxs)
          elems)
      sources
  in
  (Corpus.Shard.finish w, report)

type plan = {
  plan_set : Corpus.Shard.set;
  plan_words : Word2vec.Vocab.t;
  plan_contexts : Word2vec.Vocab.t;
  plan_sizes : int array;
}

(* Decode one shard and drop pairs whose word or context fell to
   min_count — the exact filter [Sgns.prepare] applies in memory, so
   the streamed pair sequence matches what the in-memory trainer would
   see. *)
let plan_pairs plan s =
  let raw = Corpus.Shard.pairs plan.plan_set s in
  let out = Array.make (2 * Array.length raw) 0 in
  let k = ref 0 in
  Array.iter
    (fun (a, b) ->
      let va = Word2vec.Vocab.of_interned plan.plan_words a
      and vb = Word2vec.Vocab.of_interned plan.plan_contexts b in
      if va >= 0 && vb >= 0 then begin
        out.(2 * !k) <- va;
        out.((2 * !k) + 1) <- vb;
        incr k
      end)
    raw;
  if 2 * !k = Array.length out then out else Array.sub out 0 (2 * !k)

(* Counting is per interned id over the set's (already resident)
   string table — exact, one int-array slot per distinct string — then
   both vocabularies share that table, so the remap in [plan_pairs] is
   two array lookups per pair, no string hashing. Everything is
   derived deterministically from the shard set, so a resumed run
   rebuilds vocabularies and shard sizes identical to the saving
   run's. *)
let plan_of_set ?(min_count = 1) set =
  (match Corpus.Shard.kind set with
  | Corpus.Shard.Pairs -> ()
  | k ->
      invalid_arg
        ("W2v_task.plan_of_set: a " ^ Corpus.Shard.kind_name k ^ " shard set"));
  let n = Corpus.Shard.n_strings set in
  let wc = Array.make (max n 1) 0 and cc = Array.make (max n 1) 0 in
  Corpus.Shard.fold_pairs set ~init:() ~f:(fun () a b ->
      wc.(a) <- wc.(a) + 1;
      cc.(b) <- cc.(b) + 1);
  let tab = Corpus.Shard.strtab set in
  let words = Word2vec.Vocab.of_strtab ~min_count tab (Array.sub wc 0 n) in
  let contexts = Word2vec.Vocab.of_strtab ~min_count tab (Array.sub cc 0 n) in
  let plan =
    { plan_set = set; plan_words = words; plan_contexts = contexts;
      plan_sizes = [||] }
  in
  let plan_sizes =
    Array.init (Corpus.Shard.n_shards set) (fun s ->
        Array.length (plan_pairs plan s) / 2)
  in
  { plan with plan_sizes }

type result = {
  summary : Metrics.summary;
  model : Word2vec.Sgns.t;
  train_skips : Ingest.report;
  test_skips : Ingest.report;
}

let run ?pool ?parallel_mode ?(sgns_config = Word2vec.Sgns.default_config)
    ~lang ~mode ~train ~test () =
  let collect label sources =
    let per_file, report =
      Ingest.run ~f:(fun _name src -> pairs_of_source ~lang ~mode src) sources
    in
    Ingest.log ~label:(lang.Lang.name ^ " w2v " ^ label) report;
    (List.concat per_file, report)
  in
  let train_elems, train_skips = collect "train" train in
  let train_pairs =
    List.concat_map
      (fun (name, ctxs) -> List.map (fun c -> (name, c)) ctxs)
      train_elems
  in
  let model =
    Word2vec.Sgns.train ?pool ?mode:parallel_mode ~config:sgns_config
      train_pairs
  in
  let test_elems, test_skips = collect "test" test in
  let eval =
    List.filter_map
      (fun (gold, ctxs) ->
        match Word2vec.Sgns.predict model ctxs with
        | (pred, _) :: _ -> Some (gold, pred)
        | [] -> None)
      test_elems
  in
  { summary = Metrics.summarize eval; model; train_skips; test_skips }
