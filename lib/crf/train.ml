type config = {
  iterations : int;
  inference : Inference.config;
  seed : int;
  averaged : bool;
  init : Fast.init_style;
  trainer : Fast.trainer;
  engine : Fast.engine;
}

let default_config =
  {
    iterations = 6;
    inference = Inference.default_config;
    seed = 42;
    averaged = true;
    init = Fast.Log_counts;
    trainer = Fast.Pseudolikelihood;
    engine = Fast.Incremental;
  }

type model = {
  weights : Model.t Lazy.t;
      (* Decoding the int-keyed tables to string features costs more
         than the entire binary load; inference never touches it, so
         it is deferred until something actually inspects weights. *)
  candidates : Candidates.t Lazy.t;
      (* Same reason: a mapped load defers parsing (and checksumming)
         the candidate sections to first use; the trainer already has
         them in hand. *)
  config : config;
  fast : Fast.model;
}

let fast_config config =
  {
    Fast.default_config with
    Fast.max_candidates = config.inference.Inference.max_candidates;
    max_passes = config.inference.Inference.max_passes;
    seed = config.inference.Inference.seed;
    iterations = config.iterations;
    averaged = config.averaged;
    init = config.init;
    trainer = config.trainer;
    engine = config.engine;
  }

let train ?pool ?(config = default_config) graphs =
  let candidates = Candidates.build graphs in
  let fast = Fast.train ?pool (fast_config config) candidates graphs in
  {
    weights = lazy (Fast.export_weights fast);
    candidates = lazy candidates;
    config;
    fast;
  }

(* Out-of-core [train]: candidate counting and every training pass
   stream shard by shard. The candidate table is rebuilt from the
   shards on every call (fresh or resumed) rather than checkpointed:
   counting is one cheap pass, and rebuilding against the restored
   symbol table re-interns the same strings in the same order, so all
   ids — and therefore all packed weight keys — line up with the
   checkpoint by construction. *)
let train_of_shards ?pool ?(config = default_config) ~n_shards
    ~graphs_of_shard ?from ?on_shard () =
  let symbols =
    match from with Some (m, _, _) -> Some (Fast.symbols m) | None -> None
  in
  let candidates = Candidates.create ?symbols () in
  for s = 0 to n_shards - 1 do
    List.iter (Candidates.count_graph candidates) (graphs_of_shard s)
  done;
  let fast =
    Fast.train_stream ?pool (fast_config config) candidates ~n_shards
      ~graphs_of_shard ?from ?on_shard ()
  in
  {
    weights = lazy (Fast.export_weights fast);
    candidates = lazy candidates;
    config;
    fast;
  }

let candidates model = Fast.prepare model.fast model.candidates

let predict model g =
  Fast.predict (fast_config model.config) (candidates model) model.fast g

let predict_batch ?pool model graphs =
  Fast.predict_batch ?pool (fast_config model.config) (candidates model)
    model.fast graphs

let predict_encoded ?pool model egs =
  Fast.predict_encoded ?pool (fast_config model.config) (candidates model)
    model.fast egs

let top_k model g ~node ~k =
  Fast.top_k (fast_config model.config) (candidates model) model.fast g ~node
    ~k

let accuracy ?pool model graphs =
  let preds = predict_batch ?pool model graphs in
  let correct = ref 0 and total = ref 0 in
  List.iter2
    (fun g pred ->
      let gold = Graph.gold_assignment g in
      List.iter
        (fun n ->
          incr total;
          if String.equal pred.(n) gold.(n) then incr correct)
        (Graph.unknown_ids g))
    graphs preds;
  if !total = 0 then 0. else float_of_int !correct /. float_of_int !total

let oov_rate model graphs =
  let oov = ref 0 and total = ref 0 in
  List.iter
    (fun g ->
      let gold = Graph.gold_assignment g in
      List.iter
        (fun n ->
          incr total;
          if Candidates.label_count (candidates model) gold.(n) = 0 then incr oov)
        (Graph.unknown_ids g))
    graphs;
  if !total = 0 then 0. else float_of_int !oov /. float_of_int !total
