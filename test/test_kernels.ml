(* Golden-equivalence suite for the dense numeric kernels (PR 4):

   - incremental ICM (score cache + dirty worklist) must be
     *byte-identical* to the full-rescore reference — MAP assignments,
     trained weights, and the string-side Inference sweep alike;
   - the flat-matrix SGNS kernel under the exact sigmoid must be
     bitwise-identical to the kept nested-array Reference trainer,
     sequentially and through the domain pool;
   - the sigmoid LUT must stay inside its documented error budget and
     must not change eval-level rankings on planted-cluster data;
   - the C slice kernel, fused steps and fallback loop alike, leaves
     both matrices bit-identical to the pre-fusion kernel kept in
     test/sgns_oracle_stubs.c (qcheck, "kernel_oracle");
   - every trainer (pseudolikelihood perceptron, pseudolikelihood
     gradient, structured), sequentially and on a 2-job pool, gives
     byte-identical weights whether it scores from weight rows
     ([Incremental]) or by per-candidate lookups ([Full_rescore]);
   - a qcheck property pins the Scorer invariant: cached candidate
     scores equal freshly computed node_score after arbitrary flip
     sequences, on a freshly trained model and on a copy-loaded one;
   - the row primitive itself ([Itbl.scatter], through a dense label
     map) writes exactly what per-candidate lookups give, on heap and
     mapped tables and on a heap table whose rows grew with it through
     a rehash; a heap table's rows stay current under updates, new keys
     and rehashes;
     and MAP on serve-style models of all four languages, mapped and
     copied, agrees between row fill and full rescoring. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pools = Hashtbl.create 4

let pool ~jobs =
  match Hashtbl.find_opt pools jobs with
  | Some p -> p
  | None ->
      let p = Parallel.create ~jobs () in
      Hashtbl.add pools jobs p;
      p

let () = at_exit (fun () -> Hashtbl.iter (fun _ p -> Parallel.shutdown p) pools)

(* ---------- fixtures ---------- *)

let corpus render ~n ~seed =
  let config = { Corpus.Gen.default with Corpus.Gen.n_files = n; seed } in
  Corpus.Gen.generate_sources config render

let split_of sources =
  let entries =
    List.map (fun (path, source) -> { Corpus.Dataset.path; source }) sources
  in
  let deduped = Corpus.Dataset.dedup entries in
  let s = Corpus.Dataset.split_corpus ~seed:11 deduped in
  let pairs xs =
    List.map (fun e -> (e.Corpus.Dataset.path, e.Corpus.Dataset.source)) xs
  in
  (pairs s.Corpus.Dataset.train, pairs s.Corpus.Dataset.test)

let graphs_fixture render lang ~n ~seed =
  lazy
    (let train, test = split_of (corpus render ~n ~seed) in
     let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
     let graphs_of srcs =
       Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals
         srcs
     in
     (graphs_of train, graphs_of test))

(* Two corpora from different front-ends so the goldens cover distinct
   factor-graph shapes, not one lucky layout. *)
let js_fixture =
  graphs_fixture Corpus.Render.Js Pigeon.Lang.javascript ~n:40 ~seed:92

let java_fixture =
  graphs_fixture Corpus.Render.Java Pigeon.Lang.java ~n:30 ~seed:77

let fixtures = [ ("js", js_fixture); ("java", java_fixture) ]

let quick_pl = { Crf.Train.default_config with Crf.Train.iterations = 3 }

let trainers =
  [
    ("pseudolikelihood", Crf.Fast.Pseudolikelihood);
    ("pl-gradient", Crf.Fast.Pl_gradient);
    ("structured", Crf.Fast.Structured);
  ]

let with_engine cfg engine = { cfg with Crf.Train.engine }

let reconfigure model config = { model with Crf.Train.config }

(* Weight tables in key order — byte-identical models have equal
   sorted dumps (and identical interner contents). *)
let sorted_dump fast =
  let d = Crf.Fast.dump fast in
  let s l = List.sort compare l in
  ( d.Crf.Fast.d_labels,
    d.Crf.Fast.d_rels,
    s d.Crf.Fast.d_pw,
    s d.Crf.Fast.d_un,
    s d.Crf.Fast.d_bias )

(* ---------- incremental ICM vs full rescore ---------- *)

(* Same trained model, MAP inference under both engines: every test
   graph's assignment must match byte for byte. *)
let test_icm_map_golden () =
  List.iter
    (fun (name, fixture) ->
      let train_graphs, test_graphs = Lazy.force fixture in
      let model = Crf.Train.train ~config:quick_pl train_graphs in
      let inc =
        reconfigure model (with_engine quick_pl Crf.Fast.Incremental)
      in
      let full =
        reconfigure model (with_engine quick_pl Crf.Fast.Full_rescore)
      in
      List.iteri
        (fun gi g ->
          check_bool
            (Printf.sprintf "%s graph %d MAP identical" name gi)
            true
            (Crf.Train.predict inc g = Crf.Train.predict full g))
        test_graphs)
      fixtures

(* Every trainer scores from weight rows under [Incremental] — the
   pseudolikelihood passes walk one row per factor column, structured
   training runs the row-filled ICM — and by per-candidate lookups
   under [Full_rescore]. Training under each engine must give
   byte-identical weights (sorted dumps) and predictions, sequentially
   and on a 2-job pool. *)
let test_icm_train_golden () =
  List.iter
    (fun (name, fixture) ->
      let train_graphs, test_graphs = Lazy.force fixture in
      List.iter
        (fun (tname, trainer) ->
          List.iter
            (fun jobs ->
              let pool = if jobs = 1 then None else Some (pool ~jobs) in
              let cfg =
                {
                  Crf.Train.default_config with
                  Crf.Train.iterations = 3;
                  trainer;
                }
              in
              let m_inc =
                Crf.Train.train ?pool
                  ~config:(with_engine cfg Crf.Fast.Incremental)
                  train_graphs
              in
              let m_full =
                Crf.Train.train ?pool
                  ~config:(with_engine cfg Crf.Fast.Full_rescore)
                  train_graphs
              in
              let what = Printf.sprintf "%s %s jobs=%d" name tname jobs in
              check_bool
                (what ^ ": trained weights byte-identical")
                true
                (sorted_dump m_inc.Crf.Train.fast
                = sorted_dump m_full.Crf.Train.fast);
              check_bool
                (what ^ ": predictions identical")
                true
                (List.map (Crf.Train.predict m_inc) test_graphs
                = List.map (Crf.Train.predict m_full) test_graphs))
            [ 1; 2 ])
        trainers)
    fixtures

(* The string-side Inference sweep (used by top_k and the baselines)
   has the same two engines; same byte-identity requirement, with and
   without forced candidates. *)
let test_inference_engine_golden () =
  let train_graphs, test_graphs = Lazy.force js_fixture in
  let model = Crf.Train.train ~config:quick_pl train_graphs in
  let weights = Lazy.force model.Crf.Train.weights
  and cands = (Lazy.force model.Crf.Train.candidates) in
  let run ?force_candidates engine g =
    Crf.Inference.map_assignment ~engine ?force_candidates weights cands g
  in
  List.iteri
    (fun gi g ->
      check_bool
        (Printf.sprintf "graph %d assignments identical" gi)
        true
        (run Crf.Fast.Incremental g = run Crf.Fast.Full_rescore g);
      let gold = Crf.Graph.gold_assignment g in
      let force n = if n mod 2 = 0 then [ gold.(n) ] else [] in
      check_bool
        (Printf.sprintf "graph %d forced-candidate assignments identical" gi)
        true
        (run ~force_candidates:force Crf.Fast.Incremental g
        = run ~force_candidates:force Crf.Fast.Full_rescore g))
    test_graphs

(* ---------- forced-candidate dedup (hashed, same semantics) ---------- *)

let test_forced_dedup () =
  let train_graphs, _ = Lazy.force js_fixture in
  let cands = Crf.Candidates.build train_graphs in
  let g =
    List.find (fun g -> Crf.Graph.num_unknown g > 0) train_graphs
  in
  let touching = Crf.Graph.touching g in
  let cfg = Crf.Inference.default_config in
  let n = List.hd (Crf.Graph.unknown_ids g) in
  let base = Crf.Inference.node_candidates cfg cands g touching n in
  (* Forced list mixing: a label already in base (dropped), new labels
     (appended in order), and a duplicate within forced (kept twice —
     dedup is against base only). *)
  let forced =
    (match base with l :: _ -> [ l ] | [] -> [])
    @ [ "zz_forced_a"; "zz_forced_b"; "zz_forced_a" ]
  in
  let expect = base @ List.filter (fun l -> not (List.mem l base)) forced in
  let got =
    Crf.Inference.node_candidates
      ~force:(fun i -> if i = n then forced else [])
      cfg cands g touching n
  in
  Alcotest.(check (list string)) "dedup spec unchanged" expect got;
  Alcotest.(check (list string))
    "no force, no change" base
    (Crf.Inference.node_candidates
       ~force:(fun _ -> [])
       cfg cands g touching n)

(* ---------- qcheck: Scorer invariant under random flips ---------- *)

let temp_model_file model =
  let path = Filename.temp_file "pigeon-kernels" ".crf" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  Crf.Serialize.save model path;
  path

let load_mapped path =
  match Crf.Serialize.load_mapped path with
  | Ok (m, _) -> m
  | Error d -> Alcotest.failf "load %s: %a" path Lexkit.Diag.pp d

let load_copy path =
  match Crf.Serialize.load path with
  | Ok m -> m
  | Error d -> Alcotest.failf "load %s: %a" path Lexkit.Diag.pp d

(* [prepared = false]: the trained model as training leaves it, with
   the rows its tables kept current through training. [prepared =
   true]: the same model saved, loaded as a heap copy and prepared,
   whose rows grew as the load filled its tables (the golden below
   covers rows over mapped tables). *)
let scorer_fixture ~prepared =
  lazy
    (let train_graphs, test_graphs = Lazy.force js_fixture in
     let model = Crf.Train.train ~config:quick_pl train_graphs in
     let model, cands =
       if prepared then
         let m = load_copy (temp_model_file model) in
         (m, Crf.Train.candidates m)
       else (model, Lazy.force model.Crf.Train.candidates)
     in
     let m = model.Crf.Train.fast in
     (* The test graph with the most unknowns — the richest factor
        neighborhood available. *)
     let g =
       List.fold_left
         (fun best g ->
           if Crf.Graph.num_unknown g > Crf.Graph.num_unknown best then g
           else best)
         (List.hd test_graphs) test_graphs
     in
     let eg = Crf.Fast.encode m g in
     let cand =
       Crf.Fast.candidate_ids Crf.Fast.default_config cands m eg
         ~force_gold:false
     in
     (m, g, eg, cand))

let prop_scorer_matches_node_score ~prepared =
  let fixture = scorer_fixture ~prepared in
  QCheck2.Test.make
    ~name:
      ("kernels: cached scores = fresh node_score after random flips"
      ^ if prepared then " (row fill, prepared model)" else "")
    ~count:60
    QCheck2.Gen.(list_size (int_range 0 40) (pair nat nat))
    (fun flips ->
      let m, g, eg, cand = Lazy.force fixture in
      let unknowns = Crf.Fast.unknown_nodes eg in
      let k = Array.length unknowns in
      let syms = Crf.Fast.symbols m in
      let assignment =
        Array.map
          (fun (nd : Crf.Graph.node) ->
            match Crf.Symbols.find_label syms nd.Crf.Graph.gold with
            | Some l -> l
            | None -> Crf.Symbols.num_labels syms)
          g.Crf.Graph.nodes
      in
      Array.iteri
        (fun i n ->
          if Array.length cand.(i) > 0 then assignment.(n) <- cand.(i).(0))
        unknowns;
      let sc = Crf.Fast.Scorer.create m eg cand assignment in
      let scores_ok () =
        let ok = ref true in
        for i = 0 to k - 1 do
          let n = unknowns.(i) in
          let cached = Array.copy (Crf.Fast.Scorer.scores sc i) in
          let fresh =
            Array.map (Crf.Fast.node_score m eg n assignment) cand.(i)
          in
          if cached <> fresh then ok := false
        done;
        !ok
      in
      k = 0
      || List.for_all
           (fun (a, b) ->
             let i = a mod k in
             (match cand.(i) with
             | [||] -> ()
             | cs ->
                 Crf.Fast.Scorer.set_label sc i cs.(b mod Array.length cs));
             scores_ok ())
           flips
         && scores_ok ())

(* ---------- qcheck: row scatter = per-candidate lookups ---------- *)

(* Keys packed like pairwise weights (a, rel, b) in 18/24/18-bit
   fields, grouped into rows by (rel, b): scattering a row onto any
   candidate list — unsorted, with repeats, with labels the row lacks —
   must write exactly [mult *. get] at every candidate, and adding it
   must add exactly that, for three tables: a heap table with rows
   filled by [set] without a rehash, a mapped one, and a heap table
   that starts at 16 slots with its rows and reaches the same keys
   through random [add]s and [set]s and at least one rehash. *)
let pairwise_rows = [ (42, 18) ]

let prop_rows_match_get =
  QCheck2.Test.make ~name:"kernels: row scatter = per-candidate get"
    ~count:100
    QCheck2.Gen.(
      quad
        (list_size (int_range 0 120)
           (triple (int_bound 7) (int_bound 2) (int_bound 3)))
        (list_size (int_range 0 12) (int_bound 9))
        (pair (int_bound 2) (int_bound 3))
        (list_size (int_range 9 60) (pair bool (int_bound 99))))
    (fun (entries, cands, (rel, b), ops) ->
      let key a r b = (a lsl 42) lor (r lsl 18) lor b in
      let keys =
        Array.of_list
          (List.sort_uniq compare
             (List.map (fun (a, r, b) -> key a r b) entries))
      in
      let value k = float_of_int ((k lsr 42) + (k land 0xFF)) -. 17.5 in
      let heap = Crf.Itbl.create ~rows:pairwise_rows 256 in
      Array.iter (fun k -> Crf.Itbl.set heap k (value k)) keys;
      let vals =
        Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout
          (Array.map value keys)
      in
      let mapped = Crf.Itbl.of_sorted_mapped ~keys ~vals ~verify:ignore in
      Crf.Itbl.build_rows mapped pairwise_rows;
      (* The grown table: 9 to 60 distinct keys outside [keys] (labels
         8 to 15, so some share the scattered row), bound by random
         [add]s and [set]s — 16 slots rehash at the 8th — then every key
         of [keys] at its value, half of them in two [add]s. *)
      let grown = Crf.Itbl.create ~rows:pairwise_rows 16 in
      List.iteri
        (fun i (is_add, v) ->
          let k = key (8 + (i mod 8)) ((i / 8) mod 4) (i / 32) in
          if is_add then Crf.Itbl.add grown k (float_of_int (v + 1))
          else Crf.Itbl.set grown k (float_of_int v))
        ops;
      Array.iter
        (fun k ->
          if k land 1 = 0 then Crf.Itbl.set grown k (value k)
          else begin
            Crf.Itbl.add grown k 2.;
            Crf.Itbl.add grown k (value k -. 2.)
          end)
        keys;
      let cs = Array.of_list cands in
      let nc = Array.length cs in
      (* The dense label map: each label's first position, chained
         through [next] to its repeats; -1 for labels not among the
         candidates. *)
      let first = Array.make 16 (-1) and next = Array.make nc (-1) in
      for c = nc - 1 downto 0 do
        next.(c) <- first.(cs.(c));
        first.(cs.(c)) <- c
      done;
      let mult = 3. in
      List.for_all
           (fun tbl ->
             let dst = Array.make (nc + 2) 0. in
             Crf.Itbl.scatter tbl 0 (key 0 rel b) ~first ~next dst ~off:1 ~mult;
             let sum = Array.make (nc + 2) 1. in
             Crf.Itbl.scatter_add tbl 0 (key 0 rel b) ~first ~next sum ~off:1
               ~mult;
             dst.(0) = 0.
             && dst.(nc + 1) = 0.
             && sum.(0) = 1.
             && sum.(nc + 1) = 1.
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun c l ->
                       let w = mult *. Crf.Itbl.get tbl (key l rel b) in
                       dst.(c + 1) = w && sum.(c + 1) = 1. +. w)
                     cs))
           [ heap; mapped; grown ])

(* A heap table keeps the rows it was created with current: a value
   changed in place, a new key and a rehash that moves every entry are
   all visible to the next scatter. A heap table gets rows only at
   [create]: building them later is refused. *)
let test_rows_current () =
  let first = Array.make 64 (-1) in
  let scatter t labels =
    List.iteri (fun p l -> first.(l) <- p) labels;
    let dst = Array.make (List.length labels) 0. in
    Crf.Itbl.scatter t 0 0 ~first ~next:(Array.make 64 (-1)) dst ~off:0
      ~mult:1.;
    List.iter (fun l -> first.(l) <- -1) labels;
    dst
  in
  let expect n =
    Array.init n (fun i ->
        match i + 3 with
        | 5 -> 2.
        | 7 -> 3.
        | l when l >= 8 -> float_of_int l
        | _ -> 0.)
  in
  let t = Crf.Itbl.create ~rows:[ (0, 18) ] 16 in
  Crf.Itbl.set t 5 1.;
  check_bool "an existing key is visible" true (scatter t [ 5 ] = [| 1. |]);
  Crf.Itbl.add t 5 1.;
  check_bool "an in-place update is visible" true (scatter t [ 5 ] = [| 2. |]);
  Crf.Itbl.set t 7 3.;
  check_bool "a new key is visible" true (scatter t [ 5; 7 ] = [| 2.; 3. |]);
  for l = 8 to 40 do
    Crf.Itbl.set t l (float_of_int l)
  done;
  check_bool "every key is visible after a rehash" true
    (scatter t (List.init 38 (fun i -> i + 3)) = expect 38);
  check_bool "rows are not built onto a heap table" true
    (match Crf.Itbl.build_rows (Crf.Itbl.create 16) [ (0, 18) ] with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ---------- golden: row fill = full rescore ---------- *)

(* Serve-style models (default training config, one per language)
   loaded the two ways the daemon loads them, mapped and copied. On
   each load, MAP over held-out files and over the buffers of an edit
   trace must give one assignment two ways: [Incremental] on a
   prepared model (columns from weight rows) and [Full_rescore]. *)
let test_row_fill_golden () =
  let cfg = Crf.Fast.default_config in
  let full = { cfg with Crf.Fast.engine = Crf.Fast.Full_rescore } in
  List.iter
    (fun (lang : Pigeon.Lang.t) ->
      let render = lang.Pigeon.Lang.render_lang in
      let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
      let train_graphs =
        Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals
          (corpus render ~n:30 ~seed:303)
      in
      let path = temp_model_file (Crf.Train.train train_graphs) in
      let held_out = List.map snd (corpus render ~n:4 ~seed:404) in
      let edits =
        Corpus.Gen.edit_trace ~steps:2
          {
            Corpus.Gen.default with
            Corpus.Gen.min_funcs = 8;
            max_funcs = 10;
            seed = 505;
          }
          render
      in
      List.iter
        (fun (how, load) ->
          let prepared = load path in
          let cands_p = Crf.Train.candidates prepared in
          let solve cfg cands (model : Crf.Train.model) code =
            let m = model.Crf.Train.fast in
            let eg =
              Pigeon.Graphs.encode repr ~def_labels:lang.Pigeon.Lang.def_labels
                ~policy:Pigeon.Graphs.Locals m (lang.Pigeon.Lang.parse_tree code)
            in
            Crf.Fast.map_assignment cfg cands m eg ~force_gold:false
              ~seed:cfg.Crf.Fast.seed
          in
          List.iteri
            (fun i code ->
              let rows = solve cfg cands_p prepared code in
              let what =
                Printf.sprintf "%s %s input %d: " lang.Pigeon.Lang.name how i
              in
              check_bool (what ^ "row fill = full rescore") true
                (rows = solve full cands_p prepared code))
            (held_out @ edits))
        [ ("mapped", load_mapped); ("copy", load_copy) ])
    Pigeon.Lang.all

(* ---------- SGNS: flat kernel vs reference ---------- *)

let sgns_pairs =
  List.init 3000 (fun i ->
      ( Printf.sprintf "w%d" (i * 11 mod 37),
        Printf.sprintf "c%d" (i * 7 mod 53) ))

let sgns_config =
  { Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 3; dim = 16 }

let vectors m = (m.Word2vec.Sgns.word_vecs, m.Word2vec.Sgns.context_vecs)

(* Exact sigmoid removes the only numeric difference between the flat
   kernel and the nested-array Reference: the matrices must come out
   bitwise equal, sequentially and through the pool's deterministic
   sharded path. *)
let test_sgns_flat_exact_bitwise () =
  let flat = Word2vec.Sgns.train ~sigmoid:`Exact ~config:sgns_config sgns_pairs in
  let reference = Word2vec.Sgns.Reference.train ~config:sgns_config sgns_pairs in
  check_bool "sequential: flat(exact) = reference bitwise" true
    (vectors flat = vectors reference);
  let flat2 =
    Word2vec.Sgns.train ~pool:(pool ~jobs:2)
      ~mode:Word2vec.Sgns.Deterministic ~sigmoid:`Exact ~config:sgns_config
      sgns_pairs
  in
  let reference2 =
    Word2vec.Sgns.Reference.train ~pool:(pool ~jobs:2)
      ~mode:Word2vec.Sgns.Deterministic ~config:sgns_config sgns_pairs
  in
  check_bool "jobs=2 deterministic: flat(exact) = reference bitwise" true
    (vectors flat2 = vectors reference2)

let test_sigmoid_lut_error_bound () =
  let worst = ref 0. in
  for i = 0 to 160_000 do
    let x = -40. +. (float_of_int i *. 0.0005) in
    let e = Float.abs (Word2vec.Sgns.sigmoid_lut x -. Word2vec.Sgns.sigmoid x) in
    if e > !worst then worst := e
  done;
  check_bool
    (Printf.sprintf "max |lut - exact| = %.2e < 1e-3" !worst)
    true (!worst < 1e-3)

(* Planted clusters: words attach overwhelmingly to one cluster
   context. The LUT's <1e-3 sigmoid error must not change eval-level
   results: per-context word rankings from the LUT-trained and
   reference-trained models agree on the (well separated) top-3. *)
let planted_pairs =
  List.concat
    (List.init 30 (fun i ->
         let cl = i mod 10 in
         List.init 20 (fun j ->
             let ctx = if j mod 10 = 9 then (cl + 1) mod 10 else cl in
             (Printf.sprintf "w%02d" i, Printf.sprintf "k%d" ctx))))

let top3 m ctx =
  Word2vec.Sgns.predict m [ ctx ]
  |> List.filteri (fun i _ -> i < 3)
  |> List.map fst |> List.sort compare

let test_sgns_lut_ranking_agreement () =
  let cfg =
    { Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 5; dim = 16 }
  in
  let lut = Word2vec.Sgns.train ~config:cfg planted_pairs in
  let reference = Word2vec.Sgns.Reference.train ~config:cfg planted_pairs in
  for cl = 0 to 9 do
    let ctx = Printf.sprintf "k%d" cl in
    let got = top3 lut ctx and want = top3 reference ctx in
    Alcotest.(check (list string))
      (Printf.sprintf "top-3 for %s agree" ctx)
      want got;
    (* And the reference ranking itself is the planted cluster. *)
    List.iter
      (fun w ->
        let i = int_of_string (String.sub w 1 2) in
        check_int (Printf.sprintf "%s belongs to cluster %d" w cl) cl (i mod 10))
      want
  done

(* most_similar after the once-per-call norm precompute: every
   reported score must equal the direct cosine, best-first. *)
let test_most_similar_scores () =
  let m = Word2vec.Sgns.train ~config:sgns_config sgns_pairs in
  let w = "w0" in
  let res = Word2vec.Sgns.most_similar m w ~k:5 in
  check_int "k results" 5 (List.length res);
  let wv = Option.get (Word2vec.Sgns.word_vec m w) in
  let norm v = sqrt (Word2vec.Sgns.dot v v) in
  let nw = norm wv in
  List.iter
    (fun (x, s) ->
      check_bool "not the query word" true (not (String.equal x w));
      let v = Option.get (Word2vec.Sgns.word_vec m x) in
      let d = norm v *. nw in
      let expect = if d = 0. then 0. else Word2vec.Sgns.dot wv v /. d in
      Alcotest.(check (float 0.)) (Printf.sprintf "cosine for %s" x) expect s)
    res;
  let scores = List.map snd res in
  check_bool "scores non-increasing" true
    (List.for_all2 (fun a b -> a >= b)
       (List.filteri (fun i _ -> i < 4) scores)
       (List.tl scores))

(* ---------- SGNS: the fused slice kernel vs the pre-fusion one ---------- *)

(* A random small problem for the C slice kernel, built from one seed:
   a dim in 4..72 (three in four a multiple of 4, which the fused step
   needs), 0..9 negatives, a negative table that is either wide or a
   handful of entries (repeated negatives, negatives equal to the
   positive), and 1..4 consecutive slices with their own LCG seeds (0
   among them), run over the pairs twice. Pair 0's rows are a probe
   whose dot product lands on 8 (the LUT's saturation edge) or just
   under it depending on how its products round or in which order its
   lanes are summed: the LUT hides a dot product's low bits from the
   gradient anywhere else. *)
let kernel_problem seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let dim =
    let d = 4 + int 69 in
    if int 4 > 0 then max 4 (d - (d mod 4)) else d
  in
  let negatives = int 10 in
  let nw = 1 + int 12 and nc = 1 + int 12 in
  let scale = [| 0.05; 0.5; 2. |].(int 3) in
  let matrix rows =
    Float.Array.init (rows * dim) (fun _ ->
        (Random.State.float rng 2. -. 1.) *. scale)
  in
  let w = matrix nw and c = matrix nc in
  let neg_table =
    if int 2 = 0 then Array.init (1 + int 6) (fun _ -> int (min nc 3))
    else Array.init (50 + int 150) (fun _ -> int nc)
  in
  let n_pairs = 1 + int 150 in
  let pairs = Array.init n_pairs (fun _ -> (int nw, int nc)) in
  let wi, ci = pairs.(0) in
  for d = 0 to dim - 1 do
    Float.Array.set w ((wi * dim) + d) 0.;
    Float.Array.set c ((ci * dim) + d) 0.
  done;
  let set_w d v = Float.Array.set w ((wi * dim) + d) v
  and set_c d v = Float.Array.set c ((ci * dim) + d) v in
  if dim >= 8 && int 2 = 0 then begin
    (* lane j reads 8 at iteration i-1, then adds a product just beyond
       -2^-51: 8 if the product is rounded first, 8 - 2^-50 if fused *)
    let i = 1 + int ((dim / 4) - 1) and j = int 4 in
    set_w ((4 * (i - 1)) + j) 1.;
    set_c ((4 * (i - 1)) + j) 8.;
    set_w ((4 * i) + j) 0x1.fffffffffffffp-27;
    set_c ((4 * i) + j) (-0x1.0000000000001p-25)
  end
  else begin
    (* lanes (8, 0, -2^-51, -2^-51) in some order: (s0 + s1) + (s2 + s3)
       is 8 or 8 - 2^-50 depending on the order *)
    let lanes = [| 8.; 0.; -0x1p-51; -0x1p-51 |] in
    for k = 3 downto 1 do
      let j = int (k + 1) in
      let t = lanes.(k) in
      lanes.(k) <- lanes.(j);
      lanes.(j) <- t
    done;
    Array.iteri
      (fun j v ->
        set_w j 1.;
        set_c j v)
      lanes
  end;
  let cuts =
    List.sort_uniq compare (List.init (int 4) (fun _ -> int n_pairs))
  in
  let bounds = (0 :: cuts) @ [ n_pairs ] in
  let rec slices = function
    | lo :: (hi :: _ as rest) -> (lo, hi) :: slices rest
    | _ -> []
  in
  let runs =
    List.concat_map
      (fun epoch ->
        List.map
          (fun (lo, hi) ->
            let seed = if int 5 = 0 then 0L else Random.State.bits64 rng in
            (epoch, lo, hi, seed))
          (slices bounds))
      [ 0; 1 ]
  in
  let lr = 0.01 +. Random.State.float rng 0.5 in
  (dim, negatives, w, c, neg_table, pairs, runs, lr)

let run_kernel train_slice ~dim ~negatives ~w ~c ~neg_table ~pairs ~n_pairs
    ~runs ~lr =
  let w = Float.Array.copy w and c = Float.Array.copy c in
  let fparams =
    Word2vec.Sgns.Kernel.(Float.Array.of_list [ lr; lut_range; lut_scale ])
  in
  List.iter
    (fun (epoch, lo, hi, seed) ->
      let iparams =
        [| dim; negatives; lo; hi; epoch * n_pairs; 2 * n_pairs;
           Int64.to_int (Int64.logand seed 0xFFFFFFFFL);
           Int64.to_int (Int64.shift_right_logical seed 32) |]
      in
      train_slice w c Word2vec.Sgns.Kernel.sigmoid_table pairs neg_table
        iparams fparams)
    runs;
  (w, c)

let float_bits fa = Float.Array.map_to_array Int64.bits_of_float fa

(* The fused kernel leaves both matrices bit-identical to the
   pre-fusion kernel it replaced (test/sgns_oracle_stubs.c, built with
   the same flags). *)
let prop_kernel_oracle =
  QCheck.Test.make ~count:400 ~name:"kernel_oracle: fused slice kernel = pre-fusion kernel, bitwise"
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let dim, negatives, w, c, neg_table, pairs, runs, lr =
        kernel_problem seed
      in
      let n_pairs = Array.length pairs in
      let flat = Array.make (2 * n_pairs) 0 in
      Array.iteri
        (fun i (wi, ci) ->
          flat.(2 * i) <- wi;
          flat.((2 * i) + 1) <- ci)
        pairs;
      let w1, c1 =
        run_kernel Word2vec.Sgns.Kernel.train_slice ~dim ~negatives ~w ~c
          ~neg_table ~pairs:flat ~n_pairs ~runs ~lr
      in
      let w0, c0 =
        run_kernel Sgns_oracle.train_slice ~dim ~negatives ~w ~c ~neg_table
          ~pairs ~n_pairs ~runs ~lr
      in
      float_bits w1 = float_bits w0 && float_bits c1 = float_bits c0)

let () =
  Alcotest.run "kernels"
    [
      ( "icm",
        [
          Alcotest.test_case "MAP golden: incremental = full rescore" `Quick
            test_icm_map_golden;
          Alcotest.test_case "training golden: weights byte-identical" `Quick
            test_icm_train_golden;
          Alcotest.test_case "string-side engines identical" `Quick
            test_inference_engine_golden;
          Alcotest.test_case "forced-candidate dedup spec" `Quick
            test_forced_dedup;
          QCheck_alcotest.to_alcotest
            (prop_scorer_matches_node_score ~prepared:false);
          Alcotest.test_case "row fill golden: 4 languages, mapped and copy"
            `Quick test_row_fill_golden;
          QCheck_alcotest.to_alcotest
            (prop_scorer_matches_node_score ~prepared:true);
          QCheck_alcotest.to_alcotest prop_rows_match_get;
          Alcotest.test_case "rows stay current" `Quick test_rows_current;
        ] );
      ( "sgns",
        [
          Alcotest.test_case "flat kernel bitwise = reference (exact sigmoid)"
            `Quick test_sgns_flat_exact_bitwise;
          Alcotest.test_case "sigmoid LUT error bound" `Quick
            test_sigmoid_lut_error_bound;
          Alcotest.test_case "LUT ranking agreement on planted clusters"
            `Quick test_sgns_lut_ranking_agreement;
          Alcotest.test_case "most_similar scores are cosines" `Quick
            test_most_similar_scores;
          QCheck_alcotest.to_alcotest prop_kernel_oracle;
        ] );
    ]
