(* Tests for the learning engines: CRF (graphs, model, candidates,
   inference, training) and word2vec (vocab, SGNS, prediction). These
   use small synthetic problems with known structure so convergence is
   checkable deterministically. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- CRF graph basics ---------- *)

let mk_node id gold kind = { Crf.Graph.id; gold; kind }

let tiny_graph () =
  Crf.Graph.make
    ~nodes:
      [
        mk_node 0 "done" `Unknown;
        mk_node 1 "true" `Known;
        mk_node 2 "someCondition" `Known;
      ]
    ~factors:
      [
        Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"assign";
        Crf.Graph.pairwise ~a:0 ~b:2 ~rel:"cond";
        Crf.Graph.unary ~n:0 ~rel:"while-loop";
      ]

let test_graph_basics () =
  let g = tiny_graph () in
  check_int "unknowns" 1 (Crf.Graph.num_unknown g);
  Alcotest.(check (list int)) "unknown ids" [ 0 ] (Crf.Graph.unknown_ids g);
  let gold = Crf.Graph.gold_assignment g in
  check_string "gold" "done" gold.(0);
  let init = Crf.Graph.initial_assignment g ~default:"?" in
  check_string "unknown default" "?" init.(0);
  check_string "known fixed" "true" init.(1);
  let touching = Crf.Graph.touching g in
  check_int "node 0 touches 3" 3 (List.length touching.(0));
  check_int "node 1 touches 1" 1 (List.length touching.(1))

let test_graph_validation () =
  (try
     ignore (Crf.Graph.make ~nodes:[ mk_node 1 "x" `Known ] ~factors:[]);
     Alcotest.fail "expected id validation error"
   with Invalid_argument _ -> ());
  try
    ignore
      (Crf.Graph.make
         ~nodes:[ mk_node 0 "x" `Known ]
         ~factors:[ Crf.Graph.pairwise ~a:0 ~b:5 ~rel:"r" ]);
    Alcotest.fail "expected range error"
  with Invalid_argument _ -> ()

let test_model_scoring () =
  let m = Crf.Model.create () in
  Crf.Model.add m (Crf.Model.pairwise_feat ~la:"done" ~rel:"assign" ~lb:"true") 2.0;
  Crf.Model.add m (Crf.Model.unary_feat ~l:"done" ~rel:"while-loop") 1.0;
  Crf.Model.add m (Crf.Model.bias_feat ~l:"done") 0.5;
  let g = tiny_graph () in
  let gold = Crf.Graph.gold_assignment g in
  Alcotest.(check (float 1e-9)) "score" 3.5 (Crf.Model.score m g gold);
  let other = Array.copy gold in
  other.(0) <- "count";
  Alcotest.(check (float 1e-9)) "other score" 0. (Crf.Model.score m g other)

(* ---------- a small synthetic naming world ----------

   Three roles with distinct relations:
   - "flag" nodes: unary rel "loop!"; neighbor "true" via rel "assign"
   - "count" nodes: neighbor "0" via rel "init"; unary rel "incr"
   - "index" nodes: neighbor "length" via rel "bound"
   Names are drawn from per-role distributions so the learner has both
   signal and ambiguity. *)

let synth_graphs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  List.init n (fun _ ->
      let role = Random.State.int rng 3 in
      match role with
      | 0 ->
          Crf.Graph.make
            ~nodes:
              [
                mk_node 0 (pick [ "done"; "done"; "finished"; "stop" ]) `Unknown;
                mk_node 1 "true" `Known;
              ]
            ~factors:
              [
                Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"assign";
                Crf.Graph.unary ~n:0 ~rel:"loop!";
              ]
      | 1 ->
          Crf.Graph.make
            ~nodes:
              [
                mk_node 0 (pick [ "count"; "count"; "total" ]) `Unknown;
                mk_node 1 "0" `Known;
              ]
            ~factors:
              [
                Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"init";
                Crf.Graph.unary ~n:0 ~rel:"incr";
              ]
      | _ ->
          Crf.Graph.make
            ~nodes:
              [
                mk_node 0 (pick [ "i"; "i"; "index" ]) `Unknown;
                mk_node 1 "length" `Known;
              ]
            ~factors:[ Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"bound" ])

let test_candidates () =
  let graphs = synth_graphs ~n:200 ~seed:1 in
  let cands = Crf.Candidates.build graphs in
  check_bool "several labels" true (Crf.Candidates.num_labels cands >= 6);
  let g = List.hd (synth_graphs ~n:1 ~seed:99) in
  let touching = Crf.Graph.touching g in
  let cs = Crf.Candidates.for_node cands g touching.(0) 0 ~max:10 in
  check_bool "nonempty" true (cs <> []);
  check_bool "within max" true (List.length cs <= 10);
  check_bool "no dups" true
    (List.length cs = List.length (List.sort_uniq String.compare cs));
  (* global top is by frequency *)
  let top = Crf.Candidates.global_top cands 3 in
  check_int "three tops" 3 (List.length top)

(* The clean synthetic worlds have no sparsity, so they are trained
   without the generative initialization (which exists to stabilize
   sparse path features; on pure-noise residuals the perceptron on top
   of it oscillates between synonyms). *)
let clean_config =
  { Crf.Train.default_config with Crf.Train.init = Crf.Fast.No_init }

let test_training_learns_roles () =
  let train_graphs = synth_graphs ~n:400 ~seed:2 in
  let model = Crf.Train.train ~config:clean_config train_graphs in
  let test_graphs = synth_graphs ~n:150 ~seed:3 in
  let acc = Crf.Train.accuracy model test_graphs in
  (* The Bayes rate is about 2/3 (name synonym noise); random ~1/8. *)
  check_bool (Printf.sprintf "accuracy %.2f > 0.55" acc) true (acc > 0.55)

let test_training_beats_nopath () =
  (* A world where the *relation* is the only signal: both roles share
     the same known neighbor, so the no-path baseline (single shared
     rel, i.e. bag-of-near-identifiers) cannot separate them. *)
  let rel_world ~n ~seed =
    let rng = Random.State.make [| seed |] in
    let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
    List.init n (fun _ ->
        let flag = Random.State.bool rng in
        Crf.Graph.make
          ~nodes:
            [
              mk_node 0
                (if flag then pick [ "done"; "done"; "stop" ]
                 else pick [ "count"; "count"; "total" ])
                `Unknown;
              mk_node 1 "value" `Known;
            ]
          ~factors:
            [
              Crf.Graph.pairwise ~a:0 ~b:1
                ~rel:(if flag then "loop-guard" else "incr");
            ])
  in
  let hide g =
    {
      g with
      Crf.Graph.factors =
        List.map
          (function
            | Crf.Graph.Pairwise { a; b; mult; _ } ->
                Crf.Graph.Pairwise { a; b; rel = "*"; mult }
            | Crf.Graph.Unary { n; mult; _ } -> Crf.Graph.Unary { n; rel = "*"; mult })
          g.Crf.Graph.factors;
    }
  in
  let train_graphs = rel_world ~n:400 ~seed:2 in
  let test_graphs = rel_world ~n:150 ~seed:3 in
  let full =
    Crf.Train.accuracy (Crf.Train.train ~config:clean_config train_graphs) test_graphs
  in
  let blind =
    Crf.Train.accuracy
      (Crf.Train.train ~config:clean_config (List.map hide train_graphs))
      (List.map hide test_graphs)
  in
  check_bool
    (Printf.sprintf "full %.2f > no-path %.2f + 0.15" full blind)
    true
    (full > blind +. 0.15)

let test_top_k () =
  let model = Crf.Train.train ~config:clean_config (synth_graphs ~n:400 ~seed:2) in
  let g = List.hd (synth_graphs ~n:1 ~seed:4) in
  let suggestions = Crf.Train.top_k model g ~node:0 ~k:5 in
  check_bool "at most 5" true (List.length suggestions <= 5);
  check_bool "nonempty" true (suggestions <> []);
  (* sorted descending *)
  let scores = List.map snd suggestions in
  check_bool "sorted" true
    (List.sort (fun a b -> Float.compare b a) scores = scores)

let test_inference_improves_score () =
  let graphs = synth_graphs ~n:200 ~seed:5 in
  let model = Crf.Train.train ~config:clean_config graphs in
  List.iter
    (fun g ->
      let pred = Crf.Train.predict model g in
      (* MAP score at least as good as the initial greedy default. *)
      let default =
        match Crf.Candidates.global_top (Lazy.force model.Crf.Train.candidates) 1 with
        | [ l ] -> l
        | _ -> "?"
      in
      let init = Crf.Graph.initial_assignment g ~default in
      check_bool "map >= init" true
        (Crf.Model.score (Lazy.force model.Crf.Train.weights) g pred
        >= Crf.Model.score (Lazy.force model.Crf.Train.weights) g init -. 1e-9))
    (synth_graphs ~n:20 ~seed:6)

(* ---------- property tests for CRF ---------- *)

let gen_graph =
  let open QCheck2.Gen in
  let* n_unknown = int_range 1 4 in
  let* n_known = int_range 1 4 in
  let n = n_unknown + n_known in
  let* rels = list_size (int_range 1 12) (int_range 0 5) in
  let labels = [| "a"; "b"; "c"; "d" |] in
  let* lbl_idx = list_repeat n (int_range 0 3) in
  let nodes =
    List.mapi
      (fun i li ->
        mk_node i labels.(li) (if i < n_unknown then `Unknown else `Known))
      lbl_idx
  in
  let+ endpoints = list_repeat (List.length rels) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
  let factors =
    List.map2
      (fun r (a, b) ->
        if a = b then Crf.Graph.unary ~n:a ~rel:("r" ^ string_of_int r)
        else Crf.Graph.pairwise ~a ~b ~rel:("r" ^ string_of_int r))
      rels endpoints
  in
  Crf.Graph.make ~nodes ~factors

let prop_predict_respects_known =
  QCheck2.Test.make ~name:"crf: prediction never changes known labels"
    ~count:100 (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 5) gen_graph)
    (fun graphs ->
      let model = Crf.Train.train ~config:{ Crf.Train.default_config with iterations = 2 } graphs in
      List.for_all
        (fun g ->
          let pred = Crf.Train.predict model g in
          Array.for_all
            (fun (n : Crf.Graph.node) ->
              n.Crf.Graph.kind = `Unknown
              || String.equal pred.(n.Crf.Graph.id) n.Crf.Graph.gold)
            g.Crf.Graph.nodes)
        graphs)

let prop_training_deterministic =
  QCheck2.Test.make ~name:"crf: training is deterministic given seed" ~count:20
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 5) gen_graph)
    (fun graphs ->
      let m1 = Crf.Train.train graphs and m2 = Crf.Train.train graphs in
      List.for_all
        (fun g ->
          Crf.Train.predict m1 g = Crf.Train.predict m2 g)
        graphs)

(* ---------- reference inference engine (string-level) ----------

   [Crf.Inference] is the documented reference implementation of ICM
   over the public string-keyed model; the production path is
   [Crf.Fast]. Both must agree on small problems. *)

let test_reference_inference () =
  let graphs = synth_graphs ~n:300 ~seed:21 in
  let cands = Crf.Candidates.build graphs in
  let m = Crf.Model.create () in
  (* hand-crafted weights: the role worlds of synth_graphs *)
  Crf.Model.add m (Crf.Model.pairwise_feat ~la:"done" ~rel:"assign" ~lb:"true") 2.;
  Crf.Model.add m (Crf.Model.pairwise_feat ~la:"count" ~rel:"init" ~lb:"0") 2.;
  Crf.Model.add m (Crf.Model.pairwise_feat ~la:"i" ~rel:"bound" ~lb:"length") 2.;
  List.iter
    (fun g ->
      let a = Crf.Inference.map_assignment m cands g in
      (* knowns untouched *)
      Array.iter
        (fun (nd : Crf.Graph.node) ->
          if nd.Crf.Graph.kind = `Known then
            check_string "known fixed" nd.Crf.Graph.gold a.(nd.Crf.Graph.id))
        g.Crf.Graph.nodes;
      (* role recovered under the crafted weights *)
      let gold = Crf.Graph.gold_assignment g in
      let expected =
        match gold.(1) with
        | "true" -> "done"
        | "0" -> "count"
        | _ -> "i"
      in
      check_string "role recovered" expected a.(0))
    (synth_graphs ~n:30 ~seed:22)

let test_reference_top_k_sorted () =
  let graphs = synth_graphs ~n:200 ~seed:23 in
  let cands = Crf.Candidates.build graphs in
  let m = Crf.Model.create () in
  Crf.Model.add m (Crf.Model.bias_feat ~l:"done") 1.0;
  let g = List.hd (synth_graphs ~n:1 ~seed:24) in
  let assignment = Crf.Graph.gold_assignment g in
  let top = Crf.Inference.top_k m cands g assignment ~node:0 ~k:4 in
  check_bool "at most 4" true (List.length top <= 4);
  let scores = List.map snd top in
  check_bool "sorted" true (List.sort (fun a b -> Float.compare b a) scores = scores)

(* ---------- fast engine internals ---------- *)

let test_interner () =
  let t = Crf.Symbols.create () in
  let a = Crf.Symbols.label t "alpha" in
  let b = Crf.Symbols.label t "beta" in
  check_int "distinct ids" 1 (abs (a - b));
  check_int "stable" a (Crf.Symbols.label t "alpha");
  check_string "reverse" "alpha" (Crf.Symbols.label_string t a);
  check_int "size" 2 (Crf.Symbols.num_labels t);
  (* growth beyond the initial capacity *)
  for i = 0 to 600 do
    ignore (Crf.Symbols.label t (string_of_int i))
  done;
  check_int "grown" 603 (Crf.Symbols.num_labels t);
  check_string "still stable" "beta" (Crf.Symbols.label_string t b);
  (* relation ids live in their own space *)
  check_int "rel space" 0 (Crf.Symbols.rel t "alpha")

let test_export_weights () =
  (* The exported string-keyed weights must rank the gold label first
     in a clamped-neighbors local scoring, matching the fast engine. *)
  let graphs = synth_graphs ~n:300 ~seed:12 in
  let model = Crf.Train.train ~config:clean_config graphs in
  check_bool "weights nonempty" true (Crf.Model.size (Lazy.force model.Crf.Train.weights) > 0);
  let correct = ref 0 and total = ref 0 in
  List.iter
    (fun g ->
      let touching = Crf.Graph.touching g in
      let gold = Crf.Graph.gold_assignment g in
      List.iter
        (fun n ->
          incr total;
          let cs =
            Crf.Candidates.for_node (Lazy.force model.Crf.Train.candidates) g touching.(n) n
              ~max:10
          in
          let best =
            List.fold_left
              (fun (bl, bs) l ->
                let s =
                  Crf.Model.node_score (Lazy.force model.Crf.Train.weights) g touching.(n) n
                    gold ~label:l
                in
                if s > bs then (l, s) else (bl, bs))
              ("", neg_infinity) cs
          in
          if String.equal (fst best) gold.(n) then incr correct)
        (Crf.Graph.unknown_ids g))
      (synth_graphs ~n:50 ~seed:13);
  check_bool
    (Printf.sprintf "exported weights discriminate (%d/%d)" !correct !total)
    true
    (float_of_int !correct /. float_of_int !total > 0.55)

(* Encoding keeps every node's string and unknown slot, and — the
   model being read-only — interns nothing, even into an empty model. *)
let test_fast_roundtrip_encode () =
  let g = tiny_graph () in
  let m = Crf.Fast.create () in
  let eg = Crf.Fast.encode m g in
  Alcotest.(check (array int)) "unknown slots"
    (Array.of_list (Crf.Graph.unknown_ids g))
    (Crf.Fast.unknown_nodes eg);
  Array.iteri
    (fun i gold -> check_string "node string" gold (Crf.Fast.name eg i))
    (Crf.Graph.gold_assignment g);
  let syms = Crf.Fast.symbols m in
  check_int "no label interned" 0 (Crf.Symbols.num_labels syms);
  check_int "no relation interned" 0 (Crf.Symbols.num_rels syms)

(* ---------- word2vec ---------- *)

let test_vocab () =
  let v = Word2vec.Vocab.build [ "a"; "b"; "a"; "c"; "a"; "b" ] in
  check_int "size" 3 (Word2vec.Vocab.size v);
  check_string "most frequent first" "a" (Word2vec.Vocab.word v 0);
  Alcotest.(check (option int)) "id of b" (Some 1) (Word2vec.Vocab.id v "b");
  check_int "total" 6 (Word2vec.Vocab.total v);
  let v2 = Word2vec.Vocab.build ~min_count:2 [ "a"; "b"; "a"; "c" ] in
  check_int "min_count filters" 1 (Word2vec.Vocab.size v2)

let test_sigmoid_dot () =
  Alcotest.(check (float 1e-9)) "sigmoid 0" 0.5 (Word2vec.Sgns.sigmoid 0.);
  check_bool "sigmoid large" true (Word2vec.Sgns.sigmoid 40. = 1.);
  Alcotest.(check (float 1e-9)) "dot" 11.
    (Word2vec.Sgns.dot [| 1.; 2. |] [| 3.; 4. |])

(* Synthetic SGNS task: words of two classes with disjoint contexts. *)
let sgns_pairs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  List.init n (fun _ ->
      if Random.State.bool rng then
        (pick [ "done"; "finished" ], pick [ "loop-ctx"; "assign-true"; "while" ])
      else (pick [ "count"; "total" ], pick [ "init-zero"; "incr"; "plusplus" ]))

let test_sgns_learns_classes () =
  let model =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with epochs = 20; seed = 7 }
      (sgns_pairs ~n:2000 ~seed:8)
  in
  (* Predicting from flag contexts must rank a flag word first. *)
  let ranked = Word2vec.Sgns.predict model [ "loop-ctx"; "assign-true" ] in
  let top = fst (List.hd ranked) in
  check_bool ("flag ctx -> flag word, got " ^ top) true
    (List.mem top [ "done"; "finished" ]);
  let ranked2 = Word2vec.Sgns.predict model [ "init-zero"; "incr" ] in
  let top2 = fst (List.hd ranked2) in
  check_bool ("count ctx -> count word, got " ^ top2) true
    (List.mem top2 [ "count"; "total" ])

let test_sgns_similarity () =
  let model =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with epochs = 20; seed = 7 }
      (sgns_pairs ~n:2000 ~seed:8)
  in
  match Word2vec.Sgns.most_similar model "done" ~k:1 with
  | [ (w, _) ] ->
      check_string "done ~ finished" "finished" w
  | _ -> Alcotest.fail "expected one neighbor"

let test_sgns_predict_ignores_unknown_ctx () =
  let model = Word2vec.Sgns.train (sgns_pairs ~n:500 ~seed:8) in
  let r1 = Word2vec.Sgns.predict model [ "loop-ctx" ] in
  let r2 = Word2vec.Sgns.predict model [ "loop-ctx"; "never-seen-ctx" ] in
  check_bool "same ranking" true (List.map fst r1 = List.map fst r2)

let test_sgns_empty () =
  let model = Word2vec.Sgns.train [] in
  check_int "empty vocab" 0 (Word2vec.Vocab.size model.Word2vec.Sgns.words);
  Alcotest.(check (list (pair string (float 0.)))) "no predictions" []
    (Word2vec.Sgns.predict model [ "x" ])

let prop_sgns_deterministic =
  QCheck2.Test.make ~name:"sgns: deterministic given seed" ~count:5
    (QCheck2.Gen.int_range 0 1000) (fun seed ->
      let pairs = sgns_pairs ~n:200 ~seed in
      let m1 = Word2vec.Sgns.train pairs and m2 = Word2vec.Sgns.train pairs in
      List.map fst (Word2vec.Sgns.predict m1 [ "loop-ctx" ])
      = List.map fst (Word2vec.Sgns.predict m2 [ "loop-ctx" ]))

let qcheck = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "crf-graph",
      [
        Alcotest.test_case "basics" `Quick test_graph_basics;
        Alcotest.test_case "validation" `Quick test_graph_validation;
        Alcotest.test_case "model scoring" `Quick test_model_scoring;
      ] );
    ( "crf-learning",
      [
        Alcotest.test_case "candidate generation" `Quick test_candidates;
        Alcotest.test_case "learns synthetic roles" `Quick test_training_learns_roles;
        Alcotest.test_case "paths beat no-path" `Quick test_training_beats_nopath;
        Alcotest.test_case "top-k suggestions" `Quick test_top_k;
        Alcotest.test_case "MAP improves over init" `Quick test_inference_improves_score;
        Alcotest.test_case "reference ICM" `Quick test_reference_inference;
        Alcotest.test_case "reference top-k" `Quick test_reference_top_k_sorted;
        Alcotest.test_case "interner" `Quick test_interner;
        Alcotest.test_case "exported weights" `Quick test_export_weights;
        Alcotest.test_case "fast encode round-trip" `Quick test_fast_roundtrip_encode;
      ]
      @ qcheck [ prop_predict_respects_known; prop_training_deterministic ] );
    ( "word2vec",
      [
        Alcotest.test_case "vocab" `Quick test_vocab;
        Alcotest.test_case "sigmoid and dot" `Quick test_sigmoid_dot;
        Alcotest.test_case "learns context classes" `Quick test_sgns_learns_classes;
        Alcotest.test_case "semantic similarity" `Quick test_sgns_similarity;
        Alcotest.test_case "unknown contexts ignored" `Quick
          test_sgns_predict_ignores_unknown_ctx;
        Alcotest.test_case "empty training" `Quick test_sgns_empty;
      ]
      @ qcheck [ prop_sgns_deterministic ] );
  ]

let () = Alcotest.run "ml" suite
