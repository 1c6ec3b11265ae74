(* Golden-equivalence suite for the dense numeric kernels (PR 4):

   - incremental ICM (score cache + dirty worklist) must be
     *byte-identical* to the full-rescore reference — MAP assignments,
     trained weights, and the string-side Inference sweep alike;
   - the flat-matrix SGNS kernel under the exact sigmoid must be
     bitwise-identical to the kept nested-array Reference trainer,
     sequentially and through the domain pool;
   - the sigmoid LUT must stay inside its documented error budget and
     must not change eval-level rankings on planted-cluster data;
   - a qcheck property pins the Scorer invariant: cached candidate
     scores equal freshly computed node_score after arbitrary flip
     sequences, on a model under training (columns filled by weight
     lookups) and on a prepared model (columns filled from weight
     rows);
   - the row primitive itself ([Itbl.scatter], through a dense label
     map) writes exactly what per-candidate lookups give, on heap and
     mapped tables, and MAP on serve-style models of all four
     languages, mapped and copied, agrees between row fill, lookup fill
     and full rescoring. *)

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

let quick_structured =
  {
    Crf.Train.default_config with
    Crf.Train.iterations = 3;
    trainer = Crf.Fast.Structured;
  }

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

(* Structured training runs ICM inside the perceptron loop: training
   under each engine must give byte-identical weights (sorted dumps)
   and predictions. *)
let test_icm_train_golden () =
  List.iter
    (fun (name, fixture) ->
      let train_graphs, test_graphs = Lazy.force fixture in
      let m_inc =
        Crf.Train.train
          ~config:(with_engine quick_structured Crf.Fast.Incremental)
          train_graphs
      in
      let m_full =
        Crf.Train.train
          ~config:(with_engine quick_structured Crf.Fast.Full_rescore)
          train_graphs
      in
      check_bool
        (Printf.sprintf "%s trained weights byte-identical" name)
        true
        (sorted_dump m_inc.Crf.Train.fast = sorted_dump m_full.Crf.Train.fast);
      check_bool
        (Printf.sprintf "%s predictions identical" name)
        true
        (List.map (Crf.Train.predict m_inc) test_graphs
        = List.map (Crf.Train.predict m_full) test_graphs))
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

(* [prepared = false]: the trained model as training leaves it, whose
   Scorer fills columns by per-candidate lookups. [prepared = true]:
   the same model saved, loaded as a heap copy and prepared, whose
   Scorer fills them from weight rows (the golden below covers rows
   over mapped tables). *)
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
   must write exactly [mult *. get] at every candidate, for heap and
   mapped tables alike. *)
let prop_rows_match_get =
  QCheck2.Test.make ~name:"kernels: row scatter = per-candidate get"
    ~count:100
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 120)
           (triple (int_bound 7) (int_bound 2) (int_bound 3)))
        (list_size (int_range 0 12) (int_bound 9))
        (pair (int_bound 2) (int_bound 3)))
    (fun (entries, cands, (rel, b)) ->
      let key a r b = (a lsl 42) lor (r lsl 18) lor b in
      let keys =
        Array.of_list
          (List.sort_uniq compare
             (List.map (fun (a, r, b) -> key a r b) entries))
      in
      let value k = float_of_int ((k lsr 42) + (k land 0xFF)) -. 17.5 in
      let heap = Crf.Itbl.create 16 in
      Array.iter (fun k -> Crf.Itbl.set heap k (value k)) keys;
      let vals =
        Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout
          (Array.map value keys)
      in
      let mapped = Crf.Itbl.of_sorted_mapped ~keys ~vals ~verify:ignore in
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
          let rows = Crf.Itbl.rows tbl ~label_shift:42 ~label_bits:18 in
          let dst = Array.make (nc + 2) 0. in
          Crf.Itbl.scatter rows (key 0 rel b) ~first ~next dst ~off:1 ~mult;
          dst.(0) = 0.
          && dst.(nc + 1) = 0.
          && Array.for_all Fun.id
               (Array.mapi
                  (fun c l ->
                    dst.(c + 1) = mult *. Crf.Itbl.get tbl (key l rel b))
                  cs))
        [ heap; mapped ])

(* Rows are built from a table's entries at one moment: a value
   changed in place stays visible to them, a key added afterwards
   makes them stale, and [rows_current] must say so (the Scorer then
   fills by lookup). *)
let test_rows_current () =
  let t = Crf.Itbl.create 16 in
  Crf.Itbl.set t 5 1.;
  let rows = Crf.Itbl.rows t ~label_shift:0 ~label_bits:18 in
  check_bool "fresh rows are current" true (Crf.Itbl.rows_current rows);
  Crf.Itbl.add t 5 1.;
  let dst = [| 0. |] in
  let first = Array.make 8 (-1) in
  first.(5) <- 0;
  Crf.Itbl.scatter rows 0 ~first ~next:[| -1 |] dst ~off:0 ~mult:1.;
  check_bool "in-place update is current and visible" true
    (Crf.Itbl.rows_current rows && dst.(0) = 2.);
  Crf.Itbl.set t 7 1.;
  check_bool "a new key makes rows stale" false (Crf.Itbl.rows_current rows)

(* ---------- golden: row fill = lookup fill = full rescore ---------- *)

(* Serve-style models (default training config, one per language)
   loaded the two ways the daemon loads them, mapped and copied. On
   each load, MAP over held-out files and over the buffers of an edit
   trace must give one assignment three ways: [Incremental] on a
   prepared model (columns from weight rows), [Incremental] on an
   unprepared one (columns from per-candidate lookups) and
   [Full_rescore]. *)
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
          let prepared = load path and unprepared = load path in
          let cands_p = Crf.Train.candidates prepared in
          let cands_u = Lazy.force unprepared.Crf.Train.candidates in
          Crf.Fast.verify_tables unprepared.Crf.Train.fast;
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
              check_bool (what ^ "row fill = lookup fill") true
                (rows = solve cfg cands_u unprepared code);
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
          Alcotest.test_case "rows go stale when a key is added" `Quick
            test_rows_current;
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
        ] );
    ]
