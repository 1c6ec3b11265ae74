(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) on the synthetic corpora.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe table2-var      -- one experiment
     dune exec bench/main.exe --quick all     -- smaller corpora

   Experiments: table1 table2-var table2-method table2-type table3
   table4 fig10 fig11 fig12 fault parallel train intern serve incremental
   oocore micro.

   Absolute numbers are not expected to match the paper (our corpora
   are synthetic and laptop-sized); the *shape* — which representation
   wins, by roughly what factor, and where the knees fall — is the
   reproduction target. EXPERIMENTS.md records paper-vs-measured. *)

let quick = ref false
let scaled n = if !quick then max 40 (n / 4) else n

(* Every experiment's results file: BENCH_<name>.json for a full run,
   BENCH_<name>.quick.json (git-ignored) under --quick, so a quick run
   never overwrites a committed full-run headline. *)
let bench_file name =
  Printf.sprintf "BENCH_%s%s.json" name (if !quick then ".quick" else "")

(* ---------- corpora ---------- *)

let corpus_cache :
    (string, (string * string) list * (string * string) list) Hashtbl.t =
  Hashtbl.create 8

let corpus_for (lang : Pigeon.Lang.t) ~n =
  let key = Printf.sprintf "%s-%d" lang.Pigeon.Lang.name n in
  match Hashtbl.find_opt corpus_cache key with
  | Some split -> split
  | None ->
      let config = { Corpus.Gen.default with Corpus.Gen.n_files = n; seed = 2018 } in
      let sources =
        Corpus.Gen.generate_sources config lang.Pigeon.Lang.render_lang
      in
      let entries =
        List.map (fun (path, source) -> { Corpus.Dataset.path; source }) sources
      in
      let s = Corpus.Dataset.split_corpus ~seed:7 (Corpus.Dataset.dedup entries) in
      let pairs xs =
        List.map (fun e -> (e.Corpus.Dataset.path, e.Corpus.Dataset.source)) xs
      in
      let split = (pairs s.Corpus.Dataset.train, pairs s.Corpus.Dataset.test) in
      Hashtbl.add corpus_cache key split;
      split

let crf_config iters =
  { Crf.Train.default_config with Crf.Train.iterations = iters }

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let pct x = 100. *. x

(* Surface what a corpus run lost. Clean runs stay silent; any skip is
   printed with its per-kind tally so a table row is never silently
   computed on less data than the header claims. *)
let print_skips name (r : Pigeon.Task.result) =
  let one label (rep : Pigeon.Ingest.report) =
    if rep.Pigeon.Ingest.skipped <> [] then
      Printf.printf "  ! %s %s: %s\n%!" name label (Pigeon.Ingest.to_string rep)
  in
  one "train" r.Pigeon.Task.train_skips;
  one "test" r.Pigeon.Task.test_skips

(* ---------- Table 1: dataset sizes ---------- *)

let table1 () =
  header "Table 1 - amounts of data used per language (synthetic corpora)";
  Printf.printf "%-12s %8s %12s %10s %8s %10s\n" "Language" "files" "bytes"
    "dup-rm" "test" "test-bytes";
  List.iter
    (fun (lang : Pigeon.Lang.t) ->
      let n = scaled 400 in
      let config = { Corpus.Gen.default with Corpus.Gen.n_files = n; seed = 2018 } in
      let sources =
        Corpus.Gen.generate_sources config lang.Pigeon.Lang.render_lang
      in
      let entries =
        List.map (fun (path, source) -> { Corpus.Dataset.path; source }) sources
      in
      let deduped = Corpus.Dataset.dedup entries in
      let split = Corpus.Dataset.split_corpus ~seed:7 deduped in
      let all_stats = Corpus.Dataset.stats deduped in
      let test_stats = Corpus.Dataset.stats split.Corpus.Dataset.test in
      Printf.printf "%-12s %8d %12d %10d %8d %10d\n%!" lang.Pigeon.Lang.name
        all_stats.Corpus.Dataset.files all_stats.Corpus.Dataset.bytes
        (List.length entries - List.length deduped)
        test_stats.Corpus.Dataset.files test_stats.Corpus.Dataset.bytes)
    Pigeon.Lang.all

(* ---------- Table 2 (top): variable names ---------- *)

let table2_var () =
  header "Table 2 (top) - variable-name prediction with CRFs";
  Printf.printf "%-12s %-28s %9s %9s  %s\n" "Language" "Representation" "acc(%)"
    "train(s)" "params";
  let iters = 10 in
  List.iter
    (fun (lang : Pigeon.Lang.t) ->
      let train, test = corpus_for lang ~n:(scaled 240) in
      let row name acc secs params =
        Printf.printf "%-12s %-28s %9.1f %9.1f  %s\n%!" lang.Pigeon.Lang.name
          name (pct acc) secs params
      in
      let r =
        Pigeon.Task.run_crf ~crf_config:(crf_config iters) ~lang
          ~policy:Pigeon.Graphs.Locals ~train ~test ()
      in
      print_skips lang.Pigeon.Lang.name r;
      let cfg = lang.Pigeon.Lang.tuned in
      let oov =
        let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
        Crf.Train.oov_rate r.Pigeon.Task.model
          (Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals
             test)
      in
      row "AST paths (this work)" r.Pigeon.Task.summary.Pigeon.Metrics.accuracy
        r.Pigeon.Task.train_seconds
        (Printf.sprintf "%d/%d  (test OoV %.1f%%)" cfg.Astpath.Config.max_length
           cfg.Astpath.Config.max_width (100. *. oov));
      let nopath_repr =
        {
          (Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned ()) with
          Pigeon.Graphs.abstraction = Astpath.Abstraction.No_paths;
        }
      in
      let r0 =
        Pigeon.Task.run_crf ~repr:nopath_repr ~crf_config:(crf_config iters)
          ~lang ~policy:Pigeon.Graphs.Locals ~train ~test ()
      in
      row "no-paths" r0.Pigeon.Task.summary.Pigeon.Metrics.accuracy
        r0.Pigeon.Task.train_seconds "-";
      match lang.Pigeon.Lang.name with
      | "JavaScript" ->
          (* Unary-factor ablation (paper Section 5.1: unary factors
             from paths between occurrences of the same element
             "increase accuracy by about 1.5%"). *)
          let no_unary =
            {
              (Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned ())
              with
              Pigeon.Graphs.use_unary = false;
            }
          in
          let ru =
            Pigeon.Task.run_crf ~repr:no_unary ~crf_config:(crf_config iters)
              ~lang ~policy:Pigeon.Graphs.Locals ~train ~test ()
          in
          row "  AST paths, no unary factors"
            ru.Pigeon.Task.summary.Pigeon.Metrics.accuracy
            ru.Pigeon.Task.train_seconds "7/3";
          let t0 = Unix.gettimeofday () in
          let s =
            Baselines.Unuglify.run ~crf_config:(crf_config iters) ~lang ~train
              ~test ()
          in
          row "UnuglifyJS-style relations" s.Pigeon.Metrics.accuracy
            (Unix.gettimeofday () -. t0)
            "stmt-local";
          (* Trainer ablation (EXPERIMENTS.md documents why): under the
             slower structured-perceptron trainer the statement-local
             baseline benefits disproportionately at this corpus scale. *)
          let structured =
            {
              (crf_config iters) with
              Crf.Train.trainer = Crf.Fast.Structured;
            }
          in
          let rs =
            Pigeon.Task.run_crf ~crf_config:structured ~lang
              ~policy:Pigeon.Graphs.Locals ~train ~test ()
          in
          row "  AST paths, structured trainer"
            rs.Pigeon.Task.summary.Pigeon.Metrics.accuracy
            rs.Pigeon.Task.train_seconds "7/3";
          let t0 = Unix.gettimeofday () in
          let us =
            Baselines.Unuglify.run ~crf_config:structured ~lang ~train ~test ()
          in
          row "  stmt-local, structured trainer" us.Pigeon.Metrics.accuracy
            (Unix.gettimeofday () -. t0)
            "stmt-local"
      | "Java" ->
          let s = Baselines.Rule_based.evaluate test in
          row "rule-based" s.Pigeon.Metrics.accuracy 0.0 "-";
          let t0 = Unix.gettimeofday () in
          let s =
            Baselines.Ngram.run ~n:4 ~crf_config:(crf_config iters) ~lang ~train
              ~test ()
          in
          row "CRFs + 4-grams" s.Pigeon.Metrics.accuracy
            (Unix.gettimeofday () -. t0)
            "n=4"
      | _ -> ())
    Pigeon.Lang.all

(* ---------- Table 2 (middle): method names ---------- *)

let table2_method () =
  header "Table 2 (middle) - method-name prediction with CRFs";
  Printf.printf "%-12s %-28s %9s %7s  %s\n" "Language" "Representation" "acc(%)"
    "F1" "params";
  let iters = 10 in
  List.iter
    (fun (lang : Pigeon.Lang.t) ->
      let train, test = corpus_for lang ~n:(scaled 240) in
      let policy = Pigeon.Graphs.Methods { internal_only = false } in
      let r =
        Pigeon.Task.run_crf ~crf_config:(crf_config iters) ~lang ~policy ~train
          ~test ()
      in
      print_skips lang.Pigeon.Lang.name r;
      let cfg = lang.Pigeon.Lang.tuned_method in
      Printf.printf "%-12s %-28s %9.1f %7.1f  %d/%d\n%!" lang.Pigeon.Lang.name
        "AST paths (this work)"
        (pct r.Pigeon.Task.summary.Pigeon.Metrics.accuracy)
        (pct r.Pigeon.Task.summary.Pigeon.Metrics.f1)
        cfg.Astpath.Config.max_length cfg.Astpath.Config.max_width;
      let r_int =
        Pigeon.Task.run_crf ~crf_config:(crf_config iters) ~lang
          ~policy:(Pigeon.Graphs.Methods { internal_only = true })
          ~train ~test ()
      in
      Printf.printf "%-12s %-28s %9.1f %7.1f\n%!" "" "  (internal paths only)"
        (pct r_int.Pigeon.Task.summary.Pigeon.Metrics.accuracy)
        (pct r_int.Pigeon.Task.summary.Pigeon.Metrics.f1);
      let nopath_repr =
        {
          (Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned_method ())
          with
          Pigeon.Graphs.abstraction = Astpath.Abstraction.No_paths;
        }
      in
      let r0 =
        Pigeon.Task.run_crf ~repr:nopath_repr ~crf_config:(crf_config iters)
          ~lang ~policy ~train ~test ()
      in
      Printf.printf "%-12s %-28s %9.1f %7.1f\n%!" "" "  no-paths"
        (pct r0.Pigeon.Task.summary.Pigeon.Metrics.accuracy)
        (pct r0.Pigeon.Task.summary.Pigeon.Metrics.f1);
      if String.equal lang.Pigeon.Lang.name "Java" then begin
        let s = Baselines.Conv_attention.run ~lang ~train ~test () in
        Printf.printf "%-12s %-28s %9.1f %7.1f\n%!" ""
          "  conv-attention substitute" (pct s.Pigeon.Metrics.accuracy)
          (pct s.Pigeon.Metrics.f1)
      end)
    [ Pigeon.Lang.javascript; Pigeon.Lang.java; Pigeon.Lang.python ]

(* ---------- Table 2 (bottom): full types ---------- *)

let table2_type () =
  header "Table 2 (bottom) - full-type prediction in Java";
  let train, test = corpus_for Pigeon.Lang.java ~n:(scaled 240) in
  let r = Pigeon.Task.run_full_types ~crf_config:(crf_config 6) ~train ~test () in
  print_skips "Java-typed" r;
  let baseline = Pigeon.Task.string_of_type_baseline test in
  Printf.printf "%-32s %9s\n" "Model" "acc(%)";
  Printf.printf "%-32s %9.1f  (params 4/1, n=%d)\n" "AST paths (this work)"
    (pct r.Pigeon.Task.summary.Pigeon.Metrics.accuracy)
    r.Pigeon.Task.summary.Pigeon.Metrics.n;
  Printf.printf "%-32s %9.1f\n%!" "naive java.lang.String baseline"
    (pct baseline.Pigeon.Metrics.accuracy)

(* ---------- Table 3: word2vec ---------- *)

let table3 () =
  header "Table 3 - variable names with word2vec (JavaScript)";
  let lang = Pigeon.Lang.javascript in
  let train, test = corpus_for lang ~n:(scaled 300) in
  let sgns_config =
    { Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 20 }
  in
  Printf.printf "%-44s %9s\n" "Context representation" "acc(%)";
  List.iter
    (fun mode ->
      let r = Pigeon.W2v_task.run ~sgns_config ~lang ~mode ~train ~test () in
      Printf.printf "%-44s %9.1f\n%!"
        (Pigeon.W2v_task.mode_name mode)
        (pct r.Pigeon.W2v_task.summary.Pigeon.Metrics.accuracy))
    [
      Pigeon.W2v_task.Linear_tokens 2;
      Pigeon.W2v_task.Path_neighbors lang.Pigeon.Lang.tuned;
      Pigeon.W2v_task.Paths
        (Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned ());
    ]

(* ---------- Table 4: qualitative probes ---------- *)

let table4 () =
  header "Table 4 - top-k candidates and semantic similarity";
  let lang = Pigeon.Lang.javascript in
  let train, _ = corpus_for lang ~n:(scaled 300) in
  let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
  let graphs =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals train
  in
  let model = Crf.Train.train ~config:(crf_config 6) graphs in
  let fig1a =
    "var d = false;\nwhile (!d) { doSomething(); if (someCondition()) { d = true; } }\n"
  in
  Printf.printf "(a) candidates for the variable [d] of Fig. 1a:\n";
  List.iteri
    (fun i (name, _) -> Printf.printf "   %d. %s\n" (i + 1) name)
    (Pigeon.Similarity.crf_top_k ~model ~repr ~lang ~source:fig1a ~var:"d" ~k:8);
  let w2v =
    Pigeon.W2v_task.run
      ~sgns_config:
        { Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 20 }
      ~lang ~mode:(Pigeon.W2v_task.Paths repr) ~train ~test:[] ()
  in
  Printf.printf "(b) semantic similarity among names:\n";
  List.iter
    (fun (name, neighbors) ->
      Printf.printf "   %-10s ~ %s\n" name (String.concat " ~ " neighbors))
    (Pigeon.Similarity.w2v_neighbors ~model:w2v.Pigeon.W2v_task.model
       ~names:[ "done"; "items"; "item"; "count"; "request"; "i"; "result" ]
       ~k:3);
  print_string "";
  flush stdout

(* ---------- Fig. 10: length/width grid ---------- *)

let fig10 () =
  header "Fig. 10 - accuracy vs max_length and max_width (JS variable names)";
  let lang = Pigeon.Lang.javascript in
  let train, test = corpus_for lang ~n:(scaled 160) in
  let eval config =
    let repr = Pigeon.Graphs.default_repr ~config () in
    (Pigeon.Task.run_crf ~repr ~crf_config:(crf_config 10) ~lang
       ~policy:Pigeon.Graphs.Locals ~train ~test ())
      .Pigeon.Task.summary.Pigeon.Metrics.accuracy
  in
  let points =
    Pigeon.Grid.sweep ~lengths:[ 3; 4; 5; 6; 7 ] ~widths:[ 1; 2; 3 ] ~eval
  in
  Printf.printf "%-10s %8s %8s %8s\n" "max_length" "w=1" "w=2" "w=3";
  List.iter
    (fun l ->
      Printf.printf "%-10d" l;
      List.iter
        (fun w ->
          let p =
            List.find
              (fun p -> p.Pigeon.Grid.length = l && p.Pigeon.Grid.width = w)
              points
          in
          Printf.printf " %8.1f" (pct p.Pigeon.Grid.accuracy))
        [ 1; 2; 3 ];
      print_newline ())
    [ 3; 4; 5; 6; 7 ];
  let u = Baselines.Unuglify.run ~crf_config:(crf_config 10) ~lang ~train ~test () in
  Printf.printf "UnuglifyJS-style reference: %.1f\n" (pct u.Pigeon.Metrics.accuracy);
  let best = Pigeon.Grid.best points in
  Printf.printf "best: length=%d width=%d (%.1f%%)\n%!" best.Pigeon.Grid.length
    best.Pigeon.Grid.width
    (pct best.Pigeon.Grid.accuracy)

(* ---------- Fig. 11: downsampling ---------- *)

let fig11 () =
  header "Fig. 11 - downsampling keep-probability p (JS variable names)";
  let lang = Pigeon.Lang.javascript in
  let train, test = corpus_for lang ~n:(scaled 160) in
  Printf.printf "%-6s %9s %10s\n" "p" "acc(%)" "train(s)";
  List.iter
    (fun p ->
      let repr =
        {
          (Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned ()) with
          Pigeon.Graphs.downsample_p = p;
        }
      in
      let r =
        Pigeon.Task.run_crf ~repr ~crf_config:(crf_config 8) ~lang
          ~policy:Pigeon.Graphs.Locals ~train ~test ()
      in
      Printf.printf "%-6.1f %9.1f %10.1f\n%!" p
        (pct r.Pigeon.Task.summary.Pigeon.Metrics.accuracy)
        r.Pigeon.Task.train_seconds)
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

(* ---------- Fig. 12: abstraction ladder ---------- *)

let fig12 () =
  header
    "Fig. 12 - path abstractions: accuracy vs training time (Java variable names)";
  (* Run at the paper's Java setting (6/3 — longer paths than our
     corpus-tuned 5/2) on a larger corpus, so the abstraction level has
     a path vocabulary to shrink and a visible training-time effect. *)
  let lang = Pigeon.Lang.java in
  let train, test = corpus_for lang ~n:(scaled 400) in
  let config =
    Astpath.Config.make ~include_semi_paths:true ~max_length:6 ~max_width:3 ()
  in
  Printf.printf "%-16s %9s %10s\n" "abstraction" "acc(%)" "train(s)";
  List.iter
    (fun a ->
      let repr =
        {
          (Pigeon.Graphs.default_repr ~config ()) with
          Pigeon.Graphs.abstraction = a;
        }
      in
      let r =
        Pigeon.Task.run_crf ~repr ~crf_config:(crf_config 10) ~lang
          ~policy:Pigeon.Graphs.Locals ~train ~test ()
      in
      Printf.printf "%-16s %9.1f %10.1f\n%!" (Astpath.Abstraction.name a)
        (pct r.Pigeon.Task.summary.Pigeon.Metrics.accuracy)
        r.Pigeon.Task.train_seconds)
    (List.rev Astpath.Abstraction.all)

(* ---------- fault injection: corrupted corpora ---------- *)

(* Robustness check, not a paper figure: corrupt ~10% of every
   language's training corpus (binary garbage, a deep-nesting bomb, an
   unterminated string) and demand that training still completes, that
   the skip tally names exactly the injected files, and that accuracy
   on the clean test set stays sane. A mismatch is a bug in the
   ingestion layer, so it exits non-zero. *)
let fault () =
  header "Fault injection - training must survive a 10%-corrupt corpus";
  Printf.printf "%-12s %9s %9s %9s  %s\n" "Language" "injected" "skipped"
    "acc(%)" "skip kinds";
  let failures = ref 0 in
  List.iter
    (fun (lang : Pigeon.Lang.t) ->
      let train, test = corpus_for lang ~n:(scaled 160) in
      let corrupted = ref [] in
      let train' =
        List.mapi
          (fun i (path, src) ->
            if i mod 10 <> 3 then (path, src)
            else begin
              corrupted := path :: !corrupted;
              let src' =
                match i / 10 mod 3 with
                | 0 ->
                    (* recursion bomb: far beyond the depth limit *)
                    String.make 50_000 '('
                | 1 -> "\"an unterminated string literal\n  spilling over"
                | _ ->
                    (* binary garbage splattered over a real prefix *)
                    "\x00\x01\xfe\xff garbage "
                    ^ String.sub src 0 (min 40 (String.length src))
              in
              (path, src')
            end)
          train
      in
      let injected = List.length !corrupted in
      let r =
        Pigeon.Task.run_crf ~crf_config:(crf_config 4) ~lang
          ~policy:Pigeon.Graphs.Locals ~train:train' ~test ()
      in
      let skips = r.Pigeon.Task.train_skips in
      let skipped_files =
        List.map (fun s -> s.Pigeon.Ingest.file) skips.Pigeon.Ingest.skipped
      in
      let kinds =
        Pigeon.Ingest.counts skips
        |> List.map (fun (k, n) ->
               Printf.sprintf "%s:%d" (Lexkit.Diag.kind_name k) n)
        |> String.concat " "
      in
      Printf.printf "%-12s %9d %9d %9.1f  %s\n%!" lang.Pigeon.Lang.name
        injected
        (List.length skipped_files)
        (pct r.Pigeon.Task.summary.Pigeon.Metrics.accuracy)
        kinds;
      let missed =
        List.filter (fun p -> not (List.mem p skipped_files)) !corrupted
      in
      let spurious =
        List.filter (fun p -> not (List.mem p !corrupted)) skipped_files
      in
      if missed <> [] || spurious <> [] then begin
        incr failures;
        List.iter
          (Printf.printf "  FAIL: corrupt file not skipped: %s\n%!")
          missed;
        List.iter
          (Printf.printf "  FAIL: clean file skipped: %s\n%!")
          spurious
      end;
      if r.Pigeon.Task.test_skips.Pigeon.Ingest.skipped <> [] then begin
        incr failures;
        Printf.printf "  FAIL: clean test corpus reported skips\n%!"
      end)
    Pigeon.Lang.all;
  if !failures = 0 then
    Printf.printf "fault injection: skip tallies exact for all languages\n%!"
  else begin
    Printf.printf "fault injection: %d tally mismatches\n%!" !failures;
    exit 1
  end

(* ---------- extraction throughput (BENCH_extract.json) ---------- *)

(* The seed's extraction pipeline, kept verbatim as the measured
   baseline: parent-chain lca, chain-walk width, and list-allocating
   context construction, in the original quadratic double loop. *)
module Naive_extract = struct
  let lca idx a b =
    let a = ref a and b = ref b in
    while Ast.Index.depth idx !a > Ast.Index.depth idx !b do
      a := Ast.Index.parent idx !a
    done;
    while Ast.Index.depth idx !b > Ast.Index.depth idx !a do
      b := Ast.Index.parent idx !b
    done;
    while !a <> !b do
      a := Ast.Index.parent idx !a;
      b := Ast.Index.parent idx !b
    done;
    !a

  let child_toward idx ~lca n =
    let rec go n =
      if Ast.Index.parent idx n = lca then n else go (Ast.Index.parent idx n)
    in
    go n

  let width_between idx ~lca a b =
    if a = lca || b = lca then 0
    else
      abs
        (Ast.Index.child_rank idx (child_toward idx ~lca a)
        - Ast.Index.child_rank idx (child_toward idx ~lca b))

  let within idx (cfg : Astpath.Config.t) a b =
    let l = lca idx a b in
    let len =
      Ast.Index.depth idx a + Ast.Index.depth idx b
      - (2 * Ast.Index.depth idx l)
    in
    len >= 1
    && len <= cfg.Astpath.Config.max_length
    && width_between idx ~lca:l a b <= cfg.Astpath.Config.max_width

  let context idx a b =
    let l = lca idx a b in
    let up =
      List.filter (fun n -> n <> l) (Ast.Index.path_up idx a ~stop:l)
      |> List.map (Ast.Index.label idx)
    in
    let down =
      List.filter (fun n -> n <> l) (Ast.Index.path_up idx b ~stop:l)
      |> List.rev
      |> List.map (Ast.Index.label idx)
    in
    let value n =
      match Ast.Index.value idx n with
      | Some v -> v
      | None -> Ast.Index.label idx n
    in
    ( value a,
      Astpath.Path.of_chain ~up ~top:(Ast.Index.label idx l) ~down,
      value b )

  let leaf_pairs idx cfg =
    let leaves = Ast.Index.leaves idx in
    let n = Array.length leaves in
    let acc = ref [] in
    for j = n - 1 downto 1 do
      for i = j - 1 downto 0 do
        let a = leaves.(i) and b = leaves.(j) in
        if within idx cfg a b then acc := context idx a b :: !acc
      done
    done;
    !acc
end

let extract_bench () =
  Printf.printf "\nextraction throughput (largest synthetic corpora)\n";
  Printf.printf "%-12s %10s %12s %12s %8s %s\n" "Language" "contexts"
    "naive c/s" "iter c/s" "speedup" "bytes/ctx naive->iter";
  let timed f =
    (* best of 3 runs; allocation from the first (it is deterministic) *)
    let run () =
      let a0 = Gc.allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0, Gc.allocated_bytes () -. a0)
    in
    let r, t, a = run () in
    let t =
      List.fold_left
        (fun best _ ->
          let _, t', _ = run () in
          min best t')
        t [ 1; 2 ]
    in
    (r, t, a)
  in
  let rows =
    List.map
      (fun (lang : Pigeon.Lang.t) ->
        let n_files = scaled 400 in
        let config =
          { Corpus.Gen.default with Corpus.Gen.n_files; seed = 2018 }
        in
        let idxs =
          List.filter_map
            (fun (_, src) ->
              match lang.Pigeon.Lang.parse_tree src with
              | t -> Some (Ast.Index.build t)
              | exception Lexkit.Error _ -> None)
            (Corpus.Gen.generate_sources config lang.Pigeon.Lang.render_lang)
        in
        let cfg = lang.Pigeon.Lang.tuned in
        let naive_n, naive_t, naive_a =
          timed (fun () ->
              List.fold_left
                (fun n idx ->
                  n + List.length (Naive_extract.leaf_pairs idx cfg))
                0 idxs)
        in
        let iter_n, iter_t, iter_a =
          timed (fun () ->
              let n = ref 0 in
              List.iter
                (fun idx -> Astpath.Extract.iter idx cfg (fun _ -> incr n))
                idxs;
              !n)
        in
        assert (naive_n = iter_n);
        let naive_cps = float naive_n /. naive_t
        and iter_cps = float iter_n /. iter_t in
        Printf.printf "%-12s %10d %12.0f %12.0f %7.1fx %.0f -> %.0f\n%!"
          lang.Pigeon.Lang.name iter_n naive_cps iter_cps
          (iter_cps /. naive_cps)
          (naive_a /. float (max 1 naive_n))
          (iter_a /. float (max 1 iter_n));
        ( lang.Pigeon.Lang.name,
          List.length idxs,
          iter_n,
          naive_t,
          iter_t,
          naive_a,
          iter_a ))
      Pigeon.Lang.all
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  let total_n =
    List.fold_left (fun acc (_, _, n, _, _, _, _) -> acc + n) 0 rows
  in
  let t_naive = sum (fun (_, _, _, t, _, _, _) -> t)
  and t_iter = sum (fun (_, _, _, _, t, _, _) -> t) in
  let speedup = float total_n /. t_iter /. (float total_n /. t_naive) in
  Printf.printf "%-12s %10d %12.0f %12.0f %7.1fx\n%!" "TOTAL" total_n
    (float total_n /. t_naive)
    (float total_n /. t_iter)
    speedup;
  let oc = open_out (bench_file "extract") in
  Printf.fprintf oc "{\n  \"bench\": \"path-extraction\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n  \"languages\": [\n" !quick;
  List.iteri
    (fun i (name, files, n, tn, ti, an, ai) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"files\": %d, \"contexts\": %d,\n\
        \     \"naive_seconds\": %.4f, \"iter_seconds\": %.4f,\n\
        \     \"naive_contexts_per_sec\": %.0f, \"iter_contexts_per_sec\": \
         %.0f,\n\
        \     \"speedup\": %.2f,\n\
        \     \"naive_bytes_per_context\": %.0f, \"iter_bytes_per_context\": \
         %.0f}%s\n"
        name files n tn ti
        (float n /. tn)
        (float n /. ti)
        (float n /. ti /. (float n /. tn))
        (an /. float (max 1 n))
        (ai /. float (max 1 n))
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc
    "  \"total\": {\"contexts\": %d, \"naive_seconds\": %.4f, \
     \"iter_seconds\": %.4f,\n\
    \            \"naive_contexts_per_sec\": %.0f, \
     \"iter_contexts_per_sec\": %.0f, \"speedup\": %.2f}\n"
    total_n t_naive t_iter
    (float total_n /. t_naive)
    (float total_n /. t_iter)
    speedup;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" (bench_file "extract")

(* ---------- parallel scaling (BENCH_parallel.json) ---------- *)

(* Sweep the job count over the four parallel stages. Determinism is
   asserted unconditionally — extraction and evaluation must be
   identical for every job count, training identical at jobs=1 — and
   a speedup floor is enforced only when the host actually has the
   cores to show one (a 1-core container can prove correctness, not
   scaling; the JSON records which case ran). *)
let parallel_bench () =
  header "Parallel scaling - jobs sweep over extraction, CRF, SGNS, eval";
  let cores = Domain.recommended_domain_count () in
  let max_jobs = Parallel.default_jobs () in
  let jobs_list =
    List.sort_uniq Int.compare [ 1; 2; 4; max_jobs ]
  in
  Printf.printf "host: %d recommended domains; sweeping jobs = %s\n%!" cores
    (String.concat ", " (List.map string_of_int jobs_list));
  let pools = Hashtbl.create 4 in
  let pool jobs =
    match Hashtbl.find_opt pools jobs with
    | Some p -> p
    | None ->
        let p = Parallel.create ~jobs () in
        Hashtbl.add pools jobs p;
        p
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "  FAIL: %s\n%!" name
    end
  in
  let lang = Pigeon.Lang.javascript in
  let train, test = corpus_for lang ~n:(scaled 240) in
  let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
  (* Warm-up parse so first-touch costs don't pollute the jobs=1 row. *)
  ignore (lang.Pigeon.Lang.parse_tree (snd (List.hd train)));

  (* extraction: sources -> factor graphs *)
  let extract jobs =
    timed (fun () ->
        Pigeon.Task.graphs_of_sources_report ~pool:(pool jobs) ~repr ~lang
          ~policy:Pigeon.Graphs.Locals train)
  in
  let (base_graphs, base_report), t_extract1 = extract 1 in
  let extract_rows =
    List.map
      (fun jobs ->
        if jobs = 1 then (jobs, t_extract1)
        else begin
          let (gs, rep), t = extract jobs in
          check
            (Printf.sprintf "extraction jobs=%d differs from jobs=1" jobs)
            (gs = base_graphs && rep = base_report);
          (jobs, t)
        end)
      jobs_list
  in

  (* CRF training over the extracted graphs *)
  let test_graphs =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals test
  in
  let cfg = crf_config 6 in
  let seq_model, t_crf_seq = timed (fun () -> Crf.Train.train ~config:cfg base_graphs) in
  let seq_preds = List.map (Crf.Train.predict seq_model) test_graphs in
  let crf_rows =
    List.map
      (fun jobs ->
        let m, t =
          timed (fun () ->
              Crf.Train.train ~pool:(pool jobs) ~config:cfg base_graphs)
        in
        let acc = Crf.Train.accuracy m test_graphs in
        if jobs = 1 then
          check "CRF jobs=1 training differs from sequential"
            (List.map (Crf.Train.predict m) test_graphs = seq_preds);
        (jobs, t, acc))
      jobs_list
  in

  (* SGNS training over path contexts *)
  let w2v_pairs =
    List.concat_map
      (fun (_, src) ->
        Pigeon.W2v_task.pairs_of_source ~lang
          ~mode:(Pigeon.W2v_task.Paths repr) src
        |> List.concat_map (fun (name, ctxs) ->
               List.map (fun c -> (name, c)) ctxs))
      train
  in
  let sgns_cfg =
    { Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 5 }
  in
  let seq_sgns, t_sgns_seq =
    timed (fun () -> Word2vec.Sgns.train ~config:sgns_cfg w2v_pairs)
  in
  let sgns_rows =
    List.map
      (fun jobs ->
        let m, t =
          timed (fun () ->
              Word2vec.Sgns.train ~pool:(pool jobs)
                ~mode:Word2vec.Sgns.Deterministic ~config:sgns_cfg w2v_pairs)
        in
        if jobs = 1 then
          check "SGNS jobs=1 not bitwise-identical to sequential"
            (m.Word2vec.Sgns.word_vecs = seq_sgns.Word2vec.Sgns.word_vecs
            && m.Word2vec.Sgns.context_vecs
               = seq_sgns.Word2vec.Sgns.context_vecs);
        (jobs, t))
      jobs_list
  in
  let _, t_hogwild =
    timed (fun () ->
        Word2vec.Sgns.train ~pool:(pool max_jobs) ~mode:Word2vec.Sgns.Hogwild
          ~config:sgns_cfg w2v_pairs)
  in

  (* evaluation: batch MAP inference over the test graphs *)
  let eval jobs =
    timed (fun () ->
        Crf.Train.predict_batch ~pool:(pool jobs) seq_model test_graphs)
  in
  let base_eval, t_eval1 = eval 1 in
  check "eval jobs=1 differs from per-graph predict" (base_eval = seq_preds);
  let eval_rows =
    List.map
      (fun jobs ->
        if jobs = 1 then (jobs, t_eval1)
        else begin
          let preds, t = eval jobs in
          check
            (Printf.sprintf "eval jobs=%d differs from jobs=1" jobs)
            (preds = base_eval);
          (jobs, t)
        end)
      jobs_list
  in

  let speedup base t = base /. t in
  Printf.printf "%-12s %6s %10s %8s\n" "stage" "jobs" "seconds" "speedup";
  let print_stage name base rows =
    List.iter
      (fun (jobs, t) ->
        Printf.printf "%-12s %6d %10.3f %7.2fx\n%!" name jobs t
          (speedup base t))
      rows
  in
  print_stage "extraction" t_extract1 extract_rows;
  List.iter
    (fun (jobs, t, acc) ->
      Printf.printf "%-12s %6d %10.3f %7.2fx  (acc %.1f%%, seq %.3fs)\n%!"
        "crf-train" jobs t (speedup t_crf_seq t) (pct acc) t_crf_seq)
    crf_rows;
  print_stage "sgns-train" t_sgns_seq sgns_rows;
  Printf.printf "%-12s %6d %10.3f %7.2fx  (vs seq %.3fs)\n%!" "sgns-hogwild"
    max_jobs t_hogwild (speedup t_sgns_seq t_hogwild) t_sgns_seq;
  print_stage "eval" t_eval1 eval_rows;

  (* Speedup floor: only meaningful with real cores under the pool. *)
  let speedup_at rows jobs =
    match List.assoc_opt jobs rows with
    | Some t -> (match List.assoc_opt 1 rows with
        | Some t1 -> t1 /. t
        | None -> 1.)
    | None -> 1.
  in
  let gate_enforced = cores >= 4 in
  if gate_enforced then begin
    check
      (Printf.sprintf "extraction speedup at 4 jobs %.2fx < 2.5x"
         (speedup_at extract_rows 4))
      (speedup_at extract_rows 4 >= 2.5);
    check
      (Printf.sprintf "eval speedup at 4 jobs %.2fx < 2.5x"
         (speedup_at eval_rows 4))
      (speedup_at eval_rows 4 >= 2.5)
  end
  else
    Printf.printf
      "speedup floor not enforced: host has %d cores (< 4); determinism \
       checks ran unconditionally\n%!"
      cores;

  let oc = open_out (bench_file "parallel") in
  let row_json (jobs, t) base =
    Printf.sprintf "{\"jobs\": %d, \"seconds\": %.4f, \"speedup\": %.3f}" jobs
      t (base /. t)
  in
  let stage_json name base rows =
    Printf.sprintf "    \"%s\": [%s]" name
      (String.concat ", " (List.map (fun r -> row_json r base) rows))
  in
  Printf.fprintf oc "{\n  \"bench\": \"parallel-scaling\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n  \"cores\": %d,\n  \"jobs\": [%s],\n"
    !quick cores
    (String.concat ", " (List.map string_of_int jobs_list));
  Printf.fprintf oc "  \"speedup_floor_enforced\": %b,\n" gate_enforced;
  Printf.fprintf oc "  \"stages\": {\n%s,\n%s,\n%s,\n%s\n  },\n"
    (stage_json "extraction" t_extract1 extract_rows)
    (stage_json "crf_train" t_crf_seq
       (List.map (fun (j, t, _) -> (j, t)) crf_rows))
    (stage_json "sgns_train" t_sgns_seq sgns_rows)
    (stage_json "eval" t_eval1 eval_rows);
  Printf.fprintf oc
    "  \"sgns_hogwild\": {\"jobs\": %d, \"seconds\": %.4f, \"speedup\": \
     %.3f},\n"
    max_jobs t_hogwild (t_sgns_seq /. t_hogwild);
  Printf.fprintf oc "  \"determinism_failures\": %d\n}\n" !failures;
  close_out oc;
  Hashtbl.iter (fun _ p -> Parallel.shutdown p) pools;
  Printf.printf "wrote %s\n%!" (bench_file "parallel");
  if !failures > 0 then begin
    Printf.printf "parallel scaling: %d check failures\n%!" !failures;
    exit 1
  end
  else Printf.printf "parallel scaling: all determinism checks passed\n%!"

(* ---------- training kernels (BENCH_train.json) ---------- *)

(* The seed's CRF trainer, kept verbatim (sequential structured slice)
   as the measured baseline: Stdlib.Hashtbl weight tables and
   full-rescore ICM, exactly as they stood before the dense-kernel
   work. Graph/Candidates/Interner are unchanged by that work and are
   reused. The current trainer must reproduce this one's weights and
   predictions byte for byte — asserted below. *)
module Prev_crf = struct
  (* The seed's per-model string interner, pinned here now that the
     engine shares a guarded [Crf.Symbols] table instead. *)
  module Interner = struct
    type t = {
      tbl : (string, int) Hashtbl.t;
      mutable rev : string array;
      mutable n : int;
    }

    let create () = { tbl = Hashtbl.create 256; rev = Array.make 256 ""; n = 0 }

    let intern t s =
      match Hashtbl.find_opt t.tbl s with
      | Some i -> i
      | None ->
          let i = t.n in
          if i >= Array.length t.rev then begin
            let rev = Array.make (2 * Array.length t.rev) "" in
            Array.blit t.rev 0 rev 0 (Array.length t.rev);
            t.rev <- rev
          end;
          t.rev.(i) <- s;
          Hashtbl.add t.tbl s i;
          t.n <- i + 1;
          i

    let to_string t i = t.rev.(i)
    let size t = t.n
  end

  module Graph = Crf.Graph
  module Candidates = Crf.Candidates

  type egraph = {
    graph : Graph.t;
    unknown : int array;
    is_unknown : bool array;
    gold : int array;
    pw_a : int array;
    pw_b : int array;
    pw_rel : int array;
    pw_mult : float array;
    un_n : int array;
    un_rel : int array;
    un_mult : float array;
    touch_pw : int array array;
    touch_un : int array array;
  }

  let pw_key la rel lb = (la lsl 42) lor (rel lsl 18) lor lb
  let un_key l rel = (l lsl 24) lor rel

  type model = {
    labels : Interner.t;
    rels : Interner.t;
    pw : (int, float) Hashtbl.t;
    un : (int, float) Hashtbl.t;
    bias : (int, float) Hashtbl.t;
    pw_u : (int, float) Hashtbl.t;
    un_u : (int, float) Hashtbl.t;
    bias_u : (int, float) Hashtbl.t;
    mutable steps : int;
  }

  let create () =
    {
      labels = Interner.create ();
      rels = Interner.create ();
      pw = Hashtbl.create 65536;
      un = Hashtbl.create 16384;
      bias = Hashtbl.create 512;
      pw_u = Hashtbl.create 65536;
      un_u = Hashtbl.create 16384;
      bias_u = Hashtbl.create 512;
      steps = 0;
    }

  let get tbl k = match Hashtbl.find_opt tbl k with Some v -> v | None -> 0.

  let add tbl k d =
    if d <> 0. then
      match Hashtbl.find_opt tbl k with
      | Some v -> Hashtbl.replace tbl k (v +. d)
      | None -> Hashtbl.add tbl k d

  let encode m (g : Graph.t) =
    let n = Array.length g.Graph.nodes in
    let gold =
      Array.map
        (fun (nd : Graph.node) -> Interner.intern m.labels nd.Graph.gold)
        g.Graph.nodes
    in
    let is_unknown =
      Array.map
        (fun (nd : Graph.node) -> nd.Graph.kind = `Unknown)
        g.Graph.nodes
    in
    let unknown = Array.of_list (Graph.unknown_ids g) in
    let pw = ref [] and un = ref [] in
    List.iter
      (fun f ->
        match f with
        | Graph.Pairwise { a; b; rel; mult } ->
            pw := (a, b, Interner.intern m.rels rel, float_of_int mult) :: !pw
        | Graph.Unary { n = i; rel; mult } ->
            un := (i, Interner.intern m.rels rel, float_of_int mult) :: !un)
      g.Graph.factors;
    let pw = Array.of_list (List.rev !pw)
    and un = Array.of_list (List.rev !un) in
    let pw_a = Array.map (fun (a, _, _, _) -> a) pw in
    let pw_b = Array.map (fun (_, b, _, _) -> b) pw in
    let pw_rel = Array.map (fun (_, _, r, _) -> r) pw in
    let pw_mult = Array.map (fun (_, _, _, m) -> m) pw in
    let un_n = Array.map (fun (i, _, _) -> i) un in
    let un_rel = Array.map (fun (_, r, _) -> r) un in
    let un_mult = Array.map (fun (_, _, m) -> m) un in
    let touch_pw_l = Array.make n [] and touch_un_l = Array.make n [] in
    Array.iteri
      (fun fi a ->
        touch_pw_l.(a) <- fi :: touch_pw_l.(a);
        let b = pw_b.(fi) in
        if b <> a then touch_pw_l.(b) <- fi :: touch_pw_l.(b))
      pw_a;
    Array.iteri (fun fi i -> touch_un_l.(i) <- fi :: touch_un_l.(i)) un_n;
    {
      graph = g;
      unknown;
      is_unknown;
      gold;
      pw_a;
      pw_b;
      pw_rel;
      pw_mult;
      un_n;
      un_rel;
      un_mult;
      touch_pw = Array.map Array.of_list touch_pw_l;
      touch_un = Array.map Array.of_list touch_un_l;
    }

  type config = {
    max_candidates : int;
    max_passes : int;
    seed : int;
    iterations : int;
    averaged : bool;
    init_scale : float;
    init_min_count : int;
  }

  let node_score m eg n assignment l =
    let s = ref (get m.bias l) in
    Array.iter
      (fun fi ->
        let a = eg.pw_a.(fi) and b = eg.pw_b.(fi) in
        let la = if a = n then l else assignment.(a) in
        let lb = if b = n then l else assignment.(b) in
        s := !s +. (eg.pw_mult.(fi) *. get m.pw (pw_key la eg.pw_rel.(fi) lb)))
      eg.touch_pw.(n);
    Array.iter
      (fun fi ->
        s := !s +. (eg.un_mult.(fi) *. get m.un (un_key l eg.un_rel.(fi))))
      eg.touch_un.(n);
    !s

  let shuffle rng arr =
    let n = Array.length arr in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done

  let candidate_ids cfg cands m eg ~force_gold =
    let touching = Graph.touching eg.graph in
    Array.map
      (fun n ->
        let cs =
          Candidates.for_node cands eg.graph touching.(n) n
            ~max:cfg.max_candidates
        in
        let ids = List.map (Interner.intern m.labels) cs in
        let ids =
          if force_gold && not (List.mem eg.gold.(n) ids) then
            ids @ [ eg.gold.(n) ]
          else ids
        in
        Array.of_list ids)
      eg.unknown

  let map_assignment ~cand cfg cands m eg ~seed =
    let rng = Random.State.make [| seed |] in
    let default =
      match Candidates.global_top cands 1 with
      | [ l ] -> Interner.intern m.labels l
      | _ -> Interner.intern m.labels "?"
    in
    let assignment =
      Array.mapi (fun i g -> if eg.is_unknown.(i) then default else g) eg.gold
    in
    Array.iteri
      (fun i n ->
        if Array.length cand.(i) > 0 then assignment.(n) <- cand.(i).(0))
      eg.unknown;
    let best i n =
      let cs = cand.(i) in
      if Array.length cs = 0 then assignment.(n)
      else begin
        let best = ref assignment.(n) and best_score = ref neg_infinity in
        Array.iter
          (fun l ->
            let s = node_score m eg n assignment l in
            if s > !best_score then begin
              best_score := s;
              best := l
            end)
          cs;
        !best
      end
    in
    Array.iteri (fun i n -> assignment.(n) <- best i n) eg.unknown;
    let order = Array.init (Array.length eg.unknown) Fun.id in
    let changed = ref true and passes = ref 0 in
    while !changed && !passes < cfg.max_passes do
      changed := false;
      incr passes;
      shuffle rng order;
      Array.iter
        (fun i ->
          let n = eg.unknown.(i) in
          let l = best i n in
          if l <> assignment.(n) then begin
            assignment.(n) <- l;
            changed := true
          end)
        order
    done;
    assignment

  let update wr eg ~gold ~pred =
    let t = float_of_int wr.steps in
    let upd_pw k d =
      add wr.pw k d;
      add wr.pw_u k (t *. d)
    in
    let upd_un k d =
      add wr.un k d;
      add wr.un_u k (t *. d)
    in
    let upd_bias k d =
      add wr.bias k d;
      add wr.bias_u k (t *. d)
    in
    Array.iteri
      (fun fi a ->
        let b = eg.pw_b.(fi) in
        if eg.is_unknown.(a) || eg.is_unknown.(b) then begin
          let r = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
          let kg = pw_key gold.(a) r gold.(b)
          and kp = pw_key pred.(a) r pred.(b) in
          if kg <> kp then begin
            upd_pw kg mult;
            upd_pw kp (-.mult)
          end
        end)
      eg.pw_a;
    Array.iteri
      (fun fi i ->
        if eg.is_unknown.(i) then begin
          let r = eg.un_rel.(fi) and mult = eg.un_mult.(fi) in
          if gold.(i) <> pred.(i) then begin
            upd_un (un_key gold.(i) r) mult;
            upd_un (un_key pred.(i) r) (-.mult)
          end
        end)
      eg.un_n;
    Array.iter
      (fun n ->
        if gold.(n) <> pred.(n) then begin
          upd_bias gold.(n) 1.;
          upd_bias pred.(n) (-1.)
        end)
      eg.unknown

  let finalize_average m =
    if m.steps > 0 then begin
      let t = float_of_int m.steps in
      Hashtbl.iter (fun k u -> add m.pw k (-.u /. t)) m.pw_u;
      Hashtbl.iter (fun k u -> add m.un k (-.u /. t)) m.un_u;
      Hashtbl.iter (fun k u -> add m.bias k (-.u /. t)) m.bias_u
    end

  let bump_count tbl k v =
    Hashtbl.replace tbl k
      (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

  (* Log_counts init (the Train default; the Naive_bayes branch of the
     original is dead here, so label_total = 1). *)
  let init_from_counts m egs ~scale ~min_count =
    let pw_c = Hashtbl.create 65536 in
    let un_c = Hashtbl.create 16384 in
    let bias_c = Hashtbl.create 512 in
    Array.iter
      (fun eg ->
        Array.iteri
          (fun fi a ->
            let b = eg.pw_b.(fi) in
            if eg.is_unknown.(a) || eg.is_unknown.(b) then
              bump_count pw_c
                (pw_key eg.gold.(a) eg.pw_rel.(fi) eg.gold.(b))
                eg.pw_mult.(fi))
          eg.pw_a;
        Array.iteri
          (fun fi i ->
            if eg.is_unknown.(i) then
              bump_count un_c
                (un_key eg.gold.(i) eg.un_rel.(fi))
                eg.un_mult.(fi))
          eg.un_n;
        Array.iter (fun n -> bump_count bias_c eg.gold.(n) 1.) eg.unknown)
      egs;
    let mc = float_of_int min_count in
    Hashtbl.iter (fun k c -> if c >= mc then add m.pw k (scale *. log (1. +. c))) pw_c;
    Hashtbl.iter (fun k c -> if c >= mc then add m.un k (scale *. log (1. +. c))) un_c;
    Hashtbl.iter (fun k c -> add m.bias k (scale *. log (1. +. c))) bias_c

  (* Sequential structured-perceptron training, the seed's main loop. *)
  let train cfg cands graphs =
    let m = create () in
    let egs = Array.of_list (List.map (encode m) graphs) in
    init_from_counts m egs ~scale:cfg.init_scale ~min_count:cfg.init_min_count;
    let rng = Random.State.make [| cfg.seed |] in
    let cand_cache =
      Array.map (fun eg -> candidate_ids cfg cands m eg ~force_gold:true) egs
    in
    ignore (Candidates.global_top cands 1);
    let n = Array.length egs in
    for it = 0 to cfg.iterations - 1 do
      let order = Array.init n Fun.id in
      shuffle rng order;
      Array.iter
        (fun gi ->
          let eg = egs.(gi) in
          m.steps <- m.steps + 1;
          let pred =
            map_assignment ~cand:cand_cache.(gi) cfg cands m eg
              ~seed:(cfg.seed + it)
          in
          if pred <> eg.gold then update m eg ~gold:eg.gold ~pred)
        order
    done;
    if cfg.averaged then finalize_average m;
    m

  let predict cfg cands m g =
    let eg = encode m g in
    let cand = candidate_ids cfg cands m eg ~force_gold:false in
    let assignment = map_assignment ~cand cfg cands m eg ~seed:cfg.seed in
    Array.map (Interner.to_string m.labels) assignment

  (* Interner contents + weight tables in sorted-key order, the same
     shape the new trainer's sorted dump is compared in. *)
  let sorted_tables m =
    let s tbl =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    ( List.init (Interner.size m.labels) (Interner.to_string m.labels),
      List.init (Interner.size m.rels) (Interner.to_string m.rels),
      s m.pw,
      s m.un,
      s m.bias )
end

(* PR 4's two dense kernels, old vs new on the same workload:

   - CRF: structured-perceptron training (the ICM-heavy trainer) under
     [Fast.Full_rescore] — the pre-PR inference loop, kept selectable —
     against [Fast.Incremental], the score-cache + dirty-worklist
     engine. The engines must be byte-identical (weights and
     predictions are checked here and golden-tested in
     test_kernels.ml), so the ratio is pure kernel speed.

   - SGNS: the kept nested-array [Sgns.Reference] trainer against the
     flat-matrix kernel with the sigmoid LUT.

   Full runs enforce a >=2x floor on both; --quick only checks
   equivalence. Also timed, without a floor: the default trainer (the
   pseudolikelihood perceptron) scoring from weight rows
   ([Incremental]) against per-candidate lookups ([Full_rescore]), which
   must train byte-identical weights. Timings are min-of-2. Results go
   to BENCH_train.json. *)
let train_bench () =
  header "Training kernels - incremental ICM and flat-matrix SGNS vs pre-PR";
  let timed f =
    let run () =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let r, t = run () in
    let _, t' = run () in
    (r, min t t')
  in
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "  FAIL: %s\n%!" name
    end
  in

  (* CRF kernel *)
  let lang = Pigeon.Lang.javascript in
  let train, test = corpus_for lang ~n:(scaled 240) in
  let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
  let graphs =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals train
  in
  let test_graphs =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals test
  in
  let tcfg =
    { (crf_config 6) with Crf.Train.trainer = Crf.Fast.Structured }
  in
  let inf = tcfg.Crf.Train.inference in
  let prev_cfg =
    {
      Prev_crf.max_candidates = inf.Crf.Inference.max_candidates;
      max_passes = inf.Crf.Inference.max_passes;
      seed = inf.Crf.Inference.seed;
      iterations = tcfg.Crf.Train.iterations;
      averaged = tcfg.Crf.Train.averaged;
      init_scale = Crf.Fast.default_config.Crf.Fast.init_scale;
      init_min_count = Crf.Fast.default_config.Crf.Fast.init_min_count;
    }
  in
  (* Both sides time the full trainer entry point, candidate-table
     build included. *)
  let (prev_cands, m_prev), t_crf_old =
    timed (fun () ->
        let cands = Crf.Candidates.build graphs in
        (cands, Prev_crf.train prev_cfg cands graphs))
  in
  let m_new, t_crf_new =
    timed (fun () -> Crf.Train.train ~config:tcfg graphs)
  in
  let m_full, t_crf_full =
    timed (fun () ->
        Crf.Train.train
          ~config:{ tcfg with Crf.Train.engine = Crf.Fast.Full_rescore }
          graphs)
  in
  let sorted_dump fast =
    let d = Crf.Fast.dump fast in
    let s l = List.sort compare l in
    ( d.Crf.Fast.d_labels,
      d.Crf.Fast.d_rels,
      s d.Crf.Fast.d_pw,
      s d.Crf.Fast.d_un,
      s d.Crf.Fast.d_bias )
  in
  let new_dump = sorted_dump m_new.Crf.Train.fast in
  let weights_ok =
    Prev_crf.sorted_tables m_prev = new_dump
    && sorted_dump m_full.Crf.Train.fast = new_dump
  in
  let preds_ok =
    let new_preds = List.map (Crf.Train.predict m_new) test_graphs in
    List.map (Prev_crf.predict prev_cfg prev_cands m_prev) test_graphs
    = new_preds
    && List.map (Crf.Train.predict m_full) test_graphs = new_preds
  in
  check "CRF kernels trained different weights" weights_ok;
  check "CRF kernels predict differently" preds_ok;
  let crf_speedup = t_crf_old /. t_crf_new in
  Printf.printf "%-24s %12s %12s %8s  %s\n" "kernel" "old(s)" "new(s)"
    "speedup" "identical";
  Printf.printf "%-24s %12.3f %12.3f %7.2fx  %b\n%!" "crf-train" t_crf_old
    t_crf_new crf_speedup (weights_ok && preds_ok);
  Printf.printf "%-24s %12s %12.3f %7.2fx  (dense tables, full-rescore ICM)\n%!"
    "  crf-train interim" "-" t_crf_full (t_crf_old /. t_crf_full);

  (* The default trainer: row walks vs one lookup per candidate *)
  let dcfg = crf_config 6 in
  let m_rows, t_pl_rows =
    timed (fun () -> Crf.Train.train ~config:dcfg graphs)
  in
  let m_lookup, t_pl_lookup =
    timed (fun () ->
        Crf.Train.train
          ~config:{ dcfg with Crf.Train.engine = Crf.Fast.Full_rescore }
          graphs)
  in
  let pl_ok =
    sorted_dump m_rows.Crf.Train.fast = sorted_dump m_lookup.Crf.Train.fast
  in
  check "default trainer: row walks and lookups trained different weights"
    pl_ok;
  let pl_speedup = t_pl_lookup /. t_pl_rows in
  Printf.printf "%-24s %12.3f %12.3f %7.2fx  %b  (lookups vs rows)\n%!"
    "crf-train default" t_pl_lookup t_pl_rows pl_speedup pl_ok;

  (* SGNS kernel *)
  let w2v_pairs =
    List.concat_map
      (fun (_, src) ->
        Pigeon.W2v_task.pairs_of_source ~lang
          ~mode:(Pigeon.W2v_task.Paths repr) src
        |> List.concat_map (fun (name, ctxs) ->
               List.map (fun c -> (name, c)) ctxs))
      train
  in
  let sgns_cfg = Word2vec.Sgns.default_config in
  let m_sgns_new, t_sgns_new =
    timed (fun () -> Word2vec.Sgns.train ~config:sgns_cfg w2v_pairs)
  in
  let m_sgns_old, t_sgns_old =
    timed (fun () -> Word2vec.Sgns.Reference.train ~config:sgns_cfg w2v_pairs)
  in
  check "SGNS vocabularies differ"
    (Array.length m_sgns_new.Word2vec.Sgns.word_vecs
     = Array.length m_sgns_old.Word2vec.Sgns.word_vecs
    && Array.length m_sgns_new.Word2vec.Sgns.context_vecs
       = Array.length m_sgns_old.Word2vec.Sgns.context_vecs);
  let sgns_speedup = t_sgns_old /. t_sgns_new in
  Printf.printf "%-24s %12.3f %12.3f %7.2fx  (pairs %d, dim %d, epochs %d)\n%!"
    "sgns-train" t_sgns_old t_sgns_new sgns_speedup (List.length w2v_pairs)
    sgns_cfg.Word2vec.Sgns.dim sgns_cfg.Word2vec.Sgns.epochs;

  (* Floor: full runs only — quick workloads are too small to time. *)
  let floor = 2.0 in
  let floor_enforced = not !quick in
  if floor_enforced then begin
    check
      (Printf.sprintf "crf-train speedup %.2fx < %.1fx" crf_speedup floor)
      (crf_speedup >= floor);
    check
      (Printf.sprintf "sgns-train speedup %.2fx < %.1fx" sgns_speedup floor)
      (sgns_speedup >= floor)
  end
  else Printf.printf "speedup floor not enforced (--quick)\n%!";

  let oc = open_out (bench_file "train") in
  Printf.fprintf oc "{\n  \"bench\": \"training-kernels\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n" !quick;
  Printf.fprintf oc
    "  \"crf_train\": {\"trainer\": \"structured\", \"graphs\": %d, \
     \"iterations\": %d,\n\
    \                \"old_seconds\": %.4f, \"new_seconds\": %.4f, \
     \"speedup\": %.2f,\n\
    \                \"weights_identical\": %b, \"predictions_identical\": \
     %b},\n"
    (List.length graphs) 6 t_crf_old t_crf_new crf_speedup weights_ok preds_ok;
  Printf.fprintf oc
    "  \"crf_train_default\": {\"trainer\": \"pseudolikelihood\", \
     \"graphs\": %d, \"iterations\": %d,\n\
    \                        \"lookup_seconds\": %.4f, \"rows_seconds\": \
     %.4f, \"speedup\": %.2f,\n\
    \                        \"weights_identical\": %b},\n"
    (List.length graphs) 6 t_pl_lookup t_pl_rows pl_speedup pl_ok;
  Printf.fprintf oc
    "  \"sgns_train\": {\"pairs\": %d, \"dim\": %d, \"epochs\": %d,\n\
    \                 \"old_seconds\": %.4f, \"new_seconds\": %.4f, \
     \"speedup\": %.2f},\n"
    (List.length w2v_pairs) sgns_cfg.Word2vec.Sgns.dim
    sgns_cfg.Word2vec.Sgns.epochs t_sgns_old t_sgns_new sgns_speedup;
  Printf.fprintf oc "  \"speedup_floor\": %.1f,\n" floor;
  Printf.fprintf oc "  \"speedup_floor_enforced\": %b,\n" floor_enforced;
  Printf.fprintf oc "  \"failures\": %d\n}\n" !failures;
  close_out oc;
  Printf.printf "wrote %s\n%!" (bench_file "train");
  if !failures > 0 then begin
    Printf.printf "training kernels: %d check failures\n%!" !failures;
    exit 1
  end
  else Printf.printf "training kernels: all checks passed\n%!"

(* ---------- interned pipeline (BENCH_intern.json) ---------- *)

(* The seed's string-keyed candidate table, pinned as the measured
   baseline for the interning work: "\x1f"-concatenated pairwise keys,
   find-then-replace double lookups, string-keyed inner tables. One
   normalization: [sorted_global] gets the (count desc, label asc)
   total order the interned table uses — the seed's ranking was
   hash-order dependent on count ties, and the identity asserts below
   need a well-defined answer. *)
module Prev_cands = struct
  type counts = (string, int) Hashtbl.t

  type t = {
    unary : (string, counts) Hashtbl.t;
    pairwise : (string, counts) Hashtbl.t;
    global : counts;
    mutable sorted_global : string list;
  }

  let bump ?(by = 1) tbl key label =
    let inner =
      match Hashtbl.find_opt tbl key with
      | Some h -> h
      | None ->
          let h = Hashtbl.create 4 in
          Hashtbl.add tbl key h;
          h
    in
    Hashtbl.replace inner label
      (by + Option.value (Hashtbl.find_opt inner label) ~default:0)

  let pw_key ~dir ~rel ~other = String.concat "\x1f" [ dir; rel; other ]

  let build graphs =
    let t =
      {
        unary = Hashtbl.create 1024;
        pairwise = Hashtbl.create 4096;
        global = Hashtbl.create 256;
        sorted_global = [];
      }
    in
    List.iter
      (fun (g : Crf.Graph.t) ->
        let gold = Crf.Graph.gold_assignment g in
        Array.iter
          (fun (n : Crf.Graph.node) ->
            if n.Crf.Graph.kind = `Unknown then
              Hashtbl.replace t.global n.Crf.Graph.gold
                (1
                + Option.value
                    (Hashtbl.find_opt t.global n.Crf.Graph.gold)
                    ~default:0))
          g.Crf.Graph.nodes;
        List.iter
          (fun f ->
            match f with
            | Crf.Graph.Unary { n; rel; mult } ->
                if g.Crf.Graph.nodes.(n).Crf.Graph.kind = `Unknown then
                  bump ~by:mult t.unary rel gold.(n)
            | Crf.Graph.Pairwise { a; b; rel; mult } ->
                if g.Crf.Graph.nodes.(a).Crf.Graph.kind = `Unknown then
                  bump ~by:mult t.pairwise
                    (pw_key ~dir:"L" ~rel ~other:gold.(b))
                    gold.(a);
                if g.Crf.Graph.nodes.(b).Crf.Graph.kind = `Unknown then
                  bump ~by:mult t.pairwise
                    (pw_key ~dir:"R" ~rel ~other:gold.(a))
                    gold.(b))
          g.Crf.Graph.factors)
      graphs;
    t

  let sorted_global t =
    if t.sorted_global = [] && Hashtbl.length t.global > 0 then begin
      let items = Hashtbl.fold (fun l c acc -> (l, c) :: acc) t.global [] in
      t.sorted_global <-
        List.map fst
          (List.sort
             (fun (la, a) (lb, b) ->
               let c = Int.compare b a in
               if c <> 0 then c else String.compare la lb)
             items)
    end;
    t.sorted_global

  let global_top t k =
    let rec take k = function
      | [] -> []
      | _ when k <= 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    take k (sorted_global t)

  let for_node t (g : Crf.Graph.t) factors n ~max =
    let scores : counts = Hashtbl.create 16 in
    let merge inner =
      Hashtbl.iter
        (fun l c ->
          Hashtbl.replace scores l
            (c + Option.value (Hashtbl.find_opt scores l) ~default:0))
        inner
    in
    List.iter
      (fun f ->
        match f with
        | Crf.Graph.Unary { n = m; rel; _ } when m = n -> (
            match Hashtbl.find_opt t.unary rel with
            | Some inner -> merge inner
            | None -> ())
        | Crf.Graph.Pairwise { a; b; rel; _ } when a = n ->
            if g.Crf.Graph.nodes.(b).Crf.Graph.kind = `Known then
              Option.iter merge
                (Hashtbl.find_opt t.pairwise
                   (pw_key ~dir:"L" ~rel ~other:g.Crf.Graph.nodes.(b).Crf.Graph.gold))
        | Crf.Graph.Pairwise { a; b; rel; _ } when b = n ->
            if g.Crf.Graph.nodes.(a).Crf.Graph.kind = `Known then
              Option.iter merge
                (Hashtbl.find_opt t.pairwise
                   (pw_key ~dir:"R" ~rel ~other:g.Crf.Graph.nodes.(a).Crf.Graph.gold))
        | _ -> ())
      factors;
    let ranked =
      Hashtbl.fold (fun l c acc -> (l, c) :: acc) scores []
      |> List.sort (fun (la, a) (lb, b) ->
             let c = Int.compare b a in
             if c <> 0 then c else String.compare la lb)
      |> List.map fst
    in
    let seen = Hashtbl.create 16 in
    let out = ref [] and count = ref 0 in
    let push l =
      if !count < max && not (Hashtbl.mem seen l) then begin
        Hashtbl.add seen l ();
        out := l :: !out;
        incr count
      end
    in
    List.iter push ranked;
    List.iter push (global_top t max);
    List.rev !out
end

(* The seed's per-node candidate interning over the string table. *)
let prev_candidate_ids (cfg : Prev_crf.config) cands (m : Prev_crf.model)
    (eg : Prev_crf.egraph) ~force_gold =
  let touching = Crf.Graph.touching eg.Prev_crf.graph in
  Array.map
    (fun n ->
      let cs =
        Prev_cands.for_node cands eg.Prev_crf.graph touching.(n) n
          ~max:cfg.Prev_crf.max_candidates
      in
      let ids = List.map (Prev_crf.Interner.intern m.Prev_crf.labels) cs in
      let ids =
        if force_gold && not (List.mem eg.Prev_crf.gold.(n) ids) then
          ids @ [ eg.Prev_crf.gold.(n) ]
        else ids
      in
      Array.of_list ids)
    eg.Prev_crf.unknown

(* The interning PR, old vs new on the same workload:

   - encode: graphs -> train-ready state (candidate table, encoded
     factor arrays, per-slot candidate id arrays). Old is the pinned
     string pipeline: string-keyed candidate counts, per-model Hashtbl
     interner hashing every gold label and relation occurrence, and
     candidate lists interned string-by-string per node. New is the
     shared guarded symbol table + int-keyed counts. The decoded
     candidate sets must be identical.

   - model save+load: the v2 text format (kept writer + loader)
     against the v3 binary sections, for both the CRF and the SGNS
     model. v3 must round-trip byte-identically and both loads must
     predict byte-identically to the in-memory model.

   - heap: live words held by the train-ready state, old vs new, plus
     the process peak (top_heap_words).

   Full runs enforce >=1.5x on encode and >=2x on both model loads;
   --quick only checks the identities. Results go to BENCH_intern.json. *)
let intern_bench () =
  header "Interned pipeline - shared symbol table and binary v3 models vs pre-PR";
  let timed f =
    let run () =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let r, t = run () in
    let _, t' = run () in
    (r, min t t')
  in
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "  FAIL: %s\n%!" name
    end
  in

  let lang = Pigeon.Lang.javascript in
  let train, test = corpus_for lang ~n:(scaled 240) in
  let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
  let graphs =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals train
  in
  let test_graphs =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals test
  in

  (* Interning is corpus-order deterministic: a second pass over the
     same sources must reproduce graphs, symbol tables and counts. *)
  let graphs2 =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals train
  in
  check "graph construction not deterministic" (graphs = graphs2);
  let c1 = Crf.Candidates.build graphs in
  let c2 = Crf.Candidates.build graphs2 in
  check "candidate interning not corpus-order deterministic"
    (Crf.Candidates.dump_ids c1 = Crf.Candidates.dump_ids c2
    && Crf.Symbols.snapshot (Crf.Candidates.symbols c1)
       = Crf.Symbols.snapshot (Crf.Candidates.symbols c2));

  (* Encode to train-ready state. *)
  let tcfg = crf_config 6 in
  let inf = tcfg.Crf.Train.inference in
  let prev_cfg =
    {
      Prev_crf.max_candidates = inf.Crf.Inference.max_candidates;
      max_passes = inf.Crf.Inference.max_passes;
      seed = inf.Crf.Inference.seed;
      iterations = tcfg.Crf.Train.iterations;
      averaged = tcfg.Crf.Train.averaged;
      init_scale = Crf.Fast.default_config.Crf.Fast.init_scale;
      init_min_count = Crf.Fast.default_config.Crf.Fast.init_min_count;
    }
  in
  let fcfg =
    {
      Crf.Fast.default_config with
      Crf.Fast.max_candidates = inf.Crf.Inference.max_candidates;
      max_passes = inf.Crf.Inference.max_passes;
      seed = inf.Crf.Inference.seed;
    }
  in
  let encode_old () =
    let cands = Prev_cands.build graphs in
    let m = Prev_crf.create () in
    let egs = List.map (Prev_crf.encode m) graphs in
    let cand =
      List.map (fun eg -> prev_candidate_ids prev_cfg cands m eg ~force_gold:true) egs
    in
    (cands, m, egs, cand)
  in
  let encode_new () =
    let cands = Crf.Candidates.build graphs in
    let m = Crf.Fast.create ~symbols:(Crf.Candidates.symbols cands) () in
    let egs = List.map (Crf.Fast.encode m) graphs in
    let cand =
      List.map
        (fun eg -> Crf.Fast.candidate_ids fcfg cands m eg ~force_gold:true)
        egs
    in
    (cands, m, egs, cand)
  in
  let (o_cands, o_m, o_egs, o_cand), t_enc_old = timed encode_old in
  let (n_cands, n_m, n_egs, n_cand), t_enc_new = timed encode_new in
  let syms = Crf.Fast.symbols n_m in
  check "candidate sets differ from the string pipeline"
    (List.map
       (Array.map (Array.map (Prev_crf.Interner.to_string o_m.Prev_crf.labels)))
       o_cand
    = List.map (Array.map (Array.map (Crf.Symbols.label_string syms))) n_cand);
  check "global label ranking differs from the string pipeline"
    (Prev_cands.global_top o_cands 10 = Crf.Candidates.global_top n_cands 10);
  check "unknown slots differ from the string pipeline"
    (List.map (fun (eg : Prev_crf.egraph) -> eg.Prev_crf.unknown) o_egs
    = List.map Crf.Fast.unknown_nodes n_egs);
  let enc_speedup = t_enc_old /. t_enc_new in
  Printf.printf "%-24s %12s %12s %8s  %s\n" "stage" "old(s)" "new(s)" "speedup"
    "identical";
  Printf.printf "%-24s %12.3f %12.3f %7.2fx  %b  (%d graphs)\n%!" "encode"
    t_enc_old t_enc_new enc_speedup (!failures = 0) (List.length graphs);

  (* Model save+load: v2 text vs v3 binary. *)
  let model = Crf.Train.train ~config:tcfg graphs in

  (* jobs=1 training is byte-identical run to run (the symbol tables it
     interns are corpus-order deterministic). Dumps are compared before
     any prediction: predicting interns unseen test-set strings into
     the model's table, as the seed's interner did. *)
  let model2 = Crf.Train.train ~config:tcfg graphs2 in
  let sorted_dump fast =
    let d = Crf.Fast.dump fast in
    let s l = List.sort compare l in
    ( d.Crf.Fast.d_labels,
      d.Crf.Fast.d_rels,
      s d.Crf.Fast.d_pw,
      s d.Crf.Fast.d_un,
      s d.Crf.Fast.d_bias )
  in
  check "jobs=1 training weights not byte-identical across runs"
    (sorted_dump model.Crf.Train.fast = sorted_dump model2.Crf.Train.fast);
  let preds m = List.map (Crf.Train.predict m) test_graphs in
  let p0 = preds model in
  check "jobs=1 predictions not byte-identical across runs" (preds model2 = p0);

  let v2_path = "bench_model_v2.tmp" and v3_path = "bench_model_v3.tmp" in
  let (), t_save_v2 =
    timed (fun () ->
        let oc = open_out_bin v2_path in
        Crf.Serialize.to_channel_v2 model oc;
        close_out oc)
  in
  let (), t_save_v3 = timed (fun () -> Crf.Serialize.save model v3_path) in
  let m_v2, t_load_v2 = timed (fun () -> Crf.Serialize.load_exn v2_path) in
  let m_v3, t_load_v3 = timed (fun () -> Crf.Serialize.load_exn v3_path) in
  let bytes_v3 = Crf.Serialize.to_string model in
  check "crf v3 round-trip not byte-identical"
    (String.equal bytes_v3 (Crf.Serialize.to_string m_v3));
  check "crf v2-loaded model predicts differently" (preds m_v2 = p0);
  check "crf v3-loaded model predicts differently" (preds m_v3 = p0);
  let file_size path = (Unix.stat path).Unix.st_size in
  let crf_size_v2 = file_size v2_path and crf_size_v3 = file_size v3_path in
  let crf_load_speedup = t_load_v2 /. t_load_v3 in
  Printf.printf "%-24s %12.3f %12.3f %7.2fx  (v2 %d B, v3 %d B)\n%!" "crf-save"
    t_save_v2 t_save_v3 (t_save_v2 /. t_save_v3) crf_size_v2 crf_size_v3;
  Printf.printf "%-24s %12.3f %12.3f %7.2fx\n%!" "crf-load" t_load_v2 t_load_v3
    crf_load_speedup;

  let w2v_pairs =
    List.concat_map
      (fun (_, src) ->
        Pigeon.W2v_task.pairs_of_source ~lang
          ~mode:(Pigeon.W2v_task.Paths repr) src
        |> List.concat_map (fun (name, ctxs) ->
               List.map (fun c -> (name, c)) ctxs))
      train
  in
  let sgns_cfg = Word2vec.Sgns.default_config in
  let w2v = Word2vec.Sgns.train ~config:sgns_cfg w2v_pairs in
  let w2_path = "bench_w2v_v2.tmp" and w3_path = "bench_w2v_v3.tmp" in
  let (), t_wsave_v2 =
    timed (fun () ->
        let oc = open_out_bin w2_path in
        Word2vec.Serialize.to_channel_v2 w2v oc;
        close_out oc)
  in
  let (), t_wsave_v3 = timed (fun () -> Word2vec.Serialize.save w2v w3_path) in
  let w_v2, t_wload_v2 = timed (fun () -> Word2vec.Serialize.load_exn w2_path) in
  let w_v3, t_wload_v3 = timed (fun () -> Word2vec.Serialize.load_exn w3_path) in
  check "w2v v3 round-trip not byte-identical"
    (String.equal (Word2vec.Serialize.to_string w2v)
       (Word2vec.Serialize.to_string w_v3));
  (* v2 text rounds vectors to 9 significant digits; only v3 carries
     the exact bits. *)
  let near a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun va vb ->
           Array.length va = Array.length vb
           && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-6) va vb)
         a b
  in
  check "w2v v2-loaded vectors differ beyond text precision"
    (near w_v2.Word2vec.Sgns.word_vecs w2v.Word2vec.Sgns.word_vecs
    && near w_v2.Word2vec.Sgns.context_vecs w2v.Word2vec.Sgns.context_vecs);
  check "w2v v3-loaded vectors differ"
    (w_v3.Word2vec.Sgns.word_vecs = w2v.Word2vec.Sgns.word_vecs
    && w_v3.Word2vec.Sgns.context_vecs = w2v.Word2vec.Sgns.context_vecs);
  let w2v_size_v2 = file_size w2_path and w2v_size_v3 = file_size w3_path in
  let w2v_load_speedup = t_wload_v2 /. t_wload_v3 in
  Printf.printf "%-24s %12.3f %12.3f %7.2fx  (v2 %d B, v3 %d B)\n%!" "w2v-save"
    t_wsave_v2 t_wsave_v3 (t_wsave_v2 /. t_wsave_v3) w2v_size_v2 w2v_size_v3;
  Printf.printf "%-24s %12.3f %12.3f %7.2fx\n%!" "w2v-load" t_wload_v2
    t_wload_v3 w2v_load_speedup;

  (* Zero-copy mmap loaders, against the same v4 files: map-load walks
     only headers and weight keys and wires the float runs to Bigarray
     views over the mapped file, so load time stops scaling with the
     weight payload. The deferred checksum pass lands on the first
     inference (first-batch latency below); extra mapped models cost
     page-cache, not private heap (RSS deltas below). *)
  let map_load_crf path =
    match Crf.Serialize.load_mapped path with
    | Ok r -> r
    | Error d ->
        check
          (Printf.sprintf "crf map-load failed: %s" (Lexkit.Diag.to_string d))
          false;
        (model, Lexkit.Storage.heap)
  in
  let map_load_w2v path =
    match Word2vec.Serialize.load_mapped path with
    | Ok r -> r
    | Error d ->
        check
          (Printf.sprintf "w2v map-load failed: %s" (Lexkit.Diag.to_string d))
          false;
        (Word2vec.Sgns.view_of w2v, Lexkit.Storage.heap)
  in
  let (m_mapped, crf_map_storage), t_map_crf =
    timed (fun () -> map_load_crf v3_path)
  in
  check "crf map-load downgraded to a heap copy"
    (Lexkit.Storage.mapped_bytes crf_map_storage > 0);
  let crf_map_speedup = t_load_v3 /. t_map_crf in
  Printf.printf "%-24s %12.3f %12.3f %7.2fx  (copy-load vs map-load)\n%!"
    "crf-map-load" t_load_v3 t_map_crf crf_map_speedup;
  (* First batch after a map-load pays the lazy checksum verification
     plus the page faults — the cost the O(header) load deferred.
     Single run by construction: only the first batch is "first". *)
  let t0_first = Unix.gettimeofday () in
  let p_mapped = preds m_mapped in
  let t_first_batch = Unix.gettimeofday () -. t0_first in
  check "mapped crf model predicts differently" (p_mapped = p0);
  Printf.printf "%-24s %12.3f %12s  (deferred checksums + faults)\n%!"
    "map-first-batch" t_first_batch "";
  let (w2v_view, w2v_map_storage), t_map_w2v =
    timed (fun () -> map_load_w2v w3_path)
  in
  check "w2v map-load downgraded to a heap copy"
    (Lexkit.Storage.mapped_bytes w2v_map_storage > 0);
  check "w2v mapped view differs from the trained model"
    (String.equal
       (Word2vec.Serialize.to_string (Word2vec.Sgns.heap_of_view w2v_view))
       (Word2vec.Serialize.to_string w2v));
  let w2v_map_speedup = t_wload_v3 /. t_map_w2v in
  Printf.printf "%-24s %12.3f %12.3f %7.2fx  (copy-load vs map-load)\n%!"
    "w2v-map-load" t_wload_v3 t_map_w2v w2v_map_speedup;
  (* Resident-set delta for holding 1 vs 3 mapped models open at once;
     mappings of one file share pages, so the marginal model should
     cost far less than its file size. Reported, not asserted — RSS is
     GC- and kernel-noisy. *)
  let rss_kb () =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> -1
    | ic -> (
        let rec go () =
          match input_line ic with
          | exception End_of_file ->
              close_in ic;
              -1
          | line ->
              if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then begin
                close_in ic;
                try
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d"
                    (fun k -> k)
                with Scanf.Scan_failure _ | Failure _ -> -1
              end
              else go ()
        in
        go ())
  in
  Gc.compact ();
  let rss0 = rss_kb () in
  let one_model = Sys.opaque_identity (map_load_crf v3_path) in
  let rss1 = rss_kb () in
  let more_models =
    Sys.opaque_identity [ map_load_crf v3_path; map_load_crf v3_path ]
  in
  let rss3 = rss_kb () in
  let rss_delta_1 = if rss0 < 0 || rss1 < 0 then -1 else rss1 - rss0 in
  let rss_delta_3 = if rss0 < 0 || rss3 < 0 then -1 else rss3 - rss0 in
  ignore (Sys.opaque_identity one_model);
  ignore (Sys.opaque_identity more_models);
  Printf.printf "%-24s %+11dkB %+11dkB  (RSS delta: 1 vs 3 mapped models)\n%!"
    "map-resident" rss_delta_1 rss_delta_3;
  List.iter Sys.remove [ v2_path; v3_path; w2_path; w3_path ];

  (* Heap: live words held by the train-ready state — the counts, the
     vocabulary (interner / symbol table), the encoded factor arrays
     and the candidate id arrays. The models' weight tables are empty
     at this point and presized differently (Itbl arrays vs Hashtbl
     buckets), so both are dropped to keep the comparison about the
     representation. The state must be local to the measuring call so
     the old pipeline's tables are dead before the new one is built. *)
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let measure build =
    let base = live_words () in
    let state = Sys.opaque_identity (build ()) in
    let live = live_words () - base in
    ignore (Sys.opaque_identity state);
    live
  in
  let live_old =
    measure (fun () ->
        let cands, m, egs, cand = encode_old () in
        (cands, m.Prev_crf.labels, m.Prev_crf.rels, egs, cand))
  in
  let live_new =
    measure (fun () ->
        let cands, _m, egs, cand = encode_new () in
        (cands, egs, cand))
  in
  let peak = (Gc.stat ()).Gc.top_heap_words in
  Printf.printf "%-24s %12d %12d %7.2fx  (live heap words)\n%!" "encoded-state"
    live_old live_new
    (float_of_int live_old /. float_of_int (max 1 live_new));
  Printf.printf "peak heap: %d words (%.1f MB)\n%!" peak
    (float_of_int (peak * Sys.word_size / 8) /. 1048576.);

  (* Floors: full runs only — quick workloads are too small to time.
     Quick runs still surface any miss as a visible warning line. *)
  let encode_floor = 1.5 and load_floor = 2.0 and map_floor = 5.0 in
  let floor_enforced = not !quick in
  let floor_check name speedup floor =
    if floor_enforced then
      check
        (Printf.sprintf "%s speedup %.2fx < %.1fx" name speedup floor)
        (speedup >= floor)
    else if speedup < floor then
      Printf.printf "  warn: %s speedup %.2fx below-floor %.1fx (not enforced)\n%!"
        name speedup floor
  in
  floor_check "encode" enc_speedup encode_floor;
  floor_check "crf model-load" crf_load_speedup load_floor;
  floor_check "w2v model-load" w2v_load_speedup load_floor;
  floor_check "crf map-load" crf_map_speedup map_floor;
  floor_check "w2v map-load" w2v_map_speedup map_floor;
  if not floor_enforced then
    Printf.printf "speedup floors not enforced (--quick)\n%!";

  let oc = open_out (bench_file "intern") in
  Printf.fprintf oc "{\n  \"bench\": \"interned-pipeline\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n" !quick;
  Printf.fprintf oc
    "  \"encode\": {\"graphs\": %d, \"old_seconds\": %.4f, \"new_seconds\": \
     %.4f, \"speedup\": %.2f},\n"
    (List.length graphs) t_enc_old t_enc_new enc_speedup;
  Printf.fprintf oc
    "  \"crf_model\": {\"v2_bytes\": %d, \"v3_bytes\": %d,\n\
    \                \"save_v2_seconds\": %.4f, \"save_v3_seconds\": %.4f,\n\
    \                \"load_v2_seconds\": %.4f, \"load_v3_seconds\": %.4f, \
     \"load_speedup\": %.2f},\n"
    crf_size_v2 crf_size_v3 t_save_v2 t_save_v3 t_load_v2 t_load_v3
    crf_load_speedup;
  Printf.fprintf oc
    "  \"w2v_model\": {\"v2_bytes\": %d, \"v3_bytes\": %d,\n\
    \                \"save_v2_seconds\": %.4f, \"save_v3_seconds\": %.4f,\n\
    \                \"load_v2_seconds\": %.4f, \"load_v3_seconds\": %.4f, \
     \"load_speedup\": %.2f},\n"
    w2v_size_v2 w2v_size_v3 t_wsave_v2 t_wsave_v3 t_wload_v2 t_wload_v3
    w2v_load_speedup;
  Printf.fprintf oc
    "  \"heap\": {\"old_live_words\": %d, \"new_live_words\": %d, \
     \"peak_heap_words\": %d},\n"
    live_old live_new peak;
  Printf.fprintf oc
    "  \"mmap\": {\"crf_copy_seconds\": %.4f, \"crf_map_seconds\": %.4f, \
     \"crf_map_speedup\": %.2f,\n\
    \           \"w2v_copy_seconds\": %.4f, \"w2v_map_seconds\": %.4f, \
     \"w2v_map_speedup\": %.2f,\n\
    \           \"first_batch_seconds\": %.4f,\n\
    \           \"rss_delta_1_model_kb\": %d, \"rss_delta_3_models_kb\": %d, \
     \"map_floor\": %.1f},\n"
    t_load_v3 t_map_crf crf_map_speedup t_wload_v3 t_map_w2v w2v_map_speedup
    t_first_batch rss_delta_1 rss_delta_3 map_floor;
  Printf.fprintf oc "  \"encode_floor\": %.1f,\n" encode_floor;
  Printf.fprintf oc "  \"load_floor\": %.1f,\n" load_floor;
  Printf.fprintf oc "  \"floors_enforced\": %b,\n" floor_enforced;
  Printf.fprintf oc "  \"failures\": %d\n}\n" !failures;
  close_out oc;
  Printf.printf "wrote %s\n%!" (bench_file "intern");
  if !failures > 0 then begin
    Printf.printf "interned pipeline: %d check failures\n%!" !failures;
    exit 1
  end
  else Printf.printf "interned pipeline: all checks passed\n%!"

(* ---------- bechamel micro-benchmarks ---------- *)

let micro () =
  header "Micro-benchmarks (bechamel) - core pipeline operations";
  let lang = Pigeon.Lang.javascript in
  let src =
    snd
      (List.hd
         (Corpus.Gen.generate_sources
            { Corpus.Gen.default with Corpus.Gen.n_files = 1; seed = 3 }
            Corpus.Render.Js))
  in
  let tree = lang.Pigeon.Lang.parse_tree src in
  let idx = Ast.Index.build tree in
  let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
  let graph =
    Pigeon.Graphs.build repr ~def_labels:lang.Pigeon.Lang.def_labels
      ~policy:Pigeon.Graphs.Locals tree
  in
  let model = Crf.Train.train ~config:(crf_config 2) [ graph ] in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"pigeon"
      [
        Test.make ~name:"parse+lower"
          (Staged.stage (fun () -> ignore (lang.Pigeon.Lang.parse_tree src)));
        Test.make ~name:"index-build"
          (Staged.stage (fun () -> ignore (Ast.Index.build tree)));
        Test.make ~name:"path-extraction-7-3"
          (Staged.stage (fun () ->
               ignore (Astpath.Extract.leaf_pairs idx lang.Pigeon.Lang.tuned)));
        Test.make ~name:"path-extract-iter-7-3"
          (Staged.stage (fun () ->
               let n = ref 0 in
               Astpath.Extract.iter idx lang.Pigeon.Lang.tuned (fun _ ->
                   incr n)));
        Test.make ~name:"graph-build"
          (Staged.stage (fun () ->
               ignore
                 (Pigeon.Graphs.build repr
                    ~def_labels:lang.Pigeon.Lang.def_labels
                    ~policy:Pigeon.Graphs.Locals tree)));
        Test.make ~name:"map-inference"
          (Staged.stage (fun () -> ignore (Crf.Train.predict model graph)));
      ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    Benchmark.all cfg instances tests
  in
  let results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock (benchmark ())
  in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-32s %14.0f ns/run\n%!" name est
      | _ -> Printf.printf "%-32s (no estimate)\n%!" name)
    results;
  extract_bench ()

(* ---------- serve daemon throughput (BENCH_serve.json) ---------- *)

(* N concurrent clients hammer a live daemon over a Unix socket with a
   mixed well-formed/hostile request stream, measuring sustained
   requests/sec and per-request latency (p50/p99). Hostile requests
   must come back as structured errors without slowing the daemon
   down — the isolation story under load, not just in unit tests.
   Floors (full runs only): rps >= 30 and p99 <= 500 ms with 4
   clients. Results go to BENCH_serve.json. *)
let serve_bench () =
  header "SERVE: daemon throughput and latency under concurrent clients";
  let lang = Pigeon.Lang.javascript in
  let train, test = corpus_for lang ~n:(scaled 160) in
  let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
  let graphs =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals
      train
  in
  let model = Crf.Train.train ~config:(crf_config 4) graphs in
  let engine = Serve.Engine.create ~model () in
  let pool = Parallel.create () in
  let sock = Filename.temp_file "pigeon-bench" ".sock" in
  Sys.remove sock;
  let cfg =
    { Serve.Server.default_config with Serve.Server.unix_socket = Some sock }
  in
  let server = Serve.Server.start ~pool engine cfg in
  let sources =
    match List.map snd test with
    | [] -> [| "var fallback = 1; var other = fallback + 1;\n" |]
    | xs -> Array.of_list xs
  in
  let predict_line ~id code =
    Serve.Json.to_string
      (Serve.Json.Obj
         [ ("op", Serve.Json.Str "predict");
           ("id", Serve.Json.Num (float_of_int id));
           ("lang", Serve.Json.Str lang.Pigeon.Lang.name);
           ("code", Serve.Json.Str code) ])
  in
  let hostile_code =
    "function f(){ return " ^ String.make 4_000 '(' ^ "1"
    ^ String.make 4_000 ')' ^ "; }\n"
  in
  (* byte-identity spot check before the timed burst: the daemon reply
     equals Engine.handle's for the same request bytes *)
  (let c = Serve.Client.connect_unix sock in
   let line = predict_line ~id:0 sources.(0) in
   (match Serve.Client.request c line with
   | Some reply ->
       let direct =
         match Serve.Protocol.request_of_line line with
         | Ok r -> Serve.Engine.handle engine r
         | Error _ -> assert false
       in
       if not (String.equal reply direct) then
         failwith "serve bench: daemon reply differs from Engine.handle"
   | None -> failwith "serve bench: daemon closed the spot-check connection");
   Serve.Client.close c);
  let n_clients = 4 in
  let per_client = if !quick then 15 else 60 in
  let lat = Array.make (n_clients * per_client) 0.0 in
  let oks = Array.make n_clients 0 and errs = Array.make n_clients 0 in
  let n_hostile = ref 0 in
  let client k =
    let c = Serve.Client.connect_unix sock in
    for i = 0 to per_client - 1 do
      let id = (k * per_client) + i in
      let hostile = id mod 7 = 3 in
      let line =
        if hostile then predict_line ~id hostile_code
        else predict_line ~id sources.(id mod Array.length sources)
      in
      let t0 = Unix.gettimeofday () in
      match Serve.Client.request c line with
      | Some reply ->
          lat.(id) <- Unix.gettimeofday () -. t0;
          if Serve.Protocol.reply_ok reply then oks.(k) <- oks.(k) + 1
          else errs.(k) <- errs.(k) + 1;
          if hostile && Serve.Protocol.reply_ok reply then
            failwith "serve bench: hostile request accepted"
      | None -> failwith "serve bench: daemon dropped a client"
    done;
    Serve.Client.close c
  in
  List.iter
    (fun id -> if id mod 7 = 3 then incr n_hostile)
    (List.init (n_clients * per_client) Fun.id);
  let wall0 = Unix.gettimeofday () in
  let threads = List.init n_clients (fun k -> Thread.create client k) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. wall0 in
  let stats = Serve.Server.stats server in
  Serve.Server.request_stop server;
  Serve.Server.wait server;
  Parallel.shutdown pool;
  let total = n_clients * per_client in
  let ok_total = Array.fold_left ( + ) 0 oks
  and err_total = Array.fold_left ( + ) 0 errs in
  if err_total < !n_hostile then
    failwith "serve bench: some hostile requests did not error";
  if ok_total + err_total <> total then
    failwith "serve bench: lost replies";
  let rps = float_of_int total /. wall in
  Array.sort compare lat;
  let pctl p =
    lat.(min (total - 1) (int_of_float (p *. float_of_int total))) *. 1000.
  in
  let p50 = pctl 0.50 and p99 = pctl 0.99 in
  Printf.printf
    "%d clients x %d requests (%d hostile): %.1f req/s, p50 %.1f ms, p99 %.1f \
     ms, %d batches (max %d)\n\
     %!"
    n_clients per_client !n_hostile rps p50 p99 stats.Serve.Protocol.batches
    stats.Serve.Protocol.max_batch;
  let rps_floor = 30.0 and p99_floor_ms = 500.0 in
  let floor_enforced = not !quick in
  if floor_enforced then begin
    if rps < rps_floor then
      failwith
        (Printf.sprintf "serve throughput %.1f req/s < floor %.1f" rps
           rps_floor);
    if p99 > p99_floor_ms then
      failwith
        (Printf.sprintf "serve p99 %.1f ms > floor %.1f ms" p99 p99_floor_ms)
  end
  else Printf.printf "latency floors not enforced (--quick)\n%!";
  (* ---- overload burst: 2x more clients than queue slots ----
     A bounded queue (max_queue) with a deliberately slowed batcher
     (deterministic pre-batch delay, max_batch=1 so batching cannot
     absorb the burst). Twice as many round-trip clients as queue
     slots keeps the queue saturated: the excess must be shed with
     structured "overloaded" replies — which is exactly what keeps
     p99 bounded under overload instead of growing with the backlog.
     Every request still gets exactly one reply. *)
  let ov_queue = 4 in
  let ov_clients = 2 * ov_queue in
  let ov_sock = Filename.temp_file "pigeon-bench-ov" ".sock" in
  Sys.remove ov_sock;
  let ov_cfg =
    {
      Serve.Server.default_config with
      Serve.Server.unix_socket = Some ov_sock;
      max_batch = 1;
      max_queue = ov_queue;
      faults =
        { Serve.Faults.disabled with Serve.Faults.pre_batch_delay_ms = 20 };
    }
  in
  let ov_server = Serve.Server.start engine ov_cfg in
  let ov_per = if !quick then 10 else 30 in
  let ov_total = ov_clients * ov_per in
  let ov_lat = Array.make ov_total 0.0 in
  let ov_shed = Array.make ov_clients 0 in
  let ov_client k =
    let c = Serve.Client.connect_unix ~read_timeout:60. ov_sock in
    for i = 0 to ov_per - 1 do
      let id = (k * ov_per) + i in
      let line = predict_line ~id sources.(id mod Array.length sources) in
      let t0 = Unix.gettimeofday () in
      match Serve.Client.request c line with
      | Some reply -> (
          ov_lat.(id) <- Unix.gettimeofday () -. t0;
          match Serve.Protocol.reply_error reply with
          | Some e when e.Serve.Protocol.kind = "overloaded" ->
              ov_shed.(k) <- ov_shed.(k) + 1
          | Some e ->
              failwith
                ("serve bench: unexpected error under overload: "
                ^ e.Serve.Protocol.msg)
          | None -> ())
      | None -> failwith "serve bench: daemon dropped an overload client"
    done;
    Serve.Client.close c
  in
  let ov_threads = List.init ov_clients (fun k -> Thread.create ov_client k) in
  List.iter Thread.join ov_threads;
  let ov_stats = Serve.Server.stats ov_server in
  Serve.Server.request_stop ov_server;
  Serve.Server.wait ov_server;
  let shed_total = Array.fold_left ( + ) 0 ov_shed in
  let shed_rate = float_of_int shed_total /. float_of_int ov_total in
  if ov_stats.Serve.Protocol.shed < shed_total then
    failwith "serve bench: shed replies exceed the daemon's shed counter";
  if ov_stats.Serve.Protocol.queue_hw > ov_queue then
    failwith "serve bench: queue high-water above max_queue";
  Array.sort compare ov_lat;
  let ov_pctl p =
    ov_lat.(min (ov_total - 1) (int_of_float (p *. float_of_int ov_total)))
    *. 1000.
  in
  let ov_p50 = ov_pctl 0.50 and ov_p99 = ov_pctl 0.99 in
  Printf.printf
    "overload: %d clients vs %d queue slots, %d requests: %.0f%% shed, p50 \
     %.1f ms, p99 %.1f ms (queue high-water %d)\n\
     %!"
    ov_clients ov_queue ov_total (100. *. shed_rate) ov_p50 ov_p99
    ov_stats.Serve.Protocol.queue_hw;
  let ov_p99_floor_ms = 2000.0 in
  if floor_enforced then begin
    if shed_total = 0 then
      failwith "serve bench: 2x overload burst shed nothing — queue unbounded?";
    if ov_p99 > ov_p99_floor_ms then
      failwith
        (Printf.sprintf "serve overload p99 %.1f ms > floor %.1f ms" ov_p99
           ov_p99_floor_ms)
  end;
  let oc = open_out (bench_file "serve") in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"quick\": %b,\n" !quick;
  Printf.fprintf oc "  \"clients\": %d,\n  \"requests_per_client\": %d,\n"
    n_clients per_client;
  Printf.fprintf oc "  \"hostile_requests\": %d,\n" !n_hostile;
  Printf.fprintf oc "  \"ok_replies\": %d,\n  \"error_replies\": %d,\n"
    ok_total err_total;
  Printf.fprintf oc "  \"jobs\": %d,\n" stats.Serve.Protocol.jobs;
  Printf.fprintf oc "  \"batches\": %d,\n  \"max_batch\": %d,\n"
    stats.Serve.Protocol.batches stats.Serve.Protocol.max_batch;
  Printf.fprintf oc "  \"rps\": %.2f,\n  \"p50_ms\": %.2f,\n  \"p99_ms\": %.2f,\n"
    rps p50 p99;
  Printf.fprintf oc "  \"rps_floor\": %.1f,\n  \"p99_floor_ms\": %.1f,\n"
    rps_floor p99_floor_ms;
  Printf.fprintf oc "  \"floors_enforced\": %b,\n" floor_enforced;
  Printf.fprintf oc "  \"overload\": {\n";
  Printf.fprintf oc "    \"clients\": %d,\n    \"max_queue\": %d,\n"
    ov_clients ov_queue;
  Printf.fprintf oc "    \"requests\": %d,\n    \"shed\": %d,\n" ov_total
    shed_total;
  Printf.fprintf oc "    \"shed_rate\": %.4f,\n" shed_rate;
  Printf.fprintf oc "    \"queue_high_water\": %d,\n"
    ov_stats.Serve.Protocol.queue_hw;
  Printf.fprintf oc "    \"p50_ms\": %.2f,\n    \"p99_ms\": %.2f,\n" ov_p50
    ov_p99;
  Printf.fprintf oc "    \"p99_floor_ms\": %.1f\n" ov_p99_floor_ms;
  Printf.fprintf oc "  }\n";
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" (bench_file "serve")

(* ---------- incremental extraction (BENCH_incremental.json) ---------- *)

(* Editor workload: replay a generated edit trace (one buffer, one
   function replaced/inserted/deleted per step) through the
   incremental extraction cache and compare it, per edit, against
   from-scratch extraction. Two gates:

   - correctness, always: the cached context stream must be
     byte-identical (rendered strings, in order) to from-scratch at
     EVERY step, including the cold open;
   - speed, full runs only: >= 5x median per-edit extraction speedup
     (the cached side's first — truly incremental — extract after each
     edit, against a fresh-index fresh-tab extract of the same buffer;
     index builds excluded from both sides). End-to-end (index build
     included) is reported unenforced.

   Results go to BENCH_incremental.json. *)

let incremental_bench () =
  header "incremental: edit-trace extraction (cache vs from-scratch)";
  let lang = Pigeon.Lang.javascript in
  let cfg = lang.Pigeon.Lang.tuned in
  let funcs = if !quick then 10 else 28 in
  let steps = if !quick then 8 else 30 in
  let gen_config =
    {
      Corpus.Gen.default with
      Corpus.Gen.min_funcs = funcs;
      max_funcs = funcs;
      seed = 2018;
    }
  in
  let trace = Corpus.Gen.edit_trace ~steps gen_config lang.Pigeon.Lang.render_lang in
  let cache = Astpath.Cache.create () in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* Per step: (extract speedup, end-to-end speedup); step 0 is the
     cold open — charged to the cache (it records everything) but not
     an edit, so it stays out of the per-edit medians. *)
  let ext_speedups = ref [] in
  let e2e_speedups = ref [] in
  let contexts = ref 0 in
  let nodes = ref 0 in
  List.iteri
    (fun step src ->
      let tree = lang.Pigeon.Lang.parse_tree src in
      (* From-scratch side: fresh index, fresh tab — what a stateless
         server does for every request. *)
      let idx_s = ref None in
      let t_idx_s = time (fun () -> idx_s := Some (Ast.Index.build tree)) in
      let idx_s = Option.get !idx_s in
      let n_s = ref 0 in
      let t_ext_s =
        time (fun () ->
            let tab = Astpath.Context.Tab.create idx_s in
            Astpath.Extract.iter_all ~tab idx_s cfg (fun _ -> incr n_s))
      in
      (* Cached side: session index (shared label table), then the
         first — truly incremental — extract after this edit. *)
      let idx_c = ref None in
      let t_idx_c =
        time (fun () -> idx_c := Some (Astpath.Cache.index cache tree))
      in
      let idx_c = Option.get !idx_c in
      let n_c = ref 0 in
      let t_ext_c =
        time (fun () ->
            Astpath.Extract.iter_all_cached ~cache idx_c cfg (fun _ ->
                incr n_c))
      in
      if !n_s <> !n_c then
        failwith
          (Printf.sprintf
             "incremental bench: step %d emitted %d cached contexts vs %d \
              from-scratch"
             step !n_c !n_s);
      (* Byte-identity, every step: untimed replay of both sides,
         rendered. The cache re-extract is all-hits — the contract
         says its stream is still the from-scratch one. *)
      let strings iter =
        let acc = ref [] in
        iter (fun c -> acc := Astpath.Context.to_string c :: !acc);
        List.rev !acc
      in
      let s_side =
        strings (fun f ->
            let tab = Astpath.Context.Tab.create idx_s in
            Astpath.Extract.iter_all ~tab idx_s cfg f)
      in
      let c_side =
        strings (fun f -> Astpath.Extract.iter_all_cached ~cache idx_c cfg f)
      in
      List.iteri
        (fun i (a, b) ->
          if not (String.equal a b) then
            failwith
              (Printf.sprintf
                 "incremental bench: step %d context %d differs:\n\
                    scratch: %s\n\
                    cached:  %s"
                 step i a b))
        (List.combine s_side c_side);
      contexts := !contexts + !n_s;
      nodes := !nodes + Ast.Index.size idx_s;
      if step > 0 then begin
        let ext = t_ext_s /. Float.max 1e-9 t_ext_c in
        let e2e =
          (t_idx_s +. t_ext_s) /. Float.max 1e-9 (t_idx_c +. t_ext_c)
        in
        ext_speedups := ext :: !ext_speedups;
        e2e_speedups := e2e :: !e2e_speedups
      end)
    trace;
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let ext_med = median !ext_speedups and e2e_med = median !e2e_speedups in
  let stats = Astpath.Cache.stats cache in
  Printf.printf
    "%d-function buffer, %d edits, %d contexts/step avg, %d nodes/step avg\n"
    funcs steps
    (!contexts / (steps + 1))
    (!nodes / (steps + 1));
  Printf.printf
    "cache: %d hits, %d misses, %d contexts replayed, %d paths stored (%d \
     bytes)\n"
    stats.Astpath.Cache.hits stats.Astpath.Cache.misses
    (Astpath.Cache.replayed cache)
    stats.Astpath.Cache.cached_paths stats.Astpath.Cache.bytes;
  Printf.printf
    "per-edit extraction speedup: median %.2fx (min %.2fx, max %.2fx)\n"
    ext_med
    (List.fold_left Float.min infinity !ext_speedups)
    (List.fold_left Float.max 0. !ext_speedups);
  Printf.printf "per-edit end-to-end speedup (incl. index build): median %.2fx\n%!"
    e2e_med;
  (* Floor: full runs only — quick traces are too small to time. *)
  let floor = 5.0 in
  let floor_enforced = not !quick in
  if floor_enforced then begin
    if ext_med < floor then
      failwith
        (Printf.sprintf
           "incremental extraction speedup %.2fx < %.1fx floor" ext_med floor)
  end
  else if ext_med < floor then
    Printf.printf
      "  warn: extraction speedup %.2fx below-floor %.1f (not enforced)\n%!"
      ext_med floor;
  let oc = open_out (bench_file "incremental") in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"quick\": %b,\n" !quick;
  Printf.fprintf oc "  \"functions\": %d,\n  \"edits\": %d,\n" funcs steps;
  Printf.fprintf oc "  \"avg_contexts_per_step\": %d,\n"
    (!contexts / (steps + 1));
  Printf.fprintf oc "  \"avg_nodes_per_step\": %d,\n" (!nodes / (steps + 1));
  Printf.fprintf oc "  \"cache_hits\": %d,\n  \"cache_misses\": %d,\n"
    stats.Astpath.Cache.hits stats.Astpath.Cache.misses;
  Printf.fprintf oc "  \"contexts_replayed\": %d,\n"
    (Astpath.Cache.replayed cache);
  Printf.fprintf oc "  \"cached_paths\": %d,\n  \"cache_bytes\": %d,\n"
    stats.Astpath.Cache.cached_paths stats.Astpath.Cache.bytes;
  Printf.fprintf oc "  \"extract_speedup_median\": %.3f,\n" ext_med;
  Printf.fprintf oc "  \"e2e_speedup_median\": %.3f,\n" e2e_med;
  Printf.fprintf oc "  \"extract_speedups\": [%s],\n"
    (String.concat ", "
       (List.rev_map (Printf.sprintf "%.3f") !ext_speedups));
  Printf.fprintf oc "  \"speedup_floor\": %.1f,\n" floor;
  Printf.fprintf oc "  \"speedup_floor_enforced\": %b\n" floor_enforced;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" (bench_file "incremental")

(* ---------- out-of-core training (BENCH_oocore.json) ---------- *)

(* The out-of-core contract, measured end to end on the SGNS trainer:

   - extraction streams (word, context) pairs to disk shards, so the
     corpus never materializes in memory. We report the bytes the
     in-memory pipeline would have held (streamed estimate: string
     payloads plus list/tuple overhead) against a heap cap;
   - training streams the shards back; peak live heap is sampled
     (after a full major collection) at every shard boundary;
   - a run killed mid-training (simulated by raising out of the
     checkpoint callback) resumes from its checkpoint to a final model
     byte-identical to the uninterrupted run. The CRF trainer's
     resume gets the same check on a smaller graph corpus.

   Full runs enforce: materialized estimate > cap, peak live heap
   under the cap, and both resume byte-identities. --quick only warns
   (its corpus is too small to dwarf the base heap). Results go to
   BENCH_oocore.json. *)

let oocore_bench () =
  header "out-of-core: disk shards, bounded heap, checkpoint/resume";
  let lang = Pigeon.Lang.javascript in
  let n_files = if !quick then 40 else 240 in
  let sgns_config =
    {
      Word2vec.Sgns.default_config with
      Word2vec.Sgns.dim = 32;
      epochs = (if !quick then 2 else 3);
    }
  in
  let cap_mb = 32 in
  let cap_words = cap_mb * 1024 * 1024 / 8 in
  let records_per_shard = 16384 in
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pigeon-bench-oocore-%d" (Unix.getpid ()))
  in
  Unix.mkdir tmp 0o700;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm tmp with Sys_error _ -> ())
  @@ fun () ->
  let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
  let peak_live = ref 0 in
  let sample_live () =
    Gc.full_major ();
    peak_live := max !peak_live (Gc.stat ()).Gc.live_words
  in
  (* Extraction: sources stay local to this block so nothing keeps the
     corpus strings alive once the shards are on disk. *)
  let t0 = Unix.gettimeofday () in
  let set =
    let sources =
      Corpus.Gen.generate_sources
        { Corpus.Gen.default with Corpus.Gen.n_files; seed = 2018 }
        lang.Pigeon.Lang.render_lang
    in
    let set, report =
      Pigeon.W2v_task.extract_pair_shards ~records_per_shard ~lang
        ~mode:(Pigeon.W2v_task.Paths repr)
        ~dir:(Filename.concat tmp "pairs")
        sources
    in
    Pigeon.Ingest.log ~label:"oocore extract" report;
    set
  in
  let extract_s = Unix.gettimeofday () -. t0 in
  (* What the in-memory pipeline holds: a [(string * string) list] of
     every pair — per pair two string payloads (header word + data)
     plus a cons cell (3 words) and a tuple (3 words). Streamed, so
     the estimate itself allocates nothing that survives. *)
  let str_words len = 1 + ((len + 8) / 8) in
  let materialized_words =
    Corpus.Shard.fold_pairs set ~init:0 ~f:(fun acc a b ->
        acc
        + str_words (String.length (Corpus.Shard.string_of_id set a))
        + str_words (String.length (Corpus.Shard.string_of_id set b))
        + 6)
  in
  let plan =
    Pigeon.W2v_task.plan_of_set ~min_count:sgns_config.Word2vec.Sgns.min_count
      set
  in
  let shard_sizes = plan.Pigeon.W2v_task.plan_sizes in
  let n_shards = Array.length shard_sizes in
  let total_pairs = Array.fold_left ( + ) 0 shard_sizes in
  let train_stream ?from ?on_shard () =
    Word2vec.Sgns.train_stream ~config:sgns_config
      ~words:plan.Pigeon.W2v_task.plan_words
      ~contexts:plan.Pigeon.W2v_task.plan_contexts ~shard_sizes
      ~pairs_of_shard:(Pigeon.W2v_task.plan_pairs plan)
      ?from ?on_shard ()
  in
  sample_live ();
  let t1 = Unix.gettimeofday () in
  let golden =
    train_stream ~on_shard:(fun ~epoch:_ ~shard:_ _ -> sample_live ()) ()
  in
  let train_s = Unix.gettimeofday () -. t1 in
  let golden_bytes = Word2vec.Serialize.to_string golden in
  let pairs_per_s =
    float_of_int (sgns_config.Word2vec.Sgns.epochs * total_pairs) /. train_s
  in
  (* Kill mid-training: the checkpoint callback raises after half the
     (epoch, shard) units, exactly what a SIGKILL between two shards
     leaves behind; then resume from the surviving checkpoint. *)
  let kill_at = max 1 (sgns_config.Word2vec.Sgns.epochs * n_shards / 2) in
  let image = ref "" and units = ref 0 in
  (try
     ignore
       (train_stream
          ~on_shard:(fun ~epoch:_ ~shard:_ ck ->
            incr units;
            if !units = kill_at then begin
              image := Word2vec.Serialize.checkpoint_to_string ck;
              raise Exit
            end)
          ())
   with Exit -> ());
  let w2v_resumed_identical =
    match Word2vec.Serialize.checkpoint_of_string !image with
    | Error d -> failwith (Lexkit.Diag.to_string d)
    | Ok ck ->
        String.equal (Word2vec.Serialize.to_string (train_stream ~from:ck ()))
          golden_bytes
  in
  (* CRF trainer: same kill/resume discipline on a graph shard set. *)
  let crf_resumed_identical =
    let dir = Filename.concat tmp "graphs" in
    let sources =
      Corpus.Gen.generate_sources
        { Corpus.Gen.default with Corpus.Gen.n_files = 40; seed = 2018 }
        lang.Pigeon.Lang.render_lang
    in
    let set, report =
      Pigeon.Task.extract_graph_shards ~records_per_shard:16 ~repr ~lang
        ~policy:Pigeon.Graphs.Locals ~dir sources
    in
    Pigeon.Ingest.log ~label:"oocore graphs" report;
    let n_shards = Corpus.Shard.n_shards set in
    let config = crf_config 2 in
    let train ?from ?on_shard () =
      Crf.Train.train_of_shards ~config ~n_shards
        ~graphs_of_shard:(Pigeon.Task.graphs_of_shard set)
        ?from ?on_shard ()
    in
    let golden = Crf.Serialize.to_string (train ()) in
    let kill_at = max 1 (2 * n_shards / 2) in
    let image = ref "" and units = ref 0 in
    (try
       ignore
         (train
            ~on_shard:(fun ~it ~shard m ->
              incr units;
              if !units = kill_at then begin
                let next_it, next_shard =
                  if shard + 1 = n_shards then (it + 1, 0) else (it, shard + 1)
                in
                image :=
                  Crf.Serialize.checkpoint_to_string ~config ~next_it
                    ~next_shard ~n_shards ~jobs:1 m;
                raise Exit
              end)
            ())
     with Exit -> ());
    match Crf.Serialize.checkpoint_of_string !image with
    | Error d -> failwith (Lexkit.Diag.to_string d)
    | Ok ck ->
        String.equal
          (Crf.Serialize.to_string
             (train
                ~from:
                  ( ck.Crf.Serialize.ck_fast,
                    ck.Crf.Serialize.ck_next_it,
                    ck.Crf.Serialize.ck_next_shard )
                ()))
          golden
  in
  let mb words = float_of_int words *. 8. /. 1024. /. 1024. in
  Printf.printf
    "%d files -> %d pairs in %d shards (%d records/shard), extract %.1fs\n"
    n_files total_pairs n_shards records_per_shard extract_s;
  Printf.printf
    "materialized in-memory estimate: %.1f MB; heap cap: %d MB; peak live \
     heap during streaming training: %.1f MB\n"
    (mb materialized_words) cap_mb (mb !peak_live);
  Printf.printf "streaming training: %.1fs (%.0f pairs/s over %d epochs)\n"
    train_s pairs_per_s sgns_config.Word2vec.Sgns.epochs;
  Printf.printf "killed-then-resumed vs uninterrupted: sgns %s, crf %s\n%!"
    (if w2v_resumed_identical then "byte-identical" else "DIFFERS")
    (if crf_resumed_identical then "byte-identical" else "DIFFERS");
  let floors_enforced = not !quick in
  let fail_or_warn msg =
    if floors_enforced then failwith msg
    else Printf.printf "  warn: %s (not enforced under --quick)\n%!" msg
  in
  if not w2v_resumed_identical then
    fail_or_warn "sgns resumed model differs from uninterrupted run";
  if not crf_resumed_identical then
    fail_or_warn "crf resumed model differs from uninterrupted run";
  if materialized_words <= cap_words then
    fail_or_warn
      (Printf.sprintf
         "materialized corpus estimate %.1f MB does not exceed the %d MB cap"
         (mb materialized_words) cap_mb);
  if !peak_live > cap_words then
    fail_or_warn
      (Printf.sprintf "peak live heap %.1f MB exceeds the %d MB cap"
         (mb !peak_live) cap_mb);
  let oc = open_out (bench_file "oocore") in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"quick\": %b,\n" !quick;
  Printf.fprintf oc "  \"files\": %d,\n" n_files;
  Printf.fprintf oc "  \"pairs\": %d,\n  \"shards\": %d,\n" total_pairs
    n_shards;
  Printf.fprintf oc "  \"records_per_shard\": %d,\n" records_per_shard;
  Printf.fprintf oc "  \"epochs\": %d,\n" sgns_config.Word2vec.Sgns.epochs;
  Printf.fprintf oc "  \"extract_seconds\": %.3f,\n" extract_s;
  Printf.fprintf oc "  \"train_seconds\": %.3f,\n" train_s;
  Printf.fprintf oc "  \"pairs_per_second\": %.0f,\n" pairs_per_s;
  Printf.fprintf oc "  \"heap_cap_mb\": %d,\n" cap_mb;
  Printf.fprintf oc "  \"materialized_estimate_mb\": %.2f,\n"
    (mb materialized_words);
  Printf.fprintf oc "  \"peak_live_heap_mb\": %.2f,\n" (mb !peak_live);
  Printf.fprintf oc "  \"sgns_resume_byte_identical\": %b,\n"
    w2v_resumed_identical;
  Printf.fprintf oc "  \"crf_resume_byte_identical\": %b,\n"
    crf_resumed_identical;
  Printf.fprintf oc "  \"floors_enforced\": %b\n" floors_enforced;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" (bench_file "oocore")

(* ---------- driver ---------- *)

let experiments =
  [
    ("table1", table1);
    ("table2-var", table2_var);
    ("table2-method", table2_method);
    ("table2-type", table2_type);
    ("table3", table3);
    ("table4", table4);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fault", fault);
    ("parallel", parallel_bench);
    ("train", train_bench);
    ("intern", intern_bench);
    ("serve", serve_bench);
    ("incremental", incremental_bench);
    ("oocore", oocore_bench);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if String.equal a "--quick" then begin
          quick := true;
          false
        end
        else true)
      args
  in
  let selected =
    match args with
    | [] | [ "all" ] -> List.map fst experiments
    | names -> names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    selected;
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
