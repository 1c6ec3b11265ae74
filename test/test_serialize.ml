(* Tests for CRF model serialization: byte-level escaping, structural
   round-trips, and — the property that matters — identical predictions
   from a saved-and-reloaded model. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_node id gold kind = { Crf.Graph.id; gold; kind }

(* A richer synthetic world, with awkward strings in labels and rels:
   spaces, percent signs, unicode arrows (as in real path strings). *)
let graphs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  List.init n (fun _ ->
      if Random.State.bool rng then
        Crf.Graph.make
          ~nodes:
            [
              mk_node 0 (pick [ "done"; "stop" ]) `Unknown;
              mk_node 1 "hello, world %20" `Known;
            ]
          ~factors:
            [
              Crf.Graph.pairwise ~a:0 ~b:1
                ~rel:"SymbolRef\xe2\x86\x91While\xe2\x86\x93True";
              Crf.Graph.unary ~n:0 ~rel:"loop guard";
            ]
      else
        Crf.Graph.make
          ~nodes:
            [
              mk_node 0 (pick [ "count"; "total" ]) `Unknown;
              mk_node 1 "0" `Known;
            ]
          ~factors:
            [
              Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"Assign=\xe2\x86\x93Number";
              Crf.Graph.unary ~n:0 ~rel:"incr\ttab";
            ])

let train () = Crf.Train.train (graphs ~n:200 ~seed:5)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_temp_file ext f =
  let path = Filename.temp_file "pigeon" ext in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let diag_kind = function
  | Ok _ -> Alcotest.fail "expected a load failure"
  | Error d -> d.Lexkit.Diag.kind

let roundtrip model =
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      Crf.Serialize.load_exn path)

let test_roundtrip_predictions () =
  let model = train () in
  let model' = roundtrip model in
  let test_graphs = graphs ~n:80 ~seed:6 in
  List.iter
    (fun g ->
      check_bool "identical predictions" true
        (Crf.Train.predict model g = Crf.Train.predict model' g))
    test_graphs

let test_roundtrip_top_k () =
  let model = train () in
  let model' = roundtrip model in
  let g = List.hd (graphs ~n:1 ~seed:7) in
  let k1 = Crf.Train.top_k model g ~node:0 ~k:5 in
  let k2 = Crf.Train.top_k model' g ~node:0 ~k:5 in
  check_bool "same ranking" true (List.map fst k1 = List.map fst k2)

let test_roundtrip_config () =
  let config =
    {
      Crf.Train.default_config with
      Crf.Train.iterations = 3;
      averaged = false;
      trainer = Crf.Fast.Structured;
      init = Crf.Fast.No_init;
    }
  in
  let model = Crf.Train.train ~config (graphs ~n:50 ~seed:8) in
  let model' = roundtrip model in
  check_int "iterations" 3 model'.Crf.Train.config.Crf.Train.iterations;
  check_bool "averaged" false model'.Crf.Train.config.Crf.Train.averaged;
  check_bool "trainer" true
    (model'.Crf.Train.config.Crf.Train.trainer = Crf.Fast.Structured);
  check_bool "init" true (model'.Crf.Train.config.Crf.Train.init = Crf.Fast.No_init)

let test_weights_survive () =
  let model = train () in
  let model' = roundtrip model in
  check_int "same number of features"
    (Crf.Model.size (Lazy.force model.Crf.Train.weights))
    (Crf.Model.size (Lazy.force model'.Crf.Train.weights));
  (* spot-check every feature's weight *)
  Crf.Model.iter (Lazy.force model.Crf.Train.weights) (fun f w ->
      Alcotest.(check (float 1e-12))
        "weight preserved" w
        (Crf.Model.get (Lazy.force model'.Crf.Train.weights) f))

let test_double_roundtrip_stable () =
  let model = train () in
  let once = roundtrip model in
  let twice = roundtrip once in
  let g = List.hd (graphs ~n:1 ~seed:9) in
  check_bool "fixed point" true
    (Crf.Train.predict once g = Crf.Train.predict twice g)

let test_malformed_input () =
  with_temp_file ".crf" (fun path ->
      write_file path "not a model\n";
      check_bool "corrupt-model diagnostic" true
        (diag_kind (Crf.Serialize.load path) = Lexkit.Diag.Corrupt_model))

let test_unknown_record () =
  with_temp_file ".crf" (fun path ->
      write_file path "pigeon-crf-model 1\nfrobnicate 42\n";
      match Crf.Serialize.load path with
      | Ok _ -> Alcotest.fail "expected failure"
      | Error d ->
          check_bool "corrupt-model kind" true
            (d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model);
          check_int "line number" 2
            (match d.Lexkit.Diag.pos with
            | Some p -> p.Lexkit.line
            | None -> -1))

let test_missing_file () =
  check_bool "io-error diagnostic" true
    (diag_kind (Crf.Serialize.load "/nonexistent/model.crf")
    = Lexkit.Diag.Io_error)

let test_truncation_detected () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let full = read_file path in
      (* chop the trailer and some records off the end *)
      let cut = String.length full - (String.length full / 4) in
      write_file path (String.sub full 0 cut);
      check_bool "truncation is a corrupt-model error" true
        (diag_kind (Crf.Serialize.load path) = Lexkit.Diag.Corrupt_model))

let test_trailing_garbage_detected () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      write_file path (read_file path ^ "label extra\n");
      check_bool "appended record is a corrupt-model error" true
        (diag_kind (Crf.Serialize.load path) = Lexkit.Diag.Corrupt_model))

let save_v2 to_channel_v2 model path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> to_channel_v2 model oc)

let test_v2_compat () =
  (* The v2 text writer is kept for fixtures; its output must still
     load into an equivalent model. *)
  let model = train () in
  with_temp_file ".crf" (fun path ->
      save_v2 Crf.Serialize.to_channel_v2 model path;
      let model' = Crf.Serialize.load_exn path in
      List.iter
        (fun g ->
          check_bool "v2 file predicts identically" true
            (Crf.Train.predict model g = Crf.Train.predict model' g))
        (graphs ~n:40 ~seed:10))

let test_v1_compat () =
  (* A version-1 file is a version-2 file minus the trailer. *)
  let model = train () in
  with_temp_file ".crf" (fun path ->
      save_v2 Crf.Serialize.to_channel_v2 model path;
      let lines = String.split_on_char '\n' (read_file path) in
      let v1 =
        List.filter
          (fun l -> not (String.length l >= 4 && String.sub l 0 4 = "end "))
          lines
        |> List.map (fun l ->
               if l = "pigeon-crf-model 2" then "pigeon-crf-model 1" else l)
        |> String.concat "\n"
      in
      write_file path v1;
      let model' = Crf.Serialize.load_exn path in
      let g = List.hd (graphs ~n:1 ~seed:11) in
      check_bool "v1 file predicts identically" true
        (Crf.Train.predict model g = Crf.Train.predict model' g))

let test_v4_byte_identical_roundtrip () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let bytes = read_file path in
      check_bool "writes the v4 magic" true
        (String.length bytes > 19 && String.sub bytes 0 19 = "pigeon-crf-model 4\n");
      let model' = Crf.Serialize.load_exn path in
      check_bool "save(load(save)) is byte-identical" true
        (String.equal bytes (Crf.Serialize.to_string model')))

let test_v3_compat () =
  (* The v3 binary writer is kept for fixtures; its output must still
     load into a model predicting identically. *)
  let model = train () in
  with_temp_file ".crf" (fun path ->
      write_file path (Crf.Serialize.to_string_v3 model);
      let model' = Crf.Serialize.load_exn path in
      List.iter
        (fun g ->
          check_bool "v3 file predicts identically" true
            (Crf.Train.predict model g = Crf.Train.predict model' g))
        (graphs ~n:40 ~seed:13))

let test_binary_midfile_corruption () =
  (* A single flipped bit deep inside a section payload is invisible
     to the framing; the checksum trailer still rejects it — in both
     binary generations. *)
  let model = train () in
  List.iter
    (fun bytes ->
      let b = Bytes.of_string bytes in
      let i = String.length bytes / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      check_bool "flipped payload bit is corrupt-model" true
        (diag_kind (Crf.Serialize.of_string (Bytes.to_string b))
        = Lexkit.Diag.Corrupt_model))
    [ Crf.Serialize.to_string model; Crf.Serialize.to_string_v3 model ]

let test_of_string_roundtrip () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      match Crf.Serialize.of_string (read_file path) with
      | Error d -> Alcotest.fail (Lexkit.Diag.to_string d)
      | Ok model' ->
          let g = List.hd (graphs ~n:1 ~seed:12) in
          check_bool "of_string predicts identically" true
            (Crf.Train.predict model g = Crf.Train.predict model' g))

(* ---------- word2vec serialization ---------- *)

let sgns_pairs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  List.init n (fun _ ->
      if Random.State.bool rng then
        (pick [ "done"; "finished" ], pick [ "loop ctx"; "assign%true" ])
      else (pick [ "count"; "total" ], pick [ "init zero"; "incr" ]))

let w2v_roundtrip model =
  with_temp_file ".w2v" (fun path ->
      Word2vec.Serialize.save model path;
      Word2vec.Serialize.load_exn path)

let test_w2v_roundtrip_predictions () =
  let model =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 10 }
      (sgns_pairs ~n:800 ~seed:3)
  in
  let model' = w2v_roundtrip model in
  List.iter
    (fun ctxs ->
      check_bool "same ranking" true
        (List.map fst (Word2vec.Sgns.predict model ctxs)
        = List.map fst (Word2vec.Sgns.predict model' ctxs)))
    [ [ "loop ctx" ]; [ "incr"; "init zero" ]; [ "assign%true"; "loop ctx" ] ]

let test_w2v_roundtrip_similarity () =
  let model =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 10 }
      (sgns_pairs ~n:800 ~seed:4)
  in
  let model' = w2v_roundtrip model in
  check_bool "same neighbors" true
    (List.map fst (Word2vec.Sgns.most_similar model "done" ~k:3)
    = List.map fst (Word2vec.Sgns.most_similar model' "done" ~k:3))

let test_w2v_roundtrip_config () =
  let config =
    { Word2vec.Sgns.default_config with Word2vec.Sgns.dim = 16; epochs = 2 }
  in
  let model = Word2vec.Sgns.train ~config (sgns_pairs ~n:100 ~seed:5) in
  let model' = w2v_roundtrip model in
  check_int "dim" 16 model'.Word2vec.Sgns.config.Word2vec.Sgns.dim;
  check_int "epochs" 2 model'.Word2vec.Sgns.config.Word2vec.Sgns.epochs

let test_w2v_malformed () =
  with_temp_file ".w2v" (fun path ->
      write_file path "garbage\n";
      check_bool "corrupt-model diagnostic" true
        (diag_kind (Word2vec.Serialize.load path) = Lexkit.Diag.Corrupt_model))

let test_w2v_truncation_detected () =
  let model =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 2 }
      (sgns_pairs ~n:200 ~seed:6)
  in
  with_temp_file ".w2v" (fun path ->
      Word2vec.Serialize.save model path;
      let full = read_file path in
      let cut = String.length full - (String.length full / 3) in
      write_file path (String.sub full 0 cut);
      check_bool "truncation is a corrupt-model error" true
        (diag_kind (Word2vec.Serialize.load path) = Lexkit.Diag.Corrupt_model))

let test_w2v_v2_compat () =
  let model =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 10 }
      (sgns_pairs ~n:800 ~seed:8)
  in
  with_temp_file ".w2v" (fun path ->
      save_v2 Word2vec.Serialize.to_channel_v2 model path;
      let model' = Word2vec.Serialize.load_exn path in
      check_bool "v2 file ranks identically" true
        (List.map fst (Word2vec.Sgns.predict model [ "loop ctx" ])
        = List.map fst (Word2vec.Sgns.predict model' [ "loop ctx" ])))

let test_w2v_v4_byte_identical_roundtrip () =
  let model =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 2 }
      (sgns_pairs ~n:300 ~seed:9)
  in
  with_temp_file ".w2v" (fun path ->
      Word2vec.Serialize.save model path;
      let bytes = read_file path in
      check_bool "writes the v4 magic" true
        (String.length bytes > 19 && String.sub bytes 0 19 = "pigeon-w2v-model 4\n");
      let model' = Word2vec.Serialize.load_exn path in
      check_bool "save(load(save)) is byte-identical" true
        (String.equal bytes (Word2vec.Serialize.to_string model'));
      (* Binary floats round-trip exactly, not through decimal. *)
      check_bool "vectors bitwise identical" true
        (model.Word2vec.Sgns.word_vecs = model'.Word2vec.Sgns.word_vecs
        && model.Word2vec.Sgns.context_vecs = model'.Word2vec.Sgns.context_vecs))

let test_w2v_v3_compat () =
  let model =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 2 }
      (sgns_pairs ~n:300 ~seed:10)
  in
  with_temp_file ".w2v" (fun path ->
      write_file path (Word2vec.Serialize.to_string_v3 model);
      let model' = Word2vec.Serialize.load_exn path in
      check_bool "v3 vectors bitwise identical" true
        (model.Word2vec.Sgns.word_vecs = model'.Word2vec.Sgns.word_vecs
        && model.Word2vec.Sgns.context_vecs = model'.Word2vec.Sgns.context_vecs))

let test_w2v_trailing_garbage_detected () =
  let model =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 2 }
      (sgns_pairs ~n:200 ~seed:7)
  in
  with_temp_file ".w2v" (fun path ->
      Word2vec.Serialize.save model path;
      write_file path (read_file path ^ "w extra 1 0 0\n");
      check_bool "appended record is a corrupt-model error" true
        (diag_kind (Word2vec.Serialize.load path) = Lexkit.Diag.Corrupt_model))

(* ---------- atomic saves ---------- *)

let tmp_siblings path =
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f ->
         String.length f > String.length base
         && String.sub f 0 (String.length base) = base
         && f <> base)

let test_atomic_save_no_tmp_leftover () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      Crf.Serialize.save model path;
      Alcotest.(check (list string)) "no temp files left" [] (tmp_siblings path);
      check_bool "overwritten model loads" true
        (match Crf.Serialize.load path with Ok _ -> true | Error _ -> false));
  let w2v =
    Word2vec.Sgns.train
      ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 1 }
      (sgns_pairs ~n:100 ~seed:9)
  in
  with_temp_file ".w2v" (fun path ->
      Word2vec.Serialize.save w2v path;
      Word2vec.Serialize.save w2v path;
      Alcotest.(check (list string)) "no temp files left" [] (tmp_siblings path);
      check_bool "overwritten model loads" true
        (match Word2vec.Serialize.load path with Ok _ -> true | Error _ -> false))

(* The bug this pins down: the old save wrote straight into the target,
   so a crash mid-write left a truncated file where a good model used
   to be. With atomic saves the target always holds a complete model:
   kill a process that overwrites the model in a tight loop, then load.
   One iteration only proves atomicity probabilistically; several kills
   make a regression to in-place writes essentially certain to fail. *)
let test_atomic_save_survives_kill () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let golden = read_file path in
      with_temp_file ".src" @@ fun src ->
      write_file src golden;
      for _round = 1 to 3 do
        (* let the saver get into the middle of a write *)
        check_bool "saver started" true
          (Kill_loop.save_and_kill ~kind:"model" ~src ~dst:path ~after:0.05);
        check_bool "model intact after SIGKILL mid-save" true
          (match Crf.Serialize.load path with Ok _ -> true | Error _ -> false);
        check_bool "target holds a complete model" true
          (String.equal (read_file path) golden)
      done;
      (* killed children may leave a temp file behind; that temp never
         shadows the target and a later save still lands cleanly *)
      Crf.Serialize.save model path;
      check_bool "post-kill save still loads" true
        (match Crf.Serialize.load path with Ok _ -> true | Error _ -> false);
      List.iter
        (fun f -> Sys.remove (Filename.concat (Filename.dirname path) f))
        (tmp_siblings path))

let suite =
  [
    ( "atomic-save",
      [
        Alcotest.test_case "no temp leftovers" `Quick
          test_atomic_save_no_tmp_leftover;
        Alcotest.test_case "SIGKILL mid-save keeps a loadable model" `Quick
          test_atomic_save_survives_kill;
      ] );
    ( "w2v-serialize",
      [
        Alcotest.test_case "prediction round-trip" `Quick test_w2v_roundtrip_predictions;
        Alcotest.test_case "similarity round-trip" `Quick test_w2v_roundtrip_similarity;
        Alcotest.test_case "config round-trip" `Quick test_w2v_roundtrip_config;
        Alcotest.test_case "malformed input" `Quick test_w2v_malformed;
        Alcotest.test_case "truncation detected" `Quick test_w2v_truncation_detected;
        Alcotest.test_case "trailing garbage detected" `Quick test_w2v_trailing_garbage_detected;
        Alcotest.test_case "v2 compatibility" `Quick test_w2v_v2_compat;
        Alcotest.test_case "v3 compatibility" `Quick test_w2v_v3_compat;
        Alcotest.test_case "v4 byte-identical round-trip" `Quick
          test_w2v_v4_byte_identical_roundtrip;
      ] );
    ( "serialize",
      [
        Alcotest.test_case "prediction round-trip" `Quick test_roundtrip_predictions;
        Alcotest.test_case "top-k round-trip" `Quick test_roundtrip_top_k;
        Alcotest.test_case "config round-trip" `Quick test_roundtrip_config;
        Alcotest.test_case "weights survive" `Quick test_weights_survive;
        Alcotest.test_case "double round-trip stable" `Quick test_double_roundtrip_stable;
        Alcotest.test_case "malformed input" `Quick test_malformed_input;
        Alcotest.test_case "unknown record" `Quick test_unknown_record;
        Alcotest.test_case "missing file" `Quick test_missing_file;
        Alcotest.test_case "truncation detected" `Quick test_truncation_detected;
        Alcotest.test_case "trailing garbage detected" `Quick test_trailing_garbage_detected;
        Alcotest.test_case "v1 compatibility" `Quick test_v1_compat;
        Alcotest.test_case "v2 compatibility" `Quick test_v2_compat;
        Alcotest.test_case "v3 compatibility" `Quick test_v3_compat;
        Alcotest.test_case "v4 byte-identical round-trip" `Quick
          test_v4_byte_identical_roundtrip;
        Alcotest.test_case "binary mid-file corruption" `Quick
          test_binary_midfile_corruption;
        Alcotest.test_case "of_string round-trip" `Quick test_of_string_roundtrip;
      ] );
  ]

let () = Alcotest.run "serialize" suite
