(* Fuzz and fault-injection suite: the ingestion contract says every
   front-end and model loader is *total* — arbitrary bytes in,
   structured diagnostic or success out. Nothing may crash, hang,
   overflow the stack, or leak an unclassified exception.

   Property counts scale with PIGEON_FUZZ_COUNT (default 300 per
   property) so CI can run a bounded smoke pass while a longer local
   run digs deeper. *)

let count =
  match Option.bind (Sys.getenv_opt "PIGEON_FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 300

let check_int = Alcotest.(check int)

(* ---------- subjects ---------- *)

let front_ends =
  [
    ("minijs", fun src -> ignore (Minijs.Parser.parse src));
    ("minijava", fun src -> ignore (Minijava.Parser.parse src));
    ("minipython", fun src -> ignore (Minipython.Parser.parse src));
    ("minicsharp", fun src -> ignore (Minicsharp.Parser.parse src));
  ]

(* The property under test: Lexkit.protect classifies every failure;
   an exception it re-raises is exactly the kind of bug we hunt. *)
let total parse src =
  match Lexkit.protect (fun () -> parse src) with Ok _ | Error _ -> true

(* ---------- generators ---------- *)

let print_input s =
  let s = if String.length s > 160 then String.sub s 0 160 ^ "..." else s in
  String.escaped s

let bytes_arb =
  QCheck.make ~print:print_input
    QCheck.Gen.(string_size ~gen:char (int_bound 1024))

(* Token soup: syntactically plausible fragments glued at random —
   reaches far deeper into the parsers than raw bytes do. *)
let fragments =
  [
    "if"; "else"; "while"; "for"; "function"; "class"; "def"; "return";
    "var"; "new"; "try"; "catch"; "not"; "in"; "("; ")"; "{"; "}"; "[";
    "]"; ";"; ":"; ","; "."; "="; "=="; "!"; "!="; "<="; "+"; "-"; "*";
    "/"; "%"; "&&"; "||"; "x"; "foo"; "Bar"; "this"; "0"; "42"; "1.5";
    "0x"; "\""; "'"; "\\"; "\\n"; "\n"; "\t"; "    "; "#"; "//"; "/*";
    "*/"; "\x00"; "\xff"; "\xc3"; " ";
  ]

let soup_arb =
  QCheck.make ~print:print_input
    QCheck.Gen.(
      map (String.concat "") (list_size (int_bound 120) (oneofl fragments)))

(* Mutated valid programs: take a real generated source and damage it —
   delete a byte, insert garbage, truncate, or duplicate a slice. *)
let mutate src op a b c =
  let n = String.length src in
  if n = 0 then String.make 1 c
  else
    let p = a mod n in
    match op with
    | 0 -> String.sub src 0 p ^ String.sub src (p + 1) (n - p - 1)
    | 1 -> String.sub src 0 p ^ String.make 1 c ^ String.sub src p (n - p)
    | 2 -> String.sub src 0 p
    | _ ->
        let q = b mod n in
        let lo = min p q and hi = max p q in
        String.sub src 0 hi ^ String.sub src lo (hi - lo)
        ^ String.sub src hi (n - hi)

let mutated_arb seeds =
  let seeds = Array.of_list seeds in
  QCheck.make ~print:print_input
    QCheck.Gen.(
      int_bound (Array.length seeds - 1) >>= fun i ->
      int_bound 3 >>= fun op ->
      int_bound 100_000 >>= fun a ->
      int_bound 100_000 >>= fun b ->
      char >>= fun c -> return (mutate seeds.(i) op a b c))

let corpus_sources render =
  List.map snd
    (Corpus.Gen.generate_sources
       { Corpus.Gen.default with Corpus.Gen.n_files = 8; seed = 42 }
       render)

let renders =
  [
    ("minijs", Corpus.Render.Js);
    ("minijava", Corpus.Render.Java);
    ("minipython", Corpus.Render.Python);
    ("minicsharp", Corpus.Render.Csharp);
  ]

(* ---------- front-end properties ---------- *)

let front_end_tests =
  List.concat_map
    (fun (name, parse) ->
      [
        QCheck.Test.make ~count ~name:(name ^ " total on random bytes")
          bytes_arb (total parse);
        QCheck.Test.make ~count ~name:(name ^ " total on token soup")
          soup_arb (total parse);
        QCheck.Test.make ~count
          ~name:(name ^ " total on mutated programs")
          (mutated_arb (corpus_sources (List.assoc name renders)))
          (total parse);
      ])
    front_ends

(* ---------- model-loader properties ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let saved_text save model =
  let path = Filename.temp_file "pigeon_fuzz" ".model" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      save model path;
      read_file path)

let saved_via to_channel model =
  let path = Filename.temp_file "pigeon_fuzz" ".model" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> to_channel model oc);
      read_file path)

let crf_model =
  lazy
    (let mk_node id gold kind = { Crf.Graph.id; gold; kind } in
     let g =
       Crf.Graph.make
         ~nodes:[ mk_node 0 "done" `Unknown; mk_node 1 "0" `Known ]
         ~factors:
           [
             Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"Assign=\xe2\x86\x93Number";
             Crf.Graph.unary ~n:0 ~rel:"loop guard";
           ]
     in
     let config =
       { Crf.Train.default_config with Crf.Train.iterations = 2 }
     in
     Crf.Train.train ~config [ g; g ])

let w2v_model =
  lazy
    (let pairs =
       [ ("count", "i"); ("count", "n"); ("done", "flag"); ("i", "count") ]
     in
     let config =
       { Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 2 }
     in
     Word2vec.Sgns.train ~config pairs)

(* [save] writes the v3 binary format; the v2 text writers are kept so
   mutations of both formats stay under fuzz. *)
let crf_model_text =
  lazy (saved_text Crf.Serialize.save (Lazy.force crf_model))

let crf_model_text_v2 =
  lazy (saved_via Crf.Serialize.to_channel_v2 (Lazy.force crf_model))

let w2v_model_text =
  lazy (saved_text Word2vec.Serialize.save (Lazy.force w2v_model))

let w2v_model_text_v2 =
  lazy (saved_via Word2vec.Serialize.to_channel_v2 (Lazy.force w2v_model))

let loader_total load s = match load s with Ok _ | Error _ -> true

let loader_tests =
  [
    QCheck.Test.make ~count ~name:"crf loader total on random bytes" bytes_arb
      (loader_total (Crf.Serialize.of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count ~name:"crf loader total on mutated v3 models"
      (mutated_arb [ Lazy.force crf_model_text ])
      (loader_total (Crf.Serialize.of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count ~name:"crf loader total on mutated v2 text models"
      (mutated_arb [ Lazy.force crf_model_text_v2 ])
      (loader_total (Crf.Serialize.of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count ~name:"w2v loader total on random bytes" bytes_arb
      (loader_total (Word2vec.Serialize.of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count ~name:"w2v loader total on mutated v3 models"
      (mutated_arb [ Lazy.force w2v_model_text ])
      (loader_total (Word2vec.Serialize.of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count ~name:"w2v loader total on mutated v2 text models"
      (mutated_arb [ Lazy.force w2v_model_text_v2 ])
      (loader_total (Word2vec.Serialize.of_string ~source:"<fuzz>"));
  ]

(* A correct magic line followed by arbitrary bytes reaches the binary
   section readers directly — the layer where an unchecked count or an
   overflowing bound becomes a crash instead of a diagnostic. *)
let v3_body_arb magic =
  QCheck.make ~print:print_input
    QCheck.Gen.(
      map (fun s -> magic ^ s) (string_size ~gen:char (int_bound 2048)))

(* The file-based [load] path adds I/O classification on top of
   [of_string]; drive it through one reused temp file. *)
let load_file_total load =
  let path = lazy (Filename.temp_file "pigeon_fuzz_load" ".model") in
  fun s ->
    let path = Lazy.force path in
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc;
    match load path with Ok _ | Error _ -> true

let v3_loader_tests =
  [
    QCheck.Test.make ~count ~name:"crf loader total on v3 magic + random body"
      (v3_body_arb "pigeon-crf-model 3\n")
      (loader_total (Crf.Serialize.of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count ~name:"w2v loader total on v3 magic + random body"
      (v3_body_arb "pigeon-w2v-model 3\n")
      (loader_total (Word2vec.Serialize.of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count ~name:"crf load (file) total on random bytes"
      bytes_arb
      (load_file_total Crf.Serialize.load);
    QCheck.Test.make ~count ~name:"w2v load (file) total on v3 magic + random body"
      (v3_body_arb "pigeon-w2v-model 3\n")
      (load_file_total Word2vec.Serialize.load);
  ]

(* ---------- serve request-line properties ---------- *)

let request_total s =
  match Serve.Protocol.request_of_line s with Ok _ | Error _ -> true

let json_fragments =
  [
    "{"; "}"; "["; "]"; ":"; ","; "\""; "op"; "predict"; "similar"; "ping";
    "id"; "lang"; "code"; "word"; "k"; "true"; "false"; "null"; "1"; "-";
    "1e308"; "0.5"; "\\u0041"; "\\"; "\\n"; "\xc3\xa9"; "\x00"; " "; "\t";
  ]

let json_soup_arb =
  QCheck.make ~print:print_input
    QCheck.Gen.(
      map (String.concat "") (list_size (int_bound 80) (oneofl json_fragments)))

let serve_tests =
  [
    QCheck.Test.make ~count ~name:"request_of_line total on random bytes"
      bytes_arb request_total;
    QCheck.Test.make ~count ~name:"request_of_line total on JSON soup"
      json_soup_arb request_total;
    QCheck.Test.make ~count ~name:"json parse total on JSON soup" json_soup_arb
      (fun s -> match Serve.Json.parse s with Ok _ | Error _ -> true);
    QCheck.Test.make ~count ~name:"json print/parse round-trip" json_soup_arb
      (fun s ->
        match Serve.Json.parse s with
        | Error _ -> true
        | Ok v -> (
            let printed = Serve.Json.to_string v in
            match Serve.Json.parse printed with
            | Ok v' -> Serve.Json.to_string v' = printed
            | Error e ->
                QCheck.Test.fail_reportf "canonical form rejected: %s" e));
  ]

(* ---------- deterministic pathological inputs ---------- *)

let expect_kind name parse src kind =
  match Lexkit.protect (fun () -> parse src) with
  | Error d when d.Lexkit.Diag.kind = kind -> ()
  | Error d ->
      Alcotest.failf "%s: expected %s, got %s" name
        (Lexkit.Diag.kind_name kind)
        (Lexkit.Diag.to_string d)
  | Ok _ -> Alcotest.failf "%s: pathological input accepted" name

let expect_structured name parse src =
  if not (total parse src) then Alcotest.failf "%s: escaped exception" name

let test_paren_bomb () =
  let bomb = String.make 20_000 '(' in
  expect_kind "minijs"
    (fun s -> ignore (Minijs.Parser.parse s))
    bomb Lexkit.Diag.Depth_limit_exceeded;
  expect_kind "minipython"
    (fun s -> ignore (Minipython.Parser.parse s))
    bomb Lexkit.Diag.Depth_limit_exceeded;
  (* Java and C# reject a top-level "(" before it can nest; any
     structured refusal is fine. *)
  List.iter
    (fun (name, parse) -> expect_structured name parse bomb)
    front_ends

let test_unary_chains () =
  expect_kind "minijs bangs"
    (fun s -> ignore (Minijs.Parser.parse s))
    (String.make 50_000 '!' ^ "x;")
    Lexkit.Diag.Depth_limit_exceeded;
  expect_kind "minipython nots"
    (fun s -> ignore (Minipython.Parser.parse s))
    (String.concat "" (List.init 20_000 (fun _ -> "not ")) ^ "x")
    Lexkit.Diag.Depth_limit_exceeded;
  let ifs = String.concat "" (List.init 20_000 (fun _ -> "if(x)")) ^ ";" in
  List.iter (fun (name, parse) -> expect_structured name parse ifs) front_ends

let test_megabyte_identifier () =
  let src = String.make 1_000_000 'a' in
  List.iter (fun (name, parse) -> expect_structured name parse src) front_ends

let test_size_limit () =
  let src = String.make (9 * 1024 * 1024) 'a' in
  List.iter
    (fun (name, parse) ->
      expect_kind name parse src Lexkit.Diag.Size_limit_exceeded)
    front_ends

let test_unterminated_string () =
  expect_kind "minijs"
    (fun s -> ignore (Minijs.Parser.parse s))
    "var s = \"abc" Lexkit.Diag.Parse_error;
  expect_kind "minipython"
    (fun s -> ignore (Minipython.Parser.parse s))
    "s = 'abc" Lexkit.Diag.Parse_error

let test_loader_pathological () =
  let giant_line = String.make 1_000_000 'a' in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        "crf loader total" true
        (loader_total (Crf.Serialize.of_string ~source:"<t>") s);
      Alcotest.(check bool)
        "w2v loader total" true
        (loader_total (Word2vec.Serialize.of_string ~source:"<t>") s))
    [
      "";
      "\n\n\n";
      giant_line;
      "pigeon-crf-model 99\n";
      "\x00\x01\x02";
      (* v3 magic with empty, truncated, or garbage binary bodies *)
      "pigeon-crf-model 3\n";
      "pigeon-w2v-model 3\n";
      "pigeon-crf-model 3\n\x01\x08";
      "pigeon-crf-model 3\n" ^ String.make 64 '\xff';
      "pigeon-w2v-model 3\n" ^ String.make 64 '\x00';
    ]

(* Every single-byte corruption of a v3 file must be rejected with a
   structured diagnostic: framing errors catch structural damage, the
   end-section checksum catches flips inside float or count payloads
   that framing alone cannot see. *)
let test_v3_bit_flips () =
  let flip_all name load text =
    String.iteri
      (fun i _ ->
        let b = Bytes.of_string text in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
        match load (Bytes.to_string b) with
        | Ok _ -> Alcotest.failf "%s: flipped byte %d accepted" name i
        | Error d ->
            if d.Lexkit.Diag.kind <> Lexkit.Diag.Corrupt_model then
              Alcotest.failf "%s: flipped byte %d: unexpected %s" name i
                (Lexkit.Diag.to_string d))
      text
  in
  flip_all "crf"
    (Crf.Serialize.of_string ~source:"<flip>")
    (Lazy.force crf_model_text);
  flip_all "w2v"
    (Word2vec.Serialize.of_string ~source:"<flip>")
    (Lazy.force w2v_model_text)

(* ---------- training checkpoints ---------- *)

(* Checkpoint images carry raw float matrices and a resume cursor; a
   hostile or damaged one must never crash the loader or resume from a
   mangled cursor. Same discipline as models: loaders are total, and
   every single-byte corruption is a structured [Corrupt_model]. *)
let crf_ckpt_text =
  lazy
    (let m = Lazy.force crf_model in
     Crf.Serialize.checkpoint_to_string ~config:m.Crf.Train.config ~next_it:1
       ~next_shard:0 ~n_shards:2 ~jobs:1 m.Crf.Train.fast)

let w2v_ckpt_text =
  lazy
    (let config =
       { Word2vec.Sgns.default_config with Word2vec.Sgns.dim = 4; epochs = 2 }
     in
     let words = Word2vec.Vocab.of_items [ ("count", 3); ("i", 2) ] in
     let contexts = Word2vec.Vocab.of_items [ ("c0", 3); ("c1", 2) ] in
     let image = ref "" in
     ignore
       (Word2vec.Sgns.train_stream ~config ~words ~contexts
          ~shard_sizes:[| 3 |]
          ~pairs_of_shard:(fun _ -> [| 0; 0; 0; 1; 1; 0 |])
          ~on_shard:(fun ~epoch:_ ~shard:_ ck ->
            if !image = "" then
              image := Word2vec.Serialize.checkpoint_to_string ck)
          ());
     !image)

let ckpt_loader_tests =
  [
    QCheck.Test.make ~count ~name:"crf checkpoint loader total on random bytes"
      bytes_arb
      (loader_total (Crf.Serialize.checkpoint_of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count
      ~name:"crf checkpoint loader total on mutated checkpoints"
      (mutated_arb [ Lazy.force crf_ckpt_text ])
      (loader_total (Crf.Serialize.checkpoint_of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count ~name:"w2v checkpoint loader total on random bytes"
      bytes_arb
      (loader_total (Word2vec.Serialize.checkpoint_of_string ~source:"<fuzz>"));
    QCheck.Test.make ~count
      ~name:"w2v checkpoint loader total on mutated checkpoints"
      (mutated_arb [ Lazy.force w2v_ckpt_text ])
      (loader_total (Word2vec.Serialize.checkpoint_of_string ~source:"<fuzz>"));
  ]

let test_checkpoint_bit_flips () =
  let flip_all name load text =
    String.iteri
      (fun i _ ->
        let b = Bytes.of_string text in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
        match load (Bytes.to_string b) with
        | Ok _ -> Alcotest.failf "%s: flipped byte %d accepted" name i
        | Error d ->
            if d.Lexkit.Diag.kind <> Lexkit.Diag.Corrupt_model then
              Alcotest.failf "%s: flipped byte %d: unexpected %s" name i
                (Lexkit.Diag.to_string d))
      text
  in
  flip_all "crf-ckpt"
    (Crf.Serialize.checkpoint_of_string ~source:"<flip>")
    (Lazy.force crf_ckpt_text);
  flip_all "w2v-ckpt"
    (Word2vec.Serialize.checkpoint_of_string ~source:"<flip>")
    (Lazy.force w2v_ckpt_text)

(* ---------- shard files ---------- *)

(* Every single-byte corruption of a shard file must surface as a
   structured [Corrupt_model] when the shard is read — never a crash,
   never silently different records. *)
let test_shard_bit_flips () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pigeon-fuzz-shard-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let w =
        Corpus.Shard.create_writer ~dir ~kind:Corpus.Shard.Pairs
          ~records_per_shard:16 ()
      in
      for i = 0 to 9 do
        Corpus.Shard.add_pair w
          (Corpus.Shard.intern w (Printf.sprintf "w%d" i))
          (Corpus.Shard.intern w (Printf.sprintf "c%d" (i mod 3)))
      done;
      ignore (Corpus.Shard.finish w);
      let shard0 = Filename.concat dir "shard-0000.psh" in
      let pristine =
        let ic = open_in_bin shard0 in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      String.iteri
        (fun i _ ->
          let b = Bytes.of_string pristine in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
          let oc = open_out_bin shard0 in
          output_bytes oc b;
          close_out oc;
          let set = Corpus.Shard.open_set dir in
          match Corpus.Shard.pairs set 0 with
          | _ -> Alcotest.failf "shard: flipped byte %d accepted" i
          | exception Lexkit.Diag.Error d ->
              if d.Lexkit.Diag.kind <> Lexkit.Diag.Corrupt_model then
                Alcotest.failf "shard: flipped byte %d: unexpected %s" i
                  (Lexkit.Diag.to_string d))
        pristine)

(* ---------- end-to-end: corrupt corpus, exact skip tally ---------- *)

let test_corrupt_corpus_training () =
  let lang = Pigeon.Lang.javascript in
  let sources =
    Corpus.Gen.generate_sources
      { Corpus.Gen.default with Corpus.Gen.n_files = 20; seed = 13 }
      lang.Pigeon.Lang.render_lang
  in
  let train =
    List.mapi
      (fun i (p, s) -> if i mod 10 = 0 then (p, "\x00 broken " ^ s) else (p, s))
      sources
  in
  let n_bad = List.length (List.filter (fun (_, s) -> s.[0] = '\x00') train) in
  let test = List.filteri (fun i _ -> i mod 10 <> 0) sources in
  let crf_config = { Crf.Train.default_config with Crf.Train.iterations = 2 } in
  let r =
    Pigeon.Task.run_crf ~crf_config ~lang ~policy:Pigeon.Graphs.Locals ~train
      ~test ()
  in
  let skips = r.Pigeon.Task.train_skips in
  check_int "attempted every file" (List.length train)
    skips.Pigeon.Ingest.attempted;
  check_int "exact skip tally" n_bad
    (List.length skips.Pigeon.Ingest.skipped);
  check_int "succeeded the rest"
    (List.length train - n_bad)
    skips.Pigeon.Ingest.succeeded;
  check_int "clean test corpus" 0
    (List.length r.Pigeon.Task.test_skips.Pigeon.Ingest.skipped)

(* ---------- suite ---------- *)

let () =
  Alcotest.run "fuzz"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (front_end_tests @ loader_tests @ v3_loader_tests
         @ ckpt_loader_tests @ serve_tests) );
      ( "pathological",
        [
          Alcotest.test_case "paren bomb" `Quick test_paren_bomb;
          Alcotest.test_case "unary chains" `Quick test_unary_chains;
          Alcotest.test_case "megabyte identifier" `Quick
            test_megabyte_identifier;
          Alcotest.test_case "size limit" `Quick test_size_limit;
          Alcotest.test_case "unterminated string" `Quick
            test_unterminated_string;
          Alcotest.test_case "loader pathological" `Quick
            test_loader_pathological;
          Alcotest.test_case "v3 single-byte corruption" `Quick
            test_v3_bit_flips;
          Alcotest.test_case "checkpoint single-byte corruption" `Quick
            test_checkpoint_bit_flips;
          Alcotest.test_case "shard single-byte corruption" `Quick
            test_shard_bit_flips;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "corrupt corpus, exact tally" `Quick
            test_corrupt_corpus_training;
        ] );
    ]
