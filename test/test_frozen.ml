(* The frozen-model contract of the request path: serving never writes
   a loaded model, so the model's label and relation tables stay as
   training left them under any request stream, a flood of new
   identifiers cannot exhaust the packed-key label space, and one
   freshly loaded model can be shared by threads and domains from its
   very first use. Replies from the id-space path (graphs encoded
   straight from extraction) equal the string-graph path's. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------- fixtures: one small model per language ---------- *)

let sources (lang : Pigeon.Lang.t) ~n ~seed =
  let config = { Corpus.Gen.default with Corpus.Gen.n_files = n; seed } in
  List.map snd (Corpus.Gen.generate_sources config lang.Pigeon.Lang.render_lang)

let repr_of (lang : Pigeon.Lang.t) =
  Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned ()

let build (lang : Pigeon.Lang.t) code =
  Pigeon.Graphs.build (repr_of lang) ~def_labels:lang.Pigeon.Lang.def_labels
    ~policy:Pigeon.Graphs.Locals
    (lang.Pigeon.Lang.parse_tree code)

let train (lang : Pigeon.Lang.t) =
  let graphs =
    Pigeon.Task.graphs_of_sources ~repr:(repr_of lang) ~lang
      ~policy:Pigeon.Graphs.Locals
      (List.mapi
         (fun i src -> (Printf.sprintf "train_%d" i, src))
         (sources lang ~n:30 ~seed:11))
  in
  Crf.Train.train
    ~config:{ Crf.Train.default_config with Crf.Train.iterations = 3 }
    graphs

(* (language, saved model path, held-out sources) *)
let fixtures =
  lazy
    (List.map
       (fun (lang : Pigeon.Lang.t) ->
         let path = Filename.temp_file "pigeon-frozen" ".crf" in
         Crf.Serialize.save (train lang) path;
         at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
         (lang, path, sources lang ~n:6 ~seed:4242))
       Pigeon.Lang.all)

let load_mapped path =
  match Crf.Serialize.load_mapped path with
  | Ok (m, _) -> m
  | Error d -> Alcotest.failf "load %s: %a" path Lexkit.Diag.pp d

let table_sizes (m : Crf.Train.model) =
  let s = Crf.Fast.symbols m.Crf.Train.fast in
  (Crf.Symbols.num_labels s, Crf.Symbols.num_rels s)

let request line =
  match Serve.Protocol.request_of_line line with
  | Ok r -> r
  | Error _ -> Alcotest.failf "bad request line %s" line

let obj fields = Serve.Json.to_string (Serve.Json.Obj fields)

let predict_req ~id (lang : Pigeon.Lang.t) code =
  request
    (obj
       [ ("op", Serve.Json.Str "predict"); ("id", Serve.Json.Num (float_of_int id));
         ("lang", Serve.Json.Str lang.Pigeon.Lang.name);
         ("code", Serve.Json.Str code) ])

let session_req ~id ~op (lang : Pigeon.Lang.t) code =
  request
    (obj
       [ ("op", Serve.Json.Str op); ("id", Serve.Json.Num (float_of_int id));
         ("lang", Serve.Json.Str lang.Pigeon.Lang.name);
         ("code", Serve.Json.Str code) ])

(* The string-graph reference: [Graphs.build] → [Train.predict], the
   path training and the public string-graph functions keep. *)
let reference_pairs model lang code =
  let g = build lang code in
  let pred = Crf.Train.predict model g in
  let gold = Crf.Graph.gold_assignment g in
  List.map (fun n -> (gold.(n), pred.(n))) (Crf.Graph.unknown_ids g)

(* ---------- oracle: id path = string path ---------- *)

let test_encode_equals_string_path () =
  List.iter
    (fun ((lang : Pigeon.Lang.t), path, held_out) ->
      let model = load_mapped path in
      let fast = model.Crf.Train.fast in
      let repr = repr_of lang in
      let cache = Astpath.Cache.create () in
      let rels = Pigeon.Graphs.rels repr fast in
      List.iter
        (fun code ->
          let tree = lang.Pigeon.Lang.parse_tree code in
          let direct =
            Pigeon.Graphs.encode repr ~def_labels:lang.Pigeon.Lang.def_labels
              ~policy:Pigeon.Graphs.Locals fast tree
          in
          let cached =
            Pigeon.Graphs.encode_cached repr ~cache ~rels
              ~def_labels:lang.Pigeon.Lang.def_labels
              ~policy:Pigeon.Graphs.Locals tree
          in
          let via_string = Crf.Fast.encode fast (build lang code) in
          check_bool (lang.Pigeon.Lang.name ^ ": encode = Fast.encode of build")
            true (direct = via_string);
          check_bool (lang.Pigeon.Lang.name ^ ": encode_cached = encode") true
            (cached = direct))
        held_out)
    (Lazy.force fixtures)

let test_replies_equal_string_path () =
  List.iter
    (fun ((lang : Pigeon.Lang.t), path, held_out) ->
      let model = load_mapped path in
      let engine = Serve.Engine.create ~model () in
      let name = lang.Pigeon.Lang.name in
      List.iteri
        (fun i code ->
          let pairs = reference_pairs model lang code in
          check_string (name ^ ": one-shot reply")
            (Serve.Protocol.render_predictions ~id:(Serve.Json.Num (float_of_int i))
               ~lang:name pairs)
            (Serve.Engine.handle engine (predict_req ~id:i lang code));
          (* the same buffers as one edit session: open, then edits *)
          let op = if i = 0 then "open" else "edit" in
          check_string (name ^ ": session reply")
            (Serve.Protocol.render_session_predictions
               ~id:(Serve.Json.Num (float_of_int (100 + i)))
               ~lang:name ~session:"default" pairs)
            (Serve.Engine.handle engine
               (session_req ~id:(100 + i) ~op lang code)))
        held_out)
    (Lazy.force fixtures)

(* ---------- property: predicting never grows the model's tables ---------- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

(* Identifier-like words of a source, in order of appearance. *)
let words src =
  let out = ref [] and i = ref 0 and n = String.length src in
  while !i < n do
    if is_ident_char src.[!i] && not (src.[!i] >= '0' && src.[!i] <= '9') then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      out := String.sub src !i (!j - !i) :: !out;
      i := !j
    end
    else incr i
  done;
  List.rev !out

(* Replace every whole-word occurrence of [w] by [by]. *)
let rename src ~w ~by =
  let b = Buffer.create (String.length src) in
  let n = String.length src and k = String.length w in
  let i = ref 0 in
  while !i < n do
    if
      !i + k <= n
      && String.sub src !i k = w
      && (!i = 0 || not (is_ident_char src.[!i - 1]))
      && (!i + k = n || not (is_ident_char src.[!i + k]))
    then begin
      Buffer.add_string b by;
      i := !i + k
    end
    else begin
      Buffer.add_char b src.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* A generated program, then mutations: renames to fresh identifiers
   (labels no model has seen) and line drops/duplications (new paths).
   A mutation that breaks the parse is skipped: the property is about
   the inference path, which an unparseable program never reaches. *)
let gen_program =
  let open QCheck2.Gen in
  let* lang_i = int_bound (List.length Pigeon.Lang.all - 1) in
  let* seed = int_bound 10_000 in
  let* ops = list_size (int_range 1 6) (triple (int_bound 2) nat nat) in
  let lang = List.nth Pigeon.Lang.all lang_i in
  let src = List.hd (sources lang ~n:1 ~seed) in
  let mutate_once src (kind, a, b) =
    match kind with
    | 0 -> (
        match words src with
        | [] -> src
        | ws ->
            rename src
              ~w:(List.nth ws (a mod List.length ws))
              ~by:(Printf.sprintf "fresh_%d_%d" a b))
    | _ ->
        let lines = String.split_on_char '\n' src in
        let k = a mod max 1 (List.length lines) in
        String.concat "\n"
          (List.concat
             (List.mapi
                (fun i l ->
                  if i <> k then [ l ] else if kind = 1 then [] else [ l; l ])
                lines))
  in
  let mutate src op =
    let src' = mutate_once src op in
    match lang.Pigeon.Lang.parse_tree src' with
    | _ -> src'
    | exception _ -> src
  in
  return (lang_i, List.fold_left mutate src ops)

let frozen_engines =
  lazy
    (List.map
       (fun (lang, path, _) ->
         let model = load_mapped path in
         (lang, model, Serve.Engine.create ~model ()))
       (Lazy.force fixtures))

let prop_predict_leaves_tables =
  QCheck2.Test.make ~name:"predicting never grows the model's tables" ~count:60
    ~print:(fun (i, src) ->
      Printf.sprintf "%s:\n%s" (List.nth Pigeon.Lang.all i).Pigeon.Lang.name src)
    gen_program
    (fun (lang_i, src) ->
      let lang, model, engine = List.nth (Lazy.force frozen_engines) lang_i in
      let before = table_sizes model in
      ignore (Serve.Engine.handle engine (predict_req ~id:1 lang src));
      ignore (Serve.Engine.handle engine (session_req ~id:2 ~op:"open" lang src));
      ignore (Crf.Train.predict model (build lang src));
      table_sizes model = before)

(* ---------- a flood of distinct identifiers ---------- *)

(* [g<r>_<lo>] .. [g<r>_<lo+n-1>] as a balanced nested array literal:
   every leaf is a distinct global name, and the nesting keeps each
   leaf's path window small, so extraction stays linear in [n]. *)
let rec name_tree b r lo n =
  if n = 1 then Printf.bprintf b "g%d_%d" r lo
  else begin
    Buffer.add_char b '[';
    name_tree b r lo (n / 2);
    Buffer.add_string b ", ";
    name_tree b r (lo + (n / 2)) (n - (n / 2));
    Buffer.add_char b ']'
  end

(* 300k distinct identifiers over three requests — past the 2^18 label
   budget if requests interned their strings, which would fail every
   predict from there on. Each graph carries 100k known nodes. *)
let test_identifier_flood () =
  let lang = Pigeon.Lang.javascript in
  let _, path, _ = List.hd (Lazy.force fixtures) in
  let model = load_mapped path in
  let engine = Serve.Engine.create ~model () in
  let before = table_sizes model in
  for r = 0 to 2 do
    let b = Buffer.create 1_500_000 in
    Buffer.add_string b "function f(a) {\n  var acc = a;\n  var names = ";
    name_tree b r 0 100_000;
    Buffer.add_string b ";\n  return acc;\n}\n";
    let reply =
      Serve.Engine.handle engine (predict_req ~id:r lang (Buffer.contents b))
    in
    let ok = Printf.sprintf {|{"id":%d,"ok":true|} r in
    check_bool
      (Printf.sprintf "request %d answers ok" r)
      true
      (String.length reply >= String.length ok
      && String.sub reply 0 (String.length ok) = ok)
  done;
  let after = table_sizes model in
  check_int "labels unchanged" (fst before) (fst after);
  check_int "relations unchanged" (snd before) (snd after)

(* ---------- first use from many threads and domains ---------- *)

(* Every worker sends the same requests, one-shot and through its own
   session name, to one engine over one freshly mapped model; replies
   must equal a sequential run's byte for byte. The first requests race
   on the model's deferred first-use work (candidate parse, checksums,
   weight rows, label ranking), so each trial maps the file anew. *)
let test_first_use_threads_domains () =
  let lang, path, held_out = List.hd (Lazy.force fixtures) in
  let reqs ~w =
    List.concat
      (List.mapi
         (fun i code ->
           [
             (0, predict_req ~id:i lang code);
             ( w + 1,
               session_req ~id:(100 + i) ~op:(if i = 0 then "open" else "edit")
                 lang code );
           ])
         held_out)
  in
  let pool = Parallel.create ~jobs:1 () in
  let run engine ~w =
    List.map
      (fun (conn, r) -> Serve.Engine.handle_batch_conn ~pool engine [ (conn, r) ])
      (reqs ~w)
  in
  let expected = run (Serve.Engine.create ~model:(load_mapped path) ()) ~w:0 in
  let graphs = List.map (build lang) held_out in
  let expected_string =
    List.map (Crf.Train.predict (load_mapped path)) graphs
  in
  let n_domains = 2 and n_threads = 3 in
  for trial = 1 to 8 do
    let model = load_mapped path in
    let engine = Serve.Engine.create ~model () in
    let go = Atomic.make false in
    let worker w () =
      while not (Atomic.get go) do
        Thread.yield ()
      done;
      let string_path =
        match List.map (Crf.Train.predict model) graphs with
        | preds -> preds = expected_string
        | exception _ -> false
      in
      (run engine ~w, string_path)
    in
    let domains =
      List.init n_domains (fun d ->
          Domain.spawn (fun () ->
              let results = Array.make n_threads ([], false) in
              let threads =
                List.init n_threads (fun k ->
                    Thread.create
                      (fun () -> results.(k) <- worker ((d * n_threads) + k) ())
                      ())
              in
              List.iter Thread.join threads;
              results))
    in
    Atomic.set go true;
    List.iteri
      (fun d dom ->
        Array.iteri
          (fun k (replies, string_ok) ->
            let tag = Printf.sprintf "trial %d, domain %d, thread %d" trial d k in
            check_bool (tag ^ ": string-graph predictions") true string_ok;
            List.iter2
              (fun e r -> check_string (tag ^ ": reply") (String.concat "\n" e)
                            (String.concat "\n" r))
              expected replies)
          (Domain.join dom))
      domains
  done;
  Parallel.shutdown pool

let () =
  Alcotest.run "frozen"
    [
      ( "oracle",
        [
          Alcotest.test_case "encode = string path, all languages" `Quick
            test_encode_equals_string_path;
          Alcotest.test_case "replies = string path, all languages" `Quick
            test_replies_equal_string_path;
        ] );
      ( "frozen-model",
        [
          QCheck_alcotest.to_alcotest prop_predict_leaves_tables;
          Alcotest.test_case "300k distinct identifiers all answer" `Quick
            test_identifier_flood;
          Alcotest.test_case "first use from threads x domains" `Quick
            test_first_use_threads_domains;
        ] );
    ]
