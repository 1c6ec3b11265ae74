(* Out-of-core training: shard-set round-trips, bounded vocab
   counting, streaming-vs-in-memory ingestion, and — the property the
   whole subsystem exists for — bit-exact checkpoint/resume of both
   trainers from every shard boundary. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pigeon-oocore-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Unix.mkdir dir 0o700;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let mk_node id gold kind = { Crf.Graph.id; gold; kind }

(* Awkward strings on purpose: the shard string table must carry
   anything a real path abstraction produces. *)
let graphs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  List.init n (fun _ ->
      if Random.State.bool rng then
        Crf.Graph.make
          ~nodes:
            [
              mk_node 0 (pick [ "done"; "stop"; "flag" ]) `Unknown;
              mk_node 1 "hello, world %20" `Known;
              mk_node 2 (pick [ "i"; "j" ]) `Unknown;
            ]
          ~factors:
            [
              Crf.Graph.pairwise ~a:0 ~b:1
                ~rel:"SymbolRef\xe2\x86\x91While\xe2\x86\x93True";
              Crf.Graph.pairwise ~a:0 ~b:2 ~rel:"Assign=\xe2\x86\x93Number";
              Crf.Graph.pairwise ~a:0 ~b:2 ~rel:"Assign=\xe2\x86\x93Number";
              Crf.Graph.unary ~n:0 ~rel:"loop guard";
            ]
      else
        Crf.Graph.make
          ~nodes:
            [
              mk_node 0 (pick [ "count"; "total"; "sum" ]) `Unknown;
              mk_node 1 "0" `Known;
            ]
          ~factors:
            [
              Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"Assign=\xe2\x86\x93Number";
              Crf.Graph.unary ~n:0 ~rel:"incr\ttab";
            ])

let sgns_pairs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let words = [| "count"; "total"; "i"; "j"; "items"; "sum"; "done" |] in
  let ctxs =
    [| "Assign\x1f0"; "Ref\x1fwhile"; "Call\x1flen"; "Ref\x1fif"; "Add\x1f1" |]
  in
  List.init n (fun _ ->
      ( words.(Random.State.int rng (Array.length words)),
        ctxs.(Random.State.int rng (Array.length ctxs)) ))

(* ---------- shard sets ---------- *)

let graph_shard_set ~dir ~per_shard gs =
  let w =
    Corpus.Shard.create_writer ~dir ~kind:Corpus.Shard.Graphs
      ~records_per_shard:per_shard ()
  in
  List.iter
    (fun g ->
      Corpus.Shard.add_graph w
        (Pigeon.Task.rec_of_graph ~intern:(Corpus.Shard.intern w) g))
    gs;
  Corpus.Shard.finish w

let test_graph_shard_roundtrip () =
  let gs = graphs ~n:37 ~seed:11 in
  with_temp_dir (fun dir ->
      let set = graph_shard_set ~dir ~per_shard:10 gs in
      check_int "shard count" 4 (Corpus.Shard.n_shards set);
      check_int "total records" 37 (Corpus.Shard.total set);
      let back =
        List.concat
          (List.init (Corpus.Shard.n_shards set) (fun s ->
               Pigeon.Task.graphs_of_shard set s))
      in
      check_bool "graphs round-trip structurally" true (back = gs);
      (* a fresh open of the finished set reads the same graphs *)
      let set2 = Corpus.Shard.open_set dir in
      check_bool "reopened set reads identically" true
        (List.concat
           (List.init (Corpus.Shard.n_shards set2) (fun s ->
                Pigeon.Task.graphs_of_shard set2 s))
        = gs))

let test_pair_shard_roundtrip () =
  let pairs = sgns_pairs ~n:200 ~seed:3 in
  with_temp_dir (fun dir ->
      let w =
        Corpus.Shard.create_writer ~dir ~kind:Corpus.Shard.Pairs
          ~records_per_shard:64 ()
      in
      List.iter
        (fun (a, b) ->
          Corpus.Shard.add_pair w (Corpus.Shard.intern w a)
            (Corpus.Shard.intern w b))
        pairs;
      let set = Corpus.Shard.finish w in
      let back =
        List.rev
          (Corpus.Shard.fold_pairs set ~init:[] ~f:(fun acc a b ->
               (Corpus.Shard.string_of_id set a, Corpus.Shard.string_of_id set b)
               :: acc))
      in
      check_bool "pairs round-trip in order" true (back = pairs))

let test_shard_corruption_detected () =
  let gs = graphs ~n:20 ~seed:7 in
  with_temp_dir (fun dir ->
      ignore (graph_shard_set ~dir ~per_shard:8 gs);
      let shard0 = Filename.concat dir "shard-0000.psh" in
      let body = read_file shard0 in
      (* flip one byte mid-payload *)
      let mangled = Bytes.of_string body in
      let pos = Bytes.length mangled / 2 in
      Bytes.set mangled pos (Char.chr (Char.code (Bytes.get mangled pos) lxor 0x40));
      write_file shard0 (Bytes.to_string mangled);
      let set = Corpus.Shard.open_set dir in
      check_bool "bit flip surfaces as Corrupt_model" true
        (match Corpus.Shard.graphs set 0 with
        | _ -> false
        | exception Lexkit.Diag.Error d ->
            d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model);
      (* truncation too *)
      write_file shard0 (String.sub body 0 (String.length body / 2));
      let set = Corpus.Shard.open_set dir in
      check_bool "truncation surfaces as Corrupt_model" true
        (match Corpus.Shard.graphs set 0 with
        | _ -> false
        | exception Lexkit.Diag.Error d ->
            d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model))

let test_unfinished_set_reads_as_absent () =
  let gs = graphs ~n:5 ~seed:9 in
  with_temp_dir (fun dir ->
      let w =
        Corpus.Shard.create_writer ~dir ~kind:Corpus.Shard.Graphs
          ~records_per_shard:2 ()
      in
      List.iter
        (fun g ->
          Corpus.Shard.add_graph w
            (Pigeon.Task.rec_of_graph ~intern:(Corpus.Shard.intern w) g))
        gs;
      (* no [finish]: a killed writer leaves no meta.psm *)
      check_bool "unfinished set is absent" false (Corpus.Shard.exists dir);
      check_bool "open_set refuses" true
        (match Corpus.Shard.open_set dir with
        | _ -> false
        | exception Lexkit.Diag.Error _ -> true))

(* ---------- bounded vocab counting ---------- *)

let test_counter_exact_under_cap () =
  let items = [ ("a", 5); ("b", 3); ("c", 2); ("d", 1) ] in
  let c = Word2vec.Vocab.Counter.create ~cap:10 () in
  List.iter (fun (w, n) -> Word2vec.Vocab.Counter.add ~count:n c w) items;
  check_int "no occurrences dropped" 0 (Word2vec.Vocab.Counter.dropped c);
  let v = Word2vec.Vocab.Counter.to_vocab c in
  check_bool "same vocabulary as unbounded counting" true
    (Word2vec.Vocab.items v = Word2vec.Vocab.items (Word2vec.Vocab.of_counts items))

let test_counter_prunes_at_cap () =
  let c = Word2vec.Vocab.Counter.create ~cap:4 () in
  (* frequent words survive; a long tail of singletons is pruned away *)
  for i = 1 to 200 do
    Word2vec.Vocab.Counter.add c ("tail" ^ string_of_int i);
    Word2vec.Vocab.Counter.add c "head1";
    Word2vec.Vocab.Counter.add c "head2"
  done;
  check_bool "table stays within cap" true (Word2vec.Vocab.Counter.size c <= 4);
  check_bool "pruning fired" true (Word2vec.Vocab.Counter.dropped c > 0);
  check_bool "floor rose" true (Word2vec.Vocab.Counter.floor c > 1);
  let v = Word2vec.Vocab.Counter.to_vocab c in
  check_bool "frequent words survive with exact counts" true
    (Word2vec.Vocab.id v "head1" <> None
    && Word2vec.Vocab.id v "head2" <> None
    &&
    match Word2vec.Vocab.id v "head1" with
    | Some i -> Word2vec.Vocab.count v i = 200
    | None -> false)

let test_counter_rejects_bad_counts () =
  let c = Word2vec.Vocab.Counter.create () in
  check_bool "negative count rejected" true
    (match Word2vec.Vocab.Counter.add ~count:(-1) c "x" with
    | () -> false
    | exception Invalid_argument _ -> true);
  Word2vec.Vocab.Counter.add ~count:0 c "x";
  check_int "zero count adds nothing" 0 (Word2vec.Vocab.Counter.size c)

let test_of_counts_cap_matches_counter () =
  let items = List.map (fun (w, c) -> (w, c)) [ ("x", 9); ("y", 4); ("z", 1) ] in
  let a = Word2vec.Vocab.of_counts ~cap:16 items in
  let b = Word2vec.Vocab.of_counts items in
  check_bool "capped path equals unbounded when nothing prunes" true
    (Word2vec.Vocab.items a = Word2vec.Vocab.items b)

let test_of_items_identity () =
  let items = [ ("b", 7); ("a", 7); ("c", 1) ] in
  let v = Word2vec.Vocab.of_items items in
  check_bool "ids follow list order exactly" true
    (Word2vec.Vocab.items v = items);
  check_bool "duplicate word rejected" true
    (match Word2vec.Vocab.of_items [ ("a", 1); ("a", 2) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- atomic writes ---------- *)

let test_atomic_gen_cleans_up_on_raise () =
  with_temp_dir (fun dir ->
      let target = Filename.concat dir "out.bin" in
      write_file target "previous contents";
      check_bool "writer exception propagates" true
        (match
           Lexkit.write_file_atomic_gen target (fun oc ->
               output_string oc "partial";
               failwith "mid-write failure")
         with
        | () -> false
        | exception Failure _ -> true);
      check_bool "target untouched" true (read_file target = "previous contents");
      check_int "no temp file left behind" 1 (Array.length (Sys.readdir dir)))

(* ---------- streaming ingestion ---------- *)

let test_ingest_stream_matches_run () =
  let sources =
    List.init 23 (fun i ->
        (Printf.sprintf "f%d.x" i, Printf.sprintf "body %d" i))
  in
  let f _name src = String.length src in
  let direct, rep_run = Pigeon.Ingest.run ~f sources in
  let streamed = ref [] in
  let rep_stream =
    Pigeon.Ingest.stream ~batch:5 ~f
      ~emit:(fun v -> streamed := v :: !streamed)
      sources
  in
  check_bool "same results in the same order" true
    (List.rev !streamed = direct);
  check_int "same attempted" rep_run.Pigeon.Ingest.attempted
    rep_stream.Pigeon.Ingest.attempted;
  check_int "same succeeded" rep_run.Pigeon.Ingest.succeeded
    rep_stream.Pigeon.Ingest.succeeded

(* ---------- CRF checkpoint/resume ---------- *)

let crf_config =
  { Crf.Train.default_config with Crf.Train.iterations = 3 }

let crf_stream_model ?from ?on_shard set =
  Crf.Train.train_of_shards ~config:crf_config
    ~n_shards:(Corpus.Shard.n_shards set)
    ~graphs_of_shard:(Pigeon.Task.graphs_of_shard set)
    ?from ?on_shard ()

let test_crf_resume_every_boundary () =
  let gs = graphs ~n:24 ~seed:21 in
  with_temp_dir (fun dir ->
      let set = graph_shard_set ~dir ~per_shard:9 gs in
      let n_shards = Corpus.Shard.n_shards set in
      let golden = Crf.Serialize.to_string (crf_stream_model set) in
      (* capture a checkpoint image at every shard boundary *)
      let ckpts = ref [] in
      ignore
        (crf_stream_model set
           ~on_shard:(fun ~it ~shard m ->
             let next_it, next_shard =
               if shard + 1 = n_shards then (it + 1, 0) else (it, shard + 1)
             in
             ckpts :=
               Crf.Serialize.checkpoint_to_string ~config:crf_config ~next_it
                 ~next_shard ~n_shards ~jobs:1 m
               :: !ckpts));
      check_int "one checkpoint per (iteration, shard)"
        (crf_config.Crf.Train.iterations * n_shards)
        (List.length !ckpts);
      List.iter
        (fun image ->
          let ck =
            match Crf.Serialize.checkpoint_of_string image with
            | Ok ck -> ck
            | Error d -> Alcotest.failf "checkpoint: %a" Lexkit.Diag.pp d
          in
          let resumed =
            crf_stream_model set
              ~from:
                ( ck.Crf.Serialize.ck_fast,
                  ck.Crf.Serialize.ck_next_it,
                  ck.Crf.Serialize.ck_next_shard )
          in
          check_bool "resumed model byte-identical" true
            (Crf.Serialize.to_string resumed = golden))
        !ckpts)

let test_crf_checkpoint_corruption_detected () =
  let gs = graphs ~n:10 ~seed:2 in
  with_temp_dir (fun dir ->
      let set = graph_shard_set ~dir ~per_shard:5 gs in
      let image = ref "" in
      ignore
        (crf_stream_model set ~on_shard:(fun ~it ~shard m ->
             if !image = "" then
               image :=
                 Crf.Serialize.checkpoint_to_string ~config:crf_config
                   ~next_it:it ~next_shard:(shard + 1)
                   ~n_shards:(Corpus.Shard.n_shards set) ~jobs:1 m));
      let image = !image in
      check_bool "pristine image loads" true
        (Result.is_ok (Crf.Serialize.checkpoint_of_string image));
      List.iter
        (fun pos ->
          let b = Bytes.of_string image in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
          match Crf.Serialize.checkpoint_of_string (Bytes.to_string b) with
          | Ok _ -> Alcotest.failf "bit flip at %d accepted" pos
          | Error d ->
              check_bool "flip reported as Corrupt_model" true
                (d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model))
        [ 0; String.length image / 3; String.length image / 2;
          String.length image - 1 ];
      check_bool "truncation rejected" true
        (Result.is_error
           (Crf.Serialize.checkpoint_of_string
              (String.sub image 0 (String.length image / 2)))))

(* ---------- SGNS checkpoint/resume ---------- *)

let sgns_config =
  {
    Word2vec.Sgns.default_config with
    Word2vec.Sgns.dim = 8;
    epochs = 3;
    min_count = 2;
  }

let pair_plan ~dir ~per_shard pairs =
  let w =
    Corpus.Shard.create_writer ~dir ~kind:Corpus.Shard.Pairs
      ~records_per_shard:per_shard ()
  in
  List.iter
    (fun (a, b) ->
      Corpus.Shard.add_pair w (Corpus.Shard.intern w a) (Corpus.Shard.intern w b))
    pairs;
  let set = Corpus.Shard.finish w in
  Pigeon.W2v_task.plan_of_set ~min_count:sgns_config.Word2vec.Sgns.min_count set

let sgns_stream_model ?from ?on_shard (plan : Pigeon.W2v_task.plan) =
  Word2vec.Sgns.train_stream ~config:sgns_config
    ~words:plan.Pigeon.W2v_task.plan_words
    ~contexts:plan.Pigeon.W2v_task.plan_contexts
    ~shard_sizes:plan.Pigeon.W2v_task.plan_sizes
    ~pairs_of_shard:(Pigeon.W2v_task.plan_pairs plan)
    ?from ?on_shard ()

let test_sgns_resume_every_boundary () =
  with_temp_dir (fun dir ->
      let plan = pair_plan ~dir ~per_shard:60 (sgns_pairs ~n:150 ~seed:5) in
      let golden = Word2vec.Serialize.to_string (sgns_stream_model plan) in
      let ckpts = ref [] in
      ignore
        (sgns_stream_model plan ~on_shard:(fun ~epoch:_ ~shard:_ ck ->
             (* ck_w/ck_c alias the live matrices: serialize now *)
             ckpts := Word2vec.Serialize.checkpoint_to_string ck :: !ckpts));
      check_int "one checkpoint per (epoch, shard)"
        (sgns_config.Word2vec.Sgns.epochs
        * Array.length plan.Pigeon.W2v_task.plan_sizes)
        (List.length !ckpts);
      List.iter
        (fun image ->
          let ck =
            match Word2vec.Serialize.checkpoint_of_string image with
            | Ok ck -> ck
            | Error d -> Alcotest.failf "checkpoint: %a" Lexkit.Diag.pp d
          in
          check_bool "resumed model byte-identical" true
            (Word2vec.Serialize.to_string (sgns_stream_model plan ~from:ck)
            = golden))
        !ckpts)

let test_sgns_checkpoint_rejects_reshard () =
  with_temp_dir (fun dir ->
      let plan = pair_plan ~dir ~per_shard:60 (sgns_pairs ~n:150 ~seed:5) in
      let saved = ref None in
      ignore
        (sgns_stream_model plan ~on_shard:(fun ~epoch:_ ~shard:_ ck ->
             if !saved = None then
               saved := Some (Word2vec.Serialize.checkpoint_to_string ck)));
      let ck =
        match Word2vec.Serialize.checkpoint_of_string (Option.get !saved) with
        | Ok ck -> ck
        | Error d -> Alcotest.failf "checkpoint: %a" Lexkit.Diag.pp d
      in
      with_temp_dir (fun dir2 ->
          (* same pairs, different shard granularity *)
          let plan2 =
            pair_plan ~dir:dir2 ~per_shard:25 (sgns_pairs ~n:150 ~seed:5)
          in
          check_bool "resume against a re-sharded corpus is rejected" true
            (match sgns_stream_model plan2 ~from:ck with
            | _ -> false
            | exception Invalid_argument _ -> true)))

(* A checkpoint or model whose config sizes the C kernel's stack
   arrays out of range (negatives 10^8 or -3, dim 0) is refused, with
   the field named, even when its framing and checksum are intact; the
   trainers refuse such a config before any kernel call. *)
let test_sgns_hostile_config_rejected () =
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  with_temp_dir (fun dir ->
      let plan = pair_plan ~dir ~per_shard:60 (sgns_pairs ~n:150 ~seed:5) in
      let saved = ref None in
      (* ck_w/ck_c alias the live matrices: only their shape is used *)
      let model =
        sgns_stream_model plan ~on_shard:(fun ~epoch:_ ~shard:_ ck ->
            if !saved = None then saved := Some ck)
      in
      let ck = Option.get !saved in
      List.iter
        (fun (field, config) ->
          let what = Option.value ~default:field (Word2vec.Sgns.config_error config) in
          let named = function
            | Ok _ -> false
            | Error d ->
                d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model
                && contains d.Lexkit.Diag.msg field
          in
          let dim = config.Word2vec.Sgns.dim in
          let shrink fa vocab = Float.Array.sub fa 0 (Word2vec.Vocab.size vocab * dim) in
          let image =
            Word2vec.Serialize.checkpoint_to_string
              { ck with
                Word2vec.Sgns.ck_config = config;
                ck_w = shrink ck.Word2vec.Sgns.ck_w ck.Word2vec.Sgns.ck_words;
                ck_c = shrink ck.Word2vec.Sgns.ck_c ck.Word2vec.Sgns.ck_contexts }
          in
          check_bool ("checkpoint with " ^ what ^ " is a named Corrupt_model")
            true
            (named (Word2vec.Serialize.checkpoint_of_string image));
          let rows = Array.map (fun r -> Array.sub r 0 dim) in
          let m =
            { model with
              Word2vec.Sgns.config;
              word_vecs = rows model.Word2vec.Sgns.word_vecs;
              context_vecs = rows model.Word2vec.Sgns.context_vecs }
          in
          check_bool ("model with " ^ what ^ " is a named Corrupt_model") true
            (named
               (Word2vec.Serialize.of_string (Word2vec.Serialize.to_string m)));
          let refused f =
            match f () with
            | _ -> false
            | exception Invalid_argument msg -> contains msg field
          in
          check_bool ("train_stream refuses " ^ what) true
            (refused (fun () ->
                 Word2vec.Sgns.train_stream ~config
                   ~words:plan.Pigeon.W2v_task.plan_words
                   ~contexts:plan.Pigeon.W2v_task.plan_contexts
                   ~shard_sizes:plan.Pigeon.W2v_task.plan_sizes
                   ~pairs_of_shard:(Pigeon.W2v_task.plan_pairs plan) ()));
          check_bool ("train refuses " ^ what) true
            (refused (fun () ->
                 Word2vec.Sgns.train ~config (sgns_pairs ~n:20 ~seed:5))))
        [
          ("negatives", { sgns_config with Word2vec.Sgns.negatives = 100_000_000 });
          ("negatives", { sgns_config with Word2vec.Sgns.negatives = -3 });
          ("dim", { sgns_config with Word2vec.Sgns.dim = 0 });
        ])

(* ---------- SIGKILL mid-checkpoint ---------- *)

(* The checkpoint file is written atomically, so a SIGKILL anywhere in
   a save leaves the previous complete checkpoint or the new one,
   never a torn file. Kill a process that checkpoints in a tight loop;
   the survivor must always load. *)
let test_sigkill_mid_checkpoint_keeps_loadable () =
  with_temp_dir (fun dir ->
      let set = graph_shard_set ~dir ~per_shard:5 (graphs ~n:10 ~seed:13) in
      let m = ref None in
      ignore
        (crf_stream_model set ~on_shard:(fun ~it:_ ~shard:_ model ->
             m := Some model));
      let model = Option.get !m in
      let path = Filename.concat dir "ck.crf" in
      let save () =
        Crf.Serialize.checkpoint_save path ~config:crf_config ~next_it:1
          ~next_shard:0 ~n_shards:(Corpus.Shard.n_shards set) ~jobs:1 model
      in
      save ();
      let golden = read_file path in
      let src = Filename.concat dir "ck.src" in
      write_file src golden;
      for _round = 1 to 3 do
        check_bool "saver started" true
          (Kill_loop.save_and_kill ~kind:"checkpoint" ~src ~dst:path
             ~after:0.05);
        check_bool "checkpoint loads after SIGKILL mid-save" true
          (Result.is_ok (Crf.Serialize.checkpoint_load path));
        check_bool "file holds a complete checkpoint" true
          (read_file path = golden)
      done)

let () =
  Alcotest.run "oocore"
    [
      ( "shards",
        [
          Alcotest.test_case "graph round-trip" `Quick test_graph_shard_roundtrip;
          Alcotest.test_case "pair round-trip" `Quick test_pair_shard_roundtrip;
          Alcotest.test_case "corruption detected" `Quick
            test_shard_corruption_detected;
          Alcotest.test_case "unfinished set reads as absent" `Quick
            test_unfinished_set_reads_as_absent;
        ] );
      ( "vocab-counter",
        [
          Alcotest.test_case "exact under cap" `Quick test_counter_exact_under_cap;
          Alcotest.test_case "prunes at cap" `Quick test_counter_prunes_at_cap;
          Alcotest.test_case "rejects bad counts" `Quick
            test_counter_rejects_bad_counts;
          Alcotest.test_case "of_counts cap path" `Quick
            test_of_counts_cap_matches_counter;
          Alcotest.test_case "of_items identity" `Quick test_of_items_identity;
        ] );
      ( "atomic-write",
        [
          Alcotest.test_case "raise mid-write cleans up" `Quick
            test_atomic_gen_cleans_up_on_raise;
        ] );
      ( "ingest-stream",
        [
          Alcotest.test_case "matches run" `Quick test_ingest_stream_matches_run;
        ] );
      ( "crf-resume",
        [
          Alcotest.test_case "bit-exact from every boundary" `Slow
            test_crf_resume_every_boundary;
          Alcotest.test_case "checkpoint corruption detected" `Quick
            test_crf_checkpoint_corruption_detected;
          Alcotest.test_case "SIGKILL mid-checkpoint keeps a loadable file"
            `Quick test_sigkill_mid_checkpoint_keeps_loadable;
        ] );
      ( "sgns-resume",
        [
          Alcotest.test_case "bit-exact from every boundary" `Slow
            test_sgns_resume_every_boundary;
          Alcotest.test_case "re-sharded corpus rejected" `Quick
            test_sgns_checkpoint_rejects_reshard;
          Alcotest.test_case "hostile config rejected" `Quick
            test_sgns_hostile_config_rejected;
        ] );
    ]
