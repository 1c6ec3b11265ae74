(* The PIGEON command-line tool.

   Subcommands:
     paths    — extract and print path-contexts from a source file
     ast      — print the generic AST (or Graphviz) of a file
     gen      — emit a synthetic corpus into a directory
     rename   — deobfuscate: train on the fly and predict local names
     train    — train a variable-name model and save it to a file
     predict  — predict local names for a file using a saved model
     serve    — long-lived prediction daemon over a Unix/TCP socket
     client   — send one request to a running daemon
     stats    — Table-1 style corpus statistics of a directory

   Examples:
     pigeon paths --lang JavaScript file.js
     pigeon gen --lang Java --files 100 out/
     pigeon train --lang JavaScript --files 300 model.crf
     pigeon predict --lang JavaScript --model model.crf minified.js
     pigeon serve --model model.crf --socket /tmp/pigeon.sock
     pigeon client --socket /tmp/pigeon.sock --lang JavaScript minified.js *)

open Cmdliner

let lang_conv =
  let parse s =
    match Pigeon.Lang.by_name s with
    | Some l -> Ok l
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown language %S (use %s)" s
                (String.concat ", "
                   (List.map (fun (l : Pigeon.Lang.t) -> l.Pigeon.Lang.name)
                      Pigeon.Lang.all))))
  in
  let print ppf (l : Pigeon.Lang.t) = Format.fprintf ppf "%s" l.Pigeon.Lang.name in
  Arg.conv (parse, print)

let lang_arg =
  Arg.(
    value
    & opt lang_conv Pigeon.Lang.javascript
    & info [ "lang" ] ~docv:"LANG" ~doc:"Language: JavaScript, Java, Python or C#.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Source file.")

(* --jobs wins over PIGEON_JOBS; both default to the machine's core
   count. Ingestion always uses the resulting shared pool (identical
   results for any job count); training additionally opts into
   parallel rounds when more than one job is available. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel stages. Defaults to \
           $(b,PIGEON_JOBS) or the machine's core count.")

let pool_of_jobs jobs =
  (match jobs with Some n -> Parallel.set_default_jobs n | None -> ());
  let p = Parallel.get_pool () in
  if Parallel.jobs p > 1 then Some p else None

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg ->
    Format.eprintf "error: cannot read %s: %s@." path msg;
    exit 1

(* Run a command body, turning every structured failure (parse error,
   resource limit, I/O error, corrupt model) into a message on stderr
   and a non-zero exit instead of a backtrace. *)
let handle_parse_errors f =
  match Lexkit.protect f with
  | Ok v -> v
  | Error d ->
      Format.eprintf "error:%a@." Lexkit.Diag.pp d;
      exit 1

(* Numeric flags are range-checked in the command body, not by a
   converter (whose failure exits 124): an out-of-range value is a
   usage error like any other here — a diagnostic on stderr and exit
   2, never an uncaught exception. *)
let require_at_least ~flag min v =
  if v < min then begin
    Format.eprintf "error: --%s must be at least %d, got %d@." flag min v;
    exit 2
  end

let require_at_least_float ~flag min v =
  if not (v >= min) then begin
    Format.eprintf "error: --%s must be at least %g, got %g@." flag min v;
    exit 2
  end

(* Timeouts end up in [Unix.select], whose C stub takes whole seconds
   as an [int]: past 2^31 it fails with EINVAL. *)
let require_at_most_float ~flag max v =
  if not (v <= max) then begin
    Format.eprintf "error: --%s must be at most %g, got %g@." flag max v;
    exit 2
  end

let require_port ~flag p =
  if p < 0 || p > 65535 then begin
    Format.eprintf "error: --%s must be a port from 0 to 65535, got %d@." flag
      p;
    exit 2
  end

(* ---------- paths ---------- *)

let length_arg =
  Arg.(value & opt int 7 & info [ "max-length" ] ~doc:"Maximal path length.")

let width_arg =
  Arg.(value & opt int 3 & info [ "max-width" ] ~doc:"Maximal path width.")

let paths_cmd =
  let run lang file max_length max_width =
    require_at_least ~flag:"max-length" 1 max_length;
    require_at_least ~flag:"max-width" 0 max_width;
    handle_parse_errors @@ fun () ->
    let tree = lang.Pigeon.Lang.parse_tree (read_file file) in
    let idx = Ast.Index.build tree in
    let config = Astpath.Config.make ~max_length ~max_width () in
    let contexts = Astpath.Extract.leaf_pairs idx config in
    List.iter (fun c -> Format.printf "%a@." Astpath.Context.pp c) contexts;
    Format.printf "%d path-contexts@." (List.length contexts)
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Extract and print the AST path-contexts of a file.")
    Term.(const run $ lang_arg $ file_arg $ length_arg $ width_arg)

(* ---------- ast ---------- *)

let ast_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  let run lang file dot_out =
    handle_parse_errors @@ fun () ->
    let tree = lang.Pigeon.Lang.parse_tree (read_file file) in
    if dot_out then print_string (Ast.Dot.tree_to_dot tree)
    else Format.printf "%a@." Ast.Tree.pp tree
  in
  Cmd.v
    (Cmd.info "ast" ~doc:"Print the generic AST of a file.")
    Term.(const run $ lang_arg $ file_arg $ dot)

(* ---------- gen ---------- *)

let gen_cmd =
  let files_arg =
    Arg.(value & opt int 100 & info [ "files" ] ~doc:"Number of files.")
  in
  let seed_arg = Arg.(value & opt int 2018 & info [ "seed" ] ~doc:"Seed.") in
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")
  in
  let run lang n seed dir =
    require_at_least ~flag:"files" 0 n;
    handle_parse_errors @@ fun () ->
    let config = { Corpus.Gen.default with Corpus.Gen.n_files = n; seed } in
    let sources =
      Corpus.Gen.generate_sources config lang.Pigeon.Lang.render_lang
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (name, src) ->
        let oc = open_out (Filename.concat dir name) in
        output_string oc src;
        close_out oc)
      sources;
    Format.printf "wrote %d files to %s@." (List.length sources) dir
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic corpus into a directory.")
    Term.(const run $ lang_arg $ files_arg $ seed_arg $ dir_arg)

(* ---------- rename ---------- *)

let rename_cmd =
  let train_files =
    Arg.(
      value & opt int 300
      & info [ "train-files" ] ~doc:"Synthetic training corpus size.")
  in
  let run lang n jobs file =
    require_at_least ~flag:"train-files" 0 n;
    handle_parse_errors @@ fun () ->
    let pool = pool_of_jobs jobs in
    let config = { Corpus.Gen.default with Corpus.Gen.n_files = n; seed = 42 } in
    let sources =
      Corpus.Gen.generate_sources config lang.Pigeon.Lang.render_lang
    in
    let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
    let graphs =
      Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals
        sources
    in
    Format.eprintf "training on %d graphs...@." (List.length graphs);
    let model = Crf.Train.train ?pool graphs in
    let src = read_file file in
    let tree = lang.Pigeon.Lang.parse_tree src in
    let g =
      Pigeon.Graphs.build repr ~def_labels:lang.Pigeon.Lang.def_labels
        ~policy:Pigeon.Graphs.Locals tree
    in
    let pred = Crf.Train.predict model g in
    let gold = Crf.Graph.gold_assignment g in
    Format.printf "predicted names:@.";
    List.iter
      (fun node -> Format.printf "  %-16s -> %s@." gold.(node) pred.(node))
      (Crf.Graph.unknown_ids g)
  in
  Cmd.v
    (Cmd.info "rename"
       ~doc:
         "Predict names for the local variables of a file (train on a fresh \
          synthetic corpus).")
    Term.(const run $ lang_arg $ train_files $ jobs_arg $ file_arg)

(* ---------- train ---------- *)

let train_cmd =
  let files_arg =
    Arg.(value & opt int 300 & info [ "files" ] ~doc:"Synthetic corpus size.")
  in
  let out_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL"
         ~doc:"Output model file.")
  in
  let w2v_arg =
    Arg.(value & flag & info [ "w2v" ]
         ~doc:"Train a word2vec (SGNS) model over AST-path contexts instead \
               of a CRF.")
  in
  let shard_dir_arg =
    Arg.(value & opt (some string) None & info [ "shard-dir" ] ~docv:"DIR"
         ~doc:"Out-of-core mode: extract into a shard set under DIR (reusing \
               a finished set already there) and stream training from disk \
               with bounded memory.")
  in
  let checkpoint_arg =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"PATH"
         ~doc:"Write the trainer state to PATH, atomically, after every \
               shard (needs --shard-dir). A killed run loses at most one \
               shard of work.")
  in
  let resume_arg =
    Arg.(value & flag & info [ "resume" ]
         ~doc:"Continue from --checkpoint PATH when it exists (fresh start \
               otherwise). The finished model is byte-identical to an \
               uninterrupted run with the same job count.")
  in
  let heap_arg =
    Arg.(value & opt (some int) None & info [ "max-heap-mb" ] ~docv:"MB"
         ~doc:"Memory budget for out-of-core runs: sizes extraction shards \
               so one shard's decoded working set stays within the budget.")
  in
  (* Size shards so one decoded shard fits the budget. The two record
     kinds differ by orders of magnitude: a graph record carries a
     whole file's nodes and factors (~16 KiB decoded on synthetic
     corpora), a training pair is two ids plus its share of the string
     table (~512 B). Estimates are deliberately conservative. *)
  let graphs_for_budget mb = max 16 (mb * 64) in
  let pairs_for_budget mb = max 1024 (mb * 2048) in
  let run lang n w2v shard_dir checkpoint resume max_heap_mb jobs out =
    require_at_least ~flag:"files" 0 n;
    handle_parse_errors @@ fun () ->
    (match (checkpoint, resume, shard_dir) with
    | Some _, _, None | None, true, _ ->
        Format.eprintf
          "error: --checkpoint needs --shard-dir, and --resume needs \
           --checkpoint@.";
        exit 2
    | _ -> ());
    let pool = pool_of_jobs jobs in
    let jobs_n = match pool with Some p -> Parallel.jobs p | None -> 1 in
    let records_per_shard =
      Option.map
        (if w2v then pairs_for_budget else graphs_for_budget)
        max_heap_mb
    in
    let sources () =
      let config =
        { Corpus.Gen.default with Corpus.Gen.n_files = n; seed = 42 }
      in
      Corpus.Gen.generate_sources config lang.Pigeon.Lang.render_lang
    in
    let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
    (* Reuse a finished shard set instead of re-extracting: that is
       what makes --resume cheap, and the set is immutable so the
       resumed run streams the exact records the killed run did. *)
    let shard_set ~extract dir =
      if Corpus.Shard.exists dir then begin
        Format.eprintf "pigeon train: reusing shard set in %s@." dir;
        Corpus.Shard.open_set dir
      end
      else begin
        let set, report = extract dir (sources ()) in
        Pigeon.Ingest.log ~label:(lang.Pigeon.Lang.name ^ " extract") report;
        set
      end
    in
    let load_ckpt path load =
      if resume && Sys.file_exists path then
        match load path with
        | Ok ck -> Some ck
        | Error d ->
            Format.eprintf "error: cannot resume:%a@." Lexkit.Diag.pp d;
            exit 1
      else None
    in
    let warn_jobs ~now ck_jobs =
      if ck_jobs <> now then
        Format.eprintf
          "pigeon train: warning: checkpoint was written with %d job(s), \
           resuming with %d — the result will not be bit-identical to an \
           uninterrupted run@."
          ck_jobs now
    in
    if w2v then begin
      (* Both SGNS trainers run without the pool: the sequential C
         kernel beats every pooled mode, so a w2v model is the same at
         every -j (extraction still fans out). *)
      let sgns_config = Word2vec.Sgns.default_config in
      let model =
        match shard_dir with
        | None ->
            let elems, report =
              Pigeon.Ingest.run
                ~f:(fun _name src ->
                  Pigeon.W2v_task.pairs_of_source ~lang
                    ~mode:(Pigeon.W2v_task.Paths repr) src)
                (sources ())
            in
            Pigeon.Ingest.log ~label:(lang.Pigeon.Lang.name ^ " w2v") report;
            let pairs =
              List.concat_map
                (fun (name, ctxs) -> List.map (fun c -> (name, c)) ctxs)
                (List.concat elems)
            in
            Format.eprintf "training on %d pairs...@." (List.length pairs);
            Word2vec.Sgns.train ~config:sgns_config pairs
        | Some dir ->
            let set =
              shard_set dir ~extract:(fun dir srcs ->
                  Pigeon.W2v_task.extract_pair_shards ?records_per_shard ~lang
                    ~mode:(Pigeon.W2v_task.Paths repr) ~dir srcs)
            in
            let plan =
              Pigeon.W2v_task.plan_of_set
                ~min_count:sgns_config.Word2vec.Sgns.min_count set
            in
            let from =
              Option.bind checkpoint (fun path ->
                  load_ckpt path Word2vec.Serialize.checkpoint_load)
            in
            let config =
              match from with
              | Some ck ->
                  warn_jobs ~now:1 ck.Word2vec.Sgns.ck_jobs;
                  Format.eprintf "pigeon train: resuming at epoch %d, shard %d@."
                    ck.Word2vec.Sgns.ck_next_epoch ck.Word2vec.Sgns.ck_next_shard;
                  ck.Word2vec.Sgns.ck_config
              | None -> sgns_config
            in
            let on_shard =
              Option.map
                (fun path ~epoch:_ ~shard:_ ck ->
                  Word2vec.Serialize.checkpoint_save path ck)
                checkpoint
            in
            Format.eprintf "training on %d pairs in %d shards...@."
              (Array.fold_left ( + ) 0 plan.Pigeon.W2v_task.plan_sizes)
              (Corpus.Shard.n_shards set);
            Word2vec.Sgns.train_stream ~config
              ~words:plan.Pigeon.W2v_task.plan_words
              ~contexts:plan.Pigeon.W2v_task.plan_contexts
              ~shard_sizes:plan.Pigeon.W2v_task.plan_sizes
              ~pairs_of_shard:(Pigeon.W2v_task.plan_pairs plan)
              ?from ?on_shard ()
      in
      Word2vec.Serialize.save model out;
      Format.printf "wrote %s (%d words, %d contexts)@." out
        (Word2vec.Vocab.size model.Word2vec.Sgns.words)
        (Word2vec.Vocab.size model.Word2vec.Sgns.contexts)
    end
    else begin
      let model =
        match shard_dir with
        | None ->
            let graphs =
              Pigeon.Task.graphs_of_sources ~repr ~lang
                ~policy:Pigeon.Graphs.Locals (sources ())
            in
            Format.eprintf "training on %d graphs...@." (List.length graphs);
            Crf.Train.train ?pool graphs
        | Some dir ->
            let set =
              shard_set dir ~extract:(fun dir srcs ->
                  Pigeon.Task.extract_graph_shards ?pool ?records_per_shard
                    ~repr ~lang ~policy:Pigeon.Graphs.Locals ~dir srcs)
            in
            let n_shards = Corpus.Shard.n_shards set in
            if n_shards = 0 then begin
              Format.eprintf "error: the shard set in %s is empty@." dir;
              exit 1
            end;
            let from, config =
              match
                Option.bind checkpoint (fun path ->
                    load_ckpt path Crf.Serialize.checkpoint_load)
              with
              | Some ck ->
                  if ck.Crf.Serialize.ck_n_shards <> n_shards then begin
                    Format.eprintf
                      "error: checkpoint was taken over %d shards, the set \
                       has %d — re-extract or drop --resume@."
                      ck.Crf.Serialize.ck_n_shards n_shards;
                    exit 1
                  end;
                  warn_jobs ~now:jobs_n ck.Crf.Serialize.ck_jobs;
                  Format.eprintf
                    "pigeon train: resuming at iteration %d, shard %d@."
                    ck.Crf.Serialize.ck_next_it ck.Crf.Serialize.ck_next_shard;
                  ( Some
                      ( ck.Crf.Serialize.ck_fast,
                        ck.Crf.Serialize.ck_next_it,
                        ck.Crf.Serialize.ck_next_shard ),
                    ck.Crf.Serialize.ck_config )
              | None -> (None, Crf.Train.default_config)
            in
            let on_shard =
              Option.map
                (fun path ~it ~shard m ->
                  let next_it, next_shard =
                    if shard + 1 = n_shards then (it + 1, 0) else (it, shard + 1)
                  in
                  Crf.Serialize.checkpoint_save path ~config ~next_it
                    ~next_shard ~n_shards ~jobs:jobs_n m)
                checkpoint
            in
            Format.eprintf "training on %d graphs in %d shards...@."
              (Corpus.Shard.total set) n_shards;
            Crf.Train.train_of_shards ?pool ~config ~n_shards
              ~graphs_of_shard:(Pigeon.Task.graphs_of_shard set)
              ?from ?on_shard ()
      in
      Crf.Serialize.save model out;
      Format.printf "wrote %s (%d features)@." out
        (Crf.Model.size (Lazy.force model.Crf.Train.weights))
    end
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Train a variable-name model on a synthetic corpus and save it. \
             With --shard-dir, extraction streams to disk shards and \
             training streams them back with bounded memory; --checkpoint \
             and --resume make such runs kill-safe (a resumed single-job run \
             finishes byte-identical to an uninterrupted one).")
    Term.(const run $ lang_arg $ files_arg $ w2v_arg $ shard_dir_arg
          $ checkpoint_arg $ resume_arg $ heap_arg $ jobs_arg $ out_arg)

(* ---------- predict (from a saved model) ---------- *)

let load_crf_model path =
  match Crf.Serialize.load path with
  | Ok m -> m
  | Error d ->
      Format.eprintf "error: cannot load model:%a@." Lexkit.Diag.pp d;
      exit 1

let predict_cmd =
  let model_arg =
    Arg.(required & opt (some file) None & info [ "model" ] ~docv:"MODEL"
         ~doc:"Model file written by `pigeon train`.")
  in
  (* One-shot prediction goes through the exact code the daemon runs
     (Serve.Engine), which is what makes the serve byte-identity
     contract checkable: same input, same model, same pairs. The model
     is mapped, not copied — for a one-shot the load is most of the
     work, and mapped predictions are byte-identical (tested). *)
  let run lang model_path file =
    let model, storage =
      match Crf.Serialize.load_mapped model_path with
      | Ok ms -> ms
      | Error d ->
          Format.eprintf "error: cannot load model:%a@." Lexkit.Diag.pp d;
          exit 1
    in
    Option.iter
      (fun n -> Format.eprintf "pigeon predict: %s@." n)
      (Lexkit.Storage.note storage);
    let engine = Serve.Engine.create ~storage ~model () in
    match Serve.Engine.predict_one engine ~lang ~code:(read_file file) with
    | Ok pairs ->
        List.iter
          (fun (var, name) -> Format.printf "  %-16s -> %s@." var name)
          pairs
    | Error e ->
        Format.eprintf "error: [%s] %s@." e.Serve.Protocol.kind
          e.Serve.Protocol.msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Predict local-variable names for a file using a saved model.")
    Term.(const run $ lang_arg $ model_arg $ file_arg)

(* ---------- serve ---------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path.")

let serve_cmd =
  let model_arg =
    Arg.(required & opt (some file) None & info [ "model" ] ~docv:"MODEL"
         ~doc:"CRF model file written by `pigeon train`.")
  in
  let w2v_arg =
    Arg.(value & opt (some file) None & info [ "w2v" ] ~docv:"MODEL"
         ~doc:"Optional word2vec model, enables the `similar` op.")
  in
  let named_arg =
    Arg.(value & opt_all string [] & info [ "named-model" ] ~docv:"NAME=PATH"
         ~doc:"Preload an extra CRF model into the registry under NAME \
               (repeatable). Requests select it with a \"model\" field \
               (client: --model-name).")
  in
  let no_mmap_arg =
    Arg.(value & flag & info [ "no-mmap" ]
         ~doc:"Load models as heap copies instead of mapping v4 files \
               zero-copy.")
  in
  let max_mapped_arg =
    Arg.(value & opt int 0 & info [ "max-mapped-bytes" ] ~docv:"N"
         ~doc:"Evict least-recently-used non-default models once the mapped \
               bytes across the registry exceed N (0 = unbounded). Evicted \
               models revive on their next request.")
  in
  let max_session_arg =
    Arg.(value & opt int 0 & info [ "max-session-bytes" ] ~docv:"N"
         ~doc:"Evict least-recently-used edit sessions once their summed \
               extraction-cache bytes exceed N (0 = unbounded). An evicted \
               session's next edit answers \"no-session\"; clients re-open.")
  in
  let tcp_arg =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
         ~doc:"Also (or instead) listen on this TCP port.")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"Bind host for --tcp.")
  in
  let batch_arg =
    Arg.(value & opt int 16 & info [ "max-batch" ] ~docv:"N"
         ~doc:"Most requests fused into one batched inference round.")
  in
  let max_bytes_arg =
    Arg.(value & opt (some int) None & info [ "max-input-bytes" ] ~docv:"N"
         ~doc:"Per-request source size cap (default 8 MiB).")
  in
  let max_depth_arg =
    Arg.(value & opt (some int) None & info [ "max-depth" ] ~docv:"N"
         ~doc:"Per-request nesting depth cap (default 1000).")
  in
  let max_steps_arg =
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N"
         ~doc:"Per-request parse step budget (default 20M).")
  in
  let max_queue_arg =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.max_queue
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Most predict/similar requests queued before excess ones \
                   are shed with an \"overloaded\" error (0 = unbounded).")
  in
  let max_conns_arg =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.max_conns
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Most concurrent connections before excess ones are \
                   rejected with an \"overloaded\" error (0 = unbounded).")
  in
  let idle_timeout_arg =
    Arg.(value
         & opt float Serve.Server.default_config.Serve.Server.idle_timeout
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-connection I/O budget: close connections that stay \
                   silent (or stop draining replies) this long (0 = never).")
  in
  let run model_path w2v_path named no_mmap max_mapped_bytes max_session_bytes
      socket tcp host jobs max_batch max_bytes max_depth max_steps max_queue
      max_conns idle_timeout =
    (* 0 means "unbounded" for the budgets; a negative value would read
       the same way without saying so. A limit below 1 on request size,
       depth or steps would fail every non-empty request, a batch of at
       most 0 requests never drains the queue, and a port outside
       0-65535 binds some other port. *)
    require_at_least ~flag:"max-batch" 1 max_batch;
    require_at_least ~flag:"max-queue" 0 max_queue;
    require_at_least ~flag:"max-conns" 0 max_conns;
    require_at_least ~flag:"max-mapped-bytes" 0 max_mapped_bytes;
    require_at_least ~flag:"max-session-bytes" 0 max_session_bytes;
    require_at_least_float ~flag:"idle-timeout" 0. idle_timeout;
    require_at_most_float ~flag:"idle-timeout" 1e9 idle_timeout;
    Option.iter (require_at_least ~flag:"max-input-bytes" 1) max_bytes;
    Option.iter (require_at_least ~flag:"max-depth" 1) max_depth;
    Option.iter (require_at_least ~flag:"max-steps" 1) max_steps;
    Option.iter (require_port ~flag:"tcp") tcp;
    if socket = None && tcp = None then begin
      Format.eprintf "error: pass --socket PATH and/or --tcp PORT@.";
      exit 2
    end;
    let mmap = not no_mmap in
    let named =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | Some i when i > 0 && i < String.length spec - 1 ->
              ( String.sub spec 0 i,
                String.sub spec (i + 1) (String.length spec - i - 1) )
          | _ ->
              Format.eprintf "error: --named-model wants NAME=PATH, got %S@."
                spec;
              exit 2)
        named
    in
    let note_line n = Format.eprintf "pigeon serve: %s@." n in
    let model, storage =
      if mmap then
        match Crf.Serialize.load_mapped model_path with
        | Ok (m, s) ->
            Option.iter note_line (Lexkit.Storage.note s);
            (m, s)
        | Error d ->
            Format.eprintf "error: cannot load model:%a@." Lexkit.Diag.pp d;
            exit 1
      else (load_crf_model model_path, Lexkit.Storage.heap)
    in
    let w2v_view, storage =
      match w2v_path with
      | None -> (None, storage)
      | Some p -> (
          if mmap then
            match Word2vec.Serialize.load_mapped p with
            | Ok (v, s) ->
                Option.iter note_line (Lexkit.Storage.note s);
                (Some v, Lexkit.Storage.merge storage s)
            | Error d ->
                Format.eprintf "error: cannot load w2v model:%a@."
                  Lexkit.Diag.pp d;
                exit 1
          else
            match Word2vec.Serialize.load p with
            | Ok m -> (Some (Word2vec.Sgns.view_of m), storage)
            | Error d ->
                Format.eprintf "error: cannot load w2v model:%a@."
                  Lexkit.Diag.pp d;
                exit 1)
    in
    let limits =
      let d = Lexkit.default_limits in
      {
        Lexkit.max_input_bytes =
          Option.value ~default:d.Lexkit.max_input_bytes max_bytes;
        max_depth = Option.value ~default:d.Lexkit.max_depth max_depth;
        max_parse_steps =
          Option.value ~default:d.Lexkit.max_parse_steps max_steps;
      }
    in
    let faults =
      match Serve.Faults.of_env () with
      | Ok f -> f
      | Error msg ->
          Format.eprintf "error: PIGEON_FAULTS: %s@." msg;
          exit 2
    in
    let pool = pool_of_jobs jobs in
    let engine =
      Serve.Engine.create ?w2v_view ~storage ~limits ~model_path ?w2v_path
        ~mmap ~max_mapped_bytes ~max_session_bytes ~model ()
    in
    List.iter
      (fun (name, path) ->
        match Serve.Engine.reload engine ~name ~model_path:path () with
        | Ok note ->
            Format.eprintf "pigeon serve: model %S loaded from %s@." name path;
            Option.iter note_line note
        | Error e ->
            Format.eprintf "error: cannot load named model %S: [%s] %s@." name
              e.Serve.Protocol.kind e.Serve.Protocol.msg;
            exit 1)
      named;
    let cfg =
      {
        Serve.Server.default_config with
        Serve.Server.unix_socket = socket;
        tcp = Option.map (fun p -> (host, p)) tcp;
        max_batch;
        max_queue;
        max_conns;
        idle_timeout;
        faults;
      }
    in
    let t =
      try Serve.Server.start ?pool engine cfg
      with e ->
        Format.eprintf "error: cannot start server: %s@." (Printexc.to_string e);
        exit 1
    in
    List.iter
      (fun s -> Format.eprintf "pigeon serve: listening on %s@." s)
      ((match socket with Some p -> [ p ] | None -> [])
      @ match tcp with Some p -> [ Printf.sprintf "%s:%d" host p ] | None -> []);
    (* Signal handlers only set flags; the polling loop below does the
       actual work from a plain thread context (mutexes and condition
       variables are not signal-safe). SIGTERM/SIGINT drain then stop;
       SIGHUP hot-reloads the model files from disk. *)
    let sig_stop = Atomic.make false in
    let sig_hup = Atomic.make false in
    let set_signal s h =
      try Sys.set_signal s (Sys.Signal_handle h)
      with Invalid_argument _ | Sys_error _ -> ()
    in
    set_signal Sys.sigint (fun _ -> Atomic.set sig_stop true);
    set_signal Sys.sigterm (fun _ -> Atomic.set sig_stop true);
    set_signal Sys.sighup (fun _ -> Atomic.set sig_hup true);
    while (not (Serve.Server.stopped t)) && not (Atomic.get sig_stop) do
      if Atomic.compare_and_set sig_hup true false then begin
        match Serve.Server.reload t with
        | Ok () -> Format.eprintf "pigeon serve: model reloaded (SIGHUP)@."
        | Error e ->
            Format.eprintf
              "pigeon serve: reload failed, keeping old model: [%s] %s@."
              e.Serve.Protocol.kind e.Serve.Protocol.msg
      end;
      Thread.delay 0.05
    done;
    if Atomic.get sig_stop then Serve.Server.request_stop t;
    Serve.Server.wait t;
    Format.eprintf "pigeon serve: stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived prediction daemon: load the model once, answer \
          newline-delimited JSON requests over a Unix (and optionally TCP) \
          socket, batching concurrent requests across the domain pool. \
          Overloads shed with structured errors (see --max-queue, \
          --max-conns, --idle-timeout); SIGHUP (or the reload op) hot-swaps \
          the model; SIGTERM/SIGINT drain then stop. Model files map \
          zero-copy by default (--no-mmap for heap copies); extra models \
          preload with --named-model and evict under --max-mapped-bytes. \
          Editor clients open edit sessions (open/edit/close ops) whose \
          incremental extraction caches evict under --max-session-bytes. Set \
          PIGEON_FAULTS to inject faults for chaos testing.")
    Term.(
      const run $ model_arg $ w2v_arg $ named_arg $ no_mmap_arg
      $ max_mapped_arg $ max_session_arg $ socket_arg $ tcp_arg $ host_arg
      $ jobs_arg $ batch_arg $ max_bytes_arg $ max_depth_arg $ max_steps_arg
      $ max_queue_arg $ max_conns_arg $ idle_timeout_arg)

(* ---------- client ---------- *)

let client_cmd =
  let tcp_arg =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
         ~doc:"Connect over TCP instead of the Unix socket.")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"Host for --tcp.")
  in
  let op_arg =
    Arg.(
      value
      & opt (enum [ ("predict", `Predict); ("ping", `Ping); ("stats", `Stats);
                    ("shutdown", `Shutdown); ("similar", `Similar);
                    ("reload", `Reload); ("session", `Session) ])
          `Predict
      & info [ "op" ] ~docv:"OP"
          ~doc:"Request kind: predict (default), ping, stats, shutdown, \
                similar, reload, session (open FILE, apply each --edit, \
                close — one reply line per step).")
  in
  let edit_arg =
    Arg.(value & opt_all file [] & info [ "edit" ] ~docv:"FILE"
         ~doc:"With --op session: send this file as the next full-buffer \
               edit (repeatable; applied in order between open and close).")
  in
  let session_name_arg =
    Arg.(value & opt string "default" & info [ "session" ] ~docv:"NAME"
         ~doc:"Session (buffer) name for --op session.")
  in
  let word_arg =
    Arg.(value & opt (some string) None & info [ "word" ] ~docv:"WORD"
         ~doc:"Word for --op similar.")
  in
  let k_arg =
    Arg.(value & opt int 5 & info [ "k" ] ~docv:"N"
         ~doc:"Neighbor count for --op similar.")
  in
  let model_name_arg =
    Arg.(value & opt (some string) None & info [ "model-name" ] ~docv:"NAME"
         ~doc:"Registry model to run the request against (predict/similar), \
               or to load into with --op reload (default: the daemon's \
               default model).")
  in
  let reload_model_arg =
    Arg.(value & opt (some string) None & info [ "reload-model" ] ~docv:"PATH"
         ~doc:"CRF model path for --op reload (default: the daemon re-reads \
               the file it was started from).")
  in
  let reload_w2v_arg =
    Arg.(value & opt (some string) None & info [ "reload-w2v" ] ~docv:"PATH"
         ~doc:"word2vec model path for --op reload.")
  in
  let unload_arg =
    Arg.(value & opt (some string) None & info [ "unload" ] ~docv:"NAME"
         ~doc:"With --op reload: drop this model from the daemon's registry.")
  in
  let set_default_arg =
    Arg.(value & opt (some string) None & info [ "set-default" ] ~docv:"NAME"
         ~doc:"With --op reload: make this model the daemon's default.")
  in
  let timeout_arg =
    Arg.(value & opt float 10. & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Connect and reply-wait budget per attempt (0 = wait forever).")
  in
  let retries_arg =
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Connect attempts on transient failures (refused, socket file \
               missing, timeout), with exponential backoff plus jitter. Only \
               the connect is retried; a request is never replayed.")
  in
  let file_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Source file for --op predict (or the buffer --op session \
               opens).")
  in
  (* Exit codes: 0 ok reply, 3 structured error reply (including
     "overloaded" sheds — the daemon is up and said no), 4 daemon
     unreachable or unresponsive after the retry budget
     (connect-refused/timeout), 1 other transport failure, 2 usage —
     so shell scripts can tell "the daemon said no" from "the daemon
     is gone". *)
  let run socket tcp host op lang word k model_name reload_model reload_w2v
      unload set_default timeout retries session_name edits file =
    Option.iter (require_port ~flag:"tcp") tcp;
    require_at_least_float ~flag:"timeout" 0. timeout;
    require_at_most_float ~flag:"timeout" 1e9 timeout;
    require_at_least ~flag:"retries" 1 retries;
    let timeout = if timeout = 0. then None else Some timeout in
    let retry =
      { Serve.Client.default_retry with Serve.Client.attempts = retries }
    in
    let endpoint =
      match (socket, tcp) with
      | Some path, _ -> Serve.Client.Unix_sock path
      | None, Some port -> Serve.Client.Tcp (host, port)
      | None, None ->
          Format.eprintf "error: pass --socket PATH or --tcp PORT@.";
          exit 2
    in
    let describe = function
      | Serve.Client.Unix_sock p -> p
      | Serve.Client.Tcp (h, p) -> Printf.sprintf "%s:%d" h p
    in
    let unreachable what e =
      Format.eprintf
        "error: daemon unreachable: %s %s: %s (after %d attempt%s)@."
        what (describe endpoint) (Printexc.to_string e) retry.Serve.Client.attempts
        (if retry.Serve.Client.attempts = 1 then "" else "s");
      exit 4
    in
    let conn =
      match
        Serve.Client.connect ?connect_timeout:timeout ?read_timeout:timeout
          ~retry endpoint
      with
      | c -> c
      | exception (Unix.Unix_error _ as e) when Serve.Client.transient e ->
          unreachable "cannot connect to" e
      | exception e ->
          Format.eprintf "error: cannot connect to %s: %s@."
            (describe endpoint) (Printexc.to_string e);
          exit 1
    in
    let open Serve.Json in
    let named_model =
      match model_name with Some n -> [ ("model", Str n) ] | None -> []
    in
    let roundtrip line =
      match Serve.Client.request conn (to_string line) with
      | Some r -> r
      | None ->
          Format.eprintf "error: server closed the connection@.";
          exit 1
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) ->
          Format.eprintf "error: no reply from %s within %.1fs@."
            (describe endpoint)
            (Option.value ~default:0. timeout);
          exit 4
      | exception e ->
          Format.eprintf "error: request failed: %s@." (Printexc.to_string e);
          exit 1
    in
    (* Session mode holds the one connection across the whole
       open/edit*/close exchange (sessions are connection-scoped) and
       prints each reply line as it arrives. *)
    (match op with
    | `Session ->
        let f =
          match file with
          | Some f -> f
          | None ->
              Format.eprintf
                "error: --op session needs a FILE argument (the buffer to \
                 open)@.";
              exit 2
        in
        let sess = [ ("session", Str session_name) ] in
        let all_ok = ref true in
        let step line =
          let reply = roundtrip line in
          print_endline reply;
          if not (Serve.Protocol.reply_ok reply) then all_ok := false
        in
        step
          (Obj
             ([ ("op", Str "open"); ("id", Num 0.) ]
             @ sess
             @ [ ("lang", Str lang.Pigeon.Lang.name);
                 ("code", Str (read_file f)) ]
             @ named_model));
        List.iteri
          (fun i e ->
            step
              (Obj
                 ([ ("op", Str "edit"); ("id", Num (float_of_int (i + 1))) ]
                 @ sess
                 @ [ ("code", Str (read_file e)) ])))
          edits;
        step
          (Obj
             ([ ("op", Str "close");
                ("id", Num (float_of_int (List.length edits + 1))) ]
             @ sess));
        Serve.Client.close conn;
        exit (if !all_ok then 0 else 3)
    | _ -> ());
    let line =
      match op with
      | `Session -> assert false (* handled above *)
      | `Ping -> Obj [ ("op", Str "ping"); ("id", Num 0.) ]
      | `Stats -> Obj [ ("op", Str "stats"); ("id", Num 0.) ]
      | `Shutdown -> Obj [ ("op", Str "shutdown"); ("id", Num 0.) ]
      | `Reload -> (
          match (unload, set_default) with
          | Some _, Some _ ->
              Format.eprintf "error: --unload and --set-default are exclusive@.";
              exit 2
          | Some n, None ->
              Obj [ ("op", Str "reload"); ("id", Num 0.); ("unload", Str n) ]
          | None, Some n ->
              Obj
                [ ("op", Str "reload"); ("id", Num 0.); ("set_default", Str n) ]
          | None, None ->
              Obj
                ([ ("op", Str "reload"); ("id", Num 0.) ]
                @ (match model_name with
                  | Some n -> [ ("name", Str n) ]
                  | None -> [])
                @ (match reload_model with
                  | Some p -> [ ("model", Str p) ]
                  | None -> [])
                @
                match reload_w2v with Some p -> [ ("w2v", Str p) ] | None -> []))
      | `Similar -> (
          match word with
          | None ->
              Format.eprintf "error: --op similar needs --word@.";
              exit 2
          | Some w ->
              Obj
                ([ ("op", Str "similar"); ("id", Num 0.); ("word", Str w);
                   ("k", Num (float_of_int k)) ]
                @ named_model))
      | `Predict -> (
          match file with
          | None ->
              Format.eprintf "error: --op predict needs a FILE argument@.";
              exit 2
          | Some f ->
              Obj
                ([ ("op", Str "predict"); ("id", Num 0.);
                   ("lang", Str lang.Pigeon.Lang.name);
                   ("code", Str (read_file f)) ]
                @ named_model))
    in
    let reply = roundtrip line in
    Serve.Client.close conn;
    (* The raw JSON line first — scripts parse it — then, for stats, a
       readable per-model table. *)
    print_endline reply;
    (if op = `Stats && Serve.Protocol.reply_ok reply then
       match parse reply with
       | Ok j ->
           let stats = member "stats" j in
           let cache_line indent c =
             let num f = Option.value ~default:0 (int_field f c) in
             Format.printf
               "%shits=%d misses=%d paths=%d bytes=%dB evictions=%d@." indent
               (num "hits") (num "misses") (num "paths") (num "bytes")
               (num "evictions")
           in
           (match Option.bind stats (member "models") with
           | Some (Arr models) ->
               Format.printf "models:@.";
               List.iter
                 (fun m ->
                   let str f = Option.value ~default:"-" (string_field f m) in
                   let num f = Option.value ~default:0 (int_field f m) in
                   let flag f = bool_field f m = Some true in
                   Format.printf
                     "  %-16s %s%s  storage=%s  mapped=%dB  last-used=%s  \
                      evictions=%d@."
                     (str "name")
                     (if flag "default" then "default," else "")
                     (if flag "loaded" then "loaded" else "evicted")
                     (str "storage") (num "mapped_bytes")
                     (let lu = num "last_used_ms" in
                      if lu < 0 then "never" else Printf.sprintf "%dms ago" lu)
                     (num "evictions"))
                 models
           | _ -> ());
           (match Option.bind stats (member "sessions") with
           | Some (Arr ((_ :: _) as sessions)) ->
               Format.printf "sessions:@.";
               List.iter
                 (fun s ->
                   let str f = Option.value ~default:"-" (string_field f s) in
                   let num f = Option.value ~default:0 (int_field f s) in
                   Format.printf "  %-16s conn=%d lang=%s edits=%d  cache: "
                     (str "name") (num "conn") (str "lang") (num "edits");
                   match member "cache" s with
                   | Some c -> cache_line "" c
                   | None -> Format.printf "-@.")
                 sessions
           | _ -> ());
           (match Option.bind stats (member "session_cache") with
           | Some c ->
               Format.printf "session cache (aggregate):@.";
               cache_line "  " c
           | None -> ())
       | Error _ -> ());
    if Serve.Protocol.reply_ok reply then exit 0 else exit 3
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running `pigeon serve` daemon and print \
             the raw JSON reply. Exit codes: 0 ok, 3 the daemon replied with \
             a structured error, 4 the daemon is unreachable or unresponsive \
             (after --retries), 1 other transport failure, 2 usage.")
    Term.(
      const run $ socket_arg $ tcp_arg $ host_arg $ op_arg $ lang_arg
      $ word_arg $ k_arg $ model_name_arg $ reload_model_arg $ reload_w2v_arg
      $ unload_arg $ set_default_arg $ timeout_arg $ retries_arg
      $ session_name_arg $ edit_arg $ file_opt_arg)

(* ---------- stats ---------- *)

let stats_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR")
  in
  let run dir =
    handle_parse_errors @@ fun () ->
    let entries =
      Sys.readdir dir |> Array.to_list |> List.sort String.compare
      |> List.filter_map (fun name ->
             let path = Filename.concat dir name in
             if Sys.is_directory path then None
             else Some { Corpus.Dataset.path; source = read_file path })
    in
    let deduped = Corpus.Dataset.dedup entries in
    let s = Corpus.Dataset.stats deduped in
    Format.printf "%d files (%d duplicates removed), %d bytes@."
      s.Corpus.Dataset.files
      (List.length entries - List.length deduped)
      s.Corpus.Dataset.bytes
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Corpus statistics of a directory (after dedup).")
    Term.(const run $ dir_arg)

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  let doc = "AST-path representations for predicting program properties" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "pigeon" ~version:"1.0.0" ~doc)
          [ paths_cmd; ast_cmd; gen_cmd; rename_cmd; train_cmd; predict_cmd;
            serve_cmd; client_cmd; stats_cmd ]))
