(* The repository benchmark. See README.md for the workloads, the
   metrics and the layer -> metric -> workload map.

     pbench.exe --workload serve-predict|serve-edit|train --seed N
                --seconds S --trace 0|1 --pigeon PATH

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are every end-to-end metric of BENCHMARK.json, each measured
   by this workload; with --trace 1 they are every per-layer metric of
   BENCHMARK.json, from a traced replay (0 for a layer this workload
   bypasses). Exit status is 0 only when every correctness gate
   passed. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let pigeon = ref ""
let scale = ref "full"
let inject = ref ""

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME serve-predict, serve-edit or train");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
    ("--pigeon", Arg.Set_string pigeon, "PATH the pigeon binary (serve workloads)");
    ("--scale", Arg.Set_string scale, "full|tiny input sizes (tiny: self-test)");
    ( "--inject",
      Arg.Set_string inject,
      "reply|model corrupt one checked reply or saved model (self-test)" );
  ]

(* ---------- correctness accounting ---------- *)

let attempted = ref 0
let failed = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        prerr_endline ("pbench: FAILED: " ^ msg)
      end)
    fmt

(* ---------- results ---------- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics
let metric_all = List.iter (fun (k, u, v) -> metric k u v)
let notes : (string * Serve.Json.t) list ref = ref []
let note k v = notes := (k, v) :: !notes
let num x = Serve.Json.Num x
let inum n = Serve.Json.Num (float_of_int n)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) k))

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* The run directory: model files, the daemon socket and its log. It
   goes, with the daemon, however the run ends: normally, on a failed
   gate, an exception or SIGTERM/SIGINT. *)
let run_dir () =
  let base = "_perfbench" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      List.iter Load.stop !Load.live;
      remove_tree dir);
  dir

let flip_byte path ~at =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5a));
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let file_size path = (Unix.stat path).Unix.st_size
let scale_of () = if !scale = "tiny" then Inputs.tiny else Inputs.full

(* ---------- per-layer accumulation (traced replays) ---------- *)

(* Minor-heap words allocated inside each layer call, by layer name;
   read next to the span so a ratio is measured where the work
   happens. *)
let alloc : (string, float) Hashtbl.t = Hashtbl.create 16
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

let layer name f =
  Spans.span name (fun () ->
      let w0 = Gc.minor_words () in
      let r = f () in
      bump alloc name (Gc.minor_words () -. w0);
      r)

let total = Spans.total

let gc_delta (a : Gc.stat) (b : Gc.stat) ~ops =
  let ops = float_of_int (max 1 ops) in
  metric "gc.minor_kw_per_op" "kw" ((b.Gc.minor_words -. a.Gc.minor_words) /. ops /. 1000.);
  metric "gc.major_per_op" "count"
    (float_of_int (b.Gc.major_collections - a.Gc.major_collections) /. ops);
  metric "gc.top_heap_mb" "MiB"
    (float_of_int (b.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)

(* One graph through the layers, each call timed on its own. Graph
   building repeats the index and the extraction it wraps, and MAP
   prediction repeats the encoding: their self time is reported net of
   the separately timed calls. *)
let decompose_graph ~(l : Inputs.lang) ~index ~extract ~build code =
  let tree = layer (l.Inputs.modname ^ ".parse") (fun () -> l.Inputs.lang.Pigeon.Lang.parse_tree code) in
  let idx = layer "ast.index" (fun () -> index tree) in
  let n = ref 0 in
  layer "path.extract" (fun () -> extract idx (fun _ -> incr n));
  bump counts "path.contexts" (float_of_int !n);
  let g = layer "core.graph" (fun () -> build tree) in
  bump counts "core.factors" (float_of_int (List.length g.Crf.Graph.factors));
  bump counts (l.Inputs.modname ^ ".ops") 1.;
  g

let graph_metrics ~ops =
  let per x = x /. float_of_int (max 1 ops) in
  let ms name = per (total name) *. 1000. in
  metric "ast.index_ms" "ms" (ms "ast.index");
  metric "path.extract_ms" "ms" (ms "path.extract");
  metric "path.contexts" "count" (per (get counts "path.contexts"));
  metric "core.graph_ms" "ms" (ms "core.graph" -. ms "ast.index" -. ms "path.extract");
  metric "core.factors" "count" (per (get counts "core.factors"));
  metric "core.graph_kw" "kw"
    (per (get alloc "core.graph" -. get alloc "ast.index" -. get alloc "path.extract")
    /. 1000.)

let parse_metrics (l : Inputs.lang) =
  let ops = get counts (l.Inputs.modname ^ ".ops") in
  let name = l.Inputs.modname ^ ".parse" in
  metric (name ^ "_ms") "ms" (total name /. ops *. 1000.);
  metric (name ^ "_kw") "kw" (get alloc name /. ops /. 1000.)

let repr_of (l : Pigeon.Lang.t) =
  Pigeon.Graphs.default_repr ~config:l.Pigeon.Lang.tuned ()

let build_plain (l : Pigeon.Lang.t) tree =
  Pigeon.Graphs.build (repr_of l) ~def_labels:l.Pigeon.Lang.def_labels
    ~policy:Pigeon.Graphs.Locals tree

(* ---------- provenance ---------- *)

let provenance () =
  [
    ("workload", Serve.Json.Str !workload);
    ("seed", inum !seed);
    ("seconds", num !seconds);
    ("trace", inum !trace);
    ("scale", Serve.Json.Str !scale);
    ("nproc", inum (Host.nproc ()));
    ("cpus_allowed", Serve.Json.Str (Host.cpus_allowed ()));
    ("ocaml", Serve.Json.Str Sys.ocaml_version);
    ("commit", Serve.Json.Str (Host.git_commit ()));
    ("jobs", inum 1);
  ]

(* Steal ticks and the fixed-work probe around a timed phase. *)
let noisy_phase f =
  let probe_before = Host.probe () in
  let steal0 = Host.steal_ticks () in
  let r = f () in
  let steal = Host.steal_ticks () - steal0 in
  let probe_after = Host.probe () in
  note "steal_ticks" (inum steal);
  note "probe_before_s" (num probe_before);
  note "probe_after_s" (num probe_after);
  r

(* ======================= serve workloads ======================= *)

type serve_inputs = {
  model_paths : string array;  (** per language, in [Inputs.langs] order *)
  warm : string array;  (** one held-out source per model, in [Inputs.langs] order *)
  stream : int -> int -> int * string;  (** connection -> seq -> id, line *)
  describe : int -> int -> kind;
  warm_offset : int;
      (** stream position the untimed warm-up starts at: past the last
          input the timed phase can reach, on a session boundary *)
  replay_per_conn : int;  (** requests per connection the traced run replays *)
}

(* What request (connection, seq) carries: language index and source. *)
and kind =
  | Predict of int * string
  | Open of int * string
  | Edit of int * string
  | Close

let conns = 2

(* Requests one connection sends in [s] seconds when the daemon serves
   [rps] over all connections, rounded up to a multiple of [unit]. *)
let per_conn ~rps s ~unit =
  let n = int_of_float (Float.ceil (rps *. s /. float_of_int conns)) in
  (n + unit - 1) / unit * unit

let prepare_models sc ~dir =
  Array.mapi
    (fun i (l : Inputs.lang) ->
      let train, test = Inputs.model_corpus sc ~seed:!seed i in
      let graphs, report =
        Pigeon.Task.graphs_of_sources_report ~repr:(repr_of l.Inputs.lang)
          ~lang:l.Inputs.lang ~policy:Pigeon.Graphs.Locals train
      in
      check (report.Pigeon.Ingest.skipped = []) "%s model corpus ingests cleanly"
        l.Inputs.lang.Pigeon.Lang.name;
      let model = Crf.Train.train graphs in
      let path = Filename.concat dir (l.Inputs.model ^ ".crf") in
      Crf.Serialize.save model path;
      (path, train, snd (List.hd test)))
    Inputs.langs

let predict_inputs sc ~dir =
  let models = prepare_models sc ~dir in
  let nl = Array.length Inputs.langs in
  (* Connection c's j-th request is in language (j + c) mod 4 (both
     connections cycle through all four, and a batch mixes models) and
     takes slot conns * (j / 4) + c of that language's pool. The timed
     phase has the requests j < timed, the warm-up the ones after: at
     up to [predict_rps] no file is sent twice. *)
  let timed = per_conn ~rps:sc.Inputs.predict_rps !seconds ~unit:nl in
  let warm = per_conn ~rps:sc.Inputs.predict_rps sc.Inputs.warm_s ~unit:nl in
  let pools =
    Array.mapi
      (fun i (_, train, _) ->
        Inputs.request_pool ~seed:!seed i ~n:(conns * (timed + warm) / nl) ~train)
      models
  in
  note "model_train_files" (Serve.Json.Arr (Array.to_list (Array.map (fun (_, t, _) -> inum (List.length t)) models)));
  note "request_files" (inum (Array.fold_left (fun a p -> a + Array.length p) 0 pools));
  let describe c j =
    let i = (j + c) mod nl in
    let pool = pools.(i) in
    Predict (i, pool.((((j / nl) * conns) + c) mod Array.length pool))
  in
  let stream c j =
    let id = (j * conns) + c in
    match describe c j with
    | Predict (i, code) -> (id, Inputs.predict_line ~id Inputs.langs.(i) code)
    | Open _ | Edit _ | Close -> assert false
  in
  {
    model_paths = Array.map (fun (p, _, _) -> p) models;
    warm = Array.map (fun (_, _, code) -> code) models;
    stream;
    describe;
    warm_offset = timed;
    replay_per_conn = sc.Inputs.replay_predicts;
  }

let edit_inputs sc ~dir =
  let models = prepare_models sc ~dir in
  let per_session = sc.Inputs.edit_steps + 2 in
  (* Sessions per connection in the timed phase and in the warm-up at
     up to [edit_rps]; every session replays a trace of its own. *)
  let sessions s = per_conn ~rps:sc.Inputs.edit_rps s ~unit:per_session / per_session in
  let timed = sessions !seconds and warm = sessions sc.Inputs.warm_s in
  let traces = Array.init (conns * (timed + warm)) (Inputs.edit_trace sc ~seed:!seed) in
  note "edit_traces" (inum (Array.length traces));
  let bytes = Array.fold_left (fun a (_, snaps) -> Array.fold_left (fun a b -> a + String.length b) a snaps) 0 traces in
  let nbuf = Array.fold_left (fun a (_, snaps) -> a + Array.length snaps) 0 traces in
  note "edit_buffer_bytes_mean" (inum (bytes / max 1 nbuf));
  (* Connection c replays traces c, c+2, ...: open on the first
     snapshot, one full-buffer edit per later snapshot, close; then
     re-open on its next trace. *)
  let describe c j =
    let q = j / per_session and r = j mod per_session in
    let i, snaps = traces.((c + (conns * q)) mod Array.length traces) in
    if r = per_session - 1 then Close
    else if r = 0 then Open (i, snaps.(r))
    else Edit (i, snaps.(r))
  in
  let stream c j =
    let id = (j * conns) + c in
    let session = Printf.sprintf "s%d" c in
    match describe c j with
    | Close -> (id, Inputs.close_line ~id ~session)
    | Open (i, code) -> (id, Inputs.open_line ~id ~session Inputs.langs.(i) code)
    | Edit (_, code) -> (id, Inputs.edit_line ~id ~session code)
    | Predict _ -> assert false
  in
  {
    model_paths = Array.map (fun (p, _, _) -> p) models;
    warm = Array.map (fun (_, _, code) -> code) models;
    stream;
    describe;
    warm_offset = timed * per_session;
    (* four sessions per connection: every language *)
    replay_per_conn = 4 * per_session;
  }

let model_list inp =
  Array.to_list
    (Array.mapi (fun i p -> (Inputs.langs.(i).Inputs.model, p)) inp.model_paths)

let one_shot engine ~id i code =
  match Serve.Protocol.request_of_line (Inputs.predict_line ~id Inputs.langs.(i) code) with
  | Ok r -> Serve.Engine.handle engine r
  | Error _ -> ""

(* An in-process engine over the same model files, loaded the way the
   daemon loads them (mapped, default limits, named entries). *)
let engine_of inp =
  match Crf.Serialize.load_mapped inp.model_paths.(0) with
  | Error d -> failwith (Format.asprintf "load %s:%a" inp.model_paths.(0) Lexkit.Diag.pp d)
  | Ok (model, storage) ->
      let e =
        Serve.Engine.create ~storage ~limits:Lexkit.default_limits
          ~model_path:inp.model_paths.(0) ~mmap:true ~model ()
      in
      List.iteri
        (fun i (name, path) ->
          if i > 0 then
            match Serve.Engine.reload e ~name ~model_path:path () with
            | Ok _ -> ()
            | Error err -> failwith ("reload " ^ name ^ ": " ^ err.Serve.Protocol.msg))
        (model_list inp);
      Array.iteri (fun i code -> ignore (one_shot e ~id:0 i code)) inp.warm;
      e

let reply_id reply =
  match Serve.Json.parse reply with
  | Ok j -> Serve.Json.int_field "id" j
  | Error _ -> None

(* A session reply minus its trailing "session" field, re-rendered by
   the protocol's canonical printer. *)
let without_session reply =
  match Serve.Json.parse reply with
  | Ok (Serve.Json.Obj fields) ->
      Some (Serve.Json.to_string
              (Serve.Json.Obj (List.filter (fun (k, _) -> k <> "session") fields)))
  | _ -> None

(* Exact match (Pigeon.Metrics) of the names the replies predicted: a
   prediction pairs the variable's name in the sent code with the name
   the model gave it. *)
let reply_accuracy replies =
  let pairs reply =
    match Serve.Json.parse reply with
    | Ok j -> (
        match Serve.Json.member "predictions" j with
        | Some (Serve.Json.Arr ps) ->
            List.filter_map
              (fun p ->
                match (Serve.Json.string_field "var" p, Serve.Json.string_field "name" p) with
                | Some var, Some name -> Some (var, name)
                | _ -> None)
              ps
        | _ -> [])
    | Error _ -> []
  in
  let all = List.concat_map pairs replies in
  check (all <> []) "the timed replies predict some names";
  100. *. (Pigeon.Metrics.summarize all).Pigeon.Metrics.accuracy

(* Every reply parses, is ok and carries its request's id; a fixed
   sample of about one in [sample_every] is compared byte for byte with
   the in-process engine. *)
let check_replies inp records ~sample_every =
  let engine = engine_of inp in
  List.iter
    (fun (r : Load.record) ->
      match r.Load.reply with
      | None -> check false "request %d got no reply" r.Load.id
      | Some reply ->
          check
            (Serve.Protocol.reply_ok reply && reply_id reply = Some r.Load.id)
            "reply to request %d is ok and carries its id" r.Load.id)
    records;
  (* Sampled by a hash of the id, so both connections, every model and
     every position in a session are covered. *)
  let sample =
    List.filter
      (fun (r : Load.record) ->
        r.Load.reply <> None && Hashtbl.hash r.Load.id mod sample_every = 0)
      records
  in
  List.iteri
    (fun k (r : Load.record) ->
      let reply = Option.get r.Load.reply in
      let reply =
        if !inject = "reply" && k = 0 then
          String.mapi (fun i ch -> if i = String.length reply / 2 then Char.chr (Char.code ch lxor 1) else ch) reply
        else reply
      in
      match inp.describe r.Load.conn r.Load.seq with
      | Predict _ -> (
          match Serve.Protocol.request_of_line r.Load.line with
          | Ok req ->
              check
                (String.equal reply (Serve.Engine.handle engine req))
                "daemon reply %d is byte-identical to Engine.handle" r.Load.id
          | Error _ -> check false "request %d decodes" r.Load.id)
      | Open (i, code) | Edit (i, code) ->
          check
            (without_session reply = Some (one_shot engine ~id:r.Load.id i code))
            "session reply %d predicts as a one-shot predict of its buffer" r.Load.id
      | Close -> ())
    sample;
  List.length sample

(* ---------- traced in-process replay (--trace 1) ---------- *)

(* Per-connection shadow caches of the open session: [a] backs the
   timed graph build exactly as the daemon's session cache would, [b]
   receives the same index and extraction calls so those can be timed
   on their own with the same hit pattern. *)
type shadow = { a : Astpath.Cache.t; b : Astpath.Cache.t; lang : int }

let replay_serve inp records ~stats ~replay_per_conn =
  let chosen =
    List.filter
      (fun (r : Load.record) -> r.Load.reply <> None && r.Load.seq < replay_per_conn)
      records
    |> List.sort (fun (x : Load.record) y -> compare (x.Load.seq, x.Load.conn) (y.Load.seq, y.Load.conn))
  in
  let n_all = List.length chosen in
  let decode (r : Load.record) =
    match Serve.Protocol.request_of_line r.Load.line with
    | Ok req -> req
    | Error _ -> failwith "replayed request does not decode"
  in
  (* Models for the layer decomposition: their load and first use are
     the crf format layer. *)
  let models =
    Array.mapi
      (fun i path ->
        let m, load_s =
          Clock.time (fun () ->
              match Crf.Serialize.load_mapped path with
              | Ok (m, _) -> m
              | Error _ -> failwith ("load_mapped " ^ path))
        in
        let l = Inputs.langs.(i) in
        let g = build_plain l.Inputs.lang (l.Inputs.lang.Pigeon.Lang.parse_tree inp.warm.(i)) in
        let (), first_s = Clock.time (fun () -> ignore (Crf.Train.predict m g)) in
        bump counts "crf.load_s" load_s;
        bump counts "crf.first_use_s" first_s;
        m)
      inp.model_paths
  in
  let symbols () =
    Array.fold_left
      (fun acc m ->
        let s = Crf.Fast.symbols m.Crf.Train.fast in
        acc + Crf.Symbols.num_labels s + Crf.Symbols.num_rels s)
      0 models
  in
  let sym0 = symbols () in
  (* Engine passes: every request goes through two identically warmed
     engines, one with spans around decode and engine and one without,
     alternating which goes first. The difference of their totals is
     the tracing overhead; the daemon's reply must come out of both. *)
  let e1 = engine_of inp and e2 = engine_of inp in
  let shadows = Hashtbl.create 8 in
  let harvest sh =
    let s = Astpath.Cache.stats sh.a in
    bump counts "cache.hits" (float_of_int s.Astpath.Cache.hits);
    bump counts "cache.misses" (float_of_int s.Astpath.Cache.misses);
    bump counts "cache.replayed" (float_of_int (Astpath.Cache.replayed sh.a))
  in
  let graph_ops = ref 0 in
  Spans.clear ();
  let untraced = ref 0. in
  let gc0 = Gc.quick_stat () in
  List.iteri
    (fun k (r : Load.record) ->
      let req = r.Load.id in
      let expected = [ Option.get r.Load.reply ] in
      let plain () =
        let t0 = Clock.now () in
        let reply = Serve.Engine.handle_batch_conn e1 [ (r.Load.conn, decode r) ] in
        untraced := !untraced +. Clock.since t0;
        check (reply = expected) "replayed request %d answers as the daemon did" req
      in
      let traced () =
        Spans.enabled := true;
        let reply =
          Spans.span ~req "request" (fun () ->
              let q = Spans.span "serve.decode" (fun () -> decode r) in
              Spans.span "serve.engine" (fun () ->
                  Serve.Engine.handle_batch_conn e2 [ (r.Load.conn, q) ]))
        in
        Spans.enabled := false;
        check (reply = expected) "traced replay of request %d answers as the daemon did" req
      in
      if k mod 2 = 0 then (plain (); traced ()) else (traced (); plain ()))
    chosen;
  let gc1 = Gc.quick_stat () in
  let untraced = !untraced in
  Spans.enabled := true;
  (* Layer pass: each request's work again, one layer call at a time. *)
  List.iter
    (fun (r : Load.record) ->
      let req = r.Load.id in
      let graph i g =
        let m = models.(i) in
        ignore (layer "crf.encode" (fun () -> Crf.Fast.encode m.Crf.Train.fast g));
        ignore (layer "crf.map" (fun () -> Crf.Train.predict_batch m [ g ]));
        incr graph_ops
      in
      Spans.span ~req "layers" (fun () ->
          match inp.describe r.Load.conn r.Load.seq with
          | Predict (i, code) ->
              let l = Inputs.langs.(i) in
              let cfg = l.Inputs.lang.Pigeon.Lang.tuned in
              graph i
                (decompose_graph ~l ~index:(fun t -> Ast.Index.build t)
                   ~extract:(fun idx f -> Astpath.Extract.iter_all idx cfg f)
                   ~build:(build_plain l.Inputs.lang) code)
          | (Open (i, code) | Edit (i, code)) as k ->
              let key = r.Load.conn in
              let sh =
                match (k, Hashtbl.find_opt shadows key) with
                | Edit _, Some sh -> sh
                | _ ->
                    let sh = { a = Astpath.Cache.create (); b = Astpath.Cache.create (); lang = i } in
                    Hashtbl.replace shadows key sh;
                    sh
              in
              let l = Inputs.langs.(sh.lang) in
              let lg = l.Inputs.lang in
              let cfg = lg.Pigeon.Lang.tuned in
              graph sh.lang
                (decompose_graph ~l
                   ~index:(fun t -> Astpath.Cache.index sh.b t)
                   ~extract:(fun idx f -> Astpath.Cache.extract sh.b idx cfg f)
                   ~build:(fun t ->
                     Pigeon.Graphs.build_cached (repr_of lg) ~cache:sh.a
                       ~def_labels:lg.Pigeon.Lang.def_labels
                       ~policy:Pigeon.Graphs.Locals t)
                   code)
          | Close -> (
              match Hashtbl.find_opt shadows r.Load.conn with
              | Some sh ->
                  harvest sh;
                  Hashtbl.remove shadows r.Load.conn
              | None -> ())))
    chosen;
  Spans.enabled := false;
  Hashtbl.iter (fun _ sh -> harvest sh) shadows;
  let traced = total "request" in
  (* ---- metrics ---- *)
  let nf = float_of_int (max 1 n_all) in
  let go = !graph_ops in
  Array.iter
    (fun l -> if get counts (l.Inputs.modname ^ ".ops") > 0. then parse_metrics l)
    Inputs.langs;
  graph_metrics ~ops:go;
  let gof = float_of_int (max 1 go) in
  let enc = total "crf.encode" and map = total "crf.map" in
  metric "crf.encode_ms" "ms" (enc /. gof *. 1000.);
  metric "crf.map_ms" "ms" ((map -. enc) /. gof *. 1000.);
  metric "crf.map_kw" "kw" ((get alloc "crf.map" -. get alloc "crf.encode") /. gof /. 1000.);
  metric "crf.symbols_added" "count" (float_of_int (symbols () - sym0) /. gof);
  let nm = float_of_int (Array.length models) in
  metric "crf.load_ms" "ms" (get counts "crf.load_s" /. nm *. 1000.);
  metric "crf.first_use_ms" "ms" (get counts "crf.first_use_s" /. nm *. 1000.);
  let engine_s = total "serve.engine" in
  metric "serve.decode_us" "us" (total "serve.decode" /. nf *. 1e6);
  metric "serve.engine_ms" "ms" (engine_s /. nf *. 1000.);
  let parse_s =
    Array.fold_left (fun acc l -> acc +. total (l.Inputs.modname ^ ".parse")) 0. Inputs.langs
  in
  metric "rest.request_ms" "ms"
    ((engine_s -. parse_s -. total "core.graph" -. map) /. nf *. 1000.);
  let engine_by_req = Spans.by_request "serve.engine" in
  let server =
    List.fold_left
      (fun acc (r : Load.record) ->
        acc +. r.Load.latency -. Option.value ~default:0. (Hashtbl.find_opt engine_by_req r.Load.id))
      0. chosen
  in
  metric "serve.server_ms" "ms" (server /. nf *. 1000.);
  metric "serve.batch_mean" "count"
    (float_of_int stats.Load.served /. float_of_int (max 1 stats.Load.batches));
  metric "serve.queue_hw" "count" (float_of_int stats.Load.queue_hw);
  let hits = get counts "cache.hits" and misses = get counts "cache.misses" in
  if hits +. misses > 0. then begin
    metric "path.cache_hit_pct" "%" (100. *. hits /. (hits +. misses));
    metric "path.replayed" "count" (get counts "cache.replayed" /. gof)
  end;
  gc_delta gc0 gc1 ~ops:(2 * n_all);
  let overhead = 100. *. (traced -. untraced) /. untraced in
  metric "trace.overhead_pct" "%" overhead;
  note "replayed_requests" (inum n_all);
  note "replay_untraced_ms_per_request" (num (untraced /. nf *. 1000.));
  note "replay_traced_ms_per_request" (num (traced /. nf *. 1000.))

let serve_run ~edit =
  let sc = scale_of () in
  let dir = run_dir () in
  let inp, prep_s =
    Clock.time (fun () -> if edit then edit_inputs sc ~dir else predict_inputs sc ~dir)
  in
  note "prep_s" (num prep_s);
  let models = model_list inp in
  (* Set-up: spawn to the first ok reply from each of the four models.
     Repeated in three groups -- before the warm-up, after the timed
     phase and after the checks -- so that setup_s, a median of short
     measurements, samples the host across the run as the timed
     figures do. The first group's last daemon serves the run. *)
  let setup_once () =
    let t0 = Clock.now () in
    let d = Load.spawn ~pigeon:!pigeon ~dir ~models in
    let c = Load.connect d in
    let replies =
      Array.to_list
        (Array.mapi
           (fun i code -> Load.request c (Inputs.predict_line ~id:(-1 - i) Inputs.langs.(i) code))
           inp.warm)
    in
    let dt = Clock.since t0 in
    Serve.Client.close c;
    check
      (List.for_all Serve.Protocol.reply_ok replies)
      "daemon answers a predict from each of the four models";
    (d, dt)
  in
  let rec setups k acc =
    let d, dt = setup_once () in
    if k <= 1 then (d, dt :: acc)
    else begin
      Load.stop d;
      setups (k - 1) (dt :: acc)
    end
  in
  let group = (sc.Inputs.setup_reps + 2) / 3 in
  let d, setup_times = setups group [] in
  let more_setups k =
    if k <= 0 then []
    else begin
      let d, ts = setups k [] in
      Load.stop d;
      ts
    end
  in
  (* Untimed warm-up: the daemon's heap and caches reach their steady
     state before the clock starts. *)
  let warm_records, _, () =
    Load.closed_loop d ~conns
      ~seconds:sc.Inputs.warm_s
      ~stream:(fun c j -> inp.stream c (j + inp.warm_offset))
      ~at_end:(fun () -> ())
  in
  List.iter
    (fun (r : Load.record) ->
      check
        (match r.Load.reply with Some x -> Serve.Protocol.reply_ok x | None -> false)
        "warm-up request %d is answered ok" r.Load.id)
    warm_records;
  let records, wall, stats =
    noisy_phase (fun () ->
        Load.closed_loop d ~conns ~seconds:!seconds ~stream:inp.stream
          ~at_end:(fun () -> Load.stats d))
  in
  let rss = Option.value ~default:nan (Host.vm_hwm_mb d.Load.pid) in
  Load.stop d;
  let setup_times = more_setups group @ setup_times in
  let ok =
    List.filter
      (fun (r : Load.record) ->
        match r.Load.reply with Some x -> Serve.Protocol.reply_ok x | None -> false)
      records
  in
  let sampled = check_replies inp records ~sample_every:(if edit then 8 else 16) in
  (* Inputs -- predict files, and edit traces by their opening buffer --
     sent more than once over the warm-up and the timed phase: none
     unless the daemon outran the rate the inputs are sized for. A
     repeat does no harm to the checks but lets a content-keyed cache
     hit, so it is reported. (Within a trace a buffer may come back: an
     inserted function deleted again is part of the edit pattern.) *)
  let repeats =
    let seen = Hashtbl.create 4096 in
    let sent offset (r : Load.record) =
      match inp.describe r.Load.conn (r.Load.seq + offset) with
      | Predict (_, code) | Open (_, code) ->
          let d = Digest.string code in
          if Hashtbl.mem seen d then 1 else (Hashtbl.replace seen d (); 0)
      | Edit _ | Close -> 0
    in
    List.fold_left (fun n r -> n + sent inp.warm_offset r) 0 warm_records
    + List.fold_left (fun n r -> n + sent 0 r) 0 records
  in
  let setup_times = more_setups (sc.Inputs.setup_reps - (2 * group)) @ setup_times in
  if repeats > 0 then
    prerr_endline
      (Printf.sprintf
         "pbench: %d requests re-sent an input already sent; the inputs are \
          sized for a slower daemon (predict_rps, edit_rps in inputs.ml)"
         repeats);
  (* The timed phase is cut into [blocks] equal blocks by reply time;
     each figure is computed per block and the median over blocks is
     reported, so a burst of host contention that hits one block does
     not move the result. The tail goes to the `# run` line only: the
     train workload has no tail (a few learner rounds per run), and
     every end-to-end metric is one that all workloads measure. Each
     tail percentile keeps at least ten samples beyond it per block at
     rates well below the usual ones; a block with fewer is reported on
     stderr. *)
  let blocks = 3 in
  let tail_p, tail_name = if edit then (0.95, "p95_ms") else (0.98, "p98_ms") in
  let block_len = wall /. float_of_int blocks in
  let per_block = Array.make blocks [] in
  List.iter
    (fun (r : Load.record) ->
      let k = int_of_float ((r.Load.sent +. r.Load.latency) /. block_len) in
      let k = max 0 (min (blocks - 1) k) in
      per_block.(k) <- (r.Load.latency *. 1000.) :: per_block.(k))
    ok;
  let stat f =
    median
      (Array.to_list
         (Array.map
            (fun l ->
              let a = Array.of_list l in
              Array.sort compare a;
              if Array.length a = 0 then nan else f a)
            per_block))
  in
  Array.iter
    (fun l ->
      if float_of_int (List.length l) *. (1. -. tail_p) < 10. then
        prerr_endline
          (Printf.sprintf
             "pbench: %s rests on fewer than 10 samples (%d requests in a block)"
             tail_name (List.length l)))
    per_block;
  let n = List.length ok in
  let e2e =
    [
      ("setup_s", "s", median setup_times);
      ("p50_ms", "ms", stat (fun a -> percentile a 0.5));
      ("ops_per_s", "ops/s", stat (fun a -> float_of_int (Array.length a) /. block_len));
      ("rss_mb", "MiB", rss);
      ("accuracy_pct", "%", reply_accuracy (List.filter_map (fun (r : Load.record) -> r.Load.reply) ok));
    ]
  in
  note tail_name (num (stat (fun a -> percentile a tail_p)));
  note "requests" (inum (List.length records));
  note "repeated_inputs" (inum repeats);
  note "requests_ok" (inum n);
  note "wall_s" (num wall);
  note "sampled_for_identity" (inum sampled);
  note "setup_runs" (Serve.Json.Arr (List.rev_map num setup_times));
  note "daemon_batches" (inum stats.Load.batches);
  note "daemon_max_batch" (inum stats.Load.max_batch);
  note "daemon_queue_hw" (inum stats.Load.queue_hw);
  note "daemon_live_session_cache_hits" (inum stats.Load.cache_hits);
  note "daemon_live_session_cache_misses" (inum stats.Load.cache_misses);
  if !trace = 0 then metric_all e2e
  else begin
    note "untraced_e2e" (Serve.Json.Obj (List.map (fun (k, _, v) -> (k, num v)) e2e));
    replay_serve inp records ~stats ~replay_per_conn:inp.replay_per_conn
  end

(* ======================= train workload ======================= *)

let train_run () =
  let sc = scale_of () in
  let dir = run_dir () in
  let lang = Pigeon.Lang.javascript in
  let repr = repr_of lang in
  let mode = Pigeon.W2v_task.Paths repr in
  let train, test = Inputs.train_corpus sc ~seed:!seed in
  let elements sources =
    let per_file, report =
      Pigeon.Ingest.run
        ~f:(fun _ src -> Pigeon.W2v_task.pairs_of_source ~lang ~mode src)
        sources
    in
    (List.concat per_file, report)
  in
  let graphs_of sources =
    Pigeon.Task.graphs_of_sources_report ~repr ~lang ~policy:Pigeon.Graphs.Locals
      sources
  in
  (* Set-up: corpus in memory -> factor graphs and (name, context)
     pairs of the train split. Repeated, half before the timed phase
     and the rest after it (once the peak RSS is read), so that
     setup_s, the median, samples the host across the run as the timed
     figures do. *)
  let ingest () =
    let graphs, r1 = Spans.span "core.ingest" (fun () -> graphs_of train) in
    let elems, r2 = Spans.span "core.pairs" (fun () -> elements train) in
    let pairs =
      List.concat_map (fun (name, ctxs) -> List.map (fun c -> (name, c)) ctxs) elems
    in
    check
      (r1.Pigeon.Ingest.skipped = [] && r2.Pigeon.Ingest.skipped = [])
      "train split ingests without skips";
    (graphs, pairs)
  in
  let setup_times = ref [] in
  (* Every timed repetition starts from a collected heap, so one
     repetition's garbage is not charged to the next and the peak RSS
     does not depend on how many repetitions fit in the run. *)
  let set_up () =
    Gc.full_major ();
    let x, dt = Clock.time ingest in
    setup_times := dt :: !setup_times;
    x
  in
  let before = (sc.Inputs.setup_reps + 1) / 2 in
  let inputs = ref ([], []) in
  for _ = 1 to before do
    inputs := ([], []);
    inputs := set_up ()
  done;
  let graphs, pairs = !inputs in
  let n_graphs = List.length graphs and n_pairs = List.length pairs in
  let crf_iters = Crf.Train.default_config.Crf.Train.iterations in
  let epochs = Word2vec.Sgns.default_config.Word2vec.Sgns.epochs in
  let crf_path = Filename.concat dir "train.crf" in
  let w2v_path = Filename.concat dir "train.w2v" in
  (* One learner run: train at the default config and save. Every run
     must write the same bytes. *)
  let digests = Hashtbl.create 2 in
  let learner name path f =
    Gc.full_major ();
    let m, dt = Clock.time f in
    let d = Digest.file path in
    (match Hashtbl.find_opt digests name with
    | None -> Hashtbl.replace digests name d
    | Some d0 -> check (d = d0) "%s training is byte-reproducible" name);
    (m, dt)
  in
  let crf_once () =
    learner "crf" crf_path (fun () ->
        let m = Crf.Train.train graphs in
        Crf.Serialize.save m crf_path;
        m)
  in
  let sgns_once () =
    learner "sgns" w2v_path (fun () ->
        let m = Word2vec.Sgns.train pairs in
        Word2vec.Serialize.save m w2v_path;
        m)
  in
  (* Timed phase: training rounds until the time is used, at least one.
     A round is what a user training both models waits for: each
     learner trained at its default config and saved. *)
  let crf_times = ref [] and sgns_times = ref [] and rounds = ref [] in
  let crf_model, w2v_model =
    noisy_phase (fun () ->
        let t0 = Clock.now () in
        let rec loop () =
          let c, tc = crf_once () in
          crf_times := tc :: !crf_times;
          let w, tw = sgns_once () in
          sgns_times := tw :: !sgns_times;
          rounds := (tc +. tw) :: !rounds;
          if Clock.since t0 < !seconds then loop () else (c, w)
        in
        loop ())
  in
  let crf_t = median !crf_times and sgns_t = median !sgns_times in
  (* Peak RSS of set-up and training, read before the held-out
     evaluation, which is the benchmark's own check. *)
  let rss = Option.value ~default:nan (Host.vm_hwm_mb (Unix.getpid ())) in
  for _ = before + 1 to sc.Inputs.setup_reps do
    ignore (set_up ())
  done;
  note "train_files" (inum (List.length train));
  note "test_files" (inum (List.length test));
  note "train_graphs" (inum n_graphs);
  note "train_pairs" (inum n_pairs);
  note "crf_runs" (Serve.Json.Arr (List.rev_map num !crf_times));
  note "sgns_runs" (Serve.Json.Arr (List.rev_map num !sgns_times));
  note "setup_runs" (Serve.Json.Arr (List.rev_map num !setup_times));
  (* Reload both saved models and evaluate on the held-out split; the
     reloaded models must reproduce the in-memory predictions. *)
  if !inject = "model" then begin
    flip_byte crf_path ~at:(file_size crf_path / 2);
    flip_byte w2v_path ~at:(file_size w2v_path / 2)
  end;
  let test_graphs, rt = graphs_of test in
  let test_elems, rt2 = elements test in
  check
    (rt.Pigeon.Ingest.skipped = [] && rt2.Pigeon.Ingest.skipped = [])
    "test split ingests without skips";
  let mem_crf = Crf.Train.predict_batch crf_model test_graphs in
  let crf_pairs =
    List.concat
      (List.map2
         (fun g pred ->
           let gold = Crf.Graph.gold_assignment g in
           List.map (fun n -> (gold.(n), pred.(n))) (Crf.Graph.unknown_ids g))
         test_graphs mem_crf)
  in
  (match Crf.Serialize.load_mapped crf_path with
  | Error d -> check false "saved CRF model reloads:%s" (Format.asprintf "%a" Lexkit.Diag.pp d)
  | Ok (m, _) -> (
      match Crf.Train.predict_batch m test_graphs with
      | p -> check (p = mem_crf) "reloaded CRF model reproduces the held-out predictions"
      | exception e -> check false "reloaded CRF model predicts: %s" (Printexc.to_string e)));
  let w2v_pred p ctxs =
    match p ctxs with (name, _) :: _ -> Some name | [] -> None
  in
  let w2v_pairs =
    List.filter_map
      (fun (gold, ctxs) ->
        Option.map (fun p -> (gold, p)) (w2v_pred (Word2vec.Sgns.predict w2v_model) ctxs))
      test_elems
  in
  (match Word2vec.Serialize.load_mapped w2v_path with
  | Error d -> check false "saved SGNS model reloads:%s" (Format.asprintf "%a" Lexkit.Diag.pp d)
  | Ok (v, _) -> (
      match
        List.for_all
          (fun (_, ctxs) ->
            Word2vec.Sgns.predict_view v ctxs = Word2vec.Sgns.predict w2v_model ctxs)
          test_elems
      with
      | same -> check same "reloaded SGNS model reproduces the held-out predictions"
      | exception e -> check false "reloaded SGNS model predicts: %s" (Printexc.to_string e)));
  let acc pairs = 100. *. (Pigeon.Metrics.summarize pairs).Pigeon.Metrics.accuracy in
  let setup_s = median !setup_times in
  (* Each learner's own throughput and the SGNS model's accuracy are
     recorded on the `# run` line; the end-to-end metrics are the ones
     every workload measures. *)
  note "crf_graphs_per_s" (num (float_of_int (n_graphs * crf_iters) /. crf_t));
  note "sgns_pairs_per_s" (num (float_of_int (n_pairs * epochs) /. sgns_t));
  note "w2v_accuracy_pct" (num (acc w2v_pairs));
  let e2e =
    [
      ("setup_s", "s", setup_s);
      ("p50_ms", "ms", median !rounds *. 1000.);
      ( "ops_per_s",
        "ops/s",
        float_of_int (List.length !rounds) /. List.fold_left ( +. ) 0. !rounds );
      ("rss_mb", "MiB", rss);
      ("accuracy_pct", "%", acc crf_pairs);
    ]
  in
  if !trace = 0 then metric_all e2e
  else begin
    metric "word2vec.accuracy_pct" "%" (acc w2v_pairs);
    note "untraced_e2e" (Serve.Json.Obj (List.map (fun (k, _, v) -> (k, num v)) e2e));
    (* Traced pass: one more set-up, a per-file walk of the train split
       through the layers, one run of each learner, and a reload. *)
    Spans.clear ();
    Spans.enabled := true;
    Gc.full_major ();
    let (graphs, pairs), setup_traced = Clock.time (fun () -> Spans.span "setup" ingest) in
    List.iter
      (fun (_, src) ->
        Spans.span "layers" (fun () ->
            ignore
              (decompose_graph ~l:Inputs.langs.(0) ~index:(fun t -> Ast.Index.build t)
                 ~extract:(fun idx f -> Astpath.Extract.iter_all idx lang.Pigeon.Lang.tuned f)
                 ~build:(build_plain lang) src)))
      train;
    Gc.full_major ();
    let gc0 = Gc.quick_stat () in
    let (), crf_traced =
      Clock.time (fun () ->
          Spans.span "crf" (fun () ->
              let m = layer "crf.train" (fun () -> Crf.Train.train graphs) in
              Spans.span "crf.save" (fun () -> Crf.Serialize.save m crf_path)))
    in
    Gc.full_major ();
    let w, sgns_traced =
      Clock.time (fun () ->
          Spans.span "word2vec" (fun () ->
              let w = layer "word2vec.train" (fun () -> Word2vec.Sgns.train pairs) in
              Spans.span "word2vec.save" (fun () -> Word2vec.Serialize.save w w2v_path);
              w))
    in
    let gc1 = Gc.quick_stat () in
    let reloaded =
      Spans.span "crf.load" (fun () ->
          match Crf.Serialize.load_mapped crf_path with
          | Ok (m, _) -> m
          | Error _ -> failwith "reload of the traced CRF model")
    in
    Spans.span "crf.first_use" (fun () ->
        ignore (Crf.Train.predict reloaded (List.hd test_graphs)));
    List.iter
      (fun (_, ctxs) ->
        Spans.span "word2vec.predict" (fun () -> ignore (Word2vec.Sgns.predict w ctxs)))
      test_elems;
    Spans.enabled := false;
    parse_metrics Inputs.langs.(0);
    graph_metrics ~ops:(List.length train);
    let ingest_s = total "core.ingest" and pairs_s = total "core.pairs" in
    metric "core.ingest_s" "s" ingest_s;
    metric "core.pairs_s" "s" pairs_s;
    metric "crf.train_s" "s" (total "crf.train");
    metric "crf.train_kw" "kw"
      (get alloc "crf.train" /. float_of_int (max 1 (n_graphs * crf_iters)) /. 1000.);
    metric "crf.save_s" "s" (total "crf.save");
    metric "crf.model_mb" "MiB" (float_of_int (file_size crf_path) /. 1048576.);
    metric "crf.load_ms" "ms" (total "crf.load" *. 1000.);
    metric "crf.first_use_ms" "ms" (total "crf.first_use" *. 1000.);
    metric "word2vec.train_s" "s" (total "word2vec.train");
    metric "word2vec.save_s" "s" (total "word2vec.save");
    metric "word2vec.predict_us" "us"
      (total "word2vec.predict" /. float_of_int (max 1 (List.length test_elems)) *. 1e6);
    metric "rest.phase_s" "s"
      (Spans.self_time "setup" +. Spans.self_time "crf" +. Spans.self_time "word2vec");
    gc_delta gc0 gc1 ~ops:2;
    let untraced = setup_s +. crf_t +. sgns_t in
    let traced = setup_traced +. crf_traced +. sgns_traced in
    metric "trace.overhead_pct" "%" (100. *. (traced -. untraced) /. untraced);
    note "traced_e2e"
      (Serve.Json.Obj
         [ ("setup_s", num setup_traced); ("p50_ms", num ((crf_traced +. sgns_traced) *. 1000.)) ])
  end

(* ======================= main ======================= *)

(* The metrics BENCHMARK.json declares for this mode, as (name, unit),
   in its order. *)
let declared () =
  let key = if !trace = 0 then "end_to_end" else "per_layer" in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Result.map (Serve.Json.member key) (Serve.Json.parse text) with
  | Ok (Some (Serve.Json.Arr ms)) ->
      List.map
        (fun m ->
          match (Serve.Json.string_field "name" m, Serve.Json.string_field "unit" m) with
          | Some n, Some u -> (n, u)
          | _ -> failwith ("BENCHMARK.json: a " ^ key ^ " metric without name or unit"))
        ms
  | _ -> failwith ("BENCHMARK.json has no " ^ key ^ " list")

(* The result carries exactly the declared metrics. Every end-to-end
   metric is measured by every workload; a per-layer metric the traced
   run did not reach reads 0, because the workload bypasses that layer
   (the README's layer table says which), and is listed on the `# run`
   line. A metric measured in another unit, or measured but not
   declared, is a fault of the benchmark: it stops without a result. *)
let result_metrics () =
  let decl = declared () in
  let fault msg =
    prerr_endline ("pbench: " ^ msg);
    exit 2
  in
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name decl) then
        fault (name ^ " is measured but not declared in BENCHMARK.json"))
    !metrics;
  let bypassed = ref [] in
  let values =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) !metrics with
        | Some (_, v, u) ->
            if u <> unit then fault (Printf.sprintf "%s is measured in %s, declared in %s" name u unit);
            (name, v, unit)
        | None ->
            if !trace = 0 then fault (name ^ " is declared but not measured");
            bypassed := Serve.Json.Str name :: !bypassed;
            (name, 0., unit))
      decl
  in
  if !trace = 1 then note "bypassed" (Serve.Json.Arr (List.rev !bypassed));
  values

let usage =
  "pbench.exe --workload serve-predict|serve-edit|train --seed N --seconds S \
   --trace 0|1 --pigeon PATH"

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let bad msg =
    prerr_endline ("pbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  if not (List.mem !workload [ "serve-predict"; "serve-edit"; "train" ]) then
    bad ("unknown workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if not (!seconds > 0.) then bad "--seconds must be positive";
  if not (List.mem !scale [ "full"; "tiny" ]) then bad "--scale takes full or tiny";
  if not (List.mem !inject [ ""; "reply"; "model" ]) then bad "--inject takes reply or model";
  if !workload <> "train" && not (Sys.file_exists !pigeon) then
    bad "serve workloads need --pigeon PATH (the built pigeon binary)";
  (* One job everywhere: the ambient pool, the trainers (no pool) and
     the daemon (--jobs 1). It keeps models and replies byte-identical
     and leaves the second core to the load generator. *)
  Parallel.set_default_jobs 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  (match !workload with
  | "serve-predict" -> serve_run ~edit:false
  | "serve-edit" -> serve_run ~edit:true
  | _ -> train_run ());
  if !trace = 1 then begin
    let path =
      Filename.concat "_perfbench"
        (Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed)
    in
    Spans.write path;
    note "trace_file" (Serve.Json.Str path)
  end;
  let values = result_metrics () in
  print_endline
    ("# run "
    ^ Serve.Json.to_string (Serve.Json.Obj (provenance () @ List.rev !notes)));
  print_endline
    (Serve.Json.to_string
       (Serve.Json.Obj
          [
            ("correct", Serve.Json.Bool (!failed = 0));
            ("attempted", inum !attempted);
            ("failed", inum !failed);
            ( "metrics",
              Serve.Json.Obj
                (List.map
                   (fun (name, v, u) ->
                     (name, Serve.Json.Obj [ ("value", num v); ("unit", Serve.Json.Str u) ]))
                   values) );
          ]));
  exit (if !failed = 0 then 0 else 1)
