(* The request-processing core, shared verbatim by the daemon, the CLI
   one-shot path, and the tests — which is what makes "a jobs=1 daemon
   replies byte-identical to a CLI prediction" true by construction:
   both are this module.

   Isolation contract: [handle_batch] is total. A hostile request
   (oversized input, pathological nesting, step-budget exhaustion,
   anything that makes a front-end or the predictor raise) costs its
   own request a structured error reply and nothing else — concurrent
   requests in the same batch still answer, and no exception crosses
   the module boundary.

   Registry: the engine holds a name → model map in one immutable
   snapshot behind an [Atomic.t]. Every batch reads the snapshot
   exactly once and uses it throughout, so an in-flight batch finishes
   on the models it started with while [reload]/[unload]/[set_default]
   build a new snapshot off the request path and publish it with a
   single atomic store — readers never wait on a lock, and no request
   observes a half-swapped registry. A reload that fails validation
   (unreadable file, corrupt model) leaves the old snapshot serving.

   Eviction: when the mapped-bytes budget is set, loading a model may
   push the total over it; the least-recently-used mapped entry that
   is neither the default nor the one just loaded is then dropped from
   the snapshot (its paths and eviction count stay). This is safe
   precisely because snapshots are immutable: an in-flight batch keeps
   the evicted model alive through its own snapshot reference, and the
   mapping is unmapped when the last reference dies. An evicted entry
   revives transparently — the next request naming it triggers a
   reload from its recorded paths (O(header) for mapped models). *)

type loaded = {
  crf : Crf.Train.model;
  w2v : Word2vec.Sgns.view option;
  storage : Lexkit.Storage.t;  (** CRF and w2v storages merged *)
}

type entry = {
  e_name : string;
  e_model_path : string option;
  e_w2v_path : string option;
  e_loaded : loaded option;  (** [None] = evicted *)
  e_evictions : int;
  e_last_used : float Atomic.t;
      (** monotonic seconds of the last request served through this entry;
          [0.] = never. Shared across snapshot generations of the same
          name, so eviction ranks on real use. *)
}

type snapshot = {
  default_name : string;
  entries : entry list;  (** load order; registries are small *)
}

(* An edit session: one editor buffer, scoped to one connection. The
   session owns an incremental extraction cache (label/symbol/path
   intern tables plus memoized per-subtree path-context sets); each
   edit re-parses the full new buffer but replays extraction for every
   subtree the edit did not touch. Sessions are touched only from the
   single batcher thread (opens, edits, closes all queue), so the
   mutex below guards the *table* against concurrent stats reads and
   disconnect cleanup, not the caches themselves. *)
type session = {
  s_name : string;
  s_conn : int;
  s_lang : Pigeon.Lang.t;
  s_model : string option;  (** registry entry predictions run against *)
  s_cache : Astpath.Cache.t;
  mutable s_rels : Pigeon.Graphs.rels option;
      (** path id → relation id memo over [s_cache]'s path ids, for
          the model the last request ran against *)
  mutable s_edits : int;  (** successful edits since open *)
  mutable s_last_used : float;
      (** monotonic seconds of the last open/edit *)
}

type t = {
  snap : snapshot Atomic.t;
  limits : Lexkit.limits;  (** per-request resource budgets *)
  reload_m : Mutex.t;  (** serializes registry writers, not readers *)
  mmap : bool;  (** load through [load_mapped] (with its fallbacks)? *)
  max_mapped_bytes : int;  (** eviction budget; 0 = unbounded *)
  sessions : (int * string, session) Hashtbl.t;  (** (conn, name) *)
  sessions_m : Mutex.t;
  max_session_bytes : int;  (** session-cache budget; 0 = unbounded *)
  mutable sessions_evicted : int;  (** whole sessions dropped to it *)
}

let default_name = "default"
let find name entries = List.find_opt (fun e -> e.e_name = name) entries

let create ?w2v ?w2v_view ?storage ?limits ?model_path ?w2v_path ?(mmap = true)
    ?(max_mapped_bytes = 0) ?(max_session_bytes = 0) ?(name = default_name)
    ~model () =
  let w2v =
    match (w2v_view, w2v) with
    | Some v, _ -> Some v
    | None, Some m -> Some (Word2vec.Sgns.view_of m)
    | None, None -> None
  in
  let entry =
    {
      e_name = name;
      e_model_path = model_path;
      e_w2v_path = w2v_path;
      e_loaded =
        Some
          {
            crf = model;
            w2v;
            storage = Option.value ~default:Lexkit.Storage.heap storage;
          };
      e_evictions = 0;
      e_last_used = Atomic.make 0.;
    }
  in
  {
    snap = Atomic.make { default_name = name; entries = [ entry ] };
    limits = Option.value ~default:(Lexkit.current_limits ()) limits;
    reload_m = Mutex.create ();
    mmap;
    max_mapped_bytes;
    sessions = Hashtbl.create 16;
    sessions_m = Mutex.create ();
    max_session_bytes;
    sessions_evicted = 0;
  }

let limits t = t.limits

let reloadable t =
  let snap = Atomic.get t.snap in
  match find snap.default_name snap.entries with
  | Some e -> e.e_model_path <> None
  | None -> false

let loaded_names snap =
  String.concat ", "
    (List.map (fun e -> Printf.sprintf "%S" e.e_name) snap.entries)

(* ---------- registry writers (all under [reload_m]) ---------- *)

let load_files t ~model_path ~w2v_path =
  let crf_r =
    if t.mmap then Crf.Serialize.load_mapped model_path
    else
      Result.map (fun m -> (m, Lexkit.Storage.heap))
        (Crf.Serialize.load model_path)
  in
  match crf_r with
  | Error d -> Error (Protocol.error_of_diag d)
  | Ok (crf, cs) -> (
      match w2v_path with
      | None -> Ok { crf; w2v = None; storage = cs }
      | Some wp -> (
          let w_r =
            if t.mmap then Word2vec.Serialize.load_mapped wp
            else
              Result.map
                (fun m -> (Word2vec.Sgns.view_of m, Lexkit.Storage.heap))
                (Word2vec.Serialize.load wp)
          in
          match w_r with
          | Error d -> Error (Protocol.error_of_diag d)
          | Ok (v, ws) ->
              Ok { crf; w2v = Some v; storage = Lexkit.Storage.merge cs ws }))

let entry_mapped e =
  match e.e_loaded with
  | Some l -> Lexkit.Storage.mapped_bytes l.storage
  | None -> 0

let mapped_total entries =
  List.fold_left (fun acc e -> acc + entry_mapped e) 0 entries

(* Drop LRU mapped entries until the budget holds. Never the default,
   never [keep] (the entry that just loaded), never heap entries
   (dropping them frees no mapped bytes) — so each round strictly
   shrinks the total and the loop terminates. Called under
   [reload_m]. *)
let evict_lru t snap ~keep =
  if t.max_mapped_bytes <= 0 then snap
  else
    let rec go snap =
      if mapped_total snap.entries <= t.max_mapped_bytes then snap
      else
        match
          List.filter
            (fun e ->
              entry_mapped e > 0
              && e.e_name <> snap.default_name
              && e.e_name <> keep)
            snap.entries
        with
        | [] -> snap (* the budget cannot be met; serve anyway *)
        | v :: vs ->
            let victim =
              List.fold_left
                (fun a b ->
                  if Atomic.get b.e_last_used < Atomic.get a.e_last_used then b
                  else a)
                v vs
            in
            go
              {
                snap with
                entries =
                  List.map
                    (fun e ->
                      if e.e_name = victim.e_name then
                        { e with e_loaded = None;
                                 e_evictions = e.e_evictions + 1 }
                      else e)
                    snap.entries;
              }
    in
    go snap

let with_registry t f =
  Mutex.lock t.reload_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reload_m) f

let first_some a b = match a with Some _ -> a | None -> b

(* Load (or re-load, or revive) entry [name] — absent means the
   default — from the given paths, defaulting to its recorded ones.
   On success returns the storage's downgrade note (for the caller's
   log); the new snapshot is already published. *)
let reload t ?name ?model_path ?w2v_path () =
  with_registry t @@ fun () ->
  let snap = Atomic.get t.snap in
  let nm = Option.value ~default:snap.default_name name in
  let existing = find nm snap.entries in
  match
    first_some model_path (Option.bind existing (fun e -> e.e_model_path))
  with
  | None ->
      Error
        (if existing = None then
           Protocol.bad_request
             "reload: unknown model %S and no \"model\" path to load it from \
              (loaded: %s)"
             nm (loaded_names snap)
         else
           Protocol.bad_request
             "reload: no model path (the daemon was started from an in-memory \
              model and the request named none)")
  | Some mpath -> (
      let wpath =
        first_some w2v_path (Option.bind existing (fun e -> e.e_w2v_path))
      in
      match load_files t ~model_path:mpath ~w2v_path:wpath with
      | Error e -> Error e
      | Ok loaded ->
          let entry =
            {
              e_name = nm;
              e_model_path = Some mpath;
              e_w2v_path = wpath;
              e_loaded = Some loaded;
              e_evictions =
                (match existing with Some e -> e.e_evictions | None -> 0);
              e_last_used =
                (match existing with
                | Some e -> e.e_last_used
                | None -> Atomic.make 0.);
            }
          in
          let entries =
            match existing with
            | Some _ ->
                List.map
                  (fun e -> if e.e_name = nm then entry else e)
                  snap.entries
            | None -> snap.entries @ [ entry ]
          in
          let snap' = evict_lru t { snap with entries } ~keep:nm in
          Atomic.set t.snap snap';
          Ok (Lexkit.Storage.note loaded.storage))

let unload t name =
  with_registry t @@ fun () ->
  let snap = Atomic.get t.snap in
  if name = snap.default_name then
    Error
      (Protocol.bad_request
         "cannot unload the default model %S (set another default first)" name)
  else if find name snap.entries = None then
    Error
      (Protocol.bad_request "unload: unknown model %S (loaded: %s)" name
         (loaded_names snap))
  else begin
    Atomic.set t.snap
      {
        snap with
        entries = List.filter (fun e -> e.e_name <> name) snap.entries;
      };
    Ok ()
  end

let set_default t name =
  with_registry t @@ fun () ->
  let snap = Atomic.get t.snap in
  if find name snap.entries = None then
    Error
      (Protocol.bad_request "set_default: unknown model %S (loaded: %s)" name
         (loaded_names snap))
  else begin
    Atomic.set t.snap { snap with default_name = name };
    Ok ()
  end

(* Revive an evicted entry from its recorded paths. Re-checks under
   the lock: a concurrent request may have revived it already. *)
let revive t name =
  with_registry t @@ fun () ->
  let snap = Atomic.get t.snap in
  match find name snap.entries with
  | None ->
      Error
        (Protocol.bad_request "unknown model %S (loaded: %s)" name
           (loaded_names snap))
  | Some ({ e_loaded = Some _; _ } as e) -> Ok e
  | Some ({ e_model_path = None; _ }) ->
      Error
        (Protocol.bad_request
           "model %S was evicted and has no recorded path to revive it from"
           name)
  | Some ({ e_model_path = Some mpath; _ } as e) -> (
      match load_files t ~model_path:mpath ~w2v_path:e.e_w2v_path with
      | Error e -> Error e
      | Ok loaded ->
          let entry = { e with e_loaded = Some loaded } in
          let entries =
            List.map
              (fun e -> if e.e_name = name then entry else e)
              snap.entries
          in
          let snap' = evict_lru t { snap with entries } ~keep:name in
          Atomic.set t.snap snap';
          Ok entry)

(* ---------- request-side resolution ---------- *)

(* The entry a request runs against: the batch snapshot's, reviving
   evicted ones on demand. Touches the LRU clock. *)
let resolve t snap model =
  let nm = Option.value ~default:snap.default_name model in
  let r =
    match find nm snap.entries with
    | Some ({ e_loaded = Some _; _ } as e) -> Ok e
    | Some _ -> revive t nm
    | None ->
        Error
          (Protocol.bad_request "unknown model %S (loaded: %s)" nm
             (loaded_names snap))
  in
  (match r with
  | Ok e -> Atomic.set e.e_last_used (Netio.now ())
  | Error _ -> ());
  r

let entry_loaded e =
  match e.e_loaded with
  | Some l -> l
  | None -> assert false (* resolve only returns loaded entries *)

(* ---------- per-model stats ---------- *)

let models t =
  let snap = Atomic.get t.snap in
  let now = Netio.now () in
  List.map
    (fun e ->
      let storage, note, bytes =
        match e.e_loaded with
        | Some l ->
            ( Lexkit.Storage.kind_name l.storage,
              Lexkit.Storage.note l.storage,
              Lexkit.Storage.mapped_bytes l.storage )
        | None -> ("unloaded", None, 0)
      in
      let lu = Atomic.get e.e_last_used in
      {
        Protocol.ms_name = e.e_name;
        ms_default = e.e_name = snap.default_name;
        ms_loaded = e.e_loaded <> None;
        ms_storage = storage;
        ms_note = note;
        ms_mapped_bytes = bytes;
        ms_model_path = e.e_model_path;
        ms_w2v_path = e.e_w2v_path;
        ms_last_used_ms =
          (if lu = 0. then -1 else int_of_float (1000. *. (now -. lu)));
        ms_evictions = e.e_evictions;
      })
    snap.entries

(* ---------- request handling ---------- *)

(* Classify every failure: Diag-shaped ones keep their kind, anything
   else (a bug, not an input problem) becomes an "internal" error —
   answered, logged by the caller, survived. *)
let classify e =
  match Lexkit.diag_of_exn e with
  | Some d -> Protocol.error_of_diag d
  | None -> Protocol.internal_error (Printexc.to_string e)

let guarded t f =
  match Lexkit.with_limits t.limits (fun () -> Lexkit.protect f) with
  | Ok v -> Ok v
  | Error d -> Error (Protocol.error_of_diag d)
  | exception e -> Error (classify e)

(* parse → encoded factor graph against the request's model, under
   this engine's per-request budgets. The front-end guards (input size,
   nesting depth, step budget) all fire inside [lang.parse_tree]. The
   graph is built in the model's id space straight from extraction:
   no string graph, and nothing written to the shared model. *)
let egraph_of_code t (lang : Pigeon.Lang.t) (model : Crf.Train.model) code =
  guarded t (fun () ->
      let tree = lang.Pigeon.Lang.parse_tree code in
      let repr =
        Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned ()
      in
      Pigeon.Graphs.encode repr ~def_labels:lang.Pigeon.Lang.def_labels
        ~policy:Pigeon.Graphs.Locals model.Crf.Train.fast tree)

let pairs_of_prediction eg pred =
  Array.to_list
    (Array.map (fun n -> (Crf.Fast.name eg n, pred.(n))) (Crf.Fast.unknown_nodes eg))

(* ---------- edit sessions ---------- *)

let with_sessions t f =
  Mutex.lock t.sessions_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sessions_m) f

(* Whole-session LRU eviction to the byte budget. Evicting a whole
   session (rather than trimming its cache) keeps the budget simple
   and honest: a session's intern tables are part of its footprint and
   cannot be trimmed entry-wise. Never evicts [keep] — the session
   that just extracted — so one oversized buffer degrades to
   from-scratch speed instead of thrashing. *)
let evict_sessions t ~keep =
  if t.max_session_bytes > 0 then
    with_sessions t (fun () ->
        let total () =
          Hashtbl.fold
            (fun _ s acc -> acc + Astpath.Cache.bytes s.s_cache)
            t.sessions 0
        in
        let rec go () =
          if total () > t.max_session_bytes then begin
            let victim =
              Hashtbl.fold
                (fun key s acc ->
                  if key = keep then acc
                  else
                    match acc with
                    | Some (_, best) when best.s_last_used <= s.s_last_used ->
                        acc
                    | _ -> Some (key, s))
                t.sessions None
            in
            match victim with
            | None -> ()
            | Some (key, _) ->
                Hashtbl.remove t.sessions key;
                t.sessions_evicted <- t.sessions_evicted + 1;
                go ()
          end
        in
        go ())

let drop_conn t ~conn =
  with_sessions t (fun () ->
      let keys =
        Hashtbl.fold
          (fun ((c, _) as k) _ acc -> if c = conn then k :: acc else acc)
          t.sessions []
      in
      List.iter (Hashtbl.remove t.sessions) keys)

let cache_stat_of (c : Astpath.Cache.stats) =
  {
    Protocol.cache_hits = c.Astpath.Cache.hits;
    cache_misses = c.Astpath.Cache.misses;
    cached_paths = c.Astpath.Cache.cached_paths;
    cache_bytes = c.Astpath.Cache.bytes;
    cache_evictions = c.Astpath.Cache.evictions;
  }

let session_stats t =
  with_sessions t (fun () ->
      let now = Netio.now () in
      let stat s =
        {
          Protocol.ss_name = s.s_name;
          ss_conn = s.s_conn;
          ss_lang = s.s_lang.Pigeon.Lang.name;
          ss_edits = s.s_edits;
          ss_last_used_ms =
            (if s.s_last_used = 0. then -1
             else int_of_float (1000. *. (now -. s.s_last_used)));
          ss_cache = cache_stat_of (Astpath.Cache.stats s.s_cache);
        }
      in
      let sessions =
        Hashtbl.fold (fun _ s acc -> stat s :: acc) t.sessions []
        |> List.sort (fun a b ->
               compare
                 (a.Protocol.ss_conn, a.Protocol.ss_name)
                 (b.Protocol.ss_conn, b.Protocol.ss_name))
      in
      let agg =
        List.fold_left
          (fun a ss ->
            let c = ss.Protocol.ss_cache in
            {
              Protocol.cache_hits = a.Protocol.cache_hits + c.Protocol.cache_hits;
              cache_misses = a.Protocol.cache_misses + c.Protocol.cache_misses;
              cached_paths = a.Protocol.cached_paths + c.Protocol.cached_paths;
              cache_bytes = a.Protocol.cache_bytes + c.Protocol.cache_bytes;
              cache_evictions =
                a.Protocol.cache_evictions + c.Protocol.cache_evictions;
            })
          {
            Protocol.cache_hits = 0;
            cache_misses = 0;
            cached_paths = 0;
            cache_bytes = 0;
            cache_evictions = t.sessions_evicted;
          }
          sessions
      in
      (sessions, agg))

(* parse → encoded factor graph through the session's incremental
   cache and its relation memo. Same guards as [egraph_of_code]; a
   failed parse costs the request its reply and leaves the session's
   buffer state untouched. The memo follows the session's model: a
   reload, eviction or revival hands the session a new model, and the
   memo built against the old one is dropped here. *)
let egraph_of_session t (sess : session) (model : Crf.Train.model) code =
  guarded t (fun () ->
      let tree = sess.s_lang.Pigeon.Lang.parse_tree code in
      let repr =
        Pigeon.Graphs.default_repr ~config:sess.s_lang.Pigeon.Lang.tuned ()
      in
      let rels =
        Pigeon.Graphs.rels ?reuse:sess.s_rels repr model.Crf.Train.fast
      in
      sess.s_rels <- Some rels;
      Pigeon.Graphs.encode_cached repr ~cache:sess.s_cache ~rels
        ~def_labels:sess.s_lang.Pigeon.Lang.def_labels
        ~policy:Pigeon.Graphs.Locals tree)

let predict_one t ~lang ~code =
  let snap = Atomic.get t.snap in
  match resolve t snap None with
  | Error e -> Error e
  | Ok entry -> (
      let l = entry_loaded entry in
      match egraph_of_code t lang l.crf code with
      | Error e -> Error e
      | Ok eg ->
          guarded t (fun () ->
              pairs_of_prediction eg
                (List.hd (Crf.Train.predict_encoded l.crf [ eg ]))))

let similar_entry entry ~word ~k =
  let l = entry_loaded entry in
  match l.w2v with
  | None ->
      Error
        (Protocol.bad_request
           "no word2vec model loaded for %S (start the server with --w2v or \
            reload with a \"w2v\" path)"
           entry.e_name)
  | Some v -> (
      match
        Lexkit.protect (fun () -> Word2vec.Sgns.most_similar_view v word ~k)
      with
      | Ok xs -> Ok xs
      | Error d -> Error (Protocol.error_of_diag d)
      | exception e -> Error (classify e))

let similar ?model t ~word ~k =
  let snap = Atomic.get t.snap in
  match resolve t snap model with
  | Error e -> Error e
  | Ok entry -> similar_entry entry ~word ~k

(* ---------- batched handling ---------- *)

(* Per-request state across the two stages: requests whose reply is
   already decided (control ops, failed parses), and parsed graphs
   waiting for the prediction stage, pinned to their registry entry. *)
type slot =
  | Done of string
  | Pending of {
      id : Json.t;
      lang_name : string;
      eg : Crf.Fast.egraph;  (** encoded against [model] *)
      model_name : string;
      model : Crf.Train.model;
      session : string option;  (** echoed in the reply when set *)
    }

let unknown_lang ~id lang =
  Protocol.render_error ~id
    (Protocol.bad_request "unknown language %S (use %s)" lang
       (String.concat ", "
          (List.map (fun (l : Pigeon.Lang.t) -> l.Pigeon.Lang.name)
             Pigeon.Lang.all)))

(* Session ops run here, on the single batcher thread, in queue order
   per connection — an open, its edits, and its close cannot race each
   other. Re-opening a name replaces the session (a fresh cache): the
   editor reloaded the buffer. *)
let open_session t snap ~conn ~id ~name ~lang ~code ~model =
  match resolve t snap model with
  | Error e -> Done (Protocol.render_error ~id e)
  | Ok entry -> (
      match Pigeon.Lang.by_name lang with
      | None -> Done (unknown_lang ~id lang)
      | Some l -> (
          let sess =
            {
              s_name = name;
              s_conn = conn;
              s_lang = l;
              s_model = model;
              s_cache = Astpath.Cache.create ();
              s_rels = None;
              s_edits = 0;
              s_last_used = Netio.now ();
            }
          in
          let crf = (entry_loaded entry).crf in
          match egraph_of_session t sess crf code with
          | Error e -> Done (Protocol.render_error ~id e)
          | Ok eg ->
              with_sessions t (fun () ->
                  Hashtbl.replace t.sessions (conn, name) sess);
              evict_sessions t ~keep:(conn, name);
              Pending
                {
                  id;
                  lang_name = l.Pigeon.Lang.name;
                  eg;
                  model_name = entry.e_name;
                  model = crf;
                  session = Some name;
                }))

let edit_session t snap ~conn ~id ~name ~code =
  match with_sessions t (fun () -> Hashtbl.find_opt t.sessions (conn, name)) with
  | None ->
      Done
        (Protocol.render_error ~id
           (Protocol.no_session
              "no open session %S on this connection (open it first; closed \
               and evicted sessions must be re-opened)"
              name))
  | Some sess -> (
      match resolve t snap sess.s_model with
      | Error e -> Done (Protocol.render_error ~id e)
      | Ok entry -> (
          let crf = (entry_loaded entry).crf in
          match egraph_of_session t sess crf code with
          | Error e ->
              (* The edit failed (parse error, oversized buffer, …):
                 its request answers and the session survives on its
                 previous state. *)
              Done (Protocol.render_error ~id e)
          | Ok eg ->
              sess.s_edits <- sess.s_edits + 1;
              sess.s_last_used <- Netio.now ();
              evict_sessions t ~keep:(conn, name);
              Pending
                {
                  id;
                  lang_name = sess.s_lang.Pigeon.Lang.name;
                  eg;
                  model_name = entry.e_name;
                  model = crf;
                  session = Some name;
                }))

let close_session t ~conn ~id ~name =
  match
    with_sessions t (fun () ->
        match Hashtbl.find_opt t.sessions (conn, name) with
        | None -> None
        | Some s ->
            Hashtbl.remove t.sessions (conn, name);
            Some s)
  with
  | None ->
      Done
        (Protocol.render_error ~id
           (Protocol.no_session "no open session %S on this connection" name))
  | Some s -> Done (Protocol.render_closed ~id ~session:name ~edits:s.s_edits)

let prepare t snap ~conn req =
  let id = Protocol.request_id req in
  match req with
  | Protocol.Ping _ -> Done (Protocol.render_pong ~id)
  | Protocol.Shutdown _ -> Done (Protocol.render_stopping ~id)
  | Protocol.Stats _ ->
      Done
        (Protocol.render_error ~id
           (Protocol.bad_request "stats is only served by a running daemon"))
  | Protocol.Reload _ ->
      Done
        (Protocol.render_error ~id
           (Protocol.bad_request "reload is only served by a running daemon"))
  | Protocol.Similar { word; k; model; _ } -> (
      match resolve t snap model with
      | Error e -> Done (Protocol.render_error ~id e)
      | Ok entry -> (
          match similar_entry entry ~word ~k with
          | Ok xs -> Done (Protocol.render_similar ~id ~word xs)
          | Error e -> Done (Protocol.render_error ~id e)))
  | Protocol.Predict { lang; code; model; _ } -> (
      match resolve t snap model with
      | Error e -> Done (Protocol.render_error ~id e)
      | Ok entry -> (
          match Pigeon.Lang.by_name lang with
          | None -> Done (unknown_lang ~id lang)
          | Some l -> (
              let crf = (entry_loaded entry).crf in
              match egraph_of_code t l crf code with
              | Error e -> Done (Protocol.render_error ~id e)
              | Ok eg ->
                  Pending
                    {
                      id;
                      lang_name = l.Pigeon.Lang.name;
                      eg;
                      model_name = entry.e_name;
                      model = crf;
                      session = None;
                    })))
  | Protocol.Open { name; lang; code; model; _ } ->
      open_session t snap ~conn ~id ~name ~lang ~code ~model
  | Protocol.Edit { name; code; _ } -> edit_session t snap ~conn ~id ~name ~code
  | Protocol.Close { name; _ } -> close_session t ~conn ~id ~name

let handle_batch_conn ?pool t reqs =
  (* One snapshot for the whole batch: a concurrent reload affects the
     next batch, never a half-processed one. *)
  let snap = Atomic.get t.snap in
  let slots =
    Array.of_list (List.map (fun (conn, req) -> prepare t snap ~conn req) reqs)
  in
  (* Group pending graphs per model — one prediction round per model
     keeps the single-model case exactly as before while a mixed batch
     still fans each group over the pool. *)
  let groups = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | Done _ -> ()
      | Pending { eg; model_name; model; _ } -> (
          match List.assoc_opt model_name !groups with
          | Some (_, items) -> items := (i, eg) :: !items
          | None ->
              groups := !groups @ [ (model_name, (model, ref [ (i, eg) ])) ]))
    slots;
  let results = Array.make (Array.length slots) None in
  List.iter
    (fun (_, (model, items)) ->
      let items = List.rev !items in
      let egs = List.map snd items in
      let preds =
        (* Fast path: the whole group through the domain pool at once.
           If one graph poisons the batch (a predictor bug — guarded
           inputs cannot reach here), fall back to per-graph prediction
           so only the offending request pays. *)
        match Crf.Train.predict_encoded ?pool model egs with
        | preds -> List.map (fun p -> Ok p) preds
        | exception _ ->
            List.map
              (fun eg ->
                guarded t (fun () ->
                    List.hd (Crf.Train.predict_encoded model [ eg ])))
              egs
      in
      List.iter2 (fun (i, _) p -> results.(i) <- Some p) items preds)
    !groups;
  Array.to_list
    (Array.mapi
       (fun i slot ->
         match slot with
         | Done line -> line
         | Pending { id; lang_name; eg; session; _ } -> (
             match results.(i) with
             | Some (Ok p) -> (
                 let pairs = pairs_of_prediction eg p in
                 match session with
                 | Some s ->
                     Protocol.render_session_predictions ~id ~lang:lang_name
                       ~session:s pairs
                 | None -> Protocol.render_predictions ~id ~lang:lang_name pairs)
             | Some (Error e) -> Protocol.render_error ~id e
             | None ->
                 (* Unreachable: every pending slot joined a group.
                    Answer rather than crash if the invariant ever
                    breaks. *)
                 Protocol.render_error ~id
                   (Protocol.internal_error
                      "prediction result missing for request")))
       slots)

let handle_batch ?pool t reqs =
  handle_batch_conn ?pool t (List.map (fun r -> (0, r)) reqs)

let handle ?pool t req =
  match handle_batch ?pool t [ req ] with
  | [ line ] -> line
  | _ ->
      Protocol.render_error ~id:(Protocol.request_id req)
        (Protocol.internal_error "single request produced no reply")

let jobs_of_pool = function
  | Some p -> Parallel.jobs p
  | None -> 1
