(* The long-lived daemon: listeners accept connections, one reader
   thread per connection parses newline-delimited JSON requests, and a
   producer/consumer queue feeds a single batcher thread that groups
   up to [max_batch] pending requests and pushes them through the
   domain pool in one [Crf.Train.predict_batch] round (via
   [Engine.handle_batch]).

   Threading model: sys-threads for I/O (they park in [read]/[accept]
   and release the runtime lock), the domain pool for compute. Control
   ops (ping, stats, reload, shutdown) answer inline from the reader
   thread; predict/similar requests are queued, so their replies stay
   in request order per connection while a slow prediction never
   blocks a ping. (Shed replies are the one exception: a rejected
   request answers immediately, possibly before earlier queued ones —
   pipelining clients correlate by id.)

   Overload and lifecycle, in layers:
   - the job queue is bounded ([max_queue]): excess predict/similar
     requests answer immediately with a structured "overloaded" error
     instead of growing latency without bound;
   - connections are bounded ([max_conns]): excess accepts get one
     "overloaded" line and a close, so the daemon's thread count and
     fd table stay bounded under a connection flood;
   - each connection has an idle budget ([idle_timeout], enforced with
     bounded selects in Netio): a client that goes silent — including
     mid-line, the slowloris pattern — gets a "timeout" error line,
     best effort, and its connection closed; the same budget bounds
     reply writes, so a client that stops draining its socket cannot
     wedge the batcher;
   - hot reload swaps the engine's model snapshot atomically
     (Engine.reload): in-flight batches finish on the old model, no
     request is dropped;
   - shutdown drains: listeners close first, queued requests answer,
     then connections close.

   Failure containment, in layers:
   - a request that fails answers with a structured error (Engine);
   - a connection that disconnects mid-reply costs that connection
     (SIGPIPE is ignored; EPIPE marks the connection dead);
   - a batcher-level surprise answers every request of the batch with
     an "internal" error and keeps the daemon up.

   Fault injection (Serve.Faults, off by default) hooks into accept
   (drop), the batcher (delay, injected raise), and the reply path
   (torn write) — the chaos suite drives the containment layers
   through exactly the code real faults would take. *)

let log_src = Logs.Src.create "pigeon.serve" ~doc:"pigeon serve daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  unix_socket : string option;
  tcp : (string * int) option;  (** bind host, port *)
  max_batch : int;
  max_line : int;  (** request-line byte cap (framing guard) *)
  backlog : int;
  max_queue : int;  (** queued predict/similar bound; 0 = unbounded *)
  max_conns : int;  (** concurrent connection cap; 0 = unbounded *)
  idle_timeout : float;  (** seconds; per-connection I/O budget; 0 = none *)
  faults : Faults.t;  (** fault injection; disabled by default *)
}

let default_config =
  {
    unix_socket = None;
    tcp = None;
    max_batch = 16;
    (* Requests wrap source files in JSON: allow the 8 MiB default
       input cap escaped (×2) plus envelope slack. *)
    max_line = 20 * 1024 * 1024;
    backlog = 64;
    max_queue = 256;
    max_conns = 256;
    idle_timeout = 300.;
    faults = Faults.disabled;
  }

type conn = {
  id : int;  (** scopes edit sessions; unique for the daemon's life *)
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  mutable alive : bool;
}

type job = { conn : conn; req : Protocol.request }

type t = {
  engine : Engine.t;
  pool : Parallel.pool option;
  cfg : config;
  faults : Faults.state option;  (** [None] = injection disabled: no cost *)
  m : Mutex.t;
  work : Condition.t;
  q : job Queue.t;
  mutable stopping : bool;
  mutable listeners : Unix.file_descr list;
  mutable conns : conn list;
  mutable n_conns : int;
  mutable io_threads : Thread.t list;  (** accept loops + batcher *)
  mutable conn_threads : (int * Thread.t) list;  (** keyed by thread id *)
  t0 : float;
  mutable served : int;
  mutable errors : int;
  mutable shed : int;
  mutable batches : int;
  mutable max_batch_seen : int;
  mutable queue_hw : int;
  mutable reloads : int;
  mutable conn_seq : int;  (** next connection id *)
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let stats t =
  locked t (fun () ->
      {
        Protocol.uptime_ms =
          int_of_float (1000. *. (Netio.now () -. t.t0));
        served = t.served;
        errors = t.errors;
        shed = t.shed;
        batches = t.batches;
        max_batch = t.max_batch_seen;
        queue_depth = Queue.length t.q;
        queue_hw = t.queue_hw;
        conns = t.n_conns;
        reloads = t.reloads;
        jobs = Engine.jobs_of_pool t.pool;
        models = Engine.models t.engine;
        sessions = [];
        session_cache =
          {
            Protocol.cache_hits = 0;
            cache_misses = 0;
            cached_paths = 0;
            cache_bytes = 0;
            cache_evictions = 0;
          };
      })

(* Session stats read the engine's session table under its own lock —
   outside [t.m], so a stats request never holds the job-queue lock
   while folding over caches. *)
let stats t =
  let sessions, session_cache = Engine.session_stats t.engine in
  { (stats t) with Protocol.sessions; session_cache }

let io_timeout t =
  if t.cfg.idle_timeout > 0. then Some t.cfg.idle_timeout else None

(* Serialized, failure-absorbing reply write. A dead peer (EPIPE and
   friends) or one that stops draining its socket (write timeout)
   marks the connection; the request that triggered the write is the
   only thing lost. *)
let send t conn line =
  let kill_conn () =
    conn.alive <- false;
    (* Unblock the connection's reader so it can clean up. *)
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  in
  let sent =
    Mutex.lock conn.wmutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.wmutex)
      (fun () ->
        if not conn.alive then false
        else
          match t.faults with
          | Some st when Faults.fire st Faults.Torn_reply ->
              (* Injected crash-mid-write: a reply prefix with no
                 newline, then the connection dies. The peer must see
                 a torn line ending in EOF, never a garbled frame. *)
              (try
                 ignore
                   (Unix.write_substring conn.fd line 0
                      (String.length line / 2))
               with Unix.Unix_error _ -> ());
              kill_conn ();
              false
          | _ -> (
              match Netio.write_line ?timeout:(io_timeout t) conn.fd line with
              | () -> true
              | exception Unix.Unix_error _ ->
                  kill_conn ();
                  false))
  in
  if sent then
    locked t (fun () ->
        t.served <- t.served + 1;
        if not (Protocol.reply_ok line) then t.errors <- t.errors + 1)

(* Backpressure: a full queue sheds the request with an immediate
   structured "overloaded" reply instead of queueing unbounded
   latency. The shed reply races ahead of this connection's queued
   requests by design — correlate by id. *)
let enqueue t job =
  let decision =
    locked t (fun () ->
        if t.stopping then `Drop
        else if t.cfg.max_queue > 0 && Queue.length t.q >= t.cfg.max_queue
        then begin
          t.shed <- t.shed + 1;
          `Shed
        end
        else begin
          Queue.add job t.q;
          let depth = Queue.length t.q in
          if depth > t.queue_hw then t.queue_hw <- depth;
          Condition.signal t.work;
          `Queued
        end)
  in
  match decision with
  | `Queued | `Drop -> ()
  | `Shed ->
      send t job.conn
        (Protocol.render_error
           ~id:(Protocol.request_id job.req)
           (Protocol.overloaded
              "server overloaded: %d requests queued (max-queue); retry later"
              t.cfg.max_queue))

(* ---------- shutdown plumbing ---------- *)

let request_stop t =
  let listeners =
    locked t (fun () ->
        if t.stopping then []
        else begin
          t.stopping <- true;
          Condition.broadcast t.work;
          let ls = t.listeners in
          t.listeners <- [];
          ls
        end)
  in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners

let stopped t = locked t (fun () -> t.stopping)

let reload ?name ?model_path ?w2v_path t =
  match Engine.reload t.engine ?name ?model_path ?w2v_path () with
  | Ok note ->
      locked t (fun () -> t.reloads <- t.reloads + 1);
      Log.info (fun m ->
          m "model %S reloaded" (Option.value ~default:"default" name));
      Option.iter (fun n -> Log.info (fun m -> m "%s" n)) note;
      Ok ()
  | Error e ->
      Log.err (fun m ->
          m "model reload failed: [%s] %s" e.Protocol.kind e.Protocol.msg);
      Error e

(* ---------- batcher ---------- *)

let batcher t () =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.q && not t.stopping do
      Condition.wait t.work t.m
    done;
    if Queue.is_empty t.q then begin
      (* stopping && drained: every queued request has been answered. *)
      Mutex.unlock t.m;
      ()
    end
    else begin
      (* Explicit count: [List.length] inside the take loop would make
         batch assembly O(max_batch²). *)
      let jobs = ref [] and count = ref 0 in
      while (not (Queue.is_empty t.q)) && !count < t.cfg.max_batch do
        jobs := Queue.take t.q :: !jobs;
        incr count
      done;
      let jobs = List.rev !jobs in
      t.batches <- t.batches + 1;
      if !count > t.max_batch_seen then t.max_batch_seen <- !count;
      Mutex.unlock t.m;
      let replies =
        (* Engine.handle_batch is total by contract; this second net
           exists so a violation of that contract answers the batch
           and keeps the daemon alive instead of killing the consumer
           thread. The backtrace goes to the log, not the client.
           Fault injection raises right here for the same reason: the
           chaos suite drives this exact containment path. *)
        match
          (match t.faults with
          | Some st ->
              Faults.pre_batch_delay st;
              if Faults.fire st Faults.Engine_error then
                failwith "injected engine fault (PIGEON_FAULTS)"
          | None -> ());
          Engine.handle_batch_conn ?pool:t.pool t.engine
            (List.map (fun j -> (j.conn.id, j.req)) jobs)
        with
        | replies -> replies
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Log.err (fun m ->
                m "batch failed: %s@.%s" (Printexc.to_string e)
                  (Printexc.raw_backtrace_to_string bt));
            List.map
              (fun j ->
                Protocol.render_error ~id:(Protocol.request_id j.req)
                  (Protocol.internal_error (Printexc.to_string e)))
              jobs
      in
      List.iter2 (fun j line -> send t j.conn line) jobs replies;
      loop ()
    end
  in
  loop ()

(* ---------- per-connection reader ---------- *)

let forget_conn t conn =
  locked t (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns;
      t.n_conns <- t.n_conns - 1)

let reader t conn () =
  let lr =
    Netio.line_reader ~max_line:t.cfg.max_line ?idle_timeout:(io_timeout t)
      conn.fd
  in
  let rec loop () =
    match Netio.read_line lr with
    | Netio.Eof -> ()
    | Netio.Timeout ->
        (* Idle (or trickling) beyond the budget: one best-effort
           structured line, then the connection closes. A slow writer
           cannot park this thread forever. *)
        send t conn
          (Protocol.render_error ~id:Json.Null
             (Protocol.timeout
                "connection idle for %.0fs (idle-timeout); connection closed"
                t.cfg.idle_timeout))
    | Netio.Overflow ->
        (* Line framing is lost beyond the cap: answer once, close. *)
        send t conn
          (Protocol.render_error ~id:Json.Null
             (Protocol.bad_request
                "request line exceeds %d bytes; connection closed"
                t.cfg.max_line))
    | Netio.Line line ->
        if String.trim line = "" then loop ()
        else begin
          (match Protocol.request_of_line line with
          | Error (id, err) -> send t conn (Protocol.render_error ~id err)
          | Ok (Protocol.Ping { id }) -> send t conn (Protocol.render_pong ~id)
          | Ok (Protocol.Stats { id }) ->
              send t conn (Protocol.render_stats ~id (stats t))
          | Ok (Protocol.Reload { id; form }) -> (
              (* Registry writes run here, in this connection's reader
                 thread — off the batcher's request path, so prediction
                 latency is untouched while a new model loads and
                 validates. *)
              match form with
              | Protocol.Load { name; model; w2v } -> (
                  match reload ?name ?model_path:model ?w2v_path:w2v t with
                  | Ok () -> send t conn (Protocol.render_reloaded ~id)
                  | Error e -> send t conn (Protocol.render_error ~id e))
              | Protocol.Unload n -> (
                  match Engine.unload t.engine n with
                  | Ok () ->
                      Log.info (fun m -> m "model %S unloaded" n);
                      send t conn (Protocol.render_unloaded ~id n)
                  | Error e -> send t conn (Protocol.render_error ~id e))
              | Protocol.Set_default n -> (
                  match Engine.set_default t.engine n with
                  | Ok () ->
                      Log.info (fun m -> m "default model set to %S" n);
                      send t conn (Protocol.render_default_set ~id n)
                  | Error e -> send t conn (Protocol.render_error ~id e)))
          | Ok (Protocol.Shutdown { id }) ->
              send t conn (Protocol.render_stopping ~id);
              request_stop t
          | Ok
              (( Protocol.Predict _ | Protocol.Similar _ | Protocol.Open _
               | Protocol.Edit _ | Protocol.Close _ ) as req) ->
              (* Session ops queue like predicts — running close inline
                 here would race this connection's still-queued edits. *)
              enqueue t { conn; req });
          loop ()
        end
    | exception Unix.Unix_error _ -> ()
  in
  (match loop () with () -> () | exception _ -> ());
  Mutex.lock conn.wmutex;
  conn.alive <- false;
  Mutex.unlock conn.wmutex;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  (* A disconnect closes the connection's edit sessions; their queued
     requests (if any) answer "no-session" into a dead socket. *)
  Engine.drop_conn t.engine ~conn:conn.id;
  forget_conn t conn;
  (* Drop our own join handle: a daemon serving many short-lived
     connections must not accumulate dead threads. *)
  let me = Thread.id (Thread.self ()) in
  locked t (fun () ->
      t.conn_threads <- List.filter (fun (id, _) -> id <> me) t.conn_threads)

let spawn_reader t fd =
  (* Non-blocking + select-based waits in Netio: reads and writes both
     honor the idle budget, on the same fd. *)
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  let id = locked t (fun () ->
      let id = t.conn_seq in
      t.conn_seq <- id + 1;
      id)
  in
  let conn = { id; fd; wmutex = Mutex.create (); alive = true } in
  let decision =
    locked t (fun () ->
        if t.stopping then `Close
        else if t.cfg.max_conns > 0 && t.n_conns >= t.cfg.max_conns then begin
          t.shed <- t.shed + 1;
          `Reject
        end
        else begin
          t.conns <- conn :: t.conns;
          t.n_conns <- t.n_conns + 1;
          `Accept
        end)
  in
  match decision with
  | `Close -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | `Reject ->
      (* One structured line, best effort, then close — from a helper
         thread so a non-reading flooder cannot stall the accept loop. *)
      let line =
        Protocol.render_error ~id:Json.Null
          (Protocol.overloaded
             "server overloaded: %d connections open (max-conns); retry later"
             t.cfg.max_conns)
      in
      ignore
        (Thread.create
           (fun () ->
             (try Netio.write_line ~timeout:1.0 fd line
              with Unix.Unix_error _ -> ());
             try Unix.close fd with Unix.Unix_error _ -> ())
           ())
  | `Accept ->
      let th = Thread.create (reader t conn) () in
      locked t (fun () ->
          t.conn_threads <- (Thread.id th, th) :: t.conn_threads)

(* ---------- accept loops ---------- *)

(* select-with-timeout rather than a blocking accept, so stopping
   never races a close against a thread parked in accept. *)
let acceptor t lfd () =
  let rec loop () =
    if stopped t then ()
    else
      match Unix.select [ lfd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true lfd with
          | cfd, _ ->
              (match t.faults with
              | Some st when Faults.fire st Faults.Accept_drop -> (
                  (* Injected accept-time drop: the peer sees an
                     immediate EOF, the daemon moves on. *)
                  try Unix.close cfd with Unix.Unix_error _ -> ())
              | _ -> spawn_reader t cfd);
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              loop ()
          | exception Unix.Unix_error _ -> if stopped t then () else loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
  in
  loop ()

(* ---------- lifecycle ---------- *)

let listen_unix path backlog =
  (* A stale socket file from a crashed daemon would make bind fail;
     replace it. Refuse to unlink anything that is not a socket. *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd backlog;
  fd

let listen_tcp host port backlog =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> failwith (Printf.sprintf "cannot resolve bind host %S" host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd backlog;
  fd

let start ?pool engine cfg =
  if cfg.unix_socket = None && cfg.tcp = None then
    invalid_arg "Serve.Server.start: no unix socket and no TCP address";
  (* A batch of at most 0 jobs takes none: the batcher would spin on a
     non-empty queue and never drain it. *)
  if cfg.max_batch < 1 then
    invalid_arg "Serve.Server.start: max_batch must be at least 1";
  Netio.ignore_sigpipe ();
  let listeners =
    (match cfg.unix_socket with
    | Some path -> [ listen_unix path cfg.backlog ]
    | None -> [])
    @
    match cfg.tcp with
    | Some (host, port) -> [ listen_tcp host port cfg.backlog ]
    | None -> []
  in
  let t =
    {
      engine;
      pool;
      cfg;
      faults =
        (if Faults.enabled cfg.faults then Some (Faults.state cfg.faults)
         else None);
      m = Mutex.create ();
      work = Condition.create ();
      q = Queue.create ();
      stopping = false;
      listeners;
      conns = [];
      n_conns = 0;
      io_threads = [];
      conn_threads = [];
      t0 = Netio.now ();
      served = 0;
      errors = 0;
      shed = 0;
      batches = 0;
      max_batch_seen = 0;
      queue_hw = 0;
      reloads = 0;
      conn_seq = 1;
    }
  in
  let threads =
    Thread.create (batcher t) ()
    :: List.map (fun lfd -> Thread.create (acceptor t lfd) ()) listeners
  in
  t.io_threads <- threads;
  t

let wait t =
  (* Acceptors exit once stopping is set; the batcher exits once
     stopping is set and the queue is drained — every request read
     before shutdown gets its reply. *)
  List.iter Thread.join t.io_threads;
  (* No replies can be produced anymore: release the readers. *)
  let conns = locked t (fun () -> t.conns) in
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  let readers = locked t (fun () -> List.map snd t.conn_threads) in
  List.iter Thread.join readers;
  match t.cfg.unix_socket with
  | Some path -> (
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ | (exception Unix.Unix_error _) -> ())
  | None -> ()

let run ?pool engine cfg =
  let t = start ?pool engine cfg in
  wait t
