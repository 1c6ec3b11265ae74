(** The [pigeon serve] daemon: Unix/TCP listeners, one reader thread
    per connection, and a producer/consumer queue feeding batched MAP
    inference over the domain pool.

    Isolation: a hostile request gets a structured error reply (see
    {!Engine}); a disconnecting client costs its own connection
    (SIGPIPE ignored, EPIPE/EINTR handled); a contract violation below
    the batcher answers the whole batch with "internal" errors and the
    daemon stays up.

    Overload: the job queue is bounded ([max_queue]) — excess
    predict/similar requests answer immediately with an "overloaded"
    error (shed, not queued; the shed reply may overtake earlier
    queued replies on the same connection, so pipelining clients
    correlate by id). Connections are bounded ([max_conns]); excess
    accepts get one "overloaded" line and a close. Each connection has
    an I/O budget ([idle_timeout]) covering reads (slowloris defense:
    silent or byte-trickling clients are closed with a "timeout" line)
    and reply writes (a client that stops draining cannot wedge the
    batcher).

    Lifecycle: {!reload} (and the wire ["reload"] op) hot-swaps the
    model via {!Engine.reload} — loads run off the batcher's path,
    in-flight batches finish on the old model, nothing is dropped.
    {!request_stop} (wired to SIGTERM/SIGINT in the CLI) drains then
    stops. *)

type config = {
  unix_socket : string option;
  tcp : (string * int) option;  (** bind host, port *)
  max_batch : int;  (** most requests fused into one predict_batch round *)
  max_line : int;  (** request-line byte cap (framing guard) *)
  backlog : int;
  max_queue : int;  (** queued predict/similar bound; 0 = unbounded *)
  max_conns : int;  (** concurrent connection cap; 0 = unbounded *)
  idle_timeout : float;  (** seconds; per-connection I/O budget; 0 = none *)
  faults : Faults.t;  (** fault injection; {!Faults.disabled} by default *)
}

val default_config : config
(** No listeners (callers must set at least one), [max_batch = 16],
    20 MiB line cap, backlog 64, [max_queue = 256], [max_conns = 256],
    [idle_timeout = 300.], faults disabled. *)

type t

val start : ?pool:Parallel.pool -> Engine.t -> config -> t
(** Bind the listeners and spawn the I/O threads. Raises on bind
    failure (bad path, port in use, existing non-socket file at the
    Unix path), and [Invalid_argument] when no listener is set or
    [max_batch < 1]. [pool] is the domain pool batches fan out over;
    default is sequential prediction. *)

val request_stop : t -> unit
(** Begin shutdown (idempotent, thread-safe, callable from a signal
    context via a flag): listeners close, queued requests drain and
    answer, then connections close. *)

val stopped : t -> bool

val reload :
  ?name:string ->
  ?model_path:string ->
  ?w2v_path:string ->
  t ->
  (unit, Protocol.error) result
(** Hot model reload ({!Engine.reload} + the reload counter + a log
    line, including the mapped-load downgrade note when the loader
    fell back to a heap copy). [name] targets a registry entry
    (default: the default model); absent paths re-read the files the
    entry last loaded — the SIGHUP semantics. On [Error] the old
    registry keeps serving. *)

val wait : t -> unit
(** Block until the daemon has fully stopped (every accepted request
    answered, threads joined, Unix socket unlinked). A client
    [shutdown] request or {!request_stop} triggers that. *)

val run : ?pool:Parallel.pool -> Engine.t -> config -> unit
(** [start] then [wait]. *)

val stats : t -> Protocol.stats
