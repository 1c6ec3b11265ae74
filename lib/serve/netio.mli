(** EINTR/EPIPE-safe socket plumbing shared by the server and client,
    with select-based timeouts that work on blocking and non-blocking
    fds alike. *)

val now : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin: what
    every deadline, idle budget, LRU stamp and uptime in the daemon
    reads, so a wall-clock step cannot fire or stall them. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (no-op where it does not exist), so a
    write to a disconnected peer fails with [EPIPE] instead of killing
    the process. *)

val write_line : ?timeout:float -> Unix.file_descr -> string -> unit
(** Write the string plus a terminating newline, retrying short writes,
    [EINTR], and [EAGAIN] (non-blocking fds wait for writability).
    [timeout] bounds each wait for the fd to accept more bytes; a peer
    that stops draining raises [Unix.Unix_error (ETIMEDOUT, _, _)].
    Raises [Unix.Unix_error] ([EPIPE], …) when the peer is gone —
    callers drop the connection, nothing else. *)

type line = Line of string | Eof | Overflow | Timeout

type line_reader

val line_reader :
  ?max_line:int -> ?idle_timeout:float -> Unix.file_descr -> line_reader
(** Buffered newline framing over an fd. [max_line] (default 16 MiB)
    bounds a single line; beyond it {!read_line} returns [Overflow]
    and the stream can no longer be trusted to be in sync (repeated
    calls keep returning [Overflow]). [idle_timeout] (seconds; absent
    or [<= 0.] = wait forever) bounds each wait for input: a
    connection that stays silent that long — including mid-line —
    reads as [Timeout]. *)

val read_line : line_reader -> line
(** Next line without its ['\n'] (a final unterminated line before EOF
    counts). Retries [EINTR]; a peer reset reads as [Eof]. *)
