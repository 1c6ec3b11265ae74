(* Socket plumbing shared by the server and client: EINTR-safe reads
   and writes, a bounded line reader with an optional idle timeout,
   and SIGPIPE suppression.

   A disconnecting client must never kill the daemon: SIGPIPE is
   ignored process-wide (writes then fail with EPIPE, which the server
   turns into "drop this connection"), and every syscall retries on
   EINTR so signal delivery (SIGCHLD in the CI harness, profiling
   timers) cannot surface as a spurious I/O error mid-request.

   Timeouts are select-based, so they work on blocking and
   non-blocking fds alike: before each potentially-blocking syscall we
   wait for readiness with a bounded select, and EAGAIN/EWOULDBLOCK
   from a non-blocking fd just loops back into the wait. A timeout on
   the read side surfaces as the [Timeout] line result (the connection
   is idle beyond its budget); on the write side it raises
   [Unix.Unix_error (ETIMEDOUT, …)] (the peer is not draining, which
   callers treat like a dead peer). *)

(* Monotonic seconds (arbitrary origin): deadlines and idle stamps
   read this, so a wall-clock step (NTP) neither fires nor stalls
   every timeout at once. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) ->
      (* No SIGPIPE on this platform: nothing to suppress. *)
      ()

(* [true] once [fd] is ready, [false] when [timeout] (seconds) elapsed
   first. [None] waits forever. The deadline is absolute, so EINTR
   wake-ups do not extend it. *)
let wait_ready ~write fd timeout =
  let fds = [ fd ] in
  let sel t =
    let r, w =
      if write then ([], fds) else (fds, [])
    in
    match Unix.select r w [] t with
    | [], [], _ -> false
    | _ -> true
  in
  match timeout with
  | None ->
      let rec forever () =
        match sel (-1.) with
        | ready -> ready || forever ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> forever ()
      in
      forever ()
  | Some tmo ->
      let deadline = now () +. tmo in
      let rec until () =
        let left = deadline -. now () in
        if left <= 0. then false
        else
          match sel left with
          | ready -> ready
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> until ()
      in
      until ()

let write_all ?timeout fd buf off len =
  let rec go off len =
    if len > 0 then begin
      (match timeout with
      | Some _ when not (wait_ready ~write:true fd timeout) ->
          raise (Unix.Unix_error (Unix.ETIMEDOUT, "write", ""))
      | _ -> ());
      match Unix.write fd buf off len with
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* Non-blocking fd raced past the readiness check (or no
             timeout was given and the fd is non-blocking): wait. *)
          if wait_ready ~write:true fd timeout then go off len
          else raise (Unix.Unix_error (Unix.ETIMEDOUT, "write", ""))
    end
  in
  go off len

(* One request or reply: the payload plus the terminating newline in a
   single buffer, so a line is one write call on the fast path. *)
let write_line ?timeout fd s =
  let len = String.length s in
  let b = Bytes.create (len + 1) in
  Bytes.blit_string s 0 b 0 len;
  Bytes.set b len '\n';
  write_all ?timeout fd b 0 (len + 1)

type line = Line of string | Eof | Overflow | Timeout

type line_reader = {
  fd : Unix.file_descr;
  max_line : int;
  idle_timeout : float option;
  chunk : Bytes.t;
  mutable pending : Buffer.t;  (** bytes read but not yet consumed *)
  mutable scanned : int;  (** prefix of [pending] known to be '\n'-free *)
}

let line_reader ?(max_line = 16 * 1024 * 1024) ?idle_timeout fd =
  let idle_timeout =
    match idle_timeout with Some t when t <= 0. -> None | t -> t
  in
  { fd; max_line; idle_timeout; chunk = Bytes.create 65536;
    pending = Buffer.create 4096; scanned = 0 }

type read_result = Read of int | Closed | Timed_out

(* One chunk of input, waiting at most the reader's idle budget for
   the first byte. The budget is per blocking wait: any arriving byte
   resets it, which is what "idle" means. *)
let read_some r =
  let rec go () =
    if not (wait_ready ~write:false r.fd r.idle_timeout) then Timed_out
    else
      match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 -> Closed
      | n -> Read n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          go ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
          (* A vanished peer reads as end-of-stream, not as an error. *)
          Closed
  in
  go ()

(* Pull the next newline-terminated line (without its '\n'; a final
   unterminated line before EOF counts as a line). [Overflow] when a
   single line exceeds [max_line] — the stream is no longer in sync
   with line framing at that point, so callers must answer once (at
   most) and close; further calls keep returning [Overflow]. [Timeout]
   when the connection stayed silent beyond the idle budget (possibly
   mid-line: a slow-writer peer does not get to park a reader forever
   by trickling bytes — each wait is bounded). *)
let read_line r =
  let take_line nl =
    let all = Buffer.contents r.pending in
    let line = String.sub all 0 nl in
    let rest = Buffer.create 4096 in
    (* nl = length means an unterminated final line: nothing left over. *)
    if nl + 1 < String.length all then
      Buffer.add_substring rest all (nl + 1) (String.length all - nl - 1);
    r.pending <- rest;
    r.scanned <- 0;
    Line line
  in
  let rec scan () =
    let all = Buffer.contents r.pending in
    match String.index_from_opt all r.scanned '\n' with
    | Some nl -> take_line nl
    | None ->
        r.scanned <- String.length all;
        if r.scanned > r.max_line then Overflow
        else begin
          match read_some r with
          | Timed_out -> Timeout
          | Closed ->
              if Buffer.length r.pending = 0 then Eof
              else take_line (Buffer.length r.pending)
          | Read n ->
              Buffer.add_subbytes r.pending r.chunk 0 n;
              scan ()
        end
  in
  scan ()
