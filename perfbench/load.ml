(* The real `pigeon serve` binary: spawn, warm, drive, reap.

   The daemon runs with one job. The load generator is this process:
   one thread per connection, each a closed loop that sends its next
   request only when the previous reply has arrived. Replies are kept
   and checked after the timed phase, so the generator does no parsing
   while the clock runs. *)

type daemon = { pid : int; sock : string }

(* Daemons not yet reaped; the exit hook below stops them even when a
   run fails with an exception or is interrupted. *)
let live : daemon list ref = ref []

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let t0 = Clock.now () in
    while (not (exited d.pid)) && Clock.since t0 < 10. do
      Thread.delay 0.005
    done;
    if not (exited d.pid) then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
    end;
    (* The daemon unlinks its socket on a clean stop; a killed one
       cannot. *)
    try Sys.remove d.sock with Sys_error _ -> ()
  end

let () = at_exit (fun () -> List.iter stop !live)

(* [models] = (registry name, model file); the first is the default. *)
let spawn ~pigeon ~dir ~models =
  let sock = Filename.concat dir "serve.sock" in
  let model_args =
    match models with
    | [] -> invalid_arg "Load.spawn: no model"
    | (_, default) :: named ->
        [ "--model"; default ]
        @ List.concat_map
            (fun (name, path) -> [ "--named-model"; name ^ "=" ^ path ])
            named
  in
  let argv =
    Array.of_list
      ((pigeon :: "serve" :: model_args) @ [ "--socket"; sock; "--jobs"; "1" ])
  in
  let log =
    Unix.openfile
      (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () -> Unix.create_process pigeon argv null log log)
  in
  let d = { pid; sock } in
  live := d :: !live;
  d

exception Daemon_failed of string

(* Connect as soon as the socket accepts; the daemon dying first is a
   failure, not a wait. *)
let connect d =
  let t0 = Clock.now () in
  let rec go () =
    match Serve.Client.connect_unix ~read_timeout:60. d.sock with
    | c -> c
    | exception
        Unix.Unix_error
          ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
        if exited d.pid then begin
          live := List.filter (fun x -> x != d) !live;
          raise (Daemon_failed "pigeon serve exited before listening")
        end;
        if Clock.since t0 > 60. then
          raise (Daemon_failed "pigeon serve did not listen within 60 s");
        Thread.delay 0.001;
        go ()
  in
  go ()

let request c line =
  match Serve.Client.request c line with
  | Some r -> r
  | None -> raise (Daemon_failed "pigeon serve closed the connection")

(* One record per request the timed phase sent. [reply] is [None] when
   the transport failed (that connection stops there). *)
type record = {
  conn : int;
  seq : int;  (** position in this connection's stream *)
  id : int;
  line : string;
  sent : float;  (** seconds from the start of the timed phase *)
  latency : float;  (** seconds, send to reply *)
  reply : string option;
}

(* Closed loop over [conns] connections for [seconds]: connection [c]
   sends [stream c j] (an id and a request line) for j = 0, 1, ...
   [at_end] runs while the connections (and their edit sessions) are
   still open. Returns the records in send order per connection, the
   wall time from start to the last reply, and [at_end]'s result. *)
let closed_loop d ~conns ~seconds ~stream ~at_end =
  let clients = Array.init conns (fun _ -> connect d) in
  let results = Array.make conns [] in
  let ends = Array.make conns 0L in
  let t_start = Clock.now () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let run c =
    let cl = clients.(c) in
    let rec loop j acc =
      if Int64.compare (Clock.now ()) deadline >= 0 then acc
      else
        let id, line = stream c j in
        let t0 = Clock.now () in
        match Serve.Client.request cl line with
        | reply ->
            let latency = Clock.since t0 in
            let sent = Clock.seconds t_start t0 in
            let r = { conn = c; seq = j; id; line; sent; latency; reply } in
            if reply = None then r :: acc else loop (j + 1) (r :: acc)
        | exception (Unix.Unix_error _ | Sys_error _ | End_of_file) ->
            { conn = c; seq = j; id; line; sent = Clock.seconds t_start t0;
              latency = Clock.since t0; reply = None }
            :: acc
    in
    results.(c) <- List.rev (loop 0 []);
    ends.(c) <- Clock.now ()
  in
  let threads = List.init conns (fun c -> Thread.create run c) in
  List.iter Thread.join threads;
  let t_end =
    Array.fold_left (fun a b -> if Int64.compare a b >= 0 then a else b) t_start ends
  in
  let extra = Fun.protect ~finally:(fun () -> Array.iter Serve.Client.close clients) at_end in
  (List.concat (Array.to_list results), Clock.seconds t_start t_end, extra)

(* The daemon's own counters, from the stats op. *)
type stats = {
  served : int;
  batches : int;
  max_batch : int;
  queue_hw : int;
  cache_hits : int;
  cache_misses : int;
}

let stats d =
  let c = connect d in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      let reply = request c (Inputs.stats_line ~id:(-1)) in
      let s =
        match Serve.Json.parse reply with
        | Ok j -> Serve.Json.member "stats" j
        | Error _ -> None
      in
      match s with
      | None -> raise (Daemon_failed ("bad stats reply: " ^ reply))
      | Some s ->
          let int k j = Option.value ~default:0 (Serve.Json.int_field k j) in
          let cache = Option.value ~default:Serve.Json.Null
              (Serve.Json.member "session_cache" s) in
          {
            served = int "served" s;
            batches = int "batches" s;
            max_batch = int "max_batch" s;
            queue_hw = int "queue_hw" s;
            cache_hits = int "hits" cache;
            cache_misses = int "misses" cache;
          })
