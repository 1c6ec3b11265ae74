(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, request id). Spans are recorded
   around the benchmark's own calls into each layer's public functions
   -- never inside the program -- kept in a growable array, and written
   out as JSON lines when the run ends. The recorder is single-threaded:
   the traced replays run on the benchmark's main thread.

   When [enabled] is false, [span] is a plain call: the untraced replay
   and every end-to-end measurement run with it off. *)

type span = {
  name : string;
  start : int64;
  mutable stop : int64;
  parent : int;  (** index of the enclosing span, -1 for a root *)
  req : int;  (** request (or phase) id shared by one request's spans *)
}

let enabled = ref false
let spans : span array ref = ref [||]
let count = ref 0
let open_stack : int list ref = ref []

let clear () =
  spans := [||];
  count := 0;
  open_stack := []

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let span ?req name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_stack with i :: _ -> i | [] -> -1 in
    let req =
      match req with
      | Some r -> r
      | None -> if parent >= 0 then !spans.(parent).req else -1
    in
    let i = push { name; start = Clock.now (); stop = 0L; parent; req } in
    open_stack := i :: !open_stack;
    let finish () =
      !spans.(i).stop <- Clock.now ();
      open_stack := List.tl !open_stack
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let duration s = Clock.seconds s.start s.stop

(* Summed duration (s) of every span named [name]. *)
let total name =
  let acc = ref 0. in
  for i = 0 to !count - 1 do
    if !spans.(i).name = name then acc := !acc +. duration !spans.(i)
  done;
  !acc

(* Summed self time (s) of every span named [name]: its duration minus
   the part its direct children cover (children never overlap: one
   thread). *)
let self_time name =
  let acc = ref (total name) in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 && !spans.(s.parent).name = name then
      acc := !acc -. duration s
  done;
  !acc

(* Inclusive duration of every span named [name], keyed by request id. *)
let by_request name =
  let tbl = Hashtbl.create 256 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.name = name then
      Hashtbl.replace tbl s.req
        (duration s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.req))
  done;
  tbl

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to !count - 1 do
        let s = !spans.(i) in
        Printf.fprintf oc
          "{\"i\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"req\":%d}\n"
          i s.name s.start s.stop s.parent s.req
      done)
