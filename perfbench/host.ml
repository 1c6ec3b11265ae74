(* Provenance and host-noise record. Nothing here adjusts a metric:
   the steal ticks and the probe times are printed next to the result
   so a reader can tell a noisy host from a slow program. *)

(* Lines of a file; /proc files report length 0, so read line by line. *)
let read_lines path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
  | exception Sys_error _ -> []

(* Online CPUs of the machine (the run itself is pinned to one). *)
let nproc () =
  List.length
    (List.filter
       (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
       (read_lines "/proc/cpuinfo"))

(* The CPUs this process may run on, as /proc/self/status lists them. *)
let cpus_allowed () =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = "Cpus_allowed_list" ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")
  |> Option.value ~default:"unknown"

(* Aggregate CPU steal ticks (8th field of the "cpu" line). *)
let steal_ticks () =
  match read_lines "/proc/stat" with
  | l :: _ when String.length l > 4 && String.sub l 0 4 = "cpu " -> (
      let fields =
        String.split_on_char ' ' l |> List.filter (fun s -> s <> "")
      in
      match List.nth_opt fields 8 with
      | Some s -> Option.value ~default:0 (int_of_string_opt s)
      | None -> 0)
  | _ -> 0

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vm_hwm_mb pid =
  let prefix = "VmHWM:" in
  List.find_map
    (fun l ->
      if String.length l > 6 && String.sub l 0 6 = prefix then
        Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb ->
            kb /. 1024.)
      else None)
    (read_lines (Printf.sprintf "/proc/%d/status" pid))

(* A short fixed-work probe: an 8 MiB streaming pass plus an integer
   mixing loop, the same work every time. Its duration before and
   after the timed phase shows how fast the host was running. *)
let probe_buf = lazy (Bytes.make (8 * 1024 * 1024) '\001')

let probe () =
  let buf = Lazy.force probe_buf in
  let t0 = Clock.now () in
  let acc = ref 0 in
  for _ = 1 to 4 do
    let i = ref 0 in
    while !i < Bytes.length buf do
      acc := !acc + Char.code (Bytes.unsafe_get buf !i);
      i := !i + 64
    done
  done;
  let x = ref !acc in
  for k = 1 to 2_000_000 do
    x := (!x * 1103515245) + k land 0xFFFF
  done;
  let dt = Clock.since t0 in
  if !x = 42 then print_string "";
  dt

(* Read from the run directory only: an exported source tree has no
   .git and reports no commit. *)
let git_commit () =
  match read_lines ".git/HEAD" with
  | [] -> "unknown (not a git checkout)"
  | head :: _ ->
      let head = String.trim head in
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        match read_lines (".git/" ^ r) with
        | h :: _ -> String.trim h
        | [] -> "unknown (packed ref " ^ r ^ ")"
      else head
