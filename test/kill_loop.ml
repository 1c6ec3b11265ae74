(* SIGKILL a process in the middle of saving: start save_loop.exe
   (built next to the test binaries) re-saving [src] to [dst], wait for
   its first complete save, give it [after] seconds into its save loop,
   then kill and reap it. [false] when the helper never got going. *)
let save_and_kill ~kind ~src ~dst ~after =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "save_loop.exe"
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; kind; src; dst |] Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let ready = match input_line ic with l -> l = "ready" | exception End_of_file -> false in
  close_in ic;
  ignore (Unix.select [] [] [] after);
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  ready
