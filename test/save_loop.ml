(* Test helper: saves a CRF model or training checkpoint over and over,
   so a test can SIGKILL it in the middle of a write.

     save_loop.exe (model | checkpoint) SRC DST

   Loads SRC once, saves it to DST, prints "ready" once that first save
   has landed, then keeps saving to DST until killed. A process of its
   own rather than [Unix.fork]: OCaml 5 refuses to fork a process that
   has already spawned domains, as every test binary using the shared
   pool has. *)

let () =
  let kind, src, dst =
    match Sys.argv with
    | [| _; kind; src; dst |] -> (kind, src, dst)
    | _ ->
        prerr_endline "usage: save_loop.exe (model | checkpoint) SRC DST";
        exit 2
  in
  let fail d =
    Format.eprintf "save_loop: %a@." Lexkit.Diag.pp d;
    exit 1
  in
  let save =
    match kind with
    | "model" -> (
        match Crf.Serialize.load src with
        | Ok m -> fun () -> Crf.Serialize.save m dst
        | Error d -> fail d)
    | "checkpoint" -> (
        match Crf.Serialize.checkpoint_load src with
        | Ok ck ->
            fun () ->
              Crf.Serialize.checkpoint_save dst ~config:ck.Crf.Serialize.ck_config
                ~next_it:ck.Crf.Serialize.ck_next_it
                ~next_shard:ck.Crf.Serialize.ck_next_shard
                ~n_shards:ck.Crf.Serialize.ck_n_shards
                ~jobs:ck.Crf.Serialize.ck_jobs ck.Crf.Serialize.ck_fast
        | Error d -> fail d)
    | _ ->
        prerr_endline "save_loop: KIND is model or checkpoint";
        exit 2
  in
  save ();
  print_endline "ready";
  while true do
    save ()
  done
