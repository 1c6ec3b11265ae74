(* Version 4 (what [save] writes) is binary and mappable: the text
   magic line "pigeon-w2v-model 4\n", then length-prefixed sections
   (tag byte, payload length, payload — see {!Lexkit.Binio}):

     1 config        dim, epochs, negatives, raw LE float lr,
                     min_count, seed
     2 words         count, (string, count) in vocab-id order
   254 pad           0-7 zero bytes, emitted before each matrix
                     section so its float run (payload offset 16)
                     lands 8-byte aligned in the file
     3 word-vecs     rows, dim, raw LE floats row-major
     4 contexts      count, (string, count)
   254 pad
     5 context-vecs  rows, dim, raw floats
   255 end           section count (pads included), then per section
                     in file order: tag byte, FNV checksum of its
                     payload

   Per-section checksums let the mapped loader verify everything it
   copies eagerly and defer the (page-faulting) matrix checks until
   first use. Everything is emitted in vocab-id order and pads are
   deterministic, so the writer is a canonical form: save → load →
   save round-trips byte-identically.

   Version 3 is the same minus pads, with a single whole-body checksum
   in the end section. Versions 1 and 2 are line-oriented text in the
   word2vec conventions ("w <escaped-token> <count> <floats...>";
   version 2 adds an "end <record-count>" trailer). All still load,
   as heap copies. *)

let format_version = 4
let magic v = Printf.sprintf "pigeon-w2v-model %d" v

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' | '%' ->
          Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match
       if s.[!i] = '%' && !i + 2 < n then
         int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2)
       else None
     with
    | Some c ->
        Buffer.add_char buf (Char.chr c);
        i := !i + 3
    | None ->
        Buffer.add_char buf s.[!i];
        incr i)
  done;
  Buffer.contents buf

(* Version-2 text writer, kept for compatibility fixtures. *)
let to_channel_v2 (m : Sgns.t) oc =
  let records = ref 0 in
  let p fmt =
    incr records;
    Printf.fprintf oc fmt
  in
  let write_matrix tag vocab vecs =
    Array.iteri
      (fun i v ->
        incr records;
        Printf.fprintf oc "%s %s %d" tag
          (escape (Vocab.word vocab i))
          (Vocab.count vocab i);
        Array.iter (fun x -> Printf.fprintf oc " %.9g" x) v;
        output_char oc '\n')
      vecs
  in
  Printf.fprintf oc "%s\n" (magic 2);
  let c = m.Sgns.config in
  p "config %d %d %d %.17g %d %d\n" c.Sgns.dim c.Sgns.epochs c.Sgns.negatives
    c.Sgns.learning_rate c.Sgns.min_count c.Sgns.seed;
  p "words %d\n" (Vocab.size m.Sgns.words);
  write_matrix "w" m.Sgns.words m.Sgns.word_vecs;
  p "contexts %d\n" (Vocab.size m.Sgns.contexts);
  write_matrix "c" m.Sgns.contexts m.Sgns.context_vecs;
  Printf.fprintf oc "end %d\n" !records

let n_sections = 5
let pad_tag = 254

(* Version-3 binary writer, kept so the loaders' v3 compatibility path
   stays testable against freshly written files. *)
let to_string_v3 (m : Sgns.t) =
  let open Lexkit.Binio in
  let buf = Buffer.create (1 lsl 16) in
  let section tag fill =
    let payload = Buffer.create 1024 in
    fill payload;
    w_section buf ~tag payload
  in
  let c = m.Sgns.config in
  section 1 (fun b ->
      w_int b c.Sgns.dim;
      w_int b c.Sgns.epochs;
      w_int b c.Sgns.negatives;
      w_float b c.Sgns.learning_rate;
      w_int b c.Sgns.min_count;
      w_int b c.Sgns.seed);
  let vocab_section tag vocab =
    section tag (fun b ->
        let n = Vocab.size vocab in
        w_int b n;
        for i = 0 to n - 1 do
          w_string b (Vocab.word vocab i);
          w_int b (Vocab.count vocab i)
        done)
  in
  let matrix_section tag vecs =
    section tag (fun b ->
        let rows = Array.length vecs in
        w_int b rows;
        w_int b (if rows = 0 then c.Sgns.dim else Array.length vecs.(0));
        Array.iter (fun row -> Array.iter (w_float b) row) vecs)
  in
  vocab_section 2 m.Sgns.words;
  matrix_section 3 m.Sgns.word_vecs;
  vocab_section 4 m.Sgns.contexts;
  matrix_section 5 m.Sgns.context_vecs;
  let body = Buffer.contents buf in
  let out = Buffer.create (String.length body + 64) in
  Buffer.add_string out (magic 3);
  Buffer.add_char out '\n';
  Buffer.add_string out body;
  let trailer = Buffer.create 24 in
  w_int trailer n_sections;
  w_int trailer (checksum body);
  w_section out ~tag:255 trailer;
  Buffer.contents out

let to_string (m : Sgns.t) =
  let open Lexkit.Binio in
  let buf = Buffer.create (1 lsl 16) in
  let magic_len = String.length (magic format_version) + 1 in
  let sums = ref [] in
  let section tag fill =
    let payload = Buffer.create 1024 in
    fill payload;
    sums := (tag, checksum (Buffer.contents payload)) :: !sums;
    w_section buf ~tag payload
  in
  (* Pad so the next section's payload starts 8-byte aligned in the
     file (see the CRF writer): with [pos] the pad header's absolute
     offset, the next payload starts at pos + 9 + p + 9. The matrix
     float run sits at payload offset 16, which preserves 8-alignment. *)
  let align () =
    let pos = magic_len + Buffer.length buf in
    let p = (8 - ((pos + 18) mod 8)) mod 8 in
    section pad_tag (fun b ->
        for _ = 1 to p do
          w_u8 b 0
        done)
  in
  let c = m.Sgns.config in
  section 1 (fun b ->
      w_int b c.Sgns.dim;
      w_int b c.Sgns.epochs;
      w_int b c.Sgns.negatives;
      w_float b c.Sgns.learning_rate;
      w_int b c.Sgns.min_count;
      w_int b c.Sgns.seed);
  let vocab_section tag vocab =
    section tag (fun b ->
        let n = Vocab.size vocab in
        w_int b n;
        for i = 0 to n - 1 do
          w_string b (Vocab.word vocab i);
          w_int b (Vocab.count vocab i)
        done)
  in
  let matrix_section tag vecs =
    align ();
    section tag (fun b ->
        let rows = Array.length vecs in
        w_int b rows;
        w_int b (if rows = 0 then c.Sgns.dim else Array.length vecs.(0));
        Array.iter (fun row -> Array.iter (w_float b) row) vecs)
  in
  vocab_section 2 m.Sgns.words;
  matrix_section 3 m.Sgns.word_vecs;
  vocab_section 4 m.Sgns.contexts;
  matrix_section 5 m.Sgns.context_vecs;
  let out = Buffer.create (Buffer.length buf + 128) in
  Buffer.add_string out (magic format_version);
  Buffer.add_char out '\n';
  Buffer.add_buffer out buf;
  let entries = List.rev !sums in
  let trailer = Buffer.create 128 in
  w_int trailer (List.length entries);
  List.iter
    (fun (tag, sum) ->
      w_u8 trailer tag;
      w_int trailer sum)
    entries;
  w_section out ~tag:255 trailer;
  Buffer.contents out

let to_channel m oc = output_string oc (to_string m)

let corrupt ?source fmt =
  Format.kasprintf
    (fun msg ->
      raise
        (Lexkit.Diag.Error
           (Lexkit.Diag.make ?file:source Lexkit.Diag.Corrupt_model msg)))
    fmt

let count_ what n =
  if n < 0 then Printf.ksprintf failwith "%s: negative count" what;
  n

(* ---------- shared section-payload parsers ---------- *)

let read_config r =
  let open Lexkit.Binio in
  let dim = r_int r "dim" in
  let epochs = r_int r "epochs" in
  let negatives = r_int r "negatives" in
  let learning_rate = r_float r "learning_rate" in
  let min_count = r_int r "min_count" in
  let seed = r_int r "seed" in
  let config = { Sgns.dim; epochs; negatives; learning_rate; min_count; seed } in
  Option.iter (fun msg -> failwith ("config: " ^ msg)) (Sgns.config_error config);
  config

let read_vocab r what =
  let open Lexkit.Binio in
  let n = count_ what (r_int r what) in
  let items =
    List.init n (fun _ ->
        let w = r_string r what in
        (w, r_int r what))
  in
  Vocab.of_items items

(* Shared sanity checks for a matrix header: [avail] is the byte count
   actually present after the rows/dim words, so a hostile dim fails
   as a size mismatch, not as an uncatchable Out_of_memory. *)
let check_matrix_header ~what ~config ~vocab ~rows ~dim ~avail =
  if rows <> Vocab.size vocab then
    Printf.ksprintf failwith "%s: %d rows for a vocabulary of %d" what rows
      (Vocab.size vocab);
  if dim <> config.Sgns.dim then
    Printf.ksprintf failwith "%s: bad vector size (%d, expected %d)" what dim
      config.Sgns.dim;
  if
    (if rows = 0 then avail <> 0
     else dim > avail / 8 / rows || avail <> 8 * rows * dim)
  then
    Printf.ksprintf failwith "%s: %dx%d matrix does not match the file" what
      rows dim

(* [body] is everything after the magic line; failures carry a byte
   offset and surface as [Corrupt_model] diagnostics. *)
let parse_v3 ?source body =
  match
    let open Lexkit.Binio in
    let r = reader body in
    let sect tag what fill =
      let stop = r_section r ~tag ~what in
      let v = fill stop in
      end_section r ~stop ~what;
      v
    in
    let config = sect 1 "config" (fun _ -> read_config r) in
    let matrix tag what vocab =
      sect tag what (fun stop ->
          let rows = count_ what (r_int r what) in
          let dim = r_int r what in
          check_matrix_header ~what ~config ~vocab ~rows ~dim
            ~avail:(stop - offset r);
          Array.init rows (fun _ ->
              Array.init dim (fun _ -> r_float r what)))
    in
    let words = sect 2 "words" (fun _ -> read_vocab r "words") in
    let word_vecs = matrix 3 "word-vecs" words in
    let contexts = sect 4 "contexts" (fun _ -> read_vocab r "contexts") in
    let context_vecs = matrix 5 "context-vecs" contexts in
    let body_len = offset r in
    sect 255 "end" (fun _ ->
        let n = r_int r "section count" in
        if n <> n_sections then
          Printf.ksprintf failwith
            "section count mismatch: trailer says %d, format has %d" n
            n_sections;
        let sum = r_int r "checksum" in
        if sum <> checksum (String.sub body 0 body_len) then
          failwith "checksum mismatch: model data is corrupted");
    if not (at_end r) then failwith "trailing data after the model";
    { Sgns.config; words; contexts; word_vecs; context_vecs }
  with
  | m -> m
  | exception (Failure msg | Invalid_argument msg) ->
      corrupt ?source "corrupt binary model: %s" msg

(* The v4 copy parser — same result as the mapped loader, every
   payload on the heap. *)
let parse_v4 ?source body =
  match
    let open Lexkit.Binio in
    let r = reader body in
    let sums = ref [] in
    let sect tag what fill =
      let stop = r_section r ~tag ~what in
      let start = offset r in
      let v = fill stop in
      end_section r ~stop ~what;
      sums := (tag, checksum (String.sub body start (stop - start))) :: !sums;
      v
    in
    let pad what =
      sect pad_tag what (fun stop ->
          let n = stop - offset r in
          if n > 7 then
            Printf.ksprintf failwith "%s: oversized pad (%d bytes)" what n;
          r_skip r n what)
    in
    let config = sect 1 "config" (fun _ -> read_config r) in
    let matrix tag what vocab =
      pad (what ^ " pad");
      sect tag what (fun stop ->
          let rows = count_ what (r_int r what) in
          let dim = r_int r what in
          check_matrix_header ~what ~config ~vocab ~rows ~dim
            ~avail:(stop - offset r);
          Array.init rows (fun _ ->
              Array.init dim (fun _ -> r_float r what)))
    in
    let words = sect 2 "words" (fun _ -> read_vocab r "words") in
    let word_vecs = matrix 3 "word-vecs" words in
    let contexts = sect 4 "contexts" (fun _ -> read_vocab r "contexts") in
    let context_vecs = matrix 5 "context-vecs" contexts in
    let stop = r_section r ~tag:255 ~what:"end" in
    let entries = List.rev !sums in
    let n = r_int r "section count" in
    if n <> List.length entries then
      Printf.ksprintf failwith
        "section count mismatch: trailer says %d, file has %d" n
        (List.length entries);
    List.iter
      (fun (tag, sum) ->
        let t = r_u8 r "trailer tag" in
        let s = r_int r "trailer checksum" in
        if t <> tag then
          Printf.ksprintf failwith
            "trailer tag mismatch: file section %d recorded as %d" tag t;
        if s <> sum then
          Printf.ksprintf failwith
            "checksum mismatch in section %d: model data is corrupted" tag)
      entries;
    end_section r ~stop ~what:"end";
    if not (at_end r) then failwith "trailing data after the model";
    { Sgns.config; words; contexts; word_vecs; context_vecs }
  with
  | m -> m
  | exception (Failure msg | Invalid_argument msg) ->
      corrupt ?source "corrupt binary model: %s" msg

(* Parse from a [next_line] pull function so channels and in-memory
   strings (the fuzz suite) share one code path. Every malformed input
   raises [Lexkit.Diag.Error] with kind [Corrupt_model] and the
   offending line number. *)
let parse ?source next_line =
  let line_no = ref 0 in
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        raise
          (Lexkit.Diag.Error
             (Lexkit.Diag.make ?file:source
                ~pos:{ Lexkit.line = !line_no; col = 1; offset = 0 }
                Lexkit.Diag.Corrupt_model msg)))
      fmt
  in
  let records = ref 0 in
  let read () =
    incr line_no;
    match next_line () with
    | Some l -> l
    | None -> fail "unexpected end of file"
  in
  let record () =
    incr records;
    read ()
  in
  let int_ s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail "malformed integer %S" s
  in
  let float_ s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail "malformed float %S" s
  in
  let version =
    match read () with
    | l when String.equal l (magic 1) -> 1
    | l when String.equal l (magic 2) -> 2
    | _ -> fail "bad magic (not a pigeon-w2v-model file)"
  in
  let config =
    match String.split_on_char ' ' (record ()) with
    | [ "config"; dim; ep; neg; lr; mc; seed ] ->
        {
          Sgns.dim = int_ dim;
          epochs = int_ ep;
          negatives = int_ neg;
          learning_rate = float_ lr;
          min_count = int_ mc;
          seed = int_ seed;
        }
    | _ -> fail "bad config record"
  in
  Option.iter (fail "config: %s") (Sgns.config_error config);
  let read_matrix tag header =
    let n =
      match String.split_on_char ' ' (record ()) with
      | [ h; n ] when String.equal h header -> int_ n
      | _ -> fail "expected %S record" header
    in
    if n < 0 then fail "negative %s count" header;
    let entries =
      List.init n (fun _ ->
          match String.split_on_char ' ' (record ()) with
          | t :: tok :: count :: rest when String.equal t tag ->
              let vec = Array.of_list (List.map float_ rest) in
              if Array.length vec <> config.Sgns.dim then
                fail "bad vector size (%d, expected %d)" (Array.length vec)
                  config.Sgns.dim;
              (unescape tok, int_ count, vec)
          | _ -> fail "bad %S record" tag)
    in
    let vocab =
      match Vocab.of_items (List.map (fun (tok, c, _) -> (tok, c)) entries) with
      | v -> v
      | exception Invalid_argument msg -> fail "%s" msg
    in
    (vocab, Array.of_list (List.map (fun (_, _, v) -> v) entries))
  in
  let words, word_vecs = read_matrix "w" "words" in
  let contexts, context_vecs = read_matrix "c" "contexts" in
  (if version >= 2 then
     match String.split_on_char ' ' (read ()) with
     | [ "end"; n ] ->
         let n = int_ n in
         if n <> !records then
           fail "record count mismatch: trailer says %d, file has %d" n !records
     | _ -> fail "truncated model: missing \"end\" trailer");
  (* Nothing but blank lines may follow. *)
  let rec drain () =
    match next_line () with
    | None -> ()
    | Some l ->
        incr line_no;
        if not (String.equal (String.trim l) "") then
          fail "trailing data after the model";
        drain ()
  in
  drain ();
  { Sgns.config; words; contexts; word_vecs; context_vecs }

(* The magic line picks the parser: versions 3 and 4 are binary (they
   cannot be split on newlines), versions 1 and 2 are line-oriented
   text. *)
let parse_string ?source s =
  let nl = match String.index_opt s '\n' with Some i -> i | None -> String.length s in
  let head = String.sub s 0 nl in
  let body () =
    if nl >= String.length s then ""
    else String.sub s (nl + 1) (String.length s - nl - 1)
  in
  if String.equal head (magic 4) then parse_v4 ?source (body ())
  else if String.equal head (magic 3) then parse_v3 ?source (body ())
  else
    let rest = ref (String.split_on_char '\n' s) in
    let next () =
      match !rest with
      | [] -> None
      | l :: tl ->
          rest := tl;
          Some l
    in
    parse ?source next

let from_channel ?source ic = parse_string ?source (In_channel.input_all ic)

let of_string ?source s =
  Lexkit.protect ?file:source (fun () -> parse_string ?source s)

(* Temp-file + rename: a save interrupted at any point (crash, kill,
   full disk) can never leave a truncated model where the next daemon
   start would trip over it. *)
let save m path = Lexkit.write_file_atomic path (to_string m)

let load path =
  match open_in_bin path with
  | exception Sys_error msg ->
      Result.Error (Lexkit.Diag.make ~file:path Lexkit.Diag.Io_error msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          Lexkit.protect ~file:path (fun () -> from_channel ~source:path ic))

let load_exn path =
  match load path with
  | Ok m -> m
  | Error d -> raise (Lexkit.Diag.Error d)

(* ---------- training checkpoints ----------

   "pigeon-w2v-checkpoint 1\n", then v3-style sections with one
   whole-body checksum (checkpoints are transient — nothing maps
   them):

     1 header   config as in the model format, then the resume cursor:
                next_epoch, next_shard, jobs, and the shard layout
                (count, pairs-per-shard ints)
     2 words    count, (string, count) in vocab-id order
     3 w        rows, dim, raw LE floats (the flat training matrix)
     4 contexts 5 c    same pair for the context side
   255 end      section count, FNV checksum of the body

   Floats are raw bits, so restore → continue is bit-exact. *)

let ckpt_magic = "pigeon-w2v-checkpoint 1"
let ckpt_sections = 6

let checkpoint_to_string (ck : Sgns.ckpt) =
  let open Lexkit.Binio in
  let buf = Buffer.create (1 lsl 16) in
  let section tag fill =
    let payload = Buffer.create 1024 in
    fill payload;
    w_section buf ~tag payload
  in
  let c = ck.Sgns.ck_config in
  section 1 (fun b ->
      w_int b c.Sgns.dim;
      w_int b c.Sgns.epochs;
      w_int b c.Sgns.negatives;
      w_float b c.Sgns.learning_rate;
      w_int b c.Sgns.min_count;
      w_int b c.Sgns.seed;
      w_int b ck.Sgns.ck_next_epoch;
      w_int b ck.Sgns.ck_next_shard;
      w_int b ck.Sgns.ck_jobs;
      w_int b (Array.length ck.Sgns.ck_shard_sizes);
      Array.iter (w_int b) ck.Sgns.ck_shard_sizes);
  let vocab_section tag vocab =
    section tag (fun b ->
        let n = Vocab.size vocab in
        w_int b n;
        for i = 0 to n - 1 do
          w_string b (Vocab.word vocab i);
          w_int b (Vocab.count vocab i)
        done)
  in
  let matrix_section tag fa rows =
    section tag (fun b ->
        w_int b rows;
        w_int b c.Sgns.dim;
        Float.Array.iter (w_float b) fa)
  in
  vocab_section 2 ck.Sgns.ck_words;
  matrix_section 3 ck.Sgns.ck_w (Vocab.size ck.Sgns.ck_words);
  vocab_section 4 ck.Sgns.ck_contexts;
  matrix_section 5 ck.Sgns.ck_c (Vocab.size ck.Sgns.ck_contexts);
  let body = Buffer.contents buf in
  let out = Buffer.create (String.length body + 64) in
  Buffer.add_string out ckpt_magic;
  Buffer.add_char out '\n';
  Buffer.add_string out body;
  let trailer = Buffer.create 24 in
  w_int trailer ckpt_sections;
  w_int trailer (checksum body);
  w_section out ~tag:255 trailer;
  Buffer.contents out

let checkpoint_save path ck =
  Lexkit.write_file_atomic path (checkpoint_to_string ck)

let parse_checkpoint ?source body =
  match
    let open Lexkit.Binio in
    let r = reader body in
    let sect tag what fill =
      let stop = r_section r ~tag ~what in
      let v = fill stop in
      end_section r ~stop ~what;
      v
    in
    let config, next_epoch, next_shard, jobs, shard_sizes =
      sect 1 "header" (fun stop ->
          let config = read_config r in
          let next_epoch = r_int r "next_epoch" in
          let next_shard = r_int r "next_shard" in
          let jobs = r_int r "jobs" in
          let n_shards = count_ "shard count" (r_int r "shard count") in
          if n_shards > (stop - offset r) / 8 then
            failwith "shard layout does not fit the header";
          let shard_sizes =
            Array.init n_shards (fun _ -> r_int r "shard size")
          in
          Array.iter
            (fun s -> if s < 0 then failwith "negative shard size")
            shard_sizes;
          if n_shards = 0 then failwith "empty shard layout";
          if next_shard < 0 || next_shard >= n_shards then
            Printf.ksprintf failwith "shard cursor %d outside [0, %d)"
              next_shard n_shards;
          if next_epoch < 0 || next_epoch > config.Sgns.epochs then
            Printf.ksprintf failwith "epoch cursor %d outside [0, %d]"
              next_epoch config.Sgns.epochs;
          if jobs <= 0 then failwith "non-positive job count";
          (config, next_epoch, next_shard, jobs, shard_sizes))
    in
    let matrix tag what vocab =
      sect tag what (fun stop ->
          let rows = count_ what (r_int r what) in
          let dim = r_int r what in
          check_matrix_header ~what ~config ~vocab ~rows ~dim
            ~avail:(stop - offset r);
          Float.Array.init (rows * dim) (fun _ -> r_float r what))
    in
    let words = sect 2 "words" (fun _ -> read_vocab r "words") in
    let w = matrix 3 "w" words in
    let contexts = sect 4 "contexts" (fun _ -> read_vocab r "contexts") in
    let c = matrix 5 "c" contexts in
    let body_len = offset r in
    sect 255 "end" (fun _ ->
        let n = r_int r "section count" in
        if n <> ckpt_sections then
          Printf.ksprintf failwith
            "section count mismatch: trailer says %d, format has %d" n
            ckpt_sections;
        let sum = r_int r "checksum" in
        if sum <> checksum (String.sub body 0 body_len) then
          failwith "checksum mismatch: checkpoint data is corrupted");
    if not (at_end r) then failwith "trailing data after the checkpoint";
    {
      Sgns.ck_config = config;
      ck_words = words;
      ck_contexts = contexts;
      ck_w = w;
      ck_c = c;
      ck_next_epoch = next_epoch;
      ck_next_shard = next_shard;
      ck_shard_sizes = shard_sizes;
      ck_jobs = jobs;
    }
  with
  | ck -> ck
  | exception (Failure msg | Invalid_argument msg) ->
      corrupt ?source "corrupt checkpoint: %s" msg

let checkpoint_of_string ?source s =
  Lexkit.protect ?file:source (fun () ->
      let nl =
        match String.index_opt s '\n' with
        | Some i -> i
        | None -> String.length s
      in
      if not (String.equal (String.sub s 0 nl) ckpt_magic) then
        corrupt ?source "bad magic (not a pigeon-w2v-checkpoint file)";
      let body =
        if nl >= String.length s then ""
        else String.sub s (nl + 1) (String.length s - nl - 1)
      in
      parse_checkpoint ?source body)

let checkpoint_load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      Result.Error (Lexkit.Diag.make ~file:path Lexkit.Diag.Io_error msg)
  | s -> checkpoint_of_string ~source:path s

(* ---------- mapped loading ----------

   Mirrors {!Crf.Serialize.load_mapped}: the structure walk reads
   config, vocabularies and the checksum trailer through the channel,
   skips the matrix float runs with [seek_in], then maps the file once
   and wires each matrix to a [Sgns.Mat] view with a lazy verify
   closure. The matrices are the bulk of a trained model, so a load is
   O(vocabulary). *)

exception Downgrade of string

type matrix_walk = {
  x_what : string;
  x_rows : int;
  x_dim : int;
  x_prefix : int;  (* checksum over the rows/dim words *)
  x_off : int;  (* absolute byte offset of the float run *)
  mutable x_expect : int;
}

type w2v_walk = Full of string * int | Msec of matrix_walk

let map_v4 path ic size =
  let open Lexkit.Binio in
  let ch_bytes n what =
    if n < 0 || n > size - pos_in ic then
      Printf.ksprintf failwith "truncated at byte %d (%s)" (pos_in ic) what;
    really_input_string ic n
  in
  let ch_u8 what = Char.code (ch_bytes 1 what).[0] in
  let ch_int what =
    let s = ch_bytes 8 what in
    let v = String.get_int64_le s 0 in
    let n = Int64.to_int v in
    if Int64.of_int n <> v then
      Printf.ksprintf failwith "integer out of range at byte %d (%s)"
        (pos_in ic - 8) what;
    n
  in
  let header what =
    let tag = ch_u8 what in
    let len = ch_int what in
    if len < 0 || len > size - pos_in ic then
      Printf.ksprintf failwith "truncated at byte %d (%s)" (pos_in ic) what;
    (tag, len)
  in
  let walk = ref [] in
  let small tag what parse =
    let t, len = header what in
    if t <> tag then
      Printf.ksprintf failwith "expected section %d (%s), found %d at byte %d"
        tag what t
        (pos_in ic - 9);
    let payload = ch_bytes len what in
    walk := (tag, Full (what, checksum payload)) :: !walk;
    let r = reader payload in
    let v = parse r in
    if not (at_end r) then
      Printf.ksprintf failwith
        "section %s length mismatch: payload ends at byte %d, header said %d"
        what (offset r) len;
    v
  in
  let pad what =
    let t, len = header what in
    if t <> pad_tag then
      Printf.ksprintf failwith "expected pad section before %s, found %d" what
        t;
    if len > 7 then
      Printf.ksprintf failwith "%s: oversized pad (%d bytes)" what len;
    let payload = ch_bytes len what in
    walk := (pad_tag, Full (what ^ " pad", checksum payload)) :: !walk
  in
  let msect tag what ~config ~vocab =
    pad what;
    let t, len = header what in
    if t <> tag then
      Printf.ksprintf failwith "expected section %d (%s), found %d at byte %d"
        tag what t
        (pos_in ic - 9);
    let head_bytes = ch_bytes 16 what in
    let word i = Int64.to_int (String.get_int64_le head_bytes (8 * i)) in
    let rows = count_ what (word 0) in
    let dim = word 1 in
    check_matrix_header ~what ~config ~vocab ~rows ~dim ~avail:(len - 16);
    let prefix = checksum_add checksum_seed head_bytes in
    let off = pos_in ic in
    if off mod 8 <> 0 then
      raise (Downgrade (Printf.sprintf "%s float payload misaligned" what));
    seek_in ic (off + (8 * rows * dim));
    let x =
      { x_what = what; x_rows = rows; x_dim = dim; x_prefix = prefix;
        x_off = off; x_expect = 0 }
    in
    walk := (tag, Msec x) :: !walk;
    x
  in
  let config = small 1 "config" read_config in
  let words = small 2 "words" (fun r -> read_vocab r "words") in
  let wm = msect 3 "word-vecs" ~config ~vocab:words in
  let contexts = small 4 "contexts" (fun r -> read_vocab r "contexts") in
  let cm = msect 5 "context-vecs" ~config ~vocab:contexts in
  let t, len = header "end" in
  if t <> 255 then
    Printf.ksprintf failwith "expected end section, found %d" t;
  let payload = ch_bytes len "end" in
  if pos_in ic <> size then failwith "trailing data after the model";
  let r = reader payload in
  let entries = List.rev !walk in
  let n = r_int r "section count" in
  if n <> List.length entries then
    Printf.ksprintf failwith
      "section count mismatch: trailer says %d, file has %d" n
      (List.length entries);
  List.iter
    (fun (tag, entry) ->
      let t = r_u8 r "trailer tag" in
      let sum = r_int r "trailer checksum" in
      if t <> tag then
        Printf.ksprintf failwith
          "trailer tag mismatch: file section %d recorded as %d" tag t;
      match entry with
      | Full (what, s) ->
          if s <> sum then
            Printf.ksprintf failwith
              "checksum mismatch in section %s: model data is corrupted" what
      | Msec x -> x.x_expect <- sum)
    entries;
  if not (at_end r) then failwith "trailing data in the end section";
  let mm =
    try Lexkit.Mmap.map_floats path
    with Unix.Unix_error (e, _, _) ->
      raise (Downgrade (Printf.sprintf "mmap failed: %s" (Unix.error_message e)))
  in
  let mat x =
    let n = x.x_rows * x.x_dim in
    let vals = Lexkit.Mmap.sub mm ~off_bytes:x.x_off ~len:n in
    let expect = x.x_expect and what = x.x_what and prefix = x.x_prefix in
    let verify () =
      let sum = Lexkit.Mmap.checksum_floats ~h:prefix vals ~off:0 ~len:n in
      if sum <> expect then
        raise
          (Lexkit.Diag.Error
             (Lexkit.Diag.make ~file:path Lexkit.Diag.Corrupt_model
                (Printf.sprintf
                   "checksum mismatch in section %s: mapped model data is corrupted"
                   what)))
    in
    Sgns.Mat.of_mapped ~vals ~rows:x.x_rows ~dim:x.x_dim ~verify
  in
  let view =
    {
      Sgns.v_config = config;
      v_words = words;
      v_contexts = contexts;
      v_word_vecs = mat wm;
      v_context_vecs = mat cm;
    }
  in
  (view, Lexkit.Mmap.size mm)

let load_mapped path =
  match open_in_bin path with
  | exception Sys_error msg ->
      Result.Error (Lexkit.Diag.make ~file:path Lexkit.Diag.Io_error msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          Lexkit.protect ~file:path (fun () ->
              let size = in_channel_length ic in
              let head =
                let want = magic format_version ^ "\n" in
                let n = String.length want in
                if size >= n && String.equal (really_input_string ic n) want
                then Some ()
                else None
              in
              let fallback note =
                seek_in ic 0;
                ( Sgns.view_of (from_channel ~source:path ic),
                  Lexkit.Storage.Heap { note = Some note } )
              in
              match head with
              | Some () when not Sys.big_endian -> (
                  match map_v4 path ic size with
                  | view, bytes -> (view, Lexkit.Storage.Mapped { bytes })
                  | exception Downgrade reason ->
                      fallback
                        (Printf.sprintf
                           "mapped load downgraded to a heap copy: %s" reason)
                  | exception (Failure msg | Invalid_argument msg) ->
                      corrupt ~source:path "corrupt binary model: %s" msg)
              | Some () ->
                  fallback
                    "mapped load downgraded to a heap copy: big-endian host"
              | None ->
                  fallback
                    (Printf.sprintf
                       "mapped load downgraded to a heap copy: not a v%d model"
                       format_version)))
