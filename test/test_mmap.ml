(* The zero-copy (mmap) model loading gate.

   Two properties carry the whole feature:
   - byte-identity: a mapped model predicts byte-identical to the heap
     copy of the same file, sequentially and over a pool, and writes
     back the very same file;
   - containment: every way a mapped file can be damaged — truncation,
     bit flips anywhere, hostile section lengths, a file shorter than
     its header — surfaces as a [Corrupt_model] diagnostic (at load or
     at first use), never a crash, a wild read, or an Out_of_memory. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_node id gold kind = { Crf.Graph.id; gold; kind }

let graphs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  List.init n (fun _ ->
      if Random.State.bool rng then
        Crf.Graph.make
          ~nodes:
            [
              mk_node 0 (pick [ "done"; "stop" ]) `Unknown;
              mk_node 1 "hello, world %20" `Known;
            ]
          ~factors:
            [
              Crf.Graph.pairwise ~a:0 ~b:1
                ~rel:"SymbolRef\xe2\x86\x91While\xe2\x86\x93True";
              Crf.Graph.unary ~n:0 ~rel:"loop guard";
            ]
      else
        Crf.Graph.make
          ~nodes:
            [
              mk_node 0 (pick [ "count"; "total" ]) `Unknown;
              mk_node 1 "0" `Known;
            ]
          ~factors:
            [
              Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"Assign=\xe2\x86\x93Number";
              Crf.Graph.unary ~n:0 ~rel:"incr\ttab";
            ])

let train () = Crf.Train.train (graphs ~n:200 ~seed:5)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_temp_file ext f =
  let path = Filename.temp_file "pigeon" ext in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let load_mapped_exn path =
  match Crf.Serialize.load_mapped path with
  | Ok ms -> ms
  | Error d -> Alcotest.fail (Lexkit.Diag.to_string d)

(* ---------- byte-identity ---------- *)

let test_crf_mapped_is_mapped () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let mapped, storage = load_mapped_exn path in
      check_bool "storage reports mapped" true
        (match storage with Lexkit.Storage.Mapped _ -> true | _ -> false);
      check_int "mapped bytes = file size"
        (String.length (read_file path))
        (Lexkit.Storage.mapped_bytes storage);
      check_bool "weight tables are mapped" true
        (Crf.Fast.storage mapped.Crf.Train.fast = `Mapped))

let test_crf_byte_identical_predictions () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let heap = Crf.Serialize.load_exn path in
      let mapped, _ = load_mapped_exn path in
      let test_graphs = graphs ~n:80 ~seed:6 in
      (* Sequential: graph by graph. *)
      List.iter
        (fun g ->
          check_bool "identical predictions (jobs=1)" true
            (Crf.Train.predict heap g = Crf.Train.predict mapped g))
        test_graphs;
      (* Pooled: the whole batch across domains. *)
      let pool = Parallel.create ~jobs:2 () in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      check_bool "identical predictions (pooled)" true
        (Crf.Train.predict_batch ~pool heap test_graphs
        = Crf.Train.predict_batch ~pool mapped test_graphs))

let test_crf_save_map_save_bit_exact () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let bytes = read_file path in
      let mapped, _ = load_mapped_exn path in
      check_bool "save(map(save)) is byte-identical" true
        (String.equal bytes (Crf.Serialize.to_string mapped)))

let test_crf_no_mmap_for_old_formats () =
  (* v2 and v3 files still load through [load_mapped] — as heap copies
     carrying a downgrade note, not as errors. *)
  let model = train () in
  with_temp_file ".crf" (fun path ->
      write_file path (Crf.Serialize.to_string_v3 model);
      let m3, storage = load_mapped_exn path in
      check_bool "v3 file downgrades to a heap copy" true
        (match storage with
        | Lexkit.Storage.Heap { note = Some _ } -> true
        | _ -> false);
      let g = List.hd (graphs ~n:1 ~seed:7) in
      check_bool "downgraded model predicts identically" true
        (Crf.Train.predict model g = Crf.Train.predict m3 g))

let test_itbl_mapped_read_only () =
  let keys = [| 1; 5; 9 |] in
  let vals =
    Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout
      [| 0.5; -1.25; 3.75 |]
  in
  let t = Crf.Itbl.of_sorted_mapped ~keys ~vals ~verify:(fun () -> ()) in
  check_bool "get finds mapped entries" true
    (Crf.Itbl.get t 5 = -1.25 && Crf.Itbl.get t 2 = 0.);
  check_bool "add on a mapped table is refused" true
    (match Crf.Itbl.add t 5 1. with
    | () -> false
    | exception Invalid_argument _ -> true)

(* A mapped table's [get] is a binary search over the file's key run;
   a heap table's is a hash probe. They must agree on every stored key
   (a stored 0. included), on absent keys between stored ones, and on
   keys below the first and above the last. *)
let prop_mapped_get_equals_heap =
  QCheck2.Test.make ~name:"itbl: mapped get = heap get" ~count:200
    QCheck2.Gen.(list_size (int_range 0 300) (int_bound 5_000_000))
    (fun ks ->
      let keys = Array.of_list (List.sort_uniq compare ks) in
      let n = Array.length keys in
      let vals = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
      let heap = Crf.Itbl.create 16 in
      Array.iteri
        (fun j k ->
          let v =
            if k mod 7 = 0 then 0. else float_of_int (k mod 1001) -. 500.25
          in
          vals.{j} <- v;
          Crf.Itbl.set heap k v)
        keys;
      let mapped = Crf.Itbl.of_sorted_mapped ~keys ~vals ~verify:ignore in
      let around k = List.filter (fun x -> x >= 0) [ k - 1; k; k + 1 ] in
      let probes =
        [ 0; max_int ]
        @ (if n = 0 then [ 1 ]
           else [ keys.(0) / 2; keys.(n - 1) + 1; keys.(n - 1) * 2 ])
        @ List.concat_map around (Array.to_list keys)
      in
      Crf.Itbl.length mapped = Crf.Itbl.length heap
      && List.for_all
           (fun k -> Crf.Itbl.get mapped k = Crf.Itbl.get heap k)
           probes)

(* ---------- corruption containment ---------- *)

(* A damaged file must answer with [Corrupt_model] — either at load
   (structure, eager checksums) or at first use (the lazy mapped float
   checksums) — and never anything else. *)
let contained path =
  match Crf.Serialize.load_mapped path with
  | Error d -> d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model
  | Ok (m, _) -> (
      let g = List.hd (graphs ~n:1 ~seed:8) in
      match Crf.Train.predict m g with
      | _ -> false (* damage slipped through *)
      | exception Lexkit.Diag.Error d ->
          d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model)

let test_crf_mapped_truncations () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let full = read_file path in
      let n = String.length full in
      (* Cuts everywhere: mid-magic, mid-header, mid-payload, mid-float
         run, mid-trailer. *)
      List.iter
        (fun cut ->
          write_file path (String.sub full 0 cut);
          check_bool
            (Printf.sprintf "truncation at %d/%d bytes is contained" cut n)
            true (contained path))
        [ 5; 19; 40; n / 4; n / 2; (3 * n) / 4; n - 40; n - 1 ])

let test_crf_mapped_bit_flips () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let full = read_file path in
      let n = String.length full in
      (* A flip at every stride-th byte: magic, symbol tables, weight
         keys, float runs, candidate sections, pads, trailer — all of
         it must be caught by framing or a checksum. *)
      let positions = List.init 41 (fun i -> i * (n - 1) / 40) in
      List.iter
        (fun i ->
          let b = Bytes.of_string full in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          write_file path (Bytes.to_string b);
          check_bool
            (Printf.sprintf "bit flip at byte %d/%d is contained" i n)
            true (contained path))
        positions)

let test_crf_mapped_hostile_lengths () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let full = read_file path in
      (* The first section header's length field lives at bytes 20-27
         (magic 19, tag 1). Hostile values must fail as framing errors,
         not as allocations or wild reads. *)
      List.iter
        (fun (le_bytes : string) ->
          let b = Bytes.of_string full in
          Bytes.blit_string le_bytes 0 b 20 8;
          write_file path (Bytes.to_string b);
          check_bool "hostile section length is contained" true
            (contained path))
        [
          "\xff\xff\xff\xff\xff\xff\xff\x7f" (* max_int64 *);
          "\xff\xff\xff\xff\xff\xff\xff\xff" (* -1 *);
          "\x00\x00\x00\x00\x00\x00\x00\x40" (* 2^62 *);
        ])

let test_crf_mapped_short_files () =
  with_temp_file ".crf" (fun path ->
      List.iter
        (fun content ->
          write_file path content;
          check_bool "short/garbage file is contained" true (contained path))
        [
          "";
          "pig";
          "pigeon-crf-model 4";
          "pigeon-crf-model 4\n";
          "pigeon-crf-model 4\n\x01";
          String.make 64 '\x00';
        ])

(* ---------- hostile candidate sections ----------

   Damage a checksum cannot see: a v4 file is split into its sections,
   one candidate section is rewritten, and the file is reassembled with
   a fresh checksum trailer. Only the loader's structural checks stand
   between such a file and a table that counts twice or looks up by
   probe order; both loads must answer [Corrupt_model] naming the
   section — at load or at first use, never anything else. *)

let sections full =
  let nl = String.index full '\n' in
  let rec go pos acc =
    if pos >= String.length full then List.rev acc
    else
      let len = Int64.to_int (String.get_int64_le full (pos + 1)) in
      go (pos + 9 + len)
        ((Char.code full.[pos], String.sub full (pos + 9) len) :: acc)
  in
  (String.sub full 0 (nl + 1), go (nl + 1) [])

let reassemble magic secs =
  let body = List.filter (fun (t, _) -> t <> 255) secs in
  let b = Buffer.create 4096 in
  let section buf tag payload =
    Buffer.add_char buf (Char.chr tag);
    Buffer.add_int64_le buf (Int64.of_int (String.length payload));
    Buffer.add_string buf payload
  in
  Buffer.add_string b magic;
  List.iter (fun (t, p) -> section b t p) body;
  let trailer = Buffer.create 64 in
  Buffer.add_int64_le trailer (Int64.of_int (List.length body));
  List.iter
    (fun (t, p) ->
      Buffer.add_char trailer (Char.chr t);
      Buffer.add_int64_le trailer (Int64.of_int (Lexkit.Binio.checksum p)))
    body;
  section b 255 (Buffer.contents trailer);
  Buffer.contents b

let names_section section (d : Lexkit.Diag.t) =
  d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model
  && String.split_on_char ':' d.Lexkit.Diag.msg
     |> List.concat_map (String.split_on_char ' ')
     |> List.exists (String.equal section)

let rejected section = function
  | Error d -> names_section section d
  | Ok model -> (
      match Crf.Train.candidates model with
      | _ -> false
      | exception Lexkit.Diag.Error d -> names_section section d)

let test_crf_hostile_candidate_sections () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let full = read_file path in
      let magic, secs = sections full in
      check_bool "split and reassembled file is the saved file" true
        (reassemble magic secs = full);
      let entry p i = String.sub p (8 + (24 * i)) 24 in
      let set_entries p es =
        String.sub p 0 8 ^ String.concat "" es
        ^ String.sub p (8 + (24 * List.length es))
            (String.length p - 8 - (24 * List.length es))
      in
      let pw = List.assoc 9 secs in
      check_bool "cand-pw has two entries to damage" true
        (String.length pw >= 8 + 48);
      let big_count =
        let b = Bytes.of_string pw in
        Bytes.set_int64_le b 0 (Int64.shift_left 1L 40);
        Bytes.to_string b
      in
      List.iter
        (fun (what, payload) ->
          let swap (t, p) = if t = 9 then (t, payload) else (t, p) in
          write_file path (reassemble magic (List.map swap secs));
          check_bool (what ^ ": mapped load rejects, naming cand-pw") true
            (rejected "cand-pw"
               (Result.map fst (Crf.Serialize.load_mapped path)));
          check_bool (what ^ ": copy load rejects, naming cand-pw") true
            (rejected "cand-pw" (Crf.Serialize.load path)))
        [
          ("swapped entries", set_entries pw [ entry pw 1; entry pw 0 ]);
          ("duplicate entry", set_entries pw [ entry pw 0; entry pw 0 ]);
          ("count beyond the payload", big_count);
        ])

(* ---------- word2vec ---------- *)

let sgns_pairs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  List.init n (fun _ ->
      if Random.State.bool rng then
        (pick [ "done"; "finished" ], pick [ "loop ctx"; "assign%true" ])
      else (pick [ "count"; "total" ], pick [ "init zero"; "incr" ]))

let train_w2v () =
  Word2vec.Sgns.train
    ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 2 }
    (sgns_pairs ~n:300 ~seed:9)

let w2v_load_mapped_exn path =
  match Word2vec.Serialize.load_mapped path with
  | Ok vs -> vs
  | Error d -> Alcotest.fail (Lexkit.Diag.to_string d)

let test_w2v_mapped_byte_identity () =
  let model = train_w2v () in
  with_temp_file ".w2v" (fun path ->
      Word2vec.Serialize.save model path;
      let view, storage = w2v_load_mapped_exn path in
      check_bool "storage reports mapped" true
        (match storage with Lexkit.Storage.Mapped _ -> true | _ -> false);
      check_bool "view reports mapped" true
        (Word2vec.Sgns.view_storage view = `Mapped);
      List.iter
        (fun ctxs ->
          check_bool "identical predictions" true
            (Word2vec.Sgns.predict model ctxs
            = Word2vec.Sgns.predict_view view ctxs))
        [ [ "loop ctx" ]; [ "incr"; "init zero" ]; [ "assign%true" ] ];
      check_bool "identical neighbors" true
        (Word2vec.Sgns.most_similar model "done" ~k:3
        = Word2vec.Sgns.most_similar_view view "done" ~k:3);
      (* save → map → materialize → save is bit-exact. *)
      check_bool "save(map(save)) is byte-identical" true
        (String.equal (read_file path)
           (Word2vec.Serialize.to_string (Word2vec.Sgns.heap_of_view view))))

let w2v_contained path =
  match Word2vec.Serialize.load_mapped path with
  | Error d -> d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model
  | Ok (view, _) -> (
      match Word2vec.Sgns.predict_view view [ "loop ctx" ] with
      | _ -> false
      | exception Lexkit.Diag.Error d ->
          d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model)

let test_w2v_mapped_corruption () =
  let model = train_w2v () in
  with_temp_file ".w2v" (fun path ->
      Word2vec.Serialize.save model path;
      let full = read_file path in
      let n = String.length full in
      List.iter
        (fun cut ->
          write_file path (String.sub full 0 cut);
          check_bool
            (Printf.sprintf "truncation at %d/%d is contained" cut n)
            true (w2v_contained path))
        [ 19; n / 3; n / 2; n - 1 ];
      List.iter
        (fun i ->
          let b = Bytes.of_string full in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          write_file path (Bytes.to_string b);
          check_bool
            (Printf.sprintf "bit flip at byte %d/%d is contained" i n)
            true (w2v_contained path))
        (List.init 21 (fun i -> i * (n - 1) / 20)))

let test_w2v_mapped_v3_downgrade () =
  let model = train_w2v () in
  with_temp_file ".w2v" (fun path ->
      write_file path (Word2vec.Serialize.to_string_v3 model);
      let view, storage = w2v_load_mapped_exn path in
      check_bool "v3 file downgrades to a heap copy" true
        (match storage with
        | Lexkit.Storage.Heap { note = Some _ } -> true
        | _ -> false);
      check_bool "downgraded view ranks identically" true
        (Word2vec.Sgns.predict model [ "loop ctx" ]
        = Word2vec.Sgns.predict_view view [ "loop ctx" ]))

let suite =
  [
    ( "crf-mapped",
      [
        Alcotest.test_case "load is mapped" `Quick test_crf_mapped_is_mapped;
        Alcotest.test_case "byte-identical predictions" `Quick
          test_crf_byte_identical_predictions;
        Alcotest.test_case "save-map-save bit-exact" `Quick
          test_crf_save_map_save_bit_exact;
        Alcotest.test_case "old formats downgrade" `Quick
          test_crf_no_mmap_for_old_formats;
        Alcotest.test_case "mapped tables read-only" `Quick
          test_itbl_mapped_read_only;
        QCheck_alcotest.to_alcotest prop_mapped_get_equals_heap;
      ] );
    ( "crf-corruption",
      [
        Alcotest.test_case "truncations contained" `Quick
          test_crf_mapped_truncations;
        Alcotest.test_case "bit flips contained" `Quick
          test_crf_mapped_bit_flips;
        Alcotest.test_case "hostile lengths contained" `Quick
          test_crf_mapped_hostile_lengths;
        Alcotest.test_case "hostile candidate sections rejected" `Quick
          test_crf_hostile_candidate_sections;
        Alcotest.test_case "short files contained" `Quick
          test_crf_mapped_short_files;
      ] );
    ( "w2v-mapped",
      [
        Alcotest.test_case "byte-identity and round-trip" `Quick
          test_w2v_mapped_byte_identity;
        Alcotest.test_case "corruption contained" `Quick
          test_w2v_mapped_corruption;
        Alcotest.test_case "v3 downgrade" `Quick test_w2v_mapped_v3_downgrade;
      ] );
  ]

let () = Alcotest.run "mmap" suite
