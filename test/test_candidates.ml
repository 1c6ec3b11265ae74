(* The candidate table's read form against a reference.

   - A qcheck property: on random count tables (small counts, so ties
     are everywhere; labels interned in an order unrelated to their
     strings) and random evidence, the slate ranking read from the
     frozen runs equals a reference kept here — nested hash tables and
     a (count desc, label string asc) sort, topped up from the global
     ranking — list for list, tie order and top-up included. Tables
     built by the loader path ([of_ids]) and by counting and freezing
     ([of_entries]) must both agree with it.
   - In all four languages, [candidate_ids] on a freshly trained model
     equals it on that model's mapped load and on its copy load.
   - Counting into a table after a query is refused. *)

let check_bool = Alcotest.(check bool)

(* ---------- reference ---------- *)

let add_count tbl l c =
  Hashtbl.replace tbl l (c + Option.value (Hashtbl.find_opt tbl l) ~default:0)

(* key -> (label -> summed count). *)
let ref_table entries =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (k, l, c) ->
      let inner =
        match Hashtbl.find_opt t k with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 4 in
            Hashtbl.add t k h;
            h
      in
      add_count inner l c)
    entries;
  t

let ranked str counts =
  List.sort
    (fun (la, ca) (lb, cb) ->
      if ca <> cb then compare cb ca else String.compare (str la) (str lb))
    counts

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* What the slate must produce: evidence summed over the merged keys,
   ranked, cut at [max]; when fewer than [max], topped up with the
   global ranking minus the evidence labels. *)
let ref_slate str ~global ~tables keys ~max =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (which, k) ->
      match Hashtbl.find_opt tables.(which) k with
      | None -> ()
      | Some inner -> Hashtbl.iter (add_count acc) inner)
    keys;
  let evidence = ranked str (List.of_seq (Hashtbl.to_seq acc)) in
  let ev = List.map fst (take max evidence) in
  if List.length evidence >= max then ev
  else
    ev
    @ take (max - List.length ev)
        (List.filter (fun l -> not (Hashtbl.mem acc l)) (List.map fst global))

(* ---------- the property ---------- *)

let pack ~dir ~rel ~other = (dir lsl 42) lor (rel lsl 18) lor other

(* Label strings whose sorted order is not their intern order: fixed
   names interned in a generated permutation, some sharing prefixes. *)
let names =
  [| "a"; "ab"; "b"; "ba"; "c"; "cab"; "d"; "e"; "ee"; "f"; "g"; "h" |]

let gen_case =
  QCheck2.Gen.(
    let* nl = int_range 1 (Array.length names) in
    let* perm = shuffle_a (Array.init nl Fun.id) in
    let* nr = int_range 1 4 in
    let lab = int_bound (nl - 1) and rel = int_bound (nr - 1) in
    let cnt = int_range 1 3 in
    let* global = list_size (int_range 0 20) (pair lab cnt) in
    let* unary = list_size (int_range 0 30) (triple rel lab cnt) in
    let* pairwise =
      list_size (int_range 0 40)
        (pair (triple (int_bound 1) rel lab) (pair lab cnt))
    in
    let* evidence =
      list_size (int_range 0 8)
        (oneof
           [
             map (fun r -> `U r) (int_bound nr) (* [nr] is never a key *);
             map
               (fun ((d, r), o) -> `P (d, r, o))
               (pair (pair (int_bound 1) rel) lab);
           ])
    in
    let* max = int_range 0 14 in
    return (nl, perm, nr, global, unary, pairwise, evidence, max))

let prop_slate_matches_reference =
  QCheck2.Test.make ~name:"candidates: frozen-run ranking = reference"
    ~count:500 gen_case
    (fun (nl, perm, nr, global, unary, pairwise, evidence, max) ->
      let symbols = Crf.Symbols.create () in
      (* Label id i is names.(perm.(i)). *)
      Array.iter (fun p -> ignore (Crf.Symbols.label symbols names.(p))) perm;
      for r = 0 to nr - 1 do
        ignore (Crf.Symbols.rel symbols (Printf.sprintf "rel%d" r))
      done;
      let str = Crf.Symbols.label_string symbols in
      let rstr = Crf.Symbols.rel_string symbols in
      let pw =
        List.map
          (fun ((d, r, o), (l, c)) -> (pack ~dir:d ~rel:r ~other:o, l, c))
          pairwise
      in
      let g_tbl = ref_table (List.map (fun (l, c) -> (0, l, c)) global) in
      let g_counts =
        match Hashtbl.find_opt g_tbl 0 with
        | None -> []
        | Some h -> List.of_seq (Hashtbl.to_seq h)
      in
      let g_ranked = ranked str g_counts in
      let tables = [| ref_table unary; ref_table pw |] in
      (* The loader's runs: sorted by (key, label), repeats summed. *)
      let run tbl =
        Hashtbl.fold
          (fun k inner acc ->
            Hashtbl.fold (fun l c acc -> (k, l, c) :: acc) inner acc)
          tbl []
        |> List.sort compare
        |> List.concat_map (fun (k, l, c) -> [ k; l; c ])
        |> Array.of_list
      in
      let global_run =
        List.sort compare g_counts
        |> List.concat_map (fun (l, c) -> [ l; c ])
        |> Array.of_list
      in
      let loaded =
        Crf.Candidates.of_ids ~symbols ~global:global_run
          ~unary:(run tables.(0)) ~pairwise:(run tables.(1))
      in
      let counted =
        let key d r o =
          String.concat "\x1f" [ (if d = 0 then "L" else "R"); rstr r; str o ]
        in
        Crf.Candidates.of_entries ~symbols
          (List.map (fun (l, c) -> Crf.Candidates.E_global (str l, c)) global
          @ List.map
              (fun (r, l, c) -> Crf.Candidates.E_unary (rstr r, str l, c))
              unary
          @ List.map
              (fun ((d, r, o), (l, c)) ->
                Crf.Candidates.E_pairwise (key d r o, str l, c))
              pairwise)
      in
      let keys =
        List.map
          (function
            | `U r -> (0, r) | `P (d, r, o) -> (1, pack ~dir:d ~rel:r ~other:o))
          evidence
      in
      let want = ref_slate str ~global:g_ranked ~tables keys ~max in
      let slate t =
        let sl = Crf.Candidates.slate () in
        (* twice: a reused slate starts clean *)
        List.map
          (fun () ->
            Crf.Candidates.slate_begin sl t;
            List.iter
              (function
                | `U r -> Crf.Candidates.merge_unary_id sl t r
                | `P (dir, rel, other) ->
                    Crf.Candidates.merge_pairwise_id sl t ~dir ~rel ~other)
              evidence;
            Array.to_list (Crf.Candidates.slate_ranked sl t ~max))
          [ (); () ]
      in
      List.for_all
        (fun t ->
          slate t = [ want; want ]
          && Crf.Candidates.global_top_ids t nl = List.map fst g_ranked
          && Crf.Candidates.num_labels t = List.length g_counts)
        [ loaded; counted ])

(* ---------- fresh = mapped = copy, four languages ---------- *)

let corpus render ~n ~seed =
  Corpus.Gen.generate_sources
    { Corpus.Gen.default with Corpus.Gen.n_files = n; seed }
    render

let load_ok = function
  | Ok m -> m
  | Error d -> Alcotest.failf "load: %a" Lexkit.Diag.pp d

let test_candidate_ids_across_loads () =
  let cfg = Crf.Fast.default_config in
  List.iter
    (fun (lang : Pigeon.Lang.t) ->
      let render = lang.Pigeon.Lang.render_lang in
      let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
      let fresh =
        Crf.Train.train
          (Pigeon.Task.graphs_of_sources ~repr ~lang
             ~policy:Pigeon.Graphs.Locals (corpus render ~n:30 ~seed:303))
      in
      let path = Filename.temp_file "pigeon-cands" ".crf" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Crf.Serialize.save fresh path;
          let mapped = fst (load_ok (Crf.Serialize.load_mapped path)) in
          let copy = load_ok (Crf.Serialize.load path) in
          let cands (model : Crf.Train.model) code =
            let m = model.Crf.Train.fast in
            let eg =
              Pigeon.Graphs.encode repr ~def_labels:lang.Pigeon.Lang.def_labels
                ~policy:Pigeon.Graphs.Locals m
                (lang.Pigeon.Lang.parse_tree code)
            in
            Crf.Fast.candidate_ids cfg (Crf.Train.candidates model) m eg
              ~force_gold:false
          in
          List.iteri
            (fun i (_, code) ->
              let want = cands fresh code in
              let what =
                Printf.sprintf "%s input %d: " lang.Pigeon.Lang.name i
              in
              check_bool (what ^ "fresh = mapped") true
                (cands mapped code = want);
              check_bool (what ^ "fresh = copy") true (cands copy code = want))
            (corpus render ~n:6 ~seed:404)))
    Pigeon.Lang.all

let test_count_after_query () =
  let g =
    Crf.Graph.make
      ~nodes:
        [
          { Crf.Graph.id = 0; gold = "x"; kind = `Unknown };
          { Crf.Graph.id = 1; gold = "1"; kind = `Known };
        ]
      ~factors:[ Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"r" ]
  in
  let t = Crf.Candidates.build [ g ] in
  Alcotest.(check (list string))
    "queried" [ "x" ] (Crf.Candidates.global_top t 3);
  check_bool "counting into a frozen table is refused" true
    (match Crf.Candidates.count_graph t g with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "candidates"
    [
      ( "ranking",
        [
          QCheck_alcotest.to_alcotest prop_slate_matches_reference;
          Alcotest.test_case "candidate_ids: fresh = mapped = copy" `Quick
            test_candidate_ids_across_loads;
          Alcotest.test_case "no counting after a query" `Quick
            test_count_after_query;
        ] );
    ]
