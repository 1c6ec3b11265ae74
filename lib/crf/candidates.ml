(* Counts are kept per interned id ([Symbols] guards the widths), in
   one of two forms.

   While training counts them they sit in tally tables: inner tables
   map label id -> count ref, so a bump on a seen label is one lookup
   and an in-place increment, with no string hashing anywhere.

   The first query freezes the table into its read form, and drops the
   tally: three flat int runs sorted the way the v4 file stores them
   — global (label, count), unary (rel, label, count) and pairwise
   (packed key, label, count) — each keyed run indexed by an
   {!Itbl.index} from key to first entry, so a merge is one probe and a
   contiguous walk. A loaded model reads its runs straight into this
   form. Ranking compares ints only: each candidate label's place in
   label-string order is computed once, at the freeze. *)

type counts = (int, int ref) Hashtbl.t

type tally = {
  unary : (int, counts) Hashtbl.t;  (** rel id → label counts *)
  pairwise : (int, counts) Hashtbl.t;
      (** packed direction/rel/neighbor-label → label counts *)
  global : counts;
}

type rows = {
  global : int array;  (* label, count per entry; labels ascending *)
  unary : int array;  (* rel, label, count; (rel, label) ascending *)
  un_index : Itbl.index;  (* rel -> its first entry *)
  pairwise : int array;  (* packed key, label, count; likewise *)
  pw_index : Itbl.index;
  rank : int array;
      (* per label id: its place in label-string order among the labels
         the runs hold (-1 for the others, which are never ranked) *)
  top : int array;  (* the global labels: count desc, label string asc *)
}

type state = Counting of tally | Frozen of rows
type t = { syms : Symbols.t; mutable state : state }

let symbols t = t.syms

(* dir gets one bit above the [Fast.pw_key] layout: rel in the middle
   24 bits, the neighbor label in the low 18. *)
let pack ~dir ~rel ~other = (dir lsl 42) lor (rel lsl 18) lor other
let unpack_dir key = key lsr 42
let unpack_rel key = (key lsr 18) land 0xFFFFFF
let unpack_other key = key land 0x3FFFF

let incr_count ?(by = 1) (tbl : counts) label =
  match Hashtbl.find_opt tbl label with
  | Some r -> r := !r + by
  | None -> Hashtbl.add tbl label (ref by)

let bump ?by tbl key label =
  let inner =
    match Hashtbl.find_opt tbl key with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.add tbl key h;
        h
  in
  incr_count ?by inner label

let create ?symbols () =
  {
    syms = (match symbols with Some s -> s | None -> Symbols.create ());
    state =
      Counting
        {
          unary = Hashtbl.create 1024;
          pairwise = Hashtbl.create 4096;
          global = Hashtbl.create 256;
        };
  }

let tally t =
  match t.state with
  | Counting b -> b
  | Frozen _ ->
      invalid_arg
        "Candidates.count_graph: the table was queried, so it is frozen"

(* One graph's counts, the unit of streaming: [build] is a fold of
   this over an in-memory corpus, and the out-of-core path calls it
   per shard-loaded graph so the whole corpus never has to coexist
   with the counts. *)
let count_graph t (g : Graph.t) =
  let b = tally t in
  let label = Symbols.label t.syms and rel_id = Symbols.rel t.syms in
  let gold = Graph.gold_assignment g in
  let gold_ids = Array.map label gold in
  Array.iter
    (fun (n : Graph.node) ->
      if n.Graph.kind = `Unknown then
        incr_count b.global (label n.Graph.gold))
    g.Graph.nodes;
  (* Every factor's relation is interned, used in a count or not:
     [Fast.encode] then finds every training rel already present,
     so rel ids are assigned in plain corpus factor order. *)
  List.iter
    (fun f ->
      match f with
      | Graph.Unary { n; rel; mult } ->
          let r = rel_id rel in
          if g.Graph.nodes.(n).Graph.kind = `Unknown then
            bump ~by:mult b.unary r gold_ids.(n)
      | Graph.Pairwise { a; b = nb; rel; mult } ->
          let r = rel_id rel in
          if g.Graph.nodes.(a).Graph.kind = `Unknown then
            bump ~by:mult b.pairwise
              (pack ~dir:0 ~rel:r ~other:gold_ids.(nb))
              gold_ids.(a);
          if g.Graph.nodes.(nb).Graph.kind = `Unknown then
            bump ~by:mult b.pairwise
              (pack ~dir:1 ~rel:r ~other:gold_ids.(a))
              gold_ids.(nb))
    g.Graph.factors

let build ?symbols graphs =
  let t = create ?symbols () in
  List.iter (count_graph t) graphs;
  t

(* ---------- the frozen form ---------- *)

let sorted_keys tbl =
  let keys = Array.make (Hashtbl.length tbl) 0 and i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      keys.(!i) <- k;
      incr i)
    tbl;
  Array.sort Int.compare keys;
  keys

(* A tally table as a (key, label, count) run in (key, label) order. *)
let flatten tbl =
  let n = Hashtbl.fold (fun _ inner acc -> acc + Hashtbl.length inner) tbl 0 in
  let out = Array.make (3 * n) 0 and e = ref 0 in
  Array.iter
    (fun k ->
      let inner = Hashtbl.find tbl k in
      Array.iter
        (fun l ->
          out.(3 * !e) <- k;
          out.((3 * !e) + 1) <- l;
          out.((3 * !e) + 2) <- !(Hashtbl.find inner l);
          incr e)
        (sorted_keys inner))
    (sorted_keys tbl);
  out

(* Each candidate label's place in label-string order — the ranking's
   tie-break, which is independent of id order (ids are first-intern
   order, not alphabetical). Only labels the runs hold are ranked, so
   the sort is over the candidate vocabulary, not the known labels. *)
let string_ranks syms ~global ~unary ~pairwise =
  let rank = Array.make (Symbols.num_labels syms) (-1) in
  let mark a ~stride ~at =
    for e = 0 to (Array.length a / stride) - 1 do
      rank.(a.((stride * e) + at)) <- 0
    done
  in
  mark global ~stride:2 ~at:0;
  mark unary ~stride:3 ~at:1;
  mark pairwise ~stride:3 ~at:1;
  let ls =
    Array.of_seq
      (Seq.filter (fun l -> rank.(l) = 0) (Seq.init (Array.length rank) Fun.id))
  in
  let str = Symbols.label_string syms in
  Array.sort (fun a b -> String.compare (str a) (str b)) ls;
  Array.iteri (fun i l -> rank.(l) <- i) ls;
  rank

let freeze_runs syms ~global ~unary ~pairwise =
  let rank = string_ranks syms ~global ~unary ~pairwise in
  let top = Array.init (Array.length global / 2) Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare global.((2 * b) + 1) global.((2 * a) + 1) in
      if c <> 0 then c
      else Int.compare rank.(global.(2 * a)) rank.(global.(2 * b)))
    top;
  {
    global;
    unary;
    un_index = Itbl.index_runs unary ~stride:3;
    pairwise;
    pw_index = Itbl.index_runs pairwise ~stride:3;
    rank;
    top = Array.map (fun e -> global.(2 * e)) top;
  }

let freeze syms (b : tally) =
  let labels = sorted_keys b.global in
  let global = Array.make (2 * Array.length labels) 0 in
  Array.iteri
    (fun e l ->
      global.(2 * e) <- l;
      global.((2 * e) + 1) <- !(Hashtbl.find b.global l))
    labels;
  freeze_runs syms ~global ~unary:(flatten b.unary)
    ~pairwise:(flatten b.pairwise)

(* The read form, frozen from the tally at the first query (which the
   trainers and [Fast.prepare] make before any fan-out). *)
let rows t =
  match t.state with
  | Frozen r -> r
  | Counting b ->
      let r = freeze t.syms b in
      t.state <- Frozen r;
      r

let num_labels t = Array.length (rows t).global / 2

let global_top_ids t k =
  let top = (rows t).top in
  List.init (max 0 (min k (Array.length top))) (Array.get top)

let global_top t k =
  List.map (Symbols.label_string t.syms) (global_top_ids t k)

let label_count t s =
  match Symbols.find_label t.syms s with
  | None -> 0
  | Some l ->
      let g = (rows t).global in
      let rec go lo hi =
        if lo >= hi then 0
        else
          let mid = (lo + hi) lsr 1 in
          let x = g.(2 * mid) in
          if x = l then g.((2 * mid) + 1)
          else if x < l then go (mid + 1) hi
          else go lo mid
      in
      go 0 (Array.length g / 2)

(* A reusable scoring slate for batch candidate generation: a flat
   per-label-id accumulator with an epoch stamp, so clearing between
   nodes is O(labels touched) and merging evidence is two array writes
   — no per-node hash table, no hashing at all. A slate serves one
   caller at a time; [Fast] keeps one in its reused ICM arena. *)
type slate = {
  mutable acc : int array;  (* evidence score per label id *)
  mutable stamp : int array;  (* epoch that last wrote [acc] *)
  mutable touched : int array;  (* label ids written this epoch *)
  mutable n_touched : int;
  mutable epoch : int;
  mutable out : int array;  (* the ranking under construction *)
}

let slate () =
  {
    acc = [||];
    stamp = [||];
    touched = [||];
    n_touched = 0;
    epoch = 0;
    out = [||];
  }

let slate_ready sl n =
  if Array.length sl.acc < n then begin
    let cap = max 16 n in
    sl.acc <- Array.make cap 0;
    sl.stamp <- Array.make cap 0;  (* 0 never equals a live epoch *)
    sl.touched <- Array.make cap 0
  end;
  sl.epoch <- sl.epoch + 1;
  sl.n_touched <- 0

let slate_add sl l c =
  if sl.stamp.(l) = sl.epoch then sl.acc.(l) <- sl.acc.(l) + c
  else begin
    sl.stamp.(l) <- sl.epoch;
    sl.acc.(l) <- c;
    sl.touched.(sl.n_touched) <- l;
    sl.n_touched <- sl.n_touched + 1
  end

let slate_begin sl t = slate_ready sl (Symbols.num_labels t.syms)

(* Add every entry of [key]'s row in a (key, label, count) run. *)
let merge_run sl run index key =
  let e = ref (Itbl.index_find index key) in
  if !e >= 0 then begin
    let n = Array.length run / 3 in
    while !e < n && run.(3 * !e) = key do
      slate_add sl run.((3 * !e) + 1) run.((3 * !e) + 2);
      incr e
    done
  end

let merge_unary_id sl t rel =
  let r = rows t in
  merge_run sl r.unary r.un_index rel

let merge_pairwise_id sl t ~dir ~rel ~other =
  let r = rows t in
  merge_run sl r.pairwise r.pw_index (pack ~dir ~rel ~other)

(* Label [x] ranks below a label with evidence [c] and string rank
   [rl]: count desc, label string asc — a strict total order, since
   ranks are distinct. *)
let[@inline] below acc rank c rl x =
  let cx = Array.unsafe_get acc x in
  c > cx || (c = cx && rl < Array.unsafe_get rank x)

let slate_ranked sl t ~max =
  let r = rows t in
  let max = if max < 0 then 0 else max in
  if Array.length sl.out < max then sl.out <- Array.make max 0;
  let out = sl.out and acc = sl.acc and rank = r.rank in
  (* The best [k] evidence labels, by insertion into [out]: a label
     enters when there is room or it beats the last one kept. *)
  let k = if sl.n_touched < max then sl.n_touched else max in
  let len = ref 0 in
  if k > 0 then
    for i = 0 to sl.n_touched - 1 do
      let l = sl.touched.(i) in
      let c = acc.(l) and rl = rank.(l) in
      if !len < k || below acc rank c rl out.(!len - 1) then begin
        let j = ref (if !len < k then !len else !len - 1) in
        while !j > 0 && below acc rank c rl out.(!j - 1) do
          out.(!j) <- out.(!j - 1);
          decr j
        done;
        out.(!j) <- l;
        if !len < k then incr len
      end
    done;
  (* Top up with globally frequent labels to give inference room to
     move. If this loop runs, every evidence label was emitted, so the
     epoch stamp doubles as the dedup set — no per-node table. *)
  let top = r.top and count = ref !len and i = ref 0 in
  while !count < max && !i < Array.length top do
    let l = top.(!i) in
    if sl.stamp.(l) <> sl.epoch then begin
      out.(!count) <- l;
      incr count
    end;
    incr i
  done;
  Array.sub out 0 !count

let ids_for_node t (g : Graph.t) factors n ~max =
  let sl = slate () in
  slate_begin sl t;
  let known_other i =
    let nd = g.Graph.nodes.(i) in
    if nd.Graph.kind = `Known then Symbols.find_label t.syms nd.Graph.gold
    else None
  in
  List.iter
    (fun f ->
      match f with
      | Graph.Unary { n = m; rel; _ } when m = n -> (
          match Symbols.find_rel t.syms rel with
          | Some r -> merge_unary_id sl t r
          | None -> ())
      | Graph.Pairwise { a; b; rel; _ } when a = n -> (
          match (Symbols.find_rel t.syms rel, known_other b) with
          | Some r, Some other -> merge_pairwise_id sl t ~dir:0 ~rel:r ~other
          | _ -> ())
      | Graph.Pairwise { a; b; rel; _ } when b = n -> (
          match (Symbols.find_rel t.syms rel, known_other a) with
          | Some r, Some other -> merge_pairwise_id sl t ~dir:1 ~rel:r ~other
          | _ -> ())
      | _ -> ())
    factors;
  Array.to_list (slate_ranked sl t ~max)

let for_node t g factors n ~max =
  List.map (Symbols.label_string t.syms) (ids_for_node t g factors n ~max)

type entry =
  | E_global of string * int
  | E_unary of string * string * int
  | E_pairwise of string * string * int

(* v1/v2 text files carry pairwise keys as "dir\x1frel\x1fother". *)
let pw_key_string t key =
  let dir = if unpack_dir key = 0 then "L" else "R" in
  String.concat "\x1f"
    [
      dir;
      Symbols.rel_string t.syms (unpack_rel key);
      Symbols.label_string t.syms (unpack_other key);
    ]

let pw_key_of_string t s =
  match String.split_on_char '\x1f' s with
  | [ dir; rel; other ] ->
      let dir =
        match dir with
        | "L" -> 0
        | "R" -> 1
        | _ -> failwith "candidate key: bad direction"
      in
      pack ~dir ~rel:(Symbols.rel t.syms rel) ~other:(Symbols.label t.syms other)
  | _ -> failwith "candidate key: expected dir\\x1frel\\x1flabel"

(* In run order: global, unary, pairwise. *)
let entries t =
  let r = rows t in
  let str = Symbols.label_string t.syms in
  let acc = ref [] in
  let run x entry =
    for e = (Array.length x / 3) - 1 downto 0 do
      acc := entry x.(3 * e) (str x.((3 * e) + 1)) x.((3 * e) + 2) :: !acc
    done
  in
  run r.pairwise (fun k l c -> E_pairwise (pw_key_string t k, l, c));
  run r.unary (fun rel l c -> E_unary (Symbols.rel_string t.syms rel, l, c));
  for e = (Array.length r.global / 2) - 1 downto 0 do
    acc := E_global (str r.global.(2 * e), r.global.((2 * e) + 1)) :: !acc
  done;
  !acc

let dump_ids t =
  let r = rows t in
  (r.global, r.unary, r.pairwise)

(* A v3/v4 file's runs become the read form as they are, after the
   checks that make them safe to index: ids in range, pairwise keys
   with a one-bit direction, and entries strictly increasing by
   (key, label) — the writer's order, without which a duplicate would
   count twice or a lookup would depend on probe order. *)
let of_ids ~symbols ~global ~unary ~pairwise =
  let nl = Symbols.num_labels symbols and nr = Symbols.num_rels symbols in
  let fail what e fmt =
    Printf.ksprintf
      (fun m -> failwith (Printf.sprintf "%s: entry %d: %s" what e m))
      fmt
  in
  let label what e l =
    if l < 0 || l >= nl then fail what e "label id %d out of range" l
  in
  if Array.length global mod 2 <> 0 then failwith "cand-global: partial entry";
  for e = 0 to (Array.length global / 2) - 1 do
    let l = global.(2 * e) in
    label "cand-global" e l;
    if e > 0 && l <= global.(2 * (e - 1)) then
      fail "cand-global" e "labels not strictly increasing"
  done;
  let check what run ~key_ok =
    if Array.length run mod 3 <> 0 then
      Printf.ksprintf failwith "%s: partial entry" what;
    for e = 0 to (Array.length run / 3) - 1 do
      let k = run.(3 * e) and l = run.((3 * e) + 1) in
      if not (key_ok k) then fail what e "key %d out of range" k;
      label what e l;
      if e > 0 then begin
        let pk = run.(3 * (e - 1)) in
        if k < pk || (k = pk && l <= run.((3 * e) - 2)) then
          fail what e "not strictly increasing by (key, label)"
      end
    done
  in
  check "cand-unary" unary ~key_ok:(fun r -> r >= 0 && r < nr);
  check "cand-pw" pairwise ~key_ok:(fun k ->
      k >= 0
      && unpack_dir k <= 1
      && unpack_rel k < nr
      && unpack_other k < nl);
  {
    syms = symbols;
    state = Frozen (freeze_runs symbols ~global ~unary ~pairwise);
  }

let of_entries ?symbols es =
  let t = create ?symbols () in
  let b = tally t in
  let label = Symbols.label t.syms in
  List.iter
    (function
      | E_global (l, c) -> incr_count ~by:c b.global (label l)
      | E_unary (rel, l, c) -> bump ~by:c b.unary (Symbols.rel t.syms rel) (label l)
      | E_pairwise (key, l, c) -> bump ~by:c b.pairwise (pw_key_of_string t key) (label l))
    es;
  ignore (rows t);
  t
