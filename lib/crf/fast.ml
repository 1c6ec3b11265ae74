type egraph = {
  names : string array;
      (* per node: its own string — a known node's label, an unknown
         node's current name. Replies render from these, so a string
         the model has never seen needs no id. *)
  unseen : int;
      (* the id every label the model has never seen encodes to: one
         past its label table, so no weight, count or candidate holds
         it (see [encode]) *)
  unknown : int array;
  is_unknown : bool array;
  gold : int array;
  pw_a : int array;
  pw_b : int array;
  pw_rel : int array;
  pw_mult : float array;
  un_n : int array;
  un_rel : int array;
  un_mult : float array;
  touch_pw : int array array;
  touch_un : int array array;
  nbr : int array array;
      (* per unknown *slot*: the sorted slot indices of the unknown
         nodes sharing a pairwise factor with it — the exact set whose
         cached scores go stale when this slot's label flips. *)
}

let unknown_nodes eg = eg.unknown
let name eg n = eg.names.(n)

(* Weight keys are packed into single ints: labels get 18 bits each
   and relations 24, so the inner loop allocates nothing and hashes
   machine ints. The packing is only sound if ids fit those widths —
   [Symbols] enforces exactly these limits at interning time, so by
   the time an id reaches here it is in range by construction and the
   hot path carries no checks. *)
let pw_key la rel lb = (la lsl 42) lor (rel lsl 18) lor lb
let un_key l rel = (l lsl 24) lor rel

(* The weight rows ({!Itbl.scatter}) the scoring loops walk: pairwise
   weights by (rel, lb), whose entries vary la (grouping [by_rel_lb]),
   and by (la, rel), whose entries vary lb ([by_la_rel]); unary weights
   by rel, whose entries vary the label. The label fields are the ones
   [pw_key] and [un_key] place at bits 42, 0 and 24. *)
let pw_rows = [ (42, 18); (0, 18) ]
let by_rel_lb = 0
let by_la_rel = 1
let un_rows = [ (24, 18) ]

type model = {
  syms : Symbols.t;
  pw : Itbl.t;
  un : Itbl.t;
  bias : Itbl.t;
  (* averaging accumulators *)
  pw_u : Itbl.t;
  un_u : Itbl.t;
  bias_u : Itbl.t;
  mutable steps : int;
  prepared : bool Atomic.t;  (* set once, by [prepare]: first use done *)
}

(* The weight tables keep their rows current from here on, through
   every update; the accumulators are never scored, so they have
   none. *)
let create ?symbols () =
  {
    syms = (match symbols with Some s -> s | None -> Symbols.create ());
    pw = Itbl.create ~rows:pw_rows 65536;
    un = Itbl.create ~rows:un_rows 16384;
    bias = Itbl.create 512;
    pw_u = Itbl.create 65536;
    un_u = Itbl.create 16384;
    bias_u = Itbl.create 512;
    steps = 0;
    prepared = Atomic.make false;
  }

(* A per-domain write target for one parallel training slice: shares
   the (frozen) symbol table, starts with empty weight tables that
   hold only this slice's updates. *)
let delta_of m =
  {
    syms = m.syms;
    pw = Itbl.create 1024;
    un = Itbl.create 256;
    bias = Itbl.create 64;
    pw_u = Itbl.create 1024;
    un_u = Itbl.create 256;
    bias_u = Itbl.create 64;
    steps = 0;
    prepared = Atomic.make false;
  }

let symbols m = m.syms
let get = Itbl.get
let add = Itbl.add

(* A heap model's weight tables (trained or copy-loaded) have rows from
   [create] on. A mapped model's are built once, at its first use
   ([prepare]) or, for a caller that skips it, its first MAP run, under
   this lock; its biases get a dense copy by label there too, so a
   candidate's bias is one load instead of a binary search. *)
let first_use = Mutex.create ()

let build_rows m =
  Itbl.build_rows m.pw pw_rows;
  Itbl.build_rows m.un un_rows;
  Itbl.build_dense m.bias (Symbols.num_labels m.syms)

let ensure_rows m =
  if not (Itbl.rows_ready m.pw && Itbl.rows_ready m.un) then
    Mutex.protect first_use (fun () -> build_rows m)

(* Fold one slice's deltas back into the model. Callers merge slices
   in pass order and per-key accumulation is independent across keys,
   so the result depends only on the slice boundaries (i.e. the job
   count), never on domain scheduling or table iteration order. *)
let merge_delta m d =
  Itbl.iter (add m.pw) d.pw;
  Itbl.iter (add m.un) d.un;
  Itbl.iter (add m.bias) d.bias;
  Itbl.iter (add m.pw_u) d.pw_u;
  Itbl.iter (add m.un_u) d.un_u;
  Itbl.iter (add m.bias_u) d.bias_u

(* Per node, the indices of the factors with an endpoint there, in
   decreasing factor order: [node_score] and the [Scorer] sum a node's
   factors in this order, so it is part of every score's bits. [b] is
   the second endpoint array ([a] itself for unary factors). *)
let touch_lists n a b =
  let count = Array.make n 0 in
  let visit f =
    Array.iteri
      (fun fi x ->
        f fi x;
        let y = b.(fi) in
        if y <> x then f fi y)
      a
  in
  visit (fun _ v -> count.(v) <- count.(v) + 1);
  let out = Array.map (fun c -> Array.make c 0) count in
  visit (fun fi v ->
      count.(v) <- count.(v) - 1;
      out.(v).(count.(v)) <- fi);
  out

(* The encoded graph from its node and factor arrays: the tail shared
   by [encode] (from a string graph) and [Builder] (straight from
   extraction). *)
let assemble ~names ~unseen ~gold ~is_unknown ~pw_a ~pw_b ~pw_rel ~pw_mult
    ~un_n ~un_rel ~un_mult =
  let n = Array.length gold in
  let unknown =
    Array.of_seq (Seq.filter (Array.get is_unknown) (Seq.init n Fun.id))
  in
  let touch_pw = touch_lists n pw_a pw_b in
  let slot_of = Array.make n (-1) in
  Array.iteri (fun s u -> slot_of.(u) <- s) unknown;
  (* [mark.(s) = i]: slot [s] already listed for slot [i] — dedupe
     before sorting, as a slot meets each neighbour over many factors *)
  let mark = Array.make (Array.length unknown) (-1) in
  let nbr =
    Array.mapi
      (fun i u ->
        let tp = touch_pw.(u) in
        let acc = Array.make (Array.length tp) 0 and k = ref 0 in
        Array.iter
          (fun fi ->
            let o = if pw_a.(fi) = u then pw_b.(fi) else pw_a.(fi) in
            let s = slot_of.(o) in
            if s >= 0 && mark.(s) <> i then begin
              mark.(s) <- i;
              acc.(!k) <- s;
              incr k
            end)
          tp;
        let out = Array.sub acc 0 !k in
        Array.sort Int.compare out;
        out)
      unknown
  in
  {
    names;
    unseen;
    unknown;
    is_unknown;
    gold;
    pw_a;
    pw_b;
    pw_rel;
    pw_mult;
    un_n;
    un_rel;
    un_mult;
    touch_pw;
    touch_un = touch_lists n un_n un_n;
    nbr;
  }

(* Growable factor columns: endpoints, relation id, multiplicity. *)
type fbuf = {
  mutable fa : int array;
  mutable fb : int array;
  mutable fr : int array;
  mutable fm : int array;
  mutable len : int;
}

let fbuf () = { fa = [||]; fb = [||]; fr = [||]; fm = [||]; len = 0 }

let grow arr len x =
  if len < Array.length arr then arr
  else begin
    let a = Array.make (max 16 (2 * len)) x in
    Array.blit arr 0 a 0 len;
    a
  end

let push f a b r m =
  let n = f.len in
  if n = Array.length f.fa then begin
    f.fa <- grow f.fa n 0;
    f.fb <- grow f.fb n 0;
    f.fr <- grow f.fr n 0;
    f.fm <- grow f.fm n 0
  end;
  f.fa.(n) <- a;
  f.fb.(n) <- b;
  f.fr.(n) <- r;
  f.fm.(n) <- m;
  f.len <- n + 1

let assemble_bufs ~names ~unseen ~gold ~is_unknown pw un =
  let col c f = Array.sub c 0 f.len in
  assemble ~names ~unseen ~gold ~is_unknown ~pw_a:(col pw.fa pw)
    ~pw_b:(col pw.fb pw) ~pw_rel:(col pw.fr pw)
    ~pw_mult:(Array.map float_of_int (col pw.fm pw))
    ~un_n:(col un.fa un) ~un_rel:(col un.fr un)
    ~un_mult:(Array.map float_of_int (col un.fm un))

let label_id syms ~unseen s =
  match Symbols.find_label syms s with Some l -> l | None -> unseen

(* Strings are looked up, never interned, so encoding never writes the
   model: its tables stay as training left them however many graphs it
   encodes (training graphs find every string, because
   [Candidates.count_graph] interned them all). A label the model has
   never seen encodes to [unseen]. A factor whose relation is unseen,
   or whose known endpoint's label is, has weight 0 under every
   candidate and adds no candidate evidence, so it is left out: adding
   +0.0 changes no score, and the neighbour edge it would add only
   re-marks a slot whose argmax cannot change. *)
let encode m (g : Graph.t) =
  let unseen = Symbols.num_labels m.syms in
  let nodes = g.Graph.nodes in
  let names = Array.map (fun (nd : Graph.node) -> nd.Graph.gold) nodes in
  let gold = Array.map (label_id m.syms ~unseen) names in
  let is_unknown =
    Array.map (fun (nd : Graph.node) -> nd.Graph.kind = `Unknown) nodes
  in
  let live i = is_unknown.(i) || gold.(i) <> unseen in
  let pw = fbuf () and un = fbuf () in
  List.iter
    (fun f ->
      match f with
      | Graph.Pairwise { a; b; rel; mult } -> (
          match Symbols.find_rel m.syms rel with
          | Some r when live a && live b -> push pw a b r mult
          | _ -> ())
      | Graph.Unary { n = i; rel; mult } -> (
          match Symbols.find_rel m.syms rel with
          | Some r when live i -> push un i i r mult
          | _ -> ()))
    g.Graph.factors;
  assemble_bufs ~names ~unseen ~gold ~is_unknown pw un

(* Factor merge for [Builder]: dense ids for (k1, k2) int keys in
   first-sight order, by linear probing over one flat array of
   (k1, k2, id) triples — a factor occurrence costs one hash of two
   ints and one cache line, and allocates nothing. *)
module Merge = struct
  type t = {
    mutable slots : int array;  (* k1, k2, id per slot; id -1 = empty *)
    mutable mask : int;
    mutable n : int;
  }

  let make cap =
    let slots = Array.make (3 * cap) 0 in
    for i = 0 to cap - 1 do
      slots.((3 * i) + 2) <- -1
    done;
    { slots; mask = cap - 1; n = 0 }

  let[@inline] start mask k1 k2 =
    (((k1 * 0x2545F4914F6CDD1D) + k2) * 0x2545F4914F6CDD1D) lsr 20 land mask

  (* The slot index holding (k1, k2), or the empty one ending its run. *)
  let rec probe slots mask k1 k2 i =
    let j = Array.unsafe_get slots ((3 * i) + 2) in
    if
      j < 0
      || Array.unsafe_get slots (3 * i) = k1
         && Array.unsafe_get slots ((3 * i) + 1) = k2
    then i
    else probe slots mask k1 k2 ((i + 1) land mask)

  let set slots i k1 k2 id =
    slots.(3 * i) <- k1;
    slots.((3 * i) + 1) <- k2;
    slots.((3 * i) + 2) <- id

  let rehash t =
    let old = t.slots in
    let fresh = make (2 * (t.mask + 1)) in
    t.slots <- fresh.slots;
    t.mask <- fresh.mask;
    for i = 0 to (Array.length old / 3) - 1 do
      let j = old.((3 * i) + 2) in
      if j >= 0 then begin
        let k1 = old.(3 * i) and k2 = old.((3 * i) + 1) in
        set t.slots (probe t.slots t.mask k1 k2 (start t.mask k1 k2)) k1 k2 j
      end
    done

  (* One spare table for the next build to take, whichever thread or
     domain gets it first (a concurrent build makes its own): a large
     graph's table is hundreds of KB, and allocating and regrowing it
     for every build cost about as much as its probes. Tables past
     2^16 slots are not kept. *)
  let spare = Atomic.make None

  let take () =
    match Atomic.exchange spare None with
    | Some t ->
        for i = 0 to t.mask do
          t.slots.((3 * i) + 2) <- -1
        done;
        t.n <- 0;
        t
    | None -> make 256

  let give t = if t.mask < 1 lsl 16 then Atomic.set spare (Some t)

  (* The id of (k1, k2); a key seen for the first time gets id [n]. *)
  let find_or_add t k1 k2 =
    let i = probe t.slots t.mask k1 k2 (start t.mask k1 k2) in
    let j = t.slots.((3 * i) + 2) in
    if j >= 0 then j
    else begin
      set t.slots i k1 k2 t.n;
      t.n <- t.n + 1;
      if 2 * t.n > t.mask then rehash t;
      t.n - 1
    end
end

module Builder = struct
  type t = {
    syms : Symbols.t;
    unseen : int;
    mutable names : string array;
    mutable gold : int array;
    mutable unk : bool array;
    mutable n : int;
    pw : fbuf;
    pw_ids : Merge.t;  (* ((a lsl 24) lor rel, b) -> pw index *)
    un : fbuf;
    un_ids : Merge.t;  (* ((n lsl 24) lor rel, 0) -> un index *)
  }

  let create syms =
    {
      syms;
      unseen = Symbols.num_labels syms;
      names = [||];
      gold = [||];
      unk = [||];
      n = 0;
      pw = fbuf ();
      pw_ids = Merge.take ();
      un = fbuf ();
      un_ids = Merge.make 64;
    }

  let node t ~gold ~unknown =
    let n = t.n in
    t.names <- grow t.names n "";
    t.gold <- grow t.gold n 0;
    t.unk <- grow t.unk n false;
    t.names.(n) <- gold;
    t.gold.(n) <- label_id t.syms ~unseen:t.unseen gold;
    t.unk.(n) <- unknown;
    t.n <- n + 1

  (* [encode]'s rule for unseen strings: the factor is left out. *)
  let live t i = t.unk.(i) || t.gold.(i) <> t.unseen

  let add f ids k1 k2 a b rel =
    let id = Merge.find_or_add ids k1 k2 in
    if id = f.len then push f a b rel 1 else f.fm.(id) <- f.fm.(id) + 1

  let pairwise t ~a ~b ~rel =
    if rel >= 0 && live t a && live t b then
      add t.pw t.pw_ids ((a lsl 24) lor rel) b a b rel

  let unary t ~n ~rel =
    if rel >= 0 && live t n then add t.un t.un_ids ((n lsl 24) lor rel) 0 n n rel

  let finish t =
    Merge.give t.pw_ids;
    assemble_bufs ~names:(Array.sub t.names 0 t.n) ~unseen:t.unseen
      ~gold:(Array.sub t.gold 0 t.n) ~is_unknown:(Array.sub t.unk 0 t.n) t.pw
      t.un
end

type init_style = No_init | Log_counts | Naive_bayes
type trainer = Structured | Pseudolikelihood | Pl_gradient | Mixed
type engine = Incremental | Full_rescore

type config = {
  max_candidates : int;
  max_passes : int;
  seed : int;
  iterations : int;
  averaged : bool;
  init : init_style;
  init_scale : float;
  init_min_count : int;
  trainer : trainer;
  engine : engine;
}

let default_config =
  {
    max_candidates = 24;
    max_passes = 8;
    seed = 17;
    iterations = 6;
    averaged = true;
    init = Log_counts;
    init_scale = 0.5;
    init_min_count = 2;
    trainer = Pseudolikelihood;
    engine = Incremental;
  }

let node_score m eg n assignment l =
  let s = ref (get m.bias l) in
  Array.iter
    (fun fi ->
      let a = eg.pw_a.(fi) and b = eg.pw_b.(fi) in
      let la = if a = n then l else assignment.(a) in
      let lb = if b = n then l else assignment.(b) in
      s := !s +. (eg.pw_mult.(fi) *. get m.pw (pw_key la eg.pw_rel.(fi) lb)))
    eg.touch_pw.(n);
  Array.iter
    (fun fi -> s := !s +. (eg.un_mult.(fi) *. get m.un (un_key l eg.un_rel.(fi))))
    eg.touch_un.(n);
  !s

(* The working memory of MAP inference, reused across graphs: the
   candidate slate, the Scorer's contribution cells and per-slot
   bookkeeping (flat arrays, with per-slot offsets), and the dense
   label map its row fill reads. One spare waits for the next graph,
   whichever thread or domain gets it first (a concurrent run makes
   its own), and is given back only when a run completes, since the
   label map must be all -1 at rest. An array too small for a graph,
   or for a model's label count, is replaced by a larger one; a spare
   whose cells outgrew [max_cells] is not kept. The pseudolikelihood
   passes score a graph with an arena too (its label map, [next] and
   [score]), from the same spare. *)
module Arena = struct
  type t = {
    slate : Candidates.slate;
    mutable first : int array;
        (* per label id: the first position of that label among the
           candidates of the slot being filled; -1 at rest *)
    mutable next : int array;
        (* per candidate position: the next one with the same label,
           -1 ending the chain *)
    mutable cells : float array;
        (* slot [i]'s contribution cells from [coff.(i)], column-major:
           column [j] holds [nc] cells from [coff.(i) + j * nc] *)
    mutable score : float array;  (* per candidate, from [soff.(i)] *)
    mutable bias : float array;  (* likewise: its bias weight *)
    mutable seen : int array;
        (* per pairwise column, from [poff.(i)]: the neighbour label it
           was computed against; -1 = never *)
    mutable nbr : int array;  (* likewise: its neighbour node *)
    mutable soff : int array;  (* per slot, and one past the last *)
    mutable poff : int array;
    mutable coff : int array;
    mutable dirty : bool array;  (* per slot *)
  }

  let make () =
    {
      slate = Candidates.slate ();
      first = [||];
      next = [||];
      cells = [||];
      score = [||];
      bias = [||];
      seen = [||];
      nbr = [||];
      soff = [||];
      poff = [||];
      coff = [||];
      dirty = [||];
    }

  let max_cells = 1 lsl 20
  let spare = Atomic.make None

  let take () =
    match Atomic.exchange spare None with Some a -> a | None -> make ()

  let give a =
    if Array.length a.cells <= max_cells then Atomic.set spare (Some a)

  (* Room for [n]; contents are not kept. *)
  let ints x n =
    if Array.length x >= n then x else Array.make (max n (2 * Array.length x)) 0

  let floats x n =
    if Array.length x >= n then x
    else Array.create_float (max n (2 * Array.length x))

  (* A label map covering a model's [n] label ids. *)
  let labels a n = if Array.length a.first < n then a.first <- Array.make n (-1)

  (* Load a slot's candidates into the label map, so a row entry finds
     every position of its label; [unload] restores the all -1 rest. *)
  let load a cs =
    for c = Array.length cs - 1 downto 0 do
      let l = cs.(c) in
      a.next.(c) <- a.first.(l);
      a.first.(l) <- c
    done

  let unload a cs =
    for c = 0 to Array.length cs - 1 do
      a.first.(cs.(c)) <- -1
    done
end

(* Incremental ICM scorer: caches every candidate's per-factor score
   contributions so a sweep only pays for what actually changed.

   Invariant: for a slot [i] that is not dirty, its cached scores are
   bit-identical to [node_score m eg n assignment cand.(i).(c)] run
   fresh against the current assignment. This is exact, not
   approximate: each pairwise column caches the neighbor label it was
   computed against ([seen]); a refresh recomputes exactly the columns
   whose neighbor changed, each entry [mult *. w] as [node_score]
   computes it, then resums all columns in [node_score]'s exact
   operation order (bias, pairwise in touch order, unary in touch
   order). Unary columns and the bias depend only on the candidate
   label and are filled once — weights are frozen during inference.

   Columns are filled from the model's rows: zero the column, then
   write [mult *. w] for each entry of the factor's row at every
   candidate position of its label, found through the arena's dense
   label map (loaded with the slot's candidates before its first fill,
   cleared after). An absent key's [get] is [0.] and every [mult] is a
   positive count, so [mult *. 0.] is the [+0.] already there and the
   bits match a fill by [get]. Biases are read by [get], one per
   candidate. Cells are not zeroed at create: unary columns are filled
   there, pairwise columns at their first refresh ([seen] = -1 forces
   it).

   A slot's own label never enters its own candidate scores
   ([Graph.make] rejects self-loop pairwise factors), so flipping slot
   [k] stales exactly the slots in [eg.nbr.(k)] — everything else may
   be skipped by a sweep with no effect on the result. *)
module Scorer = struct
  type t = {
    m : model;
    eg : egraph;
    cand : int array array;
    assignment : int array;
    a : Arena.t;
  }

  let make (a : Arena.t) (m : model) eg cand assignment =
    ensure_rows m;
    let k = Array.length eg.unknown in
    a.soff <- Arena.ints a.soff (k + 1);
    a.poff <- Arena.ints a.poff (k + 1);
    a.coff <- Arena.ints a.coff (k + 1);
    let ns = ref 0 and np = ref 0 and ncl = ref 0 and widest = ref 0 in
    for i = 0 to k - 1 do
      let n = eg.unknown.(i) in
      let nc = Array.length cand.(i) in
      let p = Array.length eg.touch_pw.(n)
      and u = Array.length eg.touch_un.(n) in
      a.soff.(i) <- !ns;
      a.poff.(i) <- !np;
      a.coff.(i) <- !ncl;
      ns := !ns + nc;
      np := !np + p;
      ncl := !ncl + (nc * (p + u));
      if nc > !widest then widest := nc
    done;
    a.soff.(k) <- !ns;
    a.poff.(k) <- !np;
    a.coff.(k) <- !ncl;
    a.cells <- Arena.floats a.cells !ncl;
    a.score <- Arena.floats a.score !ns;
    a.bias <- Arena.floats a.bias !ns;
    a.seen <- Arena.ints a.seen !np;
    a.nbr <- Arena.ints a.nbr !np;
    a.next <- Arena.ints a.next !widest;
    if Array.length a.dirty < k then
      a.dirty <- Array.make (max k (2 * Array.length a.dirty)) true;
    Arena.labels a (Symbols.num_labels m.syms + 1);
    let cells = a.cells and first = a.first and next = a.next in
    for i = 0 to k - 1 do
      let n = eg.unknown.(i) in
      let tp = eg.touch_pw.(n) and tu = eg.touch_un.(n) in
      let np = Array.length tp and nu = Array.length tu in
      let cs = cand.(i) in
      let nc = Array.length cs in
      let s0 = a.soff.(i) and p0 = a.poff.(i) and c0 = a.coff.(i) in
      for j = 0 to np - 1 do
        let fi = tp.(j) in
        a.nbr.(p0 + j) <-
          (if eg.pw_a.(fi) = n then eg.pw_b.(fi) else eg.pw_a.(fi));
        a.seen.(p0 + j) <- -1
      done;
      for c = 0 to nc - 1 do
        a.bias.(s0 + c) <- get m.bias cs.(c)
      done;
      a.dirty.(i) <- true;
      if nu > 0 then begin
        Arena.load a cs;
        for j = 0 to nu - 1 do
          let fi = tu.(j) in
          let base = c0 + ((np + j) * nc) in
          Array.fill cells base nc 0.;
          Itbl.scatter m.un 0
            (un_key 0 eg.un_rel.(fi))
            ~first ~next cells ~off:base ~mult:eg.un_mult.(fi)
        done;
        Arena.unload a cs
      end
    done;
    { m; eg; cand; assignment; a }

  let create m eg cand assignment = make (Arena.make ()) m eg cand assignment

  let refresh t i =
    let eg = t.eg and a = t.a in
    let n = eg.unknown.(i) in
    let tp = eg.touch_pw.(n) in
    let cs = t.cand.(i) in
    let s0 = a.soff.(i) and p0 = a.poff.(i) and c0 = a.coff.(i) in
    let nc = a.soff.(i + 1) - s0 and np = a.poff.(i + 1) - p0 in
    let cols = np + Array.length eg.touch_un.(n) in
    let cells = a.cells and seen = a.seen and nbr = a.nbr in
    let loaded = ref false in
    for j = 0 to np - 1 do
      let cur = t.assignment.(Array.unsafe_get nbr (p0 + j)) in
      if Array.unsafe_get seen (p0 + j) <> cur then begin
        Array.unsafe_set seen (p0 + j) cur;
        let fi = Array.unsafe_get tp j in
        let rel = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
        let base = c0 + (j * nc) in
        if not !loaded then begin
          Arena.load a cs;
          loaded := true
        end;
        Array.fill cells base nc 0.;
        if eg.pw_a.(fi) = n then
          Itbl.scatter t.m.pw by_rel_lb (pw_key 0 rel cur) ~first:a.first
            ~next:a.next cells ~off:base ~mult
        else
          Itbl.scatter t.m.pw by_la_rel (pw_key cur rel 0) ~first:a.first
            ~next:a.next cells ~off:base ~mult
      end
    done;
    if !loaded then Arena.unload a cs;
    (* Each candidate's sum adds its bias, then its cells in column
       order — [node_score]'s order, so its bits — in a register. *)
    let score = a.score and bias = a.bias in
    for c = 0 to nc - 1 do
      let acc = ref (Array.unsafe_get bias (s0 + c)) and p = ref (c0 + c) in
      for _ = 1 to cols do
        acc := !acc +. Array.unsafe_get cells !p;
        p := !p + nc
      done;
      Array.unsafe_set score (s0 + c) !acc
    done;
    a.dirty.(i) <- false

  let is_dirty t i = t.a.dirty.(i)

  let scores t i =
    if t.a.dirty.(i) then refresh t i;
    let s0 = t.a.soff.(i) in
    Array.sub t.a.score s0 (t.a.soff.(i + 1) - s0)

  (* Same argmax as the full-rescore path: first strictly-greater
     candidate wins, ties keep the earlier candidate, an empty set
     keeps the current label. *)
  let best t i =
    let a = t.a in
    let n = t.eg.unknown.(i) in
    let cs = t.cand.(i) in
    if Array.length cs = 0 then begin
      a.dirty.(i) <- false;
      t.assignment.(n)
    end
    else begin
      if a.dirty.(i) then refresh t i;
      let s0 = a.soff.(i) and score = a.score in
      let best = ref t.assignment.(n) and best_score = ref neg_infinity in
      for c = 0 to Array.length cs - 1 do
        let s = Array.unsafe_get score (s0 + c) in
        if s > !best_score then begin
          best_score := s;
          best := Array.unsafe_get cs c
        end
      done;
      !best
    end

  let set_label t i l =
    let n = t.eg.unknown.(i) in
    if t.assignment.(n) <> l then begin
      t.assignment.(n) <- l;
      let dirty = t.a.dirty and nb = t.eg.nbr.(i) in
      for j = 0 to Array.length nb - 1 do
        dirty.(nb.(j)) <- true
      done
    end
end

let shuffle rng arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Candidate label ids for every unknown node, from the arena's slate;
   gold appended when [force_gold] (training), so the target is
   reachable but never wins score ties. [cands] shares the model's
   symbol table, so its ids are the engine's ids directly, and the
   encoded graph already carries resolved rel and gold-label ids, so
   evidence merging is pure int work. *)
let candidates_in (a : Arena.t) cfg cands eg ~force_gold =
  let sl = a.slate in
  Array.map
    (fun n ->
      Candidates.slate_begin sl cands;
      let tu = eg.touch_un.(n) and tp = eg.touch_pw.(n) in
      for j = 0 to Array.length tu - 1 do
        Candidates.merge_unary_id sl cands eg.un_rel.(tu.(j))
      done;
      for j = 0 to Array.length tp - 1 do
        let fi = tp.(j) in
        let a = eg.pw_a.(fi) and b = eg.pw_b.(fi) in
        if a = n then begin
          if not eg.is_unknown.(b) then
            Candidates.merge_pairwise_id sl cands ~dir:0 ~rel:eg.pw_rel.(fi)
              ~other:eg.gold.(b)
        end
        else if not eg.is_unknown.(a) then
          Candidates.merge_pairwise_id sl cands ~dir:1 ~rel:eg.pw_rel.(fi)
            ~other:eg.gold.(a)
      done;
      let ids = Candidates.slate_ranked sl cands ~max:cfg.max_candidates in
      let g = eg.gold.(n) in
      if force_gold && not (Array.exists (fun l -> l = g) ids) then
        Array.append ids [| g |]
      else ids)
    eg.unknown

let candidate_ids cfg cands _m eg ~force_gold =
  let a = Arena.take () in
  let cand = candidates_in a cfg cands eg ~force_gold in
  Arena.give a;
  cand

let map_assignment ?cand cfg cands m eg ~force_gold ~seed =
  let rng = Random.State.make [| seed |] in
  let arena = Arena.take () in
  let cand =
    match cand with
    | Some c -> c
    | None -> candidates_in arena cfg cands eg ~force_gold
  in
  let default =
    match Candidates.global_top_ids cands 1 with
    | [ l ] -> l
    | _ -> label_id m.syms ~unseen:eg.unseen "?"
  in
  let assignment =
    Array.mapi
      (fun i g -> if eg.is_unknown.(i) then default else g)
      eg.gold
  in
  (* Start every unknown at its top count-ranked candidate (an
     evidence-based guess), not at the one global default: coordinate
     ascent from an all-identical start can stick in poor fixpoints. *)
  Array.iteri
    (fun i n ->
      if Array.length cand.(i) > 0 then assignment.(n) <- cand.(i).(0))
    eg.unknown;
  let order = Array.init (Array.length eg.unknown) Fun.id in
  let changed = ref true and passes = ref 0 in
  (match cfg.engine with
  | Full_rescore ->
      (* Reference engine: rescore every candidate of every node from
         scratch, every sweep. Kept verbatim as the golden baseline the
         incremental engine is tested byte-identical against. *)
      let best i n =
        let cs = cand.(i) in
        if Array.length cs = 0 then assignment.(n)
        else begin
          let best = ref assignment.(n) and best_score = ref neg_infinity in
          Array.iter
            (fun l ->
              let s = node_score m eg n assignment l in
              if s > !best_score then begin
                best_score := s;
                best := l
              end)
            cs;
          !best
        end
      in
      Array.iteri (fun i n -> assignment.(n) <- best i n) eg.unknown;
      while !changed && !passes < cfg.max_passes do
        changed := false;
        incr passes;
        shuffle rng order;
        Array.iter
          (fun i ->
            let n = eg.unknown.(i) in
            let l = best i n in
            if l <> assignment.(n) then begin
              assignment.(n) <- l;
              changed := true
            end)
          order
      done
  | Incremental ->
      (* Delta engine, exact by construction (see {!Scorer}): a clean
         slot's cached argmax is its current label, so sweeps evaluate
         only slots whose neighborhood changed — the flip sequence,
         pass count and rng consumption match Full_rescore move for
         move, making the result byte-identical. *)
      let sc = Scorer.make arena m eg cand assignment in
      Array.iteri
        (fun i n ->
          let l = Scorer.best sc i in
          if l <> assignment.(n) then Scorer.set_label sc i l)
        eg.unknown;
      while !changed && !passes < cfg.max_passes do
        changed := false;
        incr passes;
        shuffle rng order;
        Array.iter
          (fun i ->
            if Scorer.is_dirty sc i then begin
              let n = eg.unknown.(i) in
              let l = Scorer.best sc i in
              if l <> assignment.(n) then begin
                Scorer.set_label sc i l;
                changed := true
              end
            end)
          order
      done);
  Arena.give arena;
  assignment

(* Perceptron update: +1 on gold features, -1 on predicted features,
   per factor occurrence, restricted to factors touching an unknown.
   Writes go to [wr]: the model itself when training sequentially, a
   per-domain delta when a parallel pass accumulates updates. *)
let update wr eg ~gold ~pred =
  let t = float_of_int wr.steps in
  let upd_pw k d =
    add wr.pw k d;
    add wr.pw_u k (t *. d)
  in
  let upd_un k d =
    add wr.un k d;
    add wr.un_u k (t *. d)
  in
  let upd_bias k d =
    add wr.bias k d;
    add wr.bias_u k (t *. d)
  in
  Array.iteri
    (fun fi a ->
      let b = eg.pw_b.(fi) in
      if eg.is_unknown.(a) || eg.is_unknown.(b) then begin
        let r = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
        let kg = pw_key gold.(a) r gold.(b) and kp = pw_key pred.(a) r pred.(b) in
        if kg <> kp then begin
          upd_pw kg mult;
          upd_pw kp (-.mult)
        end
      end)
    eg.pw_a;
  Array.iteri
    (fun fi i ->
      if eg.is_unknown.(i) then begin
        let r = eg.un_rel.(fi) and mult = eg.un_mult.(fi) in
        if gold.(i) <> pred.(i) then begin
          upd_un (un_key gold.(i) r) mult;
          upd_un (un_key pred.(i) r) (-.mult)
        end
      end)
    eg.un_n;
  Array.iter
    (fun n ->
      if gold.(n) <> pred.(n) then begin
        upd_bias gold.(n) 1.;
        upd_bias pred.(n) (-1.)
      end)
    eg.unknown

(* A slot's candidate scores for the pseudolikelihood passes, every
   other node at its gold label, from the model's rows: [score.(c)] is
   [cs.(c)]'s (in the arena, valid until its next use). Each sum runs in
   [node_score]'s order — the bias (by [get]), the pairwise columns in
   touch order, then the unary ones — but adds only the weights that
   are present. Skipping an absent weight's [+. 0.] can change only the
   sign of a zero sum, which neither a [>] comparison nor
   [exp (s -. mx)] can see, so training makes the same updates as with
   [node_score]. *)
let slot_scores (a : Arena.t) m eg n cs =
  let gold = eg.gold and nc = Array.length cs in
  a.next <- Arena.ints a.next nc;
  a.score <- Arena.floats a.score nc;
  Arena.labels a (Symbols.num_labels m.syms + 1);
  let first = a.first and next = a.next and score = a.score in
  for c = 0 to nc - 1 do
    score.(c) <- get m.bias cs.(c)
  done;
  Arena.load a cs;
  let tp = eg.touch_pw.(n) in
  for j = 0 to Array.length tp - 1 do
    let fi = tp.(j) in
    let rel = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
    if eg.pw_a.(fi) = n then
      Itbl.scatter_add m.pw by_rel_lb
        (pw_key 0 rel gold.(eg.pw_b.(fi)))
        ~first ~next score ~off:0 ~mult
    else
      Itbl.scatter_add m.pw by_la_rel
        (pw_key gold.(eg.pw_a.(fi)) rel 0)
        ~first ~next score ~off:0 ~mult
  done;
  let tu = eg.touch_un.(n) in
  for j = 0 to Array.length tu - 1 do
    let fi = tu.(j) in
    Itbl.scatter_add m.un 0
      (un_key 0 eg.un_rel.(fi))
      ~first ~next score ~off:0 ~mult:eg.un_mult.(fi)
  done;
  Arena.unload a cs;
  score

(* [slot_scores], or under [Full_rescore] the reference: one
   [node_score] per candidate. *)
let pl_scores engine a m eg n cs =
  match engine with
  | Incremental -> slot_scores a m eg n cs
  | Full_rescore -> Array.map (node_score m eg n eg.gold) cs

(* Mistake-driven pseudolikelihood perceptron: each unknown node is
   scored with every other node clamped to gold; a wrong local argmax
   updates only the factors touching that node. Pairwise weights are
   thus estimated against correct neighborhoods — far more stable than
   learning from the joint MAP's own mistakes — while test-time
   inference stays joint (ICM). Cf. the pseudolikelihood training
   classically used for CRFs. Scores read [rd], updates land in [wr];
   sequential training passes the same model for both (updates are
   visible immediately, the historical behavior), parallel passes read
   the round-start model and write a delta. *)
let pseudo_perceptron_pass ~engine ~rd ~wr eg ~cand =
  let gold = eg.gold in
  let arena = Arena.take () in
  Array.iteri
    (fun i n ->
      let cs = cand.(i) in
      if Array.length cs > 0 then begin
        wr.steps <- wr.steps + 1;
        let score = pl_scores engine arena rd eg n cs in
        let best = ref gold.(n) and best_score = ref neg_infinity in
        for c = 0 to Array.length cs - 1 do
          if score.(c) > !best_score then begin
            best_score := score.(c);
            best := cs.(c)
          end
        done;
        let p = !best in
        if p <> gold.(n) then begin
          let t = float_of_int wr.steps in
          let upd tbl tbl_u k d =
            add tbl k d;
            add tbl_u k (t *. d)
          in
          Array.iter
            (fun fi ->
              let a = eg.pw_a.(fi) and b = eg.pw_b.(fi) in
              let r = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
              let kg = pw_key gold.(a) r gold.(b) in
              let kp =
                pw_key
                  (if a = n then p else gold.(a))
                  r
                  (if b = n then p else gold.(b))
              in
              if kg <> kp then begin
                upd wr.pw wr.pw_u kg mult;
                upd wr.pw wr.pw_u kp (-.mult)
              end)
            eg.touch_pw.(n);
          Array.iter
            (fun fi ->
              let r = eg.un_rel.(fi) and mult = eg.un_mult.(fi) in
              upd wr.un wr.un_u (un_key gold.(n) r) mult;
              upd wr.un wr.un_u (un_key p r) (-.mult))
            eg.touch_un.(n);
          upd wr.bias wr.bias_u gold.(n) 1.;
          upd wr.bias wr.bias_u p (-1.)
        end
      end)
    eg.unknown;
  Arena.give arena

let pseudo_gradient_pass ~engine ~rd ~wr eg ~cand ~lr =
  let gold = eg.gold in
  let arena = Arena.take () in
  Array.iteri
    (fun i n ->
      let cs = cand.(i) in
      if Array.length cs > 0 then begin
        wr.steps <- wr.steps + 1;
        (* Softmax over the candidate set with every other node clamped
           to gold: a true pseudolikelihood gradient step. Unlike a
           perceptron update, the gradient is frequency-consistent — on
           inherently ambiguous examples (name synonyms) the weights
           converge to log-odds rather than oscillating between the
           synonyms. The gold label joins the set when absent. *)
        let cs =
          if Array.exists (fun l -> l = gold.(n)) cs then cs
          else Array.append cs [| gold.(n) |]
        in
        let k = Array.length cs in
        let scores = pl_scores engine arena rd eg n cs in
        let mx = ref neg_infinity in
        for j = 0 to k - 1 do
          mx := Float.max !mx scores.(j)
        done;
        let exps = Array.init k (fun j -> exp (scores.(j) -. !mx)) in
        let z = Array.fold_left ( +. ) 0. exps in
        let apply_l l coeff =
          (* coeff = lr * (1[l = gold] - P(l)) *)
          if Float.abs coeff > 1e-6 then begin
            Array.iter
              (fun fi ->
                let a = eg.pw_a.(fi) and b = eg.pw_b.(fi) in
                let r = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
                let key =
                  pw_key (if a = n then l else gold.(a)) r
                    (if b = n then l else gold.(b))
                in
                add wr.pw key (coeff *. mult))
              eg.touch_pw.(n);
            Array.iter
              (fun fi ->
                add wr.un (un_key l eg.un_rel.(fi)) (coeff *. eg.un_mult.(fi)))
              eg.touch_un.(n);
            add wr.bias l coeff
          end
        in
        Array.iteri
          (fun j l ->
            let p = exps.(j) /. z in
            let target = if l = gold.(n) then 1. else 0. in
            apply_l l (lr *. (target -. p)))
          cs
      end)
    eg.unknown;
  Arena.give arena

let finalize_average m =
  if m.steps > 0 then begin
    let t = float_of_int m.steps in
    Itbl.iter (fun k u -> add m.pw k (-.u /. t)) m.pw_u;
    Itbl.iter (fun k u -> add m.un k (-.u /. t)) m.un_u;
    Itbl.iter (fun k u -> add m.bias k (-.u /. t)) m.bias_u
  end

(* Initialize weights from log(1 + co-occurrence count) of each gold
   feature. The perceptron then refines discriminatively: features it
   never has to correct keep their generative estimate, which
   generalizes far better on sparse full-path relations than starting
   from zero. *)
let bump_count tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

(* Gold-feature co-occurrence counts over egs.(lo..hi) — pure per
   range, so ranges fan out across domains and merge in range order. *)
let count_range egs lo hi =
  let pw_c = Hashtbl.create 65536 in
  let un_c = Hashtbl.create 16384 in
  let bias_c = Hashtbl.create 512 in
  for g = lo to hi do
    let eg = egs.(g) in
    Array.iteri
      (fun fi a ->
        let b = eg.pw_b.(fi) in
        if eg.is_unknown.(a) || eg.is_unknown.(b) then
          bump_count pw_c
            (pw_key eg.gold.(a) eg.pw_rel.(fi) eg.gold.(b))
            eg.pw_mult.(fi))
      eg.pw_a;
    Array.iteri
      (fun fi i ->
        if eg.is_unknown.(i) then
          bump_count un_c (un_key eg.gold.(i) eg.un_rel.(fi)) eg.un_mult.(fi))
      eg.un_n;
    Array.iter (fun n -> bump_count bias_c eg.gold.(n) 1.) eg.unknown
  done;
  (pw_c, un_c, bias_c)

(* Turn accumulated gold-feature counts into initial weights. Split
   from the counting so the out-of-core path can merge per-shard
   counts into one accumulator before applying — count tables are
   O(features), never O(corpus). Per-key application order is
   irrelevant: each key is set once. *)
let apply_init m (pw_c, un_c, bias_c) ~style ~scale ~min_count =
  (* Naive-Bayes-style conditional estimates: a relation feature's
     weight is log P(feature | label) up to a label-independent
     constant — log(1+c(label,feature)) − log(1+c(label)) — and the
     bias is log(1+c(label)), the label prior. Without the −log c(l)
     normalization, frequent labels would get inflated weights on
     *every* feature, double-counting the prior once per factor.
     Features below the count threshold never enter the model: at this
     corpus scale, once-seen full paths (typically accidental
     cross-template spans) are pure variance. *)
  let label_total l =
    match style with
    | Naive_bayes -> 1. +. Option.value (Hashtbl.find_opt bias_c l) ~default:0.
    | _ -> 1.
  in
  let mc = float_of_int min_count in
  Hashtbl.iter
    (fun k c ->
      if c >= mc then begin
        (* A pairwise feature conditions on either end depending on
           which node is being scored; normalize by both labels'
           priors, averaged. *)
        let la = k lsr 42 and lb = k land 0x3FFFF in
        let norm = 0.5 *. (log (label_total la) +. log (label_total lb)) in
        add m.pw k (scale *. (log (1. +. c) -. norm))
      end)
    pw_c;
  Hashtbl.iter
    (fun k c ->
      if c >= mc then
        let l = k lsr 24 in
        add m.un k (scale *. (log (1. +. c) -. log (label_total l))))
    un_c;
  Hashtbl.iter (fun k c -> add m.bias k (scale *. log (1. +. c))) bias_c

let init_from_counts ?pool m egs ~style ~scale ~min_count =
  let jobs = match pool with Some p -> Parallel.jobs p | None -> 1 in
  let n = Array.length egs in
  let counts =
    if jobs <= 1 || n <= 1 then count_range egs 0 (n - 1)
    else begin
      let parts =
        Parallel.map ?pool
          (fun (lo, hi) -> count_range egs lo hi)
          (Parallel.chunk_ranges ~chunks:jobs n)
      in
      let pw_c = Hashtbl.create 65536 in
      let un_c = Hashtbl.create 16384 in
      let bias_c = Hashtbl.create 512 in
      Array.iter
        (fun (pw, un, bias) ->
          Hashtbl.iter (bump_count pw_c) pw;
          Hashtbl.iter (bump_count un_c) un;
          Hashtbl.iter (bump_count bias_c) bias)
        parts;
      (pw_c, un_c, bias_c)
    end
  in
  apply_init m counts ~style ~scale ~min_count

let mode_of cfg it =
  match cfg.trainer with
  | Structured -> `Structured
  | Pseudolikelihood -> `Pl
  | Pl_gradient -> `Grad
  | Mixed -> if it >= cfg.iterations - 2 then `Structured else `Pl

(* One graph's contribution to one pass. Reads weights from [rd],
   writes updates (and step advances) into [wr]. *)
let run_graph_pass cfg cands ~rd ~wr ~mode ~it ~cand eg =
  match mode with
  | `Pl -> pseudo_perceptron_pass ~engine:cfg.engine ~rd ~wr eg ~cand
  | `Grad -> pseudo_gradient_pass ~engine:cfg.engine ~rd ~wr eg ~cand ~lr:0.2
  | `Structured ->
      (* Time advances once per example — the textbook averaged
         perceptron; counting only mistakes would under-weight
         the stable consensus in the average. *)
      wr.steps <- wr.steps + 1;
      let pred =
        map_assignment ~cand cfg cands rd eg ~force_gold:true
          ~seed:(cfg.seed + it)
      in
      if pred <> eg.gold then update wr eg ~gold:eg.gold ~pred

(* How many time steps a graph consumes in one pass — known up front
   (it depends only on the candidate cache), which is what lets a
   parallel pass hand every graph the exact step number the sequential
   pass order would have given it. *)
let steps_of_graph mode ~cand =
  match mode with
  | `Structured -> 1
  | `Pl | `Grad ->
      Array.fold_left
        (fun acc cs -> if Array.length cs > 0 then acc + 1 else acc)
        0 cand

(* Graphs processed per domain between two merge barriers of a
   parallel pass. Small keeps the weights nearly as fresh as online
   training (staleness is bounded by jobs * this); large amortizes the
   barrier. 4 measured well on synthetic corpora. *)
let round_graphs_per_domain = 4

(* One shuffled pass over [order] (indices into [egs]/[cand_cache]).
   Shared by the in-memory trainer (order spans the whole corpus) and
   the streaming trainer (order spans one shard), so both produce the
   same update sequence for the same order. *)
let run_pass ?pool cfg cands m ~mode ~it ~egs ~cand_cache ~order =
  let jobs = match pool with Some p -> Parallel.jobs p | None -> 1 in
  let n = Array.length order in
  if jobs <= 1 || n <= 1 then
    Array.iter
      (fun gi ->
        run_graph_pass cfg cands ~rd:m ~wr:m ~mode ~it ~cand:cand_cache.(gi)
          egs.(gi))
      order
  else begin
    (* Parallel pass: synchronized rounds over the shuffled order.
       Each domain trains a contiguous slice of the round against
       the weights as of the round barrier (a synchronous-minibatch
       view of the same objective), writing into a private delta;
       deltas merge in slice order, and each graph is assigned the
       step number the sequential pass order would have given it —
       so the run is reproducible for a fixed job count, and the
       averaged-perceptron clock is unchanged. *)
    let prefix = Array.make (n + 1) m.steps in
    for k = 0 to n - 1 do
      prefix.(k + 1) <-
        prefix.(k) + steps_of_graph mode ~cand:cand_cache.(order.(k))
    done;
    let per_round = jobs * round_graphs_per_domain in
    let start = ref 0 in
    while !start < n do
      let base = !start in
      let stop = min n (base + per_round) in
      let slices = Parallel.chunk_ranges ~chunks:jobs (stop - base) in
      let deltas =
        Parallel.map ?pool
          (fun (lo, hi) ->
            let wr = delta_of m in
            for k = base + lo to base + hi do
              let gi = order.(k) in
              wr.steps <- prefix.(k);
              run_graph_pass cfg cands ~rd:m ~wr ~mode ~it
                ~cand:cand_cache.(gi) egs.(gi)
            done;
            wr)
          slices
      in
      Array.iter (merge_delta m) deltas;
      m.steps <- prefix.(stop);
      start := stop
    done
  end

let train ?pool cfg cands graphs =
  let m = create ~symbols:(Candidates.symbols cands) () in
  let egs = Array.of_list (List.map (encode m) graphs) in
  (match cfg.init with
  | No_init -> ()
  | (Log_counts | Naive_bayes) as style ->
      init_from_counts ?pool m egs ~style ~scale:cfg.init_scale
        ~min_count:cfg.init_min_count);
  let rng = Random.State.make [| cfg.seed |] in
  (* Candidate sets depend only on the graph and the (static) counts,
     so compute them once per graph, not once per iteration. This also
     front-loads every intern the passes will need, leaving the
     interners read-only during parallel rounds. *)
  let cand_cache =
    Array.map (fun eg -> candidate_ids cfg cands m eg ~force_gold:true) egs
  in
  (* Freeze the candidate table (a query does) before any fan-out. *)
  ignore (Candidates.global_top cands 1);
  let n = Array.length egs in
  for it = 0 to cfg.iterations - 1 do
    let order = Array.init n Fun.id in
    shuffle rng order;
    run_pass ?pool cfg cands m ~mode:(mode_of cfg it) ~it ~egs ~cand_cache
      ~order
  done;
  if cfg.averaged then finalize_average m;
  m

(* {2 Out-of-core training}

   The streaming trainer never holds more than one shard's graphs.
   Within a shard the pass is the same machinery as [train]; across
   shards the only coupling is the weight tables and the step clock,
   both of which a checkpoint captures exactly. Shuffling is per
   (iteration, shard) with an rng *derived* from those coordinates —
   no long-lived rng state survives a shard boundary, so resuming at
   a boundary replays nothing and needs no rng serialization to be
   bit-exact. The trade against [train] is the shuffle radius: graphs
   only mix within their shard, which matters as little as the shard
   size is large. *)

let train_stream ?pool cfg cands ~n_shards ~graphs_of_shard ?from ?on_shard ()
    =
  if n_shards <= 0 then invalid_arg "Fast.train_stream: n_shards must be > 0";
  let m, start_it, start_shard =
    match from with
    | Some (m, it, s) ->
        if s < 0 || s >= n_shards || it < 0 then
          invalid_arg "Fast.train_stream: cursor out of range";
        (m, it, s)
    | None ->
        let m = create ~symbols:(Candidates.symbols cands) () in
        (match cfg.init with
        | No_init -> ()
        | (Log_counts | Naive_bayes) as style ->
            (* Counting pass, one shard at a time; merged counts are
               O(features). Merge order per key is commutative float
               addition in shard order — same order every run. *)
            let pw_c = Hashtbl.create 65536 in
            let un_c = Hashtbl.create 16384 in
            let bias_c = Hashtbl.create 512 in
            for s = 0 to n_shards - 1 do
              let egs =
                Array.of_list (List.map (encode m) (graphs_of_shard s))
              in
              let pw, un, bias = count_range egs 0 (Array.length egs - 1) in
              Hashtbl.iter (bump_count pw_c) pw;
              Hashtbl.iter (bump_count un_c) un;
              Hashtbl.iter (bump_count bias_c) bias
            done;
            apply_init m (pw_c, un_c, bias_c) ~style ~scale:cfg.init_scale
              ~min_count:cfg.init_min_count);
        (m, 0, 0)
  in
  ignore (Candidates.global_top cands 1);
  if start_it < cfg.iterations then
    for it = start_it to cfg.iterations - 1 do
      let mode = mode_of cfg it in
      for s = (if it = start_it then start_shard else 0) to n_shards - 1 do
        let graphs = graphs_of_shard s in
        let egs = Array.of_list (List.map (encode m) graphs) in
        let cand_cache =
          Array.map (fun eg -> candidate_ids cfg cands m eg ~force_gold:true)
            egs
        in
        let n = Array.length egs in
        if n > 0 then begin
          let order = Array.init n Fun.id in
          shuffle (Random.State.make [| cfg.seed; 0x5eed; it; s |]) order;
          run_pass ?pool cfg cands m ~mode ~it ~egs ~cand_cache ~order
        end;
        match on_shard with None -> () | Some f -> f ~it ~shard:s m
      done
    done;
  if cfg.averaged then finalize_average m;
  m

(* Mapped weight tables checksum their file-backed payloads lazily;
   forcing the check at every inference entry point means corruption
   surfaces as a structured diagnostic before any weight is trusted,
   and the hot loops below stay check-free. *)
let verify_tables m =
  Itbl.ensure_verified m.pw;
  Itbl.ensure_verified m.un;
  Itbl.ensure_verified m.bias

let storage m =
  match (Itbl.storage m.pw, Itbl.storage m.un, Itbl.storage m.bias) with
  | `Heap, `Heap, `Heap -> `Heap
  | _ -> `Mapped

(* The first use of a model, once and under one lock: forcing the
   candidate table (a loaded model checksums its sections and reads
   them into the table's flat runs there) and making the query that
   freezes a trained one, checksumming the mapped weight tables and
   building their rows and dense biases (a heap model's tables have
   their rows from [create] on). Forcing a
   [Lazy.t] from two threads at once raises
   [CamlinternalLazy.Undefined]; after this the model and its
   candidates are only read, so any number of threads and domains can
   share them. The rows are built after the checksums, so a reader
   that sees them sees verified tables. *)
let prepare m cands =
  if not (Atomic.get m.prepared) then
    Mutex.protect first_use (fun () ->
        if not (Atomic.get m.prepared) then begin
          ignore (Candidates.global_top_ids (Lazy.force cands) 1);
          verify_tables m;
          build_rows m;
          Atomic.set m.prepared true
        end);
  Lazy.force cands

(* Known nodes keep their own strings; an unknown renders its assigned
   label, where [unseen] (the "?" default of a model that counted no
   labels) renders as "?". *)
let labels_of m eg assignment =
  Array.mapi
    (fun i l ->
      if not eg.is_unknown.(i) then eg.names.(i)
      else if l = eg.unseen then "?"
      else Symbols.label_string m.syms l)
    assignment

let infer cfg cands m eg =
  labels_of m eg
    (map_assignment cfg cands m eg ~force_gold:false ~seed:cfg.seed)

let predict cfg cands m g =
  verify_tables m;
  infer cfg cands m (encode m g)

(* Nothing below writes the model — encoding looks strings up and
   never interns — so whole graphs, encoding included, fan out over
   the pool. Each graph is seeded exactly as [predict] seeds it, and
   results come back in input order: identical output for every job
   count. *)
let predict_batch ?pool cfg cands m graphs =
  verify_tables m;
  Parallel.map_list ?pool (fun g -> infer cfg cands m (encode m g)) graphs

let predict_encoded ?pool cfg cands m egs =
  verify_tables m;
  Parallel.map_list ?pool (infer cfg cands m) egs

let top_k cfg cands m g ~node ~k =
  verify_tables m;
  let eg = encode m g in
  let assignment =
    map_assignment cfg cands m eg ~force_gold:false ~seed:cfg.seed
  in
  let touching = Graph.touching g in
  let cs =
    Candidates.ids_for_node cands g touching.(node) node
      ~max:(max k cfg.max_candidates)
  in
  List.map
    (fun li ->
      (Symbols.label_string m.syms li, node_score m eg node assignment li))
    cs
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < k)

let export_weights m =
  let out = Model.create () in
  let lab = Symbols.label_string m.syms and rel = Symbols.rel_string m.syms in
  Itbl.iter
    (fun key w ->
      if w <> 0. then
        let la = key lsr 42 in
        let r = (key lsr 18) land 0xFFFFFF in
        let lb = key land 0x3FFFF in
        Model.add out (Model.pairwise_feat ~la:(lab la) ~rel:(rel r) ~lb:(lab lb)) w)
    m.pw;
  Itbl.iter
    (fun key w ->
      if w <> 0. then
        let l = key lsr 24 in
        let r = key land 0xFFFFFF in
        Model.add out (Model.unary_feat ~l:(lab l) ~rel:(rel r)) w)
    m.un;
  Itbl.iter
    (fun l w -> if w <> 0. then Model.add out (Model.bias_feat ~l:(lab l)) w)
    m.bias;
  out

type dump = {
  d_labels : string list;
  d_rels : string list;
  d_pw : (int * float) list;
  d_un : (int * float) list;
  d_bias : (int * float) list;
}

(* Key-sorted: the keys sort as an unboxed int array (no generic
   compare on boxed pairs), and the v3 writer emits the list as-is,
   so the canonical on-disk order costs one int sort here. *)
let tbl_list tbl =
  let n = Itbl.length tbl in
  let keys = Array.make (max 1 n) 0 in
  let i = ref 0 in
  Itbl.iter
    (fun k _ ->
      keys.(!i) <- k;
      incr i)
    tbl;
  let keys = if n = Array.length keys then keys else Array.sub keys 0 n in
  Array.sort Int.compare keys;
  Array.fold_right (fun k acc -> (k, Itbl.get tbl k) :: acc) keys []

let dump m =
  let snap = Symbols.snapshot m.syms in
  {
    d_labels = Array.to_list snap.Symbols.s_labels;
    d_rels = Array.to_list snap.Symbols.s_rels;
    d_pw = tbl_list m.pw;
    d_un = tbl_list m.un;
    d_bias = tbl_list m.bias;
  }

let restore d =
  let m = create () in
  List.iter (fun s -> ignore (Symbols.label m.syms s)) d.d_labels;
  List.iter (fun s -> ignore (Symbols.rel m.syms s)) d.d_rels;
  (* Weight keys index the tables above; a key whose unpacked ids fall
     outside them means a mangled file, and would otherwise surface
     much later as a wrong prediction or an array bound. *)
  let nl = Symbols.num_labels m.syms and nr = Symbols.num_rels m.syms in
  let chk what ok k =
    if not ok then Printf.ksprintf failwith "%s weight key %d out of range" what k
  in
  List.iter
    (fun (k, v) ->
      chk "pairwise"
        (k >= 0 && k lsr 42 < nl
        && (k lsr 18) land 0xFFFFFF < nr
        && k land 0x3FFFF < nl)
        k;
      Itbl.set m.pw k v)
    d.d_pw;
  List.iter
    (fun (k, v) ->
      chk "unary" (k >= 0 && k lsr 24 < nl && k land 0xFFFFFF < nr) k;
      Itbl.set m.un k v)
    d.d_un;
  List.iter
    (fun (k, v) ->
      chk "bias" (k >= 0 && k < nl) k;
      Itbl.set m.bias k v)
    d.d_bias;
  m

(* Full trainer state: [dump] plus the averaging accumulators and the
   step clock — everything a mid-training checkpoint needs for the
   resumed run to make bit-identical updates. Values round-trip as
   exact IEEE-754 bits through the v4 checkpoint writer, so restoring
   and continuing equals never having stopped. *)
type full_dump = {
  f_weights : dump;
  f_pw_u : (int * float) list;
  f_un_u : (int * float) list;
  f_bias_u : (int * float) list;
  f_steps : int;
}

let dump_full m =
  {
    f_weights = dump m;
    f_pw_u = tbl_list m.pw_u;
    f_un_u = tbl_list m.un_u;
    f_bias_u = tbl_list m.bias_u;
    f_steps = m.steps;
  }

let restore_full f =
  let m = restore f.f_weights in
  let nl = Symbols.num_labels m.syms and nr = Symbols.num_rels m.syms in
  let chk what ok k =
    if not ok then Printf.ksprintf failwith "%s weight key %d out of range" what k
  in
  List.iter
    (fun (k, v) ->
      chk "pairwise-accumulator"
        (k >= 0 && k lsr 42 < nl
        && (k lsr 18) land 0xFFFFFF < nr
        && k land 0x3FFFF < nl)
        k;
      Itbl.set m.pw_u k v)
    f.f_pw_u;
  List.iter
    (fun (k, v) ->
      chk "unary-accumulator" (k >= 0 && k lsr 24 < nl && k land 0xFFFFFF < nr) k;
      Itbl.set m.un_u k v)
    f.f_un_u;
  List.iter
    (fun (k, v) ->
      chk "bias-accumulator" (k >= 0 && k < nl) k;
      Itbl.set m.bias_u k v)
    f.f_bias_u;
  if f.f_steps < 0 then failwith "negative step counter";
  m.steps <- f.f_steps;
  m

type mapped_table = {
  mt_keys : int array;
  mt_vals : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mt_verify : unit -> unit;
}

(* [restore], but the weight values stay in the mapped file: only the
   symbol tables and the key runs live on the heap. Key validation is
   identical to [restore] — it runs eagerly (the key
   arrays were copied out of the file by the loader), while the float
   payloads are checked lazily by each table's [mt_verify]. *)
let restore_mapped ~labels ~rels ~pw ~un ~bias =
  (* Not [create ()]: its presized training tables (the weight tables
     this function immediately replaces, and the averaging
     accumulators a read-only model never touches) are several MB of
     zeroed arrays — real time on what should be an O(header) load. *)
  let syms = Symbols.create () in
  List.iter (fun s -> ignore (Symbols.label syms s)) labels;
  List.iter (fun s -> ignore (Symbols.rel syms s)) rels;
  let nl = Symbols.num_labels syms and nr = Symbols.num_rels syms in
  let chk what ok k =
    if not ok then Printf.ksprintf failwith "%s weight key %d out of range" what k
  in
  Array.iter
    (fun k ->
      chk "pairwise"
        (k >= 0 && k lsr 42 < nl
        && (k lsr 18) land 0xFFFFFF < nr
        && k land 0x3FFFF < nl)
        k)
    pw.mt_keys;
  Array.iter
    (fun k -> chk "unary" (k >= 0 && k lsr 24 < nl && k land 0xFFFFFF < nr) k)
    un.mt_keys;
  Array.iter (fun k -> chk "bias" (k >= 0 && k < nl) k) bias.mt_keys;
  let tbl t =
    Itbl.of_sorted_mapped ~keys:t.mt_keys ~vals:t.mt_vals ~verify:t.mt_verify
  in
  {
    syms;
    pw = tbl pw;
    un = tbl un;
    bias = tbl bias;
    pw_u = Itbl.create 0;
    un_u = Itbl.create 0;
    bias_u = Itbl.create 0;
    steps = 0;
    prepared = Atomic.make false;
  }
