(* Open-addressed int -> float table for the weight hot path.

   [Hashtbl]'s [find_opt] allocates a [Some] box and a boxed float on
   every probe, which is most of what [Fast.node_score] does. Here
   keys live in a flat [int array] (linear probing, [-1] = empty — all
   packed weight keys are non-negative) and values in an unboxed
   [float array], so a lookup is a multiply, a few compares and an
   unsafe load.

   Per-key arithmetic is identical to the [Hashtbl] code it replaces
   ([add] accumulates with a single [+.] in program order), so models
   trained on either table are byte-identical. Only iteration order
   differs, which nothing semantic depends on.

   A table is either heap-backed (training: mutable, growable) or
   map-backed (inference over an mmap'd model file: the keys are the
   file's sorted key run, copied to the heap by the loader, and the
   values stay in the map as a [Bigarray.Array1] view — never copied,
   but for a table keyed by small ints given a dense copy, indexed by
   key, by [build_dense]). A mapped [get] is a binary search over the
   key run, or one load from the dense copy; the scoring loops read
   the pairwise and unary tables through their rows instead. Mapped
   values are checksummed lazily: the first read-path entry point
   calls [ensure_verified], which runs the verify closure the loader
   installed. *)

let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2)

(* Multiplicative hash; [lsr] keeps well-mixed bits and guarantees a
   non-negative index. The product's bits from 16 up depend only on
   the key's low bits, so the high half is folded in first: a packed
   pairwise key keeps its first label in bits 42 and up, and without
   the fold every key sharing the lower fields would start its probe
   at the same slot. *)
let[@inline] start mask k =
  ((k lxor (k lsr 31)) * 0x2545F4914F6CDD1D) lsr 16 land mask

(* ---------- index ----------

   An open-addressed map from non-negative int keys to ints, two ints
   per slot with [start] as the hash: slot [s] holds its key at [2s]
   (-1 = empty) and its value at [2s + 1]. The weight rows index their
   row keys with one, and {!Candidates} its flat count runs. *)

type index = int array

(* [slots] empty slots, a power of two. *)
let index_make slots =
  let x = Array.make (2 * slots) 0 in
  for s = 0 to slots - 1 do
    x.(2 * s) <- -1
  done;
  x

let[@inline] index_mask x = (Array.length x / 2) - 1

(* The slot holding [k], or the empty one ending its run. *)
let rec index_slot x mask k i =
  let y = Array.unsafe_get x (2 * i) in
  if y = k || y = -1 then i else index_slot x mask k ((i + 1) land mask)

(* Twice the slots, every binding kept. *)
let index_grow old =
  let x = index_make (Array.length old) in
  let mask = index_mask x in
  for s = 0 to index_mask old do
    let k = old.(2 * s) in
    if k >= 0 then begin
      let j = index_slot x mask k (start mask k) in
      x.(2 * j) <- k;
      x.((2 * j) + 1) <- old.((2 * s) + 1)
    end
  done;
  x

let index_runs a ~stride =
  let n = Array.length a / stride in
  let distinct = ref 0 in
  for e = 0 to n - 1 do
    if e = 0 || a.(stride * e) <> a.(stride * (e - 1)) then incr distinct
  done;
  let x = index_make (ceil_pow2 (2 * !distinct) 16) in
  let mask = index_mask x in
  for e = n - 1 downto 0 do
    let k = a.(stride * e) in
    let s = index_slot x mask k (start mask k) in
    x.(2 * s) <- k;
    x.((2 * s) + 1) <- e
  done;
  x

let index_find x k =
  let mask = index_mask x in
  let s = index_slot x mask k (start mask k) in
  if Array.unsafe_get x (2 * s) = k then Array.unsafe_get x ((2 * s) + 1)
  else -1

(* ---------- rows ----------

   A table's entries grouped by every key field except one, the label
   field: a row holds the entries whose keys agree outside it. Each
   entry is one int, its table index (a heap table's slot, a position
   in a mapped table's key run) above its label, so walking a row reads
   no keys — only the values of the entries it keeps, from the table's
   own value array, where updates in place are seen at once.

   The row index maps a row key (a key with its label field zeroed) to
   the row's place and length, packed as [(place lsl len_bits) lor
   length]. A heap table's rows are growable, kept current while keys
   arrive: each row is an array of its own that doubles when full, and
   its place is its number in [blocks]; a rehash moves every entry, so
   it rewrites each one's table index in place. A mapped table's rows
   are compact, built once from its complete key run: they lie one
   after another in [ents] at exactly their length, and a row's place
   is its first entry there. *)

type rows = {
  lshift : int;
  lbits : int;
  clear : int;  (* every key bit outside the label field *)
  mutable index : index;
  mutable nrows : int;
  mutable ents : int array;  (* compact: (table index lsl lbits) lor label *)
  mutable blocks : int array array;  (* growable: per row number, likewise *)
}

(* A row's length needs one bit more than a label field. *)
let len_bits = 20
let len_mask = (1 lsl len_bits) - 1

let rows_make (label_shift, label_bits) =
  {
    lshift = label_shift;
    lbits = label_bits;
    clear = lnot (((1 lsl label_bits) - 1) lsl label_shift);
    index = index_make 16;
    nrows = 0;
    ents = [||];
    blocks = [||];
  }

let[@inline] entry r i k =
  (i lsl r.lbits) lor ((k lsr r.lshift) land ((1 lsl r.lbits) - 1))

(* Compact rows over a mapped table's key run: rows in index order,
   each one's entries in key order. *)
let fill r keys =
  (* Pass 1: each row's length, in an index grown with the number of
     rows (load factor at most 1/2). *)
  let x = ref (index_make 16) and nrows = ref 0 in
  Array.iter
    (fun k ->
      let rk = k land r.clear and x' = !x in
      let mask = index_mask x' in
      let s = index_slot x' mask rk (start mask rk) in
      if x'.(2 * s) < 0 then begin
        x'.(2 * s) <- rk;
        incr nrows
      end;
      x'.((2 * s) + 1) <- x'.((2 * s) + 1) + 1;
      if 2 * !nrows > mask then x := index_grow x')
    keys;
  let x = !x in
  let mask = index_mask x in
  (* Pass 2: each row's first entry, in slot order, at length 0. *)
  let used = ref 0 in
  for s = 0 to mask do
    if x.(2 * s) >= 0 then begin
      let n = x.((2 * s) + 1) in
      x.((2 * s) + 1) <- !used lsl len_bits;
      used := !used + n
    end
  done;
  (* Pass 3: the entries, each at the end of its row. *)
  let ents = Array.make !used 0 in
  Array.iteri
    (fun i k ->
      let rk = k land r.clear in
      let s = index_slot x mask rk (start mask rk) in
      let v = x.((2 * s) + 1) in
      ents.((v lsr len_bits) + (v land len_mask)) <- entry r i k;
      x.((2 * s) + 1) <- v + 1)
    keys;
  r.index <- x;
  r.nrows <- !nrows;
  r.ents <- ents

(* Add the key [k], now at heap slot [i], to its row. *)
let append r i k =
  let x = r.index in
  let mask = index_mask x in
  let rk = k land r.clear in
  let s = index_slot x mask rk (start mask rk) in
  if x.(2 * s) < 0 then begin
    let id = r.nrows in
    if id = Array.length r.blocks then begin
      let blocks = Array.make (max 16 (2 * id)) [||] in
      Array.blit r.blocks 0 blocks 0 id;
      r.blocks <- blocks
    end;
    x.(2 * s) <- rk;
    x.((2 * s) + 1) <- id lsl len_bits;
    r.nrows <- id + 1
  end;
  let v = x.((2 * s) + 1) in
  let id = v lsr len_bits and len = v land len_mask in
  let b = r.blocks.(id) in
  let b =
    if len < Array.length b then b
    else begin
      let b' = Array.make (max 1 (2 * len)) 0 in
      Array.blit b 0 b' 0 len;
      r.blocks.(id) <- b';
      b'
    end
  in
  b.(len) <- entry r i k;
  x.((2 * s) + 1) <- v + 1;
  if 2 * r.nrows > mask then r.index <- index_grow x

(* After a rehash: each entry's table index becomes [slot k], where
   [k] is its key — the row key with the entry's label put back. *)
let remap r slot =
  let x = r.index and lbits = r.lbits in
  let lmask = (1 lsl lbits) - 1 in
  for s = 0 to index_mask x do
    let rk = x.(2 * s) in
    if rk >= 0 then begin
      let v = x.((2 * s) + 1) in
      let b = r.blocks.(v lsr len_bits) in
      for e = 0 to (v land len_mask) - 1 do
        let l = b.(e) land lmask in
        b.(e) <- (slot (rk lor (l lsl r.lshift)) lsl lbits) lor l
      done
    end
  done

(* ---------- tables ---------- *)

type heap = {
  mutable keys : int array;
  mutable vals : float array;
  mutable mask : int;
  mutable count : int;
  rows : rows array;  (* kept current by every insert and rehash *)
}

type mapped = {
  m_keys : int array;  (* the file's key run: strictly increasing *)
  m_vals : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  m_verify : unit -> unit;
  mutable m_verified : bool;
      (* The benign race on this flag (two domains verifying at once)
         only repeats an idempotent read-only checksum. *)
  m_rows : rows array Atomic.t;  (* empty until [build_rows] *)
  m_dense : float array Atomic.t;  (* empty until [build_dense] *)
}

type t = H of heap | M of mapped

let create ?(rows = []) hint =
  let cap = ceil_pow2 (max 16 hint) 16 in
  H
    {
      keys = Array.make cap (-1);
      vals = Array.make cap 0.;
      mask = cap - 1;
      count = 0;
      rows = Array.of_list (List.map rows_make rows);
    }

let length = function H h -> h.count | M m -> Array.length m.m_keys

let rec probe keys mask k i =
  let kk = Array.unsafe_get keys i in
  if kk = k || kk = -1 then i else probe keys mask k ((i + 1) land mask)

(* Index of [k] in the strictly increasing [keys], or -1. *)
let find_sorted keys k =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let x = Array.unsafe_get keys mid in
      if x = k then mid else if x < k then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length keys)

let[@inline] get t k =
  match t with
  | H h ->
      let i = probe h.keys h.mask k (start h.mask k) in
      if Array.unsafe_get h.keys i = k then Array.unsafe_get h.vals i else 0.
  | M m ->
      let d = Atomic.get m.m_dense in
      if Array.length d > 0 then
        if k >= 0 && k < Array.length d then Array.unsafe_get d k else 0.
      else
        let j = find_sorted m.m_keys k in
        if j < 0 then 0. else Bigarray.Array1.unsafe_get m.m_vals j

let grow h =
  let old_keys = h.keys and old_vals = h.vals in
  let cap = 2 * Array.length old_keys in
  h.keys <- Array.make cap (-1);
  h.vals <- Array.make cap 0.;
  h.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe h.keys h.mask k (start h.mask k) in
        Array.unsafe_set h.keys j k;
        Array.unsafe_set h.vals j (Array.unsafe_get old_vals i)
      end)
    old_keys;
  let slot k = probe h.keys h.mask k (start h.mask k) in
  Array.iter (fun r -> remap r slot) h.rows

let[@inline] insert h i k v =
  Array.unsafe_set h.keys i k;
  Array.unsafe_set h.vals i v;
  h.count <- h.count + 1;
  for g = 0 to Array.length h.rows - 1 do
    append (Array.unsafe_get h.rows g) i k
  done;
  (* Load factor 1/2: probes stay short and the growth check is one
     compare per insert. *)
  if 2 * h.count >= Array.length h.keys then grow h

let heap_of = function
  | H h -> h
  | M _ -> invalid_arg "Itbl: mapped tables are read-only"

let add t k d =
  if d <> 0. then begin
    let h = heap_of t in
    let i = probe h.keys h.mask k (start h.mask k) in
    if Array.unsafe_get h.keys i = k then
      Array.unsafe_set h.vals i (Array.unsafe_get h.vals i +. d)
    else insert h i k d
  end

let set t k v =
  let h = heap_of t in
  let i = probe h.keys h.mask k (start h.mask k) in
  if Array.unsafe_get h.keys i = k then Array.unsafe_set h.vals i v
  else insert h i k v

let ensure_verified = function
  | H _ -> ()
  | M m ->
      if not m.m_verified then begin
        m.m_verify ();
        m.m_verified <- true
      end

let of_sorted_mapped ~keys ~vals ~verify =
  let n = Array.length keys in
  if Bigarray.Array1.dim vals <> n then
    Printf.ksprintf failwith
      "weight table key/value count mismatch: %d keys, %d values" n
      (Bigarray.Array1.dim vals);
  (* Strictly increasing is the canonical form the writer emits and
     what the binary search in [get] needs; enforcing it here rejects
     duplicate keys (which would make lookups depend on search order)
     and negative keys (which would collide with the heap tables'
     empty-slot sentinel). A linear pass, run eagerly. *)
  let prev = ref (-1) in
  Array.iteri
    (fun j k ->
      if k <= !prev then
        Printf.ksprintf failwith
          "weight table keys not strictly increasing at index %d (%d after %d)"
          j k !prev;
      prev := k)
    keys;
  M
    {
      m_keys = keys;
      m_vals = vals;
      m_verify = verify;
      m_verified = false;
      m_rows = Atomic.make [||];
      m_dense = Atomic.make [||];
    }

let storage = function H _ -> `Heap | M _ -> `Mapped

let rows_ready = function
  | H h -> Array.length h.rows > 0
  | M m -> Array.length (Atomic.get m.m_rows) > 0

let build_rows t groups =
  match t with
  | H h ->
      if Array.length h.rows = 0 then
        invalid_arg "Itbl.build_rows: a heap table's rows are made by create"
  | M m ->
      if Array.length (Atomic.get m.m_rows) = 0 then
        Atomic.set m.m_rows
          (Array.of_list
             (List.map
                (fun g ->
                  let r = rows_make g in
                  fill r m.m_keys;
                  r)
                groups))

let build_dense t n =
  match t with
  | H _ -> ()
  | M m ->
      let keys = m.m_keys in
      let len = Array.length keys in
      if
        Array.length (Atomic.get m.m_dense) = 0
        && n > 0
        && (len = 0 || keys.(len - 1) < n)
      then begin
        ensure_verified t;
        let d = Array.make n 0. in
        Array.iteri
          (fun j k -> d.(k) <- Bigarray.Array1.unsafe_get m.m_vals j)
          keys;
        Atomic.set m.m_dense d
      end

let iter f t =
  ensure_verified t;
  match t with
  | H h ->
      let keys = h.keys and vals = h.vals in
      for i = 0 to Array.length keys - 1 do
        let k = Array.unsafe_get keys i in
        if k >= 0 then f k (Array.unsafe_get vals i)
      done
  | M m ->
      (* File order (strictly increasing keys); callers sort anyway. *)
      let vals = m.m_vals in
      Array.iteri (fun j k -> f k (Bigarray.Array1.unsafe_get vals j)) m.m_keys

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

(* ---------- row walks ---------- *)

let rows_of t g =
  let rs = match t with H h -> h.rows | M m -> Atomic.get m.m_rows in
  if g < 0 || g >= Array.length rs then invalid_arg "Itbl: no such rows";
  Array.unsafe_get rs g

(* For each entry of the row of [k] whose label has positions in the
   dense map, [mult *. w] at every position: written over the cell, or
   added onto it. *)
let walk ~acc t g k ~first ~next dst ~off ~mult =
  let r = rows_of t g in
  let x = r.index in
  let mask = index_mask x in
  let s = index_slot x mask k (start mask k) in
  if Array.unsafe_get x (2 * s) = k then begin
    let v = Array.unsafe_get x ((2 * s) + 1) in
    let ents = match t with H _ -> r.blocks.(v lsr len_bits) | M _ -> r.ents in
    let e0 = match t with H _ -> 0 | M _ -> v lsr len_bits in
    let lbits = r.lbits in
    let lmask = (1 lsl lbits) - 1 in
    for e = e0 to e0 + (v land len_mask) - 1 do
      let y = Array.unsafe_get ents e in
      let p = ref first.(y land lmask) in
      if !p >= 0 then begin
        let i = y lsr lbits in
        let w =
          match t with
          | H h -> Array.unsafe_get h.vals i
          | M m -> Bigarray.Array1.unsafe_get m.m_vals i
        in
        let c = mult *. w in
        while !p >= 0 do
          let j = off + !p in
          dst.(j) <- (if acc then dst.(j) +. c else c);
          p := next.(!p)
        done
      end
    done
  end

let scatter t g k ~first ~next dst ~off ~mult =
  walk ~acc:false t g k ~first ~next dst ~off ~mult

let scatter_add t g k ~first ~next dst ~off ~mult =
  walk ~acc:true t g k ~first ~next dst ~off ~mult
