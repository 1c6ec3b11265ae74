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
   values stay in the map as a [Bigarray.Array1] view — never copied).
   A mapped [get] is a binary search over the key run; inference reads
   a frozen model through {!rows} instead. Mapped values are
   checksummed lazily: the first read-path entry point calls
   [ensure_verified], which runs the verify closure the loader
   installed. *)

type heap = {
  mutable keys : int array;
  mutable vals : float array;
  mutable mask : int;
  mutable count : int;
}

type mapped = {
  m_keys : int array;  (* the file's key run: strictly increasing *)
  m_vals : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  m_verify : unit -> unit;
  mutable m_verified : bool;
      (* The benign race on this flag (two domains verifying at once)
         only repeats an idempotent read-only checksum. *)
}

type t = H of heap | M of mapped

let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2)

let create hint =
  let cap = ceil_pow2 (max 16 hint) 16 in
  H
    {
      keys = Array.make cap (-1);
      vals = Array.make cap 0.;
      mask = cap - 1;
      count = 0;
    }

(* Multiplicative hash; [lsr] keeps well-mixed bits and guarantees a
   non-negative index. The product's bits from 16 up depend only on
   the key's low bits, so the high half is folded in first: a packed
   pairwise key keeps its first label in bits 42 and up, and without
   the fold every key sharing the lower fields would start its probe
   at the same slot. *)
let[@inline] start mask k =
  ((k lxor (k lsr 31)) * 0x2545F4914F6CDD1D) lsr 16 land mask

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
    old_keys

let[@inline] insert h i k v =
  Array.unsafe_set h.keys i k;
  Array.unsafe_set h.vals i v;
  h.count <- h.count + 1;
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
  M { m_keys = keys; m_vals = vals; m_verify = verify; m_verified = false }

let storage = function H _ -> `Heap | M _ -> `Mapped

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

(* ---------- index ----------

   An open-addressed map from non-negative int keys to ints, two ints
   per slot with [start] as the hash: slot [s] holds its key at [2s]
   (-1 = empty) and its value at [2s + 1]. One slot past the last is
   never probed; [rows] keeps its row ends there. The weight rows index
   their row keys with one, and {!Candidates} its flat count runs. *)

type index = int array

(* [slots] empty slots (a power of two) plus the spare one. *)
let index_make slots =
  let x = Array.make (2 * (slots + 1)) 0 in
  for s = 0 to slots do
    x.(2 * s) <- -1
  done;
  x

let[@inline] index_mask x = (Array.length x / 2) - 2

(* The slot holding [k], or the empty one ending its run. *)
let rec index_slot x mask k i =
  let y = Array.unsafe_get x (2 * i) in
  if y = k || y = -1 then i else index_slot x mask k ((i + 1) land mask)

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

   The entries of a table grouped by every key field except one, the
   label field: a row holds the entries whose keys agree outside it.
   Each entry is one int, its table index (a heap table's slot, a
   position in a mapped table's key run) above its label, so walking a
   row reads no keys — only the values of the entries it keeps, from
   the table's own value array.

   The row index is an {!index} over row keys (a key with its label
   field zeroed) whose value at slot [s] is the slot's first entry: the
   row is [entries.(index.(2s + 1)) .. entries.(index.(2s + 3) - 1)],
   one cache line for a hit, and an empty slot owns an empty range. *)

type rows = {
  tbl : t;
  count : int;  (* the table's length at build time *)
  lbits : int;
  index : index;  (* 2 * (slots + 1) *)
  imask : int;  (* slots - 1 *)
  entries : int array;  (* (table index lsl lbits) lor label, row by row *)
}

let rows t ~label_shift ~label_bits =
  let keys = match t with H h -> h.keys | M m -> m.m_keys in
  let lmask = (1 lsl label_bits) - 1 in
  let clear = lnot (lmask lsl label_shift) in
  (* Pass 1: count each row's entries at [2s + 1], in an index grown
     with the number of rows (load factor at most 1/2). *)
  let index = ref (index_make 16) and nrows = ref 0 in
  let regrow () =
    let old = !index in
    let cap = Array.length old - 2 in
    let x = index_make cap in
    for s = 0 to (cap / 2) - 1 do
      let rk = old.(2 * s) in
      if rk >= 0 then begin
        let j = index_slot x (cap - 1) rk (start (cap - 1) rk) in
        x.(2 * j) <- rk;
        x.((2 * j) + 1) <- old.((2 * s) + 1)
      end
    done;
    index := x
  in
  Array.iter
    (fun k ->
      if k >= 0 then begin
        let rk = k land clear and x = !index in
        let mask = index_mask x in
        let s = index_slot x mask rk (start mask rk) in
        if x.(2 * s) < 0 then begin
          x.(2 * s) <- rk;
          incr nrows
        end;
        x.((2 * s) + 1) <- x.((2 * s) + 1) + 1;
        if 2 * !nrows >= mask + 1 then regrow ()
      end)
    keys;
  let index = !index in
  let imask = index_mask index in
  (* Pass 2: running totals, so slot [s]'s count becomes its row's end;
     the spare slot past the last ends every row. *)
  for s = 1 to imask + 1 do
    index.((2 * s) + 1) <- index.((2 * s) + 1) + index.((2 * s) - 1)
  done;
  (* Pass 3, in reverse: each entry steps its row's end back by one,
     leaving the row's first entry there and every row in table
     order. *)
  let entries = Array.make index.((2 * imask) + 3) 0 in
  for i = Array.length keys - 1 downto 0 do
    let k = keys.(i) in
    if k >= 0 then begin
      let rk = k land clear in
      let s = index_slot index imask rk (start imask rk) in
      let e = index.((2 * s) + 1) - 1 in
      index.((2 * s) + 1) <- e;
      entries.(e) <- (i lsl label_bits) lor ((k lsr label_shift) land lmask)
    end
  done;
  { tbl = t; count = length t; lbits = label_bits; index; imask; entries }

let rows_current r = length r.tbl = r.count

let scatter r k ~first ~next dst ~off ~mult =
  let index = r.index in
  let s = index_slot index r.imask k (start r.imask k) in
  if Array.unsafe_get index (2 * s) = k then begin
    let entries = r.entries and lbits = r.lbits in
    let lmask = (1 lsl lbits) - 1 in
    for e = Array.unsafe_get index ((2 * s) + 1)
        to Array.unsafe_get index ((2 * s) + 3) - 1 do
      let x = Array.unsafe_get entries e in
      let p = ref first.(x land lmask) in
      if !p >= 0 then begin
        let i = x lsr lbits in
        let w =
          match r.tbl with
          | H h -> Array.unsafe_get h.vals i
          | M m -> Bigarray.Array1.unsafe_get m.m_vals i
        in
        let v = mult *. w in
        while !p >= 0 do
          dst.(off + !p) <- v;
          p := next.(!p)
        done
      end
    done
  end
