type config = {
  dim : int;
  epochs : int;
  negatives : int;
  learning_rate : float;
  min_count : int;
  seed : int;
}

let default_config =
  {
    dim = 64;
    epochs = 8;
    negatives = 5;
    learning_rate = 0.05;
    min_count = 1;
    seed = 9;
  }

(* The slice kernel sizes stack arrays from [dim] and [negatives]
   (sgns_stubs.c), so both stay within bounds that any real model
   meets: a hostile config is refused before any kernel call. *)
let max_dim = 4096
let max_negatives = 64

let config_error c =
  if c.dim < 1 || c.dim > max_dim then
    Some (Printf.sprintf "dim %d outside [1, %d]" c.dim max_dim)
  else if c.negatives < 0 || c.negatives > max_negatives then
    Some
      (Printf.sprintf "negatives %d outside [0, %d]" c.negatives max_negatives)
  else None

let check_config who c =
  Option.iter (fun msg -> invalid_arg (who ^ ": " ^ msg)) (config_error c)

type t = {
  config : config;
  words : Vocab.t;
  contexts : Vocab.t;
  word_vecs : float array array;
  context_vecs : float array array;
}

let sigmoid x =
  if x > 30. then 1. else if x < -30. then 0. else 1. /. (1. +. exp (-.x))

let sigmoid_exact = sigmoid

let dot a b =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

(* Precomputed sigmoid, word2vec.c EXP_TABLE style: 4096 bins over
   [-8, 8), value at the bin center, inputs outside clamped to 0/1.
   Max error = half a bin width times max |sigmoid'| = (1/256)/2 * 1/4
   ~ 4.9e-4 inside the range, 1 - sigmoid(8) ~ 3.4e-4 at the clamp:
   absolute error < 1e-3 everywhere (bounded by test_kernels, budget
   documented in DESIGN.md §10). *)
let lut_size = 4096
let lut_range = 8.
let lut_scale = float_of_int lut_size /. (2. *. lut_range)

let sigmoid_table =
  Float.Array.init lut_size (fun i ->
      let x = ((float_of_int i +. 0.5) /. lut_scale) -. lut_range in
      1. /. (1. +. exp (-.x)))

let sigmoid_lut x =
  if x >= lut_range then 1.
  else if x < -.lut_range then 0.
  else
    Float.Array.unsafe_get sigmoid_table
      (int_of_float ((x +. lut_range) *. lut_scale))

(* Negative-sampling table over contexts, unigram^0.75. *)
let build_neg_table contexts size =
  let n = Vocab.size contexts in
  if n = 0 then [||]
  else begin
    let pow = Array.init n (fun i -> Float.pow (float_of_int (Vocab.count contexts i)) 0.75) in
    let total = Array.fold_left ( +. ) 0. pow in
    let table = Array.make size 0 in
    let i = ref 0 in
    let cum = ref (pow.(0) /. total) in
    for k = 0 to size - 1 do
      table.(k) <- !i;
      if float_of_int k /. float_of_int size > !cum && !i < n - 1 then begin
        incr i;
        cum := !cum +. (pow.(!i) /. total)
      end
    done;
    table
  end

type parallel_mode = Deterministic | Hogwild

let learning_rate_at config ~step ~total =
  let progress = float_of_int step /. float_of_int total in
  Float.max
    (config.learning_rate *. (1. -. progress))
    (config.learning_rate *. 1e-4)

(* Id pairs live in one flat int array, word then context: pair [i]
   is [pairs.(2i), pairs.(2i+1)]. Fisher-Yates over pairs, with the
   same draws and the same permutation as over an array of tuples. *)
let shuffle_pairs rng pairs =
  for i = (Array.length pairs / 2) - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let wi = pairs.(2 * i) and ci = pairs.((2 * i) + 1) in
    pairs.(2 * i) <- pairs.(2 * j);
    pairs.((2 * i) + 1) <- pairs.((2 * j) + 1);
    pairs.(2 * j) <- wi;
    pairs.((2 * j) + 1) <- ci
  done

(* Pairs [lo..hi] (inclusive) of a flat pair array, as their own. *)
let sub_pairs pairs (lo, hi) = Array.sub pairs (2 * lo) (2 * (hi - lo + 1))

(* Pairs a shard trains on between two barriers of a deterministic
   round. Small bounds gradient staleness (a delta is at most this
   many pairs behind per shard); large amortizes the barrier. *)
let round_pairs_per_shard = 256

(* Vocabulary + id-pair construction, shared by the flat trainer and
   {!Reference}. One pass over the input counts both sides at once;
   the vocab sort is a total order, so the ids match what the old
   two-pass [Vocab.build] calls produced. Returns the seeded rng
   *before* any matrix draw so each trainer consumes it in the
   historical order: all matrix init values first, then the sequential
   path's shuffles and negatives. *)
let prepare config pairs =
  let wtab = Intern.Strtab.create ~hint:1024 ()
  and ctab = Intern.Strtab.create ~hint:1024 () in
  let wcounts = ref (Array.make 1024 0) and ccounts = ref (Array.make 1024 0) in
  let bump counts sid =
    let a =
      let a = !counts in
      if sid < Array.length a then a
      else begin
        let b = Array.make (max (2 * Array.length a) (sid + 1)) 0 in
        Array.blit a 0 b 0 (Array.length a);
        counts := b;
        b
      end
    in
    a.(sid) <- a.(sid) + 1
  in
  let n_input = List.length pairs in
  (* Each token is hashed exactly once, here; everything downstream is
     int-array reads. *)
  let flat = Array.make (2 * n_input) 0 in
  List.iteri
    (fun k (w, c) ->
      let wi = Intern.Strtab.intern wtab w in
      let ci = Intern.Strtab.intern ctab c in
      bump wcounts wi;
      bump ccounts ci;
      flat.(2 * k) <- wi;
      flat.((2 * k) + 1) <- ci)
    pairs;
  let words =
    Vocab.of_strtab ~min_count:config.min_count wtab
      (Array.sub !wcounts 0 (Intern.Strtab.size wtab))
  in
  let contexts =
    Vocab.of_strtab ~min_count:config.min_count ctab
      (Array.sub !ccounts 0 (Intern.Strtab.size ctab))
  in
  (* Vocab ids overwrite the interned ids in place (a kept pair never
     moves right), so the corpus is one flat array throughout and the
     remap is two array lookups per pair. *)
  let n_pairs = ref 0 in
  for k = 0 to n_input - 1 do
    let wv = Vocab.of_interned words flat.(2 * k)
    and cv = Vocab.of_interned contexts flat.((2 * k) + 1) in
    if wv >= 0 && cv >= 0 then begin
      flat.(2 * !n_pairs) <- wv;
      flat.((2 * !n_pairs) + 1) <- cv;
      incr n_pairs
    end
  done;
  let pairs =
    if !n_pairs = n_input then flat else Array.sub flat 0 (2 * !n_pairs)
  in
  let rng = Random.State.make [| config.seed |] in
  (words, contexts, pairs, !n_pairs, rng)

(* ---------------------------------------------------------------- *)
(* Flat kernel: both embedding matrices are single unboxed
   [floatarray]s, row [i] at offset [i * dim] — one allocation, no
   per-row indirection, every hot access an [unsafe_get]. With
   [lut = false] ([`Exact]) the float operations (and their order) are
   identical to {!Reference}'s nested-array kernel, so the results are
   bitwise equal — the golden test's lever. The default [`Lut] path
   trades the documented <1e-3 sigmoid error for speed and takes the
   further loop liberties noted at {!update_pair_fast}. *)

(* Row-major init, explicit loop: draws the seed rng in exactly the
   order the nested [Array.init] matrices always consumed it. *)
let init_flat rng ~rows ~dim =
  let fa = Float.Array.make (rows * dim) 0. in
  for i = 0 to (rows * dim) - 1 do
    Float.Array.unsafe_set fa i
      ((Random.State.float rng 1.0 -. 0.5) /. float_of_int dim)
  done;
  fa

let ug = Float.Array.unsafe_get
let us = Float.Array.unsafe_set

(* Strictly-ordered pair update: one accumulator, ascending [d] — the
   float operations (and their order) are exactly {!Reference}'s, which
   is what makes [`Exact] runs bitwise-comparable to the old kernel. *)
let update_pair_exact ~w ~c ~grad_w ~wo ~co ~dim ~lr label =
  let acc = ref 0. in
  for d = 0 to dim - 1 do
    acc := !acc +. (ug w (wo + d) *. ug c (co + d))
  done;
  let g = (sigmoid_exact !acc -. label) *. lr in
  for d = 0 to dim - 1 do
    let cvd = ug c (co + d) in
    us grad_w d (ug grad_w d +. (g *. cvd));
    us c (co + d) (cvd -. (g *. ug w (wo + d)))
  done

(* Production [`Lut] pair update. Two liberties the exact path may not
   take, both inside the documented LUT error budget (ranking-level
   tolerance, not bitwise): the dot product runs on four accumulators
   so the sum no longer serializes on one add's latency, and a pair
   whose clamped sigmoid makes the gradient exactly zero (saturated —
   the common case late in training) skips its update loop outright. *)
let update_pair_fast ~w ~c ~grad_w ~wo ~co ~dim ~lr label =
  let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
  let d = ref 0 in
  while !d + 4 <= dim do
    let i = !d in
    s0 := !s0 +. (ug w (wo + i) *. ug c (co + i));
    s1 := !s1 +. (ug w (wo + i + 1) *. ug c (co + i + 1));
    s2 := !s2 +. (ug w (wo + i + 2) *. ug c (co + i + 2));
    s3 := !s3 +. (ug w (wo + i + 3) *. ug c (co + i + 3));
    d := i + 4
  done;
  let acc = ref (!s0 +. !s1 +. (!s2 +. !s3)) in
  while !d < dim do
    acc := !acc +. (ug w (wo + !d) *. ug c (co + !d));
    incr d
  done;
  let g = (sigmoid_lut !acc -. label) *. lr in
  if g <> 0. then
    for d = 0 to dim - 1 do
      let cvd = ug c (co + d) in
      us grad_w d (ug grad_w d +. (g *. cvd));
      us c (co + d) (cvd -. (g *. ug w (wo + d)))
    done

let sgd_step_flat config ~neg_table ~w ~c ~grad_w ~rng ~lr ~lut wi ci =
  let dim = config.dim in
  let wo = wi * dim in
  Float.Array.fill grad_w 0 dim 0.;
  let update_pair co label =
    if lut then update_pair_fast ~w ~c ~grad_w ~wo ~co ~dim ~lr label
    else update_pair_exact ~w ~c ~grad_w ~wo ~co ~dim ~lr label
  in
  update_pair (ci * dim) 1.;
  for _k = 1 to config.negatives do
    let neg = neg_table.(Random.State.int rng (Array.length neg_table)) in
    if neg <> ci then update_pair (neg * dim) 0.
  done;
  for d = 0 to dim - 1 do
    us w (wo + d) (ug w (wo + d) -. ug grad_w d)
  done

(* C epoch-slice kernel for the sequential [`Lut] path (sgns_stubs.c).
   The stub touches no OCaml heap state beyond its arguments and never
   allocates; slices are bounded below so a long epoch can't hold up
   other domains' stop-the-world collections. *)
module Kernel = struct
  let sigmoid_table = sigmoid_table
  let lut_range = lut_range
  let lut_scale = lut_scale

  external train_slice :
    Float.Array.t ->
    Float.Array.t ->
    Float.Array.t ->
    int array ->
    int array ->
    int array ->
    Float.Array.t ->
    unit = "caml_sgns_train_slice_bytes" "caml_sgns_train_slice"
  [@@noalloc]
end

(* Pairs per C call: big enough that the call cost vanishes, small
   enough (~a few ms of work) that other domains' STW pauses are never
   held up behind the non-cooperating stub. *)
let slice_pairs = 8192

(* Sequential [`Lut] trainer: per-epoch shuffle in OCaml (consuming
   [rng] like every trainer before it), arithmetic in the C kernel.
   Covered by the LUT ranking-tolerance contract, not the bitwise one:
   the kernel draws its negative samples from word2vec.c's LCG, seeded
   per epoch from [rng], instead of replaying [Random.State] draws —
   see DESIGN.md §10. The [`Exact] OCaml path below remains the
   bit-for-bit replica of {!Reference}. *)
let train_sequential_fast config ~neg_table ~w ~c ~rng pairs =
  let dim = config.dim in
  let n_pairs = Array.length pairs / 2 in
  let iparams = Array.make 8 0 in
  iparams.(0) <- dim;
  iparams.(1) <- config.negatives;
  iparams.(5) <- config.epochs * n_pairs;
  let fparams =
    Float.Array.of_list [ config.learning_rate; lut_range; lut_scale ]
  in
  for epoch = 0 to config.epochs - 1 do
    shuffle_pairs rng pairs;
    iparams.(4) <- epoch * n_pairs;
    let lo = ref 0 in
    while !lo < n_pairs do
      let hi = min n_pairs (!lo + slice_pairs) in
      let seed = Random.State.bits64 rng in
      iparams.(2) <- !lo;
      iparams.(3) <- hi;
      iparams.(6) <- Int64.to_int (Int64.logand seed 0xFFFFFFFFL);
      iparams.(7) <- Int64.to_int (Int64.shift_right_logical seed 32);
      Kernel.train_slice w c sigmoid_table pairs neg_table iparams fparams;
      lo := hi
    done
  done

let train_sequential_flat config ~neg_table ~w ~c ~rng ~lut pairs =
  if lut then train_sequential_fast config ~neg_table ~w ~c ~rng pairs
  else begin
    let n_pairs = Array.length pairs / 2 in
    let total_steps = config.epochs * n_pairs in
    let grad_w = Float.Array.make config.dim 0. in
    for epoch = 0 to config.epochs - 1 do
      shuffle_pairs rng pairs;
      for i = 0 to n_pairs - 1 do
        let step = (epoch * n_pairs) + i + 1 in
        let lr = learning_rate_at config ~step ~total:total_steps in
        sgd_step_flat config ~neg_table ~w ~c ~grad_w ~rng ~lr ~lut
          pairs.(2 * i)
          pairs.((2 * i) + 1)
      done
    done
  end

(* Per-shard delta slab for deterministic rounds: touched rows map to
   consecutive [dim]-sized slices of one flat buffer — merging a slab
   back is a contiguous axpy per row instead of a walk over boxed
   per-row arrays. *)
type slab = {
  s_dim : int;
  s_idx : (int, int) Hashtbl.t;  (* matrix row -> slab slot *)
  mutable s_buf : Float.Array.t;
  mutable s_n : int;
}

let slab_create dim hint =
  {
    s_dim = dim;
    s_idx = Hashtbl.create hint;
    s_buf = Float.Array.make (max 1 (hint * dim)) 0.;
    s_n = 0;
  }

(* Offset of [row]'s slice, allocating (zeroed) on first touch. *)
let slab_slot sl row =
  match Hashtbl.find_opt sl.s_idx row with
  | Some s -> s * sl.s_dim
  | None ->
      let s = sl.s_n in
      sl.s_n <- s + 1;
      if (s + 1) * sl.s_dim > Float.Array.length sl.s_buf then begin
        let nb = Float.Array.make (2 * Float.Array.length sl.s_buf) 0. in
        Float.Array.blit sl.s_buf 0 nb 0 (Float.Array.length sl.s_buf);
        sl.s_buf <- nb
      end;
      Hashtbl.add sl.s_idx row s;
      s * sl.s_dim

let apply_slab vecs sl =
  Hashtbl.iter
    (fun row s ->
      let off = row * sl.s_dim and so = s * sl.s_dim in
      for d = 0 to sl.s_dim - 1 do
        Float.Array.unsafe_set vecs (off + d)
          (Float.Array.unsafe_get vecs (off + d)
          +. Float.Array.unsafe_get sl.s_buf (so + d))
      done)
    sl.s_idx

(* Delta-accumulating step for deterministic sharding: gradients are
   computed against the matrices as they stood at the last barrier
   (nobody writes between barriers, so the live arrays *are* the
   frozen snapshot — no copy) and land in per-shard slabs. *)
let sgd_step_delta_flat config ~neg_table ~w ~c ~grad_w ~rng ~lr ~lut ~dw ~dc
    wi ci =
  let dim = config.dim in
  let wo = wi * dim in
  Float.Array.fill grad_w 0 dim 0.;
  let apply row g =
    let co = row * dim in
    let so = slab_slot dc row in
    let buf = dc.s_buf in
    for d = 0 to dim - 1 do
      us grad_w d (ug grad_w d +. (g *. ug c (co + d)));
      us buf (so + d) (ug buf (so + d) -. (g *. ug w (wo + d)))
    done
  in
  let update_pair row label =
    let co = row * dim in
    if lut then begin
      (* Same liberties as {!update_pair_fast}: reassociated dot,
         saturated pairs never touch the slab. *)
      let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
      let d = ref 0 in
      while !d + 4 <= dim do
        let i = !d in
        s0 := !s0 +. (ug w (wo + i) *. ug c (co + i));
        s1 := !s1 +. (ug w (wo + i + 1) *. ug c (co + i + 1));
        s2 := !s2 +. (ug w (wo + i + 2) *. ug c (co + i + 2));
        s3 := !s3 +. (ug w (wo + i + 3) *. ug c (co + i + 3));
        d := i + 4
      done;
      let acc = ref (!s0 +. !s1 +. (!s2 +. !s3)) in
      while !d < dim do
        acc := !acc +. (ug w (wo + !d) *. ug c (co + !d));
        incr d
      done;
      let g = (sigmoid_lut !acc -. label) *. lr in
      if g <> 0. then apply row g
    end
    else begin
      let acc = ref 0. in
      for d = 0 to dim - 1 do
        acc := !acc +. (ug w (wo + d) *. ug c (co + d))
      done;
      apply row ((sigmoid_exact !acc -. label) *. lr)
    end
  in
  update_pair ci 1.;
  for _k = 1 to config.negatives do
    let neg = neg_table.(Random.State.int rng (Array.length neg_table)) in
    if neg <> ci then update_pair neg 0.
  done;
  let so = slab_slot dw wi in
  let buf = dw.s_buf in
  for d = 0 to dim - 1 do
    us buf (so + d) (ug buf (so + d) -. ug grad_w d)
  done

(* Sharded training. Pairs split into [jobs] contiguous shards; shard
   [s] draws from its own [Random.State.make [| seed; s |]] (epoch
   shuffles and negative samples alike) and follows its own linear lr
   schedule, so a run is reproducible for a fixed job count.

   [Deterministic]: shards advance through each epoch in synchronized
   rounds — gradients computed against the matrices as of the round
   barrier, delta slabs applied in shard order at the barrier. Bitwise
   reproducible for a fixed job count.

   [Hogwild]: every shard trains all its epochs in place on the shared
   flat matrices, no synchronization. Racy reads/writes of disjoint
   word-sized cells are memory-safe in OCaml (no tearing); the result
   varies run to run, as in the original Hogwild! scheme. *)
let train_sharded_flat ~pool ~mode config ~neg_table ~w ~c ~lut pairs =
  let shards =
    Parallel.chunk_ranges ~chunks:(Parallel.jobs pool) (Array.length pairs / 2)
  in
  let k = Array.length shards in
  let slices = Array.map (sub_pairs pairs) shards in
  let rngs = Array.init k (fun s -> Random.State.make [| config.seed; s |]) in
  let shard_ids = Array.init k Fun.id in
  match mode with
  | Hogwild ->
      ignore
        (Parallel.map ~pool
           (fun s ->
             let slice = slices.(s) and rng = rngs.(s) in
             let len = Array.length slice / 2 in
             let total = config.epochs * len in
             let grad_w = Float.Array.make config.dim 0. in
             for epoch = 0 to config.epochs - 1 do
               shuffle_pairs rng slice;
               for i = 0 to len - 1 do
                 let step = (epoch * len) + i + 1 in
                 let lr = learning_rate_at config ~step ~total in
                 sgd_step_flat config ~neg_table ~w ~c ~grad_w ~rng ~lr ~lut
                   slice.(2 * i)
                   slice.((2 * i) + 1)
               done
             done)
           shard_ids)
  | Deterministic ->
      let max_len =
        Array.fold_left (fun acc sl -> max acc (Array.length sl / 2)) 0 slices
      in
      for epoch = 0 to config.epochs - 1 do
        (* Epoch shuffles run on the calling domain, one shard rng
           each, keeping every shard's draw sequence well-defined. *)
        Array.iteri (fun s slice -> shuffle_pairs rngs.(s) slice) slices;
        let off = ref 0 in
        while !off < max_len do
          let lo = !off in
          let deltas =
            Parallel.map ~pool
              (fun s ->
                let slice = slices.(s) and rng = rngs.(s) in
                let len = Array.length slice / 2 in
                let hi = min len (lo + round_pairs_per_shard) in
                if lo >= hi then None
                else begin
                  let dw = slab_create config.dim 64
                  and dc = slab_create config.dim 256 in
                  let grad_w = Float.Array.make config.dim 0. in
                  let total = config.epochs * len in
                  for i = lo to hi - 1 do
                    let step = (epoch * len) + i + 1 in
                    let lr = learning_rate_at config ~step ~total in
                    sgd_step_delta_flat config ~neg_table ~w ~c ~grad_w ~rng
                      ~lr ~lut ~dw ~dc
                      slice.(2 * i)
                      slice.((2 * i) + 1)
                  done;
                  Some (dw, dc)
                end)
              shard_ids
          in
          Array.iter
            (function
              | None -> ()
              | Some (dw, dc) ->
                  apply_slab w dw;
                  apply_slab c dc)
            deltas;
          off := lo + round_pairs_per_shard
        done
      done

(* The public row-matrix view: one boxed row per id, extracted once
   after training so [Serialize], [predict] and [most_similar] keep
   their shapes. *)
let rows_of fa ~rows ~dim =
  Array.init rows (fun i ->
      Array.init dim (fun d -> Float.Array.get fa ((i * dim) + d)))

let train ?pool ?(mode = Deterministic) ?(config = default_config)
    ?(sigmoid = `Lut) pairs =
  check_config "Sgns.train" config;
  let words, contexts, pairs, n_pairs, rng = prepare config pairs in
  let dim = config.dim in
  let nw = Vocab.size words and nc = Vocab.size contexts in
  let w = init_flat rng ~rows:nw ~dim in
  let c = init_flat rng ~rows:nc ~dim in
  let neg_table = build_neg_table contexts 100_000 in
  let lut = match sigmoid with `Lut -> true | `Exact -> false in
  let jobs = match pool with Some p -> Parallel.jobs p | None -> 1 in
  if n_pairs > 0 && Array.length neg_table > 0 then begin
    match pool with
    | Some pool when jobs > 1 && n_pairs >= jobs ->
        train_sharded_flat ~pool ~mode config ~neg_table ~w ~c ~lut pairs
    | _ -> train_sequential_flat config ~neg_table ~w ~c ~rng ~lut pairs
  end;
  {
    config;
    words;
    contexts;
    word_vecs = rows_of w ~rows:nw ~dim;
    context_vecs = rows_of c ~rows:nc ~dim;
  }

(* ---------------------------------------------------------------- *)
(* Out-of-core training: pairs arrive shard by shard (already as
   vocab ids) and at most one shard's pair array is live at a time.
   All randomness is *derived* per (epoch, shard) — the shuffle rng
   and the C kernel's per-slice LCG seeds come from
   [Random.State.make [| seed; tag; epoch; shard |]], fully consumed
   within the shard — so no rng state crosses a shard boundary and a
   checkpoint at any boundary resumes bit-exactly: matrices round-trip
   as raw float bits, cursors are ints, and everything else is
   recomputed from them. The learning-rate schedule stays the global
   one (the kernel's step base is offset by the shard's position in
   the epoch), so shard granularity does not perturb the sequential
   annealing. The trade against [train] is shuffle radius — pairs mix
   only within their shard — and the negative-sample stream, which is
   per-shard rather than per-epoch. *)

type ckpt = {
  ck_config : config;
  ck_words : Vocab.t;
  ck_contexts : Vocab.t;
  ck_w : Float.Array.t;  (* flat row-major, Vocab.size words x dim *)
  ck_c : Float.Array.t;
  ck_next_epoch : int;
  ck_next_shard : int;
  ck_shard_sizes : int array;
  ck_jobs : int;
}

let train_stream ?pool ?(config = default_config) ~words ~contexts
    ~shard_sizes ~pairs_of_shard ?from ?on_shard () =
  check_config "Sgns.train_stream" config;
  let n_shards = Array.length shard_sizes in
  if n_shards = 0 then invalid_arg "Sgns.train_stream: no shards";
  let n_pairs = Array.fold_left ( + ) 0 shard_sizes in
  let offsets = Array.make n_shards 0 in
  for s = 1 to n_shards - 1 do
    offsets.(s) <- offsets.(s - 1) + shard_sizes.(s - 1)
  done;
  let dim = config.dim in
  let nw = Vocab.size words and nc = Vocab.size contexts in
  let jobs = match pool with Some p -> Parallel.jobs p | None -> 1 in
  let w, c, start_epoch, start_shard =
    match from with
    | Some ck ->
        if
          Float.Array.length ck.ck_w <> nw * dim
          || Float.Array.length ck.ck_c <> nc * dim
        then invalid_arg "Sgns.train_stream: checkpoint shape mismatch";
        if ck.ck_shard_sizes <> shard_sizes then
          invalid_arg "Sgns.train_stream: checkpoint shard layout mismatch";
        if ck.ck_next_shard < 0 || ck.ck_next_shard >= n_shards
           || ck.ck_next_epoch < 0
        then invalid_arg "Sgns.train_stream: cursor out of range";
        (ck.ck_w, ck.ck_c, ck.ck_next_epoch, ck.ck_next_shard)
    | None ->
        (* Same draw order as [train]: all of w, then all of c, from
           the config-seeded rng. *)
        let rng = Random.State.make [| config.seed |] in
        let w = init_flat rng ~rows:nw ~dim in
        let c = init_flat rng ~rows:nc ~dim in
        (w, c, 0, 0)
  in
  let neg_table = build_neg_table contexts 100_000 in
  let iparams = Array.make 8 0 in
  iparams.(0) <- dim;
  iparams.(1) <- config.negatives;
  iparams.(5) <- config.epochs * n_pairs;
  let fparams =
    Float.Array.of_list [ config.learning_rate; lut_range; lut_scale ]
  in
  let run_shard_sequential ~epoch ~shard pairs =
    let len = Array.length pairs / 2 in
    let rng = Random.State.make [| config.seed; 0x0c0a; epoch; shard |] in
    shuffle_pairs rng pairs;
    (* Step base = this shard's global position in the epoch, so the
       kernel's lr schedule matches a whole-epoch walk exactly. *)
    iparams.(4) <- (epoch * n_pairs) + offsets.(shard);
    let lo = ref 0 in
    while !lo < len do
      let hi = min len (!lo + slice_pairs) in
      let seed = Random.State.bits64 rng in
      iparams.(2) <- !lo;
      iparams.(3) <- hi;
      iparams.(6) <- Int64.to_int (Int64.logand seed 0xFFFFFFFFL);
      iparams.(7) <- Int64.to_int (Int64.shift_right_logical seed 32);
      Kernel.train_slice w c sigmoid_table pairs neg_table iparams fparams;
      lo := hi
    done
  in
  (* Pooled path: [train_sharded_flat]'s deterministic rounds, scoped
     to one disk shard — sub-slices with derived rngs, delta slabs
     applied in sub order at each barrier. Reproducible for a fixed
     job count; matrices only change at barriers, so a shard-boundary
     checkpoint still captures the whole state. *)
  let run_shard_pooled pool ~epoch ~shard pairs =
    let subs =
      Parallel.chunk_ranges ~chunks:(Parallel.jobs pool) (Array.length pairs / 2)
    in
    let k = Array.length subs in
    let slices = Array.map (sub_pairs pairs) subs in
    let rngs =
      Array.init k (fun sub ->
          Random.State.make [| config.seed; 0x0c0a; epoch; shard; sub |])
    in
    let sub_ids = Array.init k Fun.id in
    Array.iteri (fun sub slice -> shuffle_pairs rngs.(sub) slice) slices;
    let max_len =
      Array.fold_left (fun acc sl -> max acc (Array.length sl / 2)) 0 slices
    in
    let off = ref 0 in
    while !off < max_len do
      let lo = !off in
      let deltas =
        Parallel.map ~pool
          (fun sub ->
            let slice = slices.(sub) and rng = rngs.(sub) in
            let len = Array.length slice / 2 in
            let hi = min len (lo + round_pairs_per_shard) in
            if lo >= hi then None
            else begin
              let dw = slab_create config.dim 64
              and dc = slab_create config.dim 256 in
              let grad_w = Float.Array.make config.dim 0. in
              let total = config.epochs * len in
              for i = lo to hi - 1 do
                let step = (epoch * len) + i + 1 in
                let lr = learning_rate_at config ~step ~total in
                sgd_step_delta_flat config ~neg_table ~w ~c ~grad_w ~rng ~lr
                  ~lut:true ~dw ~dc
                  slice.(2 * i)
                  slice.((2 * i) + 1)
              done;
              Some (dw, dc)
            end)
          sub_ids
      in
      Array.iter
        (function
          | None -> ()
          | Some (dw, dc) ->
              apply_slab w dw;
              apply_slab c dc)
        deltas;
      off := lo + round_pairs_per_shard
    done
  in
  if n_pairs > 0 && Array.length neg_table > 0 && start_epoch < config.epochs
  then
    for epoch = start_epoch to config.epochs - 1 do
      for shard = (if epoch = start_epoch then start_shard else 0)
                  to n_shards - 1 do
        let pairs = pairs_of_shard shard in
        if Array.length pairs <> 2 * shard_sizes.(shard) then
          invalid_arg "Sgns.train_stream: shard size changed under the trainer";
        (match pool with
        | Some pool when jobs > 1 && shard_sizes.(shard) >= jobs ->
            run_shard_pooled pool ~epoch ~shard pairs
        | _ -> run_shard_sequential ~epoch ~shard pairs);
        match on_shard with
        | None -> ()
        | Some f ->
            let next_epoch, next_shard =
              if shard + 1 = n_shards then (epoch + 1, 0) else (epoch, shard + 1)
            in
            f ~epoch ~shard
              {
                ck_config = config;
                ck_words = words;
                ck_contexts = contexts;
                ck_w = w;
                ck_c = c;
                ck_next_epoch = next_epoch;
                ck_next_shard = next_shard;
                ck_shard_sizes = Array.copy shard_sizes;
                ck_jobs = jobs;
              }
      done
    done;
  {
    config;
    words;
    contexts;
    word_vecs = rows_of w ~rows:nw ~dim;
    context_vecs = rows_of c ~rows:nc ~dim;
  }

(* ---------------------------------------------------------------- *)
(* The pre-flat-kernel trainer, its arithmetic kept verbatim (nested
   [float array array] matrices, exact sigmoid, boxed per-row deltas)
   as the golden baseline: [train ~sigmoid:`Exact] must reproduce it
   bitwise, and [bench train] measures the flat kernel's speedup
   against it. It reads the same flat id pairs as every trainer. *)
module Reference = struct
  let sgd_step config ~neg_table ~word_vecs ~context_vecs ~grad_w ~rng ~lr wi
      ci =
    let wv = word_vecs.(wi) in
    Array.fill grad_w 0 config.dim 0.;
    let update_pair cv label =
      let g = (sigmoid (dot wv cv) -. label) *. lr in
      for d = 0 to config.dim - 1 do
        grad_w.(d) <- grad_w.(d) +. (g *. cv.(d));
        cv.(d) <- cv.(d) -. (g *. wv.(d))
      done
    in
    update_pair context_vecs.(ci) 1.;
    for _k = 1 to config.negatives do
      let neg = neg_table.(Random.State.int rng (Array.length neg_table)) in
      if neg <> ci then update_pair context_vecs.(neg) 0.
    done;
    for d = 0 to config.dim - 1 do
      wv.(d) <- wv.(d) -. grad_w.(d)
    done

  let delta_vec tbl dim i =
    match Hashtbl.find_opt tbl i with
    | Some d -> d
    | None ->
        let d = Array.make dim 0. in
        Hashtbl.add tbl i d;
        d

  let sgd_step_delta config ~neg_table ~word_vecs ~context_vecs ~grad_w ~rng
      ~lr ~dw ~dc wi ci =
    let wv = word_vecs.(wi) in
    Array.fill grad_w 0 config.dim 0.;
    let update_pair cidx label =
      let cv = context_vecs.(cidx) in
      let g = (sigmoid (dot wv cv) -. label) *. lr in
      let d = delta_vec dc config.dim cidx in
      for k = 0 to config.dim - 1 do
        grad_w.(k) <- grad_w.(k) +. (g *. cv.(k));
        d.(k) <- d.(k) -. (g *. wv.(k))
      done
    in
    update_pair ci 1.;
    for _k = 1 to config.negatives do
      let neg = neg_table.(Random.State.int rng (Array.length neg_table)) in
      if neg <> ci then update_pair neg 0.
    done;
    let d = delta_vec dw config.dim wi in
    for k = 0 to config.dim - 1 do
      d.(k) <- d.(k) -. grad_w.(k)
    done

  let apply_delta vecs tbl =
    Hashtbl.iter
      (fun i d ->
        let v = vecs.(i) in
        for k = 0 to Array.length d - 1 do
          v.(k) <- v.(k) +. d.(k)
        done)
      tbl

  let train_sequential config ~neg_table ~word_vecs ~context_vecs ~rng pairs =
    let n_pairs = Array.length pairs / 2 in
    let total_steps = config.epochs * n_pairs in
    let grad_w = Array.make config.dim 0. in
    for epoch = 0 to config.epochs - 1 do
      shuffle_pairs rng pairs;
      for i = 0 to n_pairs - 1 do
        let step = (epoch * n_pairs) + i + 1 in
        let lr = learning_rate_at config ~step ~total:total_steps in
        sgd_step config ~neg_table ~word_vecs ~context_vecs ~grad_w ~rng ~lr
          pairs.(2 * i)
          pairs.((2 * i) + 1)
      done
    done

  let train_sharded ~pool ~mode config ~neg_table ~word_vecs ~context_vecs
      pairs =
    let shards =
      Parallel.chunk_ranges ~chunks:(Parallel.jobs pool)
        (Array.length pairs / 2)
    in
    let k = Array.length shards in
    let slices = Array.map (sub_pairs pairs) shards in
    let rngs = Array.init k (fun s -> Random.State.make [| config.seed; s |]) in
    let shard_ids = Array.init k Fun.id in
    match mode with
    | Hogwild ->
        ignore
          (Parallel.map ~pool
             (fun s ->
               let slice = slices.(s) and rng = rngs.(s) in
               let len = Array.length slice / 2 in
               let total = config.epochs * len in
               let grad_w = Array.make config.dim 0. in
               for epoch = 0 to config.epochs - 1 do
                 shuffle_pairs rng slice;
                 for i = 0 to len - 1 do
                   let step = (epoch * len) + i + 1 in
                   let lr = learning_rate_at config ~step ~total in
                   sgd_step config ~neg_table ~word_vecs ~context_vecs ~grad_w
                     ~rng ~lr
                     slice.(2 * i)
                     slice.((2 * i) + 1)
                 done
               done)
             shard_ids)
    | Deterministic ->
        let max_len =
          Array.fold_left (fun acc sl -> max acc (Array.length sl / 2)) 0 slices
        in
        for epoch = 0 to config.epochs - 1 do
          Array.iteri (fun s slice -> shuffle_pairs rngs.(s) slice) slices;
          let off = ref 0 in
          while !off < max_len do
            let lo = !off in
            let deltas =
              Parallel.map ~pool
                (fun s ->
                  let slice = slices.(s) and rng = rngs.(s) in
                  let len = Array.length slice / 2 in
                  let hi = min len (lo + round_pairs_per_shard) in
                  if lo >= hi then None
                  else begin
                    let dw = Hashtbl.create 64 and dc = Hashtbl.create 256 in
                    let grad_w = Array.make config.dim 0. in
                    let total = config.epochs * len in
                    for i = lo to hi - 1 do
                      let step = (epoch * len) + i + 1 in
                      let lr = learning_rate_at config ~step ~total in
                      sgd_step_delta config ~neg_table ~word_vecs
                        ~context_vecs ~grad_w ~rng ~lr ~dw ~dc
                        slice.(2 * i)
                        slice.((2 * i) + 1)
                    done;
                    Some (dw, dc)
                  end)
                shard_ids
            in
            Array.iter
              (function
                | None -> ()
                | Some (dw, dc) ->
                    apply_delta word_vecs dw;
                    apply_delta context_vecs dc)
              deltas;
            off := lo + round_pairs_per_shard
          done
        done

  let train ?pool ?(mode = Deterministic) ?(config = default_config) pairs =
    let words, contexts, pairs, n_pairs, rng = prepare config pairs in
    let init_vec () =
      Array.init config.dim (fun _ ->
          (Random.State.float rng 1.0 -. 0.5) /. float_of_int config.dim)
    in
    let word_vecs = Array.init (Vocab.size words) (fun _ -> init_vec ()) in
    let context_vecs =
      Array.init (Vocab.size contexts) (fun _ -> init_vec ())
    in
    let neg_table = build_neg_table contexts 100_000 in
    let jobs = match pool with Some p -> Parallel.jobs p | None -> 1 in
    if n_pairs > 0 && Array.length neg_table > 0 then begin
      match pool with
      | Some pool when jobs > 1 && n_pairs >= jobs ->
          train_sharded ~pool ~mode config ~neg_table ~word_vecs ~context_vecs
            pairs
      | _ ->
          train_sequential config ~neg_table ~word_vecs ~context_vecs ~rng
            pairs
    end;
    { config; words; contexts; word_vecs; context_vecs }
end

let word_vec t w = Option.map (fun i -> t.word_vecs.(i)) (Vocab.id t.words w)

let context_vec t c =
  Option.map (fun i -> t.context_vecs.(i)) (Vocab.id t.contexts c)

let norm v = sqrt (dot v v)

(* An embedding matrix behind a storage abstraction: boxed heap rows
   (what training produces) or one flat float64 view over an mmap'd
   model file (row i at elements [i*dim, (i+1)*dim)). Every operation
   runs the same float operations in the same order on both, so
   predictions are byte-identical across storages. Mapped values are
   checksummed lazily by the verify closure the loader installs. *)
module Mat = struct
  type flat = {
    f_vals : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    f_rows : int;
    f_dim : int;
    f_verify : unit -> unit;
    mutable f_verified : bool;
        (* benign race: concurrent first uses just repeat an
           idempotent read-only checksum *)
  }

  type t = Rows of float array array | Flat of flat

  let of_rows rows = Rows rows

  let of_mapped ~vals ~rows ~dim ~verify =
    if rows < 0 || dim < 0 || Bigarray.Array1.dim vals <> rows * dim then
      Printf.ksprintf failwith
        "matrix view size mismatch: %d rows x %d dim over %d floats" rows dim
        (Bigarray.Array1.dim vals);
    Flat { f_vals = vals; f_rows = rows; f_dim = dim; f_verify = verify;
           f_verified = false }

  let rows = function Rows r -> Array.length r | Flat f -> f.f_rows

  let ensure_verified = function
    | Rows _ -> ()
    | Flat f ->
        if not f.f_verified then begin
          f.f_verify ();
          f.f_verified <- true
        end

  let row m i =
    match m with
    | Rows r -> r.(i)
    | Flat f ->
        let base = i * f.f_dim in
        Array.init f.f_dim (fun d ->
            Bigarray.Array1.unsafe_get f.f_vals (base + d))

  (* Same element order as [dot] on two heap rows (and IEEE multiply
     commutes), so scores are byte-identical across storages. *)
  let dot_row m i b =
    match m with
    | Rows r -> dot r.(i) b
    | Flat f ->
        let base = i * f.f_dim in
        let acc = ref 0. in
        for d = 0 to f.f_dim - 1 do
          acc :=
            !acc
            +. Bigarray.Array1.unsafe_get f.f_vals (base + d)
               *. Array.unsafe_get b d
        done;
        !acc

  let norm_row m i =
    match m with
    | Rows r -> norm r.(i)
    | Flat f ->
        let base = i * f.f_dim in
        let acc = ref 0. in
        for d = 0 to f.f_dim - 1 do
          let x = Bigarray.Array1.unsafe_get f.f_vals (base + d) in
          acc := !acc +. (x *. x)
        done;
        sqrt !acc

  let to_rows m =
    match m with
    | Rows r -> r
    | Flat f ->
        ensure_verified m;
        Array.init f.f_rows (fun i -> row m i)

  let storage = function Rows _ -> `Heap | Flat _ -> `Mapped
end

(* A model whose matrices sit behind {!Mat}: what inference paths
   (the serve engine, [predict_view]) consume, so one code path serves
   heap-trained and mapped models alike. *)
type view = {
  v_config : config;
  v_words : Vocab.t;
  v_contexts : Vocab.t;
  v_word_vecs : Mat.t;
  v_context_vecs : Mat.t;
}

let view_of t =
  {
    v_config = t.config;
    v_words = t.words;
    v_contexts = t.contexts;
    v_word_vecs = Mat.of_rows t.word_vecs;
    v_context_vecs = Mat.of_rows t.context_vecs;
  }

let heap_of_view v =
  {
    config = v.v_config;
    words = v.v_words;
    contexts = v.v_contexts;
    word_vecs = Mat.to_rows v.v_word_vecs;
    context_vecs = Mat.to_rows v.v_context_vecs;
  }

let view_storage v =
  match (Mat.storage v.v_word_vecs, Mat.storage v.v_context_vecs) with
  | `Heap, `Heap -> `Heap
  | _ -> `Mapped

let verify_view v =
  Mat.ensure_verified v.v_word_vecs;
  Mat.ensure_verified v.v_context_vecs

let predict_view v context_strings =
  verify_view v;
  let cvs =
    List.filter_map
      (fun c -> Option.map (Mat.row v.v_context_vecs) (Vocab.id v.v_contexts c))
      context_strings
  in
  let scores =
    Array.init (Mat.rows v.v_word_vecs) (fun wi ->
        let s =
          List.fold_left
            (fun acc cv -> acc +. Mat.dot_row v.v_word_vecs wi cv)
            0. cvs
        in
        (Vocab.word v.v_words wi, s))
  in
  Array.to_list scores
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let most_similar_view v w ~k =
  verify_view v;
  match Vocab.id v.v_words w with
  | None -> []
  | Some wi ->
      let wv = Mat.row v.v_word_vecs wi in
      let nw = norm wv in
      (* All row norms once per call, not once per candidate
         comparison; same floats as computing them inline. *)
      let n = Mat.rows v.v_word_vecs in
      let norms = Array.init n (fun i -> Mat.norm_row v.v_word_vecs i) in
      Array.to_list
        (Array.init n (fun i ->
             let d = norms.(i) *. nw in
             ( Vocab.word v.v_words i,
               if d = 0. then 0. else Mat.dot_row v.v_word_vecs i wv /. d )))
      |> List.filter (fun (x, _) -> not (String.equal x w))
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
      |> List.filteri (fun i _ -> i < k)

(* The heap entry points delegate through an O(1) view wrap: one
   implementation, so heap/mapped byte-identity holds by construction. *)
let predict t context_strings = predict_view (view_of t) context_strings
let most_similar t w ~k = most_similar_view (view_of t) w ~k
