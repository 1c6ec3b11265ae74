/* Sequential SGNS epoch kernel for the `Lut training path.
 *
 * The OCaml loop in Sgns.train_sequential_fast tops out well short of
 * the word2vec.c kernel it mirrors: without flambda every float
 * crossing a function boundary is boxed, and the scalar code the
 * OCaml backend emits for the dot/update loops leaves about half the
 * core's FP throughput on the table.  This stub runs one contiguous
 * slice of steps of one epoch entirely in C over the flat matrices,
 * and software-pipelines the sampling: while step p computes, step
 * p+1's word/context rows are already being prefetched.
 *
 * Where the time goes (DESIGN.md §10): a step is latency-bound, not
 * miss-bound.  Dropping every update keeps 86-95% of the step time,
 * and so does shrinking the context matrix to a cache-resident 500
 * rows; what remains is the step's dot products (the positive
 * context and up to `negatives` negatives), which the loop below runs
 * one after another, each one dependent chain per lane.
 *
 * The fused step.  When a step's kept targets are pairwise-distinct
 * rows, `dim` is a multiple of 4, there are at most 7 negatives and
 * the build has AVX2 and FMA, the step computes all of its dot
 * products together, as independent 4-lane chains, then makes one
 * pass over the row: each 4-wide block of the word row is loaded
 * once, every context row whose gradient is non-zero is updated, the
 * word gradient is accumulated in a register in target order, and the
 * block is written back.  Its bits equal the loop's: the positive is
 * never a kept negative and kept negatives are distinct, so no target
 * row is written before its dot product is read; the word row is
 * written only after every dot product; every lane adds the same
 * products in the same order, reduced as (s0 + s1) + (s2 + s3); and
 * every update is the loop's FMA.  The dot products must also round
 * as the loop's do, and how the loop's products round is the
 * compiler's choice: GCC 12 building for a core that prefers 512-bit
 * vectors rounds each product of the loop's 8-iteration vector blocks
 * before adding it and fuses the rest; built for AVX2, or for a core
 * that prefers 256-bit vectors, it fuses them all.  `dot_split` asks
 * the compiled loop itself, once per slice: it feeds `dot_lanes`
 * probes whose result tells a fused product from a rounded one, lane
 * by lane, and the fused step rounds the products of the same leading
 * iterations.  If the probes show anything but rounded leading
 * iterations followed by fused ones, the fused step stays off.
 *
 * The loop (unchanged) stays the only path for a step with a repeated
 * negative, a `dim` that is not a multiple of 4, more than 7
 * negatives, and a build without AVX2 and FMA.  `kernel_oracle` in
 * test/test_kernels.ml holds both paths to the pre-fusion kernel,
 * kept verbatim in test/sgns_oracle_stubs.c, bit for bit.
 *
 * Contracts (see DESIGN.md §10):
 *  - `Lut only.  The `Exact path stays in OCaml and remains bitwise
 *    equal to Sgns.Reference; this kernel is covered by the LUT
 *    ranking-tolerance contract instead, so it may pick its own
 *    negative-sample stream (word2vec.c's LCG, seeded per slice from
 *    the trainer's Random.State) and its own float op order.
 *  - No OCaml allocation, no callbacks, no GC interaction: every
 *    argument is read/written in place ([@@noalloc]).  The caller
 *    slices epochs into bounded chunks so other domains are never
 *    stalled behind a long non-cooperative stretch.
 *  - `dim` and `negatives` size stack arrays: the caller keeps them
 *    within Sgns's config bounds (1-4096 and 0-64).
 *
 * Layout notes: `w`/`c`/`lut` are floatarrays (flat double payload);
 * `pairs` is a flat int array (word, context, word, context, ...);
 * `neg_table` is an int array (tagged immediates).
 */

#include <caml/mlvalues.h>
#include <stdint.h>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define SGNS_FUSED 1
#else
#define SGNS_FUSED 0
#endif

/* iparams layout (OCaml int array) */
#define IP_DIM 0
#define IP_NEGATIVES 1
#define IP_LO 2        /* first pair index of this slice */
#define IP_HI 3        /* one past the last pair index */
#define IP_STEP_BASE 4 /* epoch * n_pairs */
#define IP_TOTAL 5     /* epochs * n_pairs */
#define IP_SEED_LO 6   /* low 32 bits of this slice's LCG seed */
#define IP_SEED_HI 7   /* high 32 bits */

/* fparams layout (floatarray) */
#define FP_BASE_LR 0
#define FP_LUT_RANGE 1
#define FP_LUT_SCALE 2

/* The loop's dot product: four lane accumulators, then the tail. */
static inline __attribute__((always_inline)) double
dot_lanes(const double *restrict wv, const double *restrict cv, long dim) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  long d = 0;
  for (; d + 4 <= dim; d += 4) {
    s0 += wv[d] * cv[d];
    s1 += wv[d + 1] * cv[d + 1];
    s2 += wv[d + 2] * cv[d + 2];
    s3 += wv[d + 3] * cv[d + 3];
  }
  double x = s0 + s1 + (s2 + s3);
  for (; d < dim; d++) x += wv[d] * cv[d];
  return x;
}

static inline double lut_sigmoid(double x, const double *lut, double range,
                                 double scale) {
  if (x >= range) return 1.0;
  if (x < -range) return 0.0;
  return lut[(long)((x + range) * scale)];
}

#if SGNS_FUSED

#define FUSED_TARGETS 8 /* the positive and at most 7 negatives */

/* The same compiled loop as the steps', out of line for the probes. */
static __attribute__((noinline)) double dot_probe(const double *wv,
                                                  const double *cv,
                                                  long dim) {
  return dot_lanes(wv, cv, dim);
}

/* How many leading 4-lane iterations of `dot_lanes` round each product
 * before adding it, the rest being fused; -1 if its rounding follows
 * no such split.  Probe (i, j) sets lane j to 8 at iteration i-1 and
 * adds, at iteration i, a product just beyond -2^-51: rounded first it
 * is -2^-51 exactly, and 8 - 2^-51 ties to 8; fused, the sum rounds
 * down to 8 - 2^-50.  Every other cell is 0, so the result is that
 * lane's sum.  Iteration 0 adds to +0.0, where both round alike. */
static long dot_split(long dim) {
  const long iters = dim / 4;
  double w[dim], c[dim];
  for (long d = 0; d < dim; d++) w[d] = c[d] = 0.0;
  long split = -1; /* first fused iteration seen */
  for (long i = 1; i < iters; i++) {
    int fused = 0;
    for (long j = 0; j < 4; j++) {
      const long a = 4 * (i - 1) + j, b = 4 * i + j;
      w[a] = 1.0;
      c[a] = 8.0;
      w[b] = 0x1.fffffffffffffp-27;  /* 2^-26 - 2^-79 */
      c[b] = -0x1.0000000000001p-25; /* -(2^-25 + 2^-77) */
      fused += dot_probe(w, c, dim) != 8.0;
      w[a] = c[a] = w[b] = c[b] = 0.0;
    }
    if (fused != 0 && fused != 4) return -1;
    if (fused && split < 0) split = i;
    if (!fused && split >= 0) return -1;
  }
  return split < 0 ? iters : split;
}

/* (s0 + s1) + (s2 + s3), the loop's reduction. */
static inline double sum_lanes(__m256d a) {
  const __m128d s =
      _mm_hadd_pd(_mm256_castpd256_pd128(a), _mm256_extractf128_pd(a, 1));
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

/* x[k] = the loop's dot product of wv with rows[k], for n targets at
 * once: one accumulator per target, the first `split` iterations
 * adding rounded products, the rest fused. */
static inline __attribute__((always_inline)) void
dots(const int n, long split, long iters, const double *wv,
     double *const *rows, double *x) {
  __m256d acc[FUSED_TARGETS];
  for (int k = 0; k < n; k++) acc[k] = _mm256_setzero_pd();
  long i = 0;
  for (; i < split; i++) {
    const __m256d a = _mm256_loadu_pd(wv + 4 * i);
    for (int k = 0; k < n; k++) {
      __m256d p = _mm256_mul_pd(a, _mm256_loadu_pd(rows[k] + 4 * i));
      __asm__("" : "+x"(p)); /* keep it rounded: no contraction */
      acc[k] = _mm256_add_pd(acc[k], p);
    }
  }
  for (; i < iters; i++) {
    const __m256d a = _mm256_loadu_pd(wv + 4 * i);
    for (int k = 0; k < n; k++)
      acc[k] = _mm256_fmadd_pd(a, _mm256_loadu_pd(rows[k] + 4 * i), acc[k]);
  }
  for (int k = 0; k < n; k++) x[k] = sum_lanes(acc[k]);
}

/* One fused step over targets tgt[0..negatives] (slot 0 the positive,
 * -1 a dropped negative).  Returns 0, having written nothing, when two
 * kept targets share a row. */
static inline int fused_step(long split, long dim, double *restrict wv,
                             double *c, const long *tgt, long negatives,
                             double lr, const double *lut, double range,
                             double scale) {
  double *rows[FUSED_TARGETS];
  int n = 0;
  for (long k = 0; k <= negatives; k++) {
    if (tgt[k] < 0) continue;
    double *row = c + tgt[k] * dim;
    /* slot 0 is never repeated: a draw equal to it was dropped */
    for (int j = 1; j < n; j++)
      if (rows[j] == row) return 0;
    rows[n++] = row;
  }
  double x[FUSED_TARGETS];
  const long iters = dim / 4;
  switch (n) {
    case 1: dots(1, split, iters, wv, rows, x); break;
    case 2: dots(2, split, iters, wv, rows, x); break;
    case 3: dots(3, split, iters, wv, rows, x); break;
    case 4: dots(4, split, iters, wv, rows, x); break;
    case 5: dots(5, split, iters, wv, rows, x); break;
    case 6: dots(6, split, iters, wv, rows, x); break;
    case 7: dots(7, split, iters, wv, rows, x); break;
    default: dots(8, split, iters, wv, rows, x); break;
  }
  double g[FUSED_TARGETS];
  double *live[FUSED_TARGETS];
  int m = 0;
  for (int k = 0; k < n; k++) {
    const double label = (k == 0) ? 1.0 : 0.0;
    const double gk = (lut_sigmoid(x[k], lut, range, scale) - label) * lr;
    if (gk != 0.0) {
      g[m] = gk;
      live[m++] = rows[k];
    }
  }
  /* No live target: the loop would subtract +0.0 from every cell. */
  if (m == 0) return 1;
  for (long d = 0; d < dim; d += 4) {
    const __m256d a = _mm256_loadu_pd(wv + d);
    __m256d grad = _mm256_setzero_pd();
    for (int j = 0; j < m; j++) {
      const __m256d gj = _mm256_set1_pd(g[j]);
      const __m256d cv = _mm256_loadu_pd(live[j] + d);
      grad = _mm256_fmadd_pd(gj, cv, grad);
      _mm256_storeu_pd(live[j] + d, _mm256_fnmadd_pd(gj, a, cv));
    }
    _mm256_storeu_pd(wv + d, _mm256_sub_pd(a, grad));
  }
  return 1;
}

#endif /* SGNS_FUSED */

/* The fused step's dot split for this slice, or -1 for the loop only. */
static long fused_split(long dim, long negatives) {
#if SGNS_FUSED
  if (dim % 4 == 0 && negatives < FUSED_TARGETS) return dot_split(dim);
#else
  (void)dim;
  (void)negatives;
#endif
  return -1;
}

CAMLprim value caml_sgns_train_slice(value vw, value vc, value vlut,
                                     value vpairs, value vneg, value vip,
                                     value vfp) {
  double *w = (double *)vw;
  double *c = (double *)vc;
  const double *lut = (const double *)vlut;
  const double *fp = (const double *)vfp;

  const long dim = Long_val(Field(vip, IP_DIM));
  const long negatives = Long_val(Field(vip, IP_NEGATIVES));
  const long lo = Long_val(Field(vip, IP_LO));
  const long hi = Long_val(Field(vip, IP_HI));
  const long step_base = Long_val(Field(vip, IP_STEP_BASE));
  const double total = (double)Long_val(Field(vip, IP_TOTAL));
  const long tbl_len = (long)Wosize_val(vneg);

  const double base_lr = fp[FP_BASE_LR];
  const double lr_floor = base_lr * 1e-4;
  const double lut_range = fp[FP_LUT_RANGE];
  const double lut_scale = fp[FP_LUT_SCALE];

  uint64_t next = ((uint64_t)Long_val(Field(vip, IP_SEED_HI)) << 32) |
                  (uint64_t)Long_val(Field(vip, IP_SEED_LO));
  if (next == 0) next = UINT64_C(0x9E3779B97F4A7C15);

  if (lo >= hi) return Val_unit;

  const long split = fused_split(dim, negatives);
  double grad_w[dim]; /* C99 VLAs; dim and negatives are small */
  long tbuf_a[negatives + 1], tbuf_b[negatives + 1];
  long *tcur = tbuf_a, *tnext = tbuf_b;
  for (long d = 0; d < dim; d++) grad_w[d] = 0.0;

/* Draw pair p's targets into buf (slot 0 = positive context,
 * -1 = dropped negative) and start fetching every row it will touch. */
#define DRAW_AND_PREFETCH(p, buf)                                          \
  do {                                                                     \
    long wi_ = Long_val(Field(vpairs, 2 * (p)));                           \
    long ci_ = Long_val(Field(vpairs, 2 * (p) + 1));                       \
    const double *row_ = w + wi_ * dim;                                    \
    for (long b_ = 0; b_ < dim; b_ += 8)                                   \
      __builtin_prefetch(row_ + b_, 1, 3);                                 \
    (buf)[0] = ci_;                                                        \
    row_ = c + ci_ * dim;                                                  \
    for (long b_ = 0; b_ < dim; b_ += 8)                                   \
      __builtin_prefetch(row_ + b_, 1, 3);                                 \
    for (long k_ = 1; k_ <= negatives; k_++) {                             \
      next = next * UINT64_C(25214903917) + 11; /* word2vec.c's LCG */     \
      long tg_ =                                                           \
          Long_val(Field(vneg, (long)((next >> 16) % (uint64_t)tbl_len))); \
      if (tg_ == ci_)                                                      \
        (buf)[k_] = -1;                                                    \
      else {                                                               \
        (buf)[k_] = tg_;                                                   \
        row_ = c + tg_ * dim;                                              \
        for (long b_ = 0; b_ < dim; b_ += 8)                               \
          __builtin_prefetch(row_ + b_, 1, 3);                             \
      }                                                                    \
    }                                                                      \
  } while (0)

  DRAW_AND_PREFETCH(lo, tcur);
  for (long p = lo; p < hi; p++) {
    if (p + 1 < hi) DRAW_AND_PREFETCH(p + 1, tnext);
    const long wi = Long_val(Field(vpairs, 2 * p));
    const double step = (double)(step_base + p + 1);
    double lr = base_lr * (1.0 - step / total);
    if (lr < lr_floor) lr = lr_floor;
    double *restrict wv = w + wi * dim;

#if SGNS_FUSED
    if (split >= 0 && fused_step(split, dim, wv, c, tcur, negatives, lr, lut,
                                 lut_range, lut_scale)) {
      long *tmp = tcur;
      tcur = tnext;
      tnext = tmp;
      continue;
    }
#else
    (void)split;
#endif
    for (long k = 0; k <= negatives; k++) {
      const long tgt = tcur[k];
      if (tgt < 0) continue;
      double *restrict cv = c + tgt * dim;
      const double x = dot_lanes(wv, cv, dim);
      const double sg = lut_sigmoid(x, lut, lut_range, lut_scale);
      const double label = (k == 0) ? 1.0 : 0.0;
      const double g = (sg - label) * lr;
      if (g != 0.0) {
        for (long d2 = 0; d2 < dim; d2++) {
          const double cvd = cv[d2];
          grad_w[d2] += g * cvd;
          cv[d2] = cvd - g * wv[d2];
        }
      }
    }
    /* write-back doubles as re-zeroing for the next step */
    for (long d2 = 0; d2 < dim; d2++) {
      wv[d2] -= grad_w[d2];
      grad_w[d2] = 0.0;
    }
    long *tmp = tcur;
    tcur = tnext;
    tnext = tmp;
  }
  return Val_unit;
}

CAMLprim value caml_sgns_train_slice_bytes(value *argv, int argn) {
  (void)argn;
  return caml_sgns_train_slice(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6]);
}
