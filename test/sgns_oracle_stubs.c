/* The pre-fusion SGNS slice kernel, kept verbatim as the oracle of
 * the fused one (test_kernels.ml, "kernel_oracle"): the file that
 * lib/word2vec/sgns_stubs.c replaced, with the entry points renamed so
 * both link into one test and `pairs` still an array of (int * int)
 * tuples.  Built with the library's flags (test/dune), so the
 * compiler contracts its products into FMAs exactly as it contracts
 * the library's fallback loop.  Its own header follows. */

/* Sequential SGNS epoch kernel for the `Lut training path.
 *
 * The OCaml loop in Sgns.train_sequential_fast tops out well short of
 * the word2vec.c kernel it mirrors: without flambda every float
 * crossing a function boundary is boxed, and the scalar code the
 * OCaml backend emits for the dot/update loops leaves about half the
 * core's FP throughput on the table.  This stub runs one contiguous
 * slice of steps of one epoch entirely in C over the flat matrices,
 * and software-pipelines the sampling: while step p computes, step
 * p+1's word/context rows are already being prefetched — the random
 * negative rows are the kernel's dominant cache-miss source and one
 * step (~a few hundred cycles) is enough to cover an L3 round trip.
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
 *
 * Layout notes: `w`/`c`/`lut` are floatarrays (flat double payload);
 * `pairs` is an array of (int * int) tuples; `neg_table` is an int
 * array (tagged immediates).
 */

#include <caml/mlvalues.h>
#include <stdint.h>

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

CAMLprim value caml_sgns_oracle_train_slice(value vw, value vc, value vlut,
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

  double grad_w[dim]; /* C99 VLAs; dim and negatives are small */
  long tbuf_a[negatives + 1], tbuf_b[negatives + 1];
  long *tcur = tbuf_a, *tnext = tbuf_b;
  for (long d = 0; d < dim; d++) grad_w[d] = 0.0;

/* Draw pair p's targets into buf (slot 0 = positive context,
 * -1 = dropped negative) and start fetching every row it will touch. */
#define DRAW_AND_PREFETCH(p, buf)                                          \
  do {                                                                     \
    value pr_ = Field(vpairs, (p));                                        \
    long wi_ = Long_val(Field(pr_, 0));                                    \
    long ci_ = Long_val(Field(pr_, 1));                                    \
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
    const long wi = Long_val(Field(Field(vpairs, p), 0));
    const double step = (double)(step_base + p + 1);
    double lr = base_lr * (1.0 - step / total);
    if (lr < lr_floor) lr = lr_floor;
    double *restrict wv = w + wi * dim;

    for (long k = 0; k <= negatives; k++) {
      const long tgt = tcur[k];
      if (tgt < 0) continue;
      double *restrict cv = c + tgt * dim;
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
      double sg;
      if (x >= lut_range)
        sg = 1.0;
      else if (x < -lut_range)
        sg = 0.0;
      else
        sg = lut[(long)((x + lut_range) * lut_scale)];
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

CAMLprim value caml_sgns_oracle_train_slice_bytes(value *argv, int argn) {
  (void)argn;
  return caml_sgns_oracle_train_slice(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6]);
}
