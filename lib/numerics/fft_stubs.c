/* Radix-2 complex FFT and packed real convolution for Numerics.
 *
 * One transform, [fft_core], serves both Fft.forward/inverse and the
 * packed convolution. It is the decimation-in-time Cooley–Tukey loop the
 * OCaml code ran before, over the plan Fft builds and caches (bit-reversal
 * permutation and per-stage twiddles): the tables come in from OCaml and
 * are never recomputed here.
 *
 * Bits. Every butterfly output is computed by the same IEEE operations,
 * in the same order, on the same operands as before:
 *   tr = cr*x2 - ci*y2;  ti = cr*y2 + ci*x2;
 *   x2' = x - tr;  y2' = y - ti;  x' = x + tr;  y' = y + ti.
 * Within a stage the butterflies are independent, so stages with
 * half >= 2 run two adjacent butterflies per 128-bit vector (GCC/Clang
 * vector extensions: SSE2 on x86-64, NEON on aarch64, from one source).
 * Lane-wise vector arithmetic rounds exactly like the scalar operation,
 * so this changes speed, not results, provided the compiler neither
 * contracts a*b+c into an FMA nor reassociates: the dune file builds
 * this file with -ffp-contract=off and no fast-math flag, and CI
 * rejects any change to that.
 *
 * Safety. The entry points are [@@noalloc] and do no bounds checks:
 * the OCaml wrappers (Fft.forward/inverse, Convolution.fft_packed_into,
 * Convolution.overlap_add_into) validate every length and offset first.
 * Float arrays are read as flat double arrays. */

#include <string.h>
#include <caml/mlvalues.h>

#ifndef FLAT_FLOAT_ARRAY
#error "fft_stubs.c reads float arrays as flat double arrays"
#endif

typedef double v2d __attribute__((vector_size(16)));

static inline v2d load2(const double *p)
{
  v2d v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void store2(double *p, v2d v)
{
  memcpy(p, &v, sizeof v);
}

/* Fields of Fft.plan, in declaration order. */
enum { PLAN_REV, PLAN_FWD_RE, PLAN_FWD_IM, PLAN_INV_RE, PLAN_INV_IM };

#define Plan_table(plan, field) ((const double *) Field(plan, field))

/* In-place transform of re/im (length n, a power of two) with the
 * plan's permutation [rev] and the twiddle tables of one direction.
 * Stage [len = 2·half] reads its twiddles from offset half − 1. */
static void fft_core(double *re, double *im, intnat n, value rev,
                     const double *tw_re, const double *tw_im)
{
  for (intnat i = 0; i < n; i++) {
    intnat j = Long_val(Field(rev, i));
    if (i < j) {
      double tr = re[i], ti = im[i];
      re[i] = re[j]; re[j] = tr;
      im[i] = im[j]; im[j] = ti;
    }
  }
  if (n >= 2) {
    /* half = 1: one twiddle per stage, butterflies on adjacent slots */
    double cr = tw_re[0], ci = tw_im[0];
    for (intnat k = 0; k < n; k += 2) {
      double x2 = re[k + 1], y2 = im[k + 1];
      double tr = cr * x2 - ci * y2;
      double ti = cr * y2 + ci * x2;
      double x = re[k], y = im[k];
      re[k + 1] = x - tr;
      im[k + 1] = y - ti;
      re[k] = x + tr;
      im[k] = y + ti;
    }
  }
  for (intnat half = 2; half < n; half *= 2) {
    const double *wr = tw_re + (half - 1), *wi = tw_im + (half - 1);
    for (intnat i = 0; i < n; i += 2 * half) {
      double *pr = re + i, *pi = im + i;
      for (intnat t = 0; t < half; t += 2) {
        v2d cr = load2(wr + t), ci = load2(wi + t);
        v2d x2 = load2(pr + half + t), y2 = load2(pi + half + t);
        v2d tr = cr * x2 - ci * y2;
        v2d ti = cr * y2 + ci * x2;
        v2d x = load2(pr + t), y = load2(pi + t);
        store2(pr + half + t, x - tr);
        store2(pi + half + t, y - ti);
        store2(pr + t, x + tr);
        store2(pi + t, y + ti);
      }
    }
  }
}

/* Fft.forward (inverse = 0) and Fft.inverse (inverse = 1, which also
 * scales both components by 1/n). */
CAMLprim value numerics_fft_transform(value re, value im, intnat n, value plan,
                                      intnat inverse)
{
  double *r = (double *) re, *i = (double *) im;
  if (inverse) {
    fft_core(r, i, n, Field(plan, PLAN_REV), Plan_table(plan, PLAN_INV_RE),
             Plan_table(plan, PLAN_INV_IM));
    double inv = 1. / (double) n;
    for (intnat k = 0; k < n; k++) {
      r[k] = r[k] * inv;
      i[k] = i[k] * inv;
    }
  } else {
    fft_core(r, i, n, Field(plan, PLAN_REV), Plan_table(plan, PLAN_FWD_RE),
             Plan_table(plan, PLAN_FWD_IM));
  }
  return Val_unit;
}

CAMLprim value numerics_fft_transform_byte(value re, value im, value n, value plan,
                                           value inverse)
{
  return numerics_fft_transform(re, im, Long_val(n), plan, Long_val(inverse));
}

/* Packed real convolution of a[a_off .. a_off+n-1] with b[0 .. m-1]
 * through the workspace zre/zim (length [size] = next power of two
 * ≥ n+m−1). Both operands travel in one complex transform z = a + i·b;
 * the spectra separate by conjugate symmetry,
 *   A_k = (Z_k + conj Z_{size-k}) / 2,   B_k = (Z_k − conj Z_{size-k}) / 2i,
 * and one inverse transform of the Hermitian product A·B gives the real
 * convolution, scaled by 1/size on the way out. With [accumulate] the
 * result is added to out[out_off ..] (overlap–add); otherwise it
 * overwrites it. */
CAMLprim value numerics_conv_packed(value out, intnat out_off, intnat accumulate,
                                    value a, intnat a_off, intnat n, value b, intnat m,
                                    value wre, value wim, intnat size, value plan)
{
  double *zre = (double *) wre, *zim = (double *) wim;
  memcpy(zre, (const double *) a + a_off, n * sizeof(double));
  memset(zre + n, 0, (size - n) * sizeof(double));
  memcpy(zim, (const double *) b, m * sizeof(double));
  memset(zim + m, 0, (size - m) * sizeof(double));
  value rev = Field(plan, PLAN_REV);
  fft_core(zre, zim, size, rev, Plan_table(plan, PLAN_FWD_RE),
           Plan_table(plan, PLAN_FWD_IM));
  /* bins 0 and size/2 are self-conjugate: A and B are real there */
  zre[0] = zre[0] * zim[0];
  zim[0] = 0.;
  if (size > 1) {
    intnat h = size / 2;
    zre[h] = zre[h] * zim[h];
    zim[h] = 0.;
    for (intnat k = 1; k < h; k++) {
      intnat nk = size - k;
      double zr = zre[k], zi = zim[k], yr = zre[nk], yi = zim[nk];
      double ar = 0.5 * (zr + yr), ai = 0.5 * (zi - yi);
      double br = 0.5 * (zi + yi), bi = 0.5 * (yr - zr);
      double cr = ar * br - ai * bi;
      double ci = ar * bi + ai * br;
      zre[k] = cr;
      zim[k] = ci;
      zre[nk] = cr;
      zim[nk] = -ci;
    }
  }
  fft_core(zre, zim, size, rev, Plan_table(plan, PLAN_INV_RE),
           Plan_table(plan, PLAN_INV_IM));
  double inv = 1. / (double) size;
  double *o = (double *) out + out_off;
  intnat len = n + m - 1;
  if (accumulate)
    for (intnat k = 0; k < len; k++) o[k] = o[k] + zre[k] * inv;
  else
    for (intnat k = 0; k < len; k++) o[k] = zre[k] * inv;
  return Val_unit;
}

CAMLprim value numerics_conv_packed_byte(value *argv, int argn)
{
  (void) argn;
  return numerics_conv_packed(argv[0], Long_val(argv[1]), Long_val(argv[2]), argv[3],
                              Long_val(argv[4]), Long_val(argv[5]), argv[6],
                              Long_val(argv[7]), argv[8], argv[9], Long_val(argv[10]),
                              argv[11]);
}
