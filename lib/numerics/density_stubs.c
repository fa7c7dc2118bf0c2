/* Per-sample density kernels for Numerics: the spline scan that resamples
 * every density, the passes that turn raw samples into a normalized
 * pdf/cdf pair, and the f1·F2 + f2·F1 loop of an independent maximum.
 *
 * Bits. Each output is computed by the same IEEE operations, in the same
 * order, on the same operands as the OCaml loops these kernels replaced
 * (test/spline_oracle.ml and test/density_oracle.ml keep frozen copies):
 *   spline value   (a*y_i + b*y_i1) + ((((a*a*a - a)*y2_i + (b*b*b - b)*y2_i1)*h)*h)/6
 *                  with h = x_i1 - x_i, a = (x_i1 - x)/h, b = (x - x_i)/h;
 *   query          x = (x0 + k*dx) - shift, k counted exactly in a double;
 *   segment        the largest i with xs[i] <= x, clamped to [0, n - 2],
 *                  found by the same cursor walk and binary search;
 *   Float.max 0 v  v > 0 || v != v ? v : +0 (NaN kept, -0 and negatives 0);
 *   Float.min 1 v  v > 1 ? 1 : v (NaN kept).
 * Independent points run two per 128-bit vector (GCC/Clang vector
 * extensions: SSE2 on x86-64, NEON on aarch64). Lane-wise arithmetic
 * rounds exactly like the scalar operation, so this changes speed, not
 * results, provided the compiler neither contracts a*b+c into an FMA nor
 * reassociates: the dune file builds this file with -ffp-contract=off and
 * no fast-math flag, and CI rejects any change to that. Running sums (the
 * trapezoid mass, the cumulative integral, the atom accumulation) keep
 * their serial order.
 *
 * Safety. The entry points are [@@noalloc] and do no bounds checks: the
 * OCaml wrappers (Spline.sample_into, Spline.sample_mixture_into,
 * Density.clamp_mass, Density.normalize, Density.max_indep_into)
 * validate every length first. Float arrays are read as flat double
 * arrays. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

#ifndef FLAT_FLOAT_ARRAY
#error "density_stubs.c reads float arrays as flat double arrays"
#endif

typedef double v2d __attribute__((vector_size(16)));
typedef long long v2i __attribute__((vector_size(16)));

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

/* the first min(m, 2) cells of p as a vector (a missing lane reads 0) */
static inline v2d load2_upto(const double *p, intnat m)
{
  return m >= 2 ? load2(p) : (v2d) { p[0], 0. };
}

static inline void store2_upto(double *p, intnat m, v2d v)
{
  if (m >= 2) store2(p, v);
  else p[0] = v[0];
}

static inline v2d splat(double x)
{
  return (v2d) { x, x };
}

/* bits of [v] where [keep] is all ones, +0. elsewhere */
static inline v2d keep_or_zero(v2d v, v2i keep)
{
  return (v2d) ((v2i) v & keep);
}

/* ------------------------------------------------------------------ */
/* Spline scan                                                         */
/* ------------------------------------------------------------------ */

/* A fitted natural spline: knot abscissas, ordinates and second
 * derivatives, [n] >= 2 knots. */
struct spline {
  const double *xs, *ys, *y2;
  intnat n;
};

/* The largest i with xs[i] <= x, clamped to [0, n − 2], by bisection. */
static intnat spline_segment(const struct spline *s, double x)
{
  intnat lo = 0, hi = s->n - 1;
  while (hi - lo > 1) {
    intnat mid = (lo + hi) / 2;
    if (s->xs[mid] > x) hi = mid; else lo = mid;
  }
  return lo;
}

/* The same segment from cursor [c]: bisect on a regressing query,
 * otherwise advance linearly. */
static inline intnat spline_walk(const struct spline *s, intnat c, double x)
{
  if (x < s->xs[c]) return spline_segment(s, x);
  intnat last = s->n - 2;
  while (c < last && s->xs[c + 1] <= x) c++;
  return c;
}

/* The spline at two queries, segment [i0] in lane 0 and [i1] in lane 1 */
static inline v2d spline_eval2(const struct spline *s, intnat i0, intnat i1, v2d x)
{
  const double *xs = s->xs, *ys = s->ys, *y2 = s->y2;
  v2d x_i = { xs[i0], xs[i1] }, x_i1 = { xs[i0 + 1], xs[i1 + 1] };
  v2d y_i = { ys[i0], ys[i1] }, y_i1 = { ys[i0 + 1], ys[i1 + 1] };
  v2d d_i = { y2[i0], y2[i1] }, d_i1 = { y2[i0 + 1], y2[i1 + 1] };
  v2d h = x_i1 - x_i;
  v2d a = (x_i1 - x) / h;
  v2d b = (x - x_i) / h;
  return (a * y_i + b * y_i1)
         + (((a * a * a) - a) * d_i + ((b * b * b) - b) * d_i1) * h * h / splat(6.);
}

/* One scan of the query grid x_k = (x0 + k·dx) − shift, k < n: the
 * spline's value clamped at 0 (NaN kept), or 0 where x_k lies outside
 * [clip_lo, clip_hi]. With [weight] = 0 the value is stored into out[k];
 * otherwise out[k] + weight·value is. Always inlined, so each caller gets
 * a loop specialized to its mode. */
static inline __attribute__((always_inline)) void
spline_scan(const struct spline *s, double x0, double dx, double shift, double clip_lo,
            double clip_hi, intnat n, double *out, int accumulate, double weight)
{
  intnat c = 0;
  intnat k = 0;
  v2d kf = { 0., 1. };
  const v2d two = splat(2.), x0v = splat(x0), dxv = splat(dx), shiftv = splat(shift);
  const v2d lo = splat(clip_lo), hi = splat(clip_hi), zero = splat(0.);
  const v2d w = splat(weight);
  /* an odd n computes a lane past the end and does not store it */
  for (; k < n; k += 2) {
    v2d x = (x0v + kf * dxv) - shiftv;
    kf = kf + two;
    v2i inside = ~((x < lo) | (x > hi));
    intnat i0 = c, i1;
    if (inside[0]) c = i0 = spline_walk(s, c, x[0]);
    if (inside[1]) c = spline_walk(s, c, x[1]);
    i1 = c;
    v2d v = spline_eval2(s, i0, i1, x);
    v = keep_or_zero(v, inside & ((v > zero) | (v != v)));
    if (accumulate) v = load2_upto(out + k, n - k) + w * v;
    store2_upto(out + k, n - k, v);
  }
}

#define Spline_of(xs, ys, y2, n) \
  { (const double *) (xs), (const double *) (ys), (const double *) (y2), (n) }

/* Spline.sample_into */
CAMLprim value numerics_spline_sample(value xs, value ys, value y2, intnat knots, double x0,
                                      double dx, double shift, double clip_lo, double clip_hi,
                                      intnat n, value out)
{
  struct spline s = Spline_of(xs, ys, y2, knots);
  spline_scan(&s, x0, dx, shift, clip_lo, clip_hi, n, (double *) out, 0, 0.);
  return Val_unit;
}

CAMLprim value numerics_spline_sample_byte(value *argv, int argn)
{
  (void) argn;
  return numerics_spline_sample(argv[0], argv[1], argv[2], Long_val(argv[3]),
                                Double_val(argv[4]), Double_val(argv[5]), Double_val(argv[6]),
                                Double_val(argv[7]), Double_val(argv[8]), Long_val(argv[9]),
                                argv[10]);
}

/* Spline.sample_mixture_into: out[k] = 0, then for each i < m with
 * weights[i] > 0, in order, out[k] + weights[i]·value at shift
 * shifts[i]. */
CAMLprim value numerics_spline_mixture(value xs, value ys, value y2, intnat knots, double x0,
                                       double dx, value shifts, value weights, intnat m,
                                       double clip_lo, double clip_hi, intnat n, value out)
{
  struct spline s = Spline_of(xs, ys, y2, knots);
  const double *sh = (const double *) shifts, *wt = (const double *) weights;
  double *o = (double *) out;
  memset(o, 0, (n > 0 ? n : 0) * sizeof(double));
  for (intnat i = 0; i < m; i++)
    if (wt[i] > 0.) spline_scan(&s, x0, dx, sh[i], clip_lo, clip_hi, n, o, 1, wt[i]);
  return Val_unit;
}

CAMLprim value numerics_spline_mixture_byte(value *argv, int argn)
{
  (void) argn;
  return numerics_spline_mixture(argv[0], argv[1], argv[2], Long_val(argv[3]),
                                 Double_val(argv[4]), Double_val(argv[5]), argv[6], argv[7],
                                 Long_val(argv[8]), Double_val(argv[9]), Double_val(argv[10]),
                                 Long_val(argv[11]), argv[12]);
}

/* ------------------------------------------------------------------ */
/* Density passes                                                      */
/* ------------------------------------------------------------------ */

/* Density.clamp_mass: pdf[i] = src[i] where it is finite and positive,
 * +0. elsewhere ([pdf] may be [src]); returns the trapezoid mass
 * ((pdf[0] + pdf[n−1]) / 2 + pdf[1] + … + pdf[n−2])·dx, n >= 2. */
CAMLprim double numerics_density_clamp_mass(value src, value pdf, intnat n, double dx)
{
  const double *s = (const double *) src;
  double *p = (double *) pdf;
  const v2d zero = splat(0.), inf = splat(__builtin_inf());
  intnat i = 0;
  for (; i + 1 < n; i += 2) {
    v2d v = load2(s + i);
    store2(p + i, keep_or_zero(v, (v > zero) & (v < inf)));
  }
  if (i < n) {
    double v = s[i];
    p[i] = (v > 0. && v < __builtin_inf()) ? v : 0.;
  }
  double total = (p[0] + p[n - 1]) / 2.;
  for (i = 1; i < n - 1; i++) total = total + p[i];
  return total * dx;
}

CAMLprim value numerics_density_clamp_mass_byte(value src, value pdf, value n, value dx)
{
  return caml_copy_double(numerics_density_clamp_mass(src, pdf, Long_val(n), Double_val(dx)));
}

/* Density.normalize: pdf[i] = pdf[i] / mass; cdf[0] = 0 and
 * cdf[i] = cdf[i−1] + ((pdf[i−1] + pdf[i]) / 2)·dx; then, if the last
 * cell is positive, cdf[i] = Float.min 1 (cdf[i] / last). [cdf] does not
 * alias [pdf]; n >= 2. */
CAMLprim value numerics_density_normalize(value pdf, value cdf, intnat n, double dx,
                                          double mass)
{
  double *p = (double *) pdf, *c = (double *) cdf;
  const v2d massv = splat(mass), dxv = splat(dx), two = splat(2.), one = splat(1.);
  intnat i = 0;
  for (; i + 1 < n; i += 2) store2(p + i, load2(p + i) / massv);
  if (i < n) p[i] = p[i] / mass;
  /* the trapezoid terms are independent; their running sum is not */
  for (i = 1; i + 1 < n; i += 2) store2(c + i, (load2(p + i - 1) + load2(p + i)) / two * dxv);
  if (i < n) c[i] = (p[i - 1] + p[i]) / 2. * dx;
  c[0] = 0.;
  for (i = 1; i < n; i++) c[i] = c[i - 1] + c[i];
  double last = c[n - 1];
  if (last > 0.) {
    const v2d lastv = splat(last);
    for (i = 0; i + 1 < n; i += 2) {
      v2d v = load2(c + i) / lastv;
      v2i cap = v > one;
      store2(c + i, (v2d) (((v2i) v & ~cap) | ((v2i) one & cap)));
    }
    if (i < n) {
      double v = c[i] / last;
      c[i] = v > 1. ? 1. : v;
    }
  }
  return Val_unit;
}

CAMLprim value numerics_density_normalize_byte(value pdf, value cdf, value n, value dx,
                                               value mass)
{
  return numerics_density_normalize(pdf, cdf, Long_val(n), Double_val(dx), Double_val(mass));
}

/* ------------------------------------------------------------------ */
/* Independent maximum                                                 */
/* ------------------------------------------------------------------ */

/* A CDF sampled at lo + i·dx, i < n (n >= 2), read by linear
 * interpolation: Dist's grid_cdf_at. */
struct cdf_grid {
  const double *cdf;
  double lo, dx, hi;
  intnat n;
};

static inline double cdf_read(const struct cdf_grid *g, double x)
{
  if (x <= g->lo) return 0.;
  if (x >= g->hi) return 1.;
  double pos = (x - g->lo) / g->dx;
  /* Int.min (int_of_float pos) (n − 2) for pos >= 0, without converting
   * a value out of range */
  intnat i = pos < (double) (g->n - 2) ? (intnat) pos : g->n - 2;
  double frac = pos - (double) i;
  double c_i = g->cdf[i];
  double v = c_i + frac * (g->cdf[i + 1] - c_i);
  v = (v > 0. || v != v) ? v : 0.;
  return v > 1. ? 1. : v;
}

/* Density.max_indep_into: out[k] = f1[k]·F2(x) + f2[k]·F1(x) at
 * x = lo + k·dx, k < n. */
CAMLprim value numerics_density_max_indep(value f1, value f2, value cdf1, double lo1,
                                          double dx1, intnat n1, value cdf2, double lo2,
                                          double dx2, intnat n2, double lo, double dx,
                                          intnat n, value out)
{
  const double *a = (const double *) f1, *b = (const double *) f2;
  double *o = (double *) out;
  struct cdf_grid g1 = { (const double *) cdf1, lo1, dx1, lo1 + dx1 * (double) (n1 - 1), n1 };
  struct cdf_grid g2 = { (const double *) cdf2, lo2, dx2, lo2 + dx2 * (double) (n2 - 1), n2 };
  double kf = 0.;
  for (intnat k = 0; k < n; k++) {
    double x = lo + kf * dx;
    kf = kf + 1.;
    o[k] = a[k] * cdf_read(&g2, x) + b[k] * cdf_read(&g1, x);
  }
  return Val_unit;
}

CAMLprim value numerics_density_max_indep_byte(value *argv, int argn)
{
  (void) argn;
  return numerics_density_max_indep(argv[0], argv[1], argv[2], Double_val(argv[3]),
                                    Double_val(argv[4]), Long_val(argv[5]), argv[6],
                                    Double_val(argv[7]), Double_val(argv[8]),
                                    Long_val(argv[9]), Double_val(argv[10]),
                                    Double_val(argv[11]), Long_val(argv[12]), argv[13]);
}
