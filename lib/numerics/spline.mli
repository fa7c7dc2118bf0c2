(** Natural cubic spline interpolation.

    The paper samples every probability density with 64 points and
    reconstructs intermediate values by cubic splines; this module provides
    that reconstruction: the fit (serial, in OCaml), a point evaluation,
    and the batch scans over a uniform query grid that resample a density
    whenever it changes support after a sum or maximum (in C). *)

type t
(** A fitted spline over strictly increasing knots. It records its knot
    count, so its arrays may be longer than the knots they hold. *)

val fit : xs:float array -> ys:float array -> t
(** [fit ~xs ~ys] builds a natural cubic spline ([y'' = 0] at both ends)
    through the points [(xs.(i), ys.(i))]. [xs] must be strictly
    increasing and contain at least two points. Allocates the
    second-derivative table and the solve's workspace; the spline keeps
    [xs] and [ys] without copying. *)

val fit_into :
  xs:float array -> ys:float array -> n:int -> y2:float array -> u:float array -> t
(** [fit_into ~xs ~ys ~n ~y2 ~u] is {!fit} over the first [n] knots of
    [xs]/[ys], solving into the caller buffers [y2] (kept by the spline)
    and [u] (workspace, free again on return). Every buffer must hold at
    least [n] cells; cells past [n] are neither read nor written. The
    spline aliases [xs], [ys] and [y2]: it is valid until the caller
    overwrites them. Bit-identical to {!fit} on the same knots. *)

val eval : t -> float -> float
(** [eval s x] evaluates the spline. Outside the knot range the boundary
    cubic is extrapolated. *)

val sample_into :
  t ->
  x0:float ->
  dx:float ->
  shift:float ->
  clip_lo:float ->
  clip_hi:float ->
  n:int ->
  float array ->
  unit
(** [sample_into s ~x0 ~dx ~shift ~clip_lo ~clip_hi ~n out] writes
    [Float.max 0. (eval s x)] at [x = (x0 +. k·dx) −. shift] into
    [out.(k)] for every [k < n], and [0.] where [x] falls outside
    [\[clip_lo, clip_hi\]]; cells past [n] are not touched. [out] must
    hold at least [n] cells. The scan runs in C ([density_stubs.c]), two
    queries per 128-bit vector, allocates nothing, and keeps the bits of
    the scalar OCaml loop it replaced: each query's segment is the one
    {!eval} picks and its cubic is evaluated by the same operations in the
    same order. *)

val sample_mixture_into :
  t ->
  x0:float ->
  dx:float ->
  shifts:float array ->
  weights:float array ->
  clip_lo:float ->
  clip_hi:float ->
  n:int ->
  float array ->
  unit
(** [sample_mixture_into s ~x0 ~dx ~shifts ~weights ~clip_lo ~clip_hi ~n
    out] sets [out.(k)] to [0.] and then, for each [i] in order whose
    weight is positive, to [out.(k) +. weights.(i) *. v], where [v] is
    what {!sample_into} would write at cell [k] with [~shift:shifts.(i)].
    One pass of the kernel per component and no sample buffer; the sums
    are those of the per-component loop. [shifts] and [weights] have the
    same length; [out] holds at least [n] cells. *)
