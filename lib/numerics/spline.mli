(** Natural cubic spline interpolation.

    The paper samples every probability density with 64 points and
    reconstructs intermediate values by cubic splines; this module provides
    that reconstruction, plus a resampling helper used whenever a
    distribution changes support after a sum or maximum. *)

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

type cursor
(** Mutable knot-segment position for mostly-increasing query sequences.
    One cursor per scan; never share one across domains. *)

val cursor : unit -> cursor
(** A fresh cursor at the first segment. *)

val eval_walk : t -> cursor -> float -> float
(** [eval_walk s c x] evaluates the spline at [x], advancing [c]
    linearly from its last segment instead of binary-searching per
    point, and falling back to the search on a regressing query. Returns
    values bit-identical to {!eval}. Each call returns a boxed float:
    scans over a uniform grid use {!sample_into} instead. *)

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
    [max 0 (s x)] at [x = (x0 +. k·dx) −. shift] into [out.(k)] for every
    [k < n], and [0.] where [x] falls outside [\[clip_lo, clip_hi\]]. Each
    value is bit-identical to {!eval_walk} over the same increasing
    queries passed through [Float.max 0.]; the scan keeps the cursor and
    every intermediate unboxed, so it allocates nothing. [out] must hold
    at least [n] cells. *)

val eval_clamped : t -> float -> float
(** Like {!eval} but returns the boundary ordinate outside the knot range —
    the right choice for densities, which must not oscillate when
    extrapolated. *)

val resample : xs:float array -> ys:float array -> onto:float array -> float array
(** [resample ~xs ~ys ~onto] fits a spline to [(xs, ys)] and evaluates it
    (clamped) at every point of [onto]. *)
