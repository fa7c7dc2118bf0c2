(** Scalar root finding, used for distribution quantiles and for
    calibrating the probabilistic-metric bounds δ and γ. *)

val bisect :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** [bisect ~f ~lo ~hi ()] finds a root of [f] on a bracketing interval
    ([f lo] and [f hi] of opposite sign, or one of them zero), in at most
    200 iterations. *)

val brent :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** Brent's method: inverse quadratic interpolation / secant / bisection
    hybrid. Same contract as {!bisect}, much faster convergence. *)
