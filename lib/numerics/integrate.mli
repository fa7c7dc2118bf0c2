(** Numerical quadrature over uniformly sampled data and functions.

    Simpson's rule is the paper's stated integrator; the composite form
    here handles both odd and even sample counts (the final interval of an
    even-count grid falls back to a trapezoid). The trapezoid mass and
    running integral that every density construction takes are
    {!Density.clamp_mass} and {!Density.normalize}. *)

val trapezoid_sampled : dx:float -> float array -> float
(** Composite trapezoid rule over uniform samples. Needs >= 2 samples. *)

val simpson_sampled : dx:float -> float array -> float
(** Composite Simpson rule over uniform samples. Needs >= 2 samples. *)

val simpson : f:(float -> float) -> a:float -> b:float -> n:int -> float
(** [simpson ~f ~a ~b ~n] integrates [f] on [\[a,b\]] using [n] (rounded up
    to even) subintervals. *)
