(** Numerical quadrature over uniformly sampled data and functions.

    Simpson's rule is the paper's stated integrator; the composite form
    here handles both odd and even sample counts (the final interval of an
    even-count grid falls back to a trapezoid). *)

val trapezoid_sampled : dx:float -> float array -> float
(** Composite trapezoid rule over uniform samples. Needs >= 2 samples. *)

val trapezoid_prefix : dx:float -> n:int -> float array -> float
(** {!trapezoid_sampled} over the first [n] samples of a possibly longer
    buffer; bit-identical to it on an [n]-sample copy. *)

val simpson_sampled : dx:float -> float array -> float
(** Composite Simpson rule over uniform samples. Needs >= 2 samples. *)

val simpson : f:(float -> float) -> a:float -> b:float -> n:int -> float
(** [simpson ~f ~a ~b ~n] integrates [f] on [\[a,b\]] using [n] (rounded up
    to even) subintervals. *)

val cumulative_into : dx:float -> n:int -> float array -> float array -> unit
(** [cumulative_into ~dx ~n ys out] writes the running trapezoid integral
    of the first [n] samples of [ys] into the first [n] cells of [out],
    which must not alias [ys]: cell [i] holds the integral from the first
    sample to sample [i] (cell 0 is 0). Used to turn a PDF grid into a
    CDF. *)
