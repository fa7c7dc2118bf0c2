(** Distances between cumulative distribution functions.

    §V of the paper validates the independence-assumption makespan
    distribution against 100 000 Monte-Carlo realizations using two
    distances: Kolmogorov–Smirnov (sup-norm of the CDF difference) and a
    Cramér–von-Mises {e variant} measuring the area between the two CDFs
    (so its unit is the x-axis unit, and it can exceed 1 — as in Fig. 1's
    log scale up to 100). *)

type side =
  | Analytic of Distribution.Dist.t
  | Sampled of Distribution.Empirical.t

val ks : side -> side -> float
(** Kolmogorov–Smirnov distance [sup_x |F₁(x) − F₂(x)|], evaluated on a
    fine union grid plus every jump point of any sampled side. *)

val cm_area : side -> side -> float
(** Area variant of Cramér–von-Mises: [∫ |F₁(x) − F₂(x)| dx] over the
    union of supports (2048 integration points). *)
