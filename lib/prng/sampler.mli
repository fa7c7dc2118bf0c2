(** Random-variate samplers over a {!Xoshiro} stream.

    These cover every distribution family the reproduction needs: uniform
    task/processor picks, the Beta(2,5) perturbation of the paper's
    uncertainty model, the Gamma weights of the CVB task-heterogeneity
    generator, and normals for testing against the CLT results. *)

type rng = Xoshiro.t

val uniform : rng -> lo:float -> hi:float -> float
(** [uniform rng ~lo ~hi] is uniform on [\[lo, hi)]. Requires [lo <= hi]. *)

val normal : rng -> mean:float -> std:float -> float
(** [normal rng ~mean ~std] via the Marsaglia polar method. [std >= 0]. *)

val gamma : rng -> shape:float -> scale:float -> float
(** [gamma rng ~shape ~scale] via Marsaglia & Tsang's squeeze method,
    with the usual boosting trick for [shape < 1]. Requires both positive. *)

val beta : rng -> alpha:float -> beta:float -> float
(** [beta rng ~alpha ~beta] in [\[0,1\]] as [X/(X+Y)] for Gamma variates. *)

val gamma_mean_cv : rng -> mean:float -> cv:float -> float
(** [gamma_mean_cv rng ~mean ~cv] draws a Gamma variate parameterized by its
    mean and coefficient of variation [cv = σ/mean] — the parameterization
    used by the CVB heterogeneity method of Ali et al. [cv = 0] degenerates
    to the constant [mean]. *)

val shuffle : rng -> 'a array -> unit
(** [shuffle rng a] permutes [a] uniformly in place (Fisher–Yates). *)

