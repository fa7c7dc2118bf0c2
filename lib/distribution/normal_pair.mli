(** The (mean, standard deviation) algebra behind Spelde's method.

    Spelde's CLT-based evaluation (Ludwig, Möhring & Stork 2001) carries
    each random variable only as its mean and standard deviation: sums add
    means and variances; maxima use Clark's moment-matching formulas
    (Clark 1961) with independence (ρ = 0). *)

type t = { mean : float; std : float }

val const : float -> t
(** Deterministic value. *)

val make : mean:float -> std:float -> t
(** Requires [std >= 0]. *)

val to_normal : ?points:int -> t -> Dist.t
(** The normal distribution with these moments (a point mass if σ = 0). *)

val add : t -> t -> t
(** Sum of independent variables: means and variances add. *)

val max_clark : t -> t -> t
(** Clark's first- and second-moment formulas for [max(X₁, X₂)] of
    independent normals. *)

val max_list : t list -> t
(** Left fold of {!max_clark}; rejects []. *)
