(** Special functions needed by the distribution families and by Spelde's
    normal-approximation method (standard normal PDF/CDF, Clark's max
    formulas) and by the analytic Beta/Gamma densities. *)

val erf : float -> float
(** Error function, absolute error below ~1.2e-7 everywhere. *)

val erfc : float -> float
(** Complementary error function. *)

val normal_pdf : float -> float
(** Standard normal density φ(x). *)

val normal_cdf : float -> float
(** Standard normal distribution Φ(x). *)

val log_gamma : float -> float
(** ln Γ(x) for [x > 0] (Lanczos). *)

val beta_pdf : alpha:float -> beta:float -> float -> float
(** Density of Beta(α, β) at a point of [\[0,1\]] (0 outside). *)

val betainc : alpha:float -> beta:float -> float -> float
(** Regularized incomplete beta function I_x(α, β) — the Beta CDF.
    Continued-fraction evaluation (relative error ~1e-12). Arguments
    clamped to [\[0,1\]]. *)

val betainc_inv : alpha:float -> beta:float -> float -> float
(** Inverse of {!betainc} in its third argument: the Beta(α, β) quantile
    function, for probabilities in [\[0,1\]]. *)
