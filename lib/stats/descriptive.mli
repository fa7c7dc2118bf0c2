(** Descriptive statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean of a non-empty sample. *)

val variance : float array -> float
(** Unbiased sample variance (0 for samples of size < 2). *)

val population_variance : float array -> float
(** Biased (1/n) variance. *)

val quantile : float array -> float -> float
(** Linear-interpolated order-statistic quantile, [p ∈ \[0,1\]]. *)
