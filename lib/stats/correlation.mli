(** Correlation coefficients.

    The paper's entire empirical apparatus rests on the Pearson
    coefficient between metric values over thousands of schedules
    (Figs. 3–6); Spearman is provided as a robustness check on the
    “slightly curved” point clouds the paper mentions. *)

val pearson : float array -> float array -> float
(** Pearson product-moment correlation of two equal-length samples of
    size >= 2. Returns [nan] when either sample has zero variance. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation (Pearson on average ranks, handling ties). *)
