(** Search objectives over engine evaluations.

    An objective maps one {!Makespan.Engine.evaluation} to a scalar that
    the optimizer {e minimizes}. Every one of the paper's eight
    robustness metrics is available; metrics the paper reads as
    better-when-larger (slack, A(δ), R(γ)) are negated so minimization
    is uniform — the orientation is monotone-equivalent to
    {!Metrics.Inversion} without depending on per-case slack maxima.

    The probabilistic metrics A(δ) and R(γ) need bounds; they are
    supplied through {!ctx} (see {!Metrics.Robustness.calibrate_bounds})
    and every other objective ignores them. *)

type t =
  | Expected_makespan  (** E(M) *)
  | Makespan_std  (** σ_M *)
  | Makespan_entropy  (** differential entropy h(M) *)
  | Avg_slack  (** −S: slack is better-when-larger *)
  | Slack_std  (** dispersion of per-task slacks *)
  | Avg_lateness  (** L = E(M|M>E(M)) − E(M) *)
  | Prob_absolute  (** −A(δ) *)
  | Prob_relative  (** −R(γ) *)
  | Blend of float  (** [Blend lambda] = E(M) + λ·σ_M *)

type ctx = { delta : float; gamma : float }
(** Bounds for A(δ) / R(γ); ignored by every other objective. *)

val parse : string -> (t, string) result
(** Accepted names: [makespan]/[em], [sigma_m]/[std], [entropy],
    [slack], [slack_std], [lateness], [a_delta]/[abs_prob],
    [r_gamma]/[rel_prob], and [blend:LAMBDA]. *)

val name : t -> string
(** Canonical token, reparsed by {!parse} (round-trips). *)

val value : t -> ctx -> Makespan.Engine.evaluation -> float
(** The scalar to minimize. Deterministic: same evaluation bits and same
    [ctx] give the same bits back. *)
