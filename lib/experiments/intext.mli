(** In-text results of §VII.

    1. The relative probabilistic metric divided by the makespan
       correlates with the makespan standard deviation at Pearson
       ≈ 0.998 ± 0.009 across the Fig. 6 cases.
    2. The three analytic evaluation methods (classical, Dodin, Spelde)
       produce similar distributions (§V validation). *)

type rel_prob = {
  per_case : float list;  (** Pearson(E(M)/R, σ_M) per case — the
      makespan-divided relative probabilistic metric in its inverted
      (reciprocal) orientation, which is linear in σ for a near-normal
      makespan *)
  mean : float;
  std : float;
}

val rel_prob_vs_std : float array array list -> rel_prob
(** Computed from already-run cases: each case's random-schedule metric
    rows ({!Runner.random_rows}, {!Metrics.Robustness.labels} order). *)

val render_rel_prob : rel_prob -> string

type method_row = {
  case_id : string;
  method_name : string;
  ks : float;
  cm : float;
}

val methods_vs_mc :
  ?pool:Parallel.Pool.t -> ?scale:Scale.t -> ?cases:Case.t list -> unit -> method_row list
(** KS/CM of each analytic method against Monte Carlo on one random
    schedule per case (defaults to three small paper cases). *)

val render_methods : method_row list -> string
