(** The eight metrics of §IV, extracted from a schedule's makespan
    distribution and slack structure.

    All are oriented as measured (not yet inverted for plotting — see
    {!Inversion}): larger slack means more spare time, larger
    probabilistic metrics mean more mass near the expected makespan. *)

type t = {
  expected_makespan : float;  (** E(M) — the performance metric itself *)
  makespan_std : float;  (** σ_M *)
  makespan_entropy : float;  (** differential entropy h(M) = −∫ f ln f *)
  avg_slack : float;  (** S = Σᵢ (M − Bl(i) − Tl(i)), the paper's “average slack” *)
  slack_std : float;  (** dispersion of the per-task slacks *)
  avg_lateness : float;  (** L = E(M′) − E(M), M′ = M conditioned on M > E(M) *)
  prob_absolute : float;  (** A(δ) = P(E(M)−δ ≤ M ≤ E(M)+δ) *)
  prob_relative : float;  (** R(γ) = P(E(M)/γ ≤ M ≤ γ·E(M)) *)
}

val labels : string array
(** Display names in the paper's Fig. 3–6 order. *)

val n_metrics : int

val compute :
  ?delta:float ->
  ?gamma:float ->
  makespan_dist:Distribution.Dist.t ->
  slack:Sched.Slack.summary ->
  unit ->
  t
(** [compute ~makespan_dist ~slack ()] with the paper's default bounds
    δ = 0.1 and γ = 1.0003 (override per case — §V notes they must be
    adapted to the weight scale). Requires [delta >= 0] and [gamma >= 1]. *)

val of_engine :
  ?delta:float ->
  ?gamma:float ->
  ?backend:Makespan.Engine.backend ->
  ?slack_mode:Sched.Slack.graph_mode ->
  Makespan.Engine.t ->
  Sched.Schedule.t ->
  t
(** All eight metrics from one {!Makespan.Engine.analyze} pass: the
    makespan distribution and the slack levels share the engine's cached
    durations and a single disjunctive graph (default backend
    [Classical], the paper's choice; default slack [`Disjunctive]). This
    is the path the experiment sweeps take — create the engine once per
    case, then call [of_engine] per schedule. *)

val to_array : t -> float array
(** Values in {!labels} order. *)

val calibrate_bounds : (float * float) list -> float * float
(** [calibrate_bounds pilot] takes pilot [(E(M), σ_M)] pairs from a few
    schedules of a case and returns [(δ, γ)] placing the median schedule's
    A and R near 0.5, so both metrics spread over (0, 1) as §V requires:
    [δ = 0.6745·median σ], [γ = 1 + 0.6745·median (σ/E(M))]. *)
