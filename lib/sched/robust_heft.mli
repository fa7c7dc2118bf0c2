(** RobustHEFT — the heuristic sketched in the paper's future work (§VIII):
    “a heuristic similar to classic list heuristics based on the standard
    deviation of every task's duration rather than their mean”.

    It is HEFT with uncertainty-aware costs: a task's cost on a processor
    is [mean + κ·std] of its perturbed duration (likewise for edges), so
    both the ranking and the processor choice penalize placements whose
    durations are volatile, not merely long. With κ = 0 it degenerates to
    HEFT computed on mean (rather than minimum) durations. *)

val schedule :
  ?kappa:float -> Dag.Graph.t -> Platform.t -> Workloads.Stochastify.t -> Schedule.t
(** [schedule ~kappa g p model] — default κ = 1.0. Requires [kappa >= 0]. *)

val risk_adjusted_weights :
  kappa:float -> Platform.t -> Workloads.Stochastify.t -> Dag.Levels.weights
(** The averaged [mean + κ·std] costs used for ranking (exposed for
    tests and ablation benchmarks). *)
