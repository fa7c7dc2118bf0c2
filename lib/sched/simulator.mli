(** Eager execution of a schedule under arbitrary duration assignments.

    One {!prepare}d plan (a topological order of the disjunctive
    constraints) serves any number of {!run}s — deterministic weights,
    mean weights, or the tens of thousands of sampled realizations of the
    Monte-Carlo evaluator. *)

type plan

type times = {
  start : float array;
  finish : float array;
  makespan : float;
}

val prepare : Schedule.t -> plan
(** Precompute the execution order implied by precedence plus processor
    order. *)

val run :
  plan ->
  task_dur:(Dag.Graph.task -> float) ->
  comm_dur:(Dag.Graph.task -> Dag.Graph.task -> float) ->
  times
(** [run plan ~task_dur ~comm_dur] computes eager start/finish times:
    [start t = max(finish (proc-predecessor t),
                   max over DAG preds p (finish p + comm_dur p t))].
    [comm_dur] receives every DAG edge (including co-located pairs, for
    which it should return 0). Durations must be non-negative. *)

val deterministic :
  Schedule.t -> Platform.t -> times
(** Times under the minimum (deterministic) durations of the platform:
    ETC entries for tasks, [latency + volume·τ] for edges. *)

val mean_times : Schedule.t -> Platform.t -> Workloads.Stochastify.t -> times
(** Times under the exact mean durations of the uncertainty model — the
    paper's approximation basis for the slack metrics. *)

val sampled :
  Schedule.t -> Platform.t -> Workloads.Stochastify.t -> rng:Prng.Xoshiro.t -> times
(** One random realization (convenience wrapper; for repeated sampling,
    {!prepare} once and call {!run} with sampling closures). *)
