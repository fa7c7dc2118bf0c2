(** Eager execution of a schedule under arbitrary duration assignments.

    A replay runs over the schedule's {!Disjunctive} graph, so one
    {!Disjunctive.graph_of} serves any number of {!replay}s:
    deterministic weights, mean weights, or the tens of thousands of
    sampled realizations of the Monte-Carlo evaluator. A replay reads
    durations from flat arrays (one per task, one per edge in
    {!Dag.Graph.edges} order, the numbering of {!Disjunctive.t}'s
    [data]) and writes caller-owned start/finish arrays, so a caller
    that replays many realizations reuses the same four arrays for
    all. *)

type times = {
  start : float array;
  finish : float array;
  makespan : float;
}

val replay :
  Disjunctive.t ->
  task_dur:float array ->
  comm_dur:float array ->
  start:float array ->
  finish:float array ->
  float
(** [replay dg ~task_dur ~comm_dur ~start ~finish] computes eager
    start/finish times into [start] and [finish] (length [n_tasks]) and
    returns the makespan, the maximum finish time:
    [start t = max(0, finish (proc-predecessor t),
                   max over DAG preds p (finish p + comm_dur.(e p t)))].
    [task_dur.(t)] is task [t]'s duration; [comm_dur.(i)] is the
    duration of the [i]-th edge of {!Dag.Graph.edges} (co-located pairs
    included, for which it should be 0). Tasks run in the disjunctive
    graph's topological order. Raises [Invalid_argument] on a negative
    task duration. *)

val deterministic :
  Schedule.t -> Platform.t -> times
(** Times under the minimum (deterministic) durations of the platform:
    ETC entries for tasks, [latency + volume·τ] for edges. *)

val mean_times : Schedule.t -> Platform.t -> Workloads.Stochastify.t -> times
(** Times under the exact mean durations of the uncertainty model — the
    paper's approximation basis for the slack metrics. *)
