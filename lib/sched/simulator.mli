(** Eager execution of a schedule under arbitrary duration assignments.

    One {!prepare}d plan serves any number of {!replay}s: deterministic
    weights, mean weights, or the tens of thousands of sampled
    realizations of the Monte-Carlo evaluator. A replay reads durations
    from flat arrays (one per task, one per edge in {!Dag.Graph.edges}
    order) and writes caller-owned start/finish arrays, so a caller that
    replays many realizations reuses the same four arrays for all. *)

type plan
(** The execution order implied by precedence plus processor order,
    each task's processor predecessor, and each task's incoming data
    edges as (predecessor, edge index) pairs in {!Dag.Graph.edges}
    order — which is also ascending predecessor order. *)

type times = {
  start : float array;
  finish : float array;
  makespan : float;
}

val prepare : Schedule.t -> plan
(** Precompute the execution order and the per-task arrival sources. *)

val replay :
  plan ->
  task_dur:float array ->
  comm_dur:float array ->
  start:float array ->
  finish:float array ->
  float
(** [replay plan ~task_dur ~comm_dur ~start ~finish] computes eager
    start/finish times into [start] and [finish] (length [n_tasks]) and
    returns the makespan, the maximum finish time:
    [start t = max(finish (proc-predecessor t),
                   max over DAG preds p (finish p + comm_dur.(e p t)))].
    [task_dur.(t)] is task [t]'s duration; [comm_dur.(i)] is the
    duration of the [i]-th edge of {!Dag.Graph.edges} (co-located pairs
    included, for which it should be 0). The arrival fold starts from
    the processor predecessor's finish (0 if none) and takes each data
    arrival, in ascending predecessor order, only if strictly later.
    Raises [Invalid_argument] on a negative task duration. *)

val deterministic :
  Schedule.t -> Platform.t -> times
(** Times under the minimum (deterministic) durations of the platform:
    ETC entries for tasks, [latency + volume·τ] for edges. *)

val mean_times : Schedule.t -> Platform.t -> Workloads.Stochastify.t -> times
(** Times under the exact mean durations of the uncertainty model — the
    paper's approximation basis for the slack metrics. *)
