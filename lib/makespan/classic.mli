(** The “classical” makespan-distribution evaluation (§V): a forward
    sweep over the disjunctive graph that assumes all intermediate
    distributions are independent.

    Completion-time recursion over the schedule's disjunctive graph:
    [ready(t) = max over preds p of (C(p) + comm(p→t))] (CDF product for
    the max, convolution for the sum), then [C(t) = ready(t) + dur(t)].
    The makespan is the max over exit completions. This is exactly the
    method the paper selected after finding it as accurate as Dodin's and
    Spelde's on its cases (its degradation with graph size is Fig. 1). *)

val update_node :
  points:int ->
  dgraph:Dag.Graph.t ->
  task_dist:(task:int -> proc:int -> Distribution.Dist.t) ->
  comm_dist:(volume:float -> src:int -> dst:int -> Distribution.Dist.t) ->
  Sched.Schedule.t ->
  Distribution.Dist.t array ->
  int ->
  unit
(** Recompute one node's completion distribution in place from its
    predecessors' entries in the given array — the single-node body of
    {!completion_dists_with}, exposed so {!Engine.reevaluate} can replay
    just a dirty cone and still produce bitwise-identical results (the
    fold order over [Dag.Graph.preds] is the deterministic sorted
    order). *)

val completion_dists_with :
  points:int ->
  dgraph:Dag.Graph.t ->
  completion:Distribution.Dist.t array ->
  task_dist:(task:int -> proc:int -> Distribution.Dist.t) ->
  comm_dist:(volume:float -> src:int -> dst:int -> Distribution.Dist.t) ->
  Sched.Schedule.t ->
  Distribution.Dist.t array
(** The propagation with injected duration/communication distributions,
    as {!Engine} runs it from its caches. [dgraph] must be the schedule's
    disjunctive graph. [completion] is caller-owned scratch with at least
    one entry per task; it is filled and returned (entries beyond the
    task count are left untouched). *)

val makespan_of_exits :
  points:int -> Dag.Graph.t -> Distribution.Dist.t array -> Distribution.Dist.t
(** Maximum of the exit tasks' completion distributions. *)
