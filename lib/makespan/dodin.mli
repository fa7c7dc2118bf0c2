(** Dodin's series–parallel makespan evaluation (Dodin 1985).

    The schedule's disjunctive graph is converted to an activity-on-arc
    network and reduced with series (convolution) and parallel (CDF
    product) steps; where the network is not series–parallel, nodes are
    duplicated (see {!Dag.Series_parallel}), which is Dodin's
    approximation. On a series–parallel disjunctive graph the result
    equals the classical method's. *)

type outcome = {
  dist : Distribution.Dist.t;
  duplications : int;  (** 0 iff the disjunctive graph was SP *)
}

val evaluate_with :
  points:int ->
  dgraph:Sched.Disjunctive.t ->
  task_dist:(task:int -> proc:int -> Distribution.Dist.t) ->
  comm_dist:(volume:float -> src:int -> dst:int -> Distribution.Dist.t) ->
  Sched.Schedule.t ->
  outcome
(** The reduction with injected duration/communication distributions,
    as {!Engine} runs it from its caches. [dgraph] must be the schedule's
    disjunctive graph. *)
