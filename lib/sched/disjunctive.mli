(** The disjunctive graph of a schedule (§II, after Shi et al.).

    Tasks scheduled consecutively on the same processor gain an explicit
    zero-volume dependency edge, so path computations (levels, slack,
    distribution evaluation, the eager replay) over the resulting DAG
    account for processor exclusivity exactly as the eager execution
    does. This module is the one place that decides how a
    processor-order edge joins the DAG and how a reader tells it apart
    from a data edge: every evaluator and the {!Simulator} read {!t}. *)

type t = private {
  graph : Dag.Graph.t;
      (** The schedule's DAG plus a 0-volume edge between each pair of
          tasks consecutive on a processor (none where the DAG edge
          already exists). Equal in every field to the {!Dag.Graph.make}
          of both edge sets. *)
  data : int array array;
      (** [data.(v).(k)] names [v]'s [k]-th predecessor in [graph]: the
          index of that data edge in the schedule DAG's
          {!Dag.Graph.edges}, or [-1] for a processor-order edge. The
          one edge numbering of every evaluator's per-edge state. *)
}

val graph_of : Schedule.t -> t
(** Merges each task's processor predecessor and successor into the
    schedule DAG's sorted rows; only the topological order is computed
    afresh. *)

val weights :
  Schedule.t -> Platform.t -> Workloads.Stochastify.t -> Dag.Levels.weights
(** Mean-duration weights for the disjunctive graph (or the schedule's
    DAG): a task weighs its mean computation time on its assigned
    processor, an edge its mean communication time between the assigned
    processors — 0 for a processor-order edge, which joins two tasks on
    one processor. Pass {!Workloads.Stochastify.deterministic} for
    minimum (deterministic) weights. *)
