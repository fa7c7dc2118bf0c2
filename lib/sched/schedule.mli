(** Eager schedules (§II).

    A schedule fixes, for every task, a processor and a position in that
    processor's execution order. Start and finish times are {e not} part
    of the schedule: under the eager discipline each task starts as soon
    as its predecessors' data has arrived and its processor is free, in
    the recorded order — so times are derived by {!Simulator} from
    whichever durations (deterministic, mean, or sampled) are in play. *)

type t = private {
  graph : Dag.Graph.t;
  n_procs : int;
  proc_of : int array;  (** task → processor *)
  order : int array array;  (** processor → its tasks, execution order *)
  pos_in_proc : int array;  (** task → index within its processor's order *)
}

val make :
  graph:Dag.Graph.t -> n_procs:int -> proc_of:int array -> order:int array array -> t
(** Validates that [order] partitions the task set consistently with
    [proc_of] and that processor orders are compatible with the DAG (the
    union of precedence and processor-order constraints is acyclic —
    otherwise the eager execution would deadlock). *)

val of_assignment_sequence :
  graph:Dag.Graph.t -> n_procs:int -> (Dag.Graph.task * Platform.proc) list -> t
(** [of_assignment_sequence ~graph ~n_procs picks] builds a schedule from
    a list-scheduling trace: tasks in the order they were scheduled, each
    appended to its processor's order. *)

val reassign : ?at:int -> t -> task:Dag.Graph.task -> to_:Platform.proc -> t
(** [reassign ?at t ~task ~to_] is the one-move neighbor of [t]: [task]
    is removed from its current processor's order and inserted into
    [to_]'s order at position [at] (default: appended). [at] indexes the
    target row {e after} removal, so same-processor repositioning works
    uniformly. Only the two affected order rows are rebuilt — everything
    else is shared with [t] — but acyclicity is re-checked and
    [Invalid_argument] raised if the move would deadlock the eager
    execution. *)

val swap : t -> a:Dag.Graph.task -> b:Dag.Graph.task -> t
(** [swap t ~a ~b] exchanges the (processor, position) slots of tasks [a]
    and [b], leaving every other task in place. Only the affected order
    rows are rebuilt (one row when [a] and [b] share a processor).
    Acyclicity is re-checked and [Invalid_argument] raised if the
    exchange would deadlock the eager execution, or if [a = b]. *)

val validate : t -> (unit, string) result
(** Re-check the invariants of an already-built schedule: every task
    assigned exactly once, per-processor exclusivity (order rows
    partition the tasks consistently with [proc_of]), and precedence
    respected (the eager execution exists). [Ok ()] for every value
    produced by {!make}; exported as the single oracle for test
    helpers. *)

val proc_pred : t -> Dag.Graph.task -> Dag.Graph.task option
(** The task executed immediately before on the same processor. *)

val proc_succ : t -> Dag.Graph.task -> Dag.Graph.task option

val n_tasks : t -> int

val to_string : t -> string
(** Compact textual form, one line per processor:
    ["p0: 0 1 3\np1: 2\n"]. Stable across versions. *)
