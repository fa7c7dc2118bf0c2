(** BIL — Best Imaginary Level scheduling (Oh & Ha, Euro-Par 1996).

    The basic imaginary level of a task on a processor,
    [BIL(t,p) = w(t,p) + max over succs s (min over q (BIL(s,q) + c(t,s,p,q)))],
    is the optimistic remaining path length if [t] runs on [p]. At each
    step the basic imaginary makespan [BIM*(t,p) = EST(t,p) + BIL(t,p)]
    is computed for every ready task; task priority is the ⌈r/m⌉-th
    smallest of its BIM* row (reflecting the processors it can realistically
    claim when [r] ready tasks compete for [m] processors), the highest-
    priority task is scheduled on the processor minimizing its BIM*. *)

val schedule : Dag.Graph.t -> Platform.t -> Schedule.t

val spec : List_scheduler.spec
(** BIL as a composition: BIL level table, BIM* row-quantile selection,
    append placement. *)
