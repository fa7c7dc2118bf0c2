(** DLS / GDL — Dynamic Level Scheduling (Sih & Lee 1993), a fifth
    makespan-centric baseline from the paper's introduction.

    The dynamic level of a ready task on a processor is
    [DL(t,p) = SL(t) − max(data-ready(t,p), avail(p)) + Δ(t,p)] where
    [SL] is the static level (bottom level under median execution costs,
    ignoring communications) and [Δ(t,p) = w̄(t) − w(t,p)] rewards
    processors on which the task runs faster than average. At each step
    the (task, processor) pair with the highest dynamic level is
    scheduled. *)

val schedule : Dag.Graph.t -> Platform.t -> Schedule.t

val spec : List_scheduler.spec
(** DLS as a composition: median static level, joint dynamic-level
    maximization, append placement. *)
