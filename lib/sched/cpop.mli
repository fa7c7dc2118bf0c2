(** CPOP — Critical Path On a Processor (Topcuoglu et al. 1999).

    Included as a fourth makespan-centric baseline beyond the paper's
    three. Task priority is [rank_u + rank_d] under averaged costs; the
    tasks realizing the critical value are all pinned to the single
    processor minimizing the critical path's total computation time;
    other tasks go to their earliest-finish-time processor (insertion
    policy). *)

val schedule : Dag.Graph.t -> Platform.t -> Schedule.t

val spec : List_scheduler.spec
(** CPOP as a composition: upward+downward rank, critical-path pinning,
    insertion placement. *)
