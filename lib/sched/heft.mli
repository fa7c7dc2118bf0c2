(** HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al. 1999).

    Tasks are prioritized by upward rank computed with averaged costs
    (mean ETC over processors, mean communication over processor pairs),
    then assigned in rank order to the processor minimizing the earliest
    finish time, with the insertion policy (a task may fill an idle gap).
    The averaged-cost ranking machinery lives in {!Components}. *)

type rank_policy =
  [ `Mean  (** average ETC over processors — Topcuoglu's original *)
  | `Best  (** minimum ETC (optimistic ranks) *)
  | `Worst  (** maximum ETC (pessimistic ranks) *) ]
(** How a task's processor-dependent cost is collapsed for ranking.
    Zhao & Sakellariou showed the choice can shift HEFT's makespan by
    several percent; [`Mean] is the default everywhere. *)

val schedule : ?rank:rank_policy -> Dag.Graph.t -> Platform.t -> Schedule.t
(** The HEFT schedule. *)

val spec : ?rank:rank_policy -> unit -> List_scheduler.spec
(** HEFT as a composition: upward rank under [rank], EFT selection,
    insertion placement, lower-id tie-breaks. *)
