(** Spelde's CLT-based makespan evaluation (per Ludwig, Möhring & Stork
    2001): every duration is reduced to (mean, standard deviation); sums
    add moments, maxima use Clark's formulas — no convolution at all.
    The result is a normal approximation of the makespan distribution. *)

val update_node :
  dgraph:Sched.Disjunctive.t ->
  task_moments:(task:int -> proc:int -> Distribution.Normal_pair.t) ->
  comm_moments:(volume:float -> src:int -> dst:int -> Distribution.Normal_pair.t) ->
  Sched.Schedule.t ->
  Distribution.Normal_pair.t array ->
  int ->
  unit
(** Recompute one node's completion moments in place from its
    predecessors' entries — the single-node body of {!moments_with},
    exposed for {!Engine.reevaluate_any}'s dirty-cone replay (same
    [List.map]/[max_list] fold order, so results stay bitwise equal). *)

val moments_of_exits :
  dgraph:Sched.Disjunctive.t -> Distribution.Normal_pair.t array -> Distribution.Normal_pair.t
(** Clark-max over the exit tasks' completion moments. *)

val moments_with :
  dgraph:Sched.Disjunctive.t ->
  completion:Distribution.Normal_pair.t array ->
  task_moments:(task:int -> proc:int -> Distribution.Normal_pair.t) ->
  comm_moments:(volume:float -> src:int -> dst:int -> Distribution.Normal_pair.t) ->
  Sched.Schedule.t ->
  Distribution.Normal_pair.t
(** Mean and standard deviation of the makespan estimate, from the
    moment propagation with injected duration/communication views, as
    {!Engine} runs it from its caches. [dgraph] must be the schedule's
    disjunctive graph; [completion] is caller-owned scratch with at
    least one entry per task. {!Engine} turns the result into the
    matching normal grid distribution. *)
