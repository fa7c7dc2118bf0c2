(** The “classical” makespan-distribution evaluation (§V): a forward
    sweep over the disjunctive graph that assumes all intermediate
    distributions are independent.

    Completion-time recursion over the schedule's disjunctive graph:
    [ready(t) = max over preds p of (C(p) + comm(p→t))] (CDF product for
    the max, convolution for the sum), then [C(t) = ready(t) + dur(t)].
    The makespan is the max over exit completions. This is exactly the
    method the paper selected after finding it as accurate as Dodin's and
    Spelde's on its cases (its degradation with graph size is Fig. 1). *)

type edge_sums
(** Arrival-sum memo of one incremental session ({!Engine.session}):
    one slot per data edge [p→v] of the case graph, indexed by its
    {!Dag.Graph.edges} position (the numbering of
    {!Sched.Disjunctive.t}'s [data]), holding
    [(C(p), comm(p→v), C(p) + comm(p→v))]. A slot hits only when both
    operands are physically the objects it holds, so a hit is the value
    of the identical [Dist.add] call and replays keep their bits. It is
    filled lazily by {!update_node}, holds only committed-state sums,
    and lives as long as the session. Not thread-safe. *)

val edge_sums : Dag.Graph.t -> edge_sums
(** An empty memo for the given case graph (not a disjunctive graph). *)

val sum_hits : edge_sums -> int
(** Arrival sums {!update_node} has taken from the memo so far. *)

val sum_misses : edge_sums -> int
(** Arrival sums {!update_node} has computed so far. *)

val forget_sums : edge_sums -> Dag.Graph.t -> changed:bool array -> seeds:bool array -> unit
(** Empty the slots of every data edge out of a [changed] node and into
    a node of [seeds], after the session installed a probe that changed
    those completions and the seeds' processors. The slots would never
    hit again; emptying them frees their grids. *)

val clear_sums : edge_sums -> unit
(** Empty every slot. *)

type prefixes
(** Committed running maxima of one incremental session: per node [v],
    m_k = max(a_0 … a_k) of its first disjunctive arrivals in the
    session's committed state, the partial results of the left fold
    {!update_node} runs. It starts empty and is filled lazily by
    {!update_node}, only below the node's first dirty predecessor and
    only at nodes that are not fresh. A resumed fold is the identical
    fold over identical operands, so the bits hold. Not thread-safe. *)

val prefixes : int -> prefixes
(** An empty cache for the given task count. *)

val fold_skips : prefixes -> int
(** [Dist.max_indep] calls {!update_node} has taken from the cache so far. *)

val truncate_prefixes :
  prefixes -> Sched.Disjunctive.t -> dirty:bool array -> fresh:bool array -> unit
(** After the session installed a cone probe whose patched disjunctive
    graph, dirty cone and fresh nodes are given: cut each non-fresh
    dirty node's maxima at its first dirty predecessor, whose arrival
    the probe changed, and empty each fresh node's. *)

val clear_prefixes : prefixes -> unit
(** Empty every node's maxima. *)

type arrivals
(** Domain-local scratch for the arrival-sum memo of a full sweep:
    per predecessor [p], the last two sums [C(p) + comm(p→v)] keyed by
    the physical identity of both operands. Within one sweep a
    predecessor whose successors are reached over the same shared
    communication distribution (one per weight from {!Engine}, one
    shared zero for same-processor edges) reuses the sum instead of
    convolving again; a reused sum is the value of the identical
    [Dist.add] call, so results are bit-identical to the uncached sweep.
    An entry is released after the sweep's visit of [p]'s last data
    successor. A dirty-cone replay ({!update_node}) keeps its probe-only
    sums here too ({!with_cone_arrivals}). Not thread-safe: one per
    domain. *)

val arrivals : unit -> arrivals

val arrival_hits : arrivals -> int
(** Arrival sums reused by the last sweep that ran with this memo. *)

val arrival_misses : arrivals -> int
(** Arrival sums computed by that sweep. *)

val with_cone_arrivals :
  arrivals -> Sched.Disjunctive.t -> dirty:bool array -> (unit -> 'a) -> 'a
(** [with_cone_arrivals a dgraph ~dirty f] runs [f], the replay of the
    [dirty] nodes of [dgraph], on the memo: its counts start at zero, a
    predecessor's sums are dropped after its last dirty data successor,
    and the rest when [f] returns or raises. *)

val update_node :
  points:int ->
  dgraph:Sched.Disjunctive.t ->
  task_dist:(task:int -> proc:int -> Distribution.Dist.t) ->
  comm_dist:(volume:float -> src:int -> dst:int -> Distribution.Dist.t) ->
  sums:edge_sums ->
  arrivals:arrivals ->
  prefixes:prefixes ->
  dirty:bool array ->
  fresh:bool ->
  seed:bool ->
  Sched.Schedule.t ->
  Distribution.Dist.t array ->
  int ->
  unit
(** Recompute one node's completion distribution in place from its
    predecessors' entries in the given array — the single-node body of
    {!completion_dists_with}, exposed so {!Engine.reevaluate_any} can replay
    just a dirty cone and still produce bitwise-identical results (the
    fold order over the disjunctive predecessors is the deterministic sorted
    order). Each arrival sum is read from [sums] first. A computed sum
    is written back only when its operands are committed state: the
    predecessor is not [dirty] (so its completion is the session's) and
    the node is not a [seed] (a task the probe moved, so its incoming
    communications may be the probe's own). Other sums are the probe's
    own: they are kept in [arrivals] (run under {!with_cone_arrivals}),
    so the predecessor's other successors in the replay reuse them, as
    a full sweep does. Unless the node is [fresh] (a seed, or a node
    whose predecessor sequence the probe changed), the fold resumes from
    the longest maximum [prefixes] holds below the first dirty
    predecessor, and stores the maxima it computes there. *)

val completion_dists_with :
  ?arrivals:arrivals ->
  points:int ->
  dgraph:Sched.Disjunctive.t ->
  completion:Distribution.Dist.t array ->
  task_dist:(task:int -> proc:int -> Distribution.Dist.t) ->
  comm_dist:(volume:float -> src:int -> dst:int -> Distribution.Dist.t) ->
  Sched.Schedule.t ->
  Distribution.Dist.t array
(** The propagation with injected duration/communication distributions,
    as {!Engine} runs it from its caches. [dgraph] must be the schedule's
    disjunctive graph. [completion] is caller-owned scratch with at least
    one entry per task; it is filled and returned (entries beyond the
    task count are left untouched). With [arrivals], repeated arrival
    sums are reused within the sweep and the memo is emptied before
    returning, so no sum outlives it. *)

val makespan_of_exits :
  points:int -> Sched.Disjunctive.t -> Distribution.Dist.t array -> Distribution.Dist.t
(** Maximum of the exit tasks' completion distributions. *)
