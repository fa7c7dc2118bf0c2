(** Unified per-case evaluation engine.

    A case of the paper's experiments is one [(graph, platform,
    uncertainty model)] triple over which thousands of schedules are
    evaluated. An engine is created once per case and owns everything
    that is invariant across those schedules:

    - the (task × proc) duration-distribution table, filled lazily as
      evaluations touch cells;
    - memoized communication distributions. The cache key is the
      deterministic communication weight [latency + volume·τ]: the
      perturbed distribution depends only on that scalar, so this key
      subsumes the (volume, src, dst) triple and additionally collapses
      duplicates on homogeneous networks;
    - exact (mean, std) moment tables, shared by Spelde's method and
      the mean-weight slack levels;
    - per-domain scratch buffers (completion-distribution and moment
      arrays, and the classical sweep's arrival-sum memo), shared by all
      engines, so repeated evaluations stop allocating and a dropped
      engine leaves nothing behind.

    All four evaluation methods of the paper are exposed as pluggable
    {!backend}s behind the single {!eval} entry point. Engines are safe
    to share across domains ({!Parallel.Par_array} sweeps): caches are
    mutex-guarded, counters atomic, scratch domain-local. *)

type backend =
  | Classical  (** forward sweep under independence (§III-B) *)
  | Dodin  (** series–parallel reduction with duplication (§III-C) *)
  | Spelde  (** normal moments + Clark maxima (§III-D) *)
  | Montecarlo of { count : int; seed : int64 }
      (** ground truth by simulation; deterministic given [seed] *)

val analytic_backends : backend list
(** [[Classical; Dodin; Spelde]]: the three analytic methods the paper
    compares against Monte Carlo (§V), in that order. *)

val backend_name : backend -> string

val backend_of_name : ?mc_count:int -> ?mc_seed:int64 -> string -> backend option
(** Inverse of {!backend_name} for wire protocols and CLIs
    (case-insensitive; ["mc"] is accepted for ["montecarlo"], whose
    count/seed come from the optional arguments — defaults 10 000 and
    0). [None] on an unknown name. *)

type t

val create :
  graph:Dag.Graph.t -> platform:Platform.t -> model:Workloads.Stochastify.t -> t
(** One engine per case. Raises [Invalid_argument] when the platform's
    ETC matrix does not match the graph's task count. Creation is cheap
    (moment tables only); distribution cells are built on first use. *)

val graph : t -> Dag.Graph.t
val platform : t -> Platform.t

val eval : ?backend:backend -> t -> Sched.Schedule.t -> Distribution.Dist.t
(** Makespan distribution of a schedule of this engine's case
    (default backend: [Classical]). Raises [Invalid_argument] if the
    schedule's graph has a different task count. *)

type evaluation = {
  makespan : Distribution.Dist.t;
  slack : Sched.Slack.summary;
}

val analyze :
  ?backend:backend ->
  ?slack_mode:Sched.Slack.graph_mode ->
  t ->
  Sched.Schedule.t ->
  evaluation
(** Makespan distribution and slack summary in one pass: the schedule's
    disjunctive graph is built once and shared by the distribution
    propagation and (in the default [`Disjunctive] mode) the mean-weight
    slack levels. [`Precedence] slack falls back to {!Sched.Slack.compute},
    which needs the plain DAG and a simulated reference makespan. *)

(** {1 Incremental re-evaluation}

    A {!session} pins one schedule and keeps its per-node completion
    state (distributions for [Classical], moments for [Spelde]) alive,
    so re-evaluating a one-task move only recomputes the dirty
    downstream cone — the difference between local / adversarial search
    being feasible or not. The cone is the closure, under the patched
    disjunctive graph's successors, of the {e fresh} nodes: the tasks a
    move names and every task the patch moved to another processor
    (the {e seeds}), plus every node whose predecessor sequence
    changed. Nodes outside it see
    bitwise-identical inputs and keep their stored values, so
    {!reevaluate_any} and {!reevaluate_schedule} agree {e bitwise} with a
    fresh {!analyze} of the patched schedule. The cone is derived from
    the two schedules alone, so any schedule of the case can be probed:
    {!Search.Anneal} probes its priority rebuilds this way. Cones above
    [max_cone] (default: half the task count), [Dodin] (a global
    series–parallel reduction) and [Montecarlo] fall back to a full
    evaluation — same bits, no speedup — counted under [reeval_full].

    Every re-evaluation is a {e probe}: it leaves the session on its
    schedule and keeps the probe's result aside (its schedule,
    disjunctive graph, evaluation and per-node state) until the next
    re-evaluation. {!accept} installs that result, so accepting a move
    costs no replay. [~commit:true] is a probe followed by {!accept}.

    A [Classical] session also keeps an arrival-sum memo: one slot per
    data edge [p→v] of the case graph, keyed by the physical identity
    of its two operands [C(p)] and [comm(p→v)], so a hit is the value of
    the identical [Dist.add] call and the bits are unchanged. It starts
    empty and is filled lazily by replays, only with committed-state
    sums ([p] outside the dirty cone, [v] not a seed). It lives as long
    as the session; {!accept} empties the slots the installed probe made
    stale. A replay's other sums are its own: it keeps them, as a full
    sweep does, in a sweep-scoped memo until the predecessor's last
    dirty successor. Both are counted under
    [reeval_sum_hits]/[reeval_sum_misses]. Full sweeps (fallbacks,
    {!analyze}) keep only their sweep-scoped memo.

    It also keeps committed prefix maxima: per node, the running maxima
    [max(a_0 … a_k)] of its committed arrivals, stored by replays below
    the node's first dirty predecessor at nodes that are not fresh. A
    replay of such a node resumes its max fold from the longest one
    held there, skipping those arrivals and maxima: the identical fold
    over identical operands, so the bits hold. {!accept} cuts each
    installed node's maxima at its first dirty predecessor (a fresh
    node's to nothing). The skipped [Dist.max_indep] calls are counted
    under [reeval_fold_skips]. Like the memo, the cache is never filled
    by {!start_session}.

    Sessions own their arrays (full {!analyze} calls on the same engine
    are unaffected) but are NOT thread-safe: use one session per
    domain. *)

type session

val start_session :
  ?backend:backend -> ?slack_mode:Sched.Slack.graph_mode -> t -> Sched.Schedule.t -> session
(** Full evaluation of the starting schedule, retaining per-node state.
    Counts as one [analyze] in {!stats}. *)

val session_schedule : session -> Sched.Schedule.t
(** The schedule the session currently pins (updated by {!accept} and
    committing re-evaluations). *)

val session_evaluation : session -> evaluation
(** The evaluation of {!session_schedule}. *)

val reevaluate_any :
  ?commit:bool -> ?max_cone:int -> session -> Sched.Neighbor.any -> evaluation
(** Evaluation of the session schedule's neighbor under a move of either
    class: [Reassign m] is [Schedule.reassign ?at sched ~task ~to_],
    whose dirty cone is seeded from the moved task; [Swap { a; b }] is
    [Schedule.swap sched ~a ~b], seeded from both tasks, so a swap
    replays exactly the nodes either exchange disturbs. Only the dirty
    cone is recomputed when the backend allows it. [commit:false]
    probes: the session stays on its schedule, so many neighbors can be
    probed off one base, and the last probe can be installed by
    {!accept}. [commit] (default true) probes and accepts. Raises
    [Invalid_argument] if the move would deadlock the eager execution;
    the session's schedule and state are then untouched, and no probe is
    left to accept. *)

val reevaluate_schedule : ?max_cone:int -> session -> Sched.Schedule.t -> evaluation
(** A probe of any feasible schedule of the session's case (a
    {!Sched.Schedule.validate}d schedule of the same graph), through the
    same probe core as {!reevaluate_any} with [commit:false]: its seeds
    are the tasks on another processor than in the session's schedule,
    and only the dirty cone of the fresh nodes is replayed. {!accept}
    installs it. A priority-jitter rebuild probed this way costs a
    replay of the nodes it moved or reordered and their descendants,
    and keeps the session's memo and maxima. Raises [Invalid_argument]
    if the schedule has a different task count. *)

val accept : session -> unit
(** Advance the session to the neighbor of its last re-evaluation,
    installing that probe's schedule, disjunctive graph, evaluation and
    per-node state: the same bits a [~commit:true] re-evaluation of the
    move computes, with nothing recomputed. A fallback probe (cone above
    [max_cone], [Dodin], [Montecarlo]) kept a copy of its n per-node
    results for this. Raises [Invalid_argument] when there is no probe
    to install: none since the session started, the probe was already
    accepted, or the last re-evaluation raised. *)

(** {1 Instrumentation} *)

type stats = {
  task_hits : int;
  task_misses : int;  (** filled (task, proc) duration cells *)
  comm_hits : int;
  comm_misses : int;  (** distinct communication weights built *)
  arrival_hits : int;
      (** arrival sums [C(p) + comm(p→v)] a classical full sweep reused
          from the same predecessor's earlier sum in that sweep *)
  arrival_misses : int;  (** arrival sums classical full sweeps computed *)
  evals : int;
      (** total {!eval}/{!analyze}/{!start_session}/{!reevaluate_any}/
          {!reevaluate_schedule} calls; always the sum of the four
          per-backend counts *)
  evals_classical : int;
  evals_dodin : int;
  evals_spelde : int;
  evals_montecarlo : int;
  reevals : int;
      (** total {!reevaluate_any} and {!reevaluate_schedule} calls;
          always [reeval_incremental + reeval_full] *)
  reeval_incremental : int;  (** served by a dirty-cone replay *)
  reeval_full : int;
      (** fell back to a full sweep; always
          [reeval_full_cone + reeval_full_backend] *)
  reeval_full_cone : int;  (** fallbacks whose dirty cone exceeded [max_cone] *)
  reeval_full_backend : int;
      (** fallbacks on non-incremental backends (Dodin, Monte-Carlo) *)
  reeval_cone_nodes : int;  (** total dirty nodes over incremental reevals *)
  reeval_max_cone : int;  (** largest incremental cone seen *)
  reeval_sum_hits : int;
      (** arrival sums a dirty-cone replay took from its session's memo *)
  reeval_sum_misses : int;  (** arrival sums dirty-cone replays computed *)
  reeval_fold_skips : int;
      (** [Dist.max_indep] calls a dirty-cone replay took from its
          session's committed prefix maxima *)
}

val stats : t -> stats
(** Snapshot of this engine's counters since {!create} (atomic reads;
    approximate under concurrent evaluation). Every summed counter also
    feeds a process-wide {!Obs.Metrics} counter that all engines share
    and that never falls: [engine.task_hits], [engine.task_misses],
    [engine.comm_hits], [engine.comm_misses], [engine.arrival_hits],
    [engine.arrival_misses], [engine.evals.<backend>],
    [engine.reeval_incremental], [engine.reeval_full],
    [engine.reeval_full_cone], [engine.reeval_full_backend],
    [engine.reeval_cone_nodes], [engine.reeval_sum_hits],
    [engine.reeval_sum_misses] and [engine.reeval_fold_skips]. [evals], [reevals] and [reeval_max_cone]
    have no mirror. *)
