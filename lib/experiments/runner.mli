(** The per-case sweep of §V–§VI: thousands of random schedules plus the
    heuristic schedules, each evaluated to its full metric vector. *)

type source =
  | Random of int  (** i-th random schedule *)
  | Heuristic of string  (** "HEFT", "BIL", "Hyb.BMCT" *)

type result = {
  instance : Case.instance;
  delta : float;  (** calibrated A(δ) bound *)
  gamma : float;  (** calibrated R(γ) bound *)
  sources : source array;
  rows : float array array;  (** raw metric vectors, {!Metrics.Robustness.labels} order *)
}

val heuristics : (string * (Dag.Graph.t -> Platform.t -> Sched.Schedule.t)) list
(** The paper's three heuristics (HEFT, BIL, Hyb.BMCT), resolved through
    {!Sched.Registry}. *)

val scheduler : string -> string * (Dag.Graph.t -> Platform.t -> Sched.Schedule.t)
(** Resolve a registry name, alias, or [rank=...,select=...] composition
    to its canonical name and run function.
    Raises [Invalid_argument] on unknown names. *)

val calibrated_sweep :
  ?pool:Parallel.Pool.t ->
  ?delta:float ->
  ?gamma:float ->
  pilot:int ->
  eval:(int -> Makespan.Engine.evaluation) ->
  row:(int -> Makespan.Engine.evaluation -> Metrics.Robustness.t -> 'a) ->
  int ->
  float * float * 'a array
(** [calibrated_sweep ~pilot ~eval ~row n] is the one metric-sweep
    policy behind {!run} and the service's jobs. Unless both [?delta]
    and [?gamma] are given, it first evaluates schedules
    [0 .. min pilot n − 1] on [?pool] (default: the shared pool), one
    schedule per chunk, and calibrates δ and γ on them with
    {!Metrics.Robustness.calibrate_bounds} (a given [?delta] or [?gamma]
    overrides its calibrated value). It then builds
    [row i (eval i) metrics] for every [i < n] on the same pool in chunks
    of {!sweep_chunk_size}. Pilot evaluations are reused as their rows,
    so [eval] runs exactly once per index. Since one evaluation gives
    the same bits on any domain, δ, γ and the rows do not depend on the
    pool's size. Returns [(δ, γ, rows)]. [eval] and [row] must be safe
    to run concurrently for distinct indices. Raises [Invalid_argument]
    if calibration is needed and the pilot is empty. *)

val sweep_chunk_size : int
(** Schedules per claimed chunk in {!calibrated_sweep} and the ablation
    sweeps: small, so the last chunks of a sweep do not leave a domain
    idle. *)

val run :
  ?pool:Parallel.Pool.t ->
  ?scale:Scale.t ->
  ?slack_mode:Sched.Slack.graph_mode ->
  ?count:int ->
  ?heuristics:(string * (Dag.Graph.t -> Platform.t -> Sched.Schedule.t)) list ->
  Case.t ->
  result
(** Instantiate the case, generate random schedules + the heuristics,
    then evaluate every schedule's metric vector through
    {!calibrated_sweep} over one shared {!Makespan.Engine} (classical
    makespan distribution + mean-weight slack, [`Disjunctive] by
    default). δ and γ are auto-calibrated on a pilot of the first 20
    random schedules (§V picked constants manually for its weight
    scale).

    [count] overrides the number of random schedules (default
    [paper_schedules / scale]); with [~count:0] only the heuristic
    schedules are evaluated and the calibration pilot is all of them.
    The sweep runs on [?pool], or the shared persistent pool.

    [heuristics] overrides the heuristic schedules swept next to the
    random ones (default {!heuristics}); each entry is a (name, run)
    pair as produced by {!scheduler}. *)

val heuristic_rows : result -> (string * float array) list
(** The heuristics' raw metric vectors. *)

val random_rows : result -> float array array
(** The random schedules' raw metric vectors (correlations are computed
    on these, as in the paper). *)

val random_rows_of : sources:source array -> rows:float array array -> float array array
(** [random_rows] over any (sources, rows) pairing — one counting pass
    plus one fill pass, no intermediate lists. {!Campaign} uses this on
    checkpointed rows. *)
