(** Wire protocol of the evaluation service: JSON job specifications in,
    metric rows + makespan-distribution summaries out.

    A {e job} names an evaluation case — workload (named generator or
    inline DAG + platform), uncertainty level, evaluation backend — plus
    the schedules to evaluate (heuristics by name, seeded random
    batches). Jobs are decoded by the shared bounded {!Obs.Json}
    parser, so adversarial bodies produce typed errors, never
    exceptions.

    Everything here is deterministic: the same job spec yields the same
    response bytes whether it runs through [repro eval], a sync HTTP
    request, or inside a server batch (batching shares engine {e caches}
    only — δ/γ calibration uses each job's own pilot schedules). That
    determinism is what the CI smoke test asserts byte-for-byte. *)

type workload =
  | Named of {
      kind : Experiments.Case.graph_kind;
      n : int;  (** target task count *)
      procs : int;
      seed : int64;
    }
  | Inline of {
      graph : Dag.Graph.t;
      platform : Platform.t;
    }

type sched_spec =
  | Heuristic of string  (** HEFT | BIL | Hyb.BMCT | CPOP | DLS *)
  | Random of { count : int; seed : int64 }
  | Neighbor of { base : string; task : int; to_ : int; at : int option }
      (** one-move variation of heuristic [base]'s schedule: [task]
          reassigned to processor [to_], inserted at slot [at] (appended
          when absent). Wire form
          [{"neighbor": {"base", "task", "to", "at"?}}]. A job runs
          each distinct heuristic once and serves all neighbors of one
          base through a single incremental engine session
          ({!Makespan.Engine.start_session}) started from that schedule:
          each neighbor is a probe of the schedule the expansion built
          ({!Makespan.Engine.reevaluate_schedule}), which agrees bitwise
          with a full evaluation of it, so response bytes are unchanged
          by the fast path. *)

type job = {
  workload : workload;
  ul : float;
  backend : Makespan.Engine.backend;
  schedules : sched_spec list;
  slack_mode : Sched.Slack.graph_mode;
  delta : float option;  (** A(δ) bound override; calibrated if absent *)
  gamma : float option;
  deadline_ms : int option;  (** queue-admission deadline, server-side *)
  trace : string option;
      (** client-minted trace id ({!Obs.Trace.is_valid_trace_id}); links
          the async submit/result round trip when no [traceparent]
          header can carry it. Not part of the batching key and never
          echoed in the response body, so it cannot perturb the
          byte-determinism contract. *)
}

val job_of_json : string -> (job, string) result
(** Decode and validate one job body. Bounded: body size is capped by
    the HTTP layer, schedule counts and workload sizes here. The error
    string is safe to echo back in a 400/422 response. *)

val validate : job -> (unit, string) result
(** The range checks {!job_of_json} applies while decoding, for a job
    built in code (as [repro eval] does): sizes and counts within the
    service caps, [ul] within {!Experiments.Case.ul_in_range}, finite
    [delta ≥ 0] and [gamma ≥ 1]. The error is the one {!job_of_json}
    reports for the same value. *)

val job_to_json : job -> string
(** Inverse of {!job_of_json} (used by the client and
    [repro eval --emit-request]); round-trips. *)

type context = {
  key : string;  (** batching key: (graph × platform × UL) identity *)
  graph : Dag.Graph.t;
  platform : Platform.t;
  model : Workloads.Stochastify.t;
}

val key_of_job : job -> string
(** The batching key alone, {e without} materializing the workload:
    named workloads key on the case id (a string render of the
    parameters), inline ones on a digest of their canonical JSON. This
    is what lets a connection domain route a job to its owning shard
    cheaply — the expensive graph/platform generation is deferred to
    {!context_of_job} on the evaluating domain. Agrees with [context.key]. *)

val context_of_job : job -> (context, string) result
(** Materialize the case. Jobs with equal [key] are guaranteed to
    describe the identical (graph, platform, uncertainty model) triple,
    so one {!Makespan.Engine} may serve them all — named workloads key
    on the case id, inline ones on a digest of their canonical JSON.
    This is the expensive half of admission (workload/platform
    generation); the sharded server runs it on the pool domain that
    takes the job (the ["admit"] stage), never on a connection domain. *)

exception Invalid_job of string
(** Raised by {!run_job} when a neighbor spec names a move its base
    schedule cannot take: a task, processor or position out of range,
    or a move that deadlocks the eager execution. The message has the
    shape of a {!validate} error and is safe to echo in a 422. *)

val run_job :
  ?flight:Obs.Flight.record ->
  ?shard:int ->
  ?pool:Parallel.Pool.t ->
  engine:Makespan.Engine.t ->
  job ->
  string
(** Evaluate every schedule of the job on an engine built over the
    job's context and render the response body (one JSON document,
    newline-terminated). The engine must come from this job's [key];
    sharing it across same-key jobs only warms its caches. Random
    schedules are generated from the spec seed, δ/γ are calibrated on
    the job's own first schedules (capped at 20) exactly as
    {!Experiments.Runner} does, and evaluation fans out over [pool]
    (the default of {!Parallel.Pool.run} when absent; the server passes
    its own pool, on whose domains its jobs run).
    A base schedule that neighbor rows share is evaluated in full once,
    by its incremental session, and a heuristic row naming that base
    reads the session's evaluation. When [flight] is given, the work is split into the ["eval"]
    (expansion + metric sweep) and ["encode"] (JSON rendering) stages
    of that request's flight record, labeled with [shard] when the
    caller is a sharded server. *)

val eval : job -> (string, string) result
(** One-shot local evaluation: context + fresh engine + {!run_job}.
    This is the [repro eval] path the CI smoke test compares the served
    bytes against. [Error] is the client's error, the class a server
    answers with 422: a case {!context_of_job} cannot build, or
    {!Invalid_job}. Any other exception from the evaluation propagates. *)
