(** The evaluation daemon: accepts JSON jobs over HTTP, batches
    same-case jobs onto shared {!Makespan.Engine} contexts, and serves
    live metrics.

    {2 Architecture}

    One {e acceptor} domain owns the listening socket and feeds accepted
    connections to [conn_domains] handler domains over a
    mutex/condition queue. Handlers parse requests with the bounded
    {!Http} reader and either answer immediately ([/healthz],
    [/metrics], job status) or submit a job to one of [workers]
    {e evaluation shards}. A shard is a bounded job queue and an engine
    LRU under its own lock; jobs are consistent-hashed to shards by
    their (graph × platform × UL) batch key, so same-key batching and
    per-base reeval sessions keep their engine affinity with no engine
    shared across shards. The jobs run on the server's one
    {!Parallel.Pool} of [Parallel.Pool.default_domains ()] domains,
    whatever the number of shards: a pool domain with nothing else to do
    pops the oldest job of a shard plus every queued job sharing its
    key, obtains the one {!Makespan.Engine} for that key from the
    shard's LRU (a miss builds it under the LRU lock, so a key has one
    engine per shard), and evaluates the batch on it, fanning each job's
    schedules out over the same pool. A domain helps the other jobs'
    fan-outs before it takes a new batch, so the server runs as many
    jobs at once as it has cores and never more evaluation domains.
    Batching and concurrency share engine caches only; response bytes
    are identical to a solo run (see {!Proto}).

    A sync [/eval] sleeps on its handler domain's self-pipe. Every
    terminal transition a pool domain or {!stop} makes sets the job's
    state, then writes one byte to that pipe; while the job is still
    queued, the waiter's [select] timeout is the time left to its
    deadline, so expiry needs no timer thread.

    {2 Admission}

    Connection domains do only the cheap half of admission: bounded
    HTTP, JSON decode and batch-key extraction ({!Proto.key_of_job}).
    The expensive half — {!Proto.context_of_job}, the workload/platform
    generation that used to fight the evaluation pool for the minor
    heap when it ran on connection domains — executes on the job's
    owning shard, on a pool domain, as the ["admit"] stage of its flight
    record.
    Verdicts:

    - shard queue full → [503] with [Retry-After] (never admitted);
    - context build fails on the pool domain → [422] for sync waiters,
      ["invalid"] in async status;
    - [deadline_ms] elapsed while still queued → the job expires
      ([504] for sync waiters, ["expired"] in async status). Deadlines
      are measured on the monotonic {!Obs.Clock} — a wall-clock (NTP)
      step cannot mass-expire or immortalize queued jobs;
    - drain ({!stop} or SIGTERM via {!serve_forever}): new submissions
      get [503] (counted in [rejected_draining]), queued jobs are given
      [drain_grace_s] to finish, then cancelled.

    {2 Observability}

    Every request becomes an {!Obs.Flight} record: the trace id comes
    from the client's [traceparent] header (or the job body's [trace]
    field, or is minted), and the request is decomposed into the
    [parse → decode → queue → batch → admit → eval → encode → write]
    stages across the connection → pool domain hop; stages executed
    on a pool domain carry a [shard] label in the
    [service_stage_seconds] histogram family, alongside the per-shard
    [service_queue_depth], [service_shard_jobs], [service_shard_engines]
    and [service_shard_depth] families. [GET /metrics] serves JSON by
    default and OpenMetrics text (with trace-id exemplars on latency
    buckets) under [?format=openmetrics] or
    [Accept: application/openmetrics-text]; [GET /debug/requests]
    serves the flight ring ([?format=chrome&trace=...] renders a
    Chrome trace_event document); [slow_ms] enables the slow-request
    stderr log. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port — read it back with {!port} *)
  queue_capacity : int;
      (** per-shard job-queue bound; beyond it submissions get 503 *)
  conn_domains : int;  (** connection-handler domains *)
  workers : int;
      (** evaluation shards (queue and engine LRU), all served by the
          one pool of [default_domains] domains; values < 1 are clamped
          to 1 *)
  limits : Http.limits;
  engine_cache : int;  (** max engines kept warm per shard (LRU by case key) *)
  auto_worker : bool;
      (** let the pool domains run queued jobs. [false] is for tests:
          jobs only run when {!step} is called, so batching is
          observable deterministically. Sync [/eval] requests then
          block until some other thread calls {!step} or {!stop}. *)
  drain_grace_s : float;  (** drain: max wait for queued jobs to finish *)
  slow_ms : float option;
      (** log one stderr line for every request slower than this many
          milliseconds (with its trace id and stage list); [None]
          disables the slow log *)
}

val default_config : config
(** localhost, ephemeral port, capacity 64, 4 handler domains, 1
    worker, {!Http.default_limits}, 8 engines,
    auto worker, 5 s grace. *)

type t

val start : config -> t
(** Bind, listen and spawn the acceptor, handler and pool domains.
    Also turns on {!Obs.Metrics} so [/metrics] has live
    histograms, and ignores [SIGPIPE] (a dying client must not kill the
    daemon). Raises [Unix.Unix_error] if the address cannot be bound. *)

val port : t -> int
(** The bound port (useful with [config.port = 0]). *)

val shard_of_key : t -> string -> int
(** The shard that owns a batch key (consistent: equal keys always land
    on the same shard). Exposed so tests can predict placement. *)

val stop : t -> unit
(** Graceful drain: stop accepting, let queued jobs finish (up to
    [drain_grace_s] on the monotonic clock), cancel the rest, join
    every domain (the pool's once their running jobs finish) and close
    the socket. Idempotent; start/stop/start cycles in one process
    work. *)

val eval_domains : t -> int
(** The domains that evaluate jobs: the size of the server's pool,
    [Parallel.Pool.default_domains ()] whatever [workers] is. With
    [auto_worker = false] the caller of {!step} is one of them. *)

val step : t -> int
(** Manually run one batch off every shard's queue (for
    [auto_worker = false] tests); returns the number of jobs processed
    (0 if all queues were empty). Only for [auto_worker = false]. *)

type stats = {
  requests : int;  (** HTTP requests parsed (any route) *)
  jobs_submitted : int;
  jobs_done : int;
  jobs_failed : int;
  jobs_expired : int;
  jobs_cancelled : int;  (** cancelled by drain *)
  rejected_full : int;  (** 503s from a full shard queue *)
  rejected_invalid : int;  (** 400/422s (decode, context and neighbor-move failures) *)
  rejected_draining : int;  (** 503s because the server was draining *)
  batches : int;
  max_batch : int;
  engines_created : int;
  queue_depth : int;  (** current, summed over shards *)
  workers : int;  (** number of shards *)
  shard_jobs : int array;  (** jobs evaluated, per shard *)
  shard_depth : int array;  (** queued jobs, per shard *)
}

val stats : t -> stats
(** Always-on service counters (plain atomics — independent of {!Obs}
    gating). Engine counters are not here: every engine feeds the
    process-wide [engine.*] counters of {!Obs.Metrics} (see
    {!Makespan.Engine.stats}), which both [/metrics] forms carry and
    which, unlike a sum over the engines still cached, never fall when
    an engine is evicted. *)

val serve_forever : config -> unit
(** {!start}, then block inside an {!Experiments.Stop} scope until
    SIGINT/SIGTERM requests a stop, then drain via {!stop} and return —
    the [repro serve] main loop. Composes with campaign runs: both use
    the same process-wide signal scope stack. *)

(**/**)

val set_wall_offset_for_tests : float -> unit
(** Skew the server's wall-clock readings (flight-record display
    timestamps — the only wall reads it performs) by this many seconds,
    simulating an NTP step. Queue deadlines are monotonic, so stepping
    the wall clock must not change expiry behavior; the deadline tests
    assert exactly that. Not for production use. *)
