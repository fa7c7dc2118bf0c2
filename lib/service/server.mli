(** The evaluation daemon: accepts JSON jobs over HTTP, batches
    same-case jobs onto shared {!Makespan.Engine} contexts, and serves
    live metrics.

    {2 Architecture}

    One {e acceptor} domain owns the listening socket and feeds accepted
    connections to [conn_domains] handler domains over a
    mutex/condition queue. Handlers parse requests with the bounded
    {!Http} reader and either answer immediately ([/healthz],
    [/metrics], job status) or submit a job to one of [workers]
    {e evaluation shards}. A shard is a worker domain owning a private
    bounded job queue, a private engine LRU and (when [workers > 1]) a
    private slice of the evaluation pool; jobs are consistent-hashed to
    shards by their (graph × platform × UL) batch key, so same-key
    batching and per-base reeval sessions keep their engine affinity
    with no shared engine mutex and no contention on one pool submit
    lock. Each worker drains its queue in batches: it pops the oldest
    job plus every queued job sharing its key, obtains the one
    {!Makespan.Engine} for that key from its shard's LRU, and evaluates
    the batch on it. Batching shares engine caches only; response bytes
    are identical to a solo run (see {!Proto}).

    A sync [/eval] sleeps on its handler domain's self-pipe. Every
    terminal transition the worker or {!stop} makes sets the job's
    state, then writes one byte to that pipe; while the job is still
    queued, the waiter's [select] timeout is the time left to its
    deadline, so expiry needs no timer thread.

    {2 Admission}

    Connection domains do only the cheap half of admission: bounded
    HTTP, JSON decode and batch-key extraction ({!Proto.key_of_job}).
    The expensive half — {!Proto.context_of_job}, the workload/platform
    generation that used to fight the evaluation pool for the minor
    heap when it ran on connection domains — executes on the job's
    owning worker as the ["admit"] stage of its flight record.
    Verdicts:

    - shard queue full → [503] with [Retry-After] (never admitted);
    - context build fails on the worker → [422] for sync waiters,
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
    stages across the connection → worker domain hop; stages executed
    on a worker carry a [shard] label in the
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
      (** evaluation shards (worker domains when [auto_worker]); values
          < 1 are clamped to 1 *)
  limits : Http.limits;
  engine_cache : int;  (** max engines kept warm per shard (LRU by case key) *)
  auto_worker : bool;
      (** spawn the evaluation worker domains. [false] is for tests:
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
(** Bind, listen and spawn the acceptor/handler/worker domains (plus,
    when [workers > 1] with [auto_worker], one private evaluation pool
    per shard). Also turns on {!Obs.Metrics} so [/metrics] has live
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
    every domain, shut down the private shard pools and close the
    socket. Idempotent; the shared pool is left running (its [at_exit]
    teardown owns it), so start/stop/start cycles in one process work. *)

val step : t -> int
(** Manually run one batch off every shard's queue (for
    [auto_worker = false] tests); returns the number of jobs processed
    (0 if all queues were empty). Must not be called while auto workers
    are running. *)

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
