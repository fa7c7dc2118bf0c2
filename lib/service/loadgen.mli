(** Load generator for the evaluation service — the [repro loadgen]
    engine behind [BENCH_serve.json].

    Two arrival disciplines:

    - {e closed loop} (default): [concurrency] client domains fire
      synchronous [POST /eval] requests back-to-back until [requests]
      have completed. Offered load adapts to service speed; latency is
      the client round trip.
    - {e open loop} ([Poisson rate]): arrivals form a Poisson process
      at [rate] requests/s, scheduled up front from a fixed seed and
      claimed by the worker domains through a shared cursor. Latency is
      measured from the {e scheduled arrival}, so a service that falls
      behind accrues queueing delay instead of silently throttling the
      load (no coordinated omission).

    After the run the generator scrapes [GET /metrics] once and renders
    a single JSON report (throughput, latency quantiles, error count,
    optional SLO attainment, the server's service counters). With
    [trace_out] set it additionally sends one traced request
    ([traceparent] header) and saves that request's Chrome trace from
    [GET /debug/requests?format=chrome&trace=...]. *)

type arrival =
  | Closed
  | Poisson of float  (** offered rate, requests per second *)

type config = {
  host : string;
  port : int;
  concurrency : int;  (** client domains (each a keep-alive connection) *)
  requests : int;  (** total sync requests across all domains *)
  job : Proto.job;  (** request template, sent verbatim *)
  arrival : arrival;
  slo_ms : float option;
      (** latency budget; the report gains [slo_ms]/[slo_attained]
          (errors count as misses) *)
  trace_out : string option;
      (** write one traced request's Chrome trace JSON to this file *)
}

val default_job : unit -> Proto.job
(** A small named case (Cholesky n=10, 3 procs, UL 1.1, classical
    backend, HEFT + 20 seeded random schedules): heavy enough to
    exercise the engine, light enough for CI. *)

val run : config -> string
(** Execute the load and return the report document (newline-
    terminated JSON, ready to write to [BENCH_serve.json]). *)

(** {2 Worker-scaling sweep}

    [repro loadgen --workers-sweep] drives the whole 1→N scaling curve
    in-process: for each point it starts a fresh {!Server} (ephemeral
    port), fires a closed-loop load of [keys] distinct cases from
    [sweep_concurrency] client domains, and reads the admit-stage
    latency back out of the {!Obs.Metrics} snapshot (per-shard
    [service_stage_seconds{stage="admit"}] families merged). Every
    response body is
    compared byte-for-byte against [Proto.eval]'s offline document
    ([byte_mismatches] must be 0 at every worker count). *)

type sweep_config = {
  worker_counts : int list;  (** sharded points, e.g. [[1; 2; 4]] *)
  sweep_concurrency : int;  (** client domains per point *)
  sweep_requests : int;  (** sync requests per point *)
  keys : int;  (** distinct cases (distinct batch keys) in the mix *)
  task_n : int;  (** target task count per case — sizes the admit cost *)
}

val sweep : sweep_config -> string
(** Run the curve and return the report (newline-terminated JSON with
    one [points] entry per worker count). *)
