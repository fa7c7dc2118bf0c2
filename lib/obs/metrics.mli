(** Process-wide metrics registry: atomic-flag-gated counters, gauges
    and fixed-bucket histograms, sharded per domain.

    Increments go to a domain-local shard (no contention between
    {!Parallel.Pool} workers); {!snapshot} merges every shard on read.
    All write paths are gated on {!enabled}: when sinks are off an
    increment is one atomic load and a branch — no allocation — so
    instrumented hot paths stay within noise of uninstrumented ones.

    Registration ({!counter}, {!gauge}, {!histogram}) is idempotent by
    name and cheap enough to do at module initialization; handles are
    plain values, safe to share across domains. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Instruments} *)

type counter

val counter : string -> counter
(** Registers (or returns the existing) monotonic counter.
    Raises [Invalid_argument] if [name] is already a histogram. *)

val incr : counter -> unit
val add : counter -> int -> unit

type gauge

val gauge : string -> gauge
(** Last-write-wins float value (not sharded; set once per phase). *)

val set : gauge -> float -> unit

type histogram

val histogram : ?buckets:float array -> string -> histogram
(** Fixed-bucket histogram; [buckets] are strictly increasing upper
    bounds (default: decades from [1e-6] to [1e3]). An extra overflow
    bucket catches values above the last bound. *)

val latency_buckets : float array
(** Log-1.5 ladder, 1 µs … ≈22 s (43 buckets) — the preset every
    duration-in-seconds histogram should use: quantile interpolation
    error stays ≤ 25% of the value at every scale, where decades put a
    whole 100 µs–1 ms band in one bucket. *)

val observe : histogram -> float -> unit

val observe_ex : histogram -> ?exemplar:string -> float -> unit
(** {!observe}, optionally attaching a trace id as the bucket's
    exemplar (last writer per shard wins; surfaced in the OpenMetrics
    exposition so a slow bucket links to a concrete request). *)

(** {1 Snapshot / merge} *)

type hist_value = {
  bounds : float array;
  counts : int array;  (** one per bound, plus a final overflow bucket *)
  total : int;
  sum : float;
  recent : float array;
      (** sliding-window samples (last ≤128 per writing domain),
          unordered; empty before any observation *)
  exemplars : (string * float) option array;
      (** per bucket: (trace id, observed value) from {!observe_ex} *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;  (** only gauges that were set *)
  histograms : (string * hist_value) list;
}

val snapshot : unit -> snapshot
(** Merge of all shards, in registration order. Exact once concurrent
    writers have joined; approximate (racy reads) while they run. *)

val find_counter : snapshot -> string -> int option

val hist_quantile : hist_value -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile ([q ∈ \[0,1\]]) from
    the bucket counts by linear interpolation inside the bucket holding
    the target rank — resolution is limited by the bucket bounds (the
    overflow bucket is pinned at the last bound). [nan] on an empty
    histogram. *)

val window_quantile : hist_value -> float -> float
(** Exact quantile over the {e sliding window} of recent samples
    ([hist_value.recent]) — what a live p50/p99 endpoint should serve:
    current behavior, not the lifetime average. Falls back to
    {!hist_quantile} when the window is empty. *)

val reset : unit -> unit
(** Zero every shard and gauge. Only meaningful while no other domain is
    writing (between phases/benchmark runs). *)
