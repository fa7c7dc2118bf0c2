(** [repro top]: a live terminal view of a running evaluation service.

    Polls [GET /metrics] (JSON form) and [GET /debug/requests] every
    [interval_s] and renders one frame: request/job throughput, queue
    depth, engine-cache hit rate, a per-stage latency table (the
    [parse → admit → queue → batch → eval → encode → write] lifecycle)
    and the most recent requests from the flight ring. Rates and stage
    p50/p99 are computed from {e deltas between frames} (bucket-count
    differences), so the display tracks current behavior rather than
    lifetime averages; the first frame falls back to lifetime values. *)

type config = {
  host : string;
  port : int;
  interval_s : float;  (** poll period; clamped to ≥ 50 ms *)
  iterations : int option;  (** number of frames; [None] = until killed *)
  plain : bool;
      (** append frames instead of ANSI clear-screen (pipes, CI logs) *)
}

val run : config -> (unit, string) result
(** Poll and render until [iterations] frames have been shown (or
    forever). [Error] carries the first scrape failure (unreachable
    host, non-200, unparsable document). *)
