(** Combined telemetry report over all three sinks. *)

val json : unit -> Json.t
(** One JSON document: [counters], [gauges], [histograms] (merged
    {!Metrics.snapshot}), [spans] ({!Span.summary}) and [phases]
    ({!Progress.phases}). [repro --metrics FILE] writes it; the
    service's [/metrics] nests it under ["obs"]. *)
