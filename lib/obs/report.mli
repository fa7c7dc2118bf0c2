(** Combined telemetry report over all three sinks. *)

val json : unit -> string
(** One JSON document: [counters], [gauges], [histograms] (merged
    {!Metrics.snapshot}), [spans] ({!Span.summary}) and [phases]
    ({!Progress.phases}). This is what [repro --metrics FILE] writes. *)
