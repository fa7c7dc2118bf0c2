(** Span tracing into per-domain ring buffers.

    {!with_} brackets a computation with wall-clock timestamps and
    records the (name, begin, end) triple into the calling domain's
    fixed-capacity ring buffer — no locks, no allocation on the record
    path, oldest spans overwritten (and counted as {!dropped}) when a
    buffer wraps. Disabled, {!with_} is a single atomic load before
    tail-calling the function.

    Buffers export as Chrome [trace_event] JSON — loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}, one
    track per domain — or as a per-name summary table. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_ : name:(string) -> (unit -> 'a) -> 'a
(** [with_ ~name f] runs [f ()]; when enabled, records a span around it
    (also on exception). Spans nest freely within a domain. *)

val capacity : int
(** Ring capacity per domain (spans beyond it overwrite the oldest). *)

val dropped : unit -> int
(** Total spans overwritten across all domains since the last [reset]. *)

(** {1 Export} *)

type chrome_event = {
  name : string;  (** raw; escaped on output *)
  cat : string;
  ph : [ `B | `E | `X of float ];  (** begin, end, or complete with its duration (µs) *)
  tid : int;
  ts : float;  (** µs *)
  args : (string * Json.t) list;  (** omitted from the output when empty *)
}

val chrome_document : chrome_event list -> string
(** The one Chrome trace-event writer behind {!export_chrome} and
    [Flight.chrome]: a compact [traceEvents] document in milliseconds
    display units, events in the given order, timestamps and durations
    at [%.3f]. {!export_chrome} adds a top-level [dropped] count. *)

val export_chrome : unit -> string
(** All recorded spans as Chrome trace-event JSON: balanced ["B"]/["E"]
    event pairs, [tid] = domain id, timestamps in µs, sorted so that
    spans nest correctly even under timestamp ties. The top-level
    ["dropped"] field counts overwritten spans. *)

type stat = {
  name : string;
  count : int;
  total_us : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
}

val summary : unit -> stat list
(** Per-name aggregates over the retained spans, sorted by name. *)

(**/**)

val reset : unit -> unit
(** Empty every ring buffer. A test seam: call while no other domain is
    recording. *)
