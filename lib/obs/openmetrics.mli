(** OpenMetrics 1.0 text exposition: encoder + line-grammar validator.

    The encoder turns a {!Metrics.snapshot} (plus caller-built metric
    values, e.g. the server's always-on counters) into the
    [application/openmetrics-text] body served by [GET /metrics] with
    [?format=openmetrics]. Exposition buckets are cumulative with a
    terminal [le="+Inf"]; counters carry the [_total] sample suffix;
    registry names of the form [family{k="v"}] become one family with
    labels; trace-id exemplars ride the bucket lines.

    The validator enforces the line grammar the tests, the CI smoke and
    [repro check-metrics] all share: [# TYPE]/[# HELP]/[# UNIT]
    comments only, typed sample-suffix resolution, no family
    interleaving, cumulative non-decreasing buckets that agree with
    [_count], exemplar syntax, terminal [# EOF]. *)

type data =
  | Counter of float
  | Gauge of float
  | Histogram of {
      bounds : float array;  (** finite upper bounds *)
      counts : int array;  (** per bucket (not cumulative), length bounds+1 *)
      sum : float;
      exemplars : (string * float) option array;  (** per bucket *)
    }

type metric = {
  family : string;  (** exposition family name (sanitize first) *)
  labels : (string * string) list;
  help : string option;
  data : data;
}

val sanitize_name : string -> string
(** Map to the OpenMetrics charset ([.] and friends become [_]). *)

val split_name : string -> string * (string * string) list
(** Split a registry name [family{k="v",...}] into base + labels;
    names without braces pass through with no labels. *)

val of_snapshot : Metrics.snapshot -> metric list
(** Every counter/gauge/histogram of the snapshot as metrics, names
    sanitized and embedded labels split out, without help strings. *)

val render : metric list -> string
(** The exposition document, families grouped in first-seen order,
    terminated by [# EOF]. Raises [Invalid_argument] if one family
    mixes metric kinds (an encoder-side bug, not input data). *)

val validate : string -> (unit, string) result
(** Check a full exposition against the line grammar; errors carry the
    offending line number. *)
