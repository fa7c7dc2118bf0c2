(** W3C trace-context identifiers for request correlation.

    One {!t} names one end-to-end request: the 32-hex [trace_id] is
    carried in the [traceparent] HTTP header, stamped on every
    {!Flight} stage and attached as an exemplar to latency-histogram
    buckets in the OpenMetrics exposition, so a slow bucket can be
    traced back to a concrete request. Minting is lock-free and
    deterministic-free (seeded from wall clock ⊕ pid at startup). *)

type t = {
  trace_id : string;   (** 32 lowercase hex, never all-zero *)
  parent_id : string;  (** 16 lowercase hex span id *)
}

val mint : unit -> t
(** Fresh random identifiers. *)

val to_traceparent : t -> string
(** ["00-<trace_id>-<parent_id>-01"], the header value to send. *)

val of_traceparent : string -> t option
(** Parse a [traceparent] header value; [None] on anything malformed
    (wrong length/version, non-hex, all-zero ids) — callers mint a
    fresh trace instead. *)

val is_valid_trace_id : string -> bool
(** 32 lowercase hex and not all-zero. *)
