(** Deterministic Pareto-frontier archive.

    Tracks the non-dominated set over two minimized coordinates:
    x = E(M) always, y = σ_M ([`Sigma]) or y = −S ([`Slack], so more
    total slack is better) — the paper's makespan-vs-robustness and
    makespan-vs-slack trades. Insertion order breaks exact ties (the
    incumbent wins), so the frontier — and its CSV/JSON renderings — are
    byte-deterministic for a deterministic offer sequence. *)

type axis = [ `Sigma | `Slack ]

type point = {
  step : int;  (** global step index the point was found at (0 = initial) *)
  em : float;  (** E(M) *)
  sigma : float;  (** σ_M *)
  slack : float;  (** total slack S *)
  objective : float;  (** the search objective's value at this point *)
  sched : Sched.Schedule.t;
}

type t

val create : axis:axis -> t
val axis : t -> axis

val offer : t -> point -> bool
(** Insert if non-dominated; evict newly dominated points. Returns
    whether the point entered the frontier. A point exactly tying an
    incumbent on both coordinates is rejected. *)

val points : t -> point list
(** The frontier, sorted by increasing E(M) (hence decreasing y). *)

val size : t -> int

val csv_header : string
(** Exactly
    ["index,step,expected_makespan,makespan_std,slack_total,objective,schedule"]
    — the schema contract tested by the frontier column-order test. *)

val flat_sched : Sched.Schedule.t -> string
(** {!Sched.Schedule.to_string} on one line: its non-empty lines joined
    by ['|']. *)

val to_csv : t -> string
(** One row per frontier point in {!points} order; floats printed with
    ["%.17g"] (round-trip exact), schedules through {!flat_sched}. *)

val to_json : t -> string
(** Same data as {!to_csv} as a compact {!Obs.Json} object
    [{"axis": ..., "points": [...]}], floats at ["%.17g"]; a non-finite
    one (the entropy objective at UL = 1 is [-inf]) is [null]. *)
