(** Sweep progress reporting and phase-level GC accounting.

    A reporter is ticked (from any domain — the count is atomic, the
    stderr refresh throttled and claimed by compare-and-set) once per
    unit of work; it prints rate and ETA while {!enabled}. {!phase}
    brackets a pipeline stage with a {!Span.with_} span and a
    [Gc.quick_stat] delta, collected into {!phases} for the metrics
    report. Everything is a no-op (one atomic load) when all sinks are
    disabled. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

type t

val create : total:int -> string -> t
(** Reporter for [total] units, refreshing stderr at most every 0.5
    seconds. Creation is cheap and always allowed; ticks
    are dropped while disabled. *)

val tick : ?n:int -> t -> unit
val finish : t -> unit
(** Print the final line (with a newline) if enabled. *)

(** {1 Phases} *)

type phase_report = {
  phase : string;
  elapsed_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  compactions : int;
}

val phase : string -> (unit -> 'a) -> 'a
(** [phase name f] runs [f] under a span called [name] and records a
    {!phase_report} (also on exception) when any sink is enabled;
    otherwise it is [f ()]. *)

val phases : unit -> phase_report list
(** Reports in execution order. *)

val reset_phases : unit -> unit
