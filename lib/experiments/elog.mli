(** Progress logging for the long-running sweeps.

    Enable with [Logs.set_level (Some Logs.Info)] plus any reporter (the
    [repro] CLI does this under [-v]; [-vv] additionally enables
    {!debug}); silent by default. *)

val src : Logs.src

val warn : ('a, Format.formatter, unit, unit) format4 -> 'a
(** [warn fmt …] logs at warning level on {!src} — recoverable anomalies
    such as an invalidated checkpoint or a retried case failure. *)

val info : ('a, Format.formatter, unit, unit) format4 -> 'a
(** [info fmt …] logs at info level on {!src} (eagerly formatted; these
    messages are emitted a handful of times per sweep). *)

val debug : ('a, Format.formatter, unit, unit) format4 -> 'a
(** [debug fmt …] logs at debug level on {!src} — per-case details
    (calibration constants, checkpoint decisions) too chatty for [-v]. *)
