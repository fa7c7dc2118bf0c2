(** Crash-safe, checkpointed experiment campaigns.

    A full-scale Fig. 6 sweep (24 cases × 10 000 schedules) is a
    multi-hour single-core run; a campaign persists each case's
    per-schedule dataset to [dir/<case-id>.csv] as it completes, so an
    interrupted run resumes where it left off and finished cases are
    never recomputed. The stored CSVs are exactly
    {!Export.schedules_csv}, i.e. also directly consumable by external
    plotting tools.

    Failure model (see DESIGN.md §9):
    - checkpoints and the [campaign.json] manifest are published
      atomically (temp + fsync + rename), so a crash or SIGKILL at any
      instant leaves no truncated file a resume could trust;
    - checkpoints are validated against the {!Manifest} provenance
      (scale, per-case seed, slack mode, wanted schedule count) — stale
      or foreign CSVs are recomputed with an {!Elog.warn}, never
      silently reused;
    - a case whose evaluation raises is retried with exponential backoff
      (transient errors only) and, on exhaustion, recorded as a
      structured {!failure}; the campaign completes every other case and
      {!render} reports the casualties;
    - SIGINT/SIGTERM request a {e cooperative} stop: the in-flight case
      finishes its checkpoint and manifest update, then {!Interrupted}
      is raised so the caller can exit nonzero; the next invocation
      resumes exactly. *)

type case_result = {
  case : Case.t;
  rows : float array array;  (** raw metric vectors, labels order *)
  sources : Runner.source array;
  from_checkpoint : bool;  (** loaded from disk rather than recomputed *)
}

type failure = {
  failed_case : Case.t;
  attempts : int;  (** evaluation attempts consumed (1 = no retry) *)
  error : string;  (** printed form of the last exception *)
}

type t = {
  dir : string;
  results : case_result list;  (** successful cases, campaign order *)
  failures : failure list;  (** cases abandoned after bounded retry *)
  mean : float array array;
      (** Fig. 6-style aggregate over the {e successful} cases; all-nan
          when every case failed *)
  std : float array array;
}

exception Interrupted
(** Raised (after checkpoint + manifest update, with the stop flag
    cleared) when {!request_stop} — or a SIGINT/SIGTERM arriving during
    {!run} — asked the campaign to wind down with cases still pending. *)

val request_stop : unit -> unit
(** Ask the (current or next) campaign to stop at the next case
    boundary: sets every active {!Stop} scope plus a pending flag that
    the next {!run} picks up, so tests can request the stop before the
    campaign starts and exercise the shutdown path deterministically. *)

val load_rows : string -> (Runner.source * float array) array
(** Parse a stored per-schedule CSV back into (source, metric-vector)
    pairs. Raises [Invalid_argument] on malformed files. *)

val run :
  ?pool:Parallel.Pool.t ->
  ?scale:Scale.t ->
  ?slack_mode:Sched.Slack.graph_mode ->
  ?attempts:int ->
  ?backoff:float ->
  ?schedulers:string list ->
  dir:string ->
  ?cases:Case.t list ->
  unit ->
  t
(** Run (or resume) a campaign over [cases] (default
    {!Case.paper_cases}). A case is recomputed when its checkpoint is
    missing, fails manifest provenance (different seed, scale or slack
    mode — or no manifest at all), or holds fewer random schedules than
    the requested scale. [?attempts] bounds evaluation tries per case
    (default 3); [?backoff] is the initial retry delay in seconds,
    doubled per retry (default 0.5; pass [0.] in tests).
    [?pool] selects the sweep workers as in {!Runner.run}; by default
    every case shares one persistent pool.

    [?schedulers] names the heuristic schedules swept next to the random
    ones — registry names, aliases, or [rank=...,select=...]
    compositions (default {!Runner.heuristics}). Unknown names raise
    [Invalid_argument] before any case runs; a checkpoint missing one of
    the requested schedulers is recomputed.

    While running, the campaign holds a {!Stop} scope, so SIGINT and
    SIGTERM request a cooperative stop without displacing any other
    active scope (an enclosing campaign, the service's drain handler);
    outside of every scope the previous signal behaviour is restored.
    May raise {!Interrupted}; everything completed up to that point is
    on disk. *)

val render : t -> string
(** The Fig. 6 matrix over successful cases, plus a failure report when
    any case was abandoned. *)
