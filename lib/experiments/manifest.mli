(** Campaign provenance manifest ([campaign.json]).

    A checkpoint CSV is only bitwise-reusable if it was produced under
    the same scale, seed and slack mode — a file from a foreign run that
    merely has enough rows must be recomputed, not silently trusted.
    The manifest records that provenance plus per-case status, is
    rewritten atomically (via {!Export.write_file}) after every case,
    and is what {!Campaign.run} validates checkpoints against and what a
    resumed invocation picks up after a crash or signal.

    Schema (JSON, version 1):
    {v
    { "version": 1,
      "scale": "small",
      "slack_mode": "disjunctive",
      "cases": [
        { "id": "cholesky-n10-p3-ul1.1-s1", "seed": "1",
          "schedules": 1000, "status": "done", "rows": 1003,
          "attempts": 1 },
        { "id": "...", "seed": "1", "schedules": 1000,
          "status": "failed", "attempts": 3, "error": "..." } ] }
    v}
    [schedules] is the random-schedule count the scale demanded when the
    case ran; [seed] is decimal-in-a-string so 64-bit seeds survive the
    float-free parser. *)

type status =
  | Done of { rows : int; attempts : int }
      (** checkpoint CSV on disk with [rows] data rows *)
  | Failed of { attempts : int; error : string }
      (** every attempt raised; [error] is the last exception *)

type entry = {
  id : string;  (** {!Case.t} id, also the CSV basename *)
  seed : int64;
  schedules : int;  (** wanted random schedules when produced *)
  status : status;
}

type t = {
  scale : string;  (** {!Scale.t} name the campaign ran at *)
  slack_mode : string;  (** {!slack_mode_name} of the campaign *)
  entries : entry list;
}

val file_name : string

val slack_mode_name : Sched.Slack.graph_mode option -> string
(** Canonical name: ["disjunctive"] (also the [None] default) or
    ["precedence"]. *)

val save : dir:string -> t -> unit
(** Atomically (re)write [dir/campaign.json]. *)

val load : dir:string -> t option
(** [None] when the file is absent, unparseable or of a foreign
    version — callers treat all three as "no provenance: recompute". *)
