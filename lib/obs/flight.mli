(** Always-on flight recorder: a lock-free ring of the last N request
    records — trace id, per-stage timings, sizes, status, engine-cache
    hit/miss — behind [GET /debug/requests], plus the slow-request log.

    Unlike {!Metrics}/{!Span} this is {e not} gated on the sinks flag:
    recording one small record per HTTP request is amortized over a
    network round trip and cheap enough to leave on in production.
    {!timed} with no record while sinks are off remains allocation-free
    (the hot-path guarantee the bench suite pins).

    Concurrency: a record crosses the connection→worker domain hop.
    Scalar fields are single-writer-at-a-time plain stores; the [stages]
    list is CAS-pushed (both domains append); ring publication is one
    [fetch_and_add] plus a slot store. Readers get a racy but never torn
    view. *)

type cache_status = Hit | Miss | Unknown

type stage = {
  stage : string;
  t0_us : float;  (** monotonic ({!Clock.now_us}) *)
  t1_us : float;
}

type record = {
  seq : int;
  mutable trace_id : string;
  mutable meth : string;
  mutable path : string;
  started_wall_s : float;
  t_start_us : float;
  mutable t_end_us : float;  (** [0.] while in flight *)
  mutable queued_us : float;  (** {!mark_queued} timestamp, [0.] if never queued *)
  mutable status : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable cache : cache_status;
  stages : stage list Atomic.t;  (** newest first; capped at 32 *)
}

val create :
  ?trace_id:string -> ?started_wall_s:float -> meth:string -> path:string -> unit -> record
(** New in-flight record; mints a fresh {!Trace} id when none is
    propagated from the client. Not yet visible in the ring.
    [started_wall_s] overrides the display timestamp (defaults to
    [Unix.gettimeofday ()]) — the server passes its own wall reading so
    a simulated NTP step in tests flows through display fields only,
    never through the monotonic stage timings. *)

val mark_queued : record -> unit
(** Stamp the enqueue instant — the worker turns it into the ["queue"]
    stage when it pops the job. *)

val set_cache : record -> cache_status -> unit

val record_stage : ?shard:int -> record option -> stage:string -> float -> float -> unit
(** [record_stage r ~stage t0_us t1_us] appends an externally-timed
    stage (monotonic µs) and feeds the per-stage latency histogram
    [service.stage_seconds{stage=...}] (with the record's trace id as
    exemplar) when sinks are on. [shard] adds a [shard="k"] label to
    the histogram family — stages executed on a sharded worker domain
    expose per-shard latency; the flight record itself keeps the plain
    stage name. *)

val timed : ?record:record -> ?shard:int -> stage:string -> (unit -> 'a) -> 'a
(** Time [f] with the monotonic clock and {!record_stage} it.
    Exception-safe. With no record and sinks off this is [f ()] behind
    two atomic loads — no clock read, no allocation. *)

val finish : ?slow_ms:float -> record -> status:int -> unit
(** Seal the record and publish it to the ring; logs one stderr line
    when the request took ≥ [slow_ms] milliseconds. *)

val recent : ?limit:int -> unit -> record list
(** Newest-first published records (≤ ring capacity). *)

val total : unit -> int
(** Requests ever published (ring overwrites beyond {!capacity}). *)

val capacity : int

val json : ?limit:int -> unit -> string
(** The [GET /debug/requests] document. *)

val chrome : ?limit:int -> ?trace_id:string -> unit -> string
(** Chrome trace_event JSON ("X" events, one row per request), optionally
    filtered to a single trace id — one traced request's stage tree. *)

(**/**)

val reset : unit -> unit
(** Clear the ring. A test seam: not safe under concurrent publication. *)
