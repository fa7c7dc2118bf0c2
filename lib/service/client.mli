(** Blocking HTTP client for the evaluation service — the test suite's
    and the benchmark's view of the daemon. One [t] is one keep-alive
    connection (lazily dialed, transparently redialed once if the
    server closed it); not thread-safe — give each domain its own. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** Arms a 30 s [SO_RCVTIMEO] on the socket so a hung server surfaces
    as [`Timeout] instead of blocking forever.
    Also ignores [SIGPIPE] process-wide (idempotent). Dialing happens
    on first use. *)

val close : t -> unit

val request :
  t -> meth:string -> path:string -> ?headers:(string * string) list ->
  ?body:string -> unit ->
  (Http.response, Http.error) result
(** One round-trip. Redials and retries exactly once when the
    connection turns out to be closed (stale keep-alive). [headers]
    ride on the request line (e.g. [traceparent]). *)

val get : t -> string -> (Http.response, Http.error) result
val post : t -> string -> string -> (Http.response, Http.error) result

(** {1 Service conveniences}

    Errors are human-readable strings (status + body) — these helpers
    collapse transport and HTTP-status failures. *)

val healthz : t -> (string, string) result
(** Body of [GET /healthz] (200 or draining-503 both count as alive). *)

val eval : ?traceparent:string -> t -> Proto.job -> (string, string) result
(** Sync evaluation: [POST /eval], returns the bare result document.
    [traceparent] (see {!Obs.Trace.to_traceparent}) propagates a
    client-minted trace id into the server's flight recorder. *)

val submit : t -> Proto.job -> (string, string) result
(** Async submit: [POST /jobs], returns the job id. *)

val wait : ?timeout_s:float -> t -> string -> (string, string) result
(** Poll [GET /jobs/:id] until the job leaves the queue/run states,
    then fetch [GET /jobs/:id/result] and return the bare document
    (default: poll every 20 ms, give up after 60 s). *)
