(** Minimal, strictly-bounded HTTP/1.1 over raw [Unix] descriptors.

    Exactly the subset the evaluation service needs — request/response
    heads, [Content-Length] bodies, keep-alive — hand-rolled like every
    wire format in this repo (DESIGN §10: no third-party deps). The
    parser treats the peer as adversarial: header bytes, header count
    and body bytes are all capped, malformed input is a typed {!error}
    (mapped to 400/413/431 by the server), and nothing in this module
    raises on untrusted bytes. Timeouts come from [SO_RCVTIMEO] on the
    socket: a blocked read surfaces as [`Timeout].

    Chunked transfer encoding is deliberately unsupported (bodies must
    carry [Content-Length]); requests advertising it are rejected as
    [`Bad_request]. *)

type limits = {
  max_header_bytes : int;  (** whole head: request line + headers *)
  max_headers : int;  (** header-line count *)
  max_body_bytes : int;
}

val default_limits : limits
(** 16 KiB head, 100 headers, 8 MiB body. *)

type request = {
  meth : string;  (** verbatim, e.g. ["GET"] *)
  path : string;  (** percent-decoded, query stripped *)
  query : (string * string) list;  (** decoded key/value pairs *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
  http_1_1 : bool;  (** false for HTTP/1.0 — disables keep-alive *)
}

type response = {
  status : int;
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

type error =
  [ `Closed  (** EOF at a message boundary (clean connection end) *)
  | `Timeout  (** [SO_RCVTIMEO] expired mid-read *)
  | `Bad_request of string  (** malformed syntax → 400 *)
  | `Header_too_large  (** head or header-count cap exceeded → 431 *)
  | `Body_too_large  (** [Content-Length] over the cap → 413 *) ]

val error_to_string : error -> string

type reader
(** Buffered connection reader; owns the bytes already read past the
    previous message (keep-alive pipelining). *)

val reader : Unix.file_descr -> reader

val buffered : reader -> int
(** Bytes already read but not yet consumed by a parse. After a
    [`Timeout], zero means the peer was idle between requests (safe to
    retry or close); non-zero means it stalled mid-message. *)

val read_request : ?limits:limits -> reader -> (request, error) result
val read_response : ?limits:limits -> reader -> (response, error) result

val header : string -> (string * string) list -> string option
(** Lookup by lowercase name. *)

val keep_alive : request -> bool
(** HTTP/1.1 without [Connection: close] (HTTP/1.0 is always closed). *)

val write_response :
  ?headers:(string * string) list ->
  Unix.file_descr ->
  status:int ->
  string ->
  unit
(** Serialize and send a response with [Content-Length] (content type
    [application/json] unless [headers] names one). Raises [Unix.Unix_error] on a
    broken peer (e.g. [EPIPE]); callers treat that as connection
    teardown. *)

val write_request :
  ?headers:(string * string) list ->
  Unix.file_descr ->
  meth:string ->
  path:string ->
  body:string ->
  unit
(** Client side of the same subset (always [Host] + [Content-Length],
    keep-alive by default). *)
