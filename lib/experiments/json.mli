(** Hand-rolled JSON codec shared by every wire format in the repo
    ([campaign.json] manifests, the {!Service} protocol, telemetry
    reports) — no JSON dependency, per DESIGN §10.

    The parser is {e strictly bounded}: input size, nesting depth and
    node count are all capped, and every failure is a typed {!error}
    result — it never raises on untrusted bytes, which is what lets the
    evaluation service feed it network input directly. Numbers are kept
    as raw literals ({!Num}) and converted at the use site, so 64-bit
    seeds survive without a float round-trip. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of string  (** raw literal, converted at the use site *)
  | Bool of bool
  | Null

type error = {
  offset : int;  (** byte offset of the failure *)
  reason : string;
}

val error_to_string : error -> string

val parse :
  ?max_bytes:int -> ?max_depth:int -> ?max_nodes:int -> string -> (t, error) result
(** Parse one complete JSON document (trailing garbage is an error).
    Defaults: [max_bytes] 8 MiB, [max_depth] 64, [max_nodes] 1_000_000.
    Unicode escapes below 0x80 decode exactly; higher code points decode
    to ['?'] (the writers in this repo never emit them). *)

(** {1 Accessors}

    All return [None] on a shape mismatch, so decoding code reads as a
    chain of [let*]s over [Option]. *)

val mem : string -> t -> t option
(** Field of an {!Obj} (first occurrence). *)

val str : t -> string option
val list_ : t -> t list option
val to_int : t -> int option
val to_int64 : t -> int64 option
(** Accepts both a raw number and the decimal-in-a-string convention
    used for 64-bit seeds. *)

val to_float : t -> float option

(** {1 Writer} *)

val escape_into : Buffer.t -> string -> unit
(** Append the JSON string literal (with quotes) for [s]. *)

val float_lit : float -> string
(** Round-trip-exact literal ([%.17g]); non-finite values become
    [null]. *)

val to_string : t -> string
(** Compact single-line rendering; object fields keep their order. *)
