(** Hand-rolled JSON codec: the one JSON writer and parser behind every
    document the repo writes or reads — [campaign.json] manifests, the
    {!Service} protocol, annealing frontiers and summaries, and the
    telemetry documents (the {!Report}, the {!Flight} recorder and both
    Chrome trace exports). No JSON dependency, per DESIGN §10. It lives
    in [obs] because that is the lowest library that writes JSON.

    The parser is {e strictly bounded}: input size, nesting depth and
    node count are all capped, and every failure is a typed {!error}
    result — it never raises on untrusted bytes, which is what lets the
    evaluation service feed it network input directly. Numbers are kept
    as raw literals ({!Num}) on both sides: a reader converts them at
    the use site, so 64-bit seeds survive without a float round-trip,
    and a writer picks each number's format through {!float_lit}. *)

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

val float_lit : ?fmt:(float -> string, unit, string) format -> float -> string
(** The literal of [v] in [fmt] (default [%.17g], round-trip exact);
    non-finite values become [null]. *)

val to_string : t -> string
(** Compact single-line rendering; object fields keep their order. *)
