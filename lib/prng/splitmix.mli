(** SplitMix64 pseudo-random generator.

    A tiny, fast, well-distributed 64-bit generator whose principal use here
    is seeding and {e splitting}: each call to {!val:split} yields an
    independent child stream, which lets every work item of a parallel sweep
    own a deterministic stream regardless of domain count. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a generator from an arbitrary 64-bit seed. *)

val next : t -> int64
(** [next t] advances the state and returns 64 uniformly distributed bits. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose subsequent
    outputs are statistically independent of [t]'s. *)

val next_float : t -> float
(** [next_float t] is uniform in [\[0, 1)], using the top 53 bits. *)
