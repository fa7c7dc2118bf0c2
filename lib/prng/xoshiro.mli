(** xoshiro256++ pseudo-random generator (Blackman & Vigna).

    The workhorse generator of the library: 256-bit state, period
    [2^256 − 1], excellent statistical quality, and a [jump] function for
    producing widely separated parallel streams. Seeded from {!Splitmix}. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] seeds the four state words from a SplitMix64 stream, as
    recommended by the xoshiro authors. *)

val of_splitmix : Splitmix.t -> t
(** [of_splitmix sm] draws the four state words from [sm] (advancing it). *)

val next : t -> int64
(** [next t] returns the next 64 random bits. *)

val next_float : t -> float
(** [next_float t] is uniform in [\[0, 1)] (top 53 bits). *)

val next_float_pos : t -> float
(** [next_float_pos t] is uniform in [(0, 1)] — never exactly zero, which
    makes it safe as an argument to [log]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive;
    rejection sampling removes modulo bias. *)

val jump : t -> unit
(** [jump t] advances [t] by 2^128 steps; calling it [k] times on copies of
    one seed state yields [k] non-overlapping substreams. *)

val split : t -> t
(** [split t] returns a copy of [t] jumped one substream ahead, and jumps
    [t] as well, so parent and child never overlap. *)
