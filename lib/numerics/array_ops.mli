(** Small helpers over [float array] shared by the numerics modules. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n >= 2] evenly spaced points from [a] to [b]
    inclusive. *)

val sum : float array -> float
(** Kahan-compensated sum. *)

val next_pow2 : int -> int
(** [next_pow2 n] is the smallest power of two [>= max 1 n]. *)
