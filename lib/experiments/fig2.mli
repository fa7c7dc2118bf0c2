(** Fig. 2 — visual comparison of the calculated makespan distribution
    against the experimental (Monte-Carlo) one on a case where the
    independence assumption is mediocre.

    The paper's point: even at KS ≈ 0.17 the calculated density tracks
    the experimental histogram closely. *)

type t = {
  ks : float;
  cm : float;
  xs : float array;
  calculated : float array;  (** analytic density *)
  experimental : float array;  (** Monte-Carlo histogram density *)
}

val run : ?pool:Parallel.Pool.t -> ?scale:Scale.t -> ?seed:int64 -> unit -> t
(** A 100-task random graph at UL = 1.1 (the regime Fig. 1 shows to be
    imprecise), one random schedule. *)

val render : t -> string
(** Table of (makespan, calculated, experimental) samples plus the KS/CM
    header. *)
