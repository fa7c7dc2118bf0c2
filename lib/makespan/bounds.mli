(** Kleindorfer-style stochastic bounds on the makespan distribution
    (Kleindorfer 1971, as revisited by Ludwig, Möhring & Stork 2001).

    The classical forward sweep replaces every maximum of {e dependent}
    completion times by the independent one ([F = F₁F₂]); since
    [P(max ≤ x) ≥ ΠFᵢ(x)] for the positively associated completion times
    of a PERT network (Esary–Proschan–Walkup), that evaluation is a
    stochastic {e upper} bound on the makespan. Replacing each maximum by
    the comonotone one ([F = min Fᵢ], valid for any dependence) gives the
    stochastic {e lower} bound. The true distribution — and its
    Monte-Carlo estimate — lies between the two in the usual stochastic
    order. *)

type t = {
  lower : Distribution.Dist.t;  (** comonotone maxima: M ≽ lower *)
  upper : Distribution.Dist.t;  (** independent maxima (= the [Classical] backend): M ≼ upper *)
}

val run : Sched.Schedule.t -> Platform.t -> Workloads.Stochastify.t -> t

val enclose : t -> Distribution.Dist.t -> bool
(** [enclose b d] checks the CDF bracketing
    [F_upper(x) ≤ F_d(x) ≤ F_lower(x)] on a grid, with a small numerical
    whisker — the property Monte-Carlo estimates should satisfy. *)
