(** Fig. 1 — average precision of the independence-assumption makespan
    distribution versus graph size (UL = 1.1).

    For each size, a few random graphs × random schedules are evaluated
    with the classical method and compared (KS and CM distances) to a
    large Monte-Carlo run. The paper's shape: both distances grow with
    graph size — the independence assumption degrades. *)

type point = {
  n_tasks : int;
  ks : float;  (** mean Kolmogorov–Smirnov distance *)
  cm : float;  (** mean Cramér–von-Mises area distance *)
}

type t = point list

val run : ?pool:Parallel.Pool.t -> ?scale:Scale.t -> ?seed:int64 -> unit -> t
(** Sizes 10/30/100 (+1000 at full scale); paper-scale Monte Carlo is
    100 000 realizations per schedule. *)

val render : t -> string
