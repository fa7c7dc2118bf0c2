(** Figs. 3, 4, 5 — per-case correlation matrices over thousands of
    random schedules, with the three heuristics' metric values.

    Fig. 3: Cholesky, 10 tasks, 3 processors, UL = 1.01.
    Fig. 4: random graph, 30 tasks, 8 processors, UL = 1.01.
    Fig. 5: Gaussian elimination, ≈103 tasks, 16 processors, UL = 1.1
    (2 000 random schedules at paper scale). *)

type spec = {
  fig : string;
  case : Case.t;
}

val fig3 : spec
val fig4 : spec
val fig5 : spec

type t = {
  spec : spec;
  result : Runner.result;
  matrix : float array array;  (** Pearson over inverted random-schedule metrics *)
}

val run : ?pool:Parallel.Pool.t -> ?scale:Scale.t -> spec -> t

val render : t -> string
(** The Pearson matrix (paper's upper triangles) plus one row per
    heuristic with its raw metric vector and, per metric, its rank among
    the random schedules (paper shape: heuristics rank at or near the
    best makespan and makespan-std). *)
