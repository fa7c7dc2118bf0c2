(** Top levels, bottom levels, and critical paths of weighted DAGs.

    Weights are supplied as functions so that the same traversals serve
    deterministic weights, mean weights (the paper's slack approximation),
    and heuristic-specific averaged costs (HEFT ranks). Definitions follow
    §IV of the paper:
    - [Tl(i)]: length of the longest path from an entry node to [i],
      {e excluding} [i]'s own weight (0 for entries);
    - [Bl(i)]: length of the longest path from [i] to an exit node,
      {e including} [i]'s weight. *)

type weights = {
  task : Graph.task -> float;  (** execution weight of a task *)
  edge : Graph.task -> Graph.task -> float -> float;
      (** [edge u v volume]: weight of the edge [u → v], whose
          communication volume (as the graph stores it) is [volume] *)
}

val top_levels : Graph.t -> weights -> float array
val bottom_levels : Graph.t -> weights -> float array

val makespan : Graph.t -> weights -> float
(** Longest path through the weighted DAG,
    [max_i (Tl(i) + Bl(i)) = max over entries of Bl]. *)

val slacks : Graph.t -> weights -> float array
(** [s_i = makespan − Bl(i) − Tl(i)] for every task (§IV); tasks on a
    critical path have slack 0. *)

val critical_path : Graph.t -> weights -> Graph.task list
(** One longest entry-to-exit path, in topological order. *)
