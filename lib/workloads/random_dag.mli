(** The paper's random DAG generator (§V).

    Nodes are created one at a time; each new node connects to previously
    created ones (“the ones at higher level”), with an out-degree drawn
    uniformly between 1 and the number of available nodes. Edge
    communication volumes are Gamma-distributed with coefficient of
    variation 0.5, scaled so the expected communication-to-computation ratio
    matches [ccr] (given the platform's mean computation time and mean
    transfer rate). *)

val generate :
  rng:Prng.Xoshiro.t ->
  n:int ->
  ?ccr:float ->
  ?mu_task:float ->
  ?mean_tau:float ->
  ?max_out_degree:int ->
  unit ->
  Dag.Graph.t
(** [generate ~rng ~n ()] builds a connected random DAG of [n] tasks.

    - [ccr] (default 0.1): target ratio between the mean communication
      time ([volume · mean_tau]) and the mean computation time [mu_task];
    - [mu_task] (default 20.0): the mean computation cost the volumes are
      scaled against (§V's μ_task);
    - [mean_tau] (default 1.0): mean per-element transfer time of the
      intended platform;
    - [max_out_degree]: optional cap on each node's out-degree (the
      paper's unbounded rule makes large graphs quadratically dense). *)
