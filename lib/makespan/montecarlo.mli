(** Monte-Carlo evaluation of the makespan distribution — the ground
    truth the paper validates its analytic evaluations against (100 000
    realizations in §V).

    Every realization samples all task and communication durations from
    the uncertainty model and replays the eager execution. Realizations
    are cut into fixed chunks, each with its own {!Prng.Xoshiro.split}
    stream taken from [rng] in chunk order, so the result is independent
    of the number of domains used. The chunks run on [?pool], or on the
    shared pool (see {!Parallel.Pool.run}).

    The schedule's {!Sched.Disjunctive} graph is built once. Each chunk owns
    one task-duration array, one edge-duration array and the start and
    finish arrays, and reuses them for every realization it computes,
    which is one {!Sched.Simulator.replay}. A realization draws task
    durations for tasks [0 … n−1], then edge durations in
    {!Dag.Graph.edges} order; the bits of every result rest on that
    order. *)

val realizations :
  ?pool:Parallel.Pool.t ->
  ?chunk_size:int ->
  ?antithetic:bool ->
  rng:Prng.Xoshiro.t ->
  count:int ->
  Sched.Schedule.t ->
  Platform.t ->
  Workloads.Stochastify.t ->
  float array
(** [count] sampled makespans ([rng] is advanced).

    With [~antithetic:true] realizations are generated in negatively
    correlated pairs through inverse-CDF sampling ([u] and [1 − u] per
    duration): each marginal is exact, but the variance of the resulting
    {e mean} estimate drops substantially (the makespan is monotone in
    every duration, the textbook antithetic condition). [count] and
    [chunk_size] are rounded up to even in that mode. A pair draws every
    [u] (tasks, then edges, in the plain order) before filling the
    durations from [u] and then from [1 − u]. *)

val run :
  ?pool:Parallel.Pool.t ->
  ?chunk_size:int ->
  ?antithetic:bool ->
  rng:Prng.Xoshiro.t ->
  count:int ->
  Sched.Schedule.t ->
  Platform.t ->
  Workloads.Stochastify.t ->
  Distribution.Empirical.t
(** The empirical makespan distribution over [count] realizations. *)
