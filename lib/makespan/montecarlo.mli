(** Monte-Carlo evaluation of the makespan distribution — the ground
    truth the paper validates its analytic evaluations against (100 000
    realizations in §V).

    Every realization samples all task and communication durations from
    the uncertainty model and replays the eager execution. Realizations
    are cut into fixed chunks, each with its own split PRNG stream, so
    the result is independent of the number of domains used. The chunks
    run on [?pool], or on the shared pool (see {!Parallel.Pool.run}). *)

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
    every duration, the textbook antithetic condition). [count] is
    rounded up to even in that mode. *)

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
