(** Stochastic local search / simulated annealing over schedules.

    The optimizer walks the schedule neighborhood (one-task reassigns,
    task swaps and occasional priority-perturbation rebuilds by
    {!Sched.List_scheduler.run_ranked}, all probed through one
    incremental {!Makespan.Engine} session), minimizing any
    {!Objective.t}.
    Every accepted incremental objective value is bitwise-equal to a
    fresh [Engine.analyze] of the same schedule — that is the session
    contract this module inherits and the determinism tests enforce.

    Runs are byte-reproducible: all randomness flows from [config.seed]
    through SplitMix64-derived streams, and the Pareto {!Archive} breaks
    ties by insertion order. *)

type cooling =
  | Geometric of float option
      (** per-step factor; [None] picks α with T decayed 1000× over the run *)
  | Adaptive of { target : float; window : int }
      (** geometric base plus a per-[window] correction steering the
          acceptance rate toward [target] *)

type policy =
  | Hill_climb  (** accept strict improvements only *)
  | Metropolis of { t0 : float option; cooling : cooling }
      (** accept worsenings with probability exp(−Δ/T);
          [t0 = None] starts at 5% of the initial objective magnitude *)

type move_mix = { reassign : int; swap : int; priority : int }
(** Relative draw weights of the three move generators. *)

type config = {
  objective : Objective.t;
  steps : int;  (** total probe budget, split across restarts *)
  seed : int64;
  policy : policy;
  restarts : int;  (** extra runs re-seeded from the incumbent best *)
  init : string;  (** registry name of the initial scheduler *)
  mix : move_mix;
  max_cone : int option;  (** forwarded to every [Engine] re-evaluation *)
  delta : float option;  (** A(δ) bound; [None] calibrates from the initial schedule *)
  gamma : float option;  (** R(γ) bound; same convention *)
  axis : Archive.axis;  (** frontier y-coordinate: σ_M or −slack *)
}

val default : config
(** σ_M objective, 400 steps, seed 0, Metropolis with auto geometric
    cooling, no restarts, HEFT init, mix 12:3:1, engine-default cone
    cutoff, calibrated bounds, σ frontier. *)

type stats = {
  steps_done : int;
  probes : int;  (** neighbor evaluations, priority rebuilds included *)
  accepted : int;
  infeasible : int;  (** draws rejected by validation before probing *)
  priority_moves : int;
  restarts_done : int;
  reevals : int;  (** engine re-evaluations issued by this run: one per probe *)
  reeval_incremental : int;
  reeval_full : int;
  full_evals : int;  (** sessions started: the initial one and one per restart *)
}

val incremental_fraction : stats -> float
(** [reeval_incremental / (reevals + full_evals)] — the fraction of all
    evaluation work served by dirty-cone replay; [nan] when idle. *)

type outcome = {
  best : Sched.Schedule.t;
  best_eval : Makespan.Engine.evaluation;
  best_objective : float;
  init_objective : float;
  bounds : Objective.ctx;  (** the δ/γ actually used *)
  frontier : Archive.t;
  stats : stats;
  interrupted : bool;  (** [should_stop] fired mid-run *)
}

val run :
  ?should_stop:(unit -> bool) ->
  engine:Makespan.Engine.t ->
  init:Sched.Schedule.t ->
  config ->
  outcome
(** Optimize [config.objective] starting from [init] (which must belong
    to [engine]'s graph). Cuts the {!Fault} point ["search.step"] once
    per step; emits [search.*] counters and a progress bar through
    {!Obs} when enabled. [should_stop] is polled every step — on [true]
    the partial result is returned with [interrupted = true]. *)

(** {1 Registry specs}

    [anneal:key=value;...] strings resolve through {!Sched.Registry.parse}
    (the extension is registered when this library is linked), so
    annealed schedulers flow into campaigns, [repro eval] and the
    service. Keys: [obj], [steps], [seed], [restarts], [policy]
    ([hill]|[metropolis]|[adaptive]), [t0], [alpha], [target], [window],
    [init], [rank]/[select]/[insert]/[tie] (composition init), [mix]
    ([R:S:P]), [max-cone], [delta], [gamma], [axis], [ul] (the surrogate
    uncertainty level of the model the entry evaluates under, default
    1.1). Separators [';'] or [',']. *)

val spec_prefix : string
(** ["anneal:"]. *)

val parse_spec : string -> (config * float, string) result
(** The configuration and surrogate UL encoded in an [anneal:...] spec. *)

val canonical_spec : config -> ul:float -> string
(** Canonical spec string: [parse_spec (canonical_spec c ~ul)] returns
    an equal configuration, and canonicalization is idempotent. This is
    the name [repro optimize] reports so its exact run can be replayed
    by name anywhere a scheduler name is accepted. *)
