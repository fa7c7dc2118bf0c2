(** Robusched — robustness metrics for DAG schedules on heterogeneous
    systems.

    Umbrella API over the substrate libraries, mirroring the pipeline of
    Canon & Jeannot, “A Comparison of Robustness Metrics for Scheduling
    DAGs on Heterogeneous Systems” (HeteroPar'07):

    {[
      let open Core in
      let graph = Workload.cholesky ~tiles:3 () in
      let rng = Rng.create 42L in
      let platform = Platform.Gen.uniform_minval ~rng
          ~n_tasks:(Graph.n_tasks graph) ~n_procs:3 () in
      let model = Uncertainty.make ~ul:1.1 () in
      let sched = Heuristics.heft graph platform in
      let analysis = analyze sched platform model in
      ...
    ]} *)

(** {1 Substrate modules, re-exported} *)

module Rng = Prng.Xoshiro
module Sampler = Prng.Sampler
module Graph = Dag.Graph
module Levels = Dag.Levels
module Series_parallel = Dag.Series_parallel
module Platform = Platform
module Dist = Distribution.Dist
module Family = Distribution.Family
module Empirical = Distribution.Empirical
module Normal_pair = Distribution.Normal_pair
module Uncertainty = Workloads.Stochastify
module Schedule = Sched.Schedule
module Simulator = Sched.Simulator
module Slack = Sched.Slack
module Disjunctive = Sched.Disjunctive
module Random_sched = Sched.Random_sched
module Engine = Makespan.Engine
module Montecarlo = Makespan.Montecarlo
module Makespan_bounds = Makespan.Bounds
module Robustness = Metrics.Robustness
module Inversion = Metrics.Inversion
module Correlation = Stats.Correlation
module Distance = Stats.Distance
module Bootstrap = Stats.Bootstrap
module Experiments = Experiments
module Obs = Obs

(** {1 Workload generators} *)

module Workload = struct
  let random_dag = Workloads.Random_dag.generate
  let cholesky = Workloads.Cholesky.generate
  let gauss_elim = Workloads.Gauss_elim.generate
  let chain = Workloads.Classic.chain
  let join = Workloads.Classic.join
  let fork_join = Workloads.Classic.fork_join
  let in_tree = Workloads.Classic.in_tree
  let out_tree = Workloads.Classic.out_tree
  let diamond = Workloads.Classic.diamond
end

(** {1 Scheduling heuristics} *)

module Heuristics = struct
  let heft g p = Sched.Heft.schedule g p

  (** HEFT with a chosen rank-collapsing policy (`Mean | `Best | `Worst). *)
  let heft_with_rank = Sched.Heft.schedule
  let bil = Sched.Bil.schedule
  let bmct = Sched.Bmct.schedule
  let cpop = Sched.Cpop.schedule
  let dls = Sched.Dls.schedule
  let peft = Sched.Peft.schedule
  let heft_la = Sched.Heft_la.schedule

  (** Stochastic EFT/local-fastest cross-over; [?seed] drives the
      per-decision coin (default {!Sched.Iheft.default_seed}). *)
  let iheft = Sched.Iheft.schedule

  (** The uncertainty-aware list heuristic of the paper's future work
      (§VIII): ranking and placement by [mean + κ·std] durations. *)
  let robust_heft = Sched.Robust_heft.schedule

  (** The paper's three, by display name. *)
  let all = Experiments.Runner.heuristics

  (** Every registry entry, by display name — the same table behind
      [repro sched --list], {!Registry.parse} accepting names, aliases
      and [rank=...,select=...] compositions. *)
  let registry = List.map Experiments.Runner.scheduler (Sched.Registry.names ())
end

module Registry = Sched.Registry
module List_scheduler = Sched.List_scheduler
module Sched_components = Sched.Components

module Gantt = Sched.Gantt

(** {1 One-call pipeline} *)

type analysis = {
  schedule : Schedule.t;
  makespan_dist : Dist.t;
  slack : Slack.summary;
  metrics : Robustness.t;
}

(** [analyze sched platform model] evaluates a schedule end to end
    through a one-shot {!Engine}: makespan distribution (classical method
    by default), slack summary, and the eight §IV metrics. For sweeps
    over many schedules of one case, create the engine once with
    {!Engine.create} and call {!analyze_with} instead. *)
let analyze_with ?delta ?gamma ?backend engine schedule =
  let { Makespan.Engine.makespan = makespan_dist; slack } =
    Makespan.Engine.analyze ?backend engine schedule
  in
  let metrics = Robustness.compute ?delta ?gamma ~makespan_dist ~slack () in
  { schedule; makespan_dist; slack; metrics }

let analyze ?delta ?gamma ?backend schedule platform model =
  let engine =
    Makespan.Engine.create ~graph:schedule.Sched.Schedule.graph ~platform ~model
  in
  analyze_with ?delta ?gamma ?backend engine schedule

(** [validate_against_montecarlo ~rng ~count analysis platform model] is
    the (KS, CM) distance between the analytic makespan distribution and
    a fresh Monte-Carlo run — §V's accuracy check. *)
let validate_against_montecarlo ~rng ~count analysis platform model =
  let emp = Makespan.Montecarlo.run ~rng ~count analysis.schedule platform model in
  ( Stats.Distance.ks (Analytic analysis.makespan_dist) (Sampled emp),
    Stats.Distance.cm_area (Analytic analysis.makespan_dist) (Sampled emp) )
