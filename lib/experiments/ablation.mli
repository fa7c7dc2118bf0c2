(** Extension experiments beyond the paper's figures, probing its two
    §VIII conjectures:

    1. {e Variable UL breaks the makespan–robustness link.} With a
       constant UL, σ of every duration is proportional to its mean, so
       E(M) predicts σ_M well (Fig. 6's +0.767). Drawing per-task ULs
       from a wide range should weaken that correlation while leaving the
       dispersion-metric cluster intact.

    2. {e Ranking by duration dispersion can buy robustness.} Under
       variable UL, RobustHEFT (mean + κ·std costs) should reduce σ_M
       relative to HEFT at a small expected-makespan cost. *)

type correlation_shift = {
  fixed_mk_vs_std : float;  (** Pearson(E(M), σ_M), constant UL *)
  variable_mk_vs_std : float;  (** same, variable UL *)
  fixed_cluster : float;  (** Pearson(σ_M, lateness), constant UL *)
  variable_cluster : float;  (** same, variable UL *)
}

val correlation_under_variable_ul :
  ?pool:Parallel.Pool.t -> ?scale:Scale.t -> ?seed:int64 -> unit -> correlation_shift
(** Random 30-task case; constant UL 1.2 vs per-task UL alternating
    between 1.02 and 1.9 (same mean level of uncertainty). *)

val render_correlation : correlation_shift -> string

type shape_row = {
  shape_name : string;
  mk_vs_std : float;  (** Pearson(E(M), σ_M) *)
  cluster : float;  (** Pearson(σ_M, lateness) *)
}

val cluster_under_shapes :
  ?pool:Parallel.Pool.t -> ?scale:Scale.t -> ?seed:int64 -> unit -> shape_row list
(** Third §VIII probe (“non-standard probability distributions (with some
    oscillations)”): rerun one case's random-schedule sweep with the
    perturbation following each available shape. The CLT argument
    predicts the dispersion-metric cluster survives any duration shape —
    which is what this measures. *)

val render_shapes : shape_row list -> string

type pareto = {
  population : int;  (** schedules examined *)
  front_size : int;  (** Pareto-optimal in (E(M), σ_M) minimization *)
  overall_r : float;  (** Pearson(E(M), σ_M) over all schedules *)
  elite_r : float;  (** same over the best decile by E(M) — “near the front” *)
  front_r : float;  (** same restricted to the front ([nan] if < 3 points) *)
  front : (float * float) list;  (** the (E(M), σ_M) front, by makespan *)
}

val pareto_front_study :
  ?pool:Parallel.Pool.t -> ?scale:Scale.t -> ?seed:int64 -> unit -> pareto
(** Second §VIII probe (“correlation in the extreme cases (near the
    Pareto front)”): among random schedules, the heuristics and a
    RobustHEFT κ-sweep, extract the (E(M), σ_M) Pareto front under
    variable UL. The paper's global correlations are driven by the bulk
    of mediocre schedules; the front is where its conjectured trade-off
    lives — along it, reducing E(M) necessarily increases σ_M, so a
    genuine choice exists among the best schedules even while the best
    decile may still correlate positively. *)

val render_pareto : pareto -> string

type tradeoff_point = {
  kappa : float;
  expected_makespan : float;
  makespan_std : float;
}

val robust_heft_tradeoff :
  ?seed:int64 -> ?kappas:float list -> unit -> tradeoff_point list
(** HEFT is the κ = 0 row; larger κ should trade E(M) for σ_M under the
    variable-UL model. *)

val render_tradeoff : tradeoff_point list -> string
