(** The paper's uncertainty model (§II/§V), generalized: every
    deterministic duration [w] (a minimum value) becomes the random
    variable [w · (1 + (UL − 1) · X)] supported on [\[w, w·UL\]], where
    [X ∈ \[0,1\]] follows a configurable {!shape}.

    The paper uses [Beta (α = 2, β = 5)] (right-skewed, nonzero mode) —
    the default here. Its future work asks for “non-standard probability
    distributions (with some oscillations)”: the {!Oscillating} shape is
    exactly that (a tri-modal Beta mixture), with {!Uniform} and
    {!Triangular} as further standard alternatives.

    The module offers the views every evaluation method needs: full grid
    distributions (classical/Dodin), exact first two moments (Spelde,
    slack), direct sampling (Monte Carlo), and inverse-CDF sampling
    (antithetic Monte Carlo). *)

type shape =
  | Beta of { alpha : float; beta : float }
      (** requires α > 1 and β > 1 (finite, unimodal density) *)
  | Uniform
  | Triangular of { mode : float }  (** mode position in [\[0,1\]] *)
  | Oscillating
      (** tri-modal Beta mixture on [\[0,1\]] — the Fig. 7 “special”
          distribution reshaped as a perturbation *)

type t = private {
  ul : float;  (** uncertainty level, >= 1; 1 = deterministic *)
  shape : shape;
  points : int;  (** grid resolution for distribution views *)
  task_ul : (int -> float) option;
      (** per-task UL override (variable-UL extension, §VIII future work) *)
}

val make : ?alpha:float -> ?beta:float -> ?points:int -> ul:float -> unit -> t
(** The paper's model: Beta shape with α = 2, β = 5 by default,
    points = {!Distribution.Dist.default_points}. *)

val make_shaped : ?points:int -> shape:shape -> ul:float -> unit -> t
(** Any {!shape}; parameters validated. *)

val make_variable :
  ?alpha:float ->
  ?beta:float ->
  ?points:int ->
  base_ul:float ->
  task_ul:(int -> float) ->
  unit ->
  t
(** Variable-UL model (the paper's first future-work item): task [i]'s
    computation time uses [max 1 (task_ul i)] as its uncertainty level,
    while communications keep [base_ul]. With a constant UL the standard
    deviation of every duration is proportional to its mean — which is
    exactly what makes the makespan a good robustness proxy in the paper;
    variable UL breaks that equivalence. [task_ul] must be a pure
    function (it is re-evaluated freely, including across domains). *)

val deterministic : t
(** UL = 1: every duration stays a point mass. *)

(** {1 The unit perturbation X} *)

val shape_mean : shape -> float
(** E\[X\] (closed form for every shape). *)

val shape_std : shape -> float
(** √Var(X) (closed form). *)

val shape_pdf : shape -> float -> float
(** Density of X at a point of [\[0,1\]]. *)

val shape_quantile : shape -> float -> float
(** Inverse CDF of X on [\[0,1\]]. *)

(** {1 Views of a perturbed weight [w]} *)

val dist : t -> float -> Distribution.Dist.t
(** Full distribution of the perturbed weight ([Dist.const w] if [w = 0]
    or UL = 1). *)

val mean : t -> float -> float
(** Exact mean [w · (1 + (UL−1) · E\[X\])]. *)

val std : t -> float -> float
(** Exact standard deviation [w · (UL−1) · √Var(X)]. *)

val sample : t -> Prng.Xoshiro.t -> float -> float
(** One realization of the perturbed weight. *)

val sample_quantile : t -> u:float -> float -> float
(** [sample_quantile ~u w] maps a uniform variate [u ∈ \[0,1\]] through
    the perturbation's quantile function — inverse-CDF sampling, the
    basis of the antithetic-variates Monte-Carlo mode ([u] and [1−u]
    yield negatively correlated realizations). *)

(** {1 Durations of a scheduled application} *)

val task_dist : t -> Platform.t -> task:int -> proc:int -> Distribution.Dist.t
(** Distribution of a task's computation time on a processor. *)

val task_mean : t -> Platform.t -> task:int -> proc:int -> float
val task_std : t -> Platform.t -> task:int -> proc:int -> float
val task_sample : t -> Prng.Xoshiro.t -> Platform.t -> task:int -> proc:int -> float

val task_sample_quantile : t -> u:float -> Platform.t -> task:int -> proc:int -> float
(** Inverse-CDF view of a task duration (per-task UL honoured). *)

val comm_dist :
  t -> Platform.t -> volume:float -> src:int -> dst:int -> Distribution.Dist.t
(** Distribution of the communication time for [volume] data elements
    between the processors hosting the two tasks ([const 0] if they are
    co-located or the deterministic time is 0). *)

val comm_mean : t -> Platform.t -> volume:float -> src:int -> dst:int -> float
val comm_std : t -> Platform.t -> volume:float -> src:int -> dst:int -> float

val comm_sample :
  t -> Prng.Xoshiro.t -> Platform.t -> volume:float -> src:int -> dst:int -> float

val comm_sample_quantile :
  t -> u:float -> Platform.t -> volume:float -> src:int -> dst:int -> float
(** Inverse-CDF view of a communication duration. *)
