(** Discretized probability distributions and the two operations that
    build makespan distributions: the {e sum} of independent random
    variables (convolution of densities) and their {e maximum} (product of
    CDFs).

    Mirrors the paper's numerical engine: densities sampled on a uniform
    grid (64 points by default, as §V found sufficient), cubic-spline
    resampling between operations, Simpson integration for moments.
    Deterministic quantities are carried exactly as {!const} values rather
    than as degenerate grids.

    Allocation: {!add}, {!max_indep} and {!max_comonotone} build every
    intermediate — sampled operands, the convolution's [n₁+n₂−1]-sample
    grid, its CDF and the spline that resamples it — in per-domain
    arena buffers, and allocate only the [points]-sample result (plus,
    once per operand, its lazily fit spline). *)

type t
(** A distribution: either an exact point mass or a sampled density. *)

val default_points : int
(** Grid resolution used when [?points] is omitted (64, as in the paper). *)

(** {1 Constructors} *)

val const : float -> t
(** [const v] is the Dirac distribution at [v]. *)

val of_samples_pdf : lo:float -> dx:float -> float array -> t
(** [of_samples_pdf ~lo ~dx pdf] wraps density samples taken at
    [lo, lo+dx, …]; values are clamped at 0 and renormalized. Needs at
    least two samples, [dx > 0], and positive total mass. *)

val of_fn : ?points:int -> lo:float -> hi:float -> (float -> float) -> t
(** [of_fn ~lo ~hi f] samples the (possibly unnormalized) density [f] on
    [\[lo, hi\]] and normalizes. Requires [lo < hi]. *)

(** {1 Inspection} *)

val is_const : t -> bool

val support : t -> float * float
(** Smallest interval carrying all the mass (a point for {!const}). *)

val pdf_at : t -> float -> float
(** Density at a point by spline interpolation; 0 outside the support.
    Raises [Invalid_argument] on a {!const} distribution (no density). *)

val cdf_at : t -> float -> float
(** P(X ≤ x); a step function for {!const}. *)

val to_arrays : t -> float array * float array
(** [(xs, pdf)] of the underlying grid; a {!const} yields a narrow
    two-point spike (useful only for plotting). *)

(** {1 Moments and functionals} *)

val mean : t -> float
val variance : t -> float
val std : t -> float

val skewness : t -> float
(** Standardized third central moment ([0] for a point mass or a
    zero-variance grid). Under summation of i.i.d. variables it decays as
    [1/√n] — a sharper CLT-convergence witness than KS. *)

val kurtosis_excess : t -> float
(** Standardized fourth central moment minus 3 (0 for a normal); decays
    as [1/n] under i.i.d. summation. *)

val entropy : t -> float
(** Differential entropy [−∫ f ln f]; [neg_infinity] for {!const}. *)

val quantile : t -> float -> float
(** [quantile d p] with [p ∈ \[0,1\]]. *)

val prob_between : t -> float -> float -> float
(** [prob_between d a b = P(a ≤ X ≤ b)]; 0 when [a > b]. *)

val mean_above : t -> float -> float
(** [mean_above d c = E\[X | X > c\]], the conditional mean of the upper
    tail — the quantity inside the paper's average-lateness metric.
    Returns [c] when the tail mass is (numerically) empty. *)

(** {1 Transformations} *)

val shift : t -> float -> t
(** [shift d c] is the distribution of [X + c]. *)

val scale : t -> float -> t
(** [scale d c] is the distribution of [c·X]; requires [c > 0]. *)

val resample : ?points:int -> t -> t
(** Resample the density onto a fresh uniform grid of [points] samples. *)

val trim : ?eps:float -> ?points:int -> t -> t
(** Drop CDF tails below [eps] (default 1e-9) and resample onto [points]
    samples. The sum/max operations apply the same steps internally, to
    a grid they never publish, so that the grid keeps tracking the region
    that actually carries mass (after many sums the support grows
    linearly but σ only as √k). *)

(** {1 Convolution-chain mode}

    Deep chains of sums converge to a normal; past a configurable depth
    the moment-space fast path replaces the sampled convolution by the
    CLT normal (μ and σ² add exactly), certified per step by the
    Berry–Esseen inequality (see {!Numerics.Convolution.Moment_chain}).
    The switch is process-wide and read once per {!add}; the default
    [Exact] keeps every result — campaign CSVs, served bytes —
    bit-reproducible. *)

type chain_mode =
  | Exact  (** always convolve sampled densities (the default) *)
  | Moment of int
      (** replace a sum by its CLT normal once the combined chain depth
          of the operands reaches the given threshold (≥ 2) *)

val set_chain_mode : chain_mode -> unit
(** Set the process-wide mode. Raises [Invalid_argument] on
    [Moment k] with [k < 2]. *)

val chain_depth : t -> int
(** Convolution-chain depth of this value: 0 for a point mass, 1 for a
    base grid, [d₁ + d₂] after {!add}, reset to 1 by a maximum (a
    synchronization point restarts the CLT argument). *)

val chain_error_bound : t -> float
(** Accumulated Kolmogorov (sup-CDF) distance bound versus the fully
    exact sampled computation: 0 on every exact-path value; each
    moment-space sum adds its Berry–Esseen step bound. Kolmogorov
    distance is non-expansive under convolution and maxima of
    independent variables, so the bound composes additively. *)

val abs_third_central_moment : t -> float
(** [E|X − μ|³], the Berry–Esseen numerator (0 for a point mass).
    Cached on the grid after the first read. *)

(** {1 Algebra of independent random variables} *)

val add : ?points:int -> t -> t -> t
(** [add d1 d2] is the distribution of [X₁ + X₂] for independent inputs:
    densities are convolved at a common resolution by
    {!Numerics.Convolution.auto_into} (direct for small sizes, packed FFT
    or overlap–add beyond), then trimmed and resampled to [points]
    without publishing the intermediate grid. Under [Moment k] (see {!set_chain_mode}) a sum whose
    combined {!chain_depth} reaches [k] is replaced by its CLT normal
    sampled on μ ± 4σ. *)

val max_indep : ?points:int -> t -> t -> t
(** [max_indep d1 d2] is the distribution of [max(X₁, X₂)] under
    independence: [F = F₁·F₂], i.e. density [f₁F₂ + f₂F₁]. A point mass
    created by truncation against a {!const} is spread over the first grid
    cell (documented approximation). *)

val max_comonotone : ?points:int -> t -> t -> t
(** [max_comonotone d1 d2] is the distribution of [max(X₁, X₂)] under
    perfect positive dependence: [F = min(F₁, F₂)]. Since
    [P(max ≤ x) ≤ min(F₁(x), F₂(x))] holds for {e any} dependence, this
    is the stochastically smallest possible maximum — the other end of
    the Kleindorfer-style bracket whose independent end is
    {!max_indep}. Note [max_comonotone d d = d]. *)

val max_list : ?points:int -> t list -> t
(** Fold of {!max_indep}; raises [Invalid_argument] on the empty list. *)
