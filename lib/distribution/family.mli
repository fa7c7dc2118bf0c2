(** Analytic distribution families, discretized onto {!Dist.t} grids.

    Includes the paper's workhorse — the right-skewed Beta(2, 5)
    uncertainty perturbation of §V — plus the multi-modal “special”
    distribution of Fig. 7 used to probe CLT convergence. *)

val uniform : ?points:int -> lo:float -> hi:float -> unit -> Dist.t
(** Uniform density on [\[lo, hi\]], [lo < hi]. *)

val beta : ?points:int -> alpha:float -> beta:float -> unit -> Dist.t
(** Beta(α, β) on [\[0, 1\]]. Requires [α > 1] and [β > 1] so the density
    is finite at the boundary (the paper selects α = 2, β = 5). *)

val beta_scaled :
  ?points:int -> alpha:float -> beta:float -> lo:float -> hi:float -> unit -> Dist.t
(** Beta(α, β) affinely mapped onto [\[lo, hi\]]. *)

val normal : ?points:int -> mean:float -> std:float -> unit -> Dist.t
(** Normal(mean, std) truncated at ±8σ; [std = 0] yields a point mass. *)

val uncertain :
  ?points:int -> ?alpha:float -> ?beta:float -> ul:float -> float -> Dist.t
(** [uncertain ~ul w] is the paper's stochastic duration model: the
    deterministic weight [w] (its minimum value) perturbed to
    [w · (1 + (ul − 1) · Beta(α, β))], supported on [\[w, w·ul\]].
    Defaults α = 2, β = 5 (§V). [ul = 1] gives [Dist.const w].
    Requires [ul >= 1] and [w > 0] (or [w = 0], giving [const 0]). *)

val special : ?points:int -> unit -> Dist.t
(** The Fig. 7 “special” distribution: a concatenation of scaled Beta
    humps giving a strongly multi-modal density on [\[0, 40\]]. *)

val mixture : ?points:int -> (float * Dist.t) list -> Dist.t
(** [mixture weighted] is the density [Σ wᵢ·fᵢ] over the union of the
    supports; weights must be positive (they are normalized). Components
    must be non-constant. *)
