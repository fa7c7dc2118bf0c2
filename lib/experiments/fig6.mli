(** Fig. 6 — mean and standard deviation of the Pearson coefficients
    across the 24 experiments with ≤100 tasks.

    The paper's headline matrix: the robustness cluster (σ_M, entropy,
    lateness, A) correlates near +1 with tiny dispersion; E(M) correlates
    ≈ 0.75 with the cluster; the slack anti-correlates with everything. *)

type t = {
  results : Runner.result list;  (** one per case, kept for {!Intext} *)
  matrices : float array array list;
  mean : float array array;
  std : float array array;
}

val run : ?pool:Parallel.Pool.t -> ?scale:Scale.t -> ?cases:Case.t list -> unit -> t
(** Default cases: {!Case.paper_cases}. *)

val render : t -> string
(** The paper's combined layout: upper triangle = mean, lower = std. *)
