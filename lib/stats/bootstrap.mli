(** Bootstrap confidence intervals.

    The paper reports only the across-case standard deviation of its
    Pearson coefficients; bootstrap percentile intervals quantify the
    {e within}-case sampling error of a coefficient estimated from N
    random schedules. Resampling is deterministic given the PRNG. *)

type interval = {
  estimate : float;  (** statistic on the original sample *)
  lo : float;  (** lower percentile bound *)
  hi : float;  (** upper percentile bound *)
}

val pearson_ci :
  rng:Prng.Xoshiro.t ->
  ?replicates:int ->
  ?confidence:float ->
  float array ->
  float array ->
  interval
(** Paired bootstrap of the Pearson coefficient of two equal-length
    samples (pairs are resampled together). *)
