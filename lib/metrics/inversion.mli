(** The paper's plotting orientation (§VI): three metrics are flipped so
    that {e minimizing} is always better — the slack (subtracted from the
    maximum observed slack of the case) and the two probabilistic metrics
    (subtracted from 1). The other five already improve downwards. *)

val apply : max_slack:float -> float array -> float array
(** [apply ~max_slack values] re-orients one schedule's metric vector.
    [max_slack] must be the maximum {e avg-slack} over all schedules of
    the case, as the paper subtracts from the observed maximum. *)

val apply_all : float array array -> float array array
(** Re-orient a whole case (rows = schedules, in {!Robustness.labels}
    order), deriving [max_slack] from the data. Rows must be non-empty. *)
