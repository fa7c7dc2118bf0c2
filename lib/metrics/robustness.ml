type t = {
  expected_makespan : float;
  makespan_std : float;
  makespan_entropy : float;
  avg_slack : float;
  slack_std : float;
  avg_lateness : float;
  prob_absolute : float;
  prob_relative : float;
}

let labels =
  [| "makespan"; "mk-std"; "mk-entropy"; "avg-slack"; "slack-std"; "lateness";
     "abs-prob"; "rel-prob" |]

let n_metrics = Array.length labels

let compute ?(delta = 0.1) ?(gamma = 1.0003) ~makespan_dist ~slack () =
  if delta < 0. then invalid_arg "Robustness.compute: delta must be >= 0";
  if gamma < 1. then invalid_arg "Robustness.compute: gamma must be >= 1";
  let open Distribution in
  let mu = Dist.mean makespan_dist in
  let late_mean = Dist.mean_above makespan_dist mu in
  {
    expected_makespan = mu;
    makespan_std = Dist.std makespan_dist;
    makespan_entropy = Dist.entropy makespan_dist;
    avg_slack = slack.Sched.Slack.total;
    slack_std = slack.Sched.Slack.std;
    avg_lateness = late_mean -. mu;
    prob_absolute = Dist.prob_between makespan_dist (mu -. delta) (mu +. delta);
    prob_relative = Dist.prob_between makespan_dist (mu /. gamma) (gamma *. mu);
  }

let of_engine ?delta ?gamma ?backend ?slack_mode engine sched =
  let { Makespan.Engine.makespan; slack } =
    Makespan.Engine.analyze ?backend ?slack_mode engine sched
  in
  compute ?delta ?gamma ~makespan_dist:makespan ~slack ()

let to_array m =
  [| m.expected_makespan; m.makespan_std; m.makespan_entropy; m.avg_slack; m.slack_std;
     m.avg_lateness; m.prob_absolute; m.prob_relative |]

let calibrate_bounds pilot =
  if pilot = [] then invalid_arg "Robustness.calibrate_bounds: empty pilot";
  let median xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  (* 0.6745 = Φ⁻¹(0.75): centres A and R at 1/2 for a normal makespan *)
  let z = 0.6745 in
  let sigmas = List.map snd pilot in
  let rel = List.map (fun (mu, sigma) -> if mu > 0. then sigma /. mu else 0.) pilot in
  let delta = Float.max 1e-9 (z *. median sigmas) in
  let gamma = Float.max (1. +. 1e-12) (1. +. (z *. median rel)) in
  (delta, gamma)
