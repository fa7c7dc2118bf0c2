type t =
  | Expected_makespan
  | Makespan_std
  | Makespan_entropy
  | Avg_slack
  | Slack_std
  | Avg_lateness
  | Prob_absolute
  | Prob_relative
  | Blend of float

type ctx = { delta : float; gamma : float }

let name = function
  | Expected_makespan -> "makespan"
  | Makespan_std -> "sigma_m"
  | Makespan_entropy -> "entropy"
  | Avg_slack -> "slack"
  | Slack_std -> "slack_std"
  | Avg_lateness -> "lateness"
  | Prob_absolute -> "a_delta"
  | Prob_relative -> "r_gamma"
  | Blend lambda -> Printf.sprintf "blend:%.17g" lambda

let parse s =
  match String.lowercase_ascii s with
  | "makespan" | "em" | "e(m)" -> Ok Expected_makespan
  | "sigma_m" | "std" | "mk-std" -> Ok Makespan_std
  | "entropy" | "mk-entropy" -> Ok Makespan_entropy
  | "slack" | "avg-slack" -> Ok Avg_slack
  | "slack_std" | "slack-std" -> Ok Slack_std
  | "lateness" -> Ok Avg_lateness
  | "a_delta" | "abs_prob" | "abs-prob" -> Ok Prob_absolute
  | "r_gamma" | "rel_prob" | "rel-prob" -> Ok Prob_relative
  | s when String.length s > 6 && String.sub s 0 6 = "blend:" -> (
    let arg = String.sub s 6 (String.length s - 6) in
    match float_of_string_opt arg with
    | Some lambda when lambda >= 0. -> Ok (Blend lambda)
    | _ -> Error (Printf.sprintf "invalid blend weight %S (blend:LAMBDA, LAMBDA >= 0)" arg))
  | _ ->
    Error
      (Printf.sprintf
         "unknown objective %S \
          (makespan|sigma_m|entropy|slack|slack_std|lateness|a_delta|r_gamma|blend:LAMBDA)"
         s)

let value t ctx (ev : Makespan.Engine.evaluation) =
  let open Distribution in
  let m = ev.Makespan.Engine.makespan in
  let slack = ev.Makespan.Engine.slack in
  match t with
  | Expected_makespan -> Dist.mean m
  | Makespan_std -> Dist.std m
  | Makespan_entropy -> Dist.entropy m
  | Avg_slack -> -.slack.Sched.Slack.total
  | Slack_std -> slack.Sched.Slack.std
  | Avg_lateness ->
    let mean = Dist.mean m in
    Dist.mean_above m mean -. mean
  | Prob_absolute ->
    let mean = Dist.mean m in
    -.Dist.prob_between m (mean -. ctx.delta) (mean +. ctx.delta)
  | Prob_relative ->
    let mean = Dist.mean m in
    -.Dist.prob_between m (mean /. ctx.gamma) (mean *. ctx.gamma)
  | Blend lambda -> Dist.mean m +. (lambda *. Dist.std m)
