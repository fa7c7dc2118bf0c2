type graph_mode =
  [ `Disjunctive
  | `Precedence ]

type summary = {
  per_task : float array;
  total : float;
  mean : float;
  std : float;
  makespan : float;
}

let summarize per_task makespan =
  let n = float_of_int (Array.length per_task) in
  let total = Array.fold_left ( +. ) 0. per_task in
  let mean = total /. n in
  let var =
    Array.fold_left
      (fun acc s ->
        let d = s -. mean in
        acc +. (d *. d))
      0. per_task
    /. n
  in
  { per_task; total; mean; std = sqrt var; makespan }

let of_weighted_graph g w =
  summarize (Dag.Levels.slacks g w) (Dag.Levels.makespan g w)

let compute ?(mode = `Disjunctive) sched platform model =
  let w = Disjunctive.weights sched platform model in
  match mode with
  | `Disjunctive -> of_weighted_graph (Disjunctive.graph_of sched).Disjunctive.graph w
  | `Precedence ->
    (* §IV read literally: levels on the precedence DAG, but M is the
       schedule's actual (mean-duration, eager) makespan, so idle time
       inflates every task's slack *)
    let graph = sched.Schedule.graph in
    let tl = Dag.Levels.top_levels graph w in
    let bl = Dag.Levels.bottom_levels graph w in
    let m = (Simulator.mean_times sched platform model).Simulator.makespan in
    let per_task =
      Array.init (Dag.Graph.n_tasks graph) (fun i ->
          Float.max 0. (m -. bl.(i) -. tl.(i)))
    in
    summarize per_task m
