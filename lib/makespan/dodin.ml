type outcome = {
  dist : Distribution.Dist.t;
  duplications : int;
}

let evaluate_with ~points ~(dgraph : Sched.Disjunctive.t)
    ~(task_dist : task:int -> proc:int -> Distribution.Dist.t)
    ~(comm_dist : volume:float -> src:int -> dst:int -> Distribution.Dist.t) sched =
  let open Distribution in
  let proc_of = sched.Sched.Schedule.proc_of in
  let task v = task_dist ~task:v ~proc:proc_of.(v) in
  let edge v k =
    let u, volume = (Dag.Graph.preds dgraph.graph v).(k) in
    if dgraph.data.(v).(k) < 0 then Dist.const 0.
    else comm_dist ~volume ~src:proc_of.(u) ~dst:proc_of.(v)
  in
  let network =
    Dag.Series_parallel.of_task_dag dgraph.graph ~task ~edge ~zero:(Dist.const 0.)
  in
  let algebra =
    {
      Dag.Series_parallel.series = (fun a b -> Dist.add ~points a b);
      parallel = (fun a b -> Dist.max_indep ~points a b);
    }
  in
  let result = Dag.Series_parallel.reduce algebra network in
  { dist = result.Dag.Series_parallel.weight; duplications = result.Dag.Series_parallel.duplications }
