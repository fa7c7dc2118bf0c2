type times = {
  start : float array;
  finish : float array;
  makespan : float;
}

let replay dg ~task_dur ~comm_dur ~start ~finish =
  let graph = dg.Disjunctive.graph in
  let order = Dag.Graph.topo_order graph in
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    let preds = Dag.Graph.preds graph v and data = dg.Disjunctive.data.(v) in
    let ready = ref 0. in
    for k = 0 to Array.length preds - 1 do
      let p, _ = preds.(k) in
      let e = data.(k) in
      let arrival = if e < 0 then finish.(p) else finish.(p) +. comm_dur.(e) in
      if arrival > !ready then ready := arrival
    done;
    start.(v) <- !ready;
    let d = task_dur.(v) in
    if d < 0. then invalid_arg "Simulator.replay: negative duration";
    finish.(v) <- !ready +. d
  done;
  let makespan = ref 0. in
  for v = 0 to Array.length finish - 1 do
    makespan := Float.max !makespan finish.(v)
  done;
  !makespan

let times_of sched ~task_dur ~comm_dur =
  let graph = sched.Schedule.graph and proc_of = sched.Schedule.proc_of in
  let n = Dag.Graph.n_tasks graph in
  let task_dur = Array.init n (fun v -> task_dur ~task:v ~proc:proc_of.(v)) in
  let comm_dur =
    Array.map
      (fun (u, v, volume) -> comm_dur ~volume ~src:proc_of.(u) ~dst:proc_of.(v))
      (Dag.Graph.edges graph)
  in
  let start = Array.make n 0. and finish = Array.make n 0. in
  let makespan =
    replay (Disjunctive.graph_of sched) ~task_dur ~comm_dur ~start ~finish
  in
  { start; finish; makespan }

let deterministic sched platform =
  times_of sched ~task_dur:(Platform.etc platform) ~comm_dur:(fun ~volume ~src ~dst ->
      Platform.comm_time platform ~src ~dst ~volume)

let mean_times sched platform model =
  times_of sched
    ~task_dur:(Workloads.Stochastify.task_mean model platform)
    ~comm_dur:(Workloads.Stochastify.comm_mean model platform)
