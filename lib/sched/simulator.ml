type plan = {
  sched : Schedule.t;
  topo : int array; (* execution order respecting DAG + processor order *)
}

type times = {
  start : float array;
  finish : float array;
  makespan : float;
}

let prepare sched =
  let graph = sched.Schedule.graph in
  let n = Dag.Graph.n_tasks graph in
  let indeg = Array.init n (fun v -> Array.length (Dag.Graph.preds graph v)) in
  Array.iteri
    (fun v _ -> if Schedule.proc_pred sched v <> None then indeg.(v) <- indeg.(v) + 1)
    indeg;
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let topo = Array.make n (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    topo.(!filled) <- v;
    incr filled;
    let release w =
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then Queue.add w queue
    in
    Array.iter (fun (w, _) -> release w) (Dag.Graph.succs graph v);
    (match Schedule.proc_succ sched v with Some w -> release w | None -> ())
  done;
  assert (!filled = n) (* Schedule.make already rejected cyclic orders *);
  { sched; topo }

let run plan ~task_dur ~comm_dur =
  let sched = plan.sched in
  let graph = sched.Schedule.graph in
  let n = Dag.Graph.n_tasks graph in
  let start = Array.make n 0. and finish = Array.make n 0. in
  Array.iter
    (fun v ->
      let ready = ref 0. in
      (match Schedule.proc_pred sched v with
      | Some u -> ready := finish.(u)
      | None -> ());
      Array.iter
        (fun (p, _) ->
          let arrival = finish.(p) +. comm_dur p v in
          if arrival > !ready then ready := arrival)
        (Dag.Graph.preds graph v);
      start.(v) <- !ready;
      let d = task_dur v in
      if d < 0. then invalid_arg "Simulator.run: negative duration";
      finish.(v) <- !ready +. d)
    plan.topo;
  let makespan = Array.fold_left Float.max 0. finish in
  { start; finish; makespan }

let comm_volume graph u v =
  match Dag.Graph.volume graph ~src:u ~dst:v with
  | Some vol -> vol
  | None -> invalid_arg "Simulator: comm_dur queried on a non-edge"

let deterministic sched platform =
  let plan = prepare sched in
  let graph = sched.Schedule.graph in
  run plan
    ~task_dur:(fun v -> Platform.etc platform ~task:v ~proc:sched.Schedule.proc_of.(v))
    ~comm_dur:(fun u v ->
      Platform.comm_time platform ~src:sched.Schedule.proc_of.(u)
        ~dst:sched.Schedule.proc_of.(v) ~volume:(comm_volume graph u v))

let mean_times sched platform model =
  let plan = prepare sched in
  let graph = sched.Schedule.graph in
  run plan
    ~task_dur:(fun v ->
      Workloads.Stochastify.task_mean model platform ~task:v ~proc:sched.Schedule.proc_of.(v))
    ~comm_dur:(fun u v ->
      Workloads.Stochastify.comm_mean model platform ~volume:(comm_volume graph u v)
        ~src:sched.Schedule.proc_of.(u) ~dst:sched.Schedule.proc_of.(v))

let sampled sched platform model ~rng =
  let plan = prepare sched in
  let graph = sched.Schedule.graph in
  run plan
    ~task_dur:(fun v ->
      Workloads.Stochastify.task_sample model rng platform ~task:v
        ~proc:sched.Schedule.proc_of.(v))
    ~comm_dur:(fun u v ->
      Workloads.Stochastify.comm_sample model rng platform ~volume:(comm_volume graph u v)
        ~src:sched.Schedule.proc_of.(u) ~dst:sched.Schedule.proc_of.(v))
