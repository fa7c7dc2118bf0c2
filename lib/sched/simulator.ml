type plan = {
  order : int array; (* execution order respecting DAG + processor order *)
  proc_pred : int array; (* -1 for the first task on its processor *)
  preds : (int * int) array array; (* (pred, edge index), ascending pred *)
}

type times = {
  start : float array;
  finish : float array;
  makespan : float;
}

let prepare sched =
  let graph = sched.Schedule.graph in
  let n = Dag.Graph.n_tasks graph in
  let proc_pred =
    Array.init n (fun v -> Option.value (Schedule.proc_pred sched v) ~default:(-1))
  in
  let indeg =
    Array.mapi (fun v q -> Array.length (Dag.Graph.preds graph v) + Bool.to_int (q >= 0)) proc_pred
  in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!filled) <- v;
    incr filled;
    let release w =
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then Queue.add w queue
    in
    Array.iter (fun (w, _) -> release w) (Dag.Graph.succs graph v);
    (match Schedule.proc_succ sched v with Some w -> release w | None -> ())
  done;
  assert (!filled = n) (* Schedule.make already rejected cyclic orders *);
  (* edges come in (src, dst) order, so each task's list ends up sorted by
     predecessor *)
  let edges = Dag.Graph.edges graph in
  let preds = Array.make n [] in
  for i = Array.length edges - 1 downto 0 do
    let u, v, _ = edges.(i) in
    preds.(v) <- (u, i) :: preds.(v)
  done;
  { order; proc_pred; preds = Array.map Array.of_list preds }

let replay plan ~task_dur ~comm_dur ~start ~finish =
  for i = 0 to Array.length plan.order - 1 do
    let v = plan.order.(i) in
    let q = plan.proc_pred.(v) in
    let ready = ref (if q < 0 then 0. else finish.(q)) in
    let preds = plan.preds.(v) in
    for k = 0 to Array.length preds - 1 do
      let p, e = preds.(k) in
      let arrival = finish.(p) +. comm_dur.(e) in
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
  let makespan = replay (prepare sched) ~task_dur ~comm_dur ~start ~finish in
  { start; finish; makespan }

let deterministic sched platform =
  times_of sched ~task_dur:(Platform.etc platform) ~comm_dur:(fun ~volume ~src ~dst ->
      Platform.comm_time platform ~src ~dst ~volume)

let mean_times sched platform model =
  times_of sched
    ~task_dur:(Workloads.Stochastify.task_mean model platform)
    ~comm_dur:(Workloads.Stochastify.comm_mean model platform)
