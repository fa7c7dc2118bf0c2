type t = {
  graph : Dag.Graph.t;
  data : int array array;
}

(* first index of a task-sorted row whose task is not below [x] *)
let position row x =
  let k = ref 0 in
  while !k < Array.length row && fst row.(!k) < x do
    incr k
  done;
  !k

let insert row k x =
  Array.init (Array.length row + 1) (fun i ->
      if i < k then row.(i) else if i = k then x else row.(i - 1))

let graph_of sched =
  let base = sched.Schedule.graph in
  let n = Dag.Graph.n_tasks base in
  let preds = Array.init n (Dag.Graph.preds base) in
  let succs = Array.init n (Dag.Graph.succs base) in
  (* Dag.Graph.edges numbers the edges source by source, so visiting the
     sources in order meets each task's predecessors in sorted order *)
  let data = Array.init n (fun v -> Array.make (Array.length preds.(v)) 0) in
  let seen = Array.make n 0 and e = ref 0 in
  for u = 0 to n - 1 do
    Array.iter
      (fun (v, _) ->
        data.(v).(seen.(v)) <- !e;
        seen.(v) <- seen.(v) + 1;
        incr e)
      succs.(u)
  done;
  (* each task gains at most one processor predecessor and one processor
     successor, merged into its sorted rows unless already a data edge *)
  Array.iter
    (fun row ->
      for i = 0 to Array.length row - 2 do
        let u = row.(i) and v = row.(i + 1) in
        let k = position preds.(v) u in
        if k = Array.length preds.(v) || fst preds.(v).(k) <> u then begin
          preds.(v) <- insert preds.(v) k (u, 0.);
          data.(v) <- insert data.(v) k (-1);
          succs.(u) <- insert succs.(u) (position succs.(u) v) (v, 0.)
        end
      done)
    sched.Schedule.order;
  { graph = Dag.Graph.of_adjacency ~succs ~preds; data }

let weights sched platform model =
  let proc_of = sched.Schedule.proc_of in
  let task v = Workloads.Stochastify.task_mean model platform ~task:v ~proc:proc_of.(v) in
  (* a processor-order edge has volume 0 and joins two tasks on one
     processor, so it weighs 0 like any co-located communication *)
  let edge u v volume =
    Workloads.Stochastify.comm_mean model platform ~volume ~src:proc_of.(u) ~dst:proc_of.(v)
  in
  { Dag.Levels.task; edge }
