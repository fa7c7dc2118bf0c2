(* Like {!Classic}, the moment propagation is parameterized over the
   duration/communication views so the {!Engine} feeds it from cached
   tables and reuses a scratch array across schedules of one case. *)

let update_node ~(dgraph : Sched.Disjunctive.t)
    ~(task_moments : task:int -> proc:int -> Distribution.Normal_pair.t)
    ~(comm_moments : volume:float -> src:int -> dst:int -> Distribution.Normal_pair.t)
    sched completion v =
  let open Distribution in
  let proc_of = sched.Sched.Schedule.proc_of in
  let preds = Dag.Graph.preds dgraph.graph v and data = dgraph.data.(v) in
  let arrivals =
    List.init (Array.length preds) (fun k ->
        let p, volume = preds.(k) in
        if data.(k) < 0 then completion.(p)
        else
          Normal_pair.add completion.(p)
            (comm_moments ~volume ~src:proc_of.(p) ~dst:proc_of.(v)))
  in
  let ready =
    match arrivals with [] -> Normal_pair.const 0. | ds -> Normal_pair.max_list ds
  in
  completion.(v) <- Normal_pair.add ready (task_moments ~task:v ~proc:proc_of.(v))

let moments_of_exits ~(dgraph : Sched.Disjunctive.t) completion =
  let open Distribution in
  let exits = Dag.Graph.exits dgraph.graph in
  Normal_pair.max_list (Array.to_list (Array.map (fun e -> completion.(e)) exits))

let moments_with ~dgraph ~completion
    ~(task_moments : task:int -> proc:int -> Distribution.Normal_pair.t)
    ~(comm_moments : volume:float -> src:int -> dst:int -> Distribution.Normal_pair.t)
    sched =
  Array.iter
    (update_node ~dgraph ~task_moments ~comm_moments sched completion)
    (Dag.Graph.topo_order dgraph.Sched.Disjunctive.graph);
  moments_of_exits ~dgraph completion
