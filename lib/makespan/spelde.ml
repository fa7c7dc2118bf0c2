(* Like {!Classic}, the moment propagation is parameterized over the
   duration/communication views so the {!Engine} feeds it from cached
   tables and reuses a scratch array across schedules of one case. *)

let update_node ~dgraph
    ~(task_moments : task:int -> proc:int -> Distribution.Normal_pair.t)
    ~(comm_moments : volume:float -> src:int -> dst:int -> Distribution.Normal_pair.t)
    sched completion v =
  let open Distribution in
  let graph = sched.Sched.Schedule.graph in
  let proc_of = sched.Sched.Schedule.proc_of in
  let arrivals =
    Array.to_list (Dag.Graph.preds dgraph v)
    |> List.map (fun (p, _) ->
           match Dag.Graph.volume graph ~src:p ~dst:v with
           | None -> completion.(p)
           | Some volume ->
             Normal_pair.add completion.(p)
               (comm_moments ~volume ~src:proc_of.(p) ~dst:proc_of.(v)))
  in
  let ready =
    match arrivals with [] -> Normal_pair.const 0. | ds -> Normal_pair.max_list ds
  in
  completion.(v) <- Normal_pair.add ready (task_moments ~task:v ~proc:proc_of.(v))

let moments_of_exits ~dgraph completion =
  let open Distribution in
  let exits = Dag.Graph.exits dgraph in
  Normal_pair.max_list (Array.to_list (Array.map (fun e -> completion.(e)) exits))

let moments_with ~dgraph ~completion
    ~(task_moments : task:int -> proc:int -> Distribution.Normal_pair.t)
    ~(comm_moments : volume:float -> src:int -> dst:int -> Distribution.Normal_pair.t)
    sched =
  Array.iter
    (update_node ~dgraph ~task_moments ~comm_moments sched completion)
    (Dag.Graph.topo_order dgraph);
  moments_of_exits ~dgraph completion
