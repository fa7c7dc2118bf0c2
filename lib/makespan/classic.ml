(* The forward sweep takes the duration and communication distributions
   as functions plus a caller-owned scratch array, so {!Engine} feeds it
   from its memo tables and reuses the array across schedules. *)

let update_node ~points ~dgraph
    ~(task_dist : task:int -> proc:int -> Distribution.Dist.t)
    ~(comm_dist : volume:float -> src:int -> dst:int -> Distribution.Dist.t)
    sched completion v =
  let graph = sched.Sched.Schedule.graph in
  let proc_of = sched.Sched.Schedule.proc_of in
  (* fused arrival/max loop: same left fold as the historical
     [max_list] over a materialized arrival list (bit-identical
     results), without the per-node list and intermediate array *)
  let arrival (p, _) =
    (* disjunctive edges carry no data: volume lookup must use the
       original graph *)
    match Dag.Graph.volume graph ~src:p ~dst:v with
    | None -> completion.(p)
    | Some volume ->
      let comm = comm_dist ~volume ~src:proc_of.(p) ~dst:proc_of.(v) in
      Distribution.Dist.add ~points completion.(p) comm
  in
  let preds = Dag.Graph.preds dgraph v in
  let np = Array.length preds in
  let ready =
    if np = 0 then Distribution.Dist.const 0.
    else begin
      let acc = ref (arrival preds.(0)) in
      for i = 1 to np - 1 do
        acc := Distribution.Dist.max_indep ~points !acc (arrival preds.(i))
      done;
      !acc
    end
  in
  let dur = task_dist ~task:v ~proc:proc_of.(v) in
  completion.(v) <- Distribution.Dist.add ~points ready dur

let completion_dists_with ~points ~dgraph ~completion
    ~(task_dist : task:int -> proc:int -> Distribution.Dist.t)
    ~(comm_dist : volume:float -> src:int -> dst:int -> Distribution.Dist.t) sched =
  Array.iter
    (update_node ~points ~dgraph ~task_dist ~comm_dist sched completion)
    (Dag.Graph.topo_order dgraph);
  completion

let makespan_of_exits ~points dgraph completion =
  let exits = Dag.Graph.exits dgraph in
  if Array.length exits = 0 then invalid_arg "Classic.makespan_of_exits: no exit task";
  let acc = ref completion.(exits.(0)) in
  for i = 1 to Array.length exits - 1 do
    acc := Distribution.Dist.max_indep ~points !acc completion.(exits.(i))
  done;
  !acc
