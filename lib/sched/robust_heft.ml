let check_kappa kappa =
  if kappa < 0. then invalid_arg "Robust_heft: kappa must be >= 0"

let risk_adjusted_weights ~kappa platform model =
  check_kappa kappa;
  let m = Platform.n_procs platform in
  let mean_tau = Platform.mean_tau platform in
  let mean_latency = Platform.mean_latency platform in
  let task v =
    (* average over processors of mean + κ·std of the perturbed duration *)
    let acc = ref 0. in
    for p = 0 to m - 1 do
      acc :=
        !acc
        +. Workloads.Stochastify.task_mean model platform ~task:v ~proc:p
        +. (kappa *. Workloads.Stochastify.task_std model platform ~task:v ~proc:p)
    done;
    !acc /. float_of_int m
  in
  let edge _ _ volume =
    let w = mean_latency +. (volume *. mean_tau) in
    Workloads.Stochastify.mean model w +. (kappa *. Workloads.Stochastify.std model w)
  in
  { Dag.Levels.task; edge }

let schedule ?(kappa = 1.0) graph platform model =
  check_kappa kappa;
  let ranks = Dag.Levels.bottom_levels graph (risk_adjusted_weights ~kappa platform model) in
  let order = Array.init (Dag.Graph.n_tasks graph) (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare ranks.(b) ranks.(a) with 0 -> Int.compare a b | c -> c)
    order;
  (* EFT insertion where each candidate placement is charged its
     risk-adjusted duration on that processor *)
  let m = Platform.n_procs platform in
  let n = Dag.Graph.n_tasks graph in
  let placed_proc = Array.make n (-1) in
  let placed_finish = Array.make n 0. in
  let slots = Array.make m [] (* (start, finish, task), sorted by start *) in
  let risk_dur task proc =
    Workloads.Stochastify.task_mean model platform ~task ~proc
    +. (kappa *. Workloads.Stochastify.task_std model platform ~task ~proc)
  in
  let risk_comm u ~volume proc =
    let w = Platform.comm_time platform ~src:placed_proc.(u) ~dst:proc ~volume in
    Workloads.Stochastify.mean model w +. (kappa *. Workloads.Stochastify.std model w)
  in
  let ready_time task proc =
    Array.fold_left
      (fun acc (p, volume) -> Float.max acc (placed_finish.(p) +. risk_comm p ~volume proc))
      0. (Dag.Graph.preds graph task)
  in
  let find_slot proc ~ready ~dur =
    let rec scan candidate = function
      | [] -> candidate
      | (s_start, s_finish, _) :: rest ->
        if candidate +. dur <= s_start then candidate
        else scan (Float.max candidate s_finish) rest
    in
    scan ready slots.(proc)
  in
  Array.iter
    (fun task ->
      let best = ref (-1) and best_finish = ref infinity and best_start = ref 0. in
      for proc = 0 to m - 1 do
        let dur = risk_dur task proc in
        let start = find_slot proc ~ready:(ready_time task proc) ~dur in
        if start +. dur < !best_finish then begin
          best := proc;
          best_finish := start +. dur;
          best_start := start
        end
      done;
      let proc = !best in
      placed_proc.(task) <- proc;
      placed_finish.(task) <- !best_finish;
      let rec insert = function
        | [] -> [ (!best_start, !best_finish, task) ]
        | ((s, _, _) as slot) :: rest when s < !best_start -> slot :: insert rest
        | rest -> (!best_start, !best_finish, task) :: rest
      in
      slots.(proc) <- insert slots.(proc))
    order;
  let order_rows =
    Array.map (fun l -> Array.of_list (List.map (fun (_, _, t) -> t) l)) slots
  in
  Schedule.make ~graph ~n_procs:m ~proc_of:placed_proc ~order:order_rows
