type t = {
  lower : Distribution.Dist.t;
  upper : Distribution.Dist.t;
}

(* the classical sweep with a pluggable maximum operator *)
let sweep ~max_op sched platform model =
  let open Distribution in
  let points = model.Workloads.Stochastify.points in
  let { Sched.Disjunctive.graph = dgraph; data } = Sched.Disjunctive.graph_of sched in
  let proc_of = sched.Sched.Schedule.proc_of in
  let n = Dag.Graph.n_tasks dgraph in
  let completion = Array.make n (Dist.const 0.) in
  Array.iter
    (fun v ->
      let preds = Dag.Graph.preds dgraph v in
      let arrivals =
        List.init (Array.length preds) (fun k ->
            let p, volume = preds.(k) in
            if data.(v).(k) < 0 then completion.(p)
            else
              let comm =
                Workloads.Stochastify.comm_dist model platform ~volume ~src:proc_of.(p)
                  ~dst:proc_of.(v)
              in
              Dist.add ~points completion.(p) comm)
      in
      let ready =
        match arrivals with
        | [] -> Dist.const 0.
        | d :: ds -> List.fold_left (fun acc x -> max_op ~points acc x) d ds
      in
      let dur = Workloads.Stochastify.task_dist model platform ~task:v ~proc:proc_of.(v) in
      completion.(v) <- Dist.add ~points ready dur)
    (Dag.Graph.topo_order dgraph);
  let exits = Dag.Graph.exits dgraph in
  match Array.to_list (Array.map (fun e -> completion.(e)) exits) with
  | [] -> Dist.const 0.
  | d :: ds -> List.fold_left (fun acc x -> max_op ~points acc x) d ds

let run sched platform model =
  {
    lower = sweep ~max_op:(fun ~points a b -> Distribution.Dist.max_comonotone ~points a b)
        sched platform model;
    upper = sweep ~max_op:(fun ~points a b -> Distribution.Dist.max_indep ~points a b)
        sched platform model;
  }

let enclose b d =
  let open Distribution in
  let lo1, hi1 = Dist.support b.lower in
  let lo2, hi2 = Dist.support b.upper in
  let lo3, hi3 = Dist.support d in
  let lo = Float.min lo1 (Float.min lo2 lo3) and hi = Float.max hi1 (Float.max hi2 hi3) in
  let ok = ref true in
  let n = 256 in
  (* tolerance for grid resampling and Monte-Carlo noise *)
  let eps = 0.02 in
  for i = 0 to n do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int n) in
    let f_upper = Dist.cdf_at b.upper x in
    let f_lower = Dist.cdf_at b.lower x in
    let f = Dist.cdf_at d x in
    if f < f_upper -. eps || f > f_lower +. eps then ok := false
  done;
  !ok
