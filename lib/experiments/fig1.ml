type point = {
  n_tasks : int;
  ks : float;
  cm : float;
}

type t = point list

let evaluate_one ?pool ~rng ~mc_count graph n_procs model =
  let n_tasks = Dag.Graph.n_tasks graph in
  let platform_rng = Prng.Xoshiro.split rng in
  let platform =
    Platform.Gen.cvb ~rng:platform_rng ~n_tasks ~n_procs ~mu_task:20. ~v_task:0.5
      ~v_mach:0.5 ()
  in
  let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs in
  let engine = Makespan.Engine.create ~graph ~platform ~model in
  let dist = Makespan.Engine.eval engine sched in
  let emp = Makespan.Montecarlo.run ?pool ~rng ~count:mc_count sched platform model in
  ( Stats.Distance.ks (Analytic dist) (Sampled emp),
    Stats.Distance.cm_area (Analytic dist) (Sampled emp) )

let run ?pool ?(scale = Scale.of_env ()) ?(seed = 11L) () =
  Obs.Progress.phase "fig1" @@ fun () ->
  let rng = Prng.Xoshiro.create seed in
  let model = Workloads.Stochastify.make ~ul:1.1 () in
  let sizes = [ 10; 30; 100 ] @ (if scale.Scale.include_n1000 then [ 1000 ] else []) in
  List.map
    (fun n ->
      let reps = if n >= 1000 then 1 else 3 in
      let mc_count = Scale.realizations scale (if n >= 1000 then 20000 else 100000) in
      let n_procs = if n < 20 then 3 else if n < 100 then 8 else 16 in
      Elog.info "fig1: size %d (%d graphs, %d realizations each)" n reps mc_count;
      let ks_acc = ref 0. and cm_acc = ref 0. in
      for _ = 1 to reps do
        let max_out_degree = if n > 300 then Some 16 else None in
        let graph = Workloads.Random_dag.generate ~rng ~n ?max_out_degree () in
        let ks, cm = evaluate_one ?pool ~rng ~mc_count graph n_procs model in
        ks_acc := !ks_acc +. ks;
        cm_acc := !cm_acc +. cm
      done;
      { n_tasks = n; ks = !ks_acc /. float_of_int reps; cm = !cm_acc /. float_of_int reps })
    sizes

let render t =
  Render.table
    ~title:
      "Fig. 1 — precision of the independence assumption vs graph size (UL = 1.1)\n\
       (paper shape: KS and CM grow with graph size)"
    ~headers:[ "n_tasks"; "KS"; "CM" ]
    ~rows:
      (List.map
         (fun p -> [ string_of_int p.n_tasks; Render.cell_sci p.ks; Render.cell_sci p.cm ])
         t)
