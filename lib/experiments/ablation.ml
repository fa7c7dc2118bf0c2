type correlation_shift = {
  fixed_mk_vs_std : float;
  variable_mk_vs_std : float;
  fixed_cluster : float;
  variable_cluster : float;
}

let variable_task_ul task = if task mod 3 = 0 then 1.9 else 1.02

let sweep_correlations ?pool ~scale ~rng graph platform model =
  let n_procs = Platform.n_procs platform in
  let count = Scale.schedules scale 2000 in
  let scheds =
    Array.of_list (Sched.Random_sched.generate_many ~rng ~graph ~n_procs ~count)
  in
  let engine = Makespan.Engine.create ~graph ~platform ~model in
  let rows =
    Parallel.Par_array.init ?pool ~chunk_size:Runner.sweep_chunk_size (Array.length scheds)
      (fun i ->
        let d = Makespan.Engine.eval engine scheds.(i) in
        let mu = Distribution.Dist.mean d in
        ( mu,
          Distribution.Dist.std d,
          Distribution.Dist.mean_above d mu -. mu ))
  in
  let col f = Array.map f rows in
  let mk = col (fun (m, _, _) -> m) in
  let sd = col (fun (_, s, _) -> s) in
  let late = col (fun (_, _, l) -> l) in
  (Stats.Correlation.pearson mk sd, Stats.Correlation.pearson sd late)

let correlation_under_variable_ul ?pool ?(scale = Scale.of_env ()) ?(seed = 51L) () =
  Obs.Progress.phase "ablation:variable-ul" @@ fun () ->
  let rng = Prng.Xoshiro.create seed in
  let graph = Workloads.Random_dag.generate ~rng ~n:30 () in
  let platform =
    Platform.Gen.cvb ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:8 ~mu_task:20.
      ~v_task:0.5 ~v_mach:0.5 ()
  in
  let fixed = Workloads.Stochastify.make ~ul:1.2 () in
  let variable =
    Workloads.Stochastify.make_variable ~base_ul:1.05 ~task_ul:variable_task_ul ()
  in
  let fixed_mk_vs_std, fixed_cluster =
    sweep_correlations ?pool ~scale ~rng:(Prng.Xoshiro.split rng) graph platform fixed
  in
  let variable_mk_vs_std, variable_cluster =
    sweep_correlations ?pool ~scale ~rng:(Prng.Xoshiro.split rng) graph platform
      variable
  in
  { fixed_mk_vs_std; variable_mk_vs_std; fixed_cluster; variable_cluster }

let render_correlation t =
  Render.table
    ~title:
      "Ablation — does variable UL break the makespan–robustness link? (§VIII)\n\
       Pearson correlations over random schedules of one 30-task case\n\
       (expected shape: E(M)↔σ_M weakens under variable UL; the\n\
       dispersion-metric cluster σ_M↔lateness stays ≈ 1)"
    ~headers:[ "uncertainty"; "E(M) vs σ(M)"; "σ(M) vs lateness" ]
    ~rows:
      [
        [ "constant UL = 1.2"; Render.cell t.fixed_mk_vs_std; Render.cell t.fixed_cluster ];
        [ "variable UL 1.02/1.9"; Render.cell t.variable_mk_vs_std;
          Render.cell t.variable_cluster ];
      ]

type shape_row = {
  shape_name : string;
  mk_vs_std : float;
  cluster : float;
}

let cluster_under_shapes ?pool ?(scale = Scale.of_env ()) ?(seed = 61L) () =
  Obs.Progress.phase "ablation:shapes" @@ fun () ->
  let rng = Prng.Xoshiro.create seed in
  let graph = Workloads.Random_dag.generate ~rng ~n:25 () in
  let platform =
    Platform.Gen.cvb ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:5 ~mu_task:20.
      ~v_task:0.5 ~v_mach:0.5 ()
  in
  List.map
    (fun (shape_name, shape) ->
      let model = Workloads.Stochastify.make_shaped ~shape ~ul:1.2 () in
      let mk_vs_std, cluster =
        sweep_correlations ?pool ~scale ~rng:(Prng.Xoshiro.split rng) graph platform
          model
      in
      { shape_name; mk_vs_std; cluster })
    [ ("beta(2,5) [paper]", Workloads.Stochastify.Beta { alpha = 2.; beta = 5. });
      ("uniform", Workloads.Stochastify.Uniform);
      ("triangular(0.3)", Workloads.Stochastify.Triangular { mode = 0.3 });
      ("oscillating", Workloads.Stochastify.Oscillating) ]

let render_shapes rows =
  Render.table
    ~title:
      "Ablation — does the metric cluster survive non-standard duration shapes? (§VIII)\n\
       Pearson correlations over random schedules of one 25-task case per shape\n\
       (CLT prediction: σ(M) ↔ lateness stays ≈ 1 for every shape)"
    ~headers:[ "perturbation shape"; "E(M) vs σ(M)"; "σ(M) vs lateness" ]
    ~rows:
      (List.map
         (fun r -> [ r.shape_name; Render.cell r.mk_vs_std; Render.cell r.cluster ])
         rows)

type pareto = {
  population : int;
  front_size : int;
  overall_r : float;
  elite_r : float;
  front_r : float;
  front : (float * float) list;
}

let pareto_front points =
  (* minimize both coordinates: keep points not dominated by any other *)
  List.filter
    (fun (m, s) ->
      not
        (List.exists
           (fun (m', s') -> m' <= m && s' <= s && (m' < m || s' < s))
           points))
    points

let pareto_front_study ?pool ?(scale = Scale.of_env ()) ?(seed = 71L) () =
  Obs.Progress.phase "ablation:pareto" @@ fun () ->
  let rng = Prng.Xoshiro.create seed in
  let graph = Workloads.Random_dag.generate ~rng ~n:30 () in
  let platform =
    Platform.Gen.cvb ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:8 ~mu_task:20.
      ~v_task:0.5 ~v_mach:0.5 ()
  in
  (* variable UL so that E(M) and σ_M are genuinely competing objectives *)
  let model =
    Workloads.Stochastify.make_variable ~base_ul:1.05 ~task_ul:variable_task_ul ()
  in
  let count = Scale.schedules scale 20000 in
  let scheds =
    (* random schedules + the makespan-centric heuristics + the
       RobustHEFT κ-sweep, which populates the low-σ corner *)
    Array.of_list
      (Sched.Random_sched.generate_many ~rng ~graph ~n_procs:8 ~count
      @ List.map (fun (_, h) -> h graph platform) Runner.heuristics
      @ List.map
          (fun kappa -> Sched.Robust_heft.schedule ~kappa graph platform model)
          [ 0.5; 1.; 2.; 4.; 8. ])
  in
  let engine = Makespan.Engine.create ~graph ~platform ~model in
  let points =
    Parallel.Par_array.init ?pool ~chunk_size:Runner.sweep_chunk_size (Array.length scheds)
      (fun i ->
        let d = Makespan.Engine.eval engine scheds.(i) in
        (Distribution.Dist.mean d, Distribution.Dist.std d))
  in
  let all = Array.to_list points in
  let front =
    List.sort_uniq compare (pareto_front all)
  in
  let pearson pts =
    if List.length pts < 3 then Float.nan
    else
      Stats.Correlation.pearson
        (Array.of_list (List.map fst pts))
        (Array.of_list (List.map snd pts))
  in
  (* "near the front": the best decile by expected makespan *)
  let elite =
    let sorted = List.sort compare all in
    let k = Int.max 3 (List.length sorted / 10) in
    List.filteri (fun i _ -> i < k) sorted
  in
  {
    population = Array.length points;
    front_size = List.length front;
    overall_r = pearson all;
    elite_r = pearson elite;
    front_r = pearson front;
    front;
  }

let render_pareto t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Ablation — correlation near the Pareto front (§VIII)\n\
        %d schedules; (E(M), σ(M)) front has %d points\n\
        Pearson(E(M), σ(M)): overall %+.3f, best decile %+.3f, front %+.3f\n\
        (the global correlation is what the paper measures; the front itself\n\
        is where the conjectured trade-off lives: along it, lower E(M) comes\n\
        with higher σ(M))\n\n"
       t.population t.front_size t.overall_r t.elite_r t.front_r);
  Buffer.add_string buf
    (Render.table ~title:"Pareto front (by expected makespan):"
       ~headers:[ "E(M)"; "σ(M)" ]
       ~rows:(List.map (fun (m, s) -> [ Render.cell m; Render.cell s ]) t.front));
  Buffer.contents buf

type tradeoff_point = {
  kappa : float;
  expected_makespan : float;
  makespan_std : float;
}

let robust_heft_tradeoff ?(seed = 17L) ?(kappas = [ 0.; 0.5; 1.; 2.; 4. ]) () =
  Obs.Progress.phase "ablation:tradeoff" @@ fun () ->
  let rng = Prng.Xoshiro.create seed in
  let graph = Workloads.Random_dag.generate ~rng ~n:40 () in
  let platform =
    Platform.Gen.cvb ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:6 ~mu_task:20.
      ~v_task:0.5 ~v_mach:0.5 ()
  in
  let model =
    Workloads.Stochastify.make_variable ~base_ul:1.05 ~task_ul:variable_task_ul ()
  in
  let engine = Makespan.Engine.create ~graph ~platform ~model in
  List.map
    (fun kappa ->
      let sched = Sched.Robust_heft.schedule ~kappa graph platform model in
      let d = Makespan.Engine.eval engine sched in
      {
        kappa;
        expected_makespan = Distribution.Dist.mean d;
        makespan_std = Distribution.Dist.std d;
      })
    kappas

let render_tradeoff points =
  Render.table
    ~title:
      "Ablation — RobustHEFT risk-adjustment sweep under variable UL (§VIII)\n\
       (κ = 0 is HEFT-on-means; larger κ should trade E(M) for σ(M))"
    ~headers:[ "kappa"; "E(M)"; "σ(M)" ]
    ~rows:
      (List.map
         (fun p ->
           [ Render.cell p.kappa; Render.cell p.expected_makespan;
             Render.cell p.makespan_std ])
         points)
