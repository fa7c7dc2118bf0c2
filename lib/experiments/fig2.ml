type t = {
  ks : float;
  cm : float;
  xs : float array;
  calculated : float array;
  experimental : float array;
}

let run ?pool ?(scale = Scale.of_env ()) ?(seed = 21L) () =
  Obs.Progress.phase "fig2" @@ fun () ->
  let rng = Prng.Xoshiro.create seed in
  let model = Workloads.Stochastify.make ~ul:1.1 () in
  let n = 100 in
  let graph = Workloads.Random_dag.generate ~rng ~n () in
  let platform =
    Platform.Gen.cvb ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:16 ~mu_task:20.
      ~v_task:0.5 ~v_mach:0.5 ()
  in
  let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs:16 in
  let engine = Makespan.Engine.create ~graph ~platform ~model in
  let dist = Makespan.Engine.eval engine sched in
  let mc_count = Scale.realizations scale 100000 in
  let emp = Makespan.Montecarlo.run ?pool ~rng ~count:mc_count sched platform model in
  let ks = Stats.Distance.ks (Analytic dist) (Sampled emp) in
  let cm = Stats.Distance.cm_area (Analytic dist) (Sampled emp) in
  let emp_dist = Distribution.Empirical.to_dist emp in
  let lo1, hi1 = Distribution.Dist.support dist in
  let lo2, hi2 = Distribution.Dist.support emp_dist in
  let lo = Float.min lo1 lo2 and hi = Float.max hi1 hi2 in
  let points = 48 in
  let xs = Numerics.Array_ops.linspace lo hi points in
  {
    ks;
    cm;
    xs;
    calculated = Array.map (Distribution.Dist.pdf_at dist) xs;
    experimental = Array.map (Distribution.Dist.pdf_at emp_dist) xs;
  }

let render t =
  let rows =
    Array.to_list
      (Array.mapi
         (fun i x ->
           [ Render.cell x; Render.cell_sci t.calculated.(i); Render.cell_sci t.experimental.(i) ])
         t.xs)
  in
  Render.table
    ~title:
      (Printf.sprintf
         "Fig. 2 — calculated vs experimental makespan density (KS = %.3g, CM = %.3g)\n\
          (paper shape: curves nearly coincide despite mediocre KS)"
         t.ks t.cm)
    ~headers:[ "makespan"; "calculated"; "experimental" ]
    ~rows
