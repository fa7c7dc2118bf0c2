(* Tour of the uncertainty toolbox built around the paper's model:
   perturbation shapes (§VIII "non-standard distributions"), Kleindorfer
   bounds, bootstrap confidence intervals and antithetic Monte Carlo.

   Run with:  dune exec examples/uncertainty_toolbox.exe *)

let () =
  let rng = Core.Rng.create 8L in
  let graph = Core.Workload.gauss_elim ~n:5 () in
  let n = Core.Graph.n_tasks graph in
  let platform = Core.Platform.Gen.uniform_minval ~rng ~n_tasks:n ~n_procs:4 () in
  let sched = Core.Heuristics.heft graph platform in
  Printf.printf "Gaussian elimination, %d tasks on 4 processors, HEFT schedule\n\n" n;

  (* 1. The same schedule under four perturbation shapes. *)
  print_endline "1. Makespan distribution vs perturbation shape (UL = 1.3):";
  List.iter
    (fun (name, shape) ->
      let model = Core.Uncertainty.make_shaped ~shape ~ul:1.3 () in
      let engine = Core.Engine.create ~graph ~platform ~model in
      let d = Core.Engine.eval engine sched in
      Printf.printf "   %-16s  E(M) %8.2f   σ(M) %7.3f   skew %+.3f\n" name
        (Core.Dist.mean d) (Core.Dist.std d) (Core.Dist.skewness d))
    [ ("beta(2,5)", Core.Uncertainty.Beta { alpha = 2.; beta = 5. });
      ("uniform", Core.Uncertainty.Uniform);
      ("triangular(.3)", Core.Uncertainty.Triangular { mode = 0.3 });
      ("oscillating", Core.Uncertainty.Oscillating) ];

  (* 2. Kleindorfer-style bracket around Monte Carlo. *)
  let model = Core.Uncertainty.make ~ul:1.3 () in
  let b = Core.Makespan_bounds.run sched platform model in
  let mc = Core.Montecarlo.run ~rng ~count:20000 sched platform model in
  Printf.printf
    "\n2. Dependence bounds (comonotone vs independent maxima):\n\
     \   lower bound mean %8.3f   Monte Carlo mean %8.3f   upper bound mean %8.3f\n\
     \   bracket holds: %b\n"
    (Core.Dist.mean b.Core.Makespan_bounds.lower)
    (Core.Empirical.mean mc)
    (Core.Dist.mean b.Core.Makespan_bounds.upper)
    (Core.Makespan_bounds.enclose b (Core.Empirical.to_dist ~points:128 mc));

  (* 3. Bootstrap CI of a Pearson coefficient over random schedules. *)
  let schedules = Core.Random_sched.generate_many ~rng ~graph ~n_procs:4 ~count:100 in
  let engine = Core.Engine.create ~graph ~platform ~model in
  let pairs =
    List.map
      (fun s ->
        let d = Core.Engine.eval engine s in
        (Core.Dist.mean d, Core.Dist.std d))
      schedules
  in
  let xs = Array.of_list (List.map fst pairs) in
  let ys = Array.of_list (List.map snd pairs) in
  let iv = Core.Bootstrap.pearson_ci ~rng xs ys in
  Printf.printf
    "\n3. Pearson(E(M), σ(M)) over 100 random schedules:\n\
     \   estimate %+.3f, 95%% bootstrap CI [%+.3f, %+.3f]\n"
    iv.Core.Bootstrap.estimate iv.Core.Bootstrap.lo iv.Core.Bootstrap.hi;

  (* 4. Antithetic variance reduction. *)
  let mean_of antithetic seed =
    let xs =
      Core.Montecarlo.realizations ~antithetic ~rng:(Core.Rng.create seed) ~count:200
        sched platform model
    in
    Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)
  in
  let spread f =
    let ms = Array.init 25 (fun k -> f (Int64.of_int (100 + k))) in
    let mu = Array.fold_left ( +. ) 0. ms /. 25. in
    sqrt (Array.fold_left (fun a m -> a +. ((m -. mu) ** 2.)) 0. ms /. 25.)
  in
  Printf.printf
    "\n4. Monte-Carlo mean-estimate dispersion over 25 runs of 200 realizations:\n\
     \   plain sampling  %.4f\n   antithetic      %.4f\n"
    (spread (mean_of false)) (spread (mean_of true))
