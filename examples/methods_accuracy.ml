(* Accuracy of the three analytic makespan-distribution methods
   (classical independence sweep, Dodin's series-parallel reduction,
   Spelde's CLT moments) against Monte-Carlo ground truth, across
   uncertainty levels — the §V validation, runnable as a demo.

   Run with:  dune exec examples/methods_accuracy.exe *)

let () =
  let rng = Core.Rng.create 3L in
  let graph = Core.Workload.gauss_elim ~n:8 () in
  let n = Core.Graph.n_tasks graph in
  let platform = Core.Platform.Gen.uniform_minval ~rng ~n_tasks:n ~n_procs:4 () in
  let sched = Core.Heuristics.heft graph platform in
  Printf.printf
    "Gaussian elimination (%d tasks) on 4 procs, HEFT schedule\n\
     KS / CM distances of each analytic method vs 20000 Monte-Carlo realizations\n\n"
    n;
  Printf.printf "%-6s  %-10s  %10s  %10s  %12s  %12s\n" "UL" "method" "KS" "CM" "mean" "std";
  List.iter
    (fun ul ->
      let model = Core.Uncertainty.make ~ul () in
      let emp = Core.Montecarlo.run ~rng ~count:20000 sched platform model in
      let engine = Core.Engine.create ~graph ~platform ~model in
      List.iter
        (fun backend ->
          let d = Core.Engine.eval ~backend engine sched in
          let ks = Core.Distance.ks (Analytic d) (Sampled emp) in
          let cm = Core.Distance.cm_area (Analytic d) (Sampled emp) in
          Printf.printf "%-6.2f  %-10s  %10.5f  %10.5f  %12.3f  %12.4f\n" ul
            (Core.Engine.backend_name backend)
            ks cm (Core.Dist.mean d) (Core.Dist.std d))
        Core.Engine.analytic_backends;
      Printf.printf "%-6.2f  %-10s  %10s  %10s  %12.3f  %12.4f\n" ul "montecarlo" "-" "-"
        (Core.Empirical.mean emp) (Core.Empirical.std emp);
      print_newline ())
    [ 1.01; 1.1; 1.5 ];
  print_endline "(paper shape: all three methods stay close to the realizations;";
  print_endline " Spelde's normal approximation is the roughest, classical ≈ Dodin)"
