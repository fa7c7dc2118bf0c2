(* End-to-end integration: the full pipeline through the Core facade,
   cross-method agreement, and paper-shape assertions at small scale. *)

let check_close = Tutil.check_close

let pipeline_cholesky () =
  (* generate → schedule (4 heuristics + randoms) → analyze → validate *)
  let rng = Core.Rng.create 2027L in
  let graph = Core.Workload.cholesky ~tiles:3 () in
  let platform =
    Core.Platform.Gen.uniform_minval ~rng ~n_tasks:(Core.Graph.n_tasks graph) ~n_procs:3 ()
  in
  let model = Core.Uncertainty.make ~ul:1.1 () in
  let sched = Core.Heuristics.heft graph platform in
  let a = Core.analyze sched platform model in
  (* metrics coherent with the distribution *)
  check_close ~eps:1e-9 "metric mean = dist mean"
    (Core.Dist.mean a.Core.makespan_dist)
    a.Core.metrics.Core.Robustness.expected_makespan;
  check_close ~eps:1e-9 "metric slack = slack total" a.Core.slack.Core.Slack.total
    a.Core.metrics.Core.Robustness.avg_slack;
  (* expected makespan dominates the deterministic one *)
  let det = (Core.Simulator.deterministic sched platform).Core.Simulator.makespan in
  Alcotest.(check bool) "E(M) >= det" true
    (a.Core.metrics.Core.Robustness.expected_makespan >= det -. 1e-9);
  (* Monte-Carlo validation: KS should be small for a 10-task graph *)
  let ks, cm = Core.validate_against_montecarlo ~rng ~count:10000 a platform model in
  Alcotest.(check bool) "ks < 0.05" true (ks < 0.05);
  Alcotest.(check bool) "cm finite" true (Float.is_finite cm)

let three_methods_consistent () =
  let rng = Core.Rng.create 5L in
  let graph = Core.Workload.gauss_elim ~n:6 () in
  let platform =
    Core.Platform.Gen.uniform_minval ~rng ~n_tasks:(Core.Graph.n_tasks graph) ~n_procs:4 ()
  in
  let model = Core.Uncertainty.make ~ul:1.1 () in
  let sched = Core.Heuristics.bmct graph platform in
  let engine = Core.Engine.create ~graph ~platform ~model in
  let means =
    List.map
      (fun backend -> Core.Dist.mean (Core.Engine.eval ~backend engine sched))
      Core.Engine.analytic_backends
  in
  match means with
  | [ classical; dodin; spelde ] ->
    check_close ~eps:0.02 "dodin vs classical" classical dodin;
    check_close ~eps:0.02 "spelde vs classical" classical spelde
  | _ -> Alcotest.fail "expected three methods"

let random_schedules_dominated_by_heuristics () =
  (* paper shape: the heuristics obtain the best expected makespan *)
  let rng = Core.Rng.create 11L in
  let graph = Core.Workload.random_dag ~rng ~n:20 () in
  let platform =
    Core.Platform.Gen.cvb ~rng ~n_tasks:20 ~n_procs:4 ~mu_task:20. ~v_task:0.5 ~v_mach:0.5 ()
  in
  let model = Core.Uncertainty.make ~ul:1.1 () in
  let best_heuristic =
    List.fold_left
      (fun acc (_, h) ->
        let a = Core.analyze (h graph platform) platform model in
        Float.min acc a.Core.metrics.Core.Robustness.expected_makespan)
      infinity Core.Heuristics.all
  in
  let randoms = Core.Random_sched.generate_many ~rng ~graph ~n_procs:4 ~count:40 in
  List.iter
    (fun s ->
      let a = Core.analyze s platform model in
      Alcotest.(check bool) "heuristic at least as good" true
        (best_heuristic <= a.Core.metrics.Core.Robustness.expected_makespan +. 1e-6))
    randoms

let metric_cluster_on_random_case () =
  (* the σ/entropy/lateness/A cluster appears on a fresh random case run
     through the public API only *)
  let rng = Core.Rng.create 21L in
  let graph = Core.Workload.random_dag ~rng ~n:15 () in
  let platform =
    Core.Platform.Gen.cvb ~rng ~n_tasks:15 ~n_procs:3 ~mu_task:20. ~v_task:0.5 ~v_mach:0.5 ()
  in
  let model = Core.Uncertainty.make ~ul:1.1 () in
  let rows =
    Array.of_list
      (List.map
         (fun s ->
           Core.Robustness.to_array (Core.analyze s platform model).Core.metrics)
         (Core.Random_sched.generate_many ~rng ~graph ~n_procs:3 ~count:60))
  in
  let col j = Array.map (fun r -> r.(j)) rows in
  let r12 = Core.Correlation.pearson (col 1) (col 2) in
  let r15 = Core.Correlation.pearson (col 1) (col 5) in
  let r16 = Core.Correlation.pearson (col 1) (col 6) in
  Alcotest.(check bool) "std ~ entropy" true (r12 > 0.9);
  Alcotest.(check bool) "std ~ lateness" true (r15 > 0.9);
  Alcotest.(check bool) "std ~ abs-prob(inverted sign)" true (Float.abs r16 > 0.9)

let montecarlo_agreement_improves_with_ul () =
  (* smaller UL ⇒ narrower distributions ⇒ smaller CM area *)
  let rng = Core.Rng.create 31L in
  let graph = Core.Workload.cholesky ~tiles:3 () in
  let platform =
    Core.Platform.Gen.uniform_minval ~rng ~n_tasks:(Core.Graph.n_tasks graph) ~n_procs:3 ()
  in
  let sched = Core.Heuristics.heft graph platform in
  let cm_of ul =
    let model = Core.Uncertainty.make ~ul () in
    let a = Core.analyze sched platform model in
    let _, cm = Core.validate_against_montecarlo ~rng ~count:5000 a platform model in
    cm
  in
  Alcotest.(check bool) "cm(1.01) < cm(1.5)" true (cm_of 1.01 < cm_of 1.5)

let dot_export_through_core () =
  let g = Core.Workload.fork_join ~width:3 () in
  let dot = Dag.Dot.to_dot g in
  Alcotest.(check bool) "digraph" true (String.length dot > 20)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          tc "cholesky end-to-end" `Quick pipeline_cholesky;
          tc "methods consistent" `Quick three_methods_consistent;
          tc "heuristics dominate" `Quick random_schedules_dominated_by_heuristics;
          tc "metric cluster" `Quick metric_cluster_on_random_case;
          tc "ul sensitivity" `Quick montecarlo_agreement_improves_with_ul;
          tc "dot export" `Quick dot_export_through_core;
        ] );
    ]
