(* Umbrella API surface: the Core facade exposes a coherent toolkit, and
   its conveniences agree with the underlying libraries. *)

let check_close = Tutil.check_close

let labels_align () =
  Alcotest.(check int) "8 paper metrics" 8 (Array.length Core.Robustness.labels)

let workload_aliases_build () =
  let rng = Core.Rng.create 1L in
  List.iter
    (fun (name, n) -> Alcotest.(check bool) name true (n > 0))
    [
      ("cholesky", Core.Graph.n_tasks (Core.Workload.cholesky ~tiles:3 ()));
      ("gauss", Core.Graph.n_tasks (Core.Workload.gauss_elim ~n:5 ()));
      ("random", Core.Graph.n_tasks (Core.Workload.random_dag ~rng ~n:12 ()));
      ("chain", Core.Graph.n_tasks (Core.Workload.chain ~n:4 ()));
      ("join", Core.Graph.n_tasks (Core.Workload.join ~n:4 ()));
      ("fork-join", Core.Graph.n_tasks (Core.Workload.fork_join ~width:4 ()));
      ("in-tree", Core.Graph.n_tasks (Core.Workload.in_tree ~depth:2 ()));
      ("out-tree", Core.Graph.n_tasks (Core.Workload.out_tree ~depth:2 ()));
      ("diamond", Core.Graph.n_tasks (Core.Workload.diamond ~rows:3 ()));
    ]

let all_heuristics_run () =
  let rng = Core.Rng.create 2L in
  let graph = Core.Workload.cholesky ~tiles:3 () in
  let platform =
    Core.Platform.Gen.uniform_minval ~rng ~n_tasks:(Core.Graph.n_tasks graph) ~n_procs:3 ()
  in
  let model = Core.Uncertainty.make ~ul:1.1 () in
  let run name s =
    let a = Core.analyze s platform model in
    Alcotest.(check bool) name true
      (a.Core.metrics.Core.Robustness.expected_makespan > 0.)
  in
  run "heft" (Core.Heuristics.heft graph platform);
  run "heft-best-rank" (Core.Heuristics.heft_with_rank ~rank:`Best graph platform);
  run "bil" (Core.Heuristics.bil graph platform);
  run "bmct" (Core.Heuristics.bmct graph platform);
  run "cpop" (Core.Heuristics.cpop graph platform);
  run "dls" (Core.Heuristics.dls graph platform);
  run "robust-heft" (Core.Heuristics.robust_heft graph platform model);
  Alcotest.(check int) "paper trio" 3 (List.length Core.Heuristics.all)

let analyze_methods_consistent () =
  let rng = Core.Rng.create 3L in
  let graph = Core.Workload.fork_join ~width:5 () in
  let platform =
    Core.Platform.Gen.uniform_minval ~rng ~n_tasks:(Core.Graph.n_tasks graph) ~n_procs:3 ()
  in
  let model = Core.Uncertainty.make ~ul:1.2 () in
  let sched = Core.Heuristics.heft graph platform in
  let means =
    List.map
      (fun backend ->
        (Core.analyze ~backend sched platform model).Core.metrics
          .Core.Robustness.expected_makespan)
      Core.Engine.analytic_backends
  in
  match means with
  | [ a; b; c ] ->
    check_close ~eps:0.02 "dodin" a b;
    check_close ~eps:0.02 "spelde" a c
  | _ -> Alcotest.fail "three methods"

let gantt_and_serialization_compose () =
  let rng = Core.Rng.create 4L in
  let graph = Core.Workload.gauss_elim ~n:5 () in
  let platform =
    Core.Platform.Gen.uniform_minval ~rng ~n_tasks:(Core.Graph.n_tasks graph) ~n_procs:2 ()
  in
  let sched = Core.Heuristics.heft graph platform in
  let text = Core.Schedule.to_string sched in
  Alcotest.(check (list string)) "one line per processor" [ "p0"; "p1"; "" ]
    (List.map (fun l -> List.hd (String.split_on_char ':' l)) (String.split_on_char '\n' text));
  let times = Core.Simulator.deterministic sched platform in
  Alcotest.(check bool) "gantt renders" true
    (String.length (Core.Gantt.render sched times) > 50)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "core"
    [
      ( "facade",
        [
          tc "labels" `Quick labels_align;
          tc "workload aliases" `Quick workload_aliases_build;
          tc "heuristic aliases" `Quick all_heuristics_run;
          tc "methods consistent" `Quick analyze_methods_consistent;
          tc "gantt/serialization" `Quick gantt_and_serialization_compose;
        ] );
    ]
