(* Scheduling suites: schedule representation, eager simulation,
   disjunctive graphs, slack, random schedules and the four heuristics. *)

let check_close = Tutil.check_close

(* a 4-task diamond with unit volumes *)
let diamond = Dag.Graph.make ~n:4 ~edges:[ (0, 1, 1.); (0, 2, 1.); (1, 3, 1.); (2, 3, 1.) ]

let two_proc_platform () =
  (* homogeneous 2 procs, etc 10 everywhere, tau 2, latency 0 *)
  Platform.make
    ~etc:(Array.make_matrix 4 2 10.)
    ~tau:[| [| 0.; 2. |]; [| 2.; 0. |] |]
    ~latency:[| [| 0.; 0. |]; [| 0.; 0. |] |]

(* --- Schedule --- *)

let make_valid_schedule () =
  let s =
    Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 1; 0 |]
      ~order:[| [| 0; 1; 3 |]; [| 2 |] |]
  in
  Alcotest.(check int) "tasks" 4 (Sched.Schedule.n_tasks s);
  Alcotest.(check (option int)) "proc pred of 1" (Some 0) (Sched.Schedule.proc_pred s 1);
  Alcotest.(check (option int)) "proc pred of 0" None (Sched.Schedule.proc_pred s 0);
  Alcotest.(check (option int)) "proc succ of 1" (Some 3) (Sched.Schedule.proc_succ s 1);
  Alcotest.(check (option int)) "proc succ of 3" None (Sched.Schedule.proc_succ s 3);
  Alcotest.(check (array int)) "proc 1 tasks" [| 2 |] s.Sched.Schedule.order.(1)

let schedule_validation () =
  let expect msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect "task twice" (fun () ->
      Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 1; 0 |]
        ~order:[| [| 0; 1; 1 |]; [| 2 |] |]);
  expect "missing task" (fun () ->
      Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 1; 0 |]
        ~order:[| [| 0; 1 |]; [| 2 |] |]);
  expect "order vs proc_of" (fun () ->
      Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 0; 0 |]
        ~order:[| [| 0; 1; 3 |]; [| 2 |] |]);
  (* precedence deadlock: 3 before 1 on the same processor while 1 → 3 *)
  expect "deadlock" (fun () ->
      Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 1; 0 |]
        ~order:[| [| 3; 0; 1 |]; [| 2 |] |])

let of_assignment_sequence_builds () =
  let s =
    Sched.Schedule.of_assignment_sequence ~graph:diamond ~n_procs:2
      [ (0, 0); (2, 1); (1, 0); (3, 0) ]
  in
  Alcotest.(check (array int)) "proc 0 order" [| 0; 1; 3 |] s.Sched.Schedule.order.(0)

(* --- Simulator --- *)

let eager_times_hand_computed () =
  (* proc0: 0, 1, 3; proc1: 2. etc 10, comm = volume·2 = 2 cross.
     start0=0 f=10; task2 on p1: start = 10+2 = 12, f=22;
     task1 on p0: start = 10 (no comm same proc), f=20;
     task3 on p0: preds 1 (f=20, same proc), 2 (f=22 +2 comm = 24); proc pred 1 → 20.
     start3 = 24, f=34. *)
  let s =
    Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 1; 0 |]
      ~order:[| [| 0; 1; 3 |]; [| 2 |] |]
  in
  let t = Sched.Simulator.deterministic s (two_proc_platform ()) in
  check_close "start 0" 0. t.Sched.Simulator.start.(0);
  check_close "finish 0" 10. t.Sched.Simulator.finish.(0);
  check_close "start 2" 12. t.Sched.Simulator.start.(2);
  check_close "start 1" 10. t.Sched.Simulator.start.(1);
  check_close "start 3" 24. t.Sched.Simulator.start.(3);
  check_close "makespan" 34. t.Sched.Simulator.makespan

let eager_times_with_latency () =
  (* nonzero latency: comm = latency + volume·τ = 3 + 1·2 = 5 *)
  let p =
    Platform.make
      ~etc:(Array.make_matrix 4 2 10.)
      ~tau:[| [| 0.; 2. |]; [| 2.; 0. |] |]
      ~latency:[| [| 0.; 3. |]; [| 3.; 0. |] |]
  in
  let s =
    Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 1; 0 |]
      ~order:[| [| 0; 1; 3 |]; [| 2 |] |]
  in
  let t = Sched.Simulator.deterministic s p in
  (* task 2 on p1: start = 10 + 5 = 15, finish 25; arrival at 3 = 25 + 5 = 30 *)
  check_close "start 2" 15. t.Sched.Simulator.start.(2);
  check_close "start 3" 30. t.Sched.Simulator.start.(3);
  check_close "makespan" 40. t.Sched.Simulator.makespan

let single_proc_chain_makespan () =
  (* on one processor the makespan is the sum of all durations *)
  let g = Workloads.Classic.chain ~n:5 () in
  let p =
    Platform.make ~etc:(Array.make_matrix 5 1 3.) ~tau:[| [| 0. |] |]
      ~latency:[| [| 0. |] |]
  in
  let s =
    Sched.Schedule.make ~graph:g ~n_procs:1 ~proc_of:(Array.make 5 0)
      ~order:[| [| 0; 1; 2; 3; 4 |] |]
  in
  check_close "sum" 15. (Sched.Simulator.deterministic s p).Sched.Simulator.makespan

let eager_no_overlap_and_precedence =
  Tutil.qcheck ~count:100 "eager times respect processor exclusivity and precedence"
    Tutil.random_scheduled_gen
    (fun (graph, platform, sched) ->
      let t = Sched.Simulator.deterministic sched platform in
      let ok = ref true in
      (* precedence + communication *)
      Array.iter
        (fun (u, v, volume) ->
          let src = sched.Sched.Schedule.proc_of.(u)
          and dst = sched.Sched.Schedule.proc_of.(v) in
          let arrival =
            t.Sched.Simulator.finish.(u) +. Platform.comm_time platform ~src ~dst ~volume
          in
          if t.Sched.Simulator.start.(v) < arrival -. 1e-9 then ok := false)
        (Dag.Graph.edges graph);
      (* processor order *)
      for v = 0 to Dag.Graph.n_tasks graph - 1 do
        match Sched.Schedule.proc_pred sched v with
        | Some u ->
          if t.Sched.Simulator.start.(v) < t.Sched.Simulator.finish.(u) -. 1e-9 then
            ok := false
        | None -> ()
      done;
      !ok)

let eager_starts_are_tight =
  (* eagerness: each start equals the max of its constraints exactly *)
  Tutil.qcheck ~count:100 "eager starts are as early as possible"
    Tutil.random_scheduled_gen
    (fun (graph, platform, sched) ->
      let t = Sched.Simulator.deterministic sched platform in
      let ok = ref true in
      for v = 0 to Dag.Graph.n_tasks graph - 1 do
        let bound = ref 0. in
        (match Sched.Schedule.proc_pred sched v with
        | Some u -> bound := t.Sched.Simulator.finish.(u)
        | None -> ());
        Array.iter
          (fun (u, volume) ->
            let src = sched.Sched.Schedule.proc_of.(u)
            and dst = sched.Sched.Schedule.proc_of.(v) in
            let a =
              t.Sched.Simulator.finish.(u) +. Platform.comm_time platform ~src ~dst ~volume
            in
            if a > !bound then bound := a)
          (Dag.Graph.preds graph v);
        if Float.abs (t.Sched.Simulator.start.(v) -. !bound) > 1e-9 then ok := false
      done;
      !ok)

let mean_times_above_deterministic =
  Tutil.qcheck ~count:50 "mean-duration makespan >= deterministic (UL >= 1)"
    Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let model = Workloads.Stochastify.make ~ul:1.3 () in
      let det = (Sched.Simulator.deterministic sched platform).Sched.Simulator.makespan in
      let mean = (Sched.Simulator.mean_times sched platform model).Sched.Simulator.makespan in
      mean >= det -. 1e-9)

let sampled_within_bounds =
  Tutil.qcheck ~count:30 "sampled makespan within [det, det·UL]"
    Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let ul = 1.2 in
      let model = Workloads.Stochastify.make ~ul () in
      let rng = Tutil.rng_of_seed 5 in
      let det = (Sched.Simulator.deterministic sched platform).Sched.Simulator.makespan in
      Array.for_all
        (fun s -> s >= det -. 1e-9 && s <= (det *. ul) +. 1e-9)
        (Makespan.Montecarlo.realizations ~rng ~count:4 sched platform model))

(* --- Disjunctive --- *)

let disjunctive_adds_proc_edges () =
  let s =
    Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 1; 0 |]
      ~order:[| [| 0; 1; 3 |]; [| 2 |] |]
  in
  let dg = (Sched.Disjunctive.graph_of s).Sched.Disjunctive.graph in
  (* 0→1 and 1→3 already exist as DAG edges, so only... 0→1 exists, 1→3 exists:
     no new edges on proc 0; proc 1 has a single task *)
  Alcotest.(check int) "no duplicate edges" 4 (Dag.Graph.n_edges dg);
  let s2 =
    Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 0; 0 |]
      ~order:[| [| 0; 2; 1; 3 |]; [||] |]
  in
  let dg2 = (Sched.Disjunctive.graph_of s2).Sched.Disjunctive.graph in
  (* adds 2→1 (not a DAG edge); 0→2 and 1→3 already exist *)
  Alcotest.(check int) "adds 2->1" 5 (Dag.Graph.n_edges dg2);
  Alcotest.(check bool) "edge present" true (Dag.Graph.has_edge dg2 ~src:2 ~dst:1)

let disjunctive_makespan_matches_simulator =
  Tutil.qcheck ~count:100 "longest path of disjunctive graph = eager makespan"
    Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let model = Workloads.Stochastify.deterministic in
      let dg = (Sched.Disjunctive.graph_of sched).Sched.Disjunctive.graph in
      let w = Sched.Disjunctive.weights sched platform model in
      let lp = Dag.Levels.makespan dg w in
      let sim = (Sched.Simulator.deterministic sched platform).Sched.Simulator.makespan in
      Float.abs (lp -. sim) < 1e-6)

(* The merged graph against [Dag.Graph.make] of both edge sets, field by
   field, and every data-edge record against a volume lookup in the
   schedule's own DAG. *)
let disjunctive_equals_reference sched =
  let base = sched.Sched.Schedule.graph in
  let n = Dag.Graph.n_tasks base in
  let order_edges =
    Array.to_list sched.Sched.Schedule.order
    |> List.concat_map (fun row ->
           List.init
             (max 0 (Array.length row - 1))
             (fun i -> (row.(i), row.(i + 1), 0.))
           |> List.filter (fun (u, v, _) -> not (Dag.Graph.has_edge base ~src:u ~dst:v)))
  in
  let reference =
    Dag.Graph.make ~n ~edges:(Array.to_list (Dag.Graph.edges base) @ order_edges)
  in
  let { Sched.Disjunctive.graph = g; data } = Sched.Disjunctive.graph_of sched in
  let base_edges = Dag.Graph.edges base in
  let rows_equal f = List.for_all (fun v -> f g v = f reference v) (List.init n Fun.id) in
  rows_equal Dag.Graph.preds && rows_equal Dag.Graph.succs
  && Dag.Graph.topo_order g = Dag.Graph.topo_order reference
  && Dag.Graph.exits g = Dag.Graph.exits reference
  && Dag.Graph.n_edges g = Dag.Graph.n_edges reference
  && Dag.Graph.edges g = Dag.Graph.edges reference
  && List.for_all
       (fun v ->
         let preds = Dag.Graph.preds g v in
         Array.length data.(v) = Array.length preds
         && Array.for_all2
              (fun (p, volume) e ->
                match Dag.Graph.volume base ~src:p ~dst:v with
                | None -> e = -1
                | Some vol -> e >= 0 && vol = volume && base_edges.(e) = (p, v, vol))
              preds data.(v))
       (List.init n Fun.id)

(* HEFT, a few random schedules and a chain of random moves and swaps
   from each *)
let disjunctive_schedules ~rng graph platform =
  let n_procs = Platform.n_procs platform in
  let starts =
    Sched.Heft.schedule graph platform
    :: List.init 3 (fun _ -> Sched.Random_sched.generate ~rng ~graph ~n_procs)
  in
  List.concat_map
    (fun s0 ->
      let rec walk s k acc =
        if k = 0 then acc
        else
          let s' =
            if k mod 2 = 0 then Sched.Neighbor.apply s (Sched.Neighbor.random ~rng s)
            else
              match Sched.Neighbor.random_swap ~rng s with
              | Some sw -> Option.value (Sched.Neighbor.apply_swap_opt s sw) ~default:s
              | None -> s
          in
          walk s' (k - 1) (s' :: acc)
      in
      walk s0 6 [ s0 ])
    starts

let disjunctive_cases =
  let module C = Experiments.Case in
  [
    ("random30/p8", C.make ~kind:C.Random_graph ~n_target:30 ~n_procs:8 ~ul:1.1 ~seed:1L ());
    ("cholesky10/p3", C.make ~kind:C.Cholesky ~n_target:10 ~n_procs:3 ~ul:1.1 ~seed:1L ());
    ("gauss104/p16", C.make ~kind:C.Gauss_elim ~n_target:104 ~n_procs:16 ~ul:1.1 ~seed:1L ());
  ]

let disjunctive_merge_on_cases () =
  let rng = Tutil.rng_of_seed 27 in
  List.iter
    (fun (name, case) ->
      let inst = Experiments.Case.instantiate case in
      List.iteri
        (fun i s ->
          Alcotest.(check bool) (Printf.sprintf "%s schedule %d" name i) true
            (disjunctive_equals_reference s))
        (disjunctive_schedules ~rng inst.Experiments.Case.graph
           inst.Experiments.Case.platform))
    disjunctive_cases

let disjunctive_merge_on_random_dags =
  Tutil.qcheck ~count:100 "merged graph = make of both edge sets" Tutil.random_scheduled_gen
    (fun (graph, platform, sched) ->
      let rng = Tutil.rng_of_seed (Dag.Graph.n_edges graph) in
      disjunctive_equals_reference sched
      && List.for_all disjunctive_equals_reference
           (disjunctive_schedules ~rng graph platform))

(* Blocks above the minor heap's size limit go straight to the major
   heap; building the disjunctive graph should allocate none. *)
let disjunctive_no_direct_major_words () =
  let inst = Experiments.Case.instantiate (List.assoc "random30/p8" disjunctive_cases) in
  let sched = Sched.Heft.schedule inst.Experiments.Case.graph inst.Experiments.Case.platform in
  ignore (Sys.opaque_identity (Sched.Disjunctive.graph_of sched));
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to 20 do
    ignore (Sys.opaque_identity (Sched.Disjunctive.graph_of sched))
  done;
  let _, promoted1, major1 = Gc.counters () in
  Alcotest.(check (float 0.)) "direct major words" 0.
    (major1 -. major0 -. (promoted1 -. promoted0))

(* --- Slack --- *)

let slack_chain_is_zero () =
  (* all tasks on one processor: every task critical, zero slack *)
  let g = Workloads.Classic.chain ~n:4 () in
  let p =
    Platform.make ~etc:(Array.make_matrix 4 1 5.) ~tau:[| [| 0. |] |]
      ~latency:[| [| 0. |] |]
  in
  let s =
    Sched.Schedule.make ~graph:g ~n_procs:1 ~proc_of:(Array.make 4 0)
      ~order:[| [| 0; 1; 2; 3 |] |]
  in
  let slack = Sched.Slack.compute s p Workloads.Stochastify.deterministic in
  check_close "total" 0. slack.Sched.Slack.total;
  check_close "std" 0. slack.Sched.Slack.std;
  check_close "makespan" 20. slack.Sched.Slack.makespan

let slack_idle_task_has_window () =
  (* two independent tasks of different lengths on two procs + join *)
  let g = Dag.Graph.make ~n:3 ~edges:[ (0, 2, 0.); (1, 2, 0.) ] in
  let p =
    Platform.make
      ~etc:[| [| 10.; 10. |]; [| 4.; 4. |]; [| 1.; 1. |] |]
      ~tau:[| [| 0.; 0. |]; [| 0.; 0. |] |]
      ~latency:[| [| 0.; 0. |]; [| 0.; 0. |] |]
  in
  let s =
    Sched.Schedule.make ~graph:g ~n_procs:2 ~proc_of:[| 0; 1; 0 |]
      ~order:[| [| 0; 2 |]; [| 1 |] |]
  in
  let slack = Sched.Slack.compute s p Workloads.Stochastify.deterministic in
  (* task 1 can slip by 10 − 4 = 6 *)
  check_close "short task slack" 6. slack.Sched.Slack.per_task.(1);
  check_close "critical slack" 0. slack.Sched.Slack.per_task.(0);
  check_close "total" 6. slack.Sched.Slack.total

let slack_modes_differ_on_serialized () =
  (* a serialized schedule: zero disjunctive slack, big precedence slack *)
  let g = Dag.Graph.make ~n:3 ~edges:[ (0, 2, 0.); (1, 2, 0.) ] in
  let p =
    Platform.make
      ~etc:(Array.make_matrix 3 2 10.)
      ~tau:[| [| 0.; 0. |]; [| 0.; 0. |] |]
      ~latency:[| [| 0.; 0. |]; [| 0.; 0. |] |]
  in
  let s =
    Sched.Schedule.make ~graph:g ~n_procs:2 ~proc_of:[| 0; 0; 0 |]
      ~order:[| [| 0; 1; 2 |]; [||] |]
  in
  let dis = Sched.Slack.compute ~mode:`Disjunctive s p Workloads.Stochastify.deterministic in
  let pre = Sched.Slack.compute ~mode:`Precedence s p Workloads.Stochastify.deterministic in
  check_close "disjunctive zero" 0. dis.Sched.Slack.total;
  Alcotest.(check bool) "precedence positive" true (pre.Sched.Slack.total > 1.)

let slack_nonnegative =
  Tutil.qcheck ~count:100 "slacks are non-negative in both modes"
    Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let model = Workloads.Stochastify.make ~ul:1.1 () in
      List.for_all
        (fun mode ->
          let s = Sched.Slack.compute ~mode sched platform model in
          Array.for_all (fun x -> x >= 0.) s.Sched.Slack.per_task)
        [ `Disjunctive; `Precedence ])

(* --- Random_sched --- *)

let random_schedules_valid =
  Tutil.qcheck ~count:100 "random schedules validate" Tutil.random_dag_gen (fun g ->
      let rng = Tutil.rng_of_seed (Dag.Graph.n_tasks g) in
      let s = Sched.Random_sched.generate ~rng ~graph:g ~n_procs:3 in
      (* Schedule.make validates internally; run the simulator too *)
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      (Sched.Simulator.deterministic s p).Sched.Simulator.makespan > 0.)

let random_schedules_distinct () =
  let g = Workloads.Cholesky.generate ~tiles:4 () in
  let rng = Tutil.rng_of_seed 10 in
  let ss = Sched.Random_sched.generate_many ~rng ~graph:g ~n_procs:4 ~count:20 in
  let distinct =
    List.length
      (List.sort_uniq compare
         (List.map (fun s -> Array.to_list s.Sched.Schedule.proc_of) ss))
  in
  Alcotest.(check bool) "mostly distinct" true (distinct > 15)

(* --- Heuristics --- *)

let heuristics =
  [ ("heft", fun g p -> Sched.Heft.schedule g p); ("bil", Sched.Bil.schedule);
    ("bmct", Sched.Bmct.schedule); ("cpop", Sched.Cpop.schedule);
    ("dls", Sched.Dls.schedule); ("peft", Sched.Peft.schedule);
    ("heft-la", Sched.Heft_la.schedule);
    ("iheft", fun g p -> Sched.Iheft.schedule g p) ]

let heuristics_produce_valid_schedules =
  Tutil.qcheck ~count:50 "heuristic schedules validate and simulate"
    Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 123 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      List.for_all
        (fun (_, h) ->
          let s = h g p in
          (Sched.Simulator.deterministic s p).Sched.Simulator.makespan > 0.)
        heuristics)

let heuristics_beat_random_on_average () =
  let rng = Tutil.rng_of_seed 2024 in
  let g = Workloads.Cholesky.generate ~tiles:4 () in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:4 () in
  let randoms = Sched.Random_sched.generate_many ~rng ~graph:g ~n_procs:4 ~count:50 in
  let mk s = (Sched.Simulator.deterministic s p).Sched.Simulator.makespan in
  let avg_random =
    List.fold_left (fun acc s -> acc +. mk s) 0. randoms /. 50.
  in
  List.iter
    (fun (name, h) ->
      let m = mk (h g p) in
      Alcotest.(check bool) (name ^ " beats random average") true (m < avg_random))
    heuristics

let heft_single_proc_is_serial () =
  let g = Workloads.Classic.chain ~n:4 () in
  let p =
    Platform.make ~etc:(Array.make_matrix 4 1 2.) ~tau:[| [| 0. |] |]
      ~latency:[| [| 0. |] |]
  in
  let s = Sched.Heft.schedule g p in
  check_close "serial sum" 8. (Sched.Simulator.deterministic s p).Sched.Simulator.makespan

let heft_ranks_decrease_along_edges =
  Tutil.qcheck ~count:50 "upward rank strictly decreases along edges"
    Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 9 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:2 ()
      in
      let ranks = Sched.Components.upward_ranks g p in
      Array.for_all (fun (u, v, _) -> ranks.(u) > ranks.(v)) (Dag.Graph.edges g))

let heft_prefers_fast_processor () =
  (* a single task must go to its fastest processor *)
  let g = Dag.Graph.make ~n:1 ~edges:[] in
  let p =
    Platform.make ~etc:[| [| 10.; 2. |] |] ~tau:[| [| 0.; 1. |]; [| 1.; 0. |] |]
      ~latency:[| [| 0.; 0. |]; [| 0.; 0. |] |]
  in
  let s = Sched.Heft.schedule g p in
  Alcotest.(check int) "fast proc" 1 s.Sched.Schedule.proc_of.(0)

let heft_insertion_fills_gap () =
  (* task 2 (independent, short) should slot into the idle gap on proc 0
     created while task 1's data travels *)
  let g = Dag.Graph.make ~n:3 ~edges:[ (0, 1, 10.) ] in
  let p =
    Platform.make
      ~etc:[| [| 4.; 100. |]; [| 4.; 100. |]; [| 3.; 100. |] |]
      ~tau:[| [| 0.; 1. |]; [| 1.; 0. |] |]
      ~latency:[| [| 0.; 0. |]; [| 0.; 0. |] |]
  in
  let s = Sched.Heft.schedule g p in
  (* all on proc 0 (proc 1 is terrible); insertion lets 2 run between 0 and 1 *)
  Alcotest.(check int) "task2 proc" 0 s.Sched.Schedule.proc_of.(2);
  let t = Sched.Simulator.deterministic s p in
  Alcotest.(check bool) "no idle wasted" true (t.Sched.Simulator.makespan <= 11.01)

let heft_rank_policies_all_valid =
  Tutil.qcheck ~count:30 "HEFT rank variants all produce valid schedules"
    Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 19 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      List.for_all
        (fun rank ->
          let s = Sched.Heft.schedule ~rank g p in
          (Sched.Simulator.deterministic s p).Sched.Simulator.makespan > 0.)
        [ `Mean; `Best; `Worst ])

let heft_rank_policies_order_weights () =
  (* on each task: best <= mean <= worst collapsed cost *)
  let rng = Tutil.rng_of_seed 20 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:4 ~n_procs:3 () in
  let wb = Sched.Components.average_weights ~rank:`Best p in
  let wm = Sched.Components.average_weights ~rank:`Mean p in
  let ww = Sched.Components.average_weights ~rank:`Worst p in
  for v = 0 to 3 do
    Alcotest.(check bool) "ordering" true
      (wb.Dag.Levels.task v <= wm.Dag.Levels.task v
      && wm.Dag.Levels.task v <= ww.Dag.Levels.task v)
  done

let bil_levels_at_exits () =
  (* BIL(exit, p) = w(exit, p) *)
  let g = diamond in
  let p = two_proc_platform () in
  let levels = Sched.Components.bil_table g p in
  check_close "exit level p0" 10. levels.(3).(0);
  check_close "exit level p1" 10. levels.(3).(1)

let bil_levels_monotone () =
  (* BIL of an ancestor exceeds that of its descendants (positive weights) *)
  let g = diamond in
  let p = two_proc_platform () in
  let levels = Sched.Components.bil_table g p in
  Alcotest.(check bool) "entry > exit" true (levels.(0).(0) > levels.(3).(0))

let bmct_groups_are_independent =
  Tutil.qcheck ~count:50 "BMCT groups contain no dependent pair" Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 11 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      let groups = Sched.Bmct.groups g p in
      List.for_all
        (fun group ->
          List.for_all
            (fun u ->
              List.for_all
                (fun v ->
                  u = v
                  || not
                       (Dag.Graph.has_edge g ~src:u ~dst:v
                       || Dag.Graph.has_edge g ~src:v ~dst:u))
                group)
            group)
        groups)

let bmct_groups_cover_all_tasks =
  Tutil.qcheck ~count:50 "BMCT groups partition the task set" Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 12 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      let all = List.concat (Sched.Bmct.groups g p) in
      List.sort_uniq compare all = List.init (Dag.Graph.n_tasks g) Fun.id)

let dls_static_levels_monotone =
  Tutil.qcheck ~count:50 "DLS static levels decrease along edges" Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 18 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      let sl = Sched.Components.static_levels g p in
      Array.for_all (fun (u, v, _) -> sl.(u) > sl.(v)) (Dag.Graph.edges g))

let dls_single_task_fast_proc () =
  let g = Dag.Graph.make ~n:1 ~edges:[] in
  let p =
    Platform.make ~etc:[| [| 10.; 2. |] |] ~tau:[| [| 0.; 1. |]; [| 1.; 0. |] |]
      ~latency:[| [| 0.; 0. |]; [| 0.; 0. |] |]
  in
  let s = Sched.Dls.schedule g p in
  Alcotest.(check int) "fast proc" 1 s.Sched.Schedule.proc_of.(0)

let robust_heft_valid_and_degenerates =
  Tutil.qcheck ~count:30 "RobustHEFT schedules validate; κ=0 ≈ HEFT-on-means"
    Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 17 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      let model = Workloads.Stochastify.make ~ul:1.2 () in
      let s = Sched.Robust_heft.schedule ~kappa:1. g p model in
      let s0 = Sched.Robust_heft.schedule ~kappa:0. g p model in
      (Sched.Simulator.deterministic s p).Sched.Simulator.makespan > 0.
      && (Sched.Simulator.deterministic s0 p).Sched.Simulator.makespan > 0.)

let robust_heft_weights_grow_with_kappa () =
  let g = diamond in
  let p = two_proc_platform () in
  let model = Workloads.Stochastify.make ~ul:1.5 () in
  let w0 = Sched.Robust_heft.risk_adjusted_weights ~kappa:0. p model in
  let w2 = Sched.Robust_heft.risk_adjusted_weights ~kappa:2. p model in
  let volume = Option.get (Dag.Graph.volume g ~src:0 ~dst:1) in
  Alcotest.(check bool) "task cost grows" true
    (w2.Dag.Levels.task 0 > w0.Dag.Levels.task 0);
  Alcotest.(check bool) "edge cost grows" true
    (w2.Dag.Levels.edge 0 1 volume > w0.Dag.Levels.edge 0 1 volume)

let robust_heft_rejects_negative_kappa () =
  let g = diamond in
  let p = two_proc_platform () in
  let model = Workloads.Stochastify.make ~ul:1.1 () in
  Alcotest.(check bool) "rejects" true
    (match Sched.Robust_heft.schedule ~kappa:(-1.) g p model with
    | exception Invalid_argument _ -> true
    | _ -> false)

let gantt_renders () =
  let s =
    Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 1; 0 |]
      ~order:[| [| 0; 1; 3 |]; [| 2 |] |]
  in
  let t = Sched.Simulator.deterministic s (two_proc_platform ()) in
  let out = Sched.Gantt.render s t in
  Alcotest.(check bool) "has rows" true
    (String.length out > 100
    && String.split_on_char '\n' out |> List.exists (fun l -> String.length l > 0))

(* --- Golden equivalence: recomposed heuristics vs frozen legacy outputs --- *)

(* The fixtures under golden/ were generated by the pre-refactor
   monolithic implementations on these exact cases; the framework
   recompositions must reproduce them byte for byte. *)
let golden_cases =
  let module E = Experiments in
  [
    ( "random30",
      E.Case.make ~kind:E.Case.Random_graph ~n_target:30 ~n_procs:8 ~ul:1.1 ~seed:2L () );
    ("chol30", E.Case.make ~kind:E.Case.Cholesky ~n_target:30 ~n_procs:3 ~ul:1.01 ~seed:1L ());
    ("ge35", E.Case.make ~kind:E.Case.Gauss_elim ~n_target:35 ~n_procs:4 ~ul:1.1 ~seed:1L ());
  ]

let golden_heuristics =
  [
    ("heft", fun g p -> Sched.Heft.schedule g p);
    ("heft-best", fun g p -> Sched.Heft.schedule ~rank:`Best g p);
    ("heft-worst", fun g p -> Sched.Heft.schedule ~rank:`Worst g p);
    ("cpop", Sched.Cpop.schedule);
    ("dls", Sched.Dls.schedule);
    ("bil", Sched.Bil.schedule);
    ("bmct", Sched.Bmct.schedule);
  ]

let golden_equivalence () =
  List.iter
    (fun (cname, case) ->
      let inst = Experiments.Case.instantiate case in
      List.iter
        (fun (hname, h) ->
          let label = hname ^ "__" ^ cname in
          let s = h inst.Experiments.Case.graph inst.Experiments.Case.platform in
          Tutil.check_valid ~msg:label s;
          let expected = Tutil.read_file (Filename.concat (Tutil.golden_dir ()) (label ^ ".txt")) in
          Alcotest.(check string) label expected (Sched.Schedule.to_string s))
        golden_heuristics)
    golden_cases

(* --- New heuristics: PEFT, HEFT-LA, IHEFT --- *)

let peft_oct_hand_computed () =
  (* diamond, etc 10 everywhere, unit volumes, tau 2, latency 0 so the
     averaged edge cost is 2. OCT(3,·) = 0; OCT(1,p) = OCT(2,p) =
     min(0 + 10 + 0, 0 + 10 + 2) = 10; OCT(0,p) =
     max over children of min(10 + 10 + 0, 10 + 10 + 2) = 20. *)
  let g = diamond in
  let p = two_proc_platform () in
  let oct = Sched.Components.oct_table g p in
  for q = 0 to 1 do
    check_close (Printf.sprintf "oct(3,%d)" q) 0. oct.(3).(q);
    check_close (Printf.sprintf "oct(1,%d)" q) 10. oct.(1).(q);
    check_close (Printf.sprintf "oct(2,%d)" q) 10. oct.(2).(q);
    check_close (Printf.sprintf "oct(0,%d)" q) 20. oct.(0).(q)
  done

let peft_oct_zero_at_exits =
  Tutil.qcheck ~count:50 "PEFT OCT is zero on exit tasks, positive upstream"
    Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 23 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      let oct = Sched.Components.oct_table g p in
      let ok = ref true in
      for v = 0 to Dag.Graph.n_tasks g - 1 do
        let exit = Array.length (Dag.Graph.succs g v) = 0 in
        Array.iter
          (fun x ->
            if exit then (if x <> 0. then ok := false)
            else if x <= 0. then ok := false)
          oct.(v)
      done;
      !ok)

let new_heuristics_valid =
  Tutil.qcheck ~count:50 "PEFT/HEFT-LA/IHEFT schedules validate and simulate"
    Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 29 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      List.for_all
        (fun (name, h) ->
          let s = h g p in
          Tutil.check_valid ~msg:name s;
          (Sched.Simulator.deterministic s p).Sched.Simulator.makespan > 0.)
        [
          ("peft", Sched.Peft.schedule);
          ("heft-la", Sched.Heft_la.schedule);
          ("iheft", fun g p -> Sched.Iheft.schedule g p);
        ])

(* IHEFT threshold rule on a hand-built two-task instance: task 1 is
   heavy and homogeneous (ranked first, placed on p0); task 0 then sees
   EFT 11 on p0 (blocked) vs 2.9 on p1, while its locally fastest
   processor is p0 (etc 1 < 2.9). The cross-over takes p0 with
   probability θ/(1+Δ) = 0.5/(1 + 8.1/2.9) ≈ 0.13. *)
let iheft_crossover_graph () = Dag.Graph.make ~n:2 ~edges:[]

let iheft_crossover_platform () =
  Platform.make
    ~etc:[| [| 1.; 2.9 |]; [| 10.; 10. |] |]
    ~tau:[| [| 0.; 0. |]; [| 0.; 0. |] |]
    ~latency:[| [| 0.; 0. |]; [| 0.; 0. |] |]

let iheft_deterministic_per_seed () =
  let g = iheft_crossover_graph () and p = iheft_crossover_platform () in
  for seed = 1 to 5 do
    let seed = Int64.of_int seed in
    let a = Sched.Iheft.schedule ~seed g p in
    let b = Sched.Iheft.schedule ~seed g p in
    Alcotest.(check string)
      (Printf.sprintf "seed %Ld reproducible" seed)
      (Sched.Schedule.to_string a) (Sched.Schedule.to_string b)
  done

let iheft_threshold_rule_explores () =
  let g = iheft_crossover_graph () and p = iheft_crossover_platform () in
  (* heavy task always on p0; task 0 lands on p0 (local) for ~13% of
     seeds and on p1 (global EFT) otherwise — both must occur *)
  let local = ref 0 and global = ref 0 in
  for seed = 0 to 199 do
    let s = Sched.Iheft.schedule ~seed:(Int64.of_int seed) g p in
    Alcotest.(check int) "heavy task pinned" 0 s.Sched.Schedule.proc_of.(1);
    if s.Sched.Schedule.proc_of.(0) = 0 then incr local else incr global
  done;
  Alcotest.(check bool) "local branch taken" true (!local > 0);
  Alcotest.(check bool) "global branch taken" true (!global > 0);
  Alcotest.(check bool) "global branch dominates" true (!global > !local)

let iheft_huge_penalty_never_crosses () =
  (* p1 enormously slower for task 0: Δ explodes, the cross-over
     probability collapses and every seed picks the global EFT proc *)
  let g = iheft_crossover_graph () in
  let p =
    Platform.make
      ~etc:[| [| 1.; 2.9 |]; [| 1000.; 1000. |] |]
      ~tau:[| [| 0.; 0. |]; [| 0.; 0. |] |]
      ~latency:[| [| 0.; 0. |]; [| 0.; 0. |] |]
  in
  for seed = 0 to 49 do
    let s = Sched.Iheft.schedule ~seed:(Int64.of_int seed) g p in
    Alcotest.(check int)
      (Printf.sprintf "seed %d picks global EFT" seed)
      1 s.Sched.Schedule.proc_of.(0)
  done

(* --- Registry --- *)

let registry_named_entries () =
  let names = Sched.Registry.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names);
      match Sched.Registry.find n with
      | Some e -> Alcotest.(check string) "canonical name" n e.Sched.Registry.name
      | None -> Alcotest.failf "find %s failed" n)
    [ "HEFT"; "CPOP"; "DLS"; "BIL"; "Hyb.BMCT"; "PEFT"; "HEFT-LA"; "IHEFT" ];
  (match Sched.Registry.find "bmct" with
  | Some e -> Alcotest.(check string) "alias resolves" "Hyb.BMCT" e.Sched.Registry.name
  | None -> Alcotest.fail "alias bmct not found");
  Alcotest.(check bool) "unknown is None" true (Sched.Registry.find "nope" = None)

let registry_combo_matches_named () =
  (* the ad-hoc composition equal to HEFT's spec must reproduce HEFT *)
  let inst = Experiments.Case.instantiate (List.assoc "chol30" golden_cases) in
  let g = inst.Experiments.Case.graph and p = inst.Experiments.Case.platform in
  match Sched.Registry.parse "rank=upward:mean,select=eft,insert=insertion,tie=id" with
  | Error e -> Alcotest.failf "combo rejected: %s" e
  | Ok entry ->
    Alcotest.(check string) "combo = HEFT"
      (Sched.Schedule.to_string (Sched.Heft.schedule g p))
      (Sched.Schedule.to_string (entry.Sched.Registry.run g p))

let registry_rejects_malformed () =
  let expect s =
    match Sched.Registry.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  expect "nope";
  expect "rank=upward";
  expect "select=bogus";
  expect "rank=bogus,select=eft";
  expect "select=eft,rank=upward:meh";
  expect "select=bim,rank=oct";
  expect "select=oeft,rank=upward";
  expect "select=eft,insert=maybe";
  expect "select=eft,tie=seeded:xyz";
  expect "select=eft,select=eft";
  expect "select=eft,color=red"

let registry_entries_all_valid =
  Tutil.qcheck ~count:30 "every registry entry yields a valid schedule"
    Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 31 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      List.for_all
        (fun e ->
          let s = e.Sched.Registry.run g p in
          Tutil.check_valid ~msg:e.Sched.Registry.name s;
          (Sched.Simulator.deterministic s p).Sched.Simulator.makespan > 0.)
        Sched.Registry.entries)

let registry_combos_valid =
  Tutil.qcheck ~count:20 "ad-hoc compositions yield valid schedules"
    Tutil.random_dag_gen
    (fun g ->
      let rng = Tutil.rng_of_seed 37 in
      let p =
        Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:3 ()
      in
      List.for_all
        (fun combo ->
          match Sched.Registry.parse combo with
          | Error e -> Alcotest.failf "combo %S rejected: %s" combo e
          | Ok entry ->
            let s = entry.Sched.Registry.run g p in
            Tutil.check_valid ~msg:combo s;
            (Sched.Simulator.deterministic s p).Sched.Simulator.makespan > 0.)
        [
          "rank=upward:best,select=eft,insert=append";
          "rank=static-level,select=eft";
          "rank=oct,select=oeft,insert=append";
          "rank=bil,select=bim,insert=insertion";
          "rank=updown:worst,select=cp-pin";
          "rank=het-upward,select=lookahead";
          "select=crossover:7,tie=seeded:11";
          "rank=upward,select=dl,insert=append,tie=ready";
        ])

(* --- Schedule.validate --- *)

let validate_accepts_make_outputs () =
  let s =
    Sched.Schedule.make ~graph:diamond ~n_procs:2 ~proc_of:[| 0; 0; 1; 0 |]
      ~order:[| [| 0; 1; 3 |]; [| 2 |] |]
  in
  (match Sched.Schedule.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid schedule rejected: %s" e);
  List.iter
    (fun (name, h) ->
      let p = two_proc_platform () in
      Tutil.check_valid ~msg:name (h diamond p))
    heuristics

let cpop_critical_path_is_path () =
  let g = diamond in
  let p = two_proc_platform () in
  let cp = Sched.Components.critical_path g p in
  (* must start at the entry and end at the exit *)
  Alcotest.(check int) "starts at entry" 0 (List.hd cp);
  Alcotest.(check int) "ends at exit" 3 (List.nth cp (List.length cp - 1))

let cpop_pins_critical_path () =
  let g = Workloads.Classic.chain ~n:5 () in
  let rng = Tutil.rng_of_seed 13 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:5 ~n_procs:3 () in
  let s = Sched.Cpop.schedule g p in
  (* a chain is entirely critical: all tasks on the same processor *)
  let procs = Array.to_list s.Sched.Schedule.proc_of in
  Alcotest.(check bool) "single proc" true
    (List.for_all (fun q -> q = List.hd procs) procs)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sched"
    [
      ( "schedule",
        [
          tc "valid build" `Quick make_valid_schedule;
          tc "validation" `Quick schedule_validation;
          tc "assignment sequence" `Quick of_assignment_sequence_builds;
        ] );
      ( "simulator",
        [
          tc "hand computed" `Quick eager_times_hand_computed;
          tc "with latency" `Quick eager_times_with_latency;
          tc "single proc chain" `Quick single_proc_chain_makespan;
          eager_no_overlap_and_precedence;
          eager_starts_are_tight;
          mean_times_above_deterministic;
          sampled_within_bounds;
        ] );
      ( "disjunctive",
        [
          tc "adds proc edges" `Quick disjunctive_adds_proc_edges;
          disjunctive_makespan_matches_simulator;
          tc "merged graph = make on paper cases" `Quick disjunctive_merge_on_cases;
          disjunctive_merge_on_random_dags;
          tc "graph_of allocates nothing in the major heap" `Quick
            disjunctive_no_direct_major_words;
        ] );
      ( "slack",
        [
          tc "chain zero" `Quick slack_chain_is_zero;
          tc "idle window" `Quick slack_idle_task_has_window;
          tc "modes differ" `Quick slack_modes_differ_on_serialized;
          slack_nonnegative;
        ] );
      ( "random_sched",
        [ random_schedules_valid; tc "distinct" `Quick random_schedules_distinct ] );
      ( "heuristics",
        [
          heuristics_produce_valid_schedules;
          tc "beat random" `Quick heuristics_beat_random_on_average;
          tc "heft serial" `Quick heft_single_proc_is_serial;
          heft_ranks_decrease_along_edges;
          tc "heft fast proc" `Quick heft_prefers_fast_processor;
          tc "heft insertion" `Quick heft_insertion_fills_gap;
          heft_rank_policies_all_valid;
          tc "heft rank ordering" `Quick heft_rank_policies_order_weights;
          tc "bil exit levels" `Quick bil_levels_at_exits;
          tc "bil monotone" `Quick bil_levels_monotone;
          bmct_groups_are_independent;
          bmct_groups_cover_all_tasks;
          tc "cpop path" `Quick cpop_critical_path_is_path;
          tc "cpop pins chain" `Quick cpop_pins_critical_path;
          dls_static_levels_monotone;
          tc "dls fast proc" `Quick dls_single_task_fast_proc;
          robust_heft_valid_and_degenerates;
          tc "robust-heft kappa weights" `Quick robust_heft_weights_grow_with_kappa;
          tc "robust-heft kappa check" `Quick robust_heft_rejects_negative_kappa;
          tc "gantt" `Quick gantt_renders;
        ] );
      ( "golden",
        [
          tc "recomposed = legacy (21 fixtures)" `Quick golden_equivalence;
          tc "validate accepts" `Quick validate_accepts_make_outputs;
        ] );
      ( "new_heuristics",
        [
          tc "peft oct hand computed" `Quick peft_oct_hand_computed;
          peft_oct_zero_at_exits;
          new_heuristics_valid;
          tc "iheft reproducible" `Quick iheft_deterministic_per_seed;
          tc "iheft threshold explores" `Quick iheft_threshold_rule_explores;
          tc "iheft huge penalty" `Quick iheft_huge_penalty_never_crosses;
        ] );
      ( "registry",
        [
          tc "named entries" `Quick registry_named_entries;
          tc "combo matches HEFT" `Quick registry_combo_matches_named;
          tc "rejects malformed" `Quick registry_rejects_malformed;
          registry_entries_all_valid;
          registry_combos_valid;
        ] );
    ]
