(* Workload suites: the paper's DAG generators (random layered, Cholesky,
   Gaussian elimination), classic shapes, and the uncertainty model. *)

let check_close = Tutil.check_close

(* --- Random_dag --- *)

let random_dag_connected =
  Tutil.qcheck ~count:50 "random DAG: every non-first node has a predecessor"
    QCheck2.Gen.(pair (int_range 2 60) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let g = Workloads.Random_dag.generate ~rng ~n () in
      let ok = ref true in
      for v = 1 to n - 1 do
        if Array.length (Dag.Graph.preds g v) = 0 then ok := false
      done;
      Dag.Graph.n_tasks g = n && !ok)

let random_dag_max_out_degree_respected =
  Tutil.qcheck ~count:50 "out-degree cap respected"
    QCheck2.Gen.(pair (int_range 5 40) (int_range 1 5))
    (fun (n, cap) ->
      let rng = Tutil.rng_of_seed (n + cap) in
      let g = Workloads.Random_dag.generate ~rng ~n ~max_out_degree:cap () in
      (* each node i connects to at most cap earlier nodes; in-degree of a
         node counts contributions from later nodes, so check the builder
         invariant through total edges <= cap·(n−1) *)
      Dag.Graph.n_edges g <= cap * (n - 1))

let random_dag_ccr_scaling () =
  (* mean volume ≈ ccr·μ_task/τ̄ *)
  let rng = Tutil.rng_of_seed 77 in
  let g = Workloads.Random_dag.generate ~rng ~n:200 ~ccr:0.1 ~mu_task:20. ~mean_tau:1. () in
  let edges = Dag.Graph.edges g in
  let total = Array.fold_left (fun acc (_, _, v) -> acc +. v) 0. edges in
  check_close ~eps:0.15 "mean volume" 2. (total /. float_of_int (Array.length edges))

let random_dag_deterministic () =
  let g1 = Workloads.Random_dag.generate ~rng:(Tutil.rng_of_seed 5) ~n:30 () in
  let g2 = Workloads.Random_dag.generate ~rng:(Tutil.rng_of_seed 5) ~n:30 () in
  Alcotest.(check bool) "same edges" true (Dag.Graph.edges g1 = Dag.Graph.edges g2)

let random_dag_rejects_bad_args () =
  let rng = Tutil.rng_of_seed 1 in
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect (fun () -> ignore (Workloads.Random_dag.generate ~rng ~n:0 ()));
  expect (fun () -> ignore (Workloads.Random_dag.generate ~rng ~n:5 ~ccr:(-1.) ()));
  expect (fun () -> ignore (Workloads.Random_dag.generate ~rng ~n:5 ~max_out_degree:0 ()))

(* --- Cholesky --- *)

let cholesky_task_counts () =
  (* b + b(b−1)/2 + Σ_k (b−k−1)(b−k)/2: known values *)
  List.iter
    (fun (tiles, want) ->
      Alcotest.(check int)
        (Printf.sprintf "tiles %d" tiles)
        want
        (Workloads.Cholesky.n_tasks ~tiles))
    [ (1, 1); (2, 4); (3, 10); (4, 20); (5, 35) ]

(* The closed-form count agrees with the explicit task list over every
   size Case.instantiate searches. *)
let cholesky_closed_form_matches_kinds () =
  for tiles = 1 to 40 do
    Alcotest.(check int)
      (Printf.sprintf "n_tasks tiles %d" tiles)
      (List.length (Workloads.Cholesky.kinds ~tiles))
      (Workloads.Cholesky.n_tasks ~tiles)
  done

let cholesky_graph_matches_count =
  Tutil.qcheck ~count:10 "generate size = n_tasks" QCheck2.Gen.(int_range 1 8) (fun tiles ->
      Dag.Graph.n_tasks (Workloads.Cholesky.generate ~tiles ())
      = Workloads.Cholesky.n_tasks ~tiles)

let cholesky_structure_b3 () =
  let g = Workloads.Cholesky.generate ~tiles:3 () in
  Alcotest.(check int) "10 tasks" 10 (Dag.Graph.n_tasks g);
  (* single entry (POTRF 0) and single exit (POTRF 2) *)
  Alcotest.(check int) "one entry" 1 (Array.length (Dag.Graph.entries g));
  Alcotest.(check int) "one exit" 1 (Array.length (Dag.Graph.exits g));
  let entry = (Dag.Graph.entries g).(0) and exit_ = (Dag.Graph.exits g).(0) in
  let kind t = List.nth (Workloads.Cholesky.kinds ~tiles:3) t in
  Alcotest.(check bool) "entry kind" true (kind entry = Workloads.Cholesky.Potrf 0);
  Alcotest.(check bool) "exit kind" true (kind exit_ = Workloads.Cholesky.Potrf 2)

let cholesky_critical_path_depth () =
  (* critical path alternates POTRF/TRSM/UPDATE: length 3(b−1)+1 *)
  let tiles = 4 in
  let g = Workloads.Cholesky.generate ~tiles () in
  let w = { Dag.Levels.task = (fun _ -> 1.); edge = (fun _ _ _ -> 0.) } in
  check_close "depth" (float_of_int ((3 * (tiles - 1)) + 1)) (Dag.Levels.makespan g w)

(* --- Gauss_elim --- *)

let gauss_task_counts () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (Printf.sprintf "n %d" n) want (Workloads.Gauss_elim.n_tasks ~n))
    [ (2, 2); (3, 5); (4, 9); (13, 90); (14, 104) ]

let gauss_graph_matches_count =
  Tutil.qcheck ~count:10 "generate size = n_tasks" QCheck2.Gen.(int_range 2 16) (fun n ->
      Dag.Graph.n_tasks (Workloads.Gauss_elim.generate ~n ())
      = Workloads.Gauss_elim.n_tasks ~n)

let gauss_structure () =
  let n = 5 in
  let g = Workloads.Gauss_elim.generate ~n () in
  (* single entry: the first pivot *)
  Alcotest.(check int) "one entry" 1 (Array.length (Dag.Graph.entries g));
  (* PIV(1) is task 0 of the canonical step-by-step order *)
  Alcotest.(check int) "entry" 0 (Dag.Graph.entries g).(0);
  (* depth: pivot and update alternate over n−1 steps: 2(n−1) *)
  let w = { Dag.Levels.task = (fun _ -> 1.); edge = (fun _ _ _ -> 0.) } in
  check_close "depth" (float_of_int (2 * (n - 1))) (Dag.Levels.makespan g w)

(* --- Classic shapes --- *)

let chain_shape () =
  let g = Workloads.Classic.chain ~n:5 () in
  Alcotest.(check int) "tasks" 5 (Dag.Graph.n_tasks g);
  Alcotest.(check int) "edges" 4 (Dag.Graph.n_edges g);
  Alcotest.(check (array int)) "entry" [| 0 |] (Dag.Graph.entries g);
  Alcotest.(check (array int)) "exit" [| 4 |] (Dag.Graph.exits g)

let join_shape () =
  let g = Workloads.Classic.join ~n:6 () in
  Alcotest.(check int) "tasks" 7 (Dag.Graph.n_tasks g);
  Alcotest.(check int) "preds of join" 6 (Array.length (Dag.Graph.preds g 6));
  Alcotest.(check int) "entries" 6 (Array.length (Dag.Graph.entries g))

let fork_join_shape () =
  let g = Workloads.Classic.fork_join ~width:4 () in
  Alcotest.(check int) "tasks" 6 (Dag.Graph.n_tasks g);
  Alcotest.(check int) "edges" 8 (Dag.Graph.n_edges g);
  Alcotest.(check int) "one entry" 1 (Array.length (Dag.Graph.entries g));
  Alcotest.(check int) "one exit" 1 (Array.length (Dag.Graph.exits g))

let tree_shapes () =
  let it = Workloads.Classic.in_tree ~depth:3 ~arity:2 () in
  Alcotest.(check int) "in-tree size" 15 (Dag.Graph.n_tasks it);
  Alcotest.(check int) "in-tree exits" 1 (Array.length (Dag.Graph.exits it));
  Alcotest.(check int) "in-tree entries" 8 (Array.length (Dag.Graph.entries it));
  let ot = Workloads.Classic.out_tree ~depth:3 ~arity:2 () in
  Alcotest.(check int) "out-tree entries" 1 (Array.length (Dag.Graph.entries ot));
  Alcotest.(check int) "out-tree exits" 8 (Array.length (Dag.Graph.exits ot))

let diamond_shape () =
  let g = Workloads.Classic.diamond ~rows:4 () in
  Alcotest.(check int) "tasks" 16 (Dag.Graph.n_tasks g);
  Alcotest.(check int) "edges" 24 (Dag.Graph.n_edges g);
  let w = { Dag.Levels.task = (fun _ -> 1.); edge = (fun _ _ _ -> 0.) } in
  check_close "wavefront depth" 7. (Dag.Levels.makespan g w)

(* --- Stochastify --- *)

let stochastify_moments_match_sampling () =
  let model = Workloads.Stochastify.make ~ul:1.2 () in
  let w = 15. in
  let rng = Tutil.rng_of_seed 42 in
  let n = 100000 in
  let acc = ref 0. and acc2 = ref 0. in
  for _ = 1 to n do
    let x = Workloads.Stochastify.sample model rng w in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  check_close ~eps:1e-3 "analytic mean = sampled" (Workloads.Stochastify.mean model w) mean;
  check_close ~eps:2e-2 "analytic std = sampled" (Workloads.Stochastify.std model w)
    (sqrt var)

let stochastify_dist_consistent () =
  let model = Workloads.Stochastify.make ~ul:1.1 () in
  let d = Workloads.Stochastify.dist model 20. in
  check_close ~eps:1e-3 "dist mean" (Workloads.Stochastify.mean model 20.)
    (Distribution.Dist.mean d);
  check_close ~eps:1e-2 "dist std" (Workloads.Stochastify.std model 20.)
    (Distribution.Dist.std d)

let stochastify_bounds =
  Tutil.qcheck ~count:100 "samples stay in [w, w·UL]"
    QCheck2.Gen.(pair (float_range 1. 100.) (float_range 1. 2.))
    (fun (w, ul) ->
      let model = Workloads.Stochastify.make ~ul () in
      let rng = Tutil.rng_of_seed (int_of_float (w *. 10.)) in
      List.for_all
        (fun _ ->
          let x = Workloads.Stochastify.sample model rng w in
          x >= w -. 1e-9 && x <= (w *. ul) +. 1e-9)
        (List.init 50 Fun.id))

let stochastify_deterministic_model () =
  let m = Workloads.Stochastify.deterministic in
  let rng = Tutil.rng_of_seed 1 in
  check_close "sample is w" 7. (Workloads.Stochastify.sample m rng 7.);
  check_close "mean is w" 7. (Workloads.Stochastify.mean m 7.);
  check_close "std is 0" 0. (Workloads.Stochastify.std m 7.);
  Alcotest.(check bool) "dist is const" true
    (Distribution.Dist.is_const (Workloads.Stochastify.dist m 7.))

let stochastify_task_comm_views () =
  let rng = Tutil.rng_of_seed 3 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:4 ~n_procs:2 () in
  let model = Workloads.Stochastify.make ~ul:1.1 () in
  let w = Platform.etc p ~task:1 ~proc:0 in
  check_close "task mean" (Workloads.Stochastify.mean model w)
    (Workloads.Stochastify.task_mean model p ~task:1 ~proc:0);
  (* same-processor communication is free and deterministic *)
  let d = Workloads.Stochastify.comm_dist model p ~volume:10. ~src:1 ~dst:1 in
  Alcotest.(check bool) "co-located comm const 0" true (Distribution.Dist.is_const d);
  check_close "comm mean zero" 0. (Workloads.Stochastify.comm_mean model p ~volume:10. ~src:0 ~dst:0)

let all_shapes =
  [ ("beta", Workloads.Stochastify.Beta { alpha = 2.; beta = 5. });
    ("uniform", Workloads.Stochastify.Uniform);
    ("triangular", Workloads.Stochastify.Triangular { mode = 0.3 });
    ("oscillating", Workloads.Stochastify.Oscillating) ]

let shape_moments_match_sampling () =
  List.iter
    (fun (name, shape) ->
      let rng = Tutil.rng_of_seed 55 in
      let n = 100000 in
      let acc = ref 0. and acc2 = ref 0. in
      let model = Workloads.Stochastify.make_shaped ~shape ~ul:2. () in
      for _ = 1 to n do
        let x = Workloads.Stochastify.sample model rng 1. -. 1. in
        acc := !acc +. x;
        acc2 := !acc2 +. (x *. x)
      done;
      let m = !acc /. float_of_int n in
      let v = (!acc2 /. float_of_int n) -. (m *. m) in
      Tutil.check_close ~eps:5e-3 (name ^ " mean") (Workloads.Stochastify.shape_mean shape) m;
      Tutil.check_close ~eps:2e-2 (name ^ " std") (Workloads.Stochastify.shape_std shape)
        (sqrt v))
    all_shapes

let shape_quantile_roundtrip =
  Tutil.qcheck ~count:50 "shape quantile inverts the CDF"
    QCheck2.Gen.(pair (int_range 0 3) (float_range 0.02 0.98))
    (fun (idx, u) ->
      let _, shape = List.nth all_shapes idx in
      let x = Workloads.Stochastify.shape_quantile shape u in
      (* numeric CDF at x via pdf integration *)
      let cdf =
        Numerics.Integrate.simpson ~f:(Workloads.Stochastify.shape_pdf shape) ~a:0. ~b:x
          ~n:2048
      in
      Float.abs (cdf -. u) < 5e-3)

let shape_pdf_has_unit_mass () =
  List.iter
    (fun (name, shape) ->
      Tutil.check_close ~eps:2e-3 (name ^ " mass") 1.
        (Numerics.Integrate.simpson ~f:(Workloads.Stochastify.shape_pdf shape) ~a:0. ~b:1.
           ~n:4096))
    all_shapes

let shape_dist_moments_agree () =
  List.iter
    (fun (name, shape) ->
      let model = Workloads.Stochastify.make_shaped ~shape ~ul:1.5 ~points:128 () in
      let d = Workloads.Stochastify.dist model 10. in
      Tutil.check_close ~eps:5e-3 (name ^ " dist mean") (Workloads.Stochastify.mean model 10.)
        (Distribution.Dist.mean d);
      Tutil.check_close ~eps:5e-2 (name ^ " dist std") (Workloads.Stochastify.std model 10.)
        (Distribution.Dist.std d))
    all_shapes

let oscillating_is_multimodal () =
  let pdf = Workloads.Stochastify.shape_pdf Workloads.Stochastify.Oscillating in
  (* dips between the three humps *)
  Alcotest.(check bool) "first dip" true (pdf 0.25 < pdf 0.06 && pdf 0.25 < pdf 0.55);
  Alcotest.(check bool) "second dip" true (pdf 0.70 < pdf 0.60 && pdf 0.70 < pdf 0.80)

let shape_validation () =
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect (fun () ->
      Workloads.Stochastify.make_shaped
        ~shape:(Workloads.Stochastify.Beta { alpha = 0.5; beta = 2. })
        ~ul:1.1 ());
  expect (fun () ->
      Workloads.Stochastify.make_shaped
        ~shape:(Workloads.Stochastify.Triangular { mode = 1.5 })
        ~ul:1.1 ())

let stochastify_rejects_bad_ul () =
  Alcotest.(check bool) "ul < 1 rejected" true
    (match Workloads.Stochastify.make ~ul:0.9 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "workloads"
    [
      ( "random_dag",
        [
          random_dag_connected;
          random_dag_max_out_degree_respected;
          tc "ccr scaling" `Quick random_dag_ccr_scaling;
          tc "deterministic" `Quick random_dag_deterministic;
          tc "bad args" `Quick random_dag_rejects_bad_args;
        ] );
      ( "cholesky",
        [
          tc "task counts" `Quick cholesky_task_counts;
          tc "closed form = kinds (1..40)" `Quick cholesky_closed_form_matches_kinds;
          cholesky_graph_matches_count;
          tc "b=3 structure" `Quick cholesky_structure_b3;
          tc "critical depth" `Quick cholesky_critical_path_depth;
        ] );
      ( "gauss_elim",
        [
          tc "task counts" `Quick gauss_task_counts;
          gauss_graph_matches_count;
          tc "structure" `Quick gauss_structure;
        ] );
      ( "classic",
        [
          tc "chain" `Quick chain_shape;
          tc "join" `Quick join_shape;
          tc "fork-join" `Quick fork_join_shape;
          tc "trees" `Quick tree_shapes;
          tc "diamond" `Quick diamond_shape;
        ] );
      ( "stochastify",
        [
          tc "moments vs sampling" `Quick stochastify_moments_match_sampling;
          tc "dist consistent" `Quick stochastify_dist_consistent;
          stochastify_bounds;
          tc "deterministic model" `Quick stochastify_deterministic_model;
          tc "task/comm views" `Quick stochastify_task_comm_views;
          tc "bad ul" `Quick stochastify_rejects_bad_ul;
          tc "shape moments" `Quick shape_moments_match_sampling;
          shape_quantile_roundtrip;
          tc "shape pdf mass" `Quick shape_pdf_has_unit_mass;
          tc "shape dist moments" `Quick shape_dist_moments_agree;
          tc "oscillating multimodal" `Quick oscillating_is_multimodal;
          tc "shape validation" `Quick shape_validation;
        ] );
    ]
