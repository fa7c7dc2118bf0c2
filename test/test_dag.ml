(* DAG suites: graph construction/validation, levels and slacks,
   critical paths, series–parallel reduction, dot export. *)

let check_close = Tutil.check_close

let mk n edges = Dag.Graph.make ~n ~edges

(* a little diamond: 0 → 1, 0 → 2, 1 → 3, 2 → 3 *)
let diamond () = mk 4 [ (0, 1, 1.); (0, 2, 2.); (1, 3, 3.); (2, 3, 4.) ]

(* --- Graph --- *)

let graph_accessors () =
  let g = diamond () in
  Alcotest.(check int) "tasks" 4 (Dag.Graph.n_tasks g);
  Alcotest.(check int) "edges" 4 (Dag.Graph.n_edges g);
  Alcotest.(check (array int)) "entries" [| 0 |] (Dag.Graph.entries g);
  Alcotest.(check (array int)) "exits" [| 3 |] (Dag.Graph.exits g);
  Alcotest.(check int) "succs of 0" 2 (Array.length (Dag.Graph.succs g 0));
  Alcotest.(check int) "preds of 3" 2 (Array.length (Dag.Graph.preds g 3));
  (match Dag.Graph.volume g ~src:0 ~dst:2 with
  | Some v -> check_close "volume" 2. v
  | None -> Alcotest.fail "edge 0->2 missing");
  Alcotest.(check bool) "has_edge" true (Dag.Graph.has_edge g ~src:1 ~dst:3);
  Alcotest.(check bool) "no reverse edge" false (Dag.Graph.has_edge g ~src:3 ~dst:1)

let graph_rejects_invalid () =
  let expect msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect "cycle" (fun () -> mk 2 [ (0, 1, 0.); (1, 0, 0.) ]);
  expect "self loop" (fun () -> mk 2 [ (0, 0, 0.) ]);
  expect "duplicate" (fun () -> mk 2 [ (0, 1, 0.); (0, 1, 1.) ]);
  expect "out of range" (fun () -> mk 2 [ (0, 5, 0.) ]);
  expect "negative volume" (fun () -> mk 2 [ (0, 1, -1.) ]);
  expect "empty" (fun () -> mk 0 [])

let topo_order_is_valid =
  Tutil.qcheck ~count:100 "topo order puts every edge forward" Tutil.random_dag_gen
    (fun g ->
      let order = Dag.Graph.topo_order g in
      let pos = Array.make (Dag.Graph.n_tasks g) 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      Array.for_all (fun (u, v, _) -> pos.(u) < pos.(v)) (Dag.Graph.edges g))

let topo_order_is_permutation =
  Tutil.qcheck ~count:100 "topo order is a permutation" Tutil.random_dag_gen (fun g ->
      let order = Array.copy (Dag.Graph.topo_order g) in
      Array.sort compare order;
      order = Array.init (Dag.Graph.n_tasks g) Fun.id)

let of_adjacency_matches_make () =
  let g = mk 3 [ (0, 1, 1.); (1, 2, 5.) ] in
  let g' =
    Dag.Graph.of_adjacency
      ~succs:[| [| (1, 1.) |]; [| (2, 5.) |]; [||] |]
      ~preds:[| [||]; [| (0, 1.) |]; [| (1, 5.) |] |]
  in
  Alcotest.(check int) "edges" 2 (Dag.Graph.n_edges g');
  Alcotest.(check bool) "edge present" true (Dag.Graph.has_edge g' ~src:1 ~dst:2);
  Alcotest.(check bool) "same edges" true (Dag.Graph.edges g = Dag.Graph.edges g');
  Alcotest.(check (array int)) "same order" (Dag.Graph.topo_order g) (Dag.Graph.topo_order g')

let of_adjacency_rejects_cycle () =
  Alcotest.(check bool) "cycle rejected" true
    (match
       Dag.Graph.of_adjacency
         ~succs:[| [| (1, 1.) |]; [| (0, 1.) |] |]
         ~preds:[| [| (1, 1.) |]; [| (0, 1.) |] |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Levels --- *)

let unit_weights = { Dag.Levels.task = (fun _ -> 1.); edge = (fun _ _ _ -> 0.) }

let diamond_weights =
  (* task weights 1, edge weights = volumes *)
  { Dag.Levels.task = (fun _ -> 1.); edge = (fun _ _ volume -> volume) }

let levels_on_diamond () =
  let g = diamond () in
  let w = diamond_weights in
  let tl = Dag.Levels.top_levels g w in
  let bl = Dag.Levels.bottom_levels g w in
  (* Tl: 0→0; 1: 1+1=2; 2: 1+2=3; 3: max(2+1+3, 3+1+4)=8 *)
  check_close "tl 0" 0. tl.(0);
  check_close "tl 1" 2. tl.(1);
  check_close "tl 2" 3. tl.(2);
  check_close "tl 3" 8. tl.(3);
  (* Bl: 3: 1; 1: 1+3+1=5; 2: 1+4+1=6; 0: 1+max(1+5, 2+6)=9 *)
  check_close "bl 3" 1. bl.(3);
  check_close "bl 1" 5. bl.(1);
  check_close "bl 2" 6. bl.(2);
  check_close "bl 0" 9. bl.(0);
  check_close "makespan" 9. (Dag.Levels.makespan g w)

let slack_critical_path_zero () =
  let g = diamond () in
  let s = Dag.Levels.slacks g diamond_weights in
  (* critical path 0 → 2 → 3 *)
  check_close "slack 0" 0. s.(0);
  check_close "slack 2" 0. s.(2);
  check_close "slack 3" 0. s.(3);
  (* task 1: M − Bl(1) − Tl(1) = 9 − 5 − 2 = 2 *)
  check_close "slack 1" 2. s.(1)

let slack_identity =
  Tutil.qcheck ~count:100 "max(Tl+Bl) = makespan and slacks >= 0" Tutil.random_dag_gen
    (fun g ->
      let tl = Dag.Levels.top_levels g unit_weights in
      let bl = Dag.Levels.bottom_levels g unit_weights in
      let m = Dag.Levels.makespan g unit_weights in
      let best = ref 0. in
      Array.iteri (fun i t -> best := Float.max !best (t +. bl.(i))) tl;
      Float.abs (!best -. m) < 1e-9
      && Array.for_all (fun s -> s >= 0.) (Dag.Levels.slacks g unit_weights))

let chain_levels =
  Tutil.qcheck ~count:30 "chain of n unit tasks has makespan n"
    QCheck2.Gen.(int_range 1 30)
    (fun n ->
      let g = Workloads.Classic.chain ~n () in
      Float.abs (Dag.Levels.makespan g unit_weights -. float_of_int n) < 1e-9)

let critical_path_is_path () =
  let g = diamond () in
  let cp = Dag.Levels.critical_path g diamond_weights in
  Alcotest.(check (list int)) "path" [ 0; 2; 3 ] cp

let critical_path_consistent =
  Tutil.qcheck ~count:100 "critical path length = makespan" Tutil.random_dag_gen (fun g ->
      let w = unit_weights in
      let cp = Dag.Levels.critical_path g w in
      let rec length = function
        | [] -> 0.
        | [ v ] -> w.Dag.Levels.task v
        | u :: (v :: _ as rest) ->
          w.Dag.Levels.task u
          +. w.Dag.Levels.edge u v (Option.get (Dag.Graph.volume g ~src:u ~dst:v))
          +. length rest
      in
      Float.abs (length cp -. Dag.Levels.makespan g w) < 1e-9)

(* --- Series_parallel --- *)

let scalar_algebra = { Dag.Series_parallel.series = ( +. ); parallel = Float.max }

let sp_single_edge () =
  let net = Dag.Series_parallel.of_edges ~n:2 ~source:0 ~sink:1 [ (0, 1, 5.) ] in
  let r = Dag.Series_parallel.reduce scalar_algebra net in
  check_close "weight" 5. r.Dag.Series_parallel.weight;
  Alcotest.(check int) "no duplication" 0 r.Dag.Series_parallel.duplications

let sp_series_chain () =
  let net =
    Dag.Series_parallel.of_edges ~n:4 ~source:0 ~sink:3
      [ (0, 1, 1.); (1, 2, 2.); (2, 3, 3.) ]
  in
  let r = Dag.Series_parallel.reduce scalar_algebra net in
  check_close "sum" 6. r.Dag.Series_parallel.weight;
  Alcotest.(check int) "sp" 0 r.Dag.Series_parallel.duplications

let sp_parallel_edges () =
  let net =
    Dag.Series_parallel.of_edges ~n:2 ~source:0 ~sink:1 [ (0, 1, 3.); (0, 1, 7.) ]
  in
  let r = Dag.Series_parallel.reduce scalar_algebra net in
  check_close "max" 7. r.Dag.Series_parallel.weight

let sp_diamond () =
  let net =
    Dag.Series_parallel.of_edges ~n:4 ~source:0 ~sink:3
      [ (0, 1, 1.); (0, 2, 2.); (1, 3, 4.); (2, 3, 1.) ]
  in
  let r = Dag.Series_parallel.reduce scalar_algebra net in
  check_close "longest path" 5. r.Dag.Series_parallel.weight;
  Alcotest.(check int) "diamond is SP" 0 r.Dag.Series_parallel.duplications

let sp_bridge_needs_duplication () =
  (* the "N" graph: 0→1, 0→2, 1→2, 1→3, 2→3 — not series–parallel *)
  let net =
    Dag.Series_parallel.of_edges ~n:4 ~source:0 ~sink:3
      [ (0, 1, 1.); (0, 2, 10.); (1, 2, 1.); (1, 3, 1.); (2, 3, 1.) ]
  in
  Alcotest.(check bool) "not SP" false (Dag.Series_parallel.is_series_parallel net);
  let r = Dag.Series_parallel.reduce scalar_algebra net in
  Alcotest.(check bool) "duplicated" true (r.Dag.Series_parallel.duplications > 0);
  (* longest path: 0→2→3 = 11 — scalar (max,+) duplication stays exact *)
  check_close "exact for scalars" 11. r.Dag.Series_parallel.weight

let sp_scalar_reduction_equals_longest_path =
  (* (max, +) reduction with duplication is exact on ANY network, so the
     oracle is the DAG longest path: a strong whole-engine property *)
  Tutil.qcheck ~count:100 "reduce (max,+) = longest path" Tutil.random_dag_gen (fun g ->
      let w = unit_weights in
      let net =
        Dag.Series_parallel.of_task_dag g
          ~task:(fun v -> w.Dag.Levels.task v)
          ~edge:(fun v k ->
            let u, volume = (Dag.Graph.preds g v).(k) in
            w.Dag.Levels.edge u v volume)
          ~zero:0.
      in
      let r = Dag.Series_parallel.reduce scalar_algebra net in
      Float.abs (r.Dag.Series_parallel.weight -. Dag.Levels.makespan g w) < 1e-9)

let sp_of_task_dag_weighted =
  Tutil.qcheck ~count:50 "of_task_dag respects task and edge weights"
    Tutil.random_dag_gen
    (fun g ->
      (* weights depending on identity *)
      let w =
        {
          Dag.Levels.task = (fun v -> 1. +. (0.1 *. float_of_int v));
          edge = (fun u v _ -> 0.01 *. float_of_int (u + v));
        }
      in
      let net =
        Dag.Series_parallel.of_task_dag g
          ~task:(fun v -> w.Dag.Levels.task v)
          ~edge:(fun v k ->
            let u, volume = (Dag.Graph.preds g v).(k) in
            w.Dag.Levels.edge u v volume)
          ~zero:0.
      in
      let r = Dag.Series_parallel.reduce scalar_algebra net in
      Float.abs (r.Dag.Series_parallel.weight -. Dag.Levels.makespan g w) < 1e-9)

let sp_validity_checks () =
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* node 2 not on any source-sink path *)
  expect (fun () ->
      Dag.Series_parallel.of_edges ~n:3 ~source:0 ~sink:1 [ (0, 1, 1.); (2, 1, 1.) ]);
  (* cycle *)
  expect (fun () ->
      Dag.Series_parallel.of_edges ~n:3 ~source:0 ~sink:2
        [ (0, 1, 1.); (1, 2, 1.); (2, 1, 1.) ]);
  (* source = sink *)
  expect (fun () -> Dag.Series_parallel.of_edges ~n:2 ~source:0 ~sink:0 [ (0, 1, 1.) ])

let sp_is_series_parallel_on_sp () =
  let net =
    Dag.Series_parallel.of_edges ~n:4 ~source:0 ~sink:3
      [ (0, 1, 1.); (0, 2, 2.); (1, 3, 4.); (2, 3, 1.) ]
  in
  Alcotest.(check bool) "diamond is SP" true (Dag.Series_parallel.is_series_parallel net);
  (* is_series_parallel must not consume the network *)
  let r = Dag.Series_parallel.reduce scalar_algebra net in
  check_close "still reducible" 5. r.Dag.Series_parallel.weight

(* --- Dot --- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let dot_export () =
  let g = diamond () in
  let s = Dag.Dot.to_dot ~name:"test" g in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph test" s);
  Alcotest.(check bool) "edge" true (contains ~needle:"n0 -> n1" s);
  Alcotest.(check bool) "volume label" true (contains ~needle:"\"2\"" s)

let dot_custom_labels () =
  let g = mk 2 [ (0, 1, 1.) ] in
  let s = Dag.Dot.to_dot ~task_label:(fun v -> Printf.sprintf "T%d!" v) g in
  Alcotest.(check bool) "custom label" true (contains ~needle:"T1!" s)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "dag"
    [
      ( "graph",
        [
          tc "accessors" `Quick graph_accessors;
          tc "validation" `Quick graph_rejects_invalid;
          topo_order_is_valid;
          topo_order_is_permutation;
          tc "of_adjacency" `Quick of_adjacency_matches_make;
          tc "of_adjacency cycle" `Quick of_adjacency_rejects_cycle;
        ] );
      ( "levels",
        [
          tc "diamond levels" `Quick levels_on_diamond;
          tc "critical slack zero" `Quick slack_critical_path_zero;
          slack_identity;
          chain_levels;
          tc "critical path diamond" `Quick critical_path_is_path;
          critical_path_consistent;
        ] );
      ( "series_parallel",
        [
          tc "single edge" `Quick sp_single_edge;
          tc "series chain" `Quick sp_series_chain;
          tc "parallel edges" `Quick sp_parallel_edges;
          tc "diamond" `Quick sp_diamond;
          tc "bridge duplication" `Quick sp_bridge_needs_duplication;
          sp_scalar_reduction_equals_longest_path;
          sp_of_task_dag_weighted;
          tc "validity" `Quick sp_validity_checks;
          tc "is_series_parallel" `Quick sp_is_series_parallel_on_sp;
        ] );
      ( "dot",
        [ tc "export" `Quick dot_export; tc "custom labels" `Quick dot_custom_labels ] );
    ]
