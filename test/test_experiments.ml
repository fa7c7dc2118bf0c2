(* Experiment-harness suites: scaling, cases, runner, correlation,
   figure drivers at minimal scale. *)

let check_close = Tutil.check_close

let tiny_scale =
  (* even cheaper than "smoke": floor counts everywhere *)
  { Experiments.Scale.name = "tiny"; schedule_divisor = 1000; mc_divisor = 1000;
    include_n1000 = false }

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- Scale --- *)

let scale_presets () =
  Alcotest.(check int) "full schedules" 10000
    (Experiments.Scale.schedules Experiments.Scale.full 10000);
  Alcotest.(check int) "small schedules" 1000
    (Experiments.Scale.schedules Experiments.Scale.small 10000);
  Alcotest.(check int) "smoke schedules" 100
    (Experiments.Scale.schedules Experiments.Scale.smoke 10000);
  Alcotest.(check int) "floor" 30 (Experiments.Scale.schedules Experiments.Scale.smoke 100);
  Alcotest.(check int) "mc floor" 1000
    (Experiments.Scale.realizations Experiments.Scale.smoke 10000)

let scale_env_parsing () =
  Unix.putenv "REPRO_SCALE" "full";
  Alcotest.(check string) "full" "full" (Experiments.Scale.of_env ()).Experiments.Scale.name;
  Unix.putenv "REPRO_SCALE" "smoke";
  Alcotest.(check string) "smoke" "smoke" (Experiments.Scale.of_env ()).Experiments.Scale.name;
  Unix.putenv "REPRO_SCALE" "garbage";
  Alcotest.(check string) "fallback" "small" (Experiments.Scale.of_env ()).Experiments.Scale.name;
  Unix.putenv "REPRO_SCALE" "small"

(* --- Case --- *)

let case_defaults () =
  let c = Experiments.Case.make ~kind:Experiments.Case.Cholesky ~n_target:10 ~ul:1.01 () in
  Alcotest.(check int) "procs for small" 3 c.Experiments.Case.n_procs;
  Alcotest.(check int) "schedules" 10000 c.Experiments.Case.paper_schedules;
  let c100 =
    Experiments.Case.make ~kind:Experiments.Case.Gauss_elim ~n_target:103 ~ul:1.1 ()
  in
  Alcotest.(check int) "procs for large" 16 c100.Experiments.Case.n_procs;
  Alcotest.(check int) "2000 schedules at n>=100" 2000 c100.Experiments.Case.paper_schedules

let case_instantiate_sizes () =
  (* structured kinds realize the closest size to the target *)
  let check kind target lo hi =
    let c = Experiments.Case.make ~kind ~n_target:target ~ul:1.1 () in
    let i = Experiments.Case.instantiate c in
    let n = Dag.Graph.n_tasks i.Experiments.Case.graph in
    Alcotest.(check bool)
      (Printf.sprintf "%s target %d got %d" (Experiments.Case.kind_name kind) target n)
      true
      (n >= lo && n <= hi)
  in
  check Experiments.Case.Random_graph 30 30 30;
  check Experiments.Case.Cholesky 10 10 10;
  check Experiments.Case.Cholesky 100 80 130;
  check Experiments.Case.Gauss_elim 103 100 110

let case_instantiate_deterministic () =
  let c = Experiments.Case.make ~kind:Experiments.Case.Random_graph ~n_target:20 ~ul:1.1 () in
  let a = Experiments.Case.instantiate c and b = Experiments.Case.instantiate c in
  Alcotest.(check bool) "same graph" true
    (Dag.Graph.edges a.Experiments.Case.graph = Dag.Graph.edges b.Experiments.Case.graph)

let case_rejects_bad_ul () =
  List.iter
    (fun ul ->
      match Experiments.Case.make ~kind:Experiments.Case.Cholesky ~n_target:10 ~ul () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "UL %g accepted" ul)
    [ 0.5; Float.nan; Float.infinity ]

let paper_cases_count () =
  let cases = Experiments.Case.paper_cases () in
  Alcotest.(check int) "24 cases" 24 (List.length cases);
  (* ids unique *)
  let ids = List.map (fun c -> c.Experiments.Case.id) cases in
  Alcotest.(check int) "unique ids" 24 (List.length (List.sort_uniq compare ids))

(* --- Runner & Correlate --- *)

let shared_run =
  lazy
    (let case =
       Experiments.Case.make ~kind:Experiments.Case.Cholesky ~n_target:10 ~ul:1.1 ()
     in
     Experiments.Runner.run ~scale:tiny_scale case)

let runner_produces_rows () =
  let r = Lazy.force shared_run in
  Alcotest.(check int) "30 random + 3 heuristics" 33 (Array.length r.Experiments.Runner.rows);
  Alcotest.(check int) "8 metrics per row" 8 (Array.length r.Experiments.Runner.rows.(0));
  Alcotest.(check int) "heuristic count" 3
    (List.length (Experiments.Runner.heuristic_rows r));
  Alcotest.(check int) "random count" 30
    (Array.length (Experiments.Runner.random_rows r));
  Alcotest.(check bool) "delta positive" true (r.Experiments.Runner.delta > 0.);
  Alcotest.(check bool) "gamma above 1" true (r.Experiments.Runner.gamma > 1.)

let runner_heuristics_have_best_makespan () =
  let r = Lazy.force shared_run in
  let randoms = Experiments.Runner.random_rows r in
  let best_random =
    Array.fold_left (fun acc row -> Float.min acc row.(0)) infinity randoms
  in
  List.iter
    (fun (name, row) ->
      Alcotest.(check bool) (name ^ " <= best random") true (row.(0) <= best_random +. 1e-6))
    (Experiments.Runner.heuristic_rows r)

(* The pilot and the sweep run on the pool; the result must not depend
   on its size, and no schedule may be evaluated twice. *)
let calibrated_sweep_pool_invariant () =
  let case =
    Experiments.Case.make ~n_procs:3 ~kind:Experiments.Case.Random_graph ~n_target:12
      ~ul:1.1 ()
  in
  let { Experiments.Case.graph; platform; model; _ } = Experiments.Case.instantiate case in
  let scheds =
    Array.of_list
      (Sched.Random_sched.generate_many ~rng:(Tutil.rng_of_seed 5) ~graph ~n_procs:3
         ~count:12)
  in
  let pilot = 5 in
  let bits = Int64.bits_of_float in
  let sweep ?delta ?gamma ~pilot ~domains n =
    let engine = Makespan.Engine.create ~graph ~platform ~model in
    let calls = Array.init n (fun _ -> Atomic.make 0) in
    let delta, gamma, rows =
      Tutil.with_pool domains (fun pool ->
          Experiments.Runner.calibrated_sweep ~pool ?delta ?gamma ~pilot
            ~eval:(fun i ->
              Atomic.incr calls.(i);
              Makespan.Engine.analyze engine scheds.(i))
            ~row:(fun i e m ->
              let d = e.Makespan.Engine.makespan in
              ( i,
                Array.map bits
                  (Array.append
                     [| Distribution.Dist.mean d; Distribution.Dist.std d |]
                     (Metrics.Robustness.to_array m)) ))
            n)
    in
    Array.iteri
      (fun i c ->
        Alcotest.(check int)
          (Printf.sprintf "n=%d, %d domains: eval %d once" n domains i)
          1 (Atomic.get c))
      calls;
    (delta, gamma, rows)
  in
  List.iter
    (fun n ->
      let ((d1, g1, rows1) as one) = sweep ~pilot ~domains:1 n in
      let as_bits (d, g, rows) = (bits d, bits g, rows) in
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: %d domains = 1 domain (bitwise)" n domains)
            true
            (as_bits (sweep ~pilot ~domains n) = as_bits one))
        [ 2; 3 ];
      (* both bounds given: no calibration runs, so even an empty pilot is
         accepted, and the rows match the calibrated sweep's *)
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: given bounds, %d domains" n domains)
            true
            (as_bits (sweep ~delta:d1 ~gamma:g1 ~pilot:0 ~domains n)
            = as_bits (d1, g1, rows1)))
        [ 1; 2; 3 ])
    [ pilot - 2; pilot; Array.length scheds ];
  Alcotest.check_raises "calibration on an empty pilot"
    (Invalid_argument "Robustness.calibrate_bounds: empty pilot") (fun () ->
      ignore (sweep ~pilot:0 ~domains:2 3))

let correlate_matrix_properties () =
  let r = Lazy.force shared_run in
  let m = Experiments.Correlate.of_result r in
  Alcotest.(check int) "8x8" 8 (Array.length m);
  for i = 0 to 7 do
    check_close "diag" 1. m.(i).(i);
    for j = 0 to 7 do
      if not (Float.is_nan m.(i).(j)) then begin
        check_close ~eps:1e-9 "symmetric" m.(i).(j) m.(j).(i);
        Alcotest.(check bool) "bounded" true (Float.abs m.(i).(j) <= 1. +. 1e-9)
      end
    done
  done

let correlate_cluster_holds () =
  (* the paper's headline: σ/entropy/lateness/A strongly positively
     correlated, even at tiny scale *)
  let r = Lazy.force shared_run in
  let m = Experiments.Correlate.of_result r in
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool) (Printf.sprintf "cluster (%d,%d) > 0.9" i j) true
        (m.(i).(j) > 0.9))
    [ (1, 2); (1, 5); (1, 6); (2, 5); (2, 6); (5, 6) ]

let mean_std_of_matrices () =
  let a = [| [| 1.; 0.4 |]; [| 0.4; 1. |] |] in
  let b = [| [| 1.; 0.8 |]; [| 0.8; 1. |] |] in
  let mean, std = Experiments.Correlate.mean_std [ a; b ] in
  check_close "mean" 0.6 mean.(0).(1);
  check_close "std" 0.2 std.(0).(1)

let mean_std_skips_nan () =
  let a = [| [| 1.; Float.nan |]; [| Float.nan; 1. |] |] in
  let b = [| [| 1.; 0.8 |]; [| 0.8; 1. |] |] in
  let mean, std = Experiments.Correlate.mean_std [ a; b ] in
  check_close "nan skipped" 0.8 mean.(0).(1);
  (* a cell populated by a single matrix has a well-defined (zero) std *)
  check_close "single-sample std" 0. std.(0).(1)

let mean_std_all_nan_cell_stays_nan () =
  let a = [| [| 1.; Float.nan |]; [| Float.nan; 1. |] |] in
  let b = [| [| 1.; Float.nan |]; [| Float.nan; 1. |] |] in
  let mean, std = Experiments.Correlate.mean_std [ a; b ] in
  Alcotest.(check bool) "mean stays nan" true (Float.is_nan mean.(0).(1));
  Alcotest.(check bool) "std stays nan" true (Float.is_nan std.(0).(1));
  check_close "diag mean" 1. mean.(0).(0)

(* a constant metric column (e.g. all-equal slack on a 1-proc smoke
   case) must yield explicit nan cells, not a rounding-noise ±1 *)
let matrix_degenerate_column () =
  let k = Metrics.Robustness.n_metrics in
  let rng = Prng.Xoshiro.create 7L in
  let rows =
    Array.init 40 (fun _ ->
        Array.init k (fun j ->
            if j = 3 then 42. (* constant column *)
            else Prng.Xoshiro.next_float rng))
  in
  let m = Experiments.Correlate.matrix ~invert:false rows in
  for j = 0 to k - 1 do
    if j <> 3 then begin
      Alcotest.(check bool) (Printf.sprintf "cell (3,%d) nan" j) true
        (Float.is_nan m.(3).(j));
      Alcotest.(check bool) (Printf.sprintf "cell (%d,3) nan" j) true
        (Float.is_nan m.(j).(3))
    end
  done;
  check_close "degenerate diagonal still 1" 1. m.(3).(3);
  Alcotest.(check bool) "non-degenerate cells finite" true
    (not (Float.is_nan m.(0).(1)))

let matrix_single_schedule_is_nan_not_crash () =
  let k = Metrics.Robustness.n_metrics in
  let rows = [| Array.init k float_of_int |] in
  let m = Experiments.Correlate.matrix ~invert:false rows in
  Alcotest.(check bool) "off-diagonal nan" true (Float.is_nan m.(0).(1));
  check_close "diag" 1. m.(0).(0)

(* end-to-end: one degenerate case must not blank cells that a healthy
   case populated — the Fig. 6 aggregation failure mode *)
let mean_std_degenerate_case_does_not_blank () =
  let k = Metrics.Robustness.n_metrics in
  let rng = Prng.Xoshiro.create 11L in
  let healthy =
    Experiments.Correlate.matrix ~invert:false
      (Array.init 40 (fun _ -> Array.init k (fun _ -> Prng.Xoshiro.next_float rng)))
  in
  let degenerate =
    Experiments.Correlate.matrix ~invert:false
      (Array.init 40 (fun i ->
           Array.init k (fun j -> if j = 0 then 1. else float_of_int (i + j))))
  in
  Alcotest.(check bool) "degenerate cell is nan" true (Float.is_nan degenerate.(0).(1));
  let mean, _ = Experiments.Correlate.mean_std [ healthy; degenerate ] in
  check_close "cell survives from healthy case" healthy.(0).(1) mean.(0).(1)

(* --- Figures (minimal scale smoke) --- *)

let fig7_moments_match () =
  let t = Experiments.Fig7.run () in
  Alcotest.(check bool) "mean in range" true (t.Experiments.Fig7.mean > 5.);
  Alcotest.(check int) "series lengths" (Array.length t.Experiments.Fig7.xs)
    (Array.length t.Experiments.Fig7.special);
  Alcotest.(check bool) "render" true
    (contains ~needle:"Fig. 7" (Experiments.Fig7.render t))

let fig8_distance_decreases () =
  let t = Experiments.Fig8.run ~max_sums:12 ~points:128 () in
  Alcotest.(check int) "12 points" 12 (List.length t);
  let first = List.hd t and last = List.nth t 11 in
  Alcotest.(check bool) "KS collapses" true
    (last.Experiments.Fig8.ks < 0.2 *. first.Experiments.Fig8.ks);
  Alcotest.(check bool) "KS small by 10 sums" true (last.Experiments.Fig8.ks < 0.02);
  Alcotest.(check bool) "skewness decays" true
    (Float.abs last.Experiments.Fig8.skewness
    < 0.5 *. Float.abs (List.hd t).Experiments.Fig8.skewness);
  Alcotest.(check bool) "kurtosis decays" true
    (Float.abs last.Experiments.Fig8.kurtosis_excess
    < 0.5 *. Float.abs (List.hd t).Experiments.Fig8.kurtosis_excess)

let fig9_slack_not_robustness () =
  let rows = Experiments.Fig9.run () in
  Alcotest.(check int) "4 schedules" 4 (List.length rows);
  let find name = List.find (fun r -> r.Experiments.Fig9.name = name) rows in
  let wide = find "wide" and chain = find "chain" and mix = find "slack-mix" in
  Alcotest.(check bool) "wide has least sigma" true
    (wide.Experiments.Fig9.makespan_std < chain.Experiments.Fig9.makespan_std);
  Alcotest.(check bool) "mix has most slack" true
    (mix.Experiments.Fig9.total_slack > 10. *. wide.Experiments.Fig9.total_slack +. 1.);
  Alcotest.(check bool) "slack does not buy robustness" true
    (mix.Experiments.Fig9.makespan_std > wide.Experiments.Fig9.makespan_std)

let fig_corr_specs () =
  Alcotest.(check string) "fig3 kind" "cholesky"
    (Experiments.Case.kind_name Experiments.Fig_corr.fig3.Experiments.Fig_corr.case.Experiments.Case.kind);
  Alcotest.(check string) "fig4 kind" "random"
    (Experiments.Case.kind_name Experiments.Fig_corr.fig4.Experiments.Fig_corr.case.Experiments.Case.kind);
  Alcotest.(check string) "fig5 kind" "gauss-elim"
    (Experiments.Case.kind_name Experiments.Fig_corr.fig5.Experiments.Fig_corr.case.Experiments.Case.kind)

let fig_corr_render_smoke () =
  let spec =
    { Experiments.Fig_corr.fig = "test";
      case = Experiments.Case.make ~kind:Experiments.Case.Cholesky ~n_target:10 ~ul:1.1 () }
  in
  let t = Experiments.Fig_corr.run ~scale:tiny_scale spec in
  let s = Experiments.Fig_corr.render t in
  Alcotest.(check bool) "mentions HEFT" true (contains ~needle:"HEFT" s);
  Alcotest.(check bool) "mentions labels" true (contains ~needle:"mk-std" s)

let intext_rel_prob_close_to_one () =
  let r = Lazy.force shared_run in
  let t = Experiments.Intext.rel_prob_vs_std [ Experiments.Runner.random_rows r ] in
  Alcotest.(check bool) "pearson > 0.95" true (t.Experiments.Intext.mean > 0.95)

let spearman_matrix_close_to_pearson () =
  (* on the near-linear clouds of the paper, rank correlation agrees *)
  let r = Lazy.force shared_run in
  let rows = Experiments.Runner.random_rows r in
  let p = Experiments.Correlate.matrix rows in
  let s = Experiments.Correlate.matrix ~method_:`Spearman rows in
  (* cluster pairs: same strong positive correlation under both *)
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool) (Printf.sprintf "spearman (%d,%d)" i j) true
        (s.(i).(j) > 0.9 && p.(i).(j) > 0.9))
    [ (1, 2); (1, 5) ]

let export_csv_wellformed () =
  let t = Experiments.Fig8.run ~max_sums:5 ~points:128 () in
  let csv = Experiments.Export.fig8_csv t in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + 5 rows" 6 (List.length lines);
  Alcotest.(check string) "header" "n_sums,ks,cm,skewness,kurtosis_excess" (List.hd lines)

let export_schedules_csv () =
  let r = Lazy.force shared_run in
  let csv = Experiments.Export.schedules_csv r in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  (* header + 30 random + 3 heuristics *)
  Alcotest.(check int) "rows" 34 (List.length lines);
  Alcotest.(check bool) "heuristic named" true
    (List.exists (fun l -> String.length l > 4 && String.sub l 0 4 = "HEFT") lines)

let export_write_file () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "repro-export-test" in
  let path = Experiments.Export.write_file ~dir ~name:"t.csv" "a,b\n1,2\n" in
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "content" "a,b" line

let ablation_tradeoff_shape () =
  let points = Experiments.Ablation.robust_heft_tradeoff ~kappas:[ 0.; 4. ] () in
  match points with
  | [ k0; k4 ] ->
    Alcotest.(check bool) "kappa recorded" true
      (k0.Experiments.Ablation.kappa = 0. && k4.Experiments.Ablation.kappa = 4.);
    Alcotest.(check bool) "sigma not worse" true
      (k4.Experiments.Ablation.makespan_std
      <= k0.Experiments.Ablation.makespan_std +. 1e-9)
  | _ -> Alcotest.fail "expected two points"

let campaign_checkpoints_and_resumes () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "repro-campaign-test" in
  (* clean slate *)
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let cases =
    [ Experiments.Case.make ~kind:Experiments.Case.Cholesky ~n_target:10 ~ul:1.1 () ]
  in
  let first = Experiments.Campaign.run ~scale:tiny_scale ~dir ~cases () in
  Alcotest.(check int) "one case" 1 (List.length first.Experiments.Campaign.results);
  Alcotest.(check bool) "computed fresh" false
    (List.hd first.Experiments.Campaign.results).Experiments.Campaign.from_checkpoint;
  (* second run must load from checkpoint and agree exactly *)
  let second = Experiments.Campaign.run ~scale:tiny_scale ~dir ~cases () in
  Alcotest.(check bool) "loaded" true
    (List.hd second.Experiments.Campaign.results).Experiments.Campaign.from_checkpoint;
  let r1 = (List.hd first.Experiments.Campaign.results).Experiments.Campaign.rows in
  let r2 = (List.hd second.Experiments.Campaign.results).Experiments.Campaign.rows in
  Alcotest.(check int) "same row count" (Array.length r1) (Array.length r2);
  Array.iteri
    (fun i row ->
      Array.iteri (fun j v -> check_close ~eps:1e-8 "row value" v r2.(i).(j)) row)
    r1;
  (* matrices agree too *)
  check_close ~eps:1e-8 "mean matrix stable"
    first.Experiments.Campaign.mean.(1).(2)
    second.Experiments.Campaign.mean.(1).(2)

let campaign_load_rejects_garbage () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "repro-campaign-bad" in
  let path = Experiments.Export.write_file ~dir ~name:"bad.csv" "nonsense\n1,2\n" in
  Alcotest.(check bool) "rejected" true
    (match Experiments.Campaign.load_rows path with
    | exception Invalid_argument _ -> true
    | _ -> false)

let ablation_shapes_cluster () =
  let rows = Experiments.Ablation.cluster_under_shapes ~scale:tiny_scale () in
  Alcotest.(check int) "four shapes" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Experiments.Ablation.shape_name ^ " cluster holds")
        true
        (r.Experiments.Ablation.cluster > 0.95))
    rows

let ablation_pareto_front () =
  let t = Experiments.Ablation.pareto_front_study ~scale:tiny_scale () in
  Alcotest.(check bool) "front non-empty" true (t.Experiments.Ablation.front_size >= 1);
  Alcotest.(check bool) "front smaller than population" true
    (t.Experiments.Ablation.front_size < t.Experiments.Ablation.population);
  (* no front point dominates another *)
  List.iter
    (fun (m, s) ->
      List.iter
        (fun (m', s') ->
          if (m', s') <> (m, s) then
            Alcotest.(check bool) "non-dominated" false
              (m' <= m && s' <= s && (m' < m || s' < s)))
        t.Experiments.Ablation.front)
    t.Experiments.Ablation.front;
  (* overall correlation strongly positive (the paper's global finding) *)
  Alcotest.(check bool) "overall positive" true (t.Experiments.Ablation.overall_r > 0.3)

let render_table_alignment () =
  let s =
    Experiments.Render.table ~title:"T" ~headers:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "33"; "4" ] ]
  in
  Alcotest.(check bool) "has title" true (contains ~needle:"T" s);
  Alcotest.(check bool) "has underline" true (contains ~needle:"--" s)

let render_table_rejects_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Render.table: ragged row") (fun () ->
      ignore (Experiments.Render.table ~title:"" ~headers:[ "a" ] ~rows:[ [ "1"; "2" ] ]))

(* --- Json (bounded parser / writer) --- *)

module Json = Obs.Json

let json_value_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Num (string_of_int i)) int;
        map (fun f -> Json.Num (Json.float_lit f)) (float_range (-1e9) 1e9);
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let rec build depth =
    if depth <= 0 then scalar
    else
      oneof
        [
          scalar;
          map (fun l -> Json.Arr l) (list_size (int_range 0 4) (build (depth - 1)));
          map
            (fun kvs -> Json.Obj kvs)
            (list_size (int_range 0 4)
               (pair (string_size ~gen:printable (int_range 0 8)) (build (depth - 1))));
        ]
  in
  build 3

let json_parse_never_raises =
  Tutil.qcheck ~count:500 "parse never raises"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 120))
    (fun s -> match Json.parse s with Ok _ | Error _ -> true)

let json_roundtrip =
  Tutil.qcheck ~count:300 "write/parse roundtrip" json_value_gen (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok back -> back = v
      | Error e -> QCheck2.Test.fail_reportf "reparse failed: %s" (Json.error_to_string e))

let json_bounds_enforced () =
  let deep = String.make 200 '[' ^ String.make 200 ']' in
  (match Json.parse ~max_depth:64 deep with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth bound ignored");
  (match Json.parse ~max_bytes:8 "[1,2,3,4,5,6]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "byte bound ignored");
  match Json.parse ~max_nodes:4 "[1,2,3,4,5,6,7,8]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "node bound ignored"

let json_trailing_garbage_rejected () =
  (match Json.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.parse "{\"a\": 1e}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed number accepted"

let manifest_fuzz_dir = Filename.concat (Filename.get_temp_dir_name ()) "repro-manifest-fuzz"

let manifest_load_never_raises =
  Tutil.qcheck ~count:120 "manifest load never raises"
    (* JSON-shaped garbage: mutate plausible manifest fragments *)
    QCheck2.Gen.(
      let fragment =
        oneofl
          [
            "{\"version\":1,\"scale\":\"tiny\",\"slack_mode\":\"disjunctive\",\"cases\":[";
            "{\"id\":\"x\",\"seed\":\"1\",\"schedules\":30,\"status\":\"done\",\"rows\":3,\"attempts\":1}";
            "]}"; "{"; "}"; "["; "]"; ","; ":"; "\"seed\""; "\"status\":\"done\"";
            "null"; "1e309"; "\"\\u0000\""; "-"; "9999999999999999999999";
          ]
      in
      map (String.concat "") (list_size (int_range 0 8) fragment))
    (fun content ->
      ignore
        (Experiments.Export.write_file ~dir:manifest_fuzz_dir
           ~name:Experiments.Manifest.file_name content);
      match Experiments.Manifest.load ~dir:manifest_fuzz_dir with
      | Some _ | None -> true)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "experiments"
    [
      ( "json",
        [
          json_parse_never_raises;
          json_roundtrip;
          tc "bounds" `Quick json_bounds_enforced;
          tc "trailing garbage" `Quick json_trailing_garbage_rejected;
          manifest_load_never_raises;
        ] );
      ("scale", [ tc "presets" `Quick scale_presets; tc "env" `Quick scale_env_parsing ]);
      ( "case",
        [
          tc "defaults" `Quick case_defaults;
          tc "instantiate sizes" `Quick case_instantiate_sizes;
          tc "deterministic" `Quick case_instantiate_deterministic;
          tc "rejects bad ul" `Quick case_rejects_bad_ul;
          tc "paper cases" `Quick paper_cases_count;
        ] );
      ( "runner",
        [
          tc "rows" `Quick runner_produces_rows;
          tc "heuristics best makespan" `Quick runner_heuristics_have_best_makespan;
          tc "calibrated sweep pool-invariant" `Quick calibrated_sweep_pool_invariant;
        ] );
      ( "correlate",
        [
          tc "matrix" `Quick correlate_matrix_properties;
          tc "cluster" `Quick correlate_cluster_holds;
          tc "mean/std" `Quick mean_std_of_matrices;
          tc "nan skipped" `Quick mean_std_skips_nan;
          tc "all-nan cell" `Quick mean_std_all_nan_cell_stays_nan;
          tc "degenerate column" `Quick matrix_degenerate_column;
          tc "single schedule" `Quick matrix_single_schedule_is_nan_not_crash;
          tc "degenerate case in mean" `Quick mean_std_degenerate_case_does_not_blank;
        ] );
      ( "figures",
        [
          tc "fig7" `Quick fig7_moments_match;
          tc "fig8" `Quick fig8_distance_decreases;
          tc "fig9" `Quick fig9_slack_not_robustness;
          tc "fig3-5 specs" `Quick fig_corr_specs;
          tc "fig corr render" `Quick fig_corr_render_smoke;
          tc "intext rel prob" `Quick intext_rel_prob_close_to_one;
          tc "render table" `Quick render_table_alignment;
          tc "render ragged" `Quick render_table_rejects_ragged;
        ] );
      ( "export",
        [
          tc "spearman option" `Quick spearman_matrix_close_to_pearson;
          tc "fig8 csv" `Quick export_csv_wellformed;
          tc "schedules csv" `Quick export_schedules_csv;
          tc "write file" `Quick export_write_file;
          tc "ablation tradeoff" `Quick ablation_tradeoff_shape;
          tc "ablation shapes" `Quick ablation_shapes_cluster;
          tc "ablation pareto" `Quick ablation_pareto_front;
          tc "campaign checkpoint/resume" `Quick campaign_checkpoints_and_resumes;
          tc "campaign rejects garbage" `Quick campaign_load_rejects_garbage;
        ] );
    ]
