(* Metrics suites: the eight §IV robustness metrics, the plotting
   inversion, and bound calibration. *)

let check_close = Tutil.check_close
let check_close_abs = Tutil.check_close_abs

let dummy_slack total std =
  (* a hand-built slack summary (per-task values unused by compute) *)
  {
    Sched.Slack.per_task = [||];
    total;
    mean = total;
    std;
    makespan = 0.;
  }

let compute_on_normal () =
  (* makespan ~ N(100, 2): every metric has a closed form *)
  let d = Distribution.Family.normal ~mean:100. ~std:2. ~points:512 () in
  let m =
    Metrics.Robustness.compute ~delta:2. ~gamma:1.02 ~makespan_dist:d
      ~slack:(dummy_slack 7. 3.) ()
  in
  check_close ~eps:1e-4 "E(M)" 100. m.Metrics.Robustness.expected_makespan;
  check_close ~eps:1e-3 "sigma" 2. m.Metrics.Robustness.makespan_std;
  check_close ~eps:1e-3 "entropy" (0.5 *. log (2. *. Float.pi *. exp 1. *. 4.))
    m.Metrics.Robustness.makespan_entropy;
  check_close "slack copied" 7. m.Metrics.Robustness.avg_slack;
  check_close "slack std copied" 3. m.Metrics.Robustness.slack_std;
  (* lateness: E[M − μ | M > μ] = σ√(2/π) *)
  check_close ~eps:5e-3 "lateness" (2. *. sqrt (2. /. Float.pi))
    m.Metrics.Robustness.avg_lateness;
  (* A(δ) = 2Φ(δ/σ) − 1 with δ = σ → 2Φ(1) − 1 ≈ 0.6827 *)
  check_close ~eps:2e-3 "A" 0.6827 m.Metrics.Robustness.prob_absolute;
  (* R(γ): bounds at μ(γ−1)=2 above and ~1.96 below → ≈ Φ(1)−Φ(−0.98) *)
  Alcotest.(check bool) "R in (0,1)" true
    (m.Metrics.Robustness.prob_relative > 0.5 && m.Metrics.Robustness.prob_relative < 0.75)

let compute_rejects_bad_bounds () =
  let d = Distribution.Family.normal ~mean:1. ~std:1. () in
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect (fun () ->
      Metrics.Robustness.compute ~delta:(-1.) ~makespan_dist:d ~slack:(dummy_slack 0. 0.) ());
  expect (fun () ->
      Metrics.Robustness.compute ~gamma:0.5 ~makespan_dist:d ~slack:(dummy_slack 0. 0.) ())

let labels_and_to_array_align () =
  Alcotest.(check int) "8 metrics" 8 Metrics.Robustness.n_metrics;
  let d = Distribution.Family.normal ~mean:10. ~std:1. () in
  let m = Metrics.Robustness.compute ~makespan_dist:d ~slack:(dummy_slack 5. 2.) () in
  let a = Metrics.Robustness.to_array m in
  Alcotest.(check int) "array length" 8 (Array.length a);
  check_close "makespan first" m.Metrics.Robustness.expected_makespan a.(0);
  check_close "slack position" 5. a.(3);
  check_close "slack std position" 2. a.(4)

let of_engine_backends_agree () =
  let g = Workloads.Cholesky.generate ~tiles:3 () in
  let rng = Tutil.rng_of_seed 1 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:10 ~n_procs:2 () in
  let model = Workloads.Stochastify.make ~ul:1.1 () in
  let s = Sched.Heft.schedule g p in
  let engine = Makespan.Engine.create ~graph:g ~platform:p ~model in
  let a = Metrics.Robustness.of_engine ~backend:Makespan.Engine.Classical engine s in
  let b = Metrics.Robustness.of_engine ~backend:Makespan.Engine.Spelde engine s in
  check_close ~eps:5e-3 "means agree" a.Metrics.Robustness.expected_makespan
    b.Metrics.Robustness.expected_makespan;
  (* slack identical regardless of the distribution backend *)
  check_close "slack same" a.Metrics.Robustness.avg_slack b.Metrics.Robustness.avg_slack

let inversion_flips_the_right_metrics () =
  (* on an all-zero row with max_slack 1 a flipped metric reads 1 *)
  let out = Metrics.Inversion.apply ~max_slack:1. (Array.make 8 0.) in
  Alcotest.(check (array bool)) "mask"
    [| false; false; false; true; false; false; true; true |]
    (Array.map (fun v -> v = 1.) out)

let inversion_apply_values () =
  let row = [| 100.; 2.; 1.5; 30.; 4.; 1.; 0.7; 0.9 |] in
  let out = Metrics.Inversion.apply ~max_slack:50. row in
  check_close "makespan kept" 100. out.(0);
  check_close "slack flipped" 20. out.(3);
  check_close "A flipped" 0.3 out.(6);
  check_close ~eps:1e-9 "R flipped" 0.1 out.(7);
  check_close "slack std kept" 4. out.(4)

let inversion_apply_all_uses_max () =
  let rows = [| [| 1.; 1.; 1.; 10.; 1.; 1.; 0.5; 0.5 |];
                [| 1.; 1.; 1.; 25.; 1.; 1.; 0.5; 0.5 |] |] in
  let out = Metrics.Inversion.apply_all rows in
  check_close "row 0 slack" 15. out.(0).(3);
  check_close "row 1 slack (max)" 0. out.(1).(3)

let inversion_rejects_wrong_length () =
  Alcotest.check_raises "length" (Invalid_argument "Inversion.apply: wrong metric vector length")
    (fun () -> ignore (Metrics.Inversion.apply ~max_slack:1. [| 1.; 2. |]))

let calibration_centers_A_and_R () =
  (* normal makespans: with calibrated δ/γ the median schedule's A and R
     should land near 1/2 *)
  let pilot = [ (100., 2.); (110., 2.5); (105., 1.8) ] in
  let delta, gamma = Metrics.Robustness.calibrate_bounds pilot in
  let d = Distribution.Family.normal ~mean:105. ~std:2. ~points:512 () in
  let m =
    Metrics.Robustness.compute ~delta ~gamma ~makespan_dist:d ~slack:(dummy_slack 0. 0.) ()
  in
  check_close_abs ~eps:0.1 "A near half" 0.5 m.Metrics.Robustness.prob_absolute;
  check_close_abs ~eps:0.1 "R near half" 0.5 m.Metrics.Robustness.prob_relative

let calibration_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Robustness.calibrate_bounds: empty pilot")
    (fun () -> ignore (Metrics.Robustness.calibrate_bounds []))

let narrower_distribution_is_more_robust () =
  (* all dispersion metrics must order a tight distribution above a loose
     one: smaller σ/entropy/lateness, larger A and R *)
  let slack = dummy_slack 0. 0. in
  let tight = Distribution.Family.normal ~mean:100. ~std:1. ~points:512 () in
  let loose = Distribution.Family.normal ~mean:100. ~std:5. ~points:512 () in
  let mt = Metrics.Robustness.compute ~delta:2. ~gamma:1.03 ~makespan_dist:tight ~slack () in
  let ml = Metrics.Robustness.compute ~delta:2. ~gamma:1.03 ~makespan_dist:loose ~slack () in
  Alcotest.(check bool) "std" true
    (mt.Metrics.Robustness.makespan_std < ml.Metrics.Robustness.makespan_std);
  Alcotest.(check bool) "entropy" true
    (mt.Metrics.Robustness.makespan_entropy < ml.Metrics.Robustness.makespan_entropy);
  Alcotest.(check bool) "lateness" true
    (mt.Metrics.Robustness.avg_lateness < ml.Metrics.Robustness.avg_lateness);
  Alcotest.(check bool) "abs prob" true
    (mt.Metrics.Robustness.prob_absolute > ml.Metrics.Robustness.prob_absolute);
  Alcotest.(check bool) "rel prob" true
    (mt.Metrics.Robustness.prob_relative > ml.Metrics.Robustness.prob_relative)

let of_fresh_engine sched platform model =
  Metrics.Robustness.of_engine
    (Makespan.Engine.create ~graph:sched.Sched.Schedule.graph ~platform ~model)
    sched

let lateness_nonnegative =
  Tutil.qcheck ~count:30 "lateness >= 0 for any schedule" Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let model = Workloads.Stochastify.make ~ul:1.2 () in
      let m = of_fresh_engine sched platform model in
      m.Metrics.Robustness.avg_lateness >= -1e-9)

let probabilistic_metrics_in_unit_interval =
  Tutil.qcheck ~count:30 "A and R lie in [0,1]" Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let model = Workloads.Stochastify.make ~ul:1.2 () in
      let m = of_fresh_engine sched platform model in
      let in01 x = x >= 0. && x <= 1. in
      in01 m.Metrics.Robustness.prob_absolute && in01 m.Metrics.Robustness.prob_relative)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "metrics"
    [
      ( "robustness",
        [
          tc "closed forms on normal" `Quick compute_on_normal;
          tc "bad bounds" `Quick compute_rejects_bad_bounds;
          tc "labels/to_array" `Quick labels_and_to_array_align;
          tc "of_engine backends" `Quick of_engine_backends_agree;
          tc "tight beats loose" `Quick narrower_distribution_is_more_robust;
          lateness_nonnegative;
          probabilistic_metrics_in_unit_interval;
        ] );
      ( "inversion",
        [
          tc "mask" `Quick inversion_flips_the_right_metrics;
          tc "apply" `Quick inversion_apply_values;
          tc "apply_all" `Quick inversion_apply_all_uses_max;
          tc "wrong length" `Quick inversion_rejects_wrong_length;
        ] );
      ( "calibration",
        [
          tc "centers A and R" `Quick calibration_centers_A_and_R;
          tc "rejects empty" `Quick calibration_rejects_empty;
        ] );
    ]
