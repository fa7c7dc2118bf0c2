(* Stats suites: descriptive statistics, correlations,
   CDF distances, matrix rendering. *)

let check_close = Tutil.check_close
let check_close_abs = Tutil.check_close_abs

(* --- Descriptive --- *)

let descriptive_known () =
  let a = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_close "mean" 5. (Stats.Descriptive.mean a);
  check_close "population var" 4. (Stats.Descriptive.population_variance a);
  check_close "sample var" (32. /. 7.) (Stats.Descriptive.variance a);
  check_close "median" 4.5 (Stats.Descriptive.quantile a 0.5)

let descriptive_single () =
  check_close "variance of singleton" 0. (Stats.Descriptive.variance [| 3. |]);
  check_close "median of singleton" 3. (Stats.Descriptive.quantile [| 3. |] 0.5)

let descriptive_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Descriptive.mean: empty sample")
    (fun () -> ignore (Stats.Descriptive.mean [||]))

let quantile_interpolation () =
  let a = [| 0.; 10. |] in
  check_close "q0.25" 2.5 (Stats.Descriptive.quantile a 0.25);
  check_close "q0.5" 5. (Stats.Descriptive.quantile a 0.5)

(* --- Correlation --- *)

let pearson_perfect_line =
  Tutil.qcheck ~count:50 "pearson = ±1 on exact lines"
    QCheck2.Gen.(triple (float_range 0.1 5.) bool (int_range 0 10000))
    (fun (slope, negate, seed) ->
      let slope = if negate then -.slope else slope in
      let rng = Tutil.rng_of_seed seed in
      let xs = Array.init 20 (fun _ -> Prng.Sampler.uniform rng ~lo:(-5.) ~hi:5.) in
      (* degenerate sample: all xs equal → skip *)
      let distinct = Array.exists (fun x -> x <> xs.(0)) xs in
      if not distinct then true
      else begin
        let ys = Array.map (fun x -> (slope *. x) +. 2.) xs in
        let r = Stats.Correlation.pearson xs ys in
        Float.abs (r -. Float.of_int (compare slope 0.)) < 1e-9
      end)

let pearson_affine_invariant () =
  let xs = [| 1.; 2.; 3.; 5.; 8. |] and ys = [| 2.; 1.; 4.; 3.; 7. |] in
  let r0 = Stats.Correlation.pearson xs ys in
  let xs' = Array.map (fun x -> (3. *. x) +. 7.) xs in
  let ys' = Array.map (fun y -> (0.5 *. y) -. 2.) ys in
  check_close ~eps:1e-12 "invariant" r0 (Stats.Correlation.pearson xs' ys')

let pearson_sign_flip () =
  let xs = [| 1.; 2.; 3.; 5.; 8. |] and ys = [| 2.; 1.; 4.; 3.; 7. |] in
  let r0 = Stats.Correlation.pearson xs ys in
  let ys' = Array.map (fun y -> -.y) ys in
  check_close ~eps:1e-12 "negated" (-.r0) (Stats.Correlation.pearson xs ys')

let pearson_zero_variance_nan () =
  Alcotest.(check bool) "nan" true
    (Float.is_nan (Stats.Correlation.pearson [| 1.; 1.; 1. |] [| 1.; 2.; 3. |]))

let pearson_bounded =
  Tutil.qcheck ~count:100 "|pearson| <= 1"
    QCheck2.Gen.(pair (int_range 2 50) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let xs = Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:0. ~hi:1.) in
      let ys = Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:0. ~hi:1.) in
      let r = Stats.Correlation.pearson xs ys in
      Float.is_nan r || Float.abs r <= 1. +. 1e-12)

let spearman_monotone_is_one () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let ys = Array.map (fun x -> exp x) xs in
  check_close "monotone" 1. (Stats.Correlation.spearman xs ys)

let spearman_handles_ties () =
  let xs = [| 1.; 1.; 2.; 3. |] and ys = [| 1.; 1.; 2.; 3. |] in
  check_close ~eps:1e-9 "ties" 1. (Stats.Correlation.spearman xs ys)

(* --- Distance --- *)

let ks_identical_zero () =
  let d = Distribution.Family.normal ~mean:0. ~std:1. () in
  check_close_abs ~eps:1e-9 "ks self" 0. (Stats.Distance.ks (Analytic d) (Analytic d))

let ks_disjoint_one () =
  let a = Distribution.Family.uniform ~lo:0. ~hi:1. () in
  let b = Distribution.Family.uniform ~lo:10. ~hi:11. () in
  check_close ~eps:1e-6 "disjoint" 1. (Stats.Distance.ks (Analytic a) (Analytic b))

let ks_known_shift () =
  (* U(0,1) vs U(0.5,1.5): |F1 − F2| peaks at 0.5 *)
  let a = Distribution.Family.uniform ~lo:0. ~hi:1. ~points:512 () in
  let b = Distribution.Family.uniform ~lo:0.5 ~hi:1.5 ~points:512 () in
  check_close ~eps:1e-2 "shifted uniforms" 0.5 (Stats.Distance.ks (Analytic a) (Analytic b))

let ks_empirical_converges () =
  let d = Distribution.Family.normal ~mean:0. ~std:1. ~points:512 () in
  let rng = Tutil.rng_of_seed 9 in
  let small =
    Distribution.Empirical.of_samples
      (Array.init 100 (fun _ -> Prng.Sampler.normal rng ~mean:0. ~std:1.))
  in
  let large =
    Distribution.Empirical.of_samples
      (Array.init 20000 (fun _ -> Prng.Sampler.normal rng ~mean:0. ~std:1.))
  in
  let ks_small = Stats.Distance.ks (Analytic d) (Sampled small) in
  let ks_large = Stats.Distance.ks (Analytic d) (Sampled large) in
  Alcotest.(check bool) "more samples, smaller KS" true (ks_large < ks_small)

let ks_normal_location_shift () =
  (* KS(N(0,1), N(δ,1)) = 2Φ(δ/2) − 1, attained midway *)
  let a = Distribution.Family.normal ~mean:0. ~std:1. ~points:512 () in
  let b = Distribution.Family.normal ~mean:0.5 ~std:1. ~points:512 () in
  check_close_abs ~eps:3e-3 "known value"
    ((2. *. Numerics.Special.normal_cdf 0.25) -. 1.)
    (Stats.Distance.ks (Analytic a) (Analytic b))

let cm_identical_zero () =
  let d = Distribution.Family.normal ~mean:0. ~std:1. () in
  check_close_abs ~eps:1e-9 "cm self" 0. (Stats.Distance.cm_area (Analytic d) (Analytic d))

let cm_shift_equals_offset () =
  (* for a pure location shift, ∫|F1−F2| = the shift *)
  let a = Distribution.Family.uniform ~lo:0. ~hi:1. ~points:512 () in
  let b = Distribution.Family.uniform ~lo:2. ~hi:3. ~points:512 () in
  check_close ~eps:5e-3 "area = shift" 2. (Stats.Distance.cm_area (Analytic a) (Analytic b))

let ks_symmetric =
  Tutil.qcheck ~count:20 "ks symmetric"
    QCheck2.Gen.(pair (float_range (-2.) 2.) (float_range 0.5 3.))
    (fun (mu, sigma) ->
      let a = Distribution.Family.normal ~mean:0. ~std:1. () in
      let b = Distribution.Family.normal ~mean:mu ~std:sigma () in
      Float.abs
        (Stats.Distance.ks (Analytic a) (Analytic b)
        -. Stats.Distance.ks (Analytic b) (Analytic a))
      < 1e-12)

(* --- Bootstrap --- *)

(* a noisy linear pair: Pearson ≈ 0.7, so the interval has room to shrink *)
let noisy_pair rng n =
  let xs = Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:0. ~hi:1.) in
  (xs, Array.map (fun x -> x +. (0.3 *. Prng.Sampler.normal rng ~mean:0. ~std:1.)) xs)

let bootstrap_ci_narrows_with_n =
  Tutil.qcheck ~count:5 "more data, narrower interval" QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Tutil.rng_of_seed seed in
      let width n =
        let xs, ys = noisy_pair rng n in
        let iv = Stats.Bootstrap.pearson_ci ~rng ~replicates:300 xs ys in
        iv.Stats.Bootstrap.hi -. iv.Stats.Bootstrap.lo
      in
      width 1000 < width 30)

let bootstrap_pearson_interval () =
  let rng = Tutil.rng_of_seed 34 in
  (* strongly correlated pair: interval should sit near 1 and exclude 0 *)
  let xs = Array.init 200 (fun _ -> Prng.Sampler.uniform rng ~lo:0. ~hi:1.) in
  let ys = Array.map (fun x -> (2. *. x) +. 0.05 *. Prng.Sampler.normal rng ~mean:0. ~std:1.) xs in
  let iv = Stats.Bootstrap.pearson_ci ~rng ~replicates:500 xs ys in
  Alcotest.(check bool) "high estimate" true (iv.Stats.Bootstrap.estimate > 0.95);
  Alcotest.(check bool) "excludes zero" true (iv.Stats.Bootstrap.lo > 0.5)

let bootstrap_deterministic () =
  let xs, ys = noisy_pair (Tutil.rng_of_seed 35) 50 in
  let run seed = Stats.Bootstrap.pearson_ci ~rng:(Tutil.rng_of_seed seed) ~replicates:200 xs ys in
  Alcotest.(check bool) "same seed same interval" true (run 7 = run 7)

let bootstrap_rejects_bad_params () =
  let rng = Tutil.rng_of_seed 1 in
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  let pair = [| 1.; 2. |] in
  expect (fun () -> Stats.Bootstrap.pearson_ci ~rng ~replicates:5 pair pair);
  expect (fun () -> Stats.Bootstrap.pearson_ci ~rng ~confidence:1.5 pair pair);
  expect (fun () -> Stats.Bootstrap.pearson_ci ~rng [| 1. |] [| 1. |]);
  expect (fun () -> Stats.Bootstrap.pearson_ci ~rng pair [| 1. |])

(* --- Matrix_render --- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let render_contains_labels () =
  let labels = [| "alpha"; "beta" |] in
  let m = [| [| 1.; 0.5 |]; [| 0.5; 1. |] |] in
  let s = Stats.Matrix_render.render ~labels m in
  Alcotest.(check bool) "has alpha" true (contains ~needle:"alpha" s)

let render_mean_std_triangles () =
  let labels = [| "a"; "b" |] in
  let mean = [| [| 1.; 0.9 |]; [| 0.9; 1. |] |] in
  let std = [| [| 0.; 0.1 |]; [| 0.1; 0. |] |] in
  let s = Stats.Matrix_render.render_mean_std ~labels mean std in
  Alcotest.(check bool) "mentions both" true
    (String.length s > 10)

let csv_roundtrip_values () =
  let labels = [| "x"; "y" |] in
  let m = [| [| 1.; -0.25 |]; [| -0.25; 1. |] |] in
  let s = Stats.Matrix_render.to_csv ~labels m in
  Alcotest.(check bool) "csv has value" true (contains ~needle:"-0.250000" s)

let render_rejects_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix_render: ragged matrix")
    (fun () ->
      ignore (Stats.Matrix_render.render ~labels:[| "a"; "b" |] [| [| 1. |]; [| 1.; 2. |] |]))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          tc "known values" `Quick descriptive_known;
          tc "singleton" `Quick descriptive_single;
          tc "rejects empty" `Quick descriptive_rejects_empty;
          tc "quantile interp" `Quick quantile_interpolation;
        ] );
      ( "correlation",
        [
          pearson_perfect_line;
          tc "affine invariant" `Quick pearson_affine_invariant;
          tc "sign flip" `Quick pearson_sign_flip;
          tc "zero variance" `Quick pearson_zero_variance_nan;
          pearson_bounded;
          tc "spearman monotone" `Quick spearman_monotone_is_one;
          tc "spearman ties" `Quick spearman_handles_ties;
        ] );
      ( "distance",
        [
          tc "ks self" `Quick ks_identical_zero;
          tc "ks disjoint" `Quick ks_disjoint_one;
          tc "ks shift" `Quick ks_known_shift;
          tc "ks empirical" `Quick ks_empirical_converges;
          tc "ks normal shift" `Quick ks_normal_location_shift;
          tc "cm self" `Quick cm_identical_zero;
          tc "cm shift" `Quick cm_shift_equals_offset;
          ks_symmetric;
        ] );
      ( "bootstrap",
        [
          bootstrap_ci_narrows_with_n;
          tc "pearson interval" `Quick bootstrap_pearson_interval;
          tc "deterministic" `Quick bootstrap_deterministic;
          tc "bad params" `Quick bootstrap_rejects_bad_params;
        ] );
      ( "render",
        [
          tc "labels" `Quick render_contains_labels;
          tc "mean/std" `Quick render_mean_std_triangles;
          tc "csv" `Quick csv_roundtrip_values;
          tc "ragged" `Quick render_rejects_ragged;
        ] );
    ]
