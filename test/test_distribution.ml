(* Distribution algebra suites: constructors, moments, CDF/quantiles,
   sum/max operations, families, empirical distributions, Clark pairs. *)

let check_close = Tutil.check_close
let check_close_abs = Tutil.check_close_abs

open Distribution

(* --- constructors and basic invariants --- *)

let const_basics () =
  let d = Dist.const 5. in
  Alcotest.(check bool) "is_const" true (Dist.is_const d);
  check_close "mean" 5. (Dist.mean d);
  check_close "variance" 0. (Dist.variance d);
  Alcotest.(check bool) "entropy is -inf" true (Dist.entropy d = Float.neg_infinity);
  check_close "cdf below" 0. (Dist.cdf_at d 4.9);
  check_close "cdf at" 1. (Dist.cdf_at d 5.);
  check_close "quantile" 5. (Dist.quantile d 0.3);
  let lo, hi = Dist.support d in
  check_close "support lo" 5. lo;
  check_close "support hi" 5. hi

let const_rejects_nan () =
  Alcotest.check_raises "nan" (Invalid_argument "Dist.const: non-finite value") (fun () ->
      ignore (Dist.const Float.nan))

let of_fn_normalizes () =
  let d = Dist.of_fn ~points:129 ~lo:0. ~hi:1. (fun x -> 42. *. x) in
  check_close ~eps:1e-3 "mean of 2x density" (2. /. 3.) (Dist.mean d);
  check_close "cdf hi" 1. (Dist.cdf_at d 1.)

let of_fn_rejects_empty_support () =
  Alcotest.check_raises "lo=hi" (Invalid_argument "Dist.of_fn: requires lo < hi")
    (fun () -> ignore (Dist.of_fn ~lo:1. ~hi:1. (fun _ -> 1.)))

let of_samples_negative_clamped () =
  let d = Dist.of_samples_pdf ~lo:0. ~dx:1. [| 1.; -5.; 1. |] in
  Alcotest.(check bool) "valid" true (Dist.mean d >= 0.)

(* Pinned bits of the clamp, the trapezoid normalization and the CDF on
   hand-checkable samples: NaN, ±∞, -0., negatives and subnormals all
   clamp to +0. (bit for bit, so -0. must not survive), on an odd length
   (the clamp's scalar last cell holds -∞) and an even one (+∞ last). With
   lo = 0 and dx = 1, [cdf_at] at an integer reads the stored CDF cell
   itself. *)
let pinned_bits name ~n d ~pdf ~cdf =
  let _, got_pdf = Dist.to_arrays d in
  let got_cdf = Array.init n (fun i -> Dist.cdf_at d (float_of_int i)) in
  let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
  Alcotest.(check (list int64)) (name ^ " pdf bits") (bits pdf) (bits got_pdf);
  Alcotest.(check (list int64)) (name ^ " cdf bits") (bits cdf) (bits got_cdf)

let of_samples_special_values () =
  let sub2 = Int64.float_of_bits 2L and sub1 = Int64.float_of_bits 1L in
  (* mass ((0 + 0)/2 + 0 + 0 + 0 + sub2 + 2)·1 = 2; sub2/2 = sub1, and the
     CDF's (0 + sub1)/2 rounds to +0 *)
  pinned_bits "odd" ~n:7
    (Dist.of_samples_pdf ~lo:0. ~dx:1.
       [| Float.nan; Float.infinity; -0.; -3.; sub2; 2.; Float.neg_infinity |])
    ~pdf:[| 0.; 0.; 0.; 0.; sub1; 1.; 0. |]
    ~cdf:[| 0.; 0.; 0.; 0.; 0.; 0.5; 1. |];
  (* mass (2 + 0)/2 + 0 + 3 = 4 *)
  pinned_bits "even" ~n:4
    (Dist.of_samples_pdf ~lo:0. ~dx:1. [| 2.; -0.; 3.; Float.infinity |])
    ~pdf:[| 0.5; 0.; 0.75; 0. |] ~cdf:[| 0.; 0.25; 0.625; 1. |]

let no_mass_rejected () =
  List.iter
    (fun samples ->
      Alcotest.check_raises "no finite positive sample"
        (Invalid_argument "Dist: density has no mass") (fun () ->
          ignore (Dist.of_samples_pdf ~lo:0. ~dx:1. samples)))
    [
      [| 0.; 0.; 0. |];
      [| Float.nan; Float.nan |];
      [| Float.infinity; Float.neg_infinity; Float.nan |];
      [| -0.; -1.; -0. |];
      [| -.Int64.float_of_bits 1L; 0.; Float.infinity |];
    ]

(* --- moments of families --- *)

let uniform_family_moments () =
  let d = Family.uniform ~lo:2. ~hi:8. () in
  check_close ~eps:1e-6 "mean" 5. (Dist.mean d);
  check_close ~eps:1e-3 "var" 3. (Dist.variance d);
  check_close ~eps:1e-6 "entropy" (log 6.) (Dist.entropy d)

let beta_family_moments () =
  let d = Family.beta ~alpha:2. ~beta:5. ~points:128 () in
  check_close ~eps:1e-4 "mean" (2. /. 7.) (Dist.mean d);
  check_close ~eps:1e-3 "var" (10. /. (49. *. 8.)) (Dist.variance d)

let beta_rejects_spiky_params () =
  Alcotest.check_raises "alpha <= 1"
    (Invalid_argument "Family.beta: requires alpha > 1 and beta > 1") (fun () ->
      ignore (Family.beta ~alpha:0.5 ~beta:2. ()))

let normal_family_moments () =
  let d = Family.normal ~mean:10. ~std:2. () in
  check_close ~eps:1e-6 "mean" 10. (Dist.mean d);
  check_close ~eps:1e-4 "std" 2. (Dist.std d);
  check_close ~eps:1e-3 "entropy"
    (0.5 *. log (2. *. Float.pi *. exp 1. *. 4.))
    (Dist.entropy d)

let normal_zero_std_is_const () =
  Alcotest.(check bool) "const" true (Dist.is_const (Family.normal ~mean:3. ~std:0. ()))

let uncertain_model_moments () =
  let w = 20. and ul = 1.1 in
  let d = Family.uncertain ~ul w in
  let lo, hi = Dist.support d in
  check_close "lo" w lo;
  check_close "hi" (w *. ul) hi;
  check_close ~eps:1e-4 "mean" (w *. (1. +. ((ul -. 1.) *. 2. /. 7.))) (Dist.mean d)

let uncertain_degenerate () =
  Alcotest.(check bool) "UL=1 is const" true (Dist.is_const (Family.uncertain ~ul:1. 20.));
  Alcotest.(check bool) "w=0 is const" true (Dist.is_const (Family.uncertain ~ul:1.5 0.))

let special_is_multimodal () =
  let s = Family.special () in
  let n = Family.normal ~mean:(Dist.mean s) ~std:(Dist.std s) () in
  let ks = ref 0. in
  for i = 0 to 100 do
    let x = 40. *. float_of_int i /. 100. in
    ks := Float.max !ks (Float.abs (Dist.cdf_at s x -. Dist.cdf_at n x))
  done;
  Alcotest.(check bool) "KS vs normal > 0.05" true (!ks > 0.05)

let mixture_mass_and_mean () =
  let a = Family.uniform ~lo:0. ~hi:1. () in
  let b = Family.uniform ~lo:10. ~hi:11. () in
  let m = Family.mixture ~points:256 [ (1., a); (3., b) ] in
  check_close ~eps:2e-2 "mean" ((0.25 *. 0.5) +. (0.75 *. 10.5)) (Dist.mean m)

(* --- CDF / quantile / probabilities --- *)

let cdf_quantile_roundtrip =
  Tutil.qcheck ~count:100 "quantile(cdf(x)) ≈ x on normal"
    QCheck2.Gen.(float_range 0.05 0.95)
    (fun p ->
      let d = Family.normal ~mean:0. ~std:1. ~points:512 () in
      let x = Dist.quantile d p in
      Float.abs (Dist.cdf_at d x -. p) < 2e-3)

let cdf_monotone =
  Tutil.qcheck ~count:50 "cdf is monotone"
    QCheck2.Gen.(pair (float_range (-3.) 3.) (float_range 0. 2.))
    (fun (x, delta) ->
      let d = Family.normal ~mean:0. ~std:1. () in
      Dist.cdf_at d (x +. delta) >= Dist.cdf_at d x)

let prob_between_basics () =
  let d = Family.uniform ~lo:0. ~hi:1. () in
  check_close ~eps:1e-6 "middle half" 0.5 (Dist.prob_between d 0.25 0.75);
  check_close "inverted interval" 0. (Dist.prob_between d 0.75 0.25);
  check_close ~eps:1e-9 "full" 1. (Dist.prob_between d (-1.) 2.)

let mean_above_normal () =
  let d = Family.normal ~mean:10. ~std:2. ~points:512 () in
  check_close ~eps:2e-3 "upper tail mean"
    (10. +. (2. *. sqrt (2. /. Float.pi)))
    (Dist.mean_above d 10.)

let mean_above_beyond_support () =
  let d = Family.uniform ~lo:0. ~hi:1. () in
  check_close "above support" 5. (Dist.mean_above d 5.)

(* --- transformations --- *)

let shift_scale_moments =
  Tutil.qcheck ~count:50 "shift/scale act on moments"
    QCheck2.Gen.(pair (float_range (-10.) 10.) (float_range 0.1 5.))
    (fun (c, k) ->
      let d = Family.beta ~alpha:2. ~beta:5. () in
      let shifted = Dist.shift d c in
      let scaled = Dist.scale d k in
      Float.abs (Dist.mean shifted -. (Dist.mean d +. c)) < 1e-6
      && Float.abs (Dist.std shifted -. Dist.std d) < 1e-6
      && Float.abs (Dist.mean scaled -. (k *. Dist.mean d)) < 1e-6 *. k
      && Float.abs (Dist.std scaled -. (k *. Dist.std d)) < 1e-6 *. k)

let scale_rejects_nonpositive () =
  Alcotest.check_raises "scale 0" (Invalid_argument "Dist.scale: factor must be positive")
    (fun () -> ignore (Dist.scale (Dist.const 1.) 0.))

let resample_preserves_moments () =
  let d = Family.beta ~alpha:2. ~beta:5. ~points:128 () in
  let r = Dist.resample ~points:64 d in
  check_close ~eps:1e-3 "mean" (Dist.mean d) (Dist.mean r);
  check_close ~eps:5e-3 "std" (Dist.std d) (Dist.std r)

let trim_preserves_moments () =
  let d = Family.normal ~mean:0. ~std:1. ~points:512 () in
  let t = Dist.trim ~points:64 d in
  check_close_abs ~eps:1e-3 "mean" 0. (Dist.mean t);
  check_close ~eps:5e-3 "std" 1. (Dist.std t)

(* --- sum algebra --- *)

let add_consts () =
  match Dist.add (Dist.const 2.) (Dist.const 3.) with
  | d when Dist.is_const d -> check_close "sum" 5. (Dist.mean d)
  | _ -> Alcotest.fail "const + const should be const"

let add_const_shifts () =
  let d = Family.uniform ~lo:0. ~hi:1. () in
  let s = Dist.add d (Dist.const 10.) in
  check_close ~eps:1e-6 "mean" (Dist.mean d +. 10.) (Dist.mean s);
  check_close ~eps:1e-6 "std" (Dist.std d) (Dist.std s)

let add_means_and_variances =
  Tutil.qcheck ~count:30 "means and variances add under +"
    QCheck2.Gen.(
      pair
        (pair (float_range 1. 50.) (float_range 0.2 20.))
        (pair (float_range 1. 50.) (float_range 0.2 20.)))
    (fun ((lo1, w1), (lo2, w2)) ->
      let d1 = Family.beta_scaled ~alpha:2. ~beta:5. ~lo:lo1 ~hi:(lo1 +. w1) () in
      let d2 = Family.beta_scaled ~alpha:3. ~beta:2. ~lo:lo2 ~hi:(lo2 +. w2) () in
      let s = Dist.add d1 d2 in
      let mean_err = Float.abs (Dist.mean s -. (Dist.mean d1 +. Dist.mean d2)) in
      let var_err =
        Float.abs (Dist.variance s -. (Dist.variance d1 +. Dist.variance d2))
      in
      mean_err < 0.01 *. (Dist.mean d1 +. Dist.mean d2)
      && var_err < 0.05 *. (Dist.variance d1 +. Dist.variance d2))

let add_commutative () =
  let d1 = Family.uniform ~lo:0. ~hi:2. () in
  let d2 = Family.beta_scaled ~alpha:2. ~beta:5. ~lo:5. ~hi:9. () in
  let a = Dist.add d1 d2 and b = Dist.add d2 d1 in
  check_close ~eps:1e-6 "mean" (Dist.mean a) (Dist.mean b);
  check_close ~eps:1e-4 "std" (Dist.std a) (Dist.std b)

let add_uniforms_triangular () =
  let u = Family.uniform ~lo:0. ~hi:1. ~points:128 () in
  let s = Dist.add ~points:128 u u in
  check_close ~eps:1e-3 "mean" 1. (Dist.mean s);
  check_close ~eps:1e-4 "median" 1. (Dist.quantile s 0.5);
  Alcotest.(check bool) "peak near center" true
    (Dist.pdf_at s 1. > Dist.pdf_at s 0.3 && Dist.pdf_at s 1. > Dist.pdf_at s 1.7)

let add_long_chain_clt () =
  let one = Family.beta_scaled ~alpha:2. ~beta:5. ~lo:1. ~hi:2. () in
  let acc = ref (Dist.const 0.) in
  for _ = 1 to 50 do
    acc := Dist.add !acc one
  done;
  check_close ~eps:2e-3 "mean" (50. *. Dist.mean one) (Dist.mean !acc);
  check_close ~eps:2e-2 "std" (sqrt 50. *. Dist.std one) (Dist.std !acc)

let add_narrow_wide_preserves_variance () =
  let wide = Family.normal ~mean:100. ~std:5. () in
  let narrow = Family.beta_scaled ~alpha:2. ~beta:5. ~lo:20. ~hi:20.05 () in
  let s = Dist.add wide narrow in
  check_close ~eps:1e-3 "mean" (100. +. Dist.mean narrow) (Dist.mean s);
  check_close ~eps:1e-3 "std" (sqrt ((5. *. 5.) +. Dist.variance narrow)) (Dist.std s)

(* The k-point shortcut's moment error: a Beta-shaped wide grid plus a
   Beta-shaped narrow one at most 1/16 of the combined range (and wider
   than two working cells, so neither two-point nor exact), α and β in
   [1.05, 10], 2 000 pairs from a fixed seed. Mean and σ of the sum must
   lie within 0.05 σ of m₁ + m₂ and √(v₁ + v₂), σ = √(v₁ + v₂). The
   worst errors measured are 0.021 σ (mean) and 0.0043 σ (σ); the same
   pairs through the exact convolution give 0.019 σ and 0.0040 σ. *)
let kpoint_worst_errors ~pairs ~seed =
  let rng = Prng.Xoshiro.create seed in
  let u lo hi = Prng.Sampler.uniform rng ~lo ~hi in
  let worst_mean = ref 0. and worst_std = ref 0. in
  for _ = 1 to pairs do
    let wide_lo = u 0. 100. and width = u 1. 50. in
    let wide =
      Family.beta_scaled ~alpha:(u 1.05 10.) ~beta:(u 1.05 10.) ~lo:wide_lo ~hi:(wide_lo +. width) ()
    in
    let narrow_lo = u 0. 100. and narrow_width = width *. u 0.005 (1. /. 15.5) in
    let narrow =
      Family.beta_scaled ~alpha:(u 1.05 10.) ~beta:(u 1.05 10.) ~lo:narrow_lo
        ~hi:(narrow_lo +. narrow_width) ()
    in
    let a, b = if Prng.Xoshiro.int rng 2 = 0 then (wide, narrow) else (narrow, wide) in
    let s = Dist.add a b in
    let sigma = sqrt (Dist.variance a +. Dist.variance b) in
    let mean_err = Float.abs (Dist.mean s -. (Dist.mean a +. Dist.mean b)) /. sigma in
    let std_err = Float.abs (Dist.std s -. sigma) /. sigma in
    worst_mean := Float.max !worst_mean mean_err;
    worst_std := Float.max !worst_std std_err
  done;
  (!worst_mean, !worst_std)

let add_kpoint_moment_error () =
  let mean_err, std_err = kpoint_worst_errors ~pairs:2000 ~seed:24L in
  Alcotest.(check bool) (Printf.sprintf "mean error %.4f σ <= 0.05 σ" mean_err) true
    (mean_err <= 0.05);
  Alcotest.(check bool) (Printf.sprintf "σ error %.4f σ <= 0.05 σ" std_err) true
    (std_err <= 0.05)

(* --- max algebra --- *)

let max_consts () =
  match Dist.max_indep (Dist.const 2.) (Dist.const 7.) with
  | d when Dist.is_const d -> check_close "max" 7. (Dist.mean d)
  | _ -> Alcotest.fail "max of consts should be const"

let max_cdf_is_product =
  Tutil.qcheck ~count:30 "F_max = F1·F2 on overlapping supports"
    QCheck2.Gen.(pair (float_range 0. 3.) (float_range 0.5 4.))
    (fun (shift, width) ->
      let d1 = Family.uniform ~lo:0. ~hi:4. ~points:128 () in
      let d2 = Family.uniform ~lo:shift ~hi:(shift +. width) ~points:128 () in
      let m = Dist.max_indep ~points:256 d1 d2 in
      List.for_all
        (fun frac ->
          let x = (frac *. 5.) +. 0.1 in
          Float.abs (Dist.cdf_at m x -. (Dist.cdf_at d1 x *. Dist.cdf_at d2 x)) < 0.02)
        [ 0.2; 0.4; 0.6; 0.8 ])

let max_uniforms_exact () =
  let u = Family.uniform ~lo:0. ~hi:1. ~points:128 () in
  let m = Dist.max_indep ~points:128 u u in
  check_close ~eps:1e-3 "mean" (2. /. 3.) (Dist.mean m);
  check_close ~eps:5e-3 "cdf(0.5)" 0.25 (Dist.cdf_at m 0.5)

let max_dominated_support () =
  let low = Family.uniform ~lo:0. ~hi:1. () in
  let high = Family.uniform ~lo:5. ~hi:6. () in
  let m = Dist.max_indep low high in
  check_close ~eps:1e-3 "mean" (Dist.mean high) (Dist.mean m);
  check_close ~eps:2e-2 "std" (Dist.std high) (Dist.std m)

let max_with_const_truncates () =
  let u = Family.uniform ~lo:0. ~hi:1. ~points:256 () in
  let m = Dist.max_indep ~points:256 u (Dist.const 0.5) in
  check_close ~eps:2e-2 "mean" 0.625 (Dist.mean m);
  let lo, _ = Dist.support m in
  Alcotest.(check bool) "support starts at 0.5" true (lo >= 0.49)

let max_const_below_is_identity () =
  let u = Family.uniform ~lo:2. ~hi:3. () in
  let m = Dist.max_indep u (Dist.const 0.) in
  check_close "mean" (Dist.mean u) (Dist.mean m)

let max_const_above_wins () =
  let u = Family.uniform ~lo:2. ~hi:3. () in
  match Dist.max_indep u (Dist.const 10.) with
  | d when Dist.is_const d -> check_close "mean" 10. (Dist.mean d)
  | _ -> Alcotest.fail "const above support should dominate"

let max_many_iid_concentrates () =
  let u = Family.uniform ~lo:0. ~hi:1. ~points:128 () in
  let m = Dist.max_list ~points:128 (List.init 20 (fun _ -> u)) in
  Alcotest.(check bool) "mean > 0.9" true (Dist.mean m > 0.9);
  Alcotest.(check bool) "sigma shrinks" true (Dist.std m < 0.5 *. Dist.std u)

let max_list_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.max_list: empty list") (fun () ->
      ignore (Dist.max_list []))

let max_comonotone_idempotent () =
  (* max of a variable with itself under perfect dependence is itself *)
  let u = Family.uniform ~lo:2. ~hi:5. ~points:128 () in
  let m = Dist.max_comonotone ~points:128 u u in
  check_close ~eps:2e-3 "mean" (Dist.mean u) (Dist.mean m);
  check_close ~eps:2e-2 "std" (Dist.std u) (Dist.std m)

let max_comonotone_below_independent =
  Tutil.qcheck ~count:30 "comonotone max ≼ independent max (stochastic order)"
    QCheck2.Gen.(pair (float_range 0. 2.) (float_range 0.5 3.))
    (fun (shift, width) ->
      let d1 = Family.uniform ~lo:0. ~hi:3. ~points:128 () in
      let d2 = Family.uniform ~lo:shift ~hi:(shift +. width) ~points:128 () in
      let co = Dist.max_comonotone ~points:256 d1 d2 in
      let ind = Dist.max_indep ~points:256 d1 d2 in
      (* F_co(x) >= F_ind(x) for all x, up to grid noise *)
      List.for_all
        (fun frac ->
          let x = frac *. 5.5 in
          Dist.cdf_at co x >= Dist.cdf_at ind x -. 0.03)
        [ 0.1; 0.3; 0.5; 0.7; 0.9 ]
      && Dist.mean co <= Dist.mean ind +. 0.02)

let max_comonotone_cdf_is_min () =
  let d1 = Family.uniform ~lo:0. ~hi:2. ~points:256 () in
  let d2 = Family.uniform ~lo:1. ~hi:3. ~points:256 () in
  let m = Dist.max_comonotone ~points:512 d1 d2 in
  List.iter
    (fun x ->
      check_close_abs ~eps:0.02
        (Printf.sprintf "cdf at %g" x)
        (Float.min (Dist.cdf_at d1 x) (Dist.cdf_at d2 x))
        (Dist.cdf_at m x))
    [ 1.2; 1.6; 2.0; 2.4; 2.8 ]

let max_comonotone_consts () =
  match Dist.max_comonotone (Dist.const 1.) (Dist.const 4.) with
  | d when Dist.is_const d -> check_close "max" 4. (Dist.mean d)
  | _ -> Alcotest.fail "expected const"

let max_monotone_wrt_shift =
  Tutil.qcheck ~count:30 "max mean grows when one input shifts up"
    QCheck2.Gen.(float_range 0. 3.)
    (fun c ->
      let d1 = Family.uniform ~lo:0. ~hi:2. () in
      let d2 = Family.uniform ~lo:0. ~hi:2. () in
      let base = Dist.mean (Dist.max_indep d1 d2) in
      let shifted = Dist.mean (Dist.max_indep d1 (Dist.shift d2 c)) in
      (* allow grid-discretization noise of the 64-point densities *)
      shifted >= base -. 5e-3)

(* --- Empirical --- *)

let empirical_basic_stats () =
  let e = Empirical.of_samples [| 3.; 1.; 2.; 4.; 5. |] in
  Alcotest.(check int) "size" 5 (Empirical.size e);
  check_close "mean" 3. (Empirical.mean e);
  check_close "variance" 2.5 (Empirical.variance e);
  check_close "min" 1. (Empirical.min e);
  check_close "max" 5. (Empirical.max e)

let empirical_cdf_steps () =
  let e = Empirical.of_samples [| 1.; 2.; 3. |] in
  check_close "below" 0. (Empirical.cdf_at e 0.);
  check_close "at 1" (1. /. 3.) (Empirical.cdf_at e 1.);
  check_close "between" (2. /. 3.) (Empirical.cdf_at e 2.5);
  check_close "above" 1. (Empirical.cdf_at e 10.)

let empirical_quantiles () =
  let e = Empirical.of_samples (Array.init 101 float_of_int) in
  check_close "median" 50. (Empirical.quantile e 0.5);
  check_close "q0" 0. (Empirical.quantile e 0.);
  check_close "q1" 100. (Empirical.quantile e 1.)

let empirical_to_dist_moments () =
  let rng = Tutil.rng_of_seed 12 in
  let samples = Array.init 50000 (fun _ -> Prng.Sampler.normal rng ~mean:10. ~std:2.) in
  let e = Empirical.of_samples samples in
  let d = Empirical.to_dist ~points:128 e in
  check_close ~eps:5e-3 "mean" 10. (Dist.mean d);
  check_close ~eps:3e-2 "std" 2. (Dist.std d)

let empirical_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Empirical.of_samples: empty sample")
    (fun () -> ignore (Empirical.of_samples [||]))

(* --- Normal_pair (Clark) --- *)

let clark_add () =
  let a = Normal_pair.make ~mean:3. ~std:4. in
  let b = Normal_pair.make ~mean:1. ~std:3. in
  let s = Normal_pair.add a b in
  check_close "mean" 4. s.Normal_pair.mean;
  check_close "std" 5. s.Normal_pair.std

let clark_max_iid_standard () =
  let n = Normal_pair.make ~mean:0. ~std:1. in
  let m = Normal_pair.max_clark n n in
  check_close ~eps:1e-6 "mean" (1. /. sqrt Float.pi) m.Normal_pair.mean;
  check_close ~eps:1e-6 "std" (sqrt (1. -. (1. /. Float.pi))) m.Normal_pair.std

let clark_max_dominated () =
  let a = Normal_pair.make ~mean:0. ~std:1. in
  let b = Normal_pair.make ~mean:100. ~std:1. in
  let m = Normal_pair.max_clark a b in
  check_close ~eps:1e-6 "mean" 100. m.Normal_pair.mean;
  check_close ~eps:1e-4 "std" 1. m.Normal_pair.std

let clark_max_consts () =
  let m = Normal_pair.max_clark (Normal_pair.const 2.) (Normal_pair.const 5.) in
  check_close "mean" 5. m.Normal_pair.mean;
  check_close "std" 0. m.Normal_pair.std

let clark_matches_grid_max =
  Tutil.qcheck ~count:20 "Clark ≈ grid max for normals"
    QCheck2.Gen.(pair (float_range (-2.) 2.) (float_range 0.5 2.))
    (fun (mu, sigma) ->
      let a = Normal_pair.make ~mean:0. ~std:1. in
      let b = Normal_pair.make ~mean:mu ~std:sigma in
      let clark = Normal_pair.max_clark a b in
      let grid =
        Dist.max_indep ~points:512
          (Normal_pair.to_normal ~points:512 a)
          (Normal_pair.to_normal ~points:512 b)
      in
      Float.abs (clark.Normal_pair.mean -. Dist.mean grid) < 0.02
      && Float.abs (clark.Normal_pair.std -. Dist.std grid) < 0.05)

(* --- performance contracts of the fused kernels --- *)

(* The sum/max/moment kernels run on per-domain arenas and write results
   into exactly-sized grids: steady-state cost per operation is the
   result grid itself (a few hundred minor words), never the working
   buffers, spline fits, or intermediate lists. A leak that reintroduces
   per-operation buffer allocation shows up here as thousands of extra
   words per iteration. *)
let fused_kernels_allocation_bound () =
  let d1 = Family.uniform ~lo:0. ~hi:10. () in
  let d2 = Family.uniform ~lo:2. ~hi:3.5 () in
  (* warm up: grow the arenas, fit the operand splines, build the caches *)
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (Dist.add d1 d2));
    ignore (Sys.opaque_identity (Dist.max_indep d1 d2));
    ignore (Sys.opaque_identity (Dist.trim (Dist.add d1 d1)))
  done;
  let iters = 200 in
  (* [Gc.minor_words] is exact; [Gc.counters]' minor count is not *)
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (Dist.add d1 d2));
    ignore (Sys.opaque_identity (Dist.max_indep d1 d2));
    ignore (Sys.opaque_identity (Dist.trim (Dist.add d1 d1)))
  done;
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let per_iter = (minor1 -. minor0) /. float_of_int iters in
  (* words allocated straight into the major heap: blocks above 256
     words, i.e. any grid the size of the convolution's intermediate *)
  let direct_major = (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int iters in
  (* ~0.9k words/iter once only the result grids are allocated: the
     intermediate grid and every spline sample stay in the arena. Boxed
     spline returns measured ~6.8k, the pre-arena implementation ~17.8k. *)
  if per_iter > 2_000. then
    Alcotest.failf "fused kernels allocated %.0f minor words per add+max+trim" per_iter;
  (* a published intermediate grid measured ~2.4k direct major words *)
  if direct_major >= 100. then
    Alcotest.failf "fused kernels allocated %.0f words per add+max+trim directly in the major heap"
      direct_major

(* Moment and CDF reads must not allocate at all in steady state — in
   particular they must not force the lazy density spline. *)
let moment_reads_do_not_allocate () =
  let d = Dist.add (Family.uniform ~lo:0. ~hi:4. ()) (Family.uniform ~lo:1. ~hi:2. ()) in
  let sink = ref 0. in
  for _ = 1 to 3 do
    sink := !sink +. Dist.mean d +. Dist.std d +. Dist.cdf_at d 3. +. Dist.quantile d 0.9
  done;
  let iters = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    sink := !sink +. Dist.mean d +. Dist.std d +. Dist.cdf_at d 3. +. Dist.quantile d 0.9
  done;
  let per_iter = (Gc.minor_words () -. before) /. float_of_int iters in
  ignore (Sys.opaque_identity !sink);
  if per_iter > 100. then
    Alcotest.failf "moment/CDF reads allocated %.0f minor words per iteration" per_iter

(* The density spline is fit lazily on the first pdf query; the value it
   returns must match a density reconstructed from an eagerly resampled
   copy of the same grid. *)
let lazy_spline_density_consistent () =
  let d = Dist.add (Family.uniform ~lo:0. ~hi:4. ()) (Family.uniform ~lo:1. ~hi:2. ()) in
  let r = Dist.resample ~points:64 d in
  let lo, hi = Dist.support d in
  for k = 0 to 32 do
    let x = lo +. ((hi -. lo) *. float_of_int k /. 32.) in
    check_close ~eps:1e-6
      (Printf.sprintf "pdf at %g" x)
      (Dist.pdf_at r x) (Dist.pdf_at d x)
  done

(* --- convolution-chain mode: depth/err bookkeeping and the
   moment-space (Berry–Esseen) fast path --- *)

(* Run [f] under [mode], always restoring the process-wide default so
   the rest of the suite stays on the exact path. *)
let with_chain_mode mode f =
  Dist.set_chain_mode mode;
  Fun.protect ~finally:(fun () -> Dist.set_chain_mode Dist.Exact) f

let self_sum d n =
  let acc = ref d in
  for _ = 2 to n do
    acc := Dist.add !acc d
  done;
  !acc

let sup_cdf_distance a b =
  let lo_a, hi_a = Dist.support a and lo_b, hi_b = Dist.support b in
  let lo = Float.min lo_a lo_b and hi = Float.max hi_a hi_b in
  let worst = ref 0. in
  for k = 0 to 400 do
    let x = lo +. ((hi -. lo) *. float_of_int k /. 400.) in
    worst := Float.max !worst (Float.abs (Dist.cdf_at a x -. Dist.cdf_at b x))
  done;
  !worst

let chain_bookkeeping () =
  let u = Family.uniform ~lo:0. ~hi:1. () in
  Alcotest.(check int) "base grid depth" 1 (Dist.chain_depth u);
  Alcotest.(check int) "const depth" 0 (Dist.chain_depth (Dist.const 3.));
  check_close "base err" 0. (Dist.chain_error_bound u);
  let s2 = Dist.add u u in
  Alcotest.(check int) "add sums depth" 2 (Dist.chain_depth s2);
  let s3 = Dist.add s2 u in
  Alcotest.(check int) "depth accumulates" 3 (Dist.chain_depth s3);
  check_close "exact path err stays 0" 0. (Dist.chain_error_bound s3);
  Alcotest.(check int) "shift keeps depth" 3 (Dist.chain_depth (Dist.shift s3 1.));
  Alcotest.(check int) "scale keeps depth" 3 (Dist.chain_depth (Dist.scale s3 2.));
  Alcotest.(check int) "resample keeps depth" 3
    (Dist.chain_depth (Dist.resample ~points:64 s3));
  (* a maximum is a synchronization point: the CLT argument restarts *)
  Alcotest.(check int) "max resets depth" 1 (Dist.chain_depth (Dist.max_indep s3 s2));
  Alcotest.(check int) "comonotone max resets depth" 1
    (Dist.chain_depth (Dist.max_comonotone s3 s2));
  check_close "third central moment of const" 0.
    (Dist.abs_third_central_moment (Dist.const 2.));
  Alcotest.(check bool) "third central moment positive" true
    (Dist.abs_third_central_moment u > 0.)

let chain_mode_rejects_threshold () =
  Alcotest.check_raises "Moment 1"
    (Invalid_argument "Dist.set_chain_mode: Moment depth must be >= 2") (fun () ->
      Dist.set_chain_mode (Dist.Moment 1))

(* Under [Moment k] the CLT replacement must stay within its advertised
   Kolmogorov bound of the fully exact convolution chain, and close in
   practice: the moment path exists to be indistinguishable at depth. *)
let moment_chain_error_bound () =
  let d = Family.uncertain ~ul:1.1 20. in
  List.iter
    (fun n ->
      let exact = self_sum d n in
      let approx = with_chain_mode (Dist.Moment 5) (fun () -> self_sum d n) in
      Alcotest.(check int) (Printf.sprintf "depth %d tracked" n) n
        (Dist.chain_depth approx);
      let bound = Dist.chain_error_bound approx in
      Alcotest.(check bool) (Printf.sprintf "depth %d bound positive" n) true
        (bound > 0.);
      check_close "exact chain err stays 0" 0. (Dist.chain_error_bound exact);
      let dist = sup_cdf_distance approx exact in
      if dist > bound +. 1e-9 then
        Alcotest.failf "depth %d: sup-CDF distance %.4g exceeds bound %.4g" n dist
          bound;
      (* empirical quality, far tighter than the worst-case bound *)
      if dist > 0.05 then
        Alcotest.failf "depth %d: sup-CDF distance %.4g vs exact chain" n dist;
      check_close ~eps:1e-2 (Printf.sprintf "depth %d mean" n) (Dist.mean exact)
        (Dist.mean approx);
      check_close ~eps:2e-2 (Printf.sprintf "depth %d std" n) (Dist.std exact)
        (Dist.std approx))
    [ 5; 12; 25; 50 ]

(* Toggling Moment on and back off must leave the exact path
   bit-reproducible — this is what keeps campaign CSVs and served bytes
   stable under the default mode. *)
let exact_mode_round_trip_bitwise () =
  let d = Family.uncertain ~ul:1.2 10. in
  let fingerprint () =
    let s = self_sum d 8 in
    List.map Int64.bits_of_float
      [
        Dist.mean s;
        Dist.std s;
        Dist.quantile s 0.05;
        Dist.quantile s 0.5;
        Dist.quantile s 0.95;
        Dist.cdf_at s (Dist.mean s);
      ]
  in
  let before = fingerprint () in
  let under_moment = with_chain_mode (Dist.Moment 3) fingerprint in
  let after = fingerprint () in
  Alcotest.(check (list int64)) "exact bits unchanged by mode round-trip" before
    after;
  Alcotest.(check bool) "moment path actually engaged" true (under_moment <> before)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "distribution"
    [
      ( "construct",
        [
          tc "const" `Quick const_basics;
          tc "const rejects nan" `Quick const_rejects_nan;
          tc "of_fn normalizes" `Quick of_fn_normalizes;
          tc "of_fn empty support" `Quick of_fn_rejects_empty_support;
          tc "negative samples clamped" `Quick of_samples_negative_clamped;
          tc "no mass" `Quick no_mass_rejected;
          tc "special samples pinned bits" `Quick of_samples_special_values;
        ] );
      ( "families",
        [
          tc "uniform" `Quick uniform_family_moments;
          tc "beta" `Quick beta_family_moments;
          tc "beta params" `Quick beta_rejects_spiky_params;
          tc "normal" `Quick normal_family_moments;
          tc "normal zero std" `Quick normal_zero_std_is_const;
          tc "uncertain" `Quick uncertain_model_moments;
          tc "uncertain degenerate" `Quick uncertain_degenerate;
          tc "special multimodal" `Quick special_is_multimodal;
          tc "mixture" `Quick mixture_mass_and_mean;
        ] );
      ( "functionals",
        [
          cdf_quantile_roundtrip;
          cdf_monotone;
          tc "prob_between" `Quick prob_between_basics;
          tc "mean_above normal" `Quick mean_above_normal;
          tc "mean_above beyond" `Quick mean_above_beyond_support;
        ] );
      ( "transform",
        [
          shift_scale_moments;
          tc "scale rejects" `Quick scale_rejects_nonpositive;
          tc "resample" `Quick resample_preserves_moments;
          tc "trim" `Quick trim_preserves_moments;
        ] );
      ( "sum",
        [
          tc "consts" `Quick add_consts;
          tc "const shift" `Quick add_const_shifts;
          add_means_and_variances;
          tc "commutative" `Quick add_commutative;
          tc "triangular" `Quick add_uniforms_triangular;
          tc "50-fold chain CLT" `Quick add_long_chain_clt;
          tc "narrow+wide variance" `Quick add_narrow_wide_preserves_variance;
          tc "k-point moment error" `Quick add_kpoint_moment_error;
        ] );
      ( "max",
        [
          tc "consts" `Quick max_consts;
          max_cdf_is_product;
          tc "uniforms exact" `Quick max_uniforms_exact;
          tc "dominated support" `Quick max_dominated_support;
          tc "const truncation" `Quick max_with_const_truncates;
          tc "const below" `Quick max_const_below_is_identity;
          tc "const above" `Quick max_const_above_wins;
          tc "iid concentration" `Quick max_many_iid_concentrates;
          tc "empty list" `Quick max_list_rejects_empty;
          max_monotone_wrt_shift;
          tc "comonotone idempotent" `Quick max_comonotone_idempotent;
          max_comonotone_below_independent;
          tc "comonotone cdf is min" `Quick max_comonotone_cdf_is_min;
          tc "comonotone consts" `Quick max_comonotone_consts;
        ] );
      ( "empirical",
        [
          tc "basic stats" `Quick empirical_basic_stats;
          tc "cdf steps" `Quick empirical_cdf_steps;
          tc "quantiles" `Quick empirical_quantiles;
          tc "to_dist" `Quick empirical_to_dist_moments;
          tc "rejects empty" `Quick empirical_rejects_empty;
        ] );
      ( "normal_pair",
        [
          tc "add" `Quick clark_add;
          tc "max iid" `Quick clark_max_iid_standard;
          tc "max dominated" `Quick clark_max_dominated;
          tc "max consts" `Quick clark_max_consts;
          clark_matches_grid_max;
        ] );
      ( "chain",
        [
          tc "depth/err bookkeeping" `Quick chain_bookkeeping;
          tc "mode rejects threshold < 2" `Quick chain_mode_rejects_threshold;
          tc "moment bound vs exact chain" `Quick moment_chain_error_bound;
          tc "exact round-trip bitwise" `Quick exact_mode_round_trip_bitwise;
        ] );
      ( "perf contracts",
        [
          tc "fused kernels allocation bound" `Quick fused_kernels_allocation_bound;
          tc "moment reads allocate nothing" `Quick moment_reads_do_not_allocate;
          tc "lazy spline density" `Quick lazy_spline_density_consistent;
        ] );
    ]
