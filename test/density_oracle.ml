(* Frozen oracle: the OCaml passes that Dist ran over every new density
   before they moved to C (lib/numerics/density_stubs.c), copied verbatim
   in their arithmetic — the clamp, Integrate's trapezoid mass and
   running integral, the normalization and the renormalization by the
   last CDF cell — and the f1·F2 + f2·F1 loop of Dist.max_indep with its
   linear-interpolation CDF reads. The bitwise tests in test_numerics.ml
   hold Numerics.Density to it. Do not edit the arithmetic. *)

let trapezoid_prefix ~dx ~n ys =
  let s = ref ((ys.(0) +. ys.(n - 1)) /. 2.) in
  for i = 1 to n - 2 do
    s := !s +. Array.unsafe_get ys i
  done;
  !s *. dx

let cumulative_into ~dx ~n ys out =
  if n < 1 then invalid_arg "Integrate.cumulative_into: empty input";
  if Array.length ys < n || Array.length out < n then
    invalid_arg "Integrate.cumulative_into: buffer shorter than n";
  Array.unsafe_set out 0 0.;
  for i = 1 to n - 1 do
    Array.unsafe_set out i
      (Array.unsafe_get out (i - 1)
      +. ((Array.unsafe_get ys (i - 1) +. Array.unsafe_get ys i) /. 2. *. dx))
  done

(* The clamp and the mass: Numerics.Density.clamp_mass. *)
let clamp_mass ~dx ~n src ~pdf =
  for i = 0 to n - 1 do
    let v = Array.unsafe_get src i in
    Array.unsafe_set pdf i (if Float.is_finite v && v > 0. then v else 0.)
  done;
  trapezoid_prefix ~dx ~n pdf

(* The normalization, the CDF and its renormalization:
   Numerics.Density.normalize. *)
let normalize ~dx ~n ~mass:total ~pdf ~cdf =
  for i = 0 to n - 1 do
    Array.unsafe_set pdf i (Array.unsafe_get pdf i /. total)
  done;
  cumulative_into ~dx ~n pdf cdf;
  let last = Array.unsafe_get cdf (n - 1) in
  if last > 0. then
    for i = 0 to n - 1 do
      Array.unsafe_set cdf i (Float.min 1. (Array.unsafe_get cdf i /. last))
    done

(* Dist.grid_cdf_at over a bare CDF array sampled at lo + i·dx. *)
let cdf_at ~lo ~dx cdf x =
  let n = Array.length cdf in
  if x <= lo then 0.
  else
    let hi = lo +. (dx *. float_of_int (n - 1)) in
    if x >= hi then 1.
    else begin
      let pos = (x -. lo) /. dx in
      let i = int_of_float pos in
      let i = Int.min i (n - 2) in
      let frac = pos -. float_of_int i in
      let c_i = Array.unsafe_get cdf i in
      let v = c_i +. (frac *. (Array.unsafe_get cdf (i + 1) -. c_i)) in
      Float.min 1. (Float.max 0. v)
    end

(* Numerics.Density.max_indep_into. *)
let max_indep_into ~f1 ~f2 ~lo1 ~dx1 ~cdf1 ~lo2 ~dx2 ~cdf2 ~lo ~dx ~n buf =
  let kf = ref 0. in
  for k = 0 to n - 1 do
    let x = lo +. (!kf *. dx) in
    kf := !kf +. 1.;
    Array.unsafe_set buf k
      ((Array.unsafe_get f1 k *. cdf_at ~lo:lo2 ~dx:dx2 cdf2 x)
      +. (Array.unsafe_get f2 k *. cdf_at ~lo:lo1 ~dx:dx1 cdf1 x))
  done
