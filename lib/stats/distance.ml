type side =
  | Analytic of Distribution.Dist.t
  | Sampled of Distribution.Empirical.t

let cdf_of = function
  | Analytic d -> Distribution.Dist.cdf_at d
  | Sampled e -> Distribution.Empirical.cdf_at e

let support_of = function
  | Analytic d -> Distribution.Dist.support d
  | Sampled e -> (Distribution.Empirical.min e, Distribution.Empirical.max e)

let union_support a b =
  let lo1, hi1 = support_of a and lo2, hi2 = support_of b in
  (Float.min lo1 lo2, Float.max hi1 hi2)

let ks a b =
  let f1 = cdf_of a and f2 = cdf_of b in
  let lo, hi = union_support a b in
  let best = ref 0. in
  let consider x = best := Float.max !best (Float.abs (f1 x -. f2 x)) in
  (* fine uniform sweep *)
  if hi > lo then begin
    let n = 2048 in
    let dx = (hi -. lo) /. float_of_int n in
    for i = 0 to n do
      consider (lo +. (float_of_int i *. dx))
    done
  end
  else consider lo;
  (* at an empirical jump point x the supremum can be attained from the
     left: check both F(x) and F(x−) against the other CDF *)
  let jumps side other =
    match side with
    | Analytic _ -> ()
    | Sampled e ->
      let xs = Distribution.Empirical.sorted e in
      let n = float_of_int (Array.length xs) in
      let fo = cdf_of other in
      Array.iteri
        (fun i x ->
          let here = fo x in
          let right = float_of_int (i + 1) /. n in
          let left = float_of_int i /. n in
          best := Float.max !best (Float.abs (right -. here));
          best := Float.max !best (Float.abs (left -. here)))
        xs
  in
  jumps a b;
  jumps b a;
  !best

(* integration points of [cm_area] *)
let grid = 2048

let cm_area a b =
  let f1 = cdf_of a and f2 = cdf_of b in
  let lo, hi = union_support a b in
  if hi <= lo then 0.
  else begin
    let dx = (hi -. lo) /. float_of_int (grid - 1) in
    let ys =
      Array.init grid (fun i ->
          let x = lo +. (float_of_int i *. dx) in
          Float.abs (f1 x -. f2 x))
    in
    Numerics.Integrate.trapezoid_sampled ~dx ys
  end
