(* erfc rational approximation (Numerical Recipes §6.2, fractional error
   < 1.2e-7), symmetrized. *)
let erfc x =
  let z = Float.abs x in
  let t = 1. /. (1. +. (0.5 *. z)) in
  let poly =
    -.z *. z -. 1.26551223
    +. (t
        *. (1.00002368
           +. (t
               *. (0.37409196
                  +. (t
                      *. (0.09678418
                         +. (t
                             *. (-0.18628806
                                +. (t
                                    *. (0.27886807
                                       +. (t
                                           *. (-1.13520398
                                              +. (t
                                                  *. (1.48851587
                                                     +. (t
                                                         *. (-0.82215223
                                                            +. (t *. 0.17087277)))))))))))))))))
  in
  let ans = t *. exp poly in
  if x >= 0. then ans else 2. -. ans

let erf x = 1. -. erfc x

let sqrt_2pi = sqrt (2. *. Float.pi)

let normal_pdf x = exp (-0.5 *. x *. x) /. sqrt_2pi

let normal_cdf x = 0.5 *. erfc (-.x /. sqrt 2.)

(* Lanczos approximation, g = 7, n = 9 coefficients. *)
let lanczos =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0. then invalid_arg "Special.log_gamma: requires x > 0";
  if x < 0.5 then
    (* reflection: Γ(x)Γ(1−x) = π / sin(πx) *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let acc = ref lanczos.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let log_beta a b = log_gamma a +. log_gamma b -. log_gamma (a +. b)

let beta_pdf ~alpha ~beta x =
  if alpha <= 0. || beta <= 0. then invalid_arg "Special.beta_pdf: bad parameters";
  if x < 0. || x > 1. then 0.
  else if (x = 0. && alpha < 1.) || (x = 1. && beta < 1.) then infinity
  else if x = 0. then (if alpha = 1. then exp (-.log_beta alpha beta) else 0.)
  else if x = 1. then (if beta = 1. then exp (-.log_beta alpha beta) else 0.)
  else
    exp (((alpha -. 1.) *. log x) +. ((beta -. 1.) *. log (1. -. x)) -. log_beta alpha beta)

(* Continued fraction for the incomplete beta (Numerical Recipes §6.4,
   modified Lentz). *)
let betacf ~alpha ~beta x =
  let max_iter = 200 and eps = 3e-15 and fpmin = 1e-300 in
  let qab = alpha +. beta and qap = alpha +. 1. and qam = alpha -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if Float.abs !d < fpmin then d := fpmin;
  d := 1. /. !d;
  let h = ref !d in
  (try
     for m = 1 to max_iter do
       let fm = float_of_int m in
       let m2 = 2. *. fm in
       (* even step *)
       let aa = fm *. (beta -. fm) *. x /. ((qam +. m2) *. (alpha +. m2)) in
       d := 1. +. (aa *. !d);
       if Float.abs !d < fpmin then d := fpmin;
       c := 1. +. (aa /. !c);
       if Float.abs !c < fpmin then c := fpmin;
       d := 1. /. !d;
       h := !h *. !d *. !c;
       (* odd step *)
       let aa =
         -.(alpha +. fm) *. (qab +. fm) *. x /. ((alpha +. m2) *. (qap +. m2))
       in
       d := 1. +. (aa *. !d);
       if Float.abs !d < fpmin then d := fpmin;
       c := 1. +. (aa /. !c);
       if Float.abs !c < fpmin then c := fpmin;
       d := 1. /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.) < eps then raise Exit
     done
   with Exit -> ());
  !h

let betainc ~alpha ~beta x =
  if alpha <= 0. || beta <= 0. then invalid_arg "Special.betainc: bad parameters";
  let x = Float.max 0. (Float.min 1. x) in
  if x = 0. then 0.
  else if x = 1. then 1.
  else begin
    let front =
      exp
        ((alpha *. log x) +. (beta *. log (1. -. x)) -. log_beta alpha beta)
    in
    (* symmetry choice for fast continued-fraction convergence *)
    if x < (alpha +. 1.) /. (alpha +. beta +. 2.) then
      front *. betacf ~alpha ~beta x /. alpha
    else 1. -. (front *. betacf ~alpha:beta ~beta:alpha (1. -. x) /. beta)
  end

let betainc_inv ~alpha ~beta p =
  if alpha <= 0. || beta <= 0. then invalid_arg "Special.betainc_inv: bad parameters";
  if p < 0. || p > 1. then invalid_arg "Special.betainc_inv: p must be in [0,1]";
  if p = 0. then 0.
  else if p = 1. then 1.
  else begin
    (* bisection with Newton acceleration; the CDF is strictly monotone *)
    let lo = ref 0. and hi = ref 1. in
    let x = ref (alpha /. (alpha +. beta)) in
    for _ = 1 to 100 do
      let f = betainc ~alpha ~beta !x -. p in
      if f > 0. then hi := !x else lo := !x;
      let pdf = beta_pdf ~alpha ~beta !x in
      let newton = if pdf > 0. then !x -. (f /. pdf) else -1. in
      x := if newton > !lo && newton < !hi then newton else (!lo +. !hi) /. 2.
    done;
    !x
  end
