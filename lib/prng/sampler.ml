type rng = Xoshiro.t

let uniform rng ~lo ~hi =
  if lo > hi then invalid_arg "Sampler.uniform: lo > hi";
  lo +. ((hi -. lo) *. Xoshiro.next_float rng)

let rec standard_normal rng =
  let u = (2. *. Xoshiro.next_float rng) -. 1. in
  let v = (2. *. Xoshiro.next_float rng) -. 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then standard_normal rng
  else u *. sqrt (-2. *. log s /. s)

let normal rng ~mean ~std =
  if std < 0. then invalid_arg "Sampler.normal: std must be non-negative";
  mean +. (std *. standard_normal rng)

(* Marsaglia & Tsang (2000), "A simple method for generating gamma
   variables". Valid for shape >= 1; smaller shapes are boosted by
   U^(1/shape). *)
let rec gamma_shape_ge1 rng shape =
  let d = shape -. (1. /. 3.) in
  let c = 1. /. sqrt (9. *. d) in
  let rec draw () =
    let x = standard_normal rng in
    let v = 1. +. (c *. x) in
    if v <= 0. then draw ()
    else
      let v = v *. v *. v in
      let u = Xoshiro.next_float_pos rng in
      let x2 = x *. x in
      if u < 1. -. (0.0331 *. x2 *. x2) then d *. v
      else if log u < (0.5 *. x2) +. (d *. (1. -. v +. log v)) then d *. v
      else draw ()
  in
  if shape >= 1. then draw ()
  else
    (* unreachable: callers dispatch on shape *)
    gamma_shape_ge1 rng 1.

let gamma rng ~shape ~scale =
  if shape <= 0. || scale <= 0. then
    invalid_arg "Sampler.gamma: shape and scale must be positive";
  if shape >= 1. then scale *. gamma_shape_ge1 rng shape
  else
    let g = gamma_shape_ge1 rng (shape +. 1.) in
    let u = Xoshiro.next_float_pos rng in
    scale *. g *. (u ** (1. /. shape))

let beta rng ~alpha ~beta =
  if alpha <= 0. || beta <= 0. then
    invalid_arg "Sampler.beta: alpha and beta must be positive";
  let x = gamma rng ~shape:alpha ~scale:1. in
  let y = gamma rng ~shape:beta ~scale:1. in
  x /. (x +. y)

let gamma_mean_cv rng ~mean ~cv =
  if mean <= 0. then invalid_arg "Sampler.gamma_mean_cv: mean must be positive";
  if cv < 0. then invalid_arg "Sampler.gamma_mean_cv: cv must be non-negative";
  if cv = 0. then mean
  else
    let shape = 1. /. (cv *. cv) in
    let scale = mean /. shape in
    gamma rng ~shape ~scale

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Xoshiro.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

