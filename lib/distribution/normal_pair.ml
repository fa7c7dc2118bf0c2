type t = { mean : float; std : float }

let const v = { mean = v; std = 0. }

let make ~mean ~std =
  if std < 0. then invalid_arg "Normal_pair.make: std must be non-negative";
  { mean; std }

let to_normal ?points t = Family.normal ?points ~mean:t.mean ~std:t.std ()

let add a b =
  { mean = a.mean +. b.mean; std = sqrt ((a.std *. a.std) +. (b.std *. b.std)) }

let max_clark a b =
  let theta = sqrt ((a.std *. a.std) +. (b.std *. b.std)) in
  if theta = 0. then const (Float.max a.mean b.mean)
  else begin
    let alpha = (a.mean -. b.mean) /. theta in
    let phi = Numerics.Special.normal_pdf alpha in
    let cap = Numerics.Special.normal_cdf alpha in
    let cap' = Numerics.Special.normal_cdf (-.alpha) in
    let m1 = (a.mean *. cap) +. (b.mean *. cap') +. (theta *. phi) in
    let m2 =
      (((a.mean *. a.mean) +. (a.std *. a.std)) *. cap)
      +. (((b.mean *. b.mean) +. (b.std *. b.std)) *. cap')
      +. ((a.mean +. b.mean) *. theta *. phi)
    in
    { mean = m1; std = sqrt (Float.max 0. (m2 -. (m1 *. m1))) }
  end

let max_list = function
  | [] -> invalid_arg "Normal_pair.max_list: empty list"
  | t :: ts -> List.fold_left max_clark t ts
