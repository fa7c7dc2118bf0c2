let pearson xs ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Correlation.pearson: length mismatch";
  if n < 2 then invalid_arg "Correlation.pearson: need at least 2 points";
  let mx = Descriptive.mean xs and my = Descriptive.mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0. || !syy = 0. then Float.nan
  else !sxy /. sqrt (!sxx *. !syy)

(* average ranks with tie handling *)
let ranks xs =
  let n = Array.length xs in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare xs.(i) xs.(j)) idx;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do
      incr j
    done;
    (* positions !i..!j are tied: assign the average rank *)
    let avg = float_of_int (!i + !j) /. 2. +. 1. in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Correlation.spearman: length mismatch";
  pearson (ranks xs) (ranks ys)
