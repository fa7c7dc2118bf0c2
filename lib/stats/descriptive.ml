let check_nonempty name a =
  if Array.length a = 0 then invalid_arg ("Descriptive." ^ name ^ ": empty sample")

let mean a =
  check_nonempty "mean" a;
  Numerics.Array_ops.sum a /. float_of_int (Array.length a)

let sum_sq_dev a =
  let m = mean a in
  let acc = ref 0. in
  Array.iter
    (fun x ->
      let d = x -. m in
      acc := !acc +. (d *. d))
    a;
  !acc

let variance a =
  check_nonempty "variance" a;
  let n = Array.length a in
  if n < 2 then 0. else sum_sq_dev a /. float_of_int (n - 1)

let population_variance a =
  check_nonempty "population_variance" a;
  sum_sq_dev a /. float_of_int (Array.length a)

let sorted_copy a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let quantile a p =
  check_nonempty "quantile" a;
  if p < 0. || p > 1. then invalid_arg "Descriptive.quantile: p must be in [0,1]";
  let xs = sorted_copy a in
  let n = Array.length xs in
  if n = 1 then xs.(0)
  else begin
    let pos = p *. float_of_int (n - 1) in
    let i = Int.min (int_of_float pos) (n - 2) in
    let frac = pos -. float_of_int i in
    xs.(i) +. (frac *. (xs.(i + 1) -. xs.(i)))
  end
