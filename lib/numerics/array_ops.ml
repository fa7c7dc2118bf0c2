let linspace a b n =
  if n < 2 then invalid_arg "Array_ops.linspace: need at least 2 points";
  let step = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> if i = n - 1 then b else a +. (float_of_int i *. step))

let sum a =
  (* Kahan summation: the distribution grids accumulate thousands of small
     probabilities, so compensation keeps normalization stable. *)
  let s = ref 0. and c = ref 0. in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t
  done;
  !s

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1
