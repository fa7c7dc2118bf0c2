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

let dot a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Array_ops.dot: length mismatch";
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let max_elt a =
  if Array.length a = 0 then invalid_arg "Array_ops.max_elt: empty array";
  Array.fold_left Float.max a.(0) a

let min_elt a =
  if Array.length a = 0 then invalid_arg "Array_ops.min_elt: empty array";
  Array.fold_left Float.min a.(0) a

let argmax a =
  if Array.length a = 0 then invalid_arg "Array_ops.argmax: empty array";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1
