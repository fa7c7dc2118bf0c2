type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }


(* Finalizer from Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = next t in
  (* Re-mix so that parent and child sequences do not share the additive
     lattice structure. *)
  { state = mix64 (Int64.logxor seed 0x2545F4914F6CDD1DL) }

let next_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. 0x1p-53
