let is_pow2 n = n > 0 && n land (n - 1) = 0

let check re im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft: re/im length mismatch";
  if not (is_pow2 n) then invalid_arg "Fft: length must be a power of two";
  n

(* Per-size transform plan: the bit-reversal permutation and the twiddle
   factors of every butterfly stage, computed once and reused. The
   twiddles are generated by the exact complex recurrence the previous
   per-call code ran inside each block (c₀ = 1, c_{t+1} = c_t·w), so a
   planned transform is bit-identical to the unplanned one — caching is
   a speed change, not a numerics change. Stage [len] owns the table
   slice starting at [len/2 − 1] (1 + 2 + … + len/4), n − 1 slots in
   total. Forward and inverse twiddles are stored separately rather than
   conjugated on the fly: sin(−θ) is not guaranteed to round to −sin(θ)
   on every libm. The C kernel reads the fields in this order. *)
type plan = {
  rev : int array;
  fwd_re : float array;
  fwd_im : float array;
  inv_re : float array;
  inv_im : float array;
}

let fill_twiddles sign tw_re tw_im n =
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let off = half - 1 in
    let theta = float_of_int sign *. 2. *. Float.pi /. float_of_int !len in
    let wr = cos theta and wi = sin theta in
    let cr = ref 1. and ci = ref 0. in
    for t = 0 to half - 1 do
      tw_re.(off + t) <- !cr;
      tw_im.(off + t) <- !ci;
      let ncr = (!cr *. wr) -. (!ci *. wi) in
      ci := (!cr *. wi) +. (!ci *. wr);
      cr := ncr
    done;
    len := !len * 2
  done

let build_plan n =
  (* bit-reversal permutation via the classic incremental update: at the
     start of iteration [i], [j] is the bit-reverse of [i] *)
  let rev = Array.make n 0 in
  let j = ref 0 in
  for i = 0 to n - 2 do
    rev.(i) <- !j;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  rev.(n - 1) <- n - 1;
  let fwd_re = Array.make (n - 1) 0. and fwd_im = Array.make (n - 1) 0. in
  let inv_re = Array.make (n - 1) 0. and inv_im = Array.make (n - 1) 0. in
  fill_twiddles (-1) fwd_re fwd_im n;
  fill_twiddles 1 inv_re inv_im n;
  { rev; fwd_re; fwd_im; inv_re; inv_im }

(* Plans are cached per domain (no locks, no sharing) keyed by size; a
   sweep touches only a handful of sizes, so the tables stay tiny. *)
let plans_key : (int, plan) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

(* The C kernel indexes the tables without bounds checks, so every
   lookup re-checks their lengths against the size it will be run at. *)
let plan n =
  if not (is_pow2 n) then invalid_arg "Fft.plan: size must be a power of two";
  let tbl = Domain.DLS.get plans_key in
  let p =
    match Hashtbl.find_opt tbl n with
    | Some p -> p
    | None ->
      let p = build_plan n in
      Hashtbl.add tbl n p;
      p
  in
  let t = n - 1 in
  if
    Array.length p.rev <> n
    || Array.length p.fwd_re <> t
    || Array.length p.fwd_im <> t
    || Array.length p.inv_re <> t
    || Array.length p.inv_im <> t
  then invalid_arg "Fft.plan: table lengths do not match the size";
  p

(* Cooley–Tukey, decimation in time, over a plan: fft_stubs.c. [inverse]
   selects the twiddle tables and the final 1/n scaling. *)
external transform :
  float array -> float array -> (int[@untagged]) -> plan -> (int[@untagged]) -> unit
  = "numerics_fft_transform_byte" "numerics_fft_transform"
[@@noalloc]

let forward re im =
  let n = check re im in
  transform re im n (plan n) 0

let inverse re im =
  let n = check re im in
  transform re im n (plan n) 1

let naive_dft re im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft.naive_dft: length mismatch";
  let out_re = Array.make n 0. and out_im = Array.make n 0. in
  for k = 0 to n - 1 do
    let sr = ref 0. and si = ref 0. in
    for t = 0 to n - 1 do
      let angle = -2. *. Float.pi *. float_of_int k *. float_of_int t /. float_of_int n in
      let c = cos angle and s = sin angle in
      sr := !sr +. (re.(t) *. c) -. (im.(t) *. s);
      si := !si +. (re.(t) *. s) +. (im.(t) *. c)
    done;
    out_re.(k) <- !sr;
    out_im.(k) <- !si
  done;
  (out_re, out_im)
