let direct a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then invalid_arg "Convolution.direct: empty input";
  let out = Array.make (n + m - 1) 0. in
  for i = 0 to n - 1 do
    let ai = a.(i) in
    if ai <> 0. then
      for j = 0 to m - 1 do
        out.(i + j) <- out.(i + j) +. (ai *. b.(j))
      done
  done;
  out

(* The C kernel checks no bounds, so every entry point validates its
   operands before anything is written: non-empty prefixes that fit
   their arrays, and an [out] long enough for the full result. *)
let check_operands name ~out a n b m =
  if n = 0 || m = 0 then invalid_arg (name ^ ": empty input");
  if n < 0 || m < 0 then invalid_arg (name ^ ": negative length");
  if Array.length a < n || Array.length b < m then
    invalid_arg (name ^ ": prefix longer than operand");
  if Array.length out < n + m - 1 then invalid_arg (name ^ ": out shorter than n + m - 1")

(* Length-explicit kernel writing into a caller buffer: [a] and [b] are
   read as prefixes of length [n] and [m] (they may be oversized pooled
   arenas), and [out.(0 .. n+m-2)] receives the full linear convolution. *)
let direct_into ~out a n b m =
  check_operands "Convolution.direct_into" ~out a n b m;
  Array.fill out 0 (n + m - 1) 0.;
  (* unsafe: i + j ≤ n + m − 2 < length out, i < n ≤ length a,
     j < m ≤ length b *)
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0. then
      for j = 0 to m - 1 do
        Array.unsafe_set out (i + j)
          (Array.unsafe_get out (i + j) +. (ai *. Array.unsafe_get b j))
      done
  done

(* Moment-space fast path for long convolution chains. After enough
   convolutions the partial sum is CLT-normal (the paper's Figs. 7–8:
   ≈5–10 convolutions already look normal), so past a depth threshold
   the chain can switch from sampled convolution to moment arithmetic —
   μ and σ² add, and the result is materialized as a sampled normal.
   The explicit accuracy certificate is the Berry–Esseen inequality for
   independent, non-identically distributed summands:

     sup_x |F_S(x) − Φ((x−μ)/σ)| ≤ C₀ · (Σᵢ ρᵢ) / (Σᵢ σᵢ²)^{3/2}

   with ρᵢ = E|Xᵢ−μᵢ|³ and C₀ = 0.56 (Shevtsova 2010). Treating an
   already-accumulated partial sum as a single summand keeps the bound
   valid — the inequality holds for any decomposition into independent
   parts — so a two-operand step bound composes by the triangle
   inequality with whatever error the operands already carry
   (Kolmogorov distance is non-expansive under both convolution and
   independent maxima). *)
module Moment_chain = struct
  let c0 = 0.56

  let bound ~rho3 ~var =
    if var <= 0. || not (Float.is_finite var) then 1.
    else Float.min 1. (c0 *. rho3 /. (var *. sqrt var))

  let normal_pdf_into ~out ~n ~lo ~dx ~mean ~std =
    if std <= 0. then invalid_arg "Moment_chain.normal_pdf_into: std must be positive";
    if Array.length out < n then invalid_arg "Moment_chain.normal_pdf_into: buffer too short";
    let inv = 1. /. (std *. sqrt (2. *. Float.pi)) in
    for k = 0 to n - 1 do
      let d = (lo +. (float_of_int k *. dx) -. mean) /. std in
      Array.unsafe_set out k (inv *. exp (-0.5 *. d *. d))
    done
end

(* Per-domain workspace: one complex buffer pair per power-of-two
   transform size, reused across calls (the kernel overwrites all of it),
   so the distribution algebra's hot path — thousands of small
   convolutions per schedule sweep — stops allocating. Domain-local
   storage keeps parallel evaluation race-free without locks. *)
type pair = { zre : float array; zim : float array }

let pair_key : (int, pair) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

(* Workspace growth telemetry: each first-touch of a (domain, size) pair
   allocates transform buffers; the counters record how often and how
   many words, so sweeps can attribute allocation to FFT scratch. *)
let m_ws_allocs = Obs.Metrics.counter "fft.workspace_allocs"
let m_ws_words = Obs.Metrics.counter "fft.workspace_words"

let pair_buffers size =
  let tbl = Domain.DLS.get pair_key in
  match Hashtbl.find_opt tbl size with
  | Some w -> w
  | None ->
    Obs.Metrics.incr m_ws_allocs;
    Obs.Metrics.add m_ws_words (2 * size);
    let w = { zre = Array.make size 0.; zim = Array.make size 0. } in
    Hashtbl.add tbl size w;
    w

(* The packed real convolution, all in C (fft_stubs.c): copy
   a.(a_off .. a_off+n−1) and b.(0 .. m−1) into the workspace, one
   forward transform of z = a + i·b, Hermitian unpack of A·B, one
   inverse transform, and the 1/size-scaled result written to — or, with
   [accumulate] = 1, added to — out.(out_off .. out_off+n+m−2). *)
external conv_packed :
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  float array ->
  float array ->
  (int[@untagged]) ->
  Fft.plan ->
  unit = "numerics_conv_packed_byte" "numerics_conv_packed"
[@@noalloc]

(* One kernel call on validated operands: the block a.(a_off .. a_off+n−1)
   must lie within [a] and out.(out_off .. out_off+n+m−2) within [out].
   The size, workspace and plan are checked here. *)
let packed ~out ~out_off ~accumulate a a_off n b m =
  let size = Array_ops.next_pow2 (n + m - 1) in
  let plan = Fft.plan size in
  let w = pair_buffers size in
  if Array.length w.zre < size || Array.length w.zim < size then
    invalid_arg "Convolution: workspace shorter than the transform";
  conv_packed out out_off accumulate a a_off n b m w.zre w.zim size plan

(* Packed real convolution: one complex forward transform of
   z = a + i·b, the two spectra separated by conjugate symmetry, one
   inverse transform of their product (fft_stubs.c has the algebra).
   Results differ from {!direct} only in rounding (≪ 1e-9 at the grid
   sizes the distribution algebra uses). *)
let fft_packed_into ~out a n b m =
  check_operands "Convolution.fft_packed" ~out a n b m;
  packed ~out ~out_off:0 ~accumulate:0 a 0 n b m

let fft_packed a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then invalid_arg "Convolution.fft_packed: empty input";
  let out = Array.make (n + m - 1) 0. in
  fft_packed_into ~out a n b m;
  out

let overlap_add_into ~out ?block a n b m =
  check_operands "Convolution.overlap_add_into" ~out a n b m;
  (* Convolve kernel [b] with consecutive blocks of [a]; partial results
     overlap by m-1 samples and add, block by block in order. *)
  let block =
    match block with
    | Some s ->
      if s <= 0 then invalid_arg "Convolution.overlap_add_into: block must be positive";
      s
    | None -> Int.max m 64
  in
  Array.fill out 0 (n + m - 1) 0.;
  let pos = ref 0 in
  while !pos < n do
    let len = Int.min block (n - !pos) in
    packed ~out ~out_off:!pos ~accumulate:1 a !pos len b m;
    pos := !pos + len
  done

(* Heuristic dispatch, unchanged thresholds: tiny products go direct,
   strongly mismatched lengths go overlap–add (with the longer operand
   as the signal), the rest one packed-real FFT. *)
let auto_into ~out a n b m =
  let small = Int.min n m and large = Int.max n m in
  if small * large <= 4096 then direct_into ~out a n b m
  else if large > 8 * small then
    if n >= m then overlap_add_into ~out a n b m
    else overlap_add_into ~out b m a n
  else fft_packed_into ~out a n b m
