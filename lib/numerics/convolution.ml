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

(* Length-explicit kernel writing into a caller buffer: [a] and [b] are
   read as prefixes of length [n] and [m] (they may be oversized pooled
   arenas), and [out.(0 .. n+m-2)] receives the full linear convolution. *)
let direct_into ~out a n b m =
  if n = 0 || m = 0 then invalid_arg "Convolution.direct: empty input";
  if Array.length a < n || Array.length b < m then
    invalid_arg "Convolution.direct_into: prefix longer than operand";
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
   transform size, zeroed before use and reused across calls, so the
   distribution algebra's hot path — thousands of small convolutions per
   schedule sweep — stops allocating. Domain-local storage keeps parallel
   evaluation race-free without locks. *)
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
  | Some w ->
    Array.fill w.zre 0 size 0.;
    Array.fill w.zim 0 size 0.;
    w
  | None ->
    Obs.Metrics.incr m_ws_allocs;
    Obs.Metrics.add m_ws_words (2 * size);
    let w = { zre = Array.make size 0.; zim = Array.make size 0. } in
    Hashtbl.add tbl size w;
    w

(* Packed real convolution: both operands are real, so they travel in one
   complex transform z = a + i·b. By conjugate symmetry of real signals,
   the individual spectra are recovered as
     A_k = (Z_k + conj Z_{n-k}) / 2,   B_k = (Z_k − conj Z_{n-k}) / 2i,
   the product spectrum C = A·B is Hermitian (C_{n-k} = conj C_k), and a
   single inverse transform yields the real convolution. One forward
   transform instead of two; bins 0 and n/2 are self-conjugate and purely
   real. Results differ from {!direct} only in rounding (≪ 1e-9 at the
   grid sizes the distribution algebra uses). *)
let fft_packed_into ~out a n b m =
  if n = 0 || m = 0 then invalid_arg "Convolution.fft_packed: empty input";
  let size = Array_ops.next_pow2 (n + m - 1) in
  let w = pair_buffers size in
  let zre = w.zre and zim = w.zim in
  Array.blit a 0 zre 0 n;
  Array.blit b 0 zim 0 m;
  Fft.forward zre zim;
  (* bin 0: A_0 = re Z_0, B_0 = im Z_0 *)
  zre.(0) <- zre.(0) *. zim.(0);
  zim.(0) <- 0.;
  if size > 1 then begin
    let h = size / 2 in
    (* bin n/2 is likewise self-conjugate: A, B real *)
    zre.(h) <- zre.(h) *. zim.(h);
    zim.(h) <- 0.;
    for k = 1 to h - 1 do
      let nk = size - k in
      let zr = Array.unsafe_get zre k and zi = Array.unsafe_get zim k in
      let yr = Array.unsafe_get zre nk and yi = Array.unsafe_get zim nk in
      let ar = 0.5 *. (zr +. yr) and ai = 0.5 *. (zi -. yi) in
      let br = 0.5 *. (zi +. yi) and bi = 0.5 *. (yr -. zr) in
      let cr = (ar *. br) -. (ai *. bi) in
      let ci = (ar *. bi) +. (ai *. br) in
      Array.unsafe_set zre k cr;
      Array.unsafe_set zim k ci;
      Array.unsafe_set zre nk cr;
      Array.unsafe_set zim nk (-.ci)
    done
  end;
  Fft.inverse zre zim;
  Array.blit zre 0 out 0 (n + m - 1)

let fft_packed a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then invalid_arg "Convolution.fft_packed: empty input";
  let out = Array.make (n + m - 1) 0. in
  fft_packed_into ~out a n b m;
  out

(* Overlap–add scratch: one growable chunk copy and one partial-result
   buffer per domain, instead of an [Array.sub] + fresh piece per block. *)
type oa_scratch = { mutable chunk : float array; mutable piece : float array }

let oa_key : oa_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { chunk = [||]; piece = [||] })

let oa_grow buf len =
  if Array.length buf >= len then buf else Array.make (Array_ops.next_pow2 len) 0.

let overlap_add_into ~out ?block a n b m =
  if n = 0 || m = 0 then invalid_arg "Convolution.overlap_add_into: empty input";
  (* Convolve kernel [b] with consecutive blocks of [a]; partial results
     overlap by m-1 samples and add. *)
  let block =
    match block with
    | Some s ->
      if s <= 0 then invalid_arg "Convolution.overlap_add_into: block must be positive";
      s
    | None -> Int.max m 64
  in
  Array.fill out 0 (n + m - 1) 0.;
  let s = Domain.DLS.get oa_key in
  s.chunk <- oa_grow s.chunk (Int.min block n);
  s.piece <- oa_grow s.piece (Int.min block n + m - 1);
  let chunk = s.chunk and piece = s.piece in
  let pos = ref 0 in
  while !pos < n do
    let len = Int.min block (n - !pos) in
    Array.blit a !pos chunk 0 len;
    fft_packed_into ~out:piece chunk len b m;
    let base = !pos in
    for i = 0 to len + m - 2 do
      Array.unsafe_set out (base + i)
        (Array.unsafe_get out (base + i) +. Array.unsafe_get piece i)
    done;
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
