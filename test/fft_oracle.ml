(* Frozen oracle: the scalar OCaml radix-2 transform and packed-real
   convolution that Numerics ran before its butterflies moved to C,
   copied verbatim in their arithmetic (plan construction, butterfly
   order, Hermitian unpack, 1/n scaling, overlap–add accumulation) and
   kept self-contained: fresh plan and buffers on every call, no shared
   state with the library. The bitwise tests in test_numerics.ml hold
   the C kernel to it; golden/conv__*.txt pin both to the bits the
   scalar code produced. Do not edit the arithmetic. *)

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

let transform sign re im =
  let n = Array.length re in
  if n > 1 then begin
    let p = build_plan n in
    let rev = p.rev in
    for i = 0 to n - 1 do
      let j = rev.(i) in
      if i < j then begin
        let tr = re.(i) in
        re.(i) <- re.(j);
        re.(j) <- tr;
        let ti = im.(i) in
        im.(i) <- im.(j);
        im.(j) <- ti
      end
    done;
    let tw_re = if sign < 0 then p.fwd_re else p.inv_re in
    let tw_im = if sign < 0 then p.fwd_im else p.inv_im in
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let off = half - 1 in
      let i = ref 0 in
      while !i < n do
        for k = !i to !i + half - 1 do
          let t = off + k - !i in
          let cr = tw_re.(t) and ci = tw_im.(t) in
          let k2 = k + half in
          let re_k2 = re.(k2) and im_k2 = im.(k2) in
          let tr = (cr *. re_k2) -. (ci *. im_k2) in
          let ti = (cr *. im_k2) +. (ci *. re_k2) in
          let re_k = re.(k) and im_k = im.(k) in
          re.(k2) <- re_k -. tr;
          im.(k2) <- im_k -. ti;
          re.(k) <- re_k +. tr;
          im.(k) <- im_k +. ti
        done;
        i := !i + !len
      done;
      len := !len * 2
    done
  end

let forward re im = transform (-1) re im

let inverse re im =
  transform 1 re im;
  let n = Array.length re in
  let inv = 1. /. float_of_int n in
  for i = 0 to n - 1 do
    re.(i) <- re.(i) *. inv;
    im.(i) <- im.(i) *. inv
  done

let next_pow2 n =
  let p = ref 1 in
  while !p < n do
    p := !p * 2
  done;
  !p

let fft_packed_into ~out a n b m =
  let size = next_pow2 (n + m - 1) in
  let zre = Array.make size 0. and zim = Array.make size 0. in
  Array.blit a 0 zre 0 n;
  Array.blit b 0 zim 0 m;
  forward zre zim;
  zre.(0) <- zre.(0) *. zim.(0);
  zim.(0) <- 0.;
  if size > 1 then begin
    let h = size / 2 in
    zre.(h) <- zre.(h) *. zim.(h);
    zim.(h) <- 0.;
    for k = 1 to h - 1 do
      let nk = size - k in
      let zr = zre.(k) and zi = zim.(k) in
      let yr = zre.(nk) and yi = zim.(nk) in
      let ar = 0.5 *. (zr +. yr) and ai = 0.5 *. (zi -. yi) in
      let br = 0.5 *. (zi +. yi) and bi = 0.5 *. (yr -. zr) in
      let cr = (ar *. br) -. (ai *. bi) in
      let ci = (ar *. bi) +. (ai *. br) in
      zre.(k) <- cr;
      zim.(k) <- ci;
      zre.(nk) <- cr;
      zim.(nk) <- -.ci
    done
  end;
  inverse zre zim;
  Array.blit zre 0 out 0 (n + m - 1)

let overlap_add_into ~out ?block a n b m =
  let block = match block with Some s -> s | None -> Int.max m 64 in
  Array.fill out 0 (n + m - 1) 0.;
  let chunk = Array.make (Int.min block n) 0. in
  let piece = Array.make (Int.min block n + m - 1) 0. in
  let pos = ref 0 in
  while !pos < n do
    let len = Int.min block (n - !pos) in
    Array.blit a !pos chunk 0 len;
    fft_packed_into ~out:piece chunk len b m;
    let base = !pos in
    for i = 0 to len + m - 2 do
      out.(base + i) <- out.(base + i) +. piece.(i)
    done;
    pos := !pos + len
  done

(* The dispatch of Convolution.auto_into, over the oracle's FFT paths;
   the direct loop never moved, so it is the library's. *)
let auto_into ~out a n b m =
  let small = Int.min n m and large = Int.max n m in
  if small * large <= 4096 then Numerics.Convolution.direct_into ~out a n b m
  else if large > 8 * small then
    if n >= m then overlap_add_into ~out a n b m else overlap_add_into ~out b m a n
  else fft_packed_into ~out a n b m
