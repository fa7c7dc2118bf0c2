(* Numerics suites: FFT vs naive DFT, convolutions, splines, quadrature,
   special functions, root finding. *)

let check_close = Tutil.check_close
let check_close_abs = Tutil.check_close_abs

(* --- Array_ops --- *)

let linspace_endpoints () =
  let a = Numerics.Array_ops.linspace 1. 5. 9 in
  Alcotest.(check int) "length" 9 (Array.length a);
  check_close "first" 1. a.(0);
  check_close "last" 5. a.(8);
  check_close "step" 0.5 (a.(1) -. a.(0))

let kahan_sum_precision () =
  let a = Array.make 1_000_000 0.1 in
  check_close ~eps:1e-12 "kahan" 100000. (Numerics.Array_ops.sum a)

let next_pow2_values () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (string_of_int n) want (Numerics.Array_ops.next_pow2 n))
    [ (0, 1); (1, 1); (2, 2); (3, 4); (4, 4); (5, 8); (1000, 1024); (1024, 1024) ]

(* --- FFT --- *)

let fft_matches_naive =
  Tutil.qcheck ~count:50 "fft = naive dft"
    QCheck2.Gen.(pair (int_range 0 6) (int_range 0 100000))
    (fun (log_n, seed) ->
      let n = 1 lsl log_n in
      let rng = Tutil.rng_of_seed seed in
      let re = Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:(-1.) ~hi:1.) in
      let im = Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:(-1.) ~hi:1.) in
      let want_re, want_im = Numerics.Fft.naive_dft re im in
      let got_re = Array.copy re and got_im = Array.copy im in
      Numerics.Fft.forward got_re got_im;
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          Float.abs (got_re.(i) -. want_re.(i)) > 1e-8
          || Float.abs (got_im.(i) -. want_im.(i)) > 1e-8
        then ok := false
      done;
      !ok)

let fft_roundtrip =
  Tutil.qcheck ~count:50 "inverse . forward = id"
    QCheck2.Gen.(pair (int_range 0 10) (int_range 0 100000))
    (fun (log_n, seed) ->
      let n = 1 lsl log_n in
      let rng = Tutil.rng_of_seed seed in
      let re = Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:(-5.) ~hi:5.) in
      let im = Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:(-5.) ~hi:5.) in
      let got_re = Array.copy re and got_im = Array.copy im in
      Numerics.Fft.forward got_re got_im;
      Numerics.Fft.inverse got_re got_im;
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          Float.abs (got_re.(i) -. re.(i)) > 1e-9
          || Float.abs (got_im.(i) -. im.(i)) > 1e-9
        then ok := false
      done;
      !ok)

let fft_impulse () =
  let re = [| 1.; 0.; 0.; 0. |] and im = [| 0.; 0.; 0.; 0. |] in
  Numerics.Fft.forward re im;
  Array.iter (fun v -> check_close "re" 1. v) re;
  Array.iter (fun v -> check_close_abs "im" 0. v) im

let fft_rejects_non_pow2 () =
  Alcotest.check_raises "length 3" (Invalid_argument "Fft: length must be a power of two")
    (fun () -> Numerics.Fft.forward (Array.make 3 0.) (Array.make 3 0.))

(* --- Convolution --- *)

let conv_gen =
  QCheck2.Gen.(
    let* n = int_range 1 40 in
    let* m = int_range 1 40 in
    let* seed = int_range 0 100000 in
    let rng = Tutil.rng_of_seed seed in
    let mk k = Array.init k (fun _ -> Prng.Sampler.uniform rng ~lo:(-2.) ~hi:2.) in
    return (mk n, mk m))

let conv_close a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-8 *. Float.max 1. (Float.abs x)) a b

(* The _into kernels on whole operands, into a fresh exact-length output. *)
let conv_into f a b =
  let n = Array.length a and m = Array.length b in
  let out = Array.make (n + m - 1) 0. in
  f ~out a n b m;
  out

let overlap_add ?block a b =
  conv_into (fun ~out a n b m -> Numerics.Convolution.overlap_add_into ~out ?block a n b m) a b

let auto = conv_into Numerics.Convolution.auto_into

let conv_overlap_add_matches_direct =
  Tutil.qcheck ~count:100 "overlap-add conv = direct conv" conv_gen (fun (a, b) ->
      conv_close (Numerics.Convolution.direct a b) (overlap_add a b))

let conv_auto_matches_direct =
  Tutil.qcheck ~count:100 "auto conv = direct conv" conv_gen (fun (a, b) ->
      conv_close (Numerics.Convolution.direct a b) (auto a b))

let conv_known_value () =
  let got = Numerics.Convolution.direct [| 1.; 2.; 3. |] [| 0.; 1.; 0.5 |] in
  let want = [| 0.; 1.; 2.5; 4.; 1.5 |] in
  Array.iteri (fun i v -> check_close (Printf.sprintf "c%d" i) want.(i) v) got

let conv_commutative =
  Tutil.qcheck ~count:50 "convolution commutes" conv_gen (fun (a, b) ->
      conv_close (Numerics.Convolution.direct a b) (Numerics.Convolution.direct b a))

let conv_overlap_add_block_sizes () =
  let a = Array.init 100 (fun i -> float_of_int (i mod 7)) in
  let b = [| 1.; -1.; 0.5 |] in
  let want = Numerics.Convolution.direct a b in
  List.iter
    (fun block ->
      let got = overlap_add ~block a b in
      Alcotest.(check bool) (Printf.sprintf "block %d" block) true (conv_close want got))
    [ 1; 2; 7; 64; 200 ]

let conv_packed_matches_direct =
  Tutil.qcheck ~count:100 "packed conv = direct conv" conv_gen (fun (a, b) ->
      conv_close (Numerics.Convolution.direct a b) (Numerics.Convolution.fft_packed a b))

(* Every strategy against the direct oracle at 1e-9, on operand sizes
   whose padded length n+m−1 straddles a power of two — the boundary
   where the transform plan size, the packed spectrum split, and the
   overlap-add block count all change — and on pairs straddling [auto]'s
   dispatch: the n·m ≤ 4096 direct cutoff ((64,64)/(64,65),
   (512,8)/(513,8)) and the 8× length ratio that selects overlap-add,
   with either operand the longer ((600,75)/(601,75)/(75,601),
   (8,513)). *)
let conv_strategies_agree_at_pow2_boundaries () =
  let close want got =
    Array.length want = Array.length got
    && Array.for_all2
         (fun x y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x))
         want got
  in
  List.iter
    (fun (n, m) ->
      let rng = Tutil.rng_of_seed ((n * 1009) + m) in
      let mk k = Array.init k (fun _ -> Prng.Sampler.uniform rng ~lo:(-2.) ~hi:2.) in
      let a = mk n and b = mk m in
      let want = Numerics.Convolution.direct a b in
      List.iter
        (fun (name, f) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %dx%d" name n m)
            true
            (close want (f a b)))
        [ ("packed", Numerics.Convolution.fft_packed);
          ("overlap-add", fun a b -> overlap_add a b);
          ("auto", auto) ])
    [ (63, 2); (64, 2); (65, 2); (63, 63); (64, 64); (65, 65); (127, 3);
      (128, 3); (129, 3); (127, 127); (128, 128); (129, 129); (255, 2);
      (256, 2); (257, 64); (64, 65); (512, 8); (513, 8); (8, 513); (600, 75);
      (601, 75); (75, 601) ]

(* The _into forms must equal their allocating counterparts when reading
   prefixes of oversized arenas — the exact calling convention of the
   distribution layer. *)
let conv_into_reads_prefixes () =
  let rng = Tutil.rng_of_seed 42 in
  let n = 61 and m = 9 in
  let pad k = Array.init (k + 17) (fun _ -> Prng.Sampler.uniform rng ~lo:(-2.) ~hi:2.) in
  let a = pad n and b = pad m in
  let want =
    Numerics.Convolution.direct (Array.sub a 0 n) (Array.sub b 0 m)
  in
  List.iter
    (fun (name, f) ->
      let out = Array.make (n + m + 30) Float.nan in
      f ~out a n b m;
      let got = Array.sub out 0 (n + m - 1) in
      Alcotest.(check bool) name true (conv_close want got))
    [ ("direct_into", Numerics.Convolution.direct_into);
      ("fft_packed_into", Numerics.Convolution.fft_packed_into);
      ("overlap_add_into", fun ~out a n b m ->
        Numerics.Convolution.overlap_add_into ~out a n b m);
      ("auto_into", Numerics.Convolution.auto_into) ]

(* --- Bitwise equality with the frozen scalar oracle --- *)

(* Bit equality ([Int64.bits_of_float]: -0. is not 0., every subnormal
   counts) for every value that is not a NaN; a NaN must meet a NaN.
   Its payload may differ: when an operation meets an input NaN and the
   default NaN that an earlier ∞ − ∞ or 0 × ∞ produced, the hardware
   returns one operand's payload, and which operand comes first in a
   commutative + or × is the compiler's choice (ocamlopt and GCC choose
   differently). IEEE 754 leaves that choice open. *)
let same_bits want got =
  Array.length want = Array.length got
  && Array.for_all2
       (fun x y ->
         Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
         || (Float.is_nan x && Float.is_nan y))
       want got

(* Operand values: mostly density-like finite values, and per case a
   rate of specials — none, only the finite ones (zeros, -0.,
   subnormals), or all of them including NaN and ±∞. *)
let finite_specials = [| 0.; -0.; 4.9e-324; -4.9e-324; 2.2e-310; Float.min_float /. 3. |]
let all_specials = Array.append finite_specials [| Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity |]

let gen_values rng k =
  let specials, rate =
    match Prng.Xoshiro.int rng 3 with
    | 0 -> (finite_specials, 0.)
    | 1 -> (finite_specials, 0.1)
    | _ -> (all_specials, 0.002)
  in
  Array.init k (fun _ ->
      if Prng.Xoshiro.next_float rng < rate then
        specials.(Prng.Xoshiro.int rng (Array.length specials))
      else Prng.Sampler.uniform rng ~lo:(-2.) ~hi:2.)

let fft_bitwise_oracle =
  Tutil.qcheck ~count:200 "fft forward/inverse = oracle, bit for bit"
    QCheck2.Gen.(pair (int_range 0 12) (int_range 0 100000))
    (fun (log_n, seed) ->
      let n = 1 lsl log_n in
      let rng = Tutil.rng_of_seed seed in
      let re = gen_values rng n and im = gen_values rng n in
      let run f g =
        let r = Array.copy re and i = Array.copy im in
        let r' = Array.copy re and i' = Array.copy im in
        f r i;
        g r' i';
        same_bits r r' && same_bits i i'
      in
      run Numerics.Fft.forward Fft_oracle.forward
      && run Numerics.Fft.inverse Fft_oracle.inverse)

(* Shapes in 1..4096 per side: uniform, and within a few cells of
   auto_into's two cutoffs — the n·m ≤ 4096 direct product and the 8×
   ratio that selects overlap–add — with either operand the longer. *)
let conv_shape_gen =
  QCheck2.Gen.(
    let clamp k = Int.max 1 (Int.min 4096 k) in
    let* small = int_range 1 512 in
    let* jitter = int_range (-3) 3 in
    let* shape =
      oneof
        [
          map2 (fun n m -> (n, m)) (int_range 1 4096) (int_range 1 4096);
          return (small, clamp ((4096 / small) + jitter));
          return (small, clamp ((8 * small) + jitter));
        ]
    in
    let* swap = bool in
    let* seed = int_range 0 100000 in
    return ((if swap then (snd shape, fst shape) else shape), seed))

let conv_bitwise_oracle =
  Tutil.qcheck ~count:150 "packed, overlap-add and auto = oracle, bit for bit"
    conv_shape_gen (fun ((n, m), seed) ->
      let rng = Tutil.rng_of_seed seed in
      (* oversized operands: the kernels read prefixes *)
      let a = gen_values rng (n + 3) and b = gen_values rng (m + 2) in
      let block = 1 + Prng.Xoshiro.int rng 700 in
      let run f g =
        let out = Array.make (n + m + 5) 7. and want = Array.make (n + m + 5) 7. in
        f ~out a n b m;
        g ~out:want a n b m;
        same_bits want out
      in
      run Numerics.Convolution.fft_packed_into Fft_oracle.fft_packed_into
      && run
           (fun ~out a n b m -> Numerics.Convolution.overlap_add_into ~out a n b m)
           (fun ~out a n b m -> Fft_oracle.overlap_add_into ~out a n b m)
      && run
           (fun ~out a n b m -> Numerics.Convolution.overlap_add_into ~out ~block a n b m)
           (fun ~out a n b m -> Fft_oracle.overlap_add_into ~out ~block a n b m)
      && run Numerics.Convolution.auto_into Fft_oracle.auto_into)

(* Cross-commit golden: golden/conv__*.txt hold the %h bits the scalar
   OCaml convolution produced at 9a0dbe2, before the port to C, on
   campaign-shaped operands. Both the kernel and the oracle must replay
   them, so the two cannot drift together. The operands use only
   integer arithmetic and IEEE +, ×, /, so they are the same bits on
   every platform. *)
let golden_operand ~seed len =
  let s = ref seed in
  Array.init len (fun k ->
      s := ((!s * 1103515245) + 12345) land 0x7fffffff;
      let t = (float_of_int k +. 0.5) /. float_of_int len in
      let bump = t *. t *. (1. -. t) *. 4. in
      bump *. (0.9 +. (0.2 *. float_of_int !s /. 2147483648.)))

let conv_golden_replay () =
  List.iter
    (fun (kind, n, m, kernel, oracle) ->
      let label = Printf.sprintf "conv__%s-%dx%d" kind n m in
      let expected = Tutil.read_file (Filename.concat (Tutil.golden_dir ()) (label ^ ".txt")) in
      let a = golden_operand ~seed:1 n and b = golden_operand ~seed:2 m in
      let render f =
        let out = Array.make (n + m - 1) 0. in
        f ~out a n b m;
        String.concat "" (Array.to_list (Array.map (Printf.sprintf "%h\n") out))
      in
      Alcotest.(check string) (label ^ " kernel") expected (render kernel);
      Alcotest.(check string) (label ^ " oracle") expected (render oracle))
    [
      ("packed", 290, 291, Numerics.Convolution.fft_packed_into, Fft_oracle.fft_packed_into);
      ("packed", 512, 512, Numerics.Convolution.fft_packed_into, Fft_oracle.fft_packed_into);
      ( "overlap-add", 540, 40,
        (fun ~out a n b m -> Numerics.Convolution.overlap_add_into ~out a n b m),
        fun ~out a n b m -> Fft_oracle.overlap_add_into ~out a n b m );
      ( "overlap-add", 2048, 17,
        (fun ~out a n b m -> Numerics.Convolution.overlap_add_into ~out a n b m),
        fun ~out a n b m -> Fft_oracle.overlap_add_into ~out a n b m );
    ]

(* --- Validation in front of the C kernel --- *)

(* The kernel checks no bounds: each entry point must reject a bad
   length or prefix with Invalid_argument before writing anything. *)
let conv_rejects_short_buffers () =
  let a = Array.init 300 (fun i -> float_of_int (i mod 5)) in
  let b = Array.init 40 (fun i -> float_of_int (i mod 3)) in
  let kernels =
    [ ("fft_packed_into", Numerics.Convolution.fft_packed_into);
      ("overlap_add_into", fun ~out a n b m ->
        Numerics.Convolution.overlap_add_into ~out a n b m);
      ("direct_into", Numerics.Convolution.direct_into);
      ("auto_into", Numerics.Convolution.auto_into) ]
  in
  let cases =
    [ ("out one short", 300, 40, 338);
      ("out empty", 300, 40, 0);
      ("a prefix too long", 301, 40, 400);
      ("b prefix too long", 300, 41, 400);
      ("negative n", -1, 40, 400);
      ("negative m", 300, -5, 400);
      ("empty n", 0, 40, 400) ]
  in
  List.iter
    (fun (kname, f) ->
      List.iter
        (fun (cname, n, m, out_len) ->
          let out = Array.make out_len 3.5 in
          let a0 = Array.copy a and b0 = Array.copy b in
          let label = Printf.sprintf "%s: %s" kname cname in
          (match f ~out a n b m with
          | () -> Alcotest.failf "%s: accepted" label
          | exception Invalid_argument _ -> ());
          Alcotest.(check bool) (label ^ ": out untouched") true
            (Array.for_all (fun x -> x = 3.5) out);
          Alcotest.(check bool) (label ^ ": operands untouched") true
            (same_bits a0 a && same_bits b0 b))
        cases)
    kernels

let fft_rejects_bad_shapes () =
  let raises label f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  raises "length mismatch" (fun () ->
      Numerics.Fft.forward (Array.make 8 0.) (Array.make 4 0.));
  raises "inverse length mismatch" (fun () ->
      Numerics.Fft.inverse (Array.make 4 0.) (Array.make 8 0.));
  raises "empty" (fun () -> Numerics.Fft.forward [||] [||]);
  raises "plan of 12" (fun () -> ignore (Numerics.Fft.plan 12));
  raises "plan of 0" (fun () -> ignore (Numerics.Fft.plan 0))

(* --- Spline --- *)

let spline_interpolates_knots =
  Tutil.qcheck ~count:100 "spline passes through knots"
    QCheck2.Gen.(pair (int_range 2 30) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let xs =
        Array.init n (fun i -> float_of_int i +. Prng.Sampler.uniform rng ~lo:0. ~hi:0.5)
      in
      let ys = Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:(-3.) ~hi:3.) in
      let s = Numerics.Spline.fit ~xs ~ys in
      Array.for_all2 (fun x y -> Float.abs (Numerics.Spline.eval s x -. y) < 1e-9) xs ys)

(* Random knots and the splines fit through them three ways: by the
   frozen oracle, by [Spline.fit], and by [Spline.fit_into] on oversized
   buffers pre-filled with garbage. Knots are either jittered integers or
   a uniform grid built like Dist's ([lo +. i·h]), so queries can land on
   them exactly. [specials] mixes zeros, -0., subnormals, NaN and ±∞ into
   the ordinates. *)
let random_splines ?(specials = false) rng n =
  let uniform = Prng.Xoshiro.int rng 2 = 0 in
  let lo = Prng.Sampler.uniform rng ~lo:(-3.) ~hi:3. in
  let h = Prng.Sampler.uniform rng ~lo:0.05 ~hi:2. in
  let xs =
    Array.init n (fun i ->
        if uniform then lo +. (float_of_int i *. h)
        else float_of_int i +. Prng.Sampler.uniform rng ~lo:0. ~hi:0.5)
  in
  let ys =
    if specials then gen_values rng n
    else Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:(-3.) ~hi:3.)
  in
  let pad = 1 + Prng.Xoshiro.int rng 7 in
  let junk () = Array.init (n + pad) (fun _ -> Prng.Sampler.uniform rng ~lo:(-9.) ~hi:9.) in
  let big_xs = junk () and big_ys = junk () in
  Array.blit xs 0 big_xs 0 n;
  Array.blit ys 0 big_ys 0 n;
  let oracle = Spline_oracle.fit ~xs ~ys in
  let s = Numerics.Spline.fit ~xs ~ys in
  let s_into =
    Numerics.Spline.fit_into ~xs:big_xs ~ys:big_ys ~n ~y2:(junk ()) ~u:(junk ())
  in
  (xs, oracle, s, s_into)

let bits = Int64.bits_of_float

let spline_walk_matches_eval =
  Tutil.qcheck ~count:100 "cursor walk = eval bitwise"
    QCheck2.Gen.(pair (int_range 2 30) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let xs, oracle, s, s_into = random_splines rng n in
      let cur = Spline_oracle.cursor () in
      (* the oracle's mostly-increasing scan with deliberate regressions:
         both its linear-advance and its fallback-search paths must match
         the library's [eval] bit for bit, on either fit, knots included *)
      let ok = ref true in
      for k = 0 to 199 do
        let x =
          if k mod 13 = 0 then Prng.Sampler.uniform rng ~lo:(-1.) ~hi:(float_of_int n)
          else if k mod 7 = 0 then xs.(Prng.Xoshiro.int rng n)
          else (float_of_int k /. 200. *. float_of_int n) -. 0.5
        in
        let e = bits (Numerics.Spline.eval s x) in
        if
          bits (Spline_oracle.eval_walk oracle cur x) <> e
          || bits (Numerics.Spline.eval s_into x) <> e
        then ok := false
      done;
      !ok)

(* A query grid for a batch scan over knots [xs]: random, or starting on a
   knot with the knot spacing as step (every query a knot), with clip
   windows that are empty, partial, cover the whole scan, are the knot
   range or end exactly on the scan's first and last abscissas. *)
let random_scan rng xs n =
  let knots = Array.length xs in
  let span = xs.(knots - 1) -. xs.(0) in
  let x0, dx, shift =
    match Prng.Xoshiro.int rng 4 with
    | 0 -> (xs.(Prng.Xoshiro.int rng knots), xs.(1) -. xs.(0), 0.)
    | 1 ->
      ( Prng.Sampler.uniform rng ~lo:(xs.(0) -. 2.) ~hi:xs.(knots - 1),
        Prng.Sampler.uniform rng ~lo:0.01 ~hi:(0.01 +. (2. *. span /. float_of_int n)),
        0. )
    | _ ->
      ( Prng.Sampler.uniform rng ~lo:(xs.(0) -. 2.) ~hi:xs.(knots - 1),
        Prng.Sampler.uniform rng ~lo:0.01 ~hi:(0.01 +. (2. *. span /. float_of_int n)),
        Prng.Sampler.uniform rng ~lo:(-3.) ~hi:3. )
  in
  let clip_lo, clip_hi =
    match Prng.Xoshiro.int rng 5 with
    | 0 -> (1., 0.)
    | 1 -> (Float.neg_infinity, Float.infinity)
    | 2 -> (xs.(0), xs.(knots - 1))
    | 3 -> (x0 -. shift, x0 +. (float_of_int (n - 1) *. dx) -. shift)
    | _ ->
      let a = Prng.Sampler.uniform rng ~lo:(xs.(0) -. 1.) ~hi:xs.(knots - 1) in
      (a, a +. Prng.Sampler.uniform rng ~lo:0. ~hi:span)
  in
  (x0, dx, shift, clip_lo, clip_hi)

(* The C scan against the frozen OCaml scan, bit for bit (a NaN meets a
   NaN), on both fits, over oversized output buffers whose cells past n
   must be left alone; n runs down to 0 and through odd lengths, whose
   last vector has a lane past n. *)
let spline_sample_into_matches_walk =
  Tutil.qcheck ~count:300 "sample_into = eval_walk scan bitwise"
    QCheck2.Gen.(triple (int_range 2 30) (int_range 0 80) (int_range 0 100000))
    (fun (knots, n, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let xs, oracle, s, s_into = random_splines ~specials:(seed mod 3 = 0) rng knots in
      let x0, dx, shift, clip_lo, clip_hi = random_scan rng xs (Int.max n 1) in
      let want = Array.make (n + 3) Float.nan in
      Spline_oracle.sample_into oracle ~x0 ~dx ~shift ~clip_lo ~clip_hi ~n want;
      List.for_all
        (fun s ->
          let out = Array.make (n + 3) Float.nan in
          Numerics.Spline.sample_into s ~x0 ~dx ~shift ~clip_lo ~clip_hi ~n out;
          same_bits want out)
        [ s; s_into ])

(* Special query grids: a NaN or infinite origin, step or shift. Every
   cell must still match the oracle (here a NaN query evaluates to NaN
   whatever segment it lands in). *)
let spline_sample_into_special_queries () =
  let rng = Tutil.rng_of_seed 7 in
  let _, oracle, s, _ = random_splines rng 9 in
  let specials = [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.; 4.9e-324 ] in
  List.iter
    (fun v ->
      List.iter
        (fun (x0, dx, shift) ->
          let want = Array.make 7 1. and got = Array.make 7 1. in
          Spline_oracle.sample_into oracle ~x0 ~dx ~shift ~clip_lo:Float.neg_infinity
            ~clip_hi:Float.infinity ~n:7 want;
          Numerics.Spline.sample_into s ~x0 ~dx ~shift ~clip_lo:Float.neg_infinity
            ~clip_hi:Float.infinity ~n:7 got;
          if not (same_bits want got) then
            Alcotest.failf "x0 %h dx %h shift %h: C scan differs from the oracle" x0 dx shift)
        [ (v, 0.5, 0.); (0.5, v, 0.); (0.5, 0.5, v) ])
    specials

(* k_point_sum's accumulation: atoms with zero, negative and NaN masses
   (skipped), shifts that push the scan in and out of the clip window. *)
let spline_mixture_matches_oracle =
  Tutil.qcheck ~count:200 "sample_mixture_into = oracle, bit for bit"
    QCheck2.Gen.(quad (int_range 2 30) (int_range 0 80) (int_range 0 20) (int_range 0 100000))
    (fun (knots, n, m, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let xs, oracle, s, s_into = random_splines ~specials:(seed mod 3 = 0) rng knots in
      let x0, dx, _, clip_lo, clip_hi = random_scan rng xs (Int.max n 1) in
      let shifts = Array.init m (fun _ -> Prng.Sampler.uniform rng ~lo:(-4.) ~hi:4.) in
      let weights =
        Array.init m (fun _ ->
            match Prng.Xoshiro.int rng 6 with
            | 0 -> 0.
            | 1 -> -0.5
            | 2 -> Float.nan
            | _ -> Prng.Sampler.uniform rng ~lo:0. ~hi:1.)
      in
      let want = Array.make (n + 3) Float.nan in
      Spline_oracle.sample_mixture_into oracle ~x0 ~dx ~shifts ~weights ~clip_lo ~clip_hi ~n
        want;
      List.for_all
        (fun s ->
          let out = Array.make (n + 3) Float.nan in
          Numerics.Spline.sample_mixture_into s ~x0 ~dx ~shifts ~weights ~clip_lo ~clip_hi ~n
            out;
          same_bits want out)
        [ s; s_into ])

let spline_scans_reject_bad_buffers () =
  let s = Numerics.Spline.fit ~xs:[| 0.; 1.; 2. |] ~ys:[| 1.; 4.; 9. |] in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let out = Array.make 4 7. in
  raises "short out" (fun () ->
      Numerics.Spline.sample_into s ~x0:0. ~dx:0.5 ~shift:0. ~clip_lo:0. ~clip_hi:2. ~n:5 out);
  raises "mixture short out" (fun () ->
      Numerics.Spline.sample_mixture_into s ~x0:0. ~dx:0.5 ~shifts:[| 0. |] ~weights:[| 1. |]
        ~clip_lo:0. ~clip_hi:2. ~n:5 out);
  raises "mixture length mismatch" (fun () ->
      Numerics.Spline.sample_mixture_into s ~x0:0. ~dx:0.5 ~shifts:[| 0.; 1. |]
        ~weights:[| 1. |] ~clip_lo:0. ~clip_hi:2. ~n:4 out);
  Alcotest.(check bool) "nothing written" true (Array.for_all (fun v -> v = 7.) out)

let spline_exact_on_lines =
  Tutil.qcheck ~count:50 "spline reproduces straight lines"
    QCheck2.Gen.(triple (float_range (-2.) 2.) (float_range (-5.) 5.) (int_range 0 1000))
    (fun (slope, intercept, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let xs = Array.init 10 (fun i -> float_of_int i) in
      let ys = Array.map (fun x -> (slope *. x) +. intercept) xs in
      let s = Numerics.Spline.fit ~xs ~ys in
      List.for_all
        (fun _ ->
          let x = Prng.Sampler.uniform rng ~lo:0. ~hi:9. in
          Float.abs (Numerics.Spline.eval s x -. ((slope *. x) +. intercept)) < 1e-9)
        (List.init 20 Fun.id))

let spline_smooth_function_accuracy () =
  let xs = Numerics.Array_ops.linspace 0. Float.pi 21 in
  let ys = Array.map sin xs in
  let s = Numerics.Spline.fit ~xs ~ys in
  List.iter
    (fun x -> check_close_abs ~eps:1e-3 "sin approx" (sin x) (Numerics.Spline.eval s x))
    [ 0.1; 0.7; 1.3; 2.2; 3.0 ]

let spline_rejects_bad_knots () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Numerics.Spline.fit ~xs:[| 0.; 0. |] ~ys:[| 1.; 2. |]);
  expect_invalid (fun () -> Numerics.Spline.fit ~xs:[| 1. |] ~ys:[| 1. |]);
  expect_invalid (fun () -> Numerics.Spline.fit ~xs:[| 0.; 1. |] ~ys:[| 1. |])

(* --- Integrate --- *)

let simpson_exact_cubics () =
  let f x = (2. *. x *. x *. x) -. (x *. x) +. 3. in
  let exact = (0.5 *. 16.) -. (8. /. 3.) +. 6. in
  check_close "cubic" exact (Numerics.Integrate.simpson ~f ~a:0. ~b:2. ~n:64)

let simpson_vs_trapezoid_convergence () =
  let f x = exp x in
  let exact = exp 1. -. 1. in
  let s = Numerics.Integrate.simpson ~f ~a:0. ~b:1. ~n:16 in
  let xs = Numerics.Array_ops.linspace 0. 1. 17 in
  let t = Numerics.Integrate.trapezoid_sampled ~dx:(1. /. 16.) (Array.map f xs) in
  Alcotest.(check bool) "simpson beats trapezoid" true
    (Float.abs (s -. exact) < Float.abs (t -. exact))

let simpson_sampled_odd_intervals () =
  let ys = [| 0.; 1.; 2.; 3. |] in
  check_close "linear" 4.5 (Numerics.Integrate.simpson_sampled ~dx:1. ys)

let cumulative_matches_total () =
  let ys = [| 1.; 3.; 2.; 5. |] in
  let c = Array.make 4 Float.nan in
  Density_oracle.cumulative_into ~dx:0.5 ~n:4 ys c;
  check_close "starts at 0" 0. c.(0);
  check_close "total" (Numerics.Integrate.trapezoid_sampled ~dx:0.5 ys) c.(3)

let cumulative_monotone_for_positive =
  Tutil.qcheck ~count:100 "cumulative of non-negative samples is monotone"
    QCheck2.Gen.(pair (int_range 2 50) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let ys = Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:0. ~hi:3.) in
      let c = Array.make n Float.nan in
      Density_oracle.cumulative_into ~dx:0.1 ~n ys c;
      let ok = ref true in
      for i = 1 to n - 1 do
        if c.(i) < c.(i - 1) then ok := false
      done;
      !ok)

(* --- Density passes --- *)

(* Raw density samples: mostly positive, per case with zeros, -0.,
   subnormals, negatives, NaN and ±∞ mixed in, or all non-positive. *)
let gen_samples rng n =
  match Prng.Xoshiro.int rng 5 with
  | 0 -> Array.init n (fun _ -> -.Prng.Sampler.uniform rng ~lo:0. ~hi:2.)
  | 1 -> Array.init n (fun _ -> Prng.Sampler.uniform rng ~lo:0. ~hi:2.)
  | 2 -> Array.map Float.abs (gen_values rng n)
  | _ -> gen_values rng n

(* Both passes against the frozen OCaml ones, bit for bit: the returned
   mass, the clamped pdf, and — when the mass is positive — the
   normalized pdf and the CDF; in place ([pdf] = [src]) and into a second
   buffer, with cells past n untouched. *)
let density_passes_match_oracle =
  Tutil.qcheck ~count:300 "clamp_mass and normalize = oracle, bit for bit"
    QCheck2.Gen.(triple (int_range 2 300) bool (int_range 0 100000))
    (fun (n, in_place, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let src = gen_samples rng (n + 2) in
      let dx =
        match Prng.Xoshiro.int rng 4 with
        | 0 -> 4.9e-324
        | 1 -> 1e300
        | _ -> Prng.Sampler.uniform rng ~lo:1e-3 ~hi:3.
      in
      let run clamp_mass normalize =
        let src = Array.copy src in
        let pdf = if in_place then src else Array.make (n + 2) Float.nan in
        let cdf = Array.make (n + 2) Float.nan in
        let mass = clamp_mass ~dx ~n src ~pdf in
        if mass > 0. then normalize ~dx ~n ~mass ~pdf ~cdf;
        (mass, pdf, cdf)
      in
      let m, p, c = run Density_oracle.clamp_mass Density_oracle.normalize in
      let m', p', c' =
        run
          (fun ~dx ~n src ~pdf -> Numerics.Density.clamp_mass ~dx ~n src ~pdf)
          Numerics.Density.normalize
      in
      same_bits [| m |] [| m' |] && same_bits p p' && same_bits c c')

(* f1·F2 + f2·F1 against the frozen loop: random CDF grids (monotone, or
   arbitrary values with specials), densities with specials, and query
   grids that start on either grid's origin with its step, or anywhere. *)
let max_indep_into_matches_oracle =
  Tutil.qcheck ~count:300 "max_indep_into = oracle, bit for bit"
    QCheck2.Gen.(quad (int_range 2 80) (int_range 2 80) (int_range 0 100) (int_range 0 100000))
    (fun (n1, n2, n, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let grid k =
        let lo = Prng.Sampler.uniform rng ~lo:(-2.) ~hi:2. in
        let dx = Prng.Sampler.uniform rng ~lo:0.01 ~hi:0.2 in
        let cdf =
          if Prng.Xoshiro.int rng 3 = 0 then gen_values rng k
          else begin
            let c = Array.init k (fun _ -> Prng.Sampler.uniform rng ~lo:0. ~hi:1.) in
            Array.sort compare c;
            c
          end
        in
        (lo, dx, cdf)
      in
      let lo1, dx1, cdf1 = grid n1 and lo2, dx2, cdf2 = grid n2 in
      let lo, dx =
        match Prng.Xoshiro.int rng 3 with
        | 0 -> (lo1, dx1)
        | 1 -> (lo2, dx2)
        | _ ->
          (Prng.Sampler.uniform rng ~lo:(-3.) ~hi:3., Prng.Sampler.uniform rng ~lo:0.01 ~hi:0.3)
      in
      let f1 = gen_values rng (n + 1) and f2 = gen_values rng (n + 1) in
      let want = Array.make (n + 2) Float.nan and got = Array.make (n + 2) Float.nan in
      Density_oracle.max_indep_into ~f1 ~f2 ~lo1 ~dx1 ~cdf1 ~lo2 ~dx2 ~cdf2 ~lo ~dx ~n want;
      Numerics.Density.max_indep_into ~f1 ~f2 ~lo1 ~dx1 ~cdf1 ~lo2 ~dx2 ~cdf2 ~lo ~dx ~n got;
      same_bits want got)

let density_rejects_bad_buffers () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let a = Array.make 4 7. and b = Array.make 4 7. in
  raises "one sample" (fun () -> Numerics.Density.clamp_mass ~dx:1. ~n:1 a ~pdf:b);
  raises "short src" (fun () -> Numerics.Density.clamp_mass ~dx:1. ~n:5 a ~pdf:(Array.make 5 7.));
  raises "short pdf" (fun () -> Numerics.Density.clamp_mass ~dx:1. ~n:5 (Array.make 5 7.) ~pdf:a);
  raises "normalize short cdf" (fun () ->
      Numerics.Density.normalize ~dx:1. ~n:5 ~mass:1. ~pdf:(Array.make 5 7.) ~cdf:a);
  raises "normalize aliased" (fun () -> Numerics.Density.normalize ~dx:1. ~n:4 ~mass:1. ~pdf:a ~cdf:a);
  raises "normalize one sample" (fun () ->
      Numerics.Density.normalize ~dx:1. ~n:1 ~mass:1. ~pdf:a ~cdf:b);
  let max_into ?(f1 = a) ?(cdf1 = a) ~n out =
    Numerics.Density.max_indep_into ~f1 ~f2:a ~lo1:0. ~dx1:1. ~cdf1 ~lo2:0. ~dx2:1. ~cdf2:a
      ~lo:0. ~dx:0.5 ~n out
  in
  raises "max short out" (fun () -> max_into ~n:4 [| 0. |]);
  raises "max short f1" (fun () -> max_into ~f1:[| 1. |] ~n:4 b);
  raises "max one-cell cdf" (fun () -> max_into ~cdf1:[| 1. |] ~n:4 b);
  Alcotest.(check bool) "nothing written" true
    (Array.for_all (fun v -> v = 7.) a && Array.for_all (fun v -> v = 7.) b)

(* --- Special --- *)

let erf_known_values () =
  List.iter
    (fun (x, want) ->
      check_close_abs ~eps:2e-7 (Printf.sprintf "erf %g" x) want (Numerics.Special.erf x))
    [ (0., 0.); (0.5, 0.5204998778); (1., 0.8427007929); (2., 0.9953222650);
      (-1., -0.8427007929) ]

let erfc_complement =
  Tutil.qcheck ~count:100 "erf + erfc = 1" QCheck2.Gen.(float_range (-4.) 4.) (fun x ->
      Float.abs (Numerics.Special.erf x +. Numerics.Special.erfc x -. 1.) < 1e-12)

let normal_cdf_symmetry =
  Tutil.qcheck ~count:100 "Φ(x) + Φ(−x) = 1" QCheck2.Gen.(float_range (-5.) 5.) (fun x ->
      Float.abs (Numerics.Special.normal_cdf x +. Numerics.Special.normal_cdf (-.x) -. 1.)
      < 1e-10)

let log_gamma_known () =
  List.iter
    (fun (x, want) ->
      check_close ~eps:1e-10 (Printf.sprintf "lnΓ %g" x) want (Numerics.Special.log_gamma x))
    [ (1., 0.); (2., 0.); (3., log 2.); (5., log 24.); (0.5, log (sqrt Float.pi)) ]

let log_gamma_recurrence =
  Tutil.qcheck ~count:100 "lnΓ(x+1) = lnΓ(x) + ln x" QCheck2.Gen.(float_range 0.1 20.)
    (fun x ->
      Float.abs
        (Numerics.Special.log_gamma (x +. 1.) -. Numerics.Special.log_gamma x -. log x)
      < 1e-9)

let beta_pdf_integrates_to_one () =
  let f = Numerics.Special.beta_pdf ~alpha:2. ~beta:5. in
  check_close ~eps:1e-6 "mass" 1. (Numerics.Integrate.simpson ~f ~a:0. ~b:1. ~n:512)

let normal_pdf_peak () =
  check_close "peak" (1. /. sqrt (2. *. Float.pi)) (Numerics.Special.normal_pdf 0.)

let betainc_matches_quadrature =
  Tutil.qcheck ~count:50 "betainc = ∫ beta_pdf"
    QCheck2.Gen.(
      triple (float_range 2. 6.) (float_range 2. 6.) (float_range 0.05 0.95))
    (fun (alpha, beta, x) ->
      (* smooth integrands only: near α or β = 1 the density's fractional
         powers defeat Simpson's convergence long before betainc's *)
      let want =
        Numerics.Integrate.simpson
          ~f:(Numerics.Special.beta_pdf ~alpha ~beta)
          ~a:0. ~b:x ~n:4096
      in
      Float.abs (Numerics.Special.betainc ~alpha ~beta x -. want) < 1e-5)

let betainc_symmetry =
  Tutil.qcheck ~count:50 "I_x(a,b) = 1 − I_{1−x}(b,a)"
    QCheck2.Gen.(
      triple (float_range 0.5 8.) (float_range 0.5 8.) (float_range 0. 1.))
    (fun (alpha, beta, x) ->
      Float.abs
        (Numerics.Special.betainc ~alpha ~beta x
        +. Numerics.Special.betainc ~alpha:beta ~beta:alpha (1. -. x)
        -. 1.)
      < 1e-10)

let betainc_endpoints () =
  check_close "at 0" 0. (Numerics.Special.betainc ~alpha:2. ~beta:5. 0.);
  check_close "at 1" 1. (Numerics.Special.betainc ~alpha:2. ~beta:5. 1.);
  (* uniform: I_x(1,1) = x *)
  check_close ~eps:1e-12 "uniform" 0.37 (Numerics.Special.betainc ~alpha:1. ~beta:1. 0.37)

let betainc_inv_roundtrip =
  Tutil.qcheck ~count:50 "betainc (betainc_inv p) = p"
    QCheck2.Gen.(
      triple (float_range 1.1 6.) (float_range 1.1 6.) (float_range 0.001 0.999))
    (fun (alpha, beta, p) ->
      let x = Numerics.Special.betainc_inv ~alpha ~beta p in
      Float.abs (Numerics.Special.betainc ~alpha ~beta x -. p) < 1e-9)

let betainc_inv_median_beta25 () =
  (* median of Beta(2,5) ≈ 0.26445 *)
  check_close_abs ~eps:1e-4 "median" 0.26445
    (Numerics.Special.betainc_inv ~alpha:2. ~beta:5. 0.5)

(* --- Rootfind --- *)

let brent_finds_root =
  Tutil.qcheck ~count:100 "brent solves x³ = c" QCheck2.Gen.(float_range 0.01 50.)
    (fun c ->
      let f x = (x *. x *. x) -. c in
      let root = Numerics.Rootfind.brent ~f ~lo:0. ~hi:10. () in
      Float.abs (root -. Float.cbrt c) < 1e-9)

let bisect_finds_root () =
  let f x = cos x in
  let root = Numerics.Rootfind.bisect ~f ~lo:0. ~hi:3. () in
  check_close_abs ~eps:1e-9 "pi/2" (Float.pi /. 2.) root

let brent_matches_bisect =
  Tutil.qcheck ~count:50 "brent = bisect" QCheck2.Gen.(float_range (-0.9) 0.9)
    (fun target ->
      let f x = tanh x -. target in
      let a = Numerics.Rootfind.brent ~f ~lo:(-5.) ~hi:5. () in
      let b = Numerics.Rootfind.bisect ~f ~lo:(-5.) ~hi:5. () in
      Float.abs (a -. b) < 1e-8)

let rootfind_rejects_bad_bracket () =
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Rootfind: interval does not bracket a root") (fun () ->
      ignore (Numerics.Rootfind.brent ~f:(fun x -> (x *. x) +. 1.) ~lo:(-1.) ~hi:1. ()))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "numerics"
    [
      ( "array_ops",
        [
          tc "linspace" `Quick linspace_endpoints;
          tc "kahan sum" `Quick kahan_sum_precision;
          tc "next_pow2" `Quick next_pow2_values;
        ] );
      ( "fft",
        [
          fft_matches_naive;
          fft_roundtrip;
          tc "impulse" `Quick fft_impulse;
          tc "rejects non-pow2" `Quick fft_rejects_non_pow2;
        ] );
      ( "convolution",
        [
          conv_overlap_add_matches_direct;
          conv_auto_matches_direct;
          conv_packed_matches_direct;
          tc "known value" `Quick conv_known_value;
          conv_commutative;
          tc "overlap-add blocks" `Quick conv_overlap_add_block_sizes;
          tc "pow2 boundaries" `Quick conv_strategies_agree_at_pow2_boundaries;
          tc "into prefixes" `Quick conv_into_reads_prefixes;
          tc "short buffers rejected" `Quick conv_rejects_short_buffers;
        ] );
      ( "bits",
        [
          fft_bitwise_oracle;
          conv_bitwise_oracle;
          tc "golden conv__*" `Quick conv_golden_replay;
          tc "fft rejects bad shapes" `Quick fft_rejects_bad_shapes;
        ] );
      ( "spline",
        [
          spline_interpolates_knots;
          spline_walk_matches_eval;
          spline_sample_into_matches_walk;
          spline_exact_on_lines;
          tc "smooth accuracy" `Quick spline_smooth_function_accuracy;
          spline_mixture_matches_oracle;
          tc "special queries" `Quick spline_sample_into_special_queries;
          tc "short buffers rejected" `Quick spline_scans_reject_bad_buffers;
          tc "bad knots" `Quick spline_rejects_bad_knots;
        ] );
      ( "integrate",
        [
          tc "simpson cubic exact" `Quick simpson_exact_cubics;
          tc "simpson beats trapezoid" `Quick simpson_vs_trapezoid_convergence;
          tc "odd intervals" `Quick simpson_sampled_odd_intervals;
          tc "cumulative total" `Quick cumulative_matches_total;
          cumulative_monotone_for_positive;
        ] );
      ( "density",
        [
          density_passes_match_oracle;
          max_indep_into_matches_oracle;
          tc "short buffers rejected" `Quick density_rejects_bad_buffers;
        ] );
      ( "special",
        [
          tc "erf values" `Quick erf_known_values;
          erfc_complement;
          normal_cdf_symmetry;
          tc "log_gamma values" `Quick log_gamma_known;
          log_gamma_recurrence;
          tc "beta pdf mass" `Quick beta_pdf_integrates_to_one;
          tc "normal pdf peak" `Quick normal_pdf_peak;
          betainc_matches_quadrature;
          tc "betainc endpoints" `Quick betainc_endpoints;
          betainc_inv_roundtrip;
          (* keeps betainc_symmetry at index 11, part of its test id *)
          tc "betainc_inv median" `Quick betainc_inv_median_beta25;
          betainc_symmetry;
        ] );
      ( "rootfind",
        [
          brent_finds_root;
          tc "bisect" `Quick bisect_finds_root;
          brent_matches_bisect;
          tc "bad bracket" `Quick rootfind_rejects_bad_bracket;
        ] );
    ]
