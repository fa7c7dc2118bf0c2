(* PRNG suites: determinism, splitting, statistical sanity of samplers. *)

let check_close = Tutil.check_close
let check_close_abs = Tutil.check_close_abs

(* --- Splitmix --- *)

let splitmix_deterministic () =
  let a = Prng.Splitmix.create 42L and b = Prng.Splitmix.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Splitmix.next a) (Prng.Splitmix.next b)
  done

let splitmix_seed_sensitivity () =
  let a = Prng.Splitmix.create 1L and b = Prng.Splitmix.create 2L in
  Alcotest.(check bool) "different seeds differ" false
    (Prng.Splitmix.next a = Prng.Splitmix.next b)

let splitmix_split_differs () =
  let a = Prng.Splitmix.create 9L in
  let child = Prng.Splitmix.split a in
  let xs = List.init 50 (fun _ -> Prng.Splitmix.next a) in
  let ys = List.init 50 (fun _ -> Prng.Splitmix.next child) in
  Alcotest.(check bool) "parent and child streams differ" false (xs = ys)

let splitmix_float_range () =
  let a = Prng.Splitmix.create 123L in
  for _ = 1 to 1000 do
    let u = Prng.Splitmix.next_float a in
    Alcotest.(check bool) "in [0,1)" true (u >= 0. && u < 1.)
  done

(* --- Xoshiro --- *)

let xoshiro_deterministic () =
  let a = Prng.Xoshiro.create 42L and b = Prng.Xoshiro.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Xoshiro.next a) (Prng.Xoshiro.next b)
  done

let xoshiro_jump_disjoint () =
  (* after a jump, the stream must not replay the pre-jump prefix *)
  let a = Prng.Xoshiro.create 5L in
  let prefix = List.init 100 (fun _ -> Prng.Xoshiro.next a) in
  let b = Prng.Xoshiro.create 5L in
  Prng.Xoshiro.jump b;
  let jumped = List.init 100 (fun _ -> Prng.Xoshiro.next b) in
  Alcotest.(check bool) "jumped stream differs" false (prefix = jumped)

let xoshiro_split_parent_advances () =
  let a = Prng.Xoshiro.create 5L in
  let child = Prng.Xoshiro.split a in
  let xs = List.init 100 (fun _ -> Prng.Xoshiro.next a) in
  let ys = List.init 100 (fun _ -> Prng.Xoshiro.next child) in
  Alcotest.(check bool) "disjoint streams" false (xs = ys)

let xoshiro_int_bounds () =
  let a = Prng.Xoshiro.create 99L in
  for bound = 1 to 50 do
    for _ = 1 to 50 do
      let v = Prng.Xoshiro.int a bound in
      Alcotest.(check bool) "in range" true (v >= 0 && v < bound)
    done
  done

let xoshiro_int_rejects_nonpositive () =
  let a = Prng.Xoshiro.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Xoshiro.int: bound must be positive")
    (fun () -> ignore (Prng.Xoshiro.int a 0))

let xoshiro_int_uniformity () =
  (* chi-square-ish sanity: each of 8 buckets within 20% of expectation *)
  let a = Prng.Xoshiro.create 2024L in
  let buckets = Array.make 8 0 in
  let n = 80000 in
  for _ = 1 to n do
    let v = Prng.Xoshiro.int a 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = float_of_int n /. 8. in
      Alcotest.(check bool) "bucket near uniform" true
        (Float.abs (float_of_int c -. expected) < 0.2 *. expected))
    buckets

let xoshiro_float_pos_never_zero () =
  let a = Prng.Xoshiro.create 3L in
  for _ = 1 to 10000 do
    Alcotest.(check bool) "positive" true (Prng.Xoshiro.next_float_pos a > 0.)
  done

(* golden/xoshiro.txt holds, for seeds 0, 42 and -1, eight outputs of
   each entry point: [next] from the seed, after one [jump], from a
   [split] child and its parent, then [next_float], [next_float_pos] and
   [int 7]. It was written at commit a16899b, when the state was four
   boxed int64 fields; every later representation must replay it. *)
let render_xoshiro_golden () =
  let b = Buffer.create 4096 in
  let line label draw =
    Buffer.add_string b label;
    for _ = 1 to 8 do
      Buffer.add_char b ' ';
      Buffer.add_string b (draw ())
    done;
    Buffer.add_char b '\n'
  in
  List.iter
    (fun seed ->
      let t = Prng.Xoshiro.create seed in
      let bits t () = Printf.sprintf "%016Lx" (Prng.Xoshiro.next t) in
      line (Printf.sprintf "seed %Ld next" seed) (bits t);
      Prng.Xoshiro.jump t;
      line "jump next" (bits t);
      let child = Prng.Xoshiro.split t in
      line "split child" (bits child);
      line "split parent" (bits t);
      line "next_float" (fun () -> Printf.sprintf "%h" (Prng.Xoshiro.next_float t));
      line "next_float_pos" (fun () -> Printf.sprintf "%h" (Prng.Xoshiro.next_float_pos t));
      line "int 7" (fun () -> string_of_int (Prng.Xoshiro.int t 7)))
    [ 0L; 42L; -1L ];
  Buffer.contents b

let xoshiro_golden () =
  let expected = Tutil.read_file (Filename.concat (Tutil.golden_dir ()) "xoshiro.txt") in
  Alcotest.(check string) "xoshiro streams" expected (render_xoshiro_golden ())

(* --- Samplers: moment checks over large samples --- *)

let sample_moments ~n draw =
  let rng = Prng.Xoshiro.create 77L in
  let acc = ref 0. and acc2 = ref 0. in
  for _ = 1 to n do
    let x = draw rng in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x)
  done;
  let mean = !acc /. float_of_int n in
  (mean, (!acc2 /. float_of_int n) -. (mean *. mean))

let uniform_moments () =
  let mean, var = sample_moments ~n:100000 (fun r -> Prng.Sampler.uniform r ~lo:2. ~hi:6.) in
  check_close ~eps:0.02 "mean" 4. mean;
  check_close ~eps:0.05 "var" (16. /. 12.) var

let normal_moments () =
  let mean, var =
    sample_moments ~n:100000 (fun r -> Prng.Sampler.normal r ~mean:3. ~std:2.)
  in
  check_close ~eps:0.02 "mean" 3. mean;
  check_close ~eps:0.05 "var" 4. var

let gamma_moments () =
  List.iter
    (fun (shape, scale) ->
      let mean, var =
        sample_moments ~n:100000 (fun r -> Prng.Sampler.gamma r ~shape ~scale)
      in
      check_close ~eps:0.05 (Printf.sprintf "gamma(%g) mean" shape) (shape *. scale) mean;
      check_close ~eps:0.12
        (Printf.sprintf "gamma(%g) var" shape)
        (shape *. scale *. scale)
        var)
    [ (0.5, 1.); (1., 2.); (3., 0.5); (9., 1.) ]

let beta_moments () =
  let alpha = 2. and beta = 5. in
  let mean, var =
    sample_moments ~n:100000 (fun r -> Prng.Sampler.beta r ~alpha ~beta)
  in
  let s = alpha +. beta in
  check_close ~eps:0.02 "mean" (alpha /. s) mean;
  check_close ~eps:0.06 "var" (alpha *. beta /. (s *. s *. (s +. 1.))) var

let beta_in_unit_interval () =
  let rng = Prng.Xoshiro.create 4L in
  for _ = 1 to 10000 do
    let x = Prng.Sampler.beta rng ~alpha:2. ~beta:5. in
    Alcotest.(check bool) "in [0,1]" true (x >= 0. && x <= 1.)
  done

let gamma_mean_cv_moments () =
  let mean, var =
    sample_moments ~n:100000 (fun r -> Prng.Sampler.gamma_mean_cv r ~mean:20. ~cv:0.5)
  in
  check_close ~eps:0.02 "mean" 20. mean;
  check_close ~eps:0.08 "std" 10. (sqrt var)

let gamma_mean_cv_degenerate () =
  let rng = Prng.Xoshiro.create 5L in
  check_close "cv=0 returns mean" 20. (Prng.Sampler.gamma_mean_cv rng ~mean:20. ~cv:0.)

let shuffle_is_permutation =
  Tutil.qcheck ~count:200 "shuffle is a permutation"
    QCheck2.Gen.(pair (int_range 0 50) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Tutil.rng_of_seed seed in
      let a = Array.init n (fun i -> i) in
      Prng.Sampler.shuffle rng a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let shuffle_moves_elements () =
  (* over many shuffles of 0..9, position 0 should see several values *)
  let rng = Prng.Xoshiro.create 6L in
  let seen = Hashtbl.create 10 in
  for _ = 1 to 100 do
    let a = Array.init 10 (fun i -> i) in
    Prng.Sampler.shuffle rng a;
    Hashtbl.replace seen a.(0) ()
  done;
  Alcotest.(check bool) "position 0 varied" true (Hashtbl.length seen > 4)

let invalid_args () =
  let rng = Prng.Xoshiro.create 1L in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "uniform" (fun () -> Prng.Sampler.uniform rng ~lo:2. ~hi:1.);
  expect_invalid "normal" (fun () -> Prng.Sampler.normal rng ~mean:0. ~std:(-1.));
  expect_invalid "gamma shape" (fun () -> Prng.Sampler.gamma rng ~shape:0. ~scale:1.);
  expect_invalid "gamma scale" (fun () -> Prng.Sampler.gamma rng ~shape:1. ~scale:0.);
  expect_invalid "beta" (fun () -> Prng.Sampler.beta rng ~alpha:0. ~beta:1.);
  ignore (check_close_abs, ())

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "prng"
    [
      ( "splitmix",
        [
          tc "deterministic" `Quick splitmix_deterministic;
          tc "seed sensitivity" `Quick splitmix_seed_sensitivity;
          tc "split differs" `Quick splitmix_split_differs;
          tc "float range" `Quick splitmix_float_range;
        ] );
      ( "xoshiro",
        [
          tc "deterministic" `Quick xoshiro_deterministic;
          tc "jump disjoint" `Quick xoshiro_jump_disjoint;
          tc "split" `Quick xoshiro_split_parent_advances;
          tc "int bounds" `Quick xoshiro_int_bounds;
          tc "int rejects non-positive" `Quick xoshiro_int_rejects_nonpositive;
          tc "int uniformity" `Quick xoshiro_int_uniformity;
          tc "float pos" `Quick xoshiro_float_pos_never_zero;
          tc "golden streams" `Quick xoshiro_golden;
        ] );
      ( "samplers",
        [
          tc "uniform moments" `Quick uniform_moments;
          tc "normal moments" `Quick normal_moments;
          tc "gamma moments" `Quick gamma_moments;
          tc "beta moments" `Quick beta_moments;
          tc "beta support" `Quick beta_in_unit_interval;
          tc "gamma_mean_cv moments" `Quick gamma_mean_cv_moments;
          tc "gamma_mean_cv degenerate" `Quick gamma_mean_cv_degenerate;
          shuffle_is_permutation;
          tc "shuffle moves" `Quick shuffle_moves_elements;
          tc "invalid args" `Quick invalid_args;
        ] );
    ]
