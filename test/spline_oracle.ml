(* Frozen oracle: the OCaml spline that Numerics ran before its scans
   moved to C (lib/numerics/density_stubs.c), copied verbatim in its
   arithmetic: the natural-spline fit, the segment search, the cursor
   walk and the batch scan [sample_into]. Self-contained: its splines are
   its own, fit by the same code as the library's. The bitwise tests in
   test_numerics.ml hold Spline.sample_into and Spline.sample_mixture_into
   to it. Do not edit the arithmetic. *)

type t = {
  n : int; (* knot count: the arrays below may be longer (caller buffers) *)
  xs : float array;
  ys : float array;
  y2 : float array; (* second derivatives at the knots *)
}

let fit_into ~xs ~ys ~n ~y2 ~u =
  if n < 2 then invalid_arg "Spline.fit: need at least 2 knots";
  if Array.length xs < n || Array.length ys < n || Array.length y2 < n || Array.length u < n
  then invalid_arg "Spline.fit_into: buffer shorter than n";
  for i = 1 to n - 1 do
    if Array.unsafe_get xs i <= Array.unsafe_get xs (i - 1) then
      invalid_arg "Spline.fit: knots must be strictly increasing"
  done;
  (* Tridiagonal solve for the natural spline second derivatives
     (Numerical Recipes §3.3); y2 and u start from the natural boundary
     zeros whatever the buffers held. *)
  Array.unsafe_set y2 0 0.;
  Array.unsafe_set u 0 0.;
  Array.unsafe_set y2 (n - 1) 0.;
  for i = 1 to n - 2 do
    let x_lo = Array.unsafe_get xs (i - 1)
    and x_mid = Array.unsafe_get xs i
    and x_hi = Array.unsafe_get xs (i + 1) in
    let sig_ = (x_mid -. x_lo) /. (x_hi -. x_lo) in
    let p = (sig_ *. Array.unsafe_get y2 (i - 1)) +. 2. in
    Array.unsafe_set y2 i ((sig_ -. 1.) /. p);
    let slope_hi = (Array.unsafe_get ys (i + 1) -. Array.unsafe_get ys i) /. (x_hi -. x_mid) in
    let slope_lo = (Array.unsafe_get ys i -. Array.unsafe_get ys (i - 1)) /. (x_mid -. x_lo) in
    Array.unsafe_set u i
      ((((6. *. (slope_hi -. slope_lo)) /. (x_hi -. x_lo)) -. (sig_ *. Array.unsafe_get u (i - 1)))
      /. p)
  done;
  for i = n - 2 downto 1 do
    Array.unsafe_set y2 i
      ((Array.unsafe_get y2 i *. Array.unsafe_get y2 (i + 1)) +. Array.unsafe_get u i)
  done;
  { n; xs; ys; y2 }

let fit ~xs ~ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Spline.fit: xs/ys length mismatch";
  fit_into ~xs ~ys ~n ~y2:(Array.make n 0.) ~u:(Array.make n 0.)

let segment t x =
  (* binary search for the knot interval containing x *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get t.xs mid > x then hi := mid else lo := mid
  done;
  !lo

(* Linear advance from segment [s] for a query at or past [xs.(s)]: the
   largest [i] with [xs.(i) <= x], clamped to [n − 2]. *)
let[@inline] advance t s x =
  let xs = t.xs and last = t.n - 2 in
  let c = ref s in
  while !c < last && Array.unsafe_get xs (!c + 1) <= x do incr c done;
  !c

let[@inline] eval_at t i x =
  let xs = t.xs and ys = t.ys and y2 = t.y2 in
  let x_i = Array.unsafe_get xs i and x_i1 = Array.unsafe_get xs (i + 1) in
  let h = x_i1 -. x_i in
  let a = (x_i1 -. x) /. h in
  let b = (x -. x_i) /. h in
  (a *. Array.unsafe_get ys i)
  +. (b *. Array.unsafe_get ys (i + 1))
  +. ((((a *. a *. a) -. a) *. Array.unsafe_get y2 i)
     +. (((b *. b *. b) -. b) *. Array.unsafe_get y2 (i + 1)))
     *. h *. h /. 6.

let eval t x = eval_at t (segment t x) x

(* A cursor serves query sequences that are mostly increasing (grid
   resampling scans): it keeps the last segment index and advances
   linearly, falling back to the binary search only when a query
   regresses. The segment chosen is identical to [segment]'s — the
   largest [i] with [xs.(i) <= x], clamped to [n − 2] — so a walk
   returns bit-identical values to [eval], just without the O(log n)
   search per point. *)
type cursor = { mutable seg : int }

let cursor () = { seg = 0 }

let eval_walk t cur x =
  let s = cur.seg in
  let s = if x < Array.unsafe_get t.xs s then segment t x else advance t s x in
  cur.seg <- s;
  eval_at t s x

(* [eval_walk]'s scan over a whole uniform query grid, with the cursor
   and every intermediate kept in registers: no float is boxed. The
   abscissa counter is a float ([kf +. 1.] is exact below 2⁵³, so
   [x0 +. kf *. dx] is the same value as with [float_of_int k]); an
   int→float conversion per point would carry a false dependency on the
   previous point's result and serialize the loop. *)
let sample_into t ~x0 ~dx ~shift ~clip_lo ~clip_hi ~n out =
  if Array.length out < n then invalid_arg "Spline.sample_into: buffer shorter than n";
  let xs = t.xs in
  let seg = ref 0 in
  let kf = ref 0. in
  for k = 0 to n - 1 do
    let x = x0 +. (!kf *. dx) -. shift in
    kf := !kf +. 1.;
    if x < clip_lo || x > clip_hi then Array.unsafe_set out k 0.
    else begin
      let s = !seg in
      let s = if x < Array.unsafe_get xs s then segment t x else advance t s x in
      seg := s;
      let v = eval_at t s x in
      (* Float.max 0. v: NaN propagates, −0. becomes 0. *)
      Array.unsafe_set out k (if v > 0. || v <> v then v else 0.)
    end
  done

(* Dist.k_point_sum's atom accumulation as it ran before: the buffer
   zeroed, then for each atom of positive mass one [sample_into] scan at
   its shift and a cell loop adding mass × sample. *)
let sample_mixture_into t ~x0 ~dx ~shifts ~weights ~clip_lo ~clip_hi ~n out =
  Array.fill out 0 n 0.;
  let f = Array.make n 0. in
  for i = 0 to Array.length weights - 1 do
    let mi = weights.(i) in
    if mi > 0. then begin
      sample_into t ~x0 ~dx ~shift:shifts.(i) ~clip_lo ~clip_hi ~n f;
      for j = 0 to n - 1 do
        Array.unsafe_set out j (Array.unsafe_get out j +. (mi *. Array.unsafe_get f j))
      done
    end
  done
