type t = {
  n : int; (* knot count: the arrays below may be longer (caller buffers) *)
  xs : float array;
  ys : float array;
  y2 : float array; (* second derivatives at the knots *)
}

(* The fit runs once per resampled grid, so its loops use unsafe
   accesses — every index is bounded by [n], validated on entry. *)

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

let eval t x =
  let i = segment t x in
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

(* The scans run in C (density_stubs.c), over the knot arrays of [t]:
   [fit_into] guarantees [n >= 2] and that each holds [n] cells, so only
   the output needs a check. *)
external sample_scan :
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (int[@untagged]) ->
  float array ->
  unit = "numerics_spline_sample_byte" "numerics_spline_sample"
[@@noalloc]

external mixture_scan :
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (int[@untagged]) ->
  float array ->
  unit = "numerics_spline_mixture_byte" "numerics_spline_mixture"
[@@noalloc]

let sample_into t ~x0 ~dx ~shift ~clip_lo ~clip_hi ~n out =
  if Array.length out < n then invalid_arg "Spline.sample_into: buffer shorter than n";
  sample_scan t.xs t.ys t.y2 t.n x0 dx shift clip_lo clip_hi n out

let sample_mixture_into t ~x0 ~dx ~shifts ~weights ~clip_lo ~clip_hi ~n out =
  let m = Array.length weights in
  if Array.length shifts <> m then
    invalid_arg "Spline.sample_mixture_into: shifts/weights length mismatch";
  if Array.length out < n then
    invalid_arg "Spline.sample_mixture_into: buffer shorter than n";
  mixture_scan t.xs t.ys t.y2 t.n x0 dx shifts weights m clip_lo clip_hi n out
