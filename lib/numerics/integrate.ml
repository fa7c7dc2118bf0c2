(* Quadrature over pre-sampled uniform grids. The loops use unsafe
   accesses — indices are bounded by the length checks on entry. *)

let trapezoid_sampled ~dx ys =
  let n = Array.length ys in
  if n < 2 then invalid_arg "Integrate.trapezoid_sampled: need >= 2 samples";
  let s = ref ((ys.(0) +. ys.(n - 1)) /. 2.) in
  for i = 1 to n - 2 do
    s := !s +. Array.unsafe_get ys i
  done;
  !s *. dx

let simpson_sampled ~dx ys =
  let n = Array.length ys in
  if n < 2 then invalid_arg "Integrate.simpson_sampled: need >= 2 samples";
  if n = 2 then (ys.(0) +. ys.(1)) /. 2. *. dx
  else begin
    (* Simpson needs an even number of intervals; with an odd interval
       count, integrate the last interval by trapezoid. *)
    let intervals = n - 1 in
    let simpson_intervals = if intervals mod 2 = 0 then intervals else intervals - 1 in
    let s = ref (ys.(0) +. ys.(simpson_intervals)) in
    for i = 1 to simpson_intervals - 1 do
      let w = if i mod 2 = 1 then 4. else 2. in
      s := !s +. (w *. Array.unsafe_get ys i)
    done;
    let main = !s *. dx /. 3. in
    let tail =
      if simpson_intervals = intervals then 0.
      else (ys.(n - 2) +. ys.(n - 1)) /. 2. *. dx
    in
    main +. tail
  end

let simpson ~f ~a ~b ~n =
  if n <= 0 then invalid_arg "Integrate.simpson: n must be positive";
  let n = if n mod 2 = 0 then n else n + 1 in
  let dx = (b -. a) /. float_of_int n in
  let ys = Array.init (n + 1) (fun i -> f (a +. (float_of_int i *. dx))) in
  simpson_sampled ~dx ys
