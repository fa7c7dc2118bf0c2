let uniform ?points ~lo ~hi () =
  if not (lo < hi) then invalid_arg "Family.uniform: requires lo < hi";
  Dist.of_fn ?points ~lo ~hi (fun _ -> 1.)

let beta ?points ~alpha ~beta () =
  if alpha <= 1. || beta <= 1. then
    invalid_arg "Family.beta: requires alpha > 1 and beta > 1";
  Dist.of_fn ?points ~lo:0. ~hi:1. (Numerics.Special.beta_pdf ~alpha ~beta)

let beta_scaled ?points ~alpha ~beta:b ~lo ~hi () =
  if not (lo < hi) then invalid_arg "Family.beta_scaled: requires lo < hi";
  let d = beta ?points ~alpha ~beta:b () in
  Dist.shift (Dist.scale d (hi -. lo)) lo

let normal ?points ~mean ~std () =
  if std < 0. then invalid_arg "Family.normal: std must be non-negative";
  if std = 0. then Dist.const mean
  else
    Dist.of_fn ?points ~lo:(mean -. (8. *. std)) ~hi:(mean +. (8. *. std)) (fun x ->
        Numerics.Special.normal_pdf ((x -. mean) /. std) /. std)

let uncertain ?points ?(alpha = 2.) ?(beta = 5.) ~ul w =
  if ul < 1. then invalid_arg "Family.uncertain: uncertainty level must be >= 1";
  if w < 0. then invalid_arg "Family.uncertain: weight must be non-negative";
  if w = 0. || ul = 1. then Dist.const w
  else beta_scaled ?points ~alpha ~beta ~lo:w ~hi:(w *. ul) ()

let mixture ?(points = Dist.default_points) weighted =
  if weighted = [] then invalid_arg "Family.mixture: empty mixture";
  List.iter
    (fun (w, d) ->
      if w <= 0. then invalid_arg "Family.mixture: weights must be positive";
      if Dist.is_const d then invalid_arg "Family.mixture: constant component")
    weighted;
  let lo = List.fold_left (fun acc (_, d) -> Float.min acc (fst (Dist.support d))) infinity weighted in
  let hi =
    List.fold_left (fun acc (_, d) -> Float.max acc (snd (Dist.support d))) neg_infinity weighted
  in
  let total_w = List.fold_left (fun acc (w, _) -> acc +. w) 0. weighted in
  Dist.of_fn ~points ~lo ~hi (fun x ->
      List.fold_left (fun acc (w, d) -> acc +. (w /. total_w *. Dist.pdf_at d x)) 0. weighted)

let special ?(points = Dist.default_points) () =
  (* Three well-separated skewed humps on [0, 40]: strongly non-normal,
     with the oscillating shape Fig. 7 sketches. *)
  let hump ~alpha ~beta ~lo ~hi = beta_scaled ~points:256 ~alpha ~beta ~lo ~hi () in
  mixture ~points
    [ (0.35, hump ~alpha:2. ~beta:5. ~lo:0. ~hi:12.);
      (0.40, hump ~alpha:5. ~beta:2. ~lo:8. ~hi:28.);
      (0.25, hump ~alpha:3. ~beta:3. ~lo:25. ~hi:40.) ]
