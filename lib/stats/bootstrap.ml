type interval = {
  estimate : float;
  lo : float;
  hi : float;
}

let check_params replicates confidence =
  if replicates < 10 then invalid_arg "Bootstrap: need at least 10 replicates";
  if confidence <= 0. || confidence >= 1. then
    invalid_arg "Bootstrap: confidence must be in (0,1)"

let percentile_interval ~confidence ~estimate values =
  match values with
  | [] -> { estimate; lo = Float.nan; hi = Float.nan }
  | _ ->
    let a = Array.of_list values in
    let tail = (1. -. confidence) /. 2. in
    {
      estimate;
      lo = Descriptive.quantile a tail;
      hi = Descriptive.quantile a (1. -. tail);
    }

let pearson_ci ~rng ?(replicates = 1000) ?(confidence = 0.95) xs ys =
  check_params replicates confidence;
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Bootstrap.pearson_ci: length mismatch";
  if n < 2 then invalid_arg "Bootstrap.pearson_ci: need at least 2 pairs";
  let rx = Array.make n 0. and ry = Array.make n 0. in
  let values = ref [] in
  for _ = 1 to replicates do
    for i = 0 to n - 1 do
      let j = Prng.Xoshiro.int rng n in
      rx.(i) <- xs.(j);
      ry.(i) <- ys.(j)
    done;
    let v = Correlation.pearson rx ry in
    if not (Float.is_nan v) then values := v :: !values
  done;
  percentile_interval ~confidence ~estimate:(Correlation.pearson xs ys) !values
