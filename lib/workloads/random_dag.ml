let generate ~rng ~n ?(ccr = 0.1) ?(mu_task = 20.) ?(mean_tau = 1.0)
    ?max_out_degree () =
  if n <= 0 then invalid_arg "Random_dag.generate: n must be positive";
  if ccr < 0. then invalid_arg "Random_dag.generate: ccr must be >= 0";
  if mu_task <= 0. then invalid_arg "Random_dag.generate: mu_task must be positive";
  if mean_tau <= 0. then invalid_arg "Random_dag.generate: mean_tau must be positive";
  (match max_out_degree with
  | Some d when d < 1 -> invalid_arg "Random_dag.generate: max_out_degree must be >= 1"
  | _ -> ());
  let mean_volume = ccr *. mu_task /. mean_tau in
  let volume () =
    if mean_volume = 0. then 0. else Prng.Sampler.gamma_mean_cv rng ~mean:mean_volume ~cv:0.5
  in
  let edges = ref [] in
  (* Node i connects to [degree] distinct nodes among the i already
     created ones; degree is uniform in [1, available] (§V), optionally
     capped. Edges are oriented old → new so node 0 is an entry. *)
  for i = 1 to n - 1 do
    let available = i in
    let cap = match max_out_degree with Some d -> Int.min d available | None -> available in
    let degree = 1 + Prng.Xoshiro.int rng cap in
    let targets = Array.init available (fun j -> j) in
    Prng.Sampler.shuffle rng targets;
    for k = 0 to degree - 1 do
      edges := (targets.(k), i, volume ()) :: !edges
    done
  done;
  Dag.Graph.make ~n ~edges:!edges
