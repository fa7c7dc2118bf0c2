type rel_prob = {
  per_case : float list;
  mean : float;
  std : float;
}

(* metric indices in Robustness.labels order *)
let idx_makespan = 0
let idx_mk_std = 1
let idx_rel_prob = 7

let rel_prob_vs_std cases =
  if cases = [] then invalid_arg "Intext.rel_prob_vs_std: no results";
  let per_case =
    List.filter_map
      (fun rows ->
        let xs =
          Array.map
            (fun row ->
              (* R(γ) divided by E(M), inverted (reciprocal) so smaller is
                 better. For a near-normal makespan R ≈ 2Φ(E(M)(γ−1)/σ)−1,
                 so E(M)/R is linear in σ_M — the §VII claim. *)
              row.(idx_makespan) /. Float.max 1e-12 row.(idx_rel_prob))
            rows
        in
        let ys = Array.map (fun row -> row.(idx_mk_std)) rows in
        let r = Stats.Correlation.pearson xs ys in
        if Float.is_nan r then None else Some r)
      cases
  in
  (match per_case with [] -> invalid_arg "Intext.rel_prob_vs_std: all degenerate" | _ -> ());
  let a = Array.of_list per_case in
  {
    per_case;
    mean = Stats.Descriptive.mean a;
    std = sqrt (Stats.Descriptive.population_variance a);
  }

let render_rel_prob t =
  Printf.sprintf
    "In-text (§VII) — Pearson of the makespan-divided relative probabilistic\n\
     metric (inverted: E(M)/R) against σ_M over %d cases:\n\
     mean = %.4f, std = %.4f   (paper: 0.998 ± 0.009)\n"
    (List.length t.per_case) t.mean t.std

type method_row = {
  case_id : string;
  method_name : string;
  ks : float;
  cm : float;
}

let default_cases () =
  [ Case.make ~kind:Case.Cholesky ~n_target:10 ~n_procs:3 ~ul:1.1 ();
    Case.make ~kind:Case.Random_graph ~n_target:30 ~n_procs:8 ~ul:1.1 ();
    Case.make ~kind:Case.Gauss_elim ~n_target:103 ~n_procs:16 ~ul:1.1 () ]

let methods_vs_mc ?pool ?(scale = Scale.of_env ()) ?cases () =
  Obs.Progress.phase "intext:methods" @@ fun () ->
  let cases = match cases with Some c -> c | None -> default_cases () in
  List.concat_map
    (fun case ->
      let { Case.graph; platform; model; _ } = Case.instantiate case in
      let rng = Prng.Xoshiro.create (Int64.add case.Case.seed 0xC0FFEEL) in
      let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs:case.Case.n_procs in
      let mc_count = Scale.realizations scale 100000 in
      let emp =
        Makespan.Montecarlo.run ?pool ~rng ~count:mc_count sched platform model
      in
      let engine = Makespan.Engine.create ~graph ~platform ~model in
      List.map
        (fun backend ->
          let d = Makespan.Engine.eval ~backend engine sched in
          {
            case_id = case.Case.id;
            method_name = Makespan.Engine.backend_name backend;
            ks = Stats.Distance.ks (Analytic d) (Sampled emp);
            cm = Stats.Distance.cm_area (Analytic d) (Sampled emp);
          })
        Makespan.Engine.analytic_backends)
    cases

let render_methods rows =
  Render.table
    ~title:
      "In-text (§V) — analytic evaluation methods vs Monte Carlo\n\
       (paper shape: classical, Dodin and Spelde all close to the realizations)"
    ~headers:[ "case"; "method"; "KS"; "CM" ]
    ~rows:
      (List.map
         (fun r -> [ r.case_id; r.method_name; Render.cell_sci r.ks; Render.cell_sci r.cm ])
         rows)
