(* Makespan-distribution suites: Monte Carlo, classical independence
   method, Spelde, Dodin, and their mutual agreement. *)

let check_close = Tutil.check_close

let model11 = Workloads.Stochastify.make ~ul:1.1 ()

(* all tasks weight [w] on every proc, free homogeneous network *)
let flat_platform ~n_tasks ~n_procs ~w ~tau =
  let off v = Array.init n_procs (fun i -> Array.init n_procs (fun j -> if i = j then 0. else v)) in
  Platform.make ~etc:(Array.make_matrix n_tasks n_procs w) ~tau:(off tau) ~latency:(off 0.)

let chain_schedule n =
  let g = Workloads.Classic.chain ~n ~volume:0. () in
  let s =
    Sched.Schedule.make ~graph:g ~n_procs:1 ~proc_of:(Array.make n 0)
      ~order:[| Array.init n Fun.id |]
  in
  s

(* --- Classical method on exactly-solvable cases --- *)

let classic_chain_is_sum () =
  (* a 1-proc chain: makespan = sum of n independent perturbed weights *)
  let n = 10 and w = 20. in
  let s = chain_schedule n in
  let p = flat_platform ~n_tasks:n ~n_procs:1 ~w ~tau:0. in
  let d = Tutil.eval s p model11 in
  let one = Workloads.Stochastify.dist model11 w in
  let mean1 = Distribution.Dist.mean one and var1 = Distribution.Dist.variance one in
  check_close ~eps:1e-3 "mean" (float_of_int n *. mean1) (Distribution.Dist.mean d);
  check_close ~eps:3e-2 "std" (sqrt (float_of_int n *. var1)) (Distribution.Dist.std d)

let classic_parallel_is_max () =
  (* n independent tasks on n procs + free join: makespan = max of iid *)
  let n = 6 and w = 20. in
  let g = Workloads.Classic.join ~n ~volume:0. () in
  let p = flat_platform ~n_tasks:(n + 1) ~n_procs:n ~w ~tau:0. in
  let proc_of = Array.init (n + 1) (fun t -> if t = n then 0 else t) in
  let order =
    Array.init n (fun q -> if q = 0 then [| 0; n |] else [| q |])
  in
  let s = Sched.Schedule.make ~graph:g ~n_procs:n ~proc_of ~order in
  let d = Tutil.eval s p model11 in
  let one = Workloads.Stochastify.dist model11 w in
  let want =
    Distribution.Dist.add
      (Distribution.Dist.max_list (List.init n (fun _ -> one)))
      one
  in
  check_close ~eps:2e-3 "mean" (Distribution.Dist.mean want) (Distribution.Dist.mean d);
  check_close ~eps:5e-2 "std" (Distribution.Dist.std want) (Distribution.Dist.std d)

let classic_deterministic_model_gives_const () =
  let s = chain_schedule 5 in
  let p = flat_platform ~n_tasks:5 ~n_procs:1 ~w:10. ~tau:0. in
  let d = Tutil.eval s p Workloads.Stochastify.deterministic in
  Alcotest.(check bool) "const" true (Distribution.Dist.is_const d);
  check_close "value" 50. (Distribution.Dist.mean d)

let classic_support_bounds =
  Tutil.qcheck ~count:30 "classical support within [det, det·UL]"
    Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let ul = 1.2 in
      let model = Workloads.Stochastify.make ~ul () in
      let det = (Sched.Simulator.deterministic sched platform).Sched.Simulator.makespan in
      let d = Tutil.eval sched platform model in
      let lo, hi = Distribution.Dist.support d in
      (* trimming may cut 1e-9 tails; allow a whisker *)
      lo >= det -. (0.01 *. det) && hi <= (det *. ul) +. (0.01 *. det))

(* --- Monte Carlo --- *)

let montecarlo_deterministic_given_seed () =
  let g = Workloads.Cholesky.generate ~tiles:3 () in
  let rng = Tutil.rng_of_seed 3 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:10 ~n_procs:2 () in
  let s = Sched.Random_sched.generate ~rng ~graph:g ~n_procs:2 in
  let run seed =
    Makespan.Montecarlo.realizations ~rng:(Tutil.rng_of_seed seed) ~count:500 s p model11
  in
  Alcotest.(check bool) "same seed, same samples" true (run 42 = run 42);
  Alcotest.(check bool) "different seed differs" true (run 42 <> run 43)

let montecarlo_domain_count_irrelevant () =
  let g = Workloads.Cholesky.generate ~tiles:3 () in
  let rng = Tutil.rng_of_seed 4 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:10 ~n_procs:2 () in
  let s = Sched.Random_sched.generate ~rng ~graph:g ~n_procs:2 in
  let run domains =
    let pool = Parallel.Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () ->
        Makespan.Montecarlo.realizations ~pool ~chunk_size:64 ~rng:(Tutil.rng_of_seed 7)
          ~count:1000 s p model11)
  in
  Alcotest.(check bool) "1 domain = 4 domains" true (run 1 = run 4)

let montecarlo_matches_classic_moments () =
  let g = Workloads.Cholesky.generate ~tiles:3 () in
  let rng = Tutil.rng_of_seed 5 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:10 ~n_procs:3 () in
  let s = Sched.Heft.schedule g p in
  let d = Tutil.eval s p model11 in
  let e = Makespan.Montecarlo.run ~rng ~count:30000 s p model11 in
  check_close ~eps:2e-3 "mean" (Distribution.Empirical.mean e) (Distribution.Dist.mean d);
  check_close ~eps:5e-2 "std" (Distribution.Empirical.std e) (Distribution.Dist.std d)

let montecarlo_ks_small_on_tree () =
  (* an out-tree has independent path distributions: the independence
     assumption is exact, so KS must shrink with sample size *)
  let g = Workloads.Classic.out_tree ~depth:2 ~arity:2 ~volume:1. () in
  let rng = Tutil.rng_of_seed 6 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks g) ~n_procs:7 () in
  (* one task per proc: no disjunctive coupling *)
  let s =
    Sched.Schedule.make ~graph:g ~n_procs:7
      ~proc_of:(Array.init 7 Fun.id)
      ~order:(Array.init 7 (fun q -> [| q |]))
  in
  let d = Tutil.eval s p model11 in
  let e = Makespan.Montecarlo.run ~rng ~count:20000 s p model11 in
  let ks = Stats.Distance.ks (Analytic d) (Sampled e) in
  Alcotest.(check bool) "small ks" true (ks < 0.03)

let antithetic_preserves_distribution () =
  (* the marginal distribution must be unchanged: moments match plain MC *)
  let g = Workloads.Cholesky.generate ~tiles:3 () in
  let rng = Tutil.rng_of_seed 22 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:10 ~n_procs:3 () in
  let s = Sched.Random_sched.generate ~rng ~graph:g ~n_procs:3 in
  let plain = Makespan.Montecarlo.run ~rng:(Tutil.rng_of_seed 1) ~count:20000 s p model11 in
  let anti =
    Makespan.Montecarlo.run ~antithetic:true ~rng:(Tutil.rng_of_seed 2) ~count:20000 s p
      model11
  in
  check_close ~eps:1e-3 "means agree" (Distribution.Empirical.mean plain)
    (Distribution.Empirical.mean anti);
  check_close ~eps:5e-2 "stds agree" (Distribution.Empirical.std plain)
    (Distribution.Empirical.std anti)

let antithetic_reduces_estimator_variance () =
  (* variance of the mean estimate across many small runs shrinks *)
  let p = flat_platform ~n_tasks:6 ~n_procs:1 ~w:20. ~tau:0. in
  let s = chain_schedule 6 in
  let means antithetic seed0 =
    Array.init 40 (fun k ->
        let rng = Tutil.rng_of_seed (seed0 + k) in
        let xs =
          Makespan.Montecarlo.realizations ~antithetic ~rng ~count:64 s p model11
        in
        Numerics.Array_ops.sum xs /. float_of_int (Array.length xs))
  in
  let var a = Stats.Descriptive.variance a in
  let v_plain = var (means false 1000) in
  let v_anti = var (means true 2000) in
  Alcotest.(check bool) "variance reduced" true (v_anti < 0.7 *. v_plain)

let quantile_sampling_matches_support =
  Tutil.qcheck ~count:50 "quantile sampling respects bounds and monotonicity"
    QCheck2.Gen.(pair (float_range 0.05 0.95) (float_range 0.05 0.95))
    (fun (u1, u2) ->
      let model = Workloads.Stochastify.make ~ul:1.4 () in
      let w = 10. in
      let x1 = Workloads.Stochastify.sample_quantile model ~u:u1 w in
      let x2 = Workloads.Stochastify.sample_quantile model ~u:u2 w in
      x1 >= w && x1 <= w *. 1.4 && (u1 <= u2) = (x1 <= x2))

(* golden/montecarlo__*.txt hold the %h bits of 2 000 realizations of
   each case's HEFT schedule, written at commit a16899b, when every
   realization went through closures and an edge Hashtbl. They must
   replay on pools of 1 and 2 domains. random30's file also holds 96
   antithetic realizations in chunks of 32: a quantile draw inverts the
   Beta CDF and costs about 100 plain draws. *)
let mc_golden_cases =
  let module C = Experiments.Case in
  [
    ("random30", C.make ~kind:C.Random_graph ~n_target:30 ~n_procs:8 ~ul:1.1 ~seed:1L ());
    ("chol10", C.make ~kind:C.Cholesky ~n_target:10 ~n_procs:3 ~ul:1.1 ~seed:1L ());
    ("ge104", C.make ~kind:C.Gauss_elim ~n_target:104 ~n_procs:16 ~ul:1.1 ~seed:1L ());
  ]

let render_mc_golden pool cname case =
  let inst = Experiments.Case.instantiate case in
  let platform = inst.Experiments.Case.platform in
  let sched = Sched.Heft.schedule inst.Experiments.Case.graph platform in
  let section antithetic =
    let count, chunk_size = if antithetic then (96, 32) else (2000, 256) in
    let xs =
      Makespan.Montecarlo.realizations ~pool ~chunk_size ~antithetic
        ~rng:(Prng.Xoshiro.create 11L) ~count sched platform inst.Experiments.Case.model
    in
    (if antithetic then "# antithetic\n" else "# plain\n")
    ^ String.concat "" (Array.to_list (Array.map (Printf.sprintf "%h\n") xs))
  in
  section false ^ if cname = "random30" then section true else ""

let montecarlo_golden () =
  List.iter
    (fun domains ->
      Tutil.with_pool domains (fun pool ->
          List.iter
            (fun (cname, case) ->
              let label = "montecarlo__" ^ cname in
              let expected =
                Tutil.read_file (Filename.concat (Tutil.golden_dir ()) (label ^ ".txt"))
              in
              Alcotest.(check string)
                (Printf.sprintf "%s on %d domains" label domains)
                expected (render_mc_golden pool cname case))
            mc_golden_cases))
    [ 1; 2 ]

(* --- Spelde --- *)

let spelde_chain_exact_moments () =
  let n = 10 and w = 20. in
  let s = chain_schedule n in
  let p = flat_platform ~n_tasks:n ~n_procs:1 ~w ~tau:0. in
  let m = Tutil.Reference.spelde_moments s p model11 in
  check_close ~eps:1e-9 "mean"
    (float_of_int n *. Workloads.Stochastify.mean model11 w)
    m.Distribution.Normal_pair.mean;
  check_close ~eps:1e-9 "std"
    (sqrt (float_of_int n) *. Workloads.Stochastify.std model11 w)
    m.Distribution.Normal_pair.std

let spelde_close_to_classic =
  Tutil.qcheck ~count:20 "Spelde moments track classical moments"
    Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let m = Tutil.Reference.spelde_moments sched platform model11 in
      let d = Tutil.eval sched platform model11 in
      match Distribution.Dist.is_const d with
      | true -> true
      | false ->
        Float.abs (m.Distribution.Normal_pair.mean -. Distribution.Dist.mean d)
        < 0.02 *. Distribution.Dist.mean d)

(* --- Dodin --- *)

let dodin_chain_no_duplication () =
  let s = chain_schedule 6 in
  let p = flat_platform ~n_tasks:6 ~n_procs:1 ~w:10. ~tau:0. in
  let o = Tutil.Reference.dodin s p model11 in
  Alcotest.(check int) "chain is SP" 0 o.Makespan.Dodin.duplications

let dodin_matches_classic_on_sp () =
  (* fork-join on one processor is series–parallel after serialization *)
  let s = chain_schedule 8 in
  let p = flat_platform ~n_tasks:8 ~n_procs:1 ~w:10. ~tau:0. in
  let a = Tutil.eval ~backend:Makespan.Engine.Dodin s p model11 in
  let b = Tutil.eval s p model11 in
  check_close ~eps:1e-3 "mean" (Distribution.Dist.mean b) (Distribution.Dist.mean a);
  check_close ~eps:2e-2 "std" (Distribution.Dist.std b) (Distribution.Dist.std a)

let dodin_duplications_iff_not_sp =
  Tutil.qcheck ~count:30 "Dodin duplicates iff the disjunctive network is not SP"
    Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let o = Tutil.Reference.dodin sched platform model11 in
      let dgraph = Sched.Disjunctive.graph_of sched in
      let network =
        Dag.Series_parallel.of_task_dag dgraph.Sched.Disjunctive.graph
          ~task:(fun _ -> ())
          ~edge:(fun _ _ -> ())
          ~zero:()
      in
      Dag.Series_parallel.is_series_parallel network
      = (o.Makespan.Dodin.duplications = 0))

let dodin_close_to_classic_general =
  Tutil.qcheck ~count:15 "Dodin ≈ classical on random schedules"
    Tutil.random_scheduled_gen
    (fun (_, platform, sched) ->
      let a = Tutil.eval ~backend:Makespan.Engine.Dodin sched platform model11 in
      let b = Tutil.eval sched platform model11 in
      match (Distribution.Dist.is_const a, Distribution.Dist.is_const b) with
      | true, true -> true
      | false, false ->
        Float.abs (Distribution.Dist.mean a -. Distribution.Dist.mean b)
        < 0.03 *. Distribution.Dist.mean b
      | _ -> false)

(* --- Bounds --- *)

let bounds_bracket_montecarlo () =
  (* Kleindorfer-style bracket: MC lies between comonotone and
     independent sweeps in the CDF sense *)
  let g = Workloads.Cholesky.generate ~tiles:3 () in
  let rng = Tutil.rng_of_seed 14 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:10 ~n_procs:3 () in
  let s = Sched.Random_sched.generate ~rng ~graph:g ~n_procs:3 in
  let b = Makespan.Bounds.run s p model11 in
  let e = Makespan.Montecarlo.run ~rng ~count:20000 s p model11 in
  Alcotest.(check bool) "mc enclosed" true
    (Makespan.Bounds.enclose b (Distribution.Empirical.to_dist ~points:128 e));
  (* and the bracket ordering on means *)
  Alcotest.(check bool) "lower mean <= upper mean" true
    (Distribution.Dist.mean b.Makespan.Bounds.lower
    <= Distribution.Dist.mean b.Makespan.Bounds.upper +. 1e-6)

let bounds_upper_is_classical () =
  let s = chain_schedule 5 in
  let p = flat_platform ~n_tasks:5 ~n_procs:1 ~w:10. ~tau:0. in
  let b = Makespan.Bounds.run s p model11 in
  let c = Tutil.eval s p model11 in
  check_close ~eps:1e-6 "same mean" (Distribution.Dist.mean c)
    (Distribution.Dist.mean b.Makespan.Bounds.upper)

let bounds_coincide_on_chain () =
  (* a chain has no maxima: both bounds equal the exact sum *)
  let s = chain_schedule 5 in
  let p = flat_platform ~n_tasks:5 ~n_procs:1 ~w:10. ~tau:0. in
  let b = Makespan.Bounds.run s p model11 in
  check_close ~eps:1e-3 "means equal"
    (Distribution.Dist.mean b.Makespan.Bounds.lower)
    (Distribution.Dist.mean b.Makespan.Bounds.upper);
  check_close ~eps:2e-2 "stds equal"
    (Distribution.Dist.std b.Makespan.Bounds.lower)
    (Distribution.Dist.std b.Makespan.Bounds.upper)

(* --- Analytic backends through the engine --- *)

let eval_dispatches () =
  let g = Workloads.Cholesky.generate ~tiles:3 () in
  let rng = Tutil.rng_of_seed 8 in
  let p = Platform.Gen.uniform_minval ~rng ~n_tasks:10 ~n_procs:2 () in
  let s = Sched.Heft.schedule g p in
  List.iter
    (fun backend ->
      let d = Tutil.eval ~backend s p model11 in
      Alcotest.(check bool)
        (Makespan.Engine.backend_name backend ^ " positive mean")
        true
        (Distribution.Dist.mean d > 0.))
    Makespan.Engine.analytic_backends

let eval_method_names () =
  Alcotest.(check (list string)) "names" [ "classical"; "dodin"; "spelde" ]
    (List.map Makespan.Engine.backend_name Makespan.Engine.analytic_backends)

(* the §V comparison: every analytic backend against Monte Carlo *)
let compare_methods_reports_all () =
  let case =
    Experiments.Case.make ~kind:Experiments.Case.Cholesky ~n_target:10 ~n_procs:2 ~ul:1.1 ()
  in
  let rows =
    Experiments.Intext.methods_vs_mc ~scale:Experiments.Scale.smoke ~cases:[ case ] ()
  in
  Alcotest.(check (list string)) "one row per backend" [ "classical"; "dodin"; "spelde" ]
    (List.map (fun r -> r.Experiments.Intext.method_name) rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "ks in [0,1]" true
        (r.Experiments.Intext.ks >= 0. && r.Experiments.Intext.ks <= 1.);
      Alcotest.(check bool) "cm >= 0" true (r.Experiments.Intext.cm >= 0.))
    rows

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "makespan"
    [
      ( "classical",
        [
          tc "chain = sum" `Quick classic_chain_is_sum;
          tc "parallel = max" `Quick classic_parallel_is_max;
          tc "deterministic const" `Quick classic_deterministic_model_gives_const;
          classic_support_bounds;
        ] );
      ( "montecarlo",
        [
          tc "seeded determinism" `Quick montecarlo_deterministic_given_seed;
          tc "domain independence" `Quick montecarlo_domain_count_irrelevant;
          tc "moments vs classic" `Quick montecarlo_matches_classic_moments;
          tc "tree ks small" `Quick montecarlo_ks_small_on_tree;
          tc "antithetic marginals" `Quick antithetic_preserves_distribution;
          tc "antithetic variance" `Quick antithetic_reduces_estimator_variance;
          quantile_sampling_matches_support;
          tc "golden realizations" `Quick montecarlo_golden;
        ] );
      ( "spelde",
        [ tc "chain exact" `Quick spelde_chain_exact_moments; spelde_close_to_classic ] );
      ( "dodin",
        [
          tc "chain SP" `Quick dodin_chain_no_duplication;
          tc "matches classic on SP" `Quick dodin_matches_classic_on_sp;
          dodin_duplications_iff_not_sp;
          dodin_close_to_classic_general;
        ] );
      ( "bounds",
        [
          tc "bracket montecarlo" `Quick bounds_bracket_montecarlo;
          tc "upper = classical" `Quick bounds_upper_is_classical;
          tc "chain coincide" `Quick bounds_coincide_on_chain;
        ] );
      ( "eval",
        [
          tc "dispatch" `Quick eval_dispatches;
          tc "names" `Quick eval_method_names;
          tc "compare" `Quick compare_methods_reports_all;
        ] );
    ]
