(* lib/search: objectives, the Pareto archive, the annealing loop's
   bitwise session contract, registry specs, and the engine's split
   fallback counters. *)

let model11 = Workloads.Stochastify.make ~ul:1.1 ()

let engine_of (graph, platform) =
  Makespan.Engine.create ~graph ~platform ~model:model11

let bits = Int64.bits_of_float

(* a small fixed case most tests share: random DAG, 4 procs, HEFT init *)
let fixture =
  lazy
    (let rng = Tutil.rng_of_seed 11 in
     let graph = Workloads.Random_dag.generate ~rng ~n:20 () in
     let n_tasks = Dag.Graph.n_tasks graph in
     let platform = Platform.Gen.uniform_minval ~rng ~n_tasks ~n_procs:4 () in
     let init =
       match Sched.Registry.parse "HEFT" with
       | Ok e -> e.Sched.Registry.run graph platform
       | Error e -> failwith e
     in
     (graph, platform, init))

(* --- objectives --- *)

let objective_name_round_trips () =
  List.iter
    (fun o ->
      match Search.Objective.parse (Search.Objective.name o) with
      | Ok o' ->
        Alcotest.(check bool) (Search.Objective.name o ^ " round-trips") true (o = o')
      | Error e -> Alcotest.failf "%s: %s" (Search.Objective.name o) e)
    Search.Objective.
      [ Expected_makespan; Makespan_std; Makespan_entropy; Avg_slack; Slack_std;
        Avg_lateness; Prob_absolute; Prob_relative; Blend 0.5 ];
  (match Search.Objective.parse "std" with
  | Ok Search.Objective.Makespan_std -> ()
  | _ -> Alcotest.fail "alias std");
  match Search.Objective.parse "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown objective accepted"

let objective_orientation () =
  let graph, platform, init = Lazy.force fixture in
  let engine = engine_of (graph, platform) in
  let ev = Makespan.Engine.analyze engine init in
  let m = Metrics.Robustness.of_engine engine init in
  let ctx = { Search.Objective.delta = 1.0; gamma = 1.05 } in
  Tutil.check_close "E(M)" m.Metrics.Robustness.expected_makespan
    (Search.Objective.value Search.Objective.Expected_makespan ctx ev);
  Tutil.check_close "sigma_m" m.Metrics.Robustness.makespan_std
    (Search.Objective.value Search.Objective.Makespan_std ctx ev);
  (* better-when-larger metrics come back negated *)
  Alcotest.(check bool)
    "slack negated" true
    (Search.Objective.value Search.Objective.Avg_slack ctx ev <= 0.);
  Tutil.check_close "blend = em + 0.5 sigma"
    (m.Metrics.Robustness.expected_makespan +. (0.5 *. m.Metrics.Robustness.makespan_std))
    (Search.Objective.value (Search.Objective.Blend 0.5) ctx ev)

(* --- Pareto archive --- *)

let dummy_sched =
  lazy
    (let _, _, init = Lazy.force fixture in
     init)

let mk_point (em, sigma) =
  {
    Search.Archive.step = 0;
    em;
    sigma;
    slack = 1.;
    objective = em;
    sched = Lazy.force dummy_sched;
  }

let archive_invariants =
  let open QCheck2.Gen in
  (* a small integer grid so exact ties and dominations both occur *)
  let pair_gen = map2 (fun a b -> (float_of_int a, float_of_int b)) (int_range 0 6) (int_range 0 6) in
  Tutil.qcheck ~count:200 "archive: frontier is the non-dominated set"
    (list_size (int_range 0 40) pair_gen)
    (fun coords ->
      let arch = Search.Archive.create ~axis:`Sigma in
      List.iter (fun c -> ignore (Search.Archive.offer arch (mk_point c))) coords;
      let pts = Search.Archive.points arch in
      (* sorted by increasing E(M) *)
      let rec sorted = function
        | a :: (b :: _ as rest) -> a.Search.Archive.em <= b.Search.Archive.em && sorted rest
        | _ -> true
      in
      if not (sorted pts) then QCheck2.Test.fail_report "not sorted by em";
      (* mutually non-dominated (strict domination on one coordinate,
         weak on the other) *)
      List.iter
        (fun p ->
          List.iter
            (fun q ->
              if
                p != q
                && p.Search.Archive.em <= q.Search.Archive.em
                && p.Search.Archive.sigma <= q.Search.Archive.sigma
                && (p.Search.Archive.em < q.Search.Archive.em
                   || p.Search.Archive.sigma < q.Search.Archive.sigma)
              then QCheck2.Test.fail_report "frontier point dominated")
            pts)
        pts;
      (* every offered point is weakly dominated by a survivor *)
      List.iter
        (fun (em, sigma) ->
          if
            not
              (List.exists
                 (fun q ->
                   q.Search.Archive.em <= em && q.Search.Archive.sigma <= sigma)
                 pts)
          then QCheck2.Test.fail_report "offered point escaped the frontier")
        coords;
      true)

let frontier_csv_schema () =
  Alcotest.(check string)
    "column order is the schema contract"
    "index,step,expected_makespan,makespan_std,slack_total,objective,schedule"
    Search.Archive.csv_header;
  let arch = Search.Archive.create ~axis:`Sigma in
  ignore (Search.Archive.offer arch (mk_point (3., 2.)));
  let csv = Search.Archive.to_csv arch in
  (match String.split_on_char '\n' csv with
  | header :: row :: _ ->
    Alcotest.(check string) "first line is the header" Search.Archive.csv_header header;
    Alcotest.(check bool) "row starts with index 0" true
      (String.length row > 2 && String.sub row 0 2 = "0,");
    Alcotest.(check bool)
      "schedule rendered on one line" true
      (not (String.contains row '\n'))
  | _ -> Alcotest.fail "csv missing rows");
  Alcotest.(check int) "one data row"
    2
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)))

(* The entropy objective at UL = 1 is -inf (a deterministic makespan
   has no differential entropy); the frontier must still be JSON. *)
let frontier_json_non_finite () =
  let arch = Search.Archive.create ~axis:`Sigma in
  ignore (Search.Archive.offer arch { (mk_point (3., 2.)) with objective = neg_infinity });
  match Obs.Json.parse (Search.Archive.to_json arch) with
  | Error e -> Alcotest.failf "frontier.json does not parse: %s" (Obs.Json.error_to_string e)
  | Ok doc -> (
    match Option.bind (Obs.Json.mem "points" doc) Obs.Json.list_ with
    | Some [ p ] ->
      Alcotest.(check bool) "objective is null" true
        (Obs.Json.mem "objective" p = Some Obs.Json.Null);
      Alcotest.(check (option (float 0.))) "finite fields keep their values" (Some 3.)
        (Option.bind (Obs.Json.mem "expected_makespan" p) Obs.Json.to_float)
    | _ -> Alcotest.fail "expected one point")

(* --- swap re-evaluation: the bitwise session contract --- *)

let eval_bits_equal name (a : Makespan.Engine.evaluation) (b : Makespan.Engine.evaluation)
    =
  let da, pa = Distribution.Dist.to_arrays a.Makespan.Engine.makespan in
  let db, pb = Distribution.Dist.to_arrays b.Makespan.Engine.makespan in
  if Array.length da <> Array.length db then Alcotest.failf "%s: grid sizes differ" name;
  Array.iteri
    (fun i x -> if bits x <> bits db.(i) then Alcotest.failf "%s: x[%d]" name i)
    da;
  Array.iteri
    (fun i p -> if bits p <> bits pb.(i) then Alcotest.failf "%s: pdf[%d]" name i)
    pa;
  if
    bits a.Makespan.Engine.slack.Sched.Slack.total
    <> bits b.Makespan.Engine.slack.Sched.Slack.total
  then Alcotest.failf "%s: slack totals differ" name

let swap_reevaluate_walk () =
  let rng = Tutil.rng_of_seed 42 in
  let graph = Workloads.Random_dag.generate ~rng ~n:14 () in
  let n_tasks = Dag.Graph.n_tasks graph in
  let platform = Platform.Gen.uniform_minval ~rng ~n_tasks ~n_procs:3 () in
  let engine = engine_of (graph, platform) in
  let sched = ref (Sched.Random_sched.generate ~rng ~graph ~n_procs:3) in
  let session = Makespan.Engine.start_session engine !sched in
  let swaps = ref 0 in
  for step = 1 to 60 do
    match Sched.Neighbor.random_swap ~rng !sched with
    | None -> ()
    | Some { Sched.Neighbor.a; b } ->
      incr swaps;
      let sched' = Sched.Schedule.swap !sched ~a ~b in
      (* probe, then verify the base schedule's bits still served *)
      let swap = Sched.Neighbor.Swap { a; b } in
      let probe = Makespan.Engine.reevaluate_any ~commit:false session swap in
      eval_bits_equal
        (Printf.sprintf "step %d probe" step)
        (Makespan.Engine.analyze engine sched')
        probe;
      eval_bits_equal
        (Printf.sprintf "step %d base intact" step)
        (Makespan.Engine.analyze engine !sched)
        (Makespan.Engine.session_evaluation session);
      (* commit every third feasible swap *)
      if !swaps mod 3 = 0 then begin
        let ev = Makespan.Engine.reevaluate_any session swap in
        sched := sched';
        eval_bits_equal (Printf.sprintf "step %d commit" step)
          (Makespan.Engine.analyze engine !sched)
          ev
      end
  done;
  Alcotest.(check bool) "walk exercised swaps" true (!swaps > 10)

let deadlocking_swap_leaves_session_intact () =
  let graph = Workloads.Classic.chain ~n:4 ~volume:1. () in
  let rng = Tutil.rng_of_seed 3 in
  let platform = Platform.Gen.uniform_minval ~rng ~n_tasks:4 ~n_procs:1 () in
  let engine = engine_of (graph, platform) in
  let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs:1 in
  let session = Makespan.Engine.start_session engine sched in
  (* a pending probe (the no-op reinsertion of the last task) that the
     raising swap below must drop *)
  ignore
    (Makespan.Engine.reevaluate_any ~commit:false session
       (Sched.Neighbor.Reassign
          (Sched.Neighbor.make ~at:3 ~task:3 ~to_:sched.Sched.Schedule.proc_of.(3) ())));
  let before = Makespan.Engine.stats engine in
  (* task 1 depends on task 0 and both sit on the single processor, so
     the exchange reverses a dependency *)
  Alcotest.(check bool) "apply_swap_opt rejects" true
    (Sched.Neighbor.apply_swap_opt sched { Sched.Neighbor.a = 0; b = 1 } = None);
  (try
     ignore (Makespan.Engine.reevaluate_any session (Sched.Neighbor.Swap { a = 0; b = 1 }));
     Alcotest.fail "deadlocking swap accepted"
   with Invalid_argument _ -> ());
  let after = Makespan.Engine.stats engine in
  Alcotest.(check int) "no re-evaluation counted" before.Makespan.Engine.reevals
    after.Makespan.Engine.reevals;
  eval_bits_equal "session still serves the base schedule"
    (Makespan.Engine.analyze engine sched)
    (Makespan.Engine.session_evaluation session);
  (* the move that raised leaves no probe to install *)
  (try
     Makespan.Engine.accept session;
     Alcotest.fail "accept installed a probe across a raising move"
   with Invalid_argument _ -> ());
  eval_bits_equal "session unchanged by the refused accept"
    (Makespan.Engine.analyze engine sched)
    (Makespan.Engine.session_evaluation session)

(* --- engine fallback counter split --- *)

let fallback_counters_split () =
  let graph, platform, init = Lazy.force fixture in
  let engine = engine_of (graph, platform) in
  let session = Makespan.Engine.start_session engine init in
  let rng = Tutil.rng_of_seed 19 in
  let m = Sched.Neighbor.random ~rng init in
  ignore
    (Makespan.Engine.reevaluate_any ~commit:false ~max_cone:0 session
       (Sched.Neighbor.Reassign m));
  let st = Makespan.Engine.stats engine in
  Alcotest.(check int) "cone overflow under full_cone" 1 st.Makespan.Engine.reeval_full_cone;
  Alcotest.(check int) "no backend fallback yet" 0 st.Makespan.Engine.reeval_full_backend;
  (* a non-incremental backend falls back regardless of cone size *)
  let dodin = Makespan.Engine.start_session ~backend:Makespan.Engine.Dodin engine init in
  let m2 = Sched.Neighbor.random ~rng init in
  ignore (Makespan.Engine.reevaluate_any ~commit:false dodin (Sched.Neighbor.Reassign m2));
  let st = Makespan.Engine.stats engine in
  Alcotest.(check int) "backend fallback under full_backend" 1
    st.Makespan.Engine.reeval_full_backend;
  Alcotest.(check int) "total is the sum of the split"
    (st.Makespan.Engine.reeval_full_cone + st.Makespan.Engine.reeval_full_backend)
    st.Makespan.Engine.reeval_full

(* --- the annealing loop --- *)

let small_config steps seed =
  { Search.Anneal.default with Search.Anneal.steps; seed = Int64.of_int seed }

let anneal_improves_and_stays_incremental () =
  let graph, platform, init = Lazy.force fixture in
  let engine = engine_of (graph, platform) in
  let outcome = Search.Anneal.run ~engine ~init (small_config 80 7) in
  Alcotest.(check bool) "objective never worsens" true
    (outcome.Search.Anneal.best_objective <= outcome.Search.Anneal.init_objective);
  Alcotest.(check bool) "frontier non-empty" true
    (Search.Archive.size outcome.Search.Anneal.frontier > 0);
  let frac = Search.Anneal.incremental_fraction outcome.Search.Anneal.stats in
  if frac < 0.8 then
    Alcotest.failf "incremental fraction %.3f below the 80%% bound" frac;
  Alcotest.(check int) "all steps ran" 80 outcome.Search.Anneal.stats.Search.Anneal.steps_done;
  (* one re-evaluation per probe, priority rebuilds included: an
     accepted move is installed, not replayed, and only the initial
     session is a full evaluation *)
  let st = outcome.Search.Anneal.stats in
  Alcotest.(check bool) "some session moves accepted" true
    (st.Search.Anneal.accepted > st.Search.Anneal.priority_moves);
  Alcotest.(check bool) "some priority moves probed" true (st.Search.Anneal.priority_moves > 0);
  Alcotest.(check int) "reevals = probes" st.Search.Anneal.probes st.Search.Anneal.reevals;
  Alcotest.(check int) "full evals = 1 + restarts"
    (1 + st.Search.Anneal.restarts_done)
    st.Search.Anneal.full_evals

let anneal_objective_matches_fresh_analyze () =
  let graph, platform, init = Lazy.force fixture in
  let engine = engine_of (graph, platform) in
  let outcome = Search.Anneal.run ~engine ~init (small_config 60 13) in
  let fresh = Makespan.Engine.analyze engine outcome.Search.Anneal.best in
  let recomputed =
    Search.Objective.value Search.Anneal.default.Search.Anneal.objective
      outcome.Search.Anneal.bounds fresh
  in
  if bits recomputed <> bits outcome.Search.Anneal.best_objective then
    Alcotest.failf "accepted objective %h <> fresh analyze %h"
      outcome.Search.Anneal.best_objective recomputed

let anneal_deterministic_frontier () =
  let graph, platform, init = Lazy.force fixture in
  let run () =
    let engine = engine_of (graph, platform) in
    let outcome = Search.Anneal.run ~engine ~init (small_config 60 5) in
    ( Search.Archive.to_csv outcome.Search.Anneal.frontier,
      outcome.Search.Anneal.best_objective )
  in
  let csv1, best1 = run () in
  let csv2, best2 = run () in
  Alcotest.(check string) "frontier CSV byte-identical under the same seed" csv1 csv2;
  Alcotest.(check bool) "best objective bitwise equal" true (bits best1 = bits best2);
  (* a different seed explores a different trajectory *)
  let engine = engine_of (graph, platform) in
  let other = Search.Anneal.run ~engine ~init (small_config 60 6) in
  Alcotest.(check bool) "distinct seed yields a distinct walk" true
    (Search.Archive.to_csv other.Search.Anneal.frontier <> csv1
    || bits other.Search.Anneal.best_objective <> bits best1)

let anneal_should_stop_interrupts () =
  let graph, platform, init = Lazy.force fixture in
  let engine = engine_of (graph, platform) in
  let calls = ref 0 in
  let outcome =
    Search.Anneal.run
      ~should_stop:(fun () ->
        incr calls;
        !calls > 10)
      ~engine ~init (small_config 500 1)
  in
  Alcotest.(check bool) "interrupted flagged" true outcome.Search.Anneal.interrupted;
  Alcotest.(check bool) "stopped early" true
    (outcome.Search.Anneal.stats.Search.Anneal.steps_done < 500);
  Alcotest.(check bool) "partial frontier still valid" true
    (Search.Archive.size outcome.Search.Anneal.frontier > 0)

(* --- registry specs --- *)

let spec_round_trip () =
  let spec = "anneal:obj=em;steps=24;seed=3;policy=hill;mix=4:2:1" in
  match Search.Anneal.parse_spec spec with
  | Error e -> Alcotest.failf "parse_spec: %s" e
  | Ok (config, ul) ->
    Alcotest.(check bool) "objective" true
      (config.Search.Anneal.objective = Search.Objective.Expected_makespan);
    Alcotest.(check int) "steps" 24 config.Search.Anneal.steps;
    Alcotest.(check bool) "hill climb" true
      (config.Search.Anneal.policy = Search.Anneal.Hill_climb);
    let canonical = Search.Anneal.canonical_spec config ~ul in
    (match Search.Anneal.parse_spec canonical with
    | Error e -> Alcotest.failf "reparse canonical: %s" e
    | Ok (config', ul') ->
      Alcotest.(check bool) "canonical round-trips the config" true (config = config');
      Alcotest.(check bool) "canonical round-trips the ul" true (bits ul = bits ul');
      Alcotest.(check string) "canonicalization is idempotent" canonical
        (Search.Anneal.canonical_spec config' ~ul:ul'))

let spec_rejects_garbage () =
  (match Search.Anneal.parse_spec "anneal:obj=nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown objective accepted");
  (match Search.Anneal.parse_spec "anneal:steps=-4" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative steps accepted");
  List.iter
    (fun body ->
      match Search.Anneal.parse_spec ("anneal:" ^ body) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" body)
    [ "t0=-1"; "t0=0"; "t0=nan"; "t0=inf"; "alpha=2"; "alpha=0"; "alpha=nan";
      "policy=adaptive;target=nan"; "target=5"; "target=0"; "window=0";
      "policy=adaptive;window=0"; "max-cone=-1"; "max-cone=0"; "delta=nan";
      "delta=-1"; "delta=inf"; "gamma=0.5"; "gamma=inf"; "gamma=nan"; "ul=0.5";
      "ul=nan"; "ul=1000" ];
  match Search.Anneal.parse_spec "anneal:frobnicate=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted"

let registry_runs_anneal_entry () =
  let graph, platform, _ = Lazy.force fixture in
  match Sched.Registry.parse "anneal:obj=sigma_m;steps=8;seed=2" with
  | Error e -> Alcotest.failf "registry parse: %s" e
  | Ok entry ->
    Alcotest.(check bool) "entry name is the canonical spec" true
      (String.length entry.Sched.Registry.name > 7
      && String.sub entry.Sched.Registry.name 0 7 = "anneal:");
    let sched = entry.Sched.Registry.run graph platform in
    Tutil.check_valid ~msg:"annealed schedule" sched;
    (* the canonical name resolves again (replayability by name) *)
    (match Sched.Registry.parse entry.Sched.Registry.name with
    | Ok entry' ->
      Alcotest.(check string) "canonical name is stable" entry.Sched.Registry.name
        entry'.Sched.Registry.name
    | Error e -> Alcotest.failf "canonical name does not reparse: %s" e)

let () =
  Alcotest.run "search"
    [
      ( "objective",
        [
          Alcotest.test_case "parse/name round-trip" `Quick objective_name_round_trips;
          Alcotest.test_case "orientation vs robustness metrics" `Quick
            objective_orientation;
        ] );
      ( "archive",
        [
          archive_invariants;
          Alcotest.test_case "frontier CSV schema" `Quick frontier_csv_schema;
          Alcotest.test_case "frontier JSON with a non-finite objective" `Quick
            frontier_json_non_finite;
        ] );
      ( "swap",
        [
          Alcotest.test_case "bitwise walk" `Slow swap_reevaluate_walk;
          Alcotest.test_case "deadlock leaves session intact" `Quick
            deadlocking_swap_leaves_session_intact;
        ] );
      ( "engine-stats",
        [ Alcotest.test_case "fallback counter split" `Quick fallback_counters_split ] );
      ( "anneal",
        [
          Alcotest.test_case "improves and stays incremental" `Slow
            anneal_improves_and_stays_incremental;
          Alcotest.test_case "objective bitwise vs fresh analyze" `Slow
            anneal_objective_matches_fresh_analyze;
          Alcotest.test_case "deterministic frontier" `Slow anneal_deterministic_frontier;
          Alcotest.test_case "should_stop interrupts" `Quick anneal_should_stop_interrupts;
        ] );
      ( "registry",
        [
          Alcotest.test_case "spec round-trip" `Quick spec_round_trip;
          Alcotest.test_case "spec rejects garbage" `Quick spec_rejects_garbage;
          Alcotest.test_case "anneal entry end-to-end" `Slow registry_runs_anneal_entry;
        ] );
    ]
