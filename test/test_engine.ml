(* The unified evaluation engine: equivalence with the uncached
   reference evaluators, cache behaviour, slack sharing, thread safety,
   and the Runner's calibrated sweep. *)

let check_close = Tutil.check_close
let check_close_abs = Tutil.check_close_abs

let model11 = Workloads.Stochastify.make ~ul:1.1 ()

let engine_of (graph, platform) =
  Makespan.Engine.create ~graph ~platform ~model:model11

(* mean/std plus the CDF on a probe grid spanning both supports *)
let check_dists_equal name a b =
  check_close (name ^ " mean") (Distribution.Dist.mean a) (Distribution.Dist.mean b);
  check_close (name ^ " std") (Distribution.Dist.std a) (Distribution.Dist.std b);
  let lo1, hi1 = Distribution.Dist.support a in
  let lo2, hi2 = Distribution.Dist.support b in
  let lo = Float.min lo1 lo2 and hi = Float.max hi1 hi2 in
  for i = 0 to 8 do
    let x = lo +. ((hi -. lo) *. float_of_int i /. 8.) in
    check_close_abs
      (Printf.sprintf "%s cdf@%.3f" name x)
      (Distribution.Dist.cdf_at a x)
      (Distribution.Dist.cdf_at b x)
  done

(* --- per-method equivalence on seeded random cases --- *)

let equivalence_tests =
  List.map
    (fun backend ->
      let name = Makespan.Engine.backend_name backend in
      Tutil.qcheck ~count:60
        (Printf.sprintf "engine %s == legacy %s" name name)
        Tutil.random_scheduled_gen
        (fun (graph, platform, sched) ->
          let reference = Tutil.Reference.eval backend sched platform model11 in
          let cached = Makespan.Engine.eval ~backend (engine_of (graph, platform)) sched in
          check_dists_equal name reference cached;
          true))
    Makespan.Engine.analytic_backends

let montecarlo_backend_matches_legacy () =
  let rng = Tutil.rng_of_seed 5 in
  let graph = Workloads.Cholesky.generate ~tiles:3 () in
  let platform =
    Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:3 ()
  in
  let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs:3 in
  let seed = 1234L in
  let count = 2000 in
  let legacy =
    Distribution.Empirical.to_dist
      ~points:model11.Workloads.Stochastify.points
      (Makespan.Montecarlo.run ~rng:(Prng.Xoshiro.create seed) ~count sched platform
         model11)
  in
  let engine = engine_of (graph, platform) in
  let backend = Makespan.Engine.Montecarlo { count; seed } in
  let a = Makespan.Engine.eval ~backend engine sched in
  let b = Makespan.Engine.eval ~backend engine sched in
  check_dists_equal "mc engine vs legacy" legacy a;
  check_dists_equal "mc deterministic" a b

(* --- cache behaviour --- *)

let fixture () =
  let rng = Tutil.rng_of_seed 7 in
  let graph = Workloads.Classic.fork_join ~width:6 ~volume:3. () in
  let n_tasks = Dag.Graph.n_tasks graph in
  let platform = Platform.Gen.uniform_minval ~rng ~n_tasks ~n_procs:3 () in
  let s1 = Sched.Random_sched.generate ~rng ~graph ~n_procs:3 in
  let s2 = Sched.Random_sched.generate ~rng ~graph ~n_procs:3 in
  (graph, platform, s1, s2)

let duration_cells_cached () =
  let graph, platform, s1, _ = fixture () in
  let engine = engine_of (graph, platform) in
  ignore (Makespan.Engine.eval engine s1);
  let first = Makespan.Engine.stats engine in
  Alcotest.(check bool) "first eval fills cells" true (first.Makespan.Engine.task_misses > 0);
  ignore (Makespan.Engine.eval engine s1);
  let second = Makespan.Engine.stats engine in
  Alcotest.(check int)
    "re-eval builds no new duration cells" first.Makespan.Engine.task_misses
    second.Makespan.Engine.task_misses;
  Alcotest.(check bool)
    "re-eval hits the duration cache" true
    (second.Makespan.Engine.task_hits > first.Makespan.Engine.task_hits)

let comm_cache_shared_across_schedules () =
  let graph, platform, s1, s2 = fixture () in
  let engine = engine_of (graph, platform) in
  ignore (Makespan.Engine.eval engine s1);
  let first = Makespan.Engine.stats engine in
  Alcotest.(check bool)
    "cross-proc edges built comm entries" true
    (first.Makespan.Engine.comm_misses > 0);
  ignore (Makespan.Engine.eval engine s2);
  let second = Makespan.Engine.stats engine in
  (* the network is homogeneous and every edge carries the same volume,
     so the single cached weight serves the second schedule entirely *)
  Alcotest.(check int)
    "homogeneous network: one weight serves both schedules"
    first.Makespan.Engine.comm_misses second.Makespan.Engine.comm_misses;
  Alcotest.(check bool)
    "second schedule hits the comm cache" true
    (second.Makespan.Engine.comm_hits > first.Makespan.Engine.comm_hits)

let create_rejects_mismatched_platform () =
  let graph = Workloads.Classic.chain ~n:4 ~volume:0. () in
  let rng = Tutil.rng_of_seed 3 in
  let platform = Platform.Gen.uniform_minval ~rng ~n_tasks:9 ~n_procs:2 () in
  Alcotest.check_raises "task-count mismatch"
    (Invalid_argument "Engine.create: platform/graph task-count mismatch")
    (fun () -> ignore (Makespan.Engine.create ~graph ~platform ~model:model11))

(* --- metrics and slack share the engine's propagation --- *)

let of_engine_matches_reference () =
  let graph, platform, s1, s2 = fixture () in
  let engine = engine_of (graph, platform) in
  List.iter
    (fun sched ->
      List.iter
        (fun backend ->
          let a = Metrics.Robustness.of_engine ~backend engine sched in
          let b =
            Metrics.Robustness.compute
              ~makespan_dist:(Tutil.Reference.eval backend sched platform model11)
              ~slack:(Sched.Slack.compute sched platform model11)
              ()
          in
          Array.iteri
            (fun i expected ->
              check_close
                (Printf.sprintf "metric %s" Metrics.Robustness.labels.(i))
                expected
                (Metrics.Robustness.to_array a).(i))
            (Metrics.Robustness.to_array b))
        Makespan.Engine.analytic_backends)
    [ s1; s2 ]

let analyze_slack_matches_compute () =
  let graph, platform, s1, _ = fixture () in
  let engine = engine_of (graph, platform) in
  List.iter
    (fun mode ->
      let via_engine = (Makespan.Engine.analyze ~slack_mode:mode engine s1).Makespan.Engine.slack in
      let direct = Sched.Slack.compute ~mode s1 platform model11 in
      check_close "slack total" direct.Sched.Slack.total via_engine.Sched.Slack.total;
      check_close "slack std" direct.Sched.Slack.std via_engine.Sched.Slack.std;
      check_close "slack makespan" direct.Sched.Slack.makespan via_engine.Sched.Slack.makespan;
      Array.iteri
        (fun i expected ->
          check_close (Printf.sprintf "slack task %d" i) expected
            via_engine.Sched.Slack.per_task.(i))
        direct.Sched.Slack.per_task)
    [ `Disjunctive; `Precedence ]

(* --- domain safety: a shared engine under Par_array --- *)

let parallel_sweep_matches_sequential () =
  let rng = Tutil.rng_of_seed 11 in
  let graph = Workloads.Random_dag.generate ~rng ~n:20 () in
  let n_tasks = Dag.Graph.n_tasks graph in
  let platform = Platform.Gen.uniform_minval ~rng ~n_tasks ~n_procs:4 () in
  let scheds =
    Array.of_list
      (Sched.Random_sched.generate_many ~rng ~graph ~n_procs:4 ~count:24)
  in
  let engine = engine_of (graph, platform) in
  let parallel =
    let pool = Parallel.Pool.create ~domains:4 () in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () ->
        Parallel.Par_array.init ~pool ~chunk_size:2 (Array.length scheds) (fun i ->
            let d = Makespan.Engine.eval engine scheds.(i) in
            (Distribution.Dist.mean d, Distribution.Dist.std d)))
  in
  Array.iteri
    (fun i (mu, sigma) ->
      let d = Tutil.Reference.classical scheds.(i) platform model11 in
      check_close (Printf.sprintf "parallel mean %d" i) (Distribution.Dist.mean d) mu;
      check_close (Printf.sprintf "parallel std %d" i) (Distribution.Dist.std d) sigma)
    parallel

(* --- incremental re-evaluation --- *)

let bits = Int64.bits_of_float

let dist_bits_equal name a b =
  let xa, pa = Distribution.Dist.to_arrays a in
  let xb, pb = Distribution.Dist.to_arrays b in
  if Array.length xa <> Array.length xb then
    Alcotest.failf "%s: grid sizes differ (%d vs %d)" name (Array.length xa)
      (Array.length xb);
  Array.iteri
    (fun i x ->
      if bits x <> bits xb.(i) then Alcotest.failf "%s: x[%d] %h <> %h" name i x xb.(i))
    xa;
  Array.iteri
    (fun i p ->
      if bits p <> bits pb.(i) then Alcotest.failf "%s: pdf[%d] %h <> %h" name i p pb.(i))
    pa

let slack_bits_equal name (a : Sched.Slack.summary) (b : Sched.Slack.summary) =
  if
    bits a.Sched.Slack.total <> bits b.Sched.Slack.total
    || bits a.Sched.Slack.std <> bits b.Sched.Slack.std
    || bits a.Sched.Slack.makespan <> bits b.Sched.Slack.makespan
  then Alcotest.failf "%s: slack summary differs" name;
  Array.iteri
    (fun i v ->
      if bits v <> bits b.Sched.Slack.per_task.(i) then
        Alcotest.failf "%s: slack per_task[%d]" name i)
    a.Sched.Slack.per_task

let eval_bits_equal name (a : Makespan.Engine.evaluation) (b : Makespan.Engine.evaluation) =
  dist_bits_equal (name ^ " makespan") a.Makespan.Engine.makespan b.Makespan.Engine.makespan;
  slack_bits_equal name a.Makespan.Engine.slack b.Makespan.Engine.slack

(* The tentpole property: a session's [reevaluate_any] must agree BITWISE
   with a fresh full [analyze] of the patched schedule, over a long
   random walk of committed single moves — including moves that grow or
   shrink the disjunctive graph, explicit no-op (same proc, same
   position) moves, and uncommitted probes that must leave the session
   state untouched. *)
let reevaluate_walk backend steps () =
  let rng = Tutil.rng_of_seed 42 in
  let graph = Workloads.Random_dag.generate ~rng ~n:14 () in
  let n_tasks = Dag.Graph.n_tasks graph in
  let n_procs = 3 in
  let platform = Platform.Gen.uniform_minval ~rng ~n_tasks ~n_procs () in
  let engine = engine_of (graph, platform) in
  let sched = ref (Sched.Random_sched.generate ~rng ~graph ~n_procs) in
  let session = Makespan.Engine.start_session ~backend engine !sched in
  eval_bits_equal "session start"
    (Makespan.Engine.analyze ~backend engine !sched)
    (Makespan.Engine.session_evaluation session);
  for step = 1 to steps do
    let m =
      if step mod 10 = 0 then begin
        (* explicit no-op: reinsert a task at its current position *)
        let task = Prng.Xoshiro.int rng n_tasks in
        let open Sched.Schedule in
        Sched.Neighbor.make ~at:(!sched).pos_in_proc.(task) ~task
          ~to_:(!sched).proc_of.(task) ()
      end
      else Sched.Neighbor.random ~rng !sched
    in
    (* probe without committing, then verify the session still serves
       the base schedule's bits *)
    if step mod 7 = 0 then begin
      let probe =
        Makespan.Engine.reevaluate_any ~commit:false session (Sched.Neighbor.Reassign m)
      in
      eval_bits_equal
        (Printf.sprintf "step %d probe" step)
        (Makespan.Engine.analyze ~backend engine (Sched.Neighbor.apply !sched m))
        probe;
      eval_bits_equal
        (Printf.sprintf "step %d base intact after probe" step)
        (Makespan.Engine.analyze ~backend engine !sched)
        (Makespan.Engine.session_evaluation session)
    end;
    let ev = Makespan.Engine.reevaluate_any session (Sched.Neighbor.Reassign m) in
    sched := Sched.Neighbor.apply !sched m;
    eval_bits_equal
      (Printf.sprintf "step %d (%d->p%d)" step m.Sched.Neighbor.task m.Sched.Neighbor.to_)
      (Makespan.Engine.analyze ~backend engine !sched)
      ev
  done;
  (match backend with
  | Makespan.Engine.Classical | Makespan.Engine.Spelde ->
    Alcotest.(check bool) "some moves served incrementally" true
      ((Makespan.Engine.stats engine).Makespan.Engine.reeval_incremental > 0)
  | _ ->
    Alcotest.(check int) "non-incremental backend always falls back" 0
      (Makespan.Engine.stats engine).Makespan.Engine.reeval_incremental);
  (* committed steps plus the uncommitted probes every 7th step *)
  Alcotest.(check int) "every move counted"
    (steps + (steps / 7))
    (Makespan.Engine.stats engine).Makespan.Engine.reevals

let cutoff_forces_full_fallback () =
  let graph, platform, s1, _ = fixture () in
  let engine = engine_of (graph, platform) in
  let session = Makespan.Engine.start_session engine s1 in
  let rng = Tutil.rng_of_seed 19 in
  let m = Sched.Neighbor.random ~rng s1 in
  let ev = Makespan.Engine.reevaluate_any ~max_cone:0 session (Sched.Neighbor.Reassign m) in
  eval_bits_equal "cutoff fallback bits"
    (Makespan.Engine.analyze engine (Sched.Neighbor.apply s1 m))
    ev;
  let st = Makespan.Engine.stats engine in
  Alcotest.(check int) "counted as full" 1 st.Makespan.Engine.reeval_full;
  Alcotest.(check int) "not counted as incremental" 0 st.Makespan.Engine.reeval_incremental

(* [accept] against a model: any interleaving of rejected probes,
   accepted probes, committing re-evaluations, reassigns and swaps
   (feasible or deadlocking) and [max_cone:0] fallback probes keeps
   every probe and the session's evaluation equal, bit for bit, to a
   fresh [analyze]. [accept] installs the last probe and only that one:
   with none pending (nothing probed since, already accepted, or the
   last move raised) it must raise. *)
let accept_walk backend =
  Tutil.qcheck ~count:12
    (Printf.sprintf "%s accept walk == analyze (bitwise)" (Makespan.Engine.backend_name backend))
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Tutil.rng_of_seed seed in
      let graph = Workloads.Random_dag.generate ~rng ~n:(8 + Prng.Xoshiro.int rng 8) () in
      let n_tasks = Dag.Graph.n_tasks graph in
      let n_procs = 2 + Prng.Xoshiro.int rng 3 in
      let platform = Platform.Gen.uniform_minval ~rng ~n_tasks ~n_procs () in
      let engine = engine_of (graph, platform) in
      let base = ref (Sched.Random_sched.generate ~rng ~graph ~n_procs) in
      let session = Makespan.Engine.start_session ~backend engine !base in
      let pending = ref None in
      let fresh sched = Makespan.Engine.analyze ~backend engine sched in
      let check_base step =
        eval_bits_equal (Printf.sprintf "step %d session" step) (fresh !base)
          (Makespan.Engine.session_evaluation session);
        if
          Sched.Schedule.to_string (Makespan.Engine.session_schedule session)
          <> Sched.Schedule.to_string !base
        then
          Alcotest.failf "step %d: session pins another schedule" step
      in
      let draw () =
        if Prng.Xoshiro.int rng 3 = 0 then
          (* any pair, so deadlocking exchanges occur too *)
          let a = Prng.Xoshiro.int rng n_tasks and b = Prng.Xoshiro.int rng n_tasks in
          if a = b then Sched.Neighbor.Reassign (Sched.Neighbor.random ~rng !base)
          else Sched.Neighbor.Swap { Sched.Neighbor.a; b }
        else
          let task = Prng.Xoshiro.int rng n_tasks and to_ = Prng.Xoshiro.int rng n_procs in
          let at =
            if Prng.Xoshiro.int rng 2 = 0 then None
            else Some (Prng.Xoshiro.int rng (1 + Array.length (!base).Sched.Schedule.order.(to_)))
          in
          Sched.Neighbor.Reassign (Sched.Neighbor.make ?at ~task ~to_ ())
      in
      for step = 1 to 40 do
        match Prng.Xoshiro.int rng 4 with
        | 0 -> (
          (* accept: the last probe, or nothing to accept *)
          match !pending with
          | None ->
            (try
               Makespan.Engine.accept session;
               Alcotest.failf "step %d: accept without a pending probe" step
             with Invalid_argument _ -> ());
            check_base step
          | Some (sched', ev) ->
            Makespan.Engine.accept session;
            pending := None;
            base := sched';
            check_base step;
            eval_bits_equal (Printf.sprintf "step %d accepted" step) ev
              (Makespan.Engine.session_evaluation session))
        | k -> (
          let mv = draw () in
          let commit = k = 3 in
          let max_cone = if Prng.Xoshiro.int rng 4 = 0 then Some 0 else None in
          match Sched.Neighbor.apply_any_opt !base mv with
          | None ->
            (try
               ignore (Makespan.Engine.reevaluate_any ~commit ?max_cone session mv);
               Alcotest.failf "step %d: deadlocking move evaluated" step
             with Invalid_argument _ -> ());
            pending := None;
            check_base step
          | Some sched' ->
            let ev = Makespan.Engine.reevaluate_any ~commit ?max_cone session mv in
            eval_bits_equal (Printf.sprintf "step %d probe" step) (fresh sched') ev;
            if commit then begin
              base := Makespan.Engine.session_schedule session;
              pending := None;
              eval_bits_equal (Printf.sprintf "step %d committed" step) (fresh sched')
                (Makespan.Engine.session_evaluation session)
            end
            else pending := Some (sched', ev);
            check_base step)
      done;
      true)

(* The session memo's reuse on a fixed walk of the perfbench annealing
   case (random30 on 8 processors, from HEFT): every fourth probe is
   accepted. The counts are a deterministic function of the walk; a
   change here means the memo's key, write rule or invalidation
   changed. *)
let session_sum_counts () =
  let module C = Experiments.Case in
  let inst =
    C.instantiate (C.make ~seed:1L ~n_procs:8 ~kind:C.Random_graph ~n_target:30 ~ul:1.1 ())
  in
  let graph = inst.C.graph and platform = inst.C.platform in
  let init =
    match Sched.Registry.parse "HEFT" with
    | Ok e -> e.Sched.Registry.run graph platform
    | Error e -> failwith e
  in
  let walk () =
    let engine = Makespan.Engine.create ~graph ~platform ~model:inst.C.model in
    let session = Makespan.Engine.start_session engine init in
    let rng = Tutil.rng_of_seed 7 in
    let probes = ref 0 in
    while !probes < 120 do
      let base = Makespan.Engine.session_schedule session in
      match Sched.Neighbor.random_swap ~rng base with
      | Some s when Prng.Xoshiro.int rng 4 = 0 ->
        incr probes;
        ignore
          (Makespan.Engine.reevaluate_any ~commit:false ~max_cone:30 session
             (Sched.Neighbor.Swap s));
        if !probes mod 4 = 0 then Makespan.Engine.accept session
      | _ ->
        let m = Sched.Neighbor.random ~rng base in
        if not (Sched.Neighbor.is_noop base m) then begin
          incr probes;
          ignore
            (Makespan.Engine.reevaluate_any ~commit:false ~max_cone:30 session
               (Sched.Neighbor.Reassign m));
          if !probes mod 4 = 0 then Makespan.Engine.accept session
        end
    done;
    let st = Makespan.Engine.stats engine in
    ( st.Makespan.Engine.reeval_sum_hits,
      st.Makespan.Engine.reeval_sum_misses,
      st.Makespan.Engine.reeval_fold_skips )
  in
  let ((hits, _, skips) as counts) = walk () in
  Alcotest.(check bool) "sums reused" true (hits > 0);
  Alcotest.(check bool) "maxima reused" true (skips > 0);
  Alcotest.(check (triple int int int)) "counts repeat" counts (walk ());
  Alcotest.(check (triple int int int)) "pinned counts" (1763, 12082, 6505) counts

(* One probe of a mixed walk over a Classical session: a reassign, a
   swap of any two tasks, a swap of two tasks on one processor, a
   reorder within one processor, a priority-jitter rebuild (the
   annealer's), or any random schedule of the case. [None] when the
   draw deadlocks or picks one task twice. *)
let mixed_candidate ~rng ~graph ~platform ~priority base =
  let open Sched.Schedule in
  let n = n_tasks base in
  let same_proc () =
    let row = base.order.(Prng.Xoshiro.int rng base.n_procs) in
    let len = Array.length row in
    if len < 2 then None
    else Some (row.(Prng.Xoshiro.int rng len), row.(Prng.Xoshiro.int rng len))
  in
  let move mv =
    Option.map (fun s -> (`Move mv, s)) (Sched.Neighbor.apply_any_opt base mv)
  in
  match Prng.Xoshiro.int rng 6 with
  | 0 -> move (Sched.Neighbor.Reassign (Sched.Neighbor.random ~rng base))
  | 1 ->
    let a = Prng.Xoshiro.int rng n and b = Prng.Xoshiro.int rng n in
    if a = b then None else move (Sched.Neighbor.Swap { Sched.Neighbor.a; b })
  | 2 -> (
    match same_proc () with
    | Some (a, b) when a <> b -> move (Sched.Neighbor.Swap { Sched.Neighbor.a; b })
    | _ -> None)
  | 3 -> (
    match same_proc () with
    | Some (task, _) ->
      let at = Prng.Xoshiro.int rng (Array.length base.order.(base.proc_of.(task))) in
      move (Sched.Neighbor.Reassign (Sched.Neighbor.make ~at ~task ~to_:base.proc_of.(task) ()))
    | None -> None)
  | 4 ->
    let priority =
      Array.map (fun p -> p *. (1. +. (0.3 *. (Prng.Xoshiro.next_float rng -. 0.5)))) priority
    in
    let s = Sched.List_scheduler.run_ranked (Sched.Heft.spec ()) ~priority graph platform in
    Some (`Schedule s, s)
  | _ ->
    let s = Sched.Random_sched.generate ~rng ~graph ~n_procs:base.n_procs in
    Some (`Schedule s, s)

(* Probe [probes] mixed candidates off one Classical session, the cone
   cutoff at the whole graph, accepting every [accept_every]-th: every probe,
   the session after every probe, and every accepted evaluation equal a
   fresh [analyze] bit for bit. Returns the engine's stats. *)
let mixed_walk ~rng ~graph ~platform ~init ~probes ~accept_every =
  let engine = engine_of (graph, platform) in
  let n = Dag.Graph.n_tasks graph in
  let priority =
    (Sched.List_scheduler.prepare (Sched.Heft.spec ()) graph platform).Sched.List_scheduler.priority
  in
  let session = Makespan.Engine.start_session engine init in
  let fresh sched = Makespan.Engine.analyze engine sched in
  let done_ = ref 0 in
  while !done_ < probes do
    let base = Makespan.Engine.session_schedule session in
    match mixed_candidate ~rng ~graph ~platform ~priority base with
    | None -> ()
    | Some (kind, sched') ->
      incr done_;
      let ev =
        match kind with
        | `Move mv -> Makespan.Engine.reevaluate_any ~commit:false ~max_cone:n session mv
        | `Schedule s -> Makespan.Engine.reevaluate_schedule ~max_cone:n session s
      in
      eval_bits_equal (Printf.sprintf "probe %d" !done_) (fresh sched') ev;
      eval_bits_equal
        (Printf.sprintf "probe %d: session intact" !done_)
        (fresh base) (Makespan.Engine.session_evaluation session);
      if !done_ mod accept_every = 0 then begin
        Makespan.Engine.accept session;
        eval_bits_equal
          (Printf.sprintf "probe %d accepted" !done_)
          (fresh sched') (Makespan.Engine.session_evaluation session)
      end
  done;
  Makespan.Engine.stats engine

let prefix_walk_small =
  Tutil.qcheck ~count:30 "prefix maxima: mixed walk == analyze (bitwise)"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 2 4))
    (fun (seed, accept_every) ->
      let rng = Tutil.rng_of_seed seed in
      let graph = Workloads.Random_dag.generate ~rng ~n:(6 + Prng.Xoshiro.int rng 16) () in
      let n_tasks = Dag.Graph.n_tasks graph in
      let n_procs = 2 + Prng.Xoshiro.int rng 3 in
      let platform = Platform.Gen.uniform_minval ~rng ~n_tasks ~n_procs () in
      let init = Sched.Random_sched.generate ~rng ~graph ~n_procs in
      ignore (mixed_walk ~rng ~graph ~platform ~init ~probes:60 ~accept_every);
      true)

(* The same walk on the annealing case (random30 on 8 processors, from
   HEFT), one accept in three probes. *)
let prefix_walk_random30 () =
  let module C = Experiments.Case in
  let inst =
    C.instantiate (C.make ~seed:1L ~n_procs:8 ~kind:C.Random_graph ~n_target:30 ~ul:1.1 ())
  in
  let graph = inst.C.graph and platform = inst.C.platform in
  let init = Sched.Heft.schedule graph platform in
  let st =
    mixed_walk ~rng:(Tutil.rng_of_seed 11) ~graph ~platform ~init ~probes:60 ~accept_every:3
  in
  Alcotest.(check bool) "maxima reused" true (st.Makespan.Engine.reeval_fold_skips > 0)

(* Hand-built cases for the prefix maxima. Tasks 0-3 each feed the
   join 4 (disjunctive predecessors [0; 1; 2; 3]), 4 feeds 5 and 7
   feeds 6; every task starts alone on its own processor, with p8
   empty. The sources' heavy edges keep the join's arrivals
   overlapping, so no single arrival dominates the maximum and a wrong
   cached prefix changes the bits. Each probe is checked bitwise
   against a fresh analyze, and its [Dist.max_indep] calls taken from
   the cache are pinned. *)
let prefix_targeted () =
  let graph =
    Dag.Graph.make ~n:8
      ~edges:[ (0, 4, 30.); (1, 4, 40.); (2, 4, 50.); (3, 4, 35.); (4, 5, 1.); (7, 6, 0.5) ]
  in
  let platform =
    Platform.Gen.uniform_minval ~rng:(Tutil.rng_of_seed 5) ~n_tasks:8 ~n_procs:9 ()
  in
  let engine = engine_of (graph, platform) in
  let init =
    Sched.Schedule.make ~graph ~n_procs:9 ~proc_of:(Array.init 8 Fun.id)
      ~order:(Array.init 9 (fun p -> if p < 8 then [| p |] else [||]))
  in
  let session = Makespan.Engine.start_session engine init in
  let skips () = (Makespan.Engine.stats engine).Makespan.Engine.reeval_fold_skips in
  let probe ?(accept = false) name ~task ~to_ ?at want =
    let base = Makespan.Engine.session_schedule session in
    let mv = Sched.Neighbor.Reassign (Sched.Neighbor.make ?at ~task ~to_ ()) in
    let before = skips () in
    let ev = Makespan.Engine.reevaluate_any ~commit:false session mv in
    eval_bits_equal name (Makespan.Engine.analyze engine (Sched.Neighbor.apply_any base mv)) ev;
    Alcotest.(check int) (name ^ ": max_indep calls skipped") want (skips () - before);
    if accept then begin
      Makespan.Engine.accept session;
      eval_bits_equal (name ^ " accepted") ev (Makespan.Engine.session_evaluation session)
    end
  in
  (* first dirty predecessor at index 0: nothing is committed, nothing
     stored *)
  probe "move 0" ~task:0 ~to_:8 0;
  probe "move 0 again" ~task:0 ~to_:8 0;
  (* first dirty predecessor at index 3: m_0..m_2 stored, then reused *)
  probe "move 3" ~task:3 ~to_:8 0;
  probe "move 3 again" ~task:3 ~to_:8 2;
  (* an accepted move of task 1 cuts the join's maxima at index 1 *)
  probe ~accept:true "accept move 1" ~task:1 ~to_:8 0;
  probe "re-probe 3 after the cut" ~task:3 ~to_:6 0;
  probe "re-probe 3, refilled" ~task:3 ~to_:6 2;
  (* task 6 joins the join's processor ahead of it: 4 gains a
     predecessor, so it is fresh and its maxima are dropped on accept *)
  probe ~accept:true "grow the join's predecessors" ~task:6 ~to_:4 ~at:0 0;
  (* moving 7 dirties 6 without making 4 fresh: the first dirty
     predecessor is now at index 4, past the three maxima the join's
     cache had room for *)
  probe "move 7, five predecessors" ~task:7 ~to_:8 0;
  probe "move 3, five predecessors" ~task:3 ~to_:2 2;
  probe "move 7 again, five predecessors" ~task:7 ~to_:8 3;
  (* and loses it again *)
  probe ~accept:true "shrink the join's predecessors" ~task:6 ~to_:6 0;
  probe "move 2, four predecessors" ~task:2 ~to_:0 0;
  probe "move 2 again, four predecessors" ~task:2 ~to_:0 1

(* CI allocation bound: re-evaluating a small-cone one-move neighbor
   must allocate at most a fifth of a full evaluation (it should be far
   less — the bound is deliberately loose so CI noise cannot trip it). *)
let reeval_allocation_bound () =
  let rng = Tutil.rng_of_seed 31 in
  let graph = Workloads.Random_dag.generate ~rng ~n:30 () in
  let n_tasks = Dag.Graph.n_tasks graph in
  let platform = Platform.Gen.uniform_minval ~rng ~n_tasks ~n_procs:8 () in
  let engine = engine_of (graph, platform) in
  let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs:8 in
  let session = Makespan.Engine.start_session engine sched in
  let exits = Dag.Graph.exits graph in
  let moved = exits.(Array.length exits - 1) in
  let to_ = (sched.Sched.Schedule.proc_of.(moved) + 1) mod 8 in
  let move = Sched.Neighbor.Reassign (Sched.Neighbor.make ~task:moved ~to_ ()) in
  (* warm both paths (duration/comm caches, scratch growth) *)
  ignore (Makespan.Engine.reevaluate_any ~commit:false session move);
  ignore (Makespan.Engine.analyze engine sched);
  let iters = 5 in
  let words_of f =
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int iters
  in
  let reeval_words =
    words_of (fun () ->
        ignore (Makespan.Engine.reevaluate_any ~commit:false session move))
  in
  let full_words = words_of (fun () -> ignore (Makespan.Engine.analyze engine sched)) in
  Alcotest.(check bool) "probe served incrementally" true
    ((Makespan.Engine.stats engine).Makespan.Engine.reeval_incremental > 0);
  if reeval_words > full_words /. 5. then
    Alcotest.failf "1-move reeval allocates %.0f words vs %.0f full (bound: 1/5)"
      reeval_words full_words

(* --- Runner pilot fallback (count = 0) --- *)

let runner_zero_count_falls_back_to_heuristics () =
  let case =
    Experiments.Case.make ~kind:Experiments.Case.Cholesky ~n_target:10 ~n_procs:3 ~ul:1.1
      ()
  in
  let result = Experiments.Runner.run ~count:0 case in
  Alcotest.(check int) "no random rows" 0
    (Array.length (Experiments.Runner.random_rows result));
  let heuristic = Experiments.Runner.heuristic_rows result in
  Alcotest.(check int) "all heuristics evaluated"
    (List.length Experiments.Runner.heuristics)
    (List.length heuristic);
  Alcotest.(check bool) "calibrated delta positive" true (result.Experiments.Runner.delta > 0.);
  Alcotest.(check bool) "calibrated gamma > 1" true (result.Experiments.Runner.gamma > 1.);
  List.iter
    (fun (name, row) ->
      Array.iter
        (fun v ->
          Alcotest.(check bool) (name ^ " metrics finite") true (Float.is_finite v))
        row)
    heuristic

(* the sweep's chunking is fixed, so the pool size must not change a bit
   of the rows or of the calibrated bounds *)
let runner_pool_size_independent () =
  let case =
    Experiments.Case.make ~kind:Experiments.Case.Random_graph ~n_target:20 ~n_procs:4
      ~ul:1.1 ()
  in
  let run domains =
    let pool = Parallel.Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () -> Experiments.Runner.run ~pool ~count:40 case)
  in
  let a = run 1 and b = run 3 in
  Alcotest.(check int64) "delta bits" (bits a.Experiments.Runner.delta)
    (bits b.Experiments.Runner.delta);
  Alcotest.(check int64) "gamma bits" (bits a.Experiments.Runner.gamma)
    (bits b.Experiments.Runner.gamma);
  Alcotest.(check int) "row count" (Array.length a.Experiments.Runner.rows)
    (Array.length b.Experiments.Runner.rows);
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Alcotest.(check int64) (Printf.sprintf "row %d metric %d bits" i j) (bits v)
            (bits b.Experiments.Runner.rows.(i).(j)))
        row)
    a.Experiments.Runner.rows

(* --- arrival-sum memo and scratch lifetime --- *)

(* The memo must not move a bit: the engine's classical sweep (memo on)
   against the uncached reference sweep fed straight from the model. *)
let arrival_memo_bitwise =
  Tutil.qcheck ~count:60 "arrival memo == uncached sweep (bitwise)"
    Tutil.random_scheduled_gen (fun (graph, platform, sched) ->
      dist_bits_equal "classical makespan"
        (Tutil.Reference.eval Makespan.Engine.Classical sched platform model11)
        (Makespan.Engine.eval (engine_of (graph, platform)) sched);
      true)

let arrival_counts engine =
  let st = Makespan.Engine.stats engine in
  (st.Makespan.Engine.arrival_hits, st.Makespan.Engine.arrival_misses)

(* Everything on one processor: every data edge has weight zero, and the
   engine hands out one shared zero, so the fork's six arrivals are one
   sum computed once and reused five times; the join's six arrivals come
   from six different predecessors. *)
let same_processor_arrivals_hit () =
  let graph = Workloads.Classic.fork_join ~width:6 ~volume:3. () in
  let rng = Tutil.rng_of_seed 7 in
  let platform =
    Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:1 ()
  in
  let engine = engine_of (graph, platform) in
  ignore (Makespan.Engine.eval engine (Sched.Random_sched.generate ~rng ~graph ~n_procs:1));
  Alcotest.(check (pair int int)) "fork hits, join misses" (5, 7) (arrival_counts engine)

(* The count of reused sums is a deterministic function of the schedule;
   a change here means the memo's key or scope changed. *)
let gauss_elim_arrival_hits_pinned () =
  let module C = Experiments.Case in
  let inst =
    C.instantiate (C.make ~kind:C.Gauss_elim ~n_target:104 ~n_procs:16 ~ul:1.1 ~seed:1L ())
  in
  let graph = inst.C.graph and platform = inst.C.platform in
  let engine = Makespan.Engine.create ~graph ~platform ~model:inst.C.model in
  let heft = Sched.Heft.schedule graph platform in
  ignore (Makespan.Engine.analyze engine heft);
  let first = arrival_counts engine in
  Alcotest.(check (pair int int)) "HEFT on ge104" (66, 115) first;
  ignore (Makespan.Engine.analyze engine heft);
  Alcotest.(check (pair int int)) "a second sweep adds the same counts" (132, 230)
    (arrival_counts engine);
  let fresh = Makespan.Engine.create ~graph ~platform ~model:inst.C.model in
  Alcotest.(check (pair int int)) "a fresh engine starts at zero" (0, 0) (arrival_counts fresh);
  ignore (Makespan.Engine.analyze fresh heft);
  Alcotest.(check (pair int int)) "counts repeat exactly" first (arrival_counts fresh)

(* Scratch lives under one module-level DLS key: dropped engines must
   leave nothing reachable. With a key per engine, every engine's last
   completion array stayed alive (about 2k words per engine here). *)
let dropped_engines_are_collected () =
  let module C = Experiments.Case in
  let inst = C.instantiate (C.make ~kind:C.Cholesky ~n_target:10 ~n_procs:3 ~ul:1.1 ()) in
  let graph = inst.C.graph and platform = inst.C.platform in
  let sched = Sched.Heft.schedule graph platform in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let cycle () =
    let engine = Makespan.Engine.create ~graph ~platform ~model:inst.C.model in
    ignore (Sys.opaque_identity (Makespan.Engine.analyze engine sched))
  in
  for _ = 1 to 10 do
    cycle ()
  done;
  let base = live () in
  for _ = 1 to 120 do
    cycle ()
  done;
  let grown = live () - base in
  if grown > 20_000 then
    Alcotest.failf "live heap grew by %d words over 120 dropped engines" grown

(* --- frozen evaluator goldens --- *)

(* The fixtures under golden/engine__*.txt hold the %h bits of E(M) and
   σ(M) from [analyze] on HEFT plus seven random schedules per case, as
   computed at commit ec42bbd, before the intermediate grid moved into
   the arena. Every kernel rewrite must replay them bit for bit. *)
let engine_golden_cases =
  let module C = Experiments.Case in
  [
    ("random30", C.make ~kind:C.Random_graph ~n_target:30 ~n_procs:8 ~ul:1.1 ~seed:1L ());
    ("chol10", C.make ~kind:C.Cholesky ~n_target:10 ~n_procs:3 ~ul:1.1 ~seed:1L ());
    ("ge104", C.make ~kind:C.Gauss_elim ~n_target:104 ~n_procs:16 ~ul:1.1 ~seed:1L ());
  ]

let engine_golden_runs =
  let open Makespan.Engine in
  List.concat_map
    (fun (cname, _) ->
      [ ("classical", Classical, cname, Distribution.Dist.Exact); ("dodin", Dodin, cname, Exact) ])
    engine_golden_cases
  @ [ ("classical-moment2", Classical, "random30", Distribution.Dist.Moment 2) ]

(* The rendered bits, and the engine's arrival-memo hits behind them. *)
let render_engine_golden backend mode (case : Experiments.Case.t) =
  let inst = Experiments.Case.instantiate case in
  let graph = inst.Experiments.Case.graph and platform = inst.Experiments.Case.platform in
  let engine = Makespan.Engine.create ~graph ~platform ~model:inst.Experiments.Case.model in
  let rng = Prng.Xoshiro.create 7L in
  let scheds =
    ("heft", Sched.Heft.schedule graph platform)
    :: List.init 7 (fun i ->
           ( Printf.sprintf "random%d" i,
             Sched.Random_sched.generate ~rng ~graph ~n_procs:case.Experiments.Case.n_procs ))
  in
  Distribution.Dist.set_chain_mode mode;
  Fun.protect
    ~finally:(fun () -> Distribution.Dist.set_chain_mode Distribution.Dist.Exact)
    (fun () ->
      let text =
        String.concat ""
          (List.map
             (fun (name, s) ->
               let m = (Makespan.Engine.analyze ~backend engine s).Makespan.Engine.makespan in
               Printf.sprintf "%s %h %h\n" name (Distribution.Dist.mean m)
                 (Distribution.Dist.std m))
             scheds)
      in
      (text, (Makespan.Engine.stats engine).Makespan.Engine.arrival_hits))

(* The service answers a heuristic row that is also a neighbor base
   from its session's evaluation: on the three perfbench cases it must
   equal a fresh [analyze] bit for bit, on every backend. *)
let session_evaluation_matches_analyze () =
  let open Makespan.Engine in
  List.iter
    (fun (cname, case) ->
      let inst = Experiments.Case.instantiate case in
      let graph = inst.Experiments.Case.graph and platform = inst.Experiments.Case.platform in
      let engine = create ~graph ~platform ~model:inst.Experiments.Case.model in
      let heft = Sched.Heft.schedule graph platform in
      List.iter
        (fun backend ->
          let name = Printf.sprintf "%s %s" cname (backend_name backend) in
          eval_bits_equal name (analyze ~backend engine heft)
            (session_evaluation (start_session ~backend engine heft)))
        [ Classical; Spelde; Dodin; Montecarlo { count = 200; seed = 3L } ])
    engine_golden_cases

let engine_golden_replay () =
  List.iter
    (fun (bname, backend, cname, mode) ->
      let label = Printf.sprintf "engine__%s__%s" bname cname in
      let expected = Tutil.read_file (Filename.concat (Tutil.golden_dir ()) (label ^ ".txt")) in
      let text, hits = render_engine_golden backend mode (List.assoc cname engine_golden_cases) in
      Alcotest.(check string) label expected text;
      if label = "engine__classical__ge104" && hits = 0 then
        Alcotest.failf "%s replayed without reusing an arrival sum" label)
    engine_golden_runs

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        equivalence_tests
        @ [
            Alcotest.test_case "montecarlo backend" `Slow montecarlo_backend_matches_legacy;
          ] );
      ( "caching",
        [
          Alcotest.test_case "duration cells" `Quick duration_cells_cached;
          Alcotest.test_case "comm cache across schedules" `Quick
            comm_cache_shared_across_schedules;
          Alcotest.test_case "mismatched platform" `Quick create_rejects_mismatched_platform;
          arrival_memo_bitwise;
          Alcotest.test_case "same-processor arrivals hit" `Quick same_processor_arrivals_hit;
          Alcotest.test_case "ge104 HEFT arrival hits pinned" `Quick
            gauss_elim_arrival_hits_pinned;
          Alcotest.test_case "dropped engines are collected" `Quick
            dropped_engines_are_collected;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "of_engine == reference" `Quick of_engine_matches_reference;
          Alcotest.test_case "slack modes" `Quick analyze_slack_matches_compute;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "shared engine under domains" `Quick
            parallel_sweep_matches_sequential;
        ] );
      ( "reevaluate",
        [
          Alcotest.test_case "classical walk == analyze (bitwise)" `Slow
            (reevaluate_walk Makespan.Engine.Classical 200);
          Alcotest.test_case "spelde walk == analyze (bitwise)" `Slow
            (reevaluate_walk Makespan.Engine.Spelde 200);
          Alcotest.test_case "dodin walk == analyze (bitwise)" `Slow
            (reevaluate_walk Makespan.Engine.Dodin 200);
          accept_walk Makespan.Engine.Classical;
          accept_walk Makespan.Engine.Spelde;
          accept_walk Makespan.Engine.Dodin;
          Alcotest.test_case "session memo counts pinned" `Quick session_sum_counts;
          prefix_walk_small;
          Alcotest.test_case "prefix maxima: random30/p8 walk == analyze (bitwise)" `Slow
            prefix_walk_random30;
          Alcotest.test_case "prefix maxima: targeted cases" `Quick prefix_targeted;
          Alcotest.test_case "session evaluation == analyze on perfbench cases (bitwise)"
            `Quick session_evaluation_matches_analyze;
          Alcotest.test_case "cone cutoff falls back bitwise" `Quick
            cutoff_forces_full_fallback;
          Alcotest.test_case "1-move reeval allocation bound" `Slow
            reeval_allocation_bound;
        ] );
      ( "golden",
        [
          Alcotest.test_case "frozen E(M)/σ(M) bits" `Quick engine_golden_replay;
        ] );
      ( "runner",
        [
          Alcotest.test_case "count=0 pilot fallback" `Quick
            runner_zero_count_falls_back_to_heuristics;
          Alcotest.test_case "pool size independence (bitwise)" `Quick
            runner_pool_size_independent;
        ] );
    ]
