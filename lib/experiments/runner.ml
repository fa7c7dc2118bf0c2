type source =
  | Random of int
  | Heuristic of string

type result = {
  instance : Case.instance;
  delta : float;
  gamma : float;
  sources : source array;
  rows : float array array;
}

(* The paper's defaults, resolved through the scheduler registry. Kept
   to exactly these three so campaign outputs stay stable; extra
   schedulers come in via [?heuristics]. *)
let default_heuristic_names = [ "HEFT"; "BIL"; "Hyb.BMCT" ]

let scheduler name =
  match Sched.Registry.parse name with
  | Ok e -> (e.Sched.Registry.name, e.Sched.Registry.run)
  | Error msg -> invalid_arg ("Runner.scheduler: " ^ msg)

let heuristics = List.map scheduler default_heuristic_names

(* Schedules per claimed chunk in a metric sweep. One evaluation costs
   0.7–13 ms, so a claim costs nothing next to it, and small chunks keep
   the end of a sweep from running on one domain. Of 1, 2 and 4, 2 ran
   fastest (BENCH_sweep.json). *)
let sweep_chunk_size = 2

(* The metric-sweep policy shared by campaigns and the service: the
   first [pilot] evaluations calibrate δ and γ (unless both are given),
   and are kept as the rows of those schedules rather than evaluated a
   second time. The pilot runs on the pool one schedule per chunk, so
   no domain idles while it is calibrated on. *)
let calibrated_sweep ?pool ?delta ?gamma ~pilot ~eval ~row n =
  let pilot_evals, delta, gamma =
    match (delta, gamma) with
    | Some d, Some g -> ([||], d, g)
    | d_opt, g_opt ->
      let pilot_evals =
        Parallel.Par_array.init ?pool ~chunk_size:1 (Int.min pilot n) eval
      in
      let d_cal, g_cal =
        Metrics.Robustness.calibrate_bounds
          (Array.to_list
             (Array.map
                (fun e ->
                  let d = e.Makespan.Engine.makespan in
                  (Distribution.Dist.mean d, Distribution.Dist.std d))
                pilot_evals))
      in
      (pilot_evals, Option.value d_opt ~default:d_cal, Option.value g_opt ~default:g_cal)
  in
  let rows =
    Parallel.Par_array.init ?pool ~chunk_size:sweep_chunk_size n (fun i ->
        let e = if i < Array.length pilot_evals then pilot_evals.(i) else eval i in
        row i e
          (Metrics.Robustness.compute ~delta ~gamma ~makespan_dist:e.Makespan.Engine.makespan
             ~slack:e.Makespan.Engine.slack ()))
  in
  (delta, gamma, rows)

let run ?pool ?(scale = Scale.of_env ()) ?slack_mode ?count
    ?(heuristics = heuristics) case =
  (* fault-injection boundary: a campaign must survive a case whose
     evaluation raises (isolation + bounded retry live in Campaign) *)
  Fault.cut "runner.eval";
  let instance = Case.instantiate case in
  let { Case.graph; platform; model; _ } = instance in
  let rng = Prng.Xoshiro.create (Int64.add case.Case.seed 0x5EEDL) in
  let count =
    match count with
    | Some c ->
      if c < 0 then invalid_arg "Runner.run: count must be >= 0";
      c
    | None -> Scale.schedules scale case.Case.paper_schedules
  in
  let random_scheds =
    Array.of_list
      (Sched.Random_sched.generate_many ~rng ~graph ~n_procs:case.Case.n_procs ~count)
  in
  let heuristic_scheds =
    List.map (fun (name, f) -> (name, f graph platform)) heuristics
  in
  let engine = Makespan.Engine.create ~graph ~platform ~model in
  let all_scheds =
    Array.append random_scheds (Array.of_list (List.map snd heuristic_scheds))
  in
  let sources =
    Array.init (Array.length all_scheds) (fun i ->
        if i < count then Random i
        else Heuristic (fst (List.nth heuristic_scheds (i - count))))
  in
  (* calibrate the probabilistic-metric bounds on a pilot batch so that A
     and R spread over (0,1) for this case's weight scale; with no random
     schedules the pilot falls back to the heuristic schedules *)
  let pilot = if count = 0 then List.length heuristic_scheds else Int.min 20 count in
  Elog.info "case %s: evaluating %d schedules" case.Case.id (Array.length all_scheds);
  let progress =
    Obs.Progress.create ~total:(Array.length all_scheds) ("case " ^ case.Case.id)
  in
  let delta, gamma, rows =
    Obs.Span.with_ ~name:"runner.sweep" (fun () ->
        calibrated_sweep ?pool ~pilot
          ~eval:(fun i -> Makespan.Engine.analyze ?slack_mode engine all_scheds.(i))
          ~row:(fun _ _ m ->
            Obs.Progress.tick progress;
            Metrics.Robustness.to_array m)
          (Array.length all_scheds))
  in
  Obs.Progress.finish progress;
  Elog.debug "case %s: calibrated bounds on %d pilot schedules (δ=%.3g, γ=%.6g)"
    case.Case.id pilot delta gamma;
  let s = Makespan.Engine.stats engine in
  Elog.debug
    "case %s: engine task %d/%d hit/miss, comm %d/%d hit/miss, arrival %d/%d hit/miss, %d \
     evals"
    case.Case.id s.Makespan.Engine.task_hits s.Makespan.Engine.task_misses
    s.Makespan.Engine.comm_hits s.Makespan.Engine.comm_misses
    s.Makespan.Engine.arrival_hits s.Makespan.Engine.arrival_misses s.Makespan.Engine.evals;
  Elog.info "case %s: done" case.Case.id;
  { instance; delta; gamma; sources; rows }

let heuristic_rows result =
  let out = ref [] in
  Array.iteri
    (fun i src ->
      match src with
      | Heuristic name -> out := (name, result.rows.(i)) :: !out
      | Random _ -> ())
    result.sources;
  List.rev !out

let random_rows_of ~sources ~rows =
  let n =
    Array.fold_left
      (fun acc s -> match s with Random _ -> acc + 1 | Heuristic _ -> acc)
      0 sources
  in
  let out = Array.make n [||] in
  let j = ref 0 in
  Array.iteri
    (fun i src ->
      match src with
      | Random _ ->
        out.(!j) <- rows.(i);
        incr j
      | Heuristic _ -> ())
    sources;
  out

let random_rows result = random_rows_of ~sources:result.sources ~rows:result.rows
