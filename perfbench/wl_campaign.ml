(* Workload campaign_fig6: the paper's pipeline. Experiments.Campaign.run
   over random30/p8, cholesky10/p3 and gauss104/p16 (UL 1.1) with N random
   schedules per case plus HEFT/BIL/Hyb.BMCT, on a 2-domain pool, each
   repetition into a fresh directory.

   A case's seed draws both its graph and its random schedules
   (Runner.run), so every case is built from [instance_seed] and each
   repetition does the same work; the run seed picks which random
   schedules the spot check recomputes. *)

open Common
module Case = Experiments.Case
module Engine = Makespan.Engine
module Runner = Experiments.Runner

let n_schedules = 100
let domains = 2

let scale =
  {
    Experiments.Scale.name = "perfbench";
    schedule_divisor = 1;
    mc_divisor = 1;
    include_n1000 = false;
  }

let cases =
  let mk label kind n_target n_procs =
    ( label,
      Case.make ~seed:instance_seed ~n_procs ~paper_schedules:n_schedules ~kind ~n_target
        ~ul:1.1 () )
  in
  [
    mk "random30_p8" Case.Random_graph 30 8;
    mk "cholesky10_p3" Case.Cholesky 10 3;
    mk "gauss104_p16" Case.Gauss_elim 104 16;
  ]

let output_files cases =
  Experiments.Manifest.file_name :: List.map (fun (_, c) -> c.Case.id ^ ".csv") cases

let digests dir cases =
  List.map (fun f -> (f, md5_file (Filename.concat dir f))) (output_files cases)

let run_campaign ~pool ~dir cases =
  Experiments.Campaign.run ~pool ~scale ~attempts:1 ~backoff:0. ~dir
    ~cases:(List.map snd cases) ()

type env = {
  cases : (string * Case.t) list;
  instances : Case.instance list;
  pool : Parallel.Pool.t;
}

let setup _seed =
  let instances = List.map (fun (_, c) -> Case.instantiate c) cases in
  let pool = Parallel.Pool.create ~domains () in
  (* warm-up: one small campaign fills the heap and starts the pool *)
  let warm = List.filter (fun (l, _) -> l = "cholesky10_p3") cases in
  ignore (run_campaign ~pool ~dir:(fresh_dir "campaign-warmup") warm);
  rm_rf (Filename.concat work_root "campaign-warmup");
  { cases; instances; pool }

(* ------------------------------------------------------------------ *)
(* Runner.run's steps before the sweep                                 *)
(* ------------------------------------------------------------------ *)

(* A timer wraps one named step; the untraced paths pass [untimed]. *)
type timer = { step : 'a. [ `Random | `Heuristics | `Create ] -> (unit -> 'a) -> 'a }

let untimed = { step = (fun _ f -> f ()) }

type prepared = {
  randoms : Sched.Schedule.t array;
  heur : (string * Sched.Schedule.t) list;
  engine : Engine.t;
  pilot_evals : Engine.evaluation array;
  delta : float;
  gamma : float;
}

(* What Runner.run does for one case before its parallel sweep: the
   random schedules drawn from the case seed, the heuristics, the
   engine, and delta/gamma calibrated on the first 20 schedules, whose
   evaluations the sweep reuses. [analyze] runs each pilot evaluation. *)
let prepare ?(timer = untimed) ?(analyze = fun e s -> Engine.analyze e s) (case : Case.t)
    (inst : Case.instance) =
  let { Case.graph; platform; model; _ } = inst in
  let rng = Prng.Xoshiro.create (Int64.add case.Case.seed 0x5EEDL) in
  let count = Experiments.Scale.schedules scale case.Case.paper_schedules in
  let randoms =
    timer.step `Random (fun () ->
        Array.of_list
          (Sched.Random_sched.generate_many ~rng ~graph ~n_procs:case.Case.n_procs ~count))
  in
  let heur =
    timer.step `Heuristics (fun () ->
        List.map (fun (n, f) -> (n, f graph platform)) Runner.heuristics)
  in
  let engine = timer.step `Create (fun () -> Engine.create ~graph ~platform ~model) in
  let pilot_evals = Array.init (Int.min 20 count) (fun i -> analyze engine randoms.(i)) in
  let delta, gamma =
    Metrics.Robustness.calibrate_bounds
      (Array.to_list
         (Array.map
            (fun e ->
              let d = e.Engine.makespan in
              (Distribution.Dist.mean d, Distribution.Dist.std d))
            pilot_evals))
  in
  { randoms; heur; engine; pilot_evals; delta; gamma }

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let lines_of_string s = Array.of_list (String.split_on_char '\n' s)
let lines_of path = lines_of_string (read_file path)

(* Recompute a few rows of each case independently (the first and last
   random schedule, one the run seed picks, and every heuristic) and
   require their CSV lines verbatim at their positions in the campaign's
   checkpoint. *)
let spot_check c ~seed env dir =
  List.iter2
    (fun (label, case) (inst : Case.instance) ->
      let p = prepare case inst in
      let pick = 1 + (abs seed mod (n_schedules - 2)) in
      let picks = List.sort_uniq compare [ 0; pick; n_schedules - 1 ] in
      let entries =
        List.map (fun i -> (1 + i, Runner.Random i, p.randoms.(i))) picks
        @ List.mapi (fun j (n, s) -> (1 + n_schedules + j, Runner.Heuristic n, s)) p.heur
      in
      let row s =
        Metrics.Robustness.to_array
          (Metrics.Robustness.of_engine ~delta:p.delta ~gamma:p.gamma p.engine s)
      in
      let partial =
        {
          Runner.instance = inst;
          delta = p.delta;
          gamma = p.gamma;
          sources = Array.of_list (List.map (fun (_, src, _) -> src) entries);
          rows = Array.of_list (List.map (fun (_, _, s) -> row s) entries);
        }
      in
      let expected = lines_of_string (Experiments.Export.schedules_csv partial) in
      let got = lines_of (Filename.concat dir (case.Case.id ^ ".csv")) in
      List.iteri
        (fun k (line_no, _, _) ->
          check c
            (line_no < Array.length got && String.equal got.(line_no) expected.(k + 1))
            (Printf.sprintf "%s: CSV line %d differs from an independent evaluation" label
               line_no))
        entries)
    env.cases env.instances

let check_manifest c dir cases =
  let ok =
    match Experiments.Manifest.load ~dir with
    | None -> false
    | Some m ->
      List.length m.Experiments.Manifest.entries = List.length cases
      && List.for_all2
           (fun (e : Experiments.Manifest.entry) (_, case) ->
             e.id = case.Case.id && e.seed = case.Case.seed
             && e.schedules = n_schedules
             &&
             match e.status with
             | Experiments.Manifest.Done { rows; attempts } ->
               rows = n_schedules + List.length Runner.heuristics && attempts = 1
             | Experiments.Manifest.Failed _ -> false)
           m.Experiments.Manifest.entries cases
  in
  check c ok "campaign.json does not record every case as done"

(* Digests of the first repetition against the stored reference; the
   inputs do not depend on the run seed, so neither does the reference. *)
let check_reference c got =
  match reference "campaign_fig6" with
  | None -> check c false "reference.json has no campaign_fig6 entry"
  | Some r ->
    List.iter
      (fun (f, d) ->
        check c (ref_string r f = Some d) (Printf.sprintf "%s differs from the reference digest" f))
      got

(* ------------------------------------------------------------------ *)
(* Timed run                                                           *)
(* ------------------------------------------------------------------ *)

let timed ~seed ~seconds env =
  let c = checks () in
  let walls = ref [] and schedules = ref 0 and first = ref None in
  let deadline = now () +. float_of_int seconds in
  let rep = ref 0 in
  while !rep = 0 || now () < deadline do
    let dir = fresh_dir (Printf.sprintf "campaign-%d" !rep) in
    let res, dt = time (fun () -> run_campaign ~pool:env.pool ~dir env.cases) in
    walls := dt :: !walls;
    List.iter
      (fun r -> schedules := !schedules + Array.length r.Experiments.Campaign.rows)
      res.Experiments.Campaign.results;
    check c (res.Experiments.Campaign.failures = []) "a campaign case failed";
    let d = digests dir env.cases in
    (match !first with
    | None ->
      first := Some d;
      check_reference c d;
      check_manifest c dir env.cases;
      spot_check c ~seed env dir
    | Some d0 -> check c (d = d0) "campaign outputs differ between repetitions");
    if !rep > 0 then rm_rf dir;
    incr rep
  done;
  let walls = Array.of_list (List.rev !walls) in
  let d0 = Option.get !first in
  ( c,
    [
      ("throughput_per_s", float_of_int (!schedules / !rep) /. median walls);
      ("latency_p99_ms", 1e3 *. quantile walls 0.99);
    ],
    [
      ("repetitions", jint !rep);
      ("campaign_wall_s", jfloats walls);
      ("schedules", jint !schedules);
      ( "digests",
        Experiments.Json.Obj (List.map (fun (f, d) -> (f, Experiments.Json.Str d)) d0) );
    ] )

(* ------------------------------------------------------------------ *)
(* Traced run: Runner.run and Campaign.run mirrored call by call       *)
(* ------------------------------------------------------------------ *)

(* Per-domain busy time of one parallel sweep. *)
type slot = {
  mutable busy : float;
  mutable analyze : float;
  mutable analyzes : int;
  mutable compute : float;
  mutable computes : int;
  mutable words : float;
}

let new_slot () =
  { busy = 0.; analyze = 0.; analyzes = 0; compute = 0.; computes = 0; words = 0. }

type acc = {
  mutable instantiate : float;
  mutable random : float;
  mutable heuristics : float;
  mutable create : float;
  mutable pilot : float;  (** serial pilot analyses on the calling domain *)
  mutable sweep_analyze : float;  (** analyze busy time inside the sweep *)
  mutable sweep_compute : float;  (** Robustness.compute busy time inside the sweep *)
  mutable export : float;
  mutable correlate : float;
  mutable sweep_wall : float;
  mutable sweep_busy : float;
  mutable imbalance : float list;
  mutable analyze : float;
  mutable analyzes : int;
  mutable compute : float;
  mutable computes : int;
  mutable words : float;
  per_case : (string, float * int) Hashtbl.t;  (** label -> analyze seconds, calls *)
  mutable task_hits : int;
  mutable task_misses : int;
  mutable comm_hits : int;
  mutable comm_misses : int;
  mutable n_cases : int;
}

let new_acc () =
  {
    instantiate = 0.;
    random = 0.;
    heuristics = 0.;
    create = 0.;
    pilot = 0.;
    sweep_analyze = 0.;
    sweep_compute = 0.;
    export = 0.;
    correlate = 0.;
    sweep_wall = 0.;
    sweep_busy = 0.;
    imbalance = [];
    analyze = 0.;
    analyzes = 0;
    compute = 0.;
    computes = 0;
    words = 0.;
    per_case = Hashtbl.create 3;
    task_hits = 0;
    task_misses = 0;
    comm_hits = 0;
    comm_misses = 0;
    n_cases = 0;
  }

let add_analyze acc label dt n =
  let s, k = Option.value (Hashtbl.find_opt acc.per_case label) ~default:(0., 0) in
  Hashtbl.replace acc.per_case label (s +. dt, k + n)

let timed_analyze engine sched =
  let w0 = Gc.minor_words () and t0 = now () in
  let ev = Engine.analyze engine sched in
  (ev, now () -. t0, Gc.minor_words () -. w0)

let mirror_case acc ~pool ~dir ~manifest (label, case) =
  let inst, dt = time (fun () -> Case.instantiate case) in
  acc.instantiate <- acc.instantiate +. dt;
  let add step dt =
    match step with
    | `Random -> acc.random <- acc.random +. dt
    | `Heuristics -> acc.heuristics <- acc.heuristics +. dt
    | `Create -> acc.create <- acc.create +. dt
  in
  let timer =
    {
      step =
        (fun step f ->
          let v, dt = time f in
          add step dt;
          v);
    }
  in
  let analyze engine sched =
    let ev, dt, w = timed_analyze engine sched in
    acc.pilot <- acc.pilot +. dt;
    acc.analyze <- acc.analyze +. dt;
    acc.analyzes <- acc.analyzes + 1;
    acc.words <- acc.words +. w;
    add_analyze acc label dt 1;
    ev
  in
  let { randoms; heur; engine; pilot_evals; delta; gamma } = prepare ~timer ~analyze case inst in
  let count = Array.length randoms in
  let all = Array.append randoms (Array.of_list (List.map snd heur)) in
  let sources =
    Array.init (Array.length all) (fun i ->
        if i < count then Runner.Random i else Runner.Heuristic (fst (List.nth heur (i - count))))
  in
  let slots = Hashtbl.create 4 and slots_mu = Mutex.create () in
  let slot () =
    let id = (Domain.self () :> int) in
    Mutex.protect slots_mu (fun () ->
        match Hashtbl.find_opt slots id with
        | Some s -> s
        | None ->
          let s = new_slot () in
          Hashtbl.add slots id s;
          s)
  in
  let compute (s : slot) ev =
    let t0 = now () in
    let { Engine.makespan; slack } = ev in
    let m = Metrics.Robustness.compute ~delta ~gamma ~makespan_dist:makespan ~slack () in
    s.compute <- s.compute +. (now () -. t0);
    s.computes <- s.computes + 1;
    Metrics.Robustness.to_array m
  in
  let rows, sweep_wall =
    time (fun () ->
        Parallel.Par_array.init ~pool ~chunk_size:16 (Array.length all) (fun i ->
            let s : slot = slot () in
            let t0 = now () in
            let row =
              if i < Array.length pilot_evals then compute s pilot_evals.(i)
              else begin
                let ev, dt, w = timed_analyze engine all.(i) in
                s.analyze <- s.analyze +. dt;
                s.analyzes <- s.analyzes + 1;
                s.words <- s.words +. w;
                compute s ev
              end
            in
            s.busy <- s.busy +. (now () -. t0);
            row))
  in
  let busy = ref 0. and max_busy = ref 0. and sweep_analyze = ref 0. and sweep_n = ref 0 in
  Hashtbl.iter
    (fun _ (s : slot) ->
      busy := !busy +. s.busy;
      max_busy := Float.max !max_busy s.busy;
      sweep_analyze := !sweep_analyze +. s.analyze;
      sweep_n := !sweep_n + s.analyzes;
      acc.analyze <- acc.analyze +. s.analyze;
      acc.analyzes <- acc.analyzes + s.analyzes;
      acc.sweep_analyze <- acc.sweep_analyze +. s.analyze;
      acc.sweep_compute <- acc.sweep_compute +. s.compute;
      acc.compute <- acc.compute +. s.compute;
      acc.computes <- acc.computes + s.computes;
      acc.words <- acc.words +. s.words)
    slots;
  add_analyze acc label !sweep_analyze !sweep_n;
  acc.sweep_wall <- acc.sweep_wall +. sweep_wall;
  acc.sweep_busy <- acc.sweep_busy +. !busy;
  if !busy > 0. then
    acc.imbalance <- (!max_busy /. (!busy /. float_of_int (Parallel.Pool.size pool))) :: acc.imbalance;
  let st = Engine.stats engine in
  acc.task_hits <- acc.task_hits + st.Engine.task_hits;
  acc.task_misses <- acc.task_misses + st.Engine.task_misses;
  acc.comm_hits <- acc.comm_hits + st.Engine.comm_hits;
  acc.comm_misses <- acc.comm_misses + st.Engine.comm_misses;
  let result = { Runner.instance = inst; delta; gamma; sources; rows } in
  let (), dt =
    time (fun () ->
        ignore
          (Experiments.Export.write_file ~dir ~name:(case.Case.id ^ ".csv")
             (Experiments.Export.schedules_csv result));
        manifest :=
          !manifest
          @ [
              {
                Experiments.Manifest.id = case.Case.id;
                seed = case.Case.seed;
                schedules = count;
                status = Experiments.Manifest.Done { rows = Array.length rows; attempts = 1 };
              };
            ];
        Experiments.Manifest.save ~dir
          {
            Experiments.Manifest.scale = scale.Experiments.Scale.name;
            slack_mode = Experiments.Manifest.slack_mode_name None;
            entries = !manifest;
          })
  in
  acc.export <- acc.export +. dt;
  acc.n_cases <- acc.n_cases + 1;
  (sources, rows)

let mirror acc ~pool ~dir cases =
  let manifest = ref [] in
  let results = List.map (mirror_case acc ~pool ~dir ~manifest) cases in
  let _, dt =
    time (fun () ->
        Experiments.Correlate.mean_std
          (List.map
             (fun (sources, rows) ->
               Experiments.Correlate.matrix (Runner.random_rows_of ~sources ~rows))
             results))
  in
  acc.correlate <- acc.correlate +. dt

let traced ~seed:_ ~seconds env =
  let c = checks () in
  let acc = new_acc () in
  let plain = ref 0. and traced_wall = ref 0. and reps = ref 0 in
  let deadline = now () +. float_of_int seconds in
  while !reps = 0 || now () < deadline do
    let dir_plain = fresh_dir "campaign-plain" and dir_traced = fresh_dir "campaign-traced" in
    let _, dt = time (fun () -> run_campaign ~pool:env.pool ~dir:dir_plain env.cases) in
    plain := !plain +. dt;
    let (), dt = time (fun () -> mirror acc ~pool:env.pool ~dir:dir_traced env.cases) in
    traced_wall := !traced_wall +. dt;
    check c
      (digests dir_plain env.cases = digests dir_traced env.cases)
      "traced campaign outputs differ from the untraced run";
    incr reps
  done;
  let reps_f = float_of_int !reps and cases_f = float_of_int acc.n_cases in
  let p = float_of_int (Parallel.Pool.size env.pool) in
  let per_call s n = if n = 0 then 0. else s /. float_of_int n in
  (* layer self times per campaign; a parallel sweep's busy time is
     divided by the pool size, so idle and scheduling overhead stay in
     the residue *)
  let layers =
    [
      ("workloads", acc.instantiate);
      ("sched", acc.random +. acc.heuristics);
      ("makespan", acc.create +. acc.pilot +. (acc.sweep_analyze /. p));
      ("metrics", acc.sweep_compute /. p);
      ("experiments", acc.export +. acc.correlate);
    ]
  in
  let layers = List.map (fun (l, s) -> (l, 1e3 *. s /. reps_f)) layers in
  let unattributed =
    (1e3 *. !traced_wall /. reps_f) -. List.fold_left (fun a (_, v) -> a +. v) 0. layers
  in
  ( c,
    [
      ("workloads.instantiate_ms", 1e3 *. acc.instantiate /. cases_f);
      ("sched.random_ms", 1e3 *. acc.random /. cases_f);
      ("sched.heuristics_ms", 1e3 *. acc.heuristics /. cases_f);
      ("makespan.analyze_ms", 1e3 *. per_call acc.analyze acc.analyzes);
      ("makespan.analyze_kwords", 1e-3 *. per_call acc.words acc.analyzes);
      ("makespan.task_hit_ratio", ratio acc.task_hits (acc.task_hits + acc.task_misses));
      ("makespan.comm_hit_ratio", ratio acc.comm_hits (acc.comm_hits + acc.comm_misses));
      ("metrics.compute_us", 1e6 *. per_call acc.compute acc.computes);
      ("experiments.correlate_ms", 1e3 *. acc.correlate /. reps_f);
      ("experiments.export_ms", 1e3 *. acc.export /. cases_f);
      ("parallel.efficiency", acc.sweep_busy /. (p *. acc.sweep_wall));
      ("parallel.imbalance", mean (Array.of_list acc.imbalance));
      ("obs.trace_overhead_pct", 100. *. (!traced_wall -. !plain) /. !plain);
      ("campaign_fig6.unattributed_ms", unattributed);
    ]
    @ Hashtbl.fold
        (fun label (s, n) l -> ("makespan.analyze_ms." ^ label, 1e3 *. per_call s n) :: l)
        acc.per_case [],
    [
      ("repetitions", jint !reps);
      ("traced_wall_ms", jnum (1e3 *. !traced_wall /. reps_f));
      ("layers_ms", Experiments.Json.Obj (List.map (fun (l, v) -> (l, jnum v)) layers));
    ] )
