(* Simulated annealing / stochastic local search over schedules
   (DESIGN.md §17). The hot loop probes one-task reassigns and task
   swaps through a single incremental engine session
   ([Engine.reevaluate_any ~commit:false]) and installs an accepted
   probe with [Engine.accept], so every move costs one dirty-cone replay
   whether it is accepted or not. Priority-perturbation moves rebuild a
   schedule through the list-scheduler driver with a jittered rank table
   and probe it through the same session ([Engine.reevaluate_schedule]):
   the replay covers the tasks the rebuild moved or reordered and their
   descendants. *)

module Engine = Makespan.Engine

type cooling = Geometric of float option | Adaptive of { target : float; window : int }

type policy = Hill_climb | Metropolis of { t0 : float option; cooling : cooling }

type move_mix = { reassign : int; swap : int; priority : int }

type config = {
  objective : Objective.t;
  steps : int;
  seed : int64;
  policy : policy;
  restarts : int;
  init : string;
  mix : move_mix;
  max_cone : int option;
  delta : float option;
  gamma : float option;
  axis : Archive.axis;
}

let default =
  {
    objective = Objective.Makespan_std;
    steps = 400;
    seed = 0L;
    policy = Metropolis { t0 = None; cooling = Geometric None };
    restarts = 0;
    init = "HEFT";
    mix = { reassign = 12; swap = 3; priority = 1 };
    max_cone = None;
    delta = None;
    gamma = None;
    axis = `Sigma;
  }

type stats = {
  steps_done : int;
  probes : int;
  accepted : int;
  infeasible : int;
  priority_moves : int;
  restarts_done : int;
  reevals : int;
  reeval_incremental : int;
  reeval_full : int;
  full_evals : int;
}

let incremental_fraction s =
  let work = s.reevals + s.full_evals in
  if work = 0 then nan else float_of_int s.reeval_incremental /. float_of_int work

type outcome = {
  best : Sched.Schedule.t;
  best_eval : Engine.evaluation;
  best_objective : float;
  init_objective : float;
  bounds : Objective.ctx;
  frontier : Archive.t;
  stats : stats;
  interrupted : bool;
}

let m_steps = Obs.Metrics.counter "search.steps"
let m_probes = Obs.Metrics.counter "search.probes"
let m_accepted = Obs.Metrics.counter "search.accepted"
let m_infeasible = Obs.Metrics.counter "search.infeasible"
let m_frontier_inserts = Obs.Metrics.counter "search.frontier_inserts"

(* Priority-perturbation moves always replay the HEFT-family driver
   (upward ranks × EFT × insertion): the jitter explores rank orderings,
   not selection rules, and keeping the replay spec fixed makes the move
   independent of which scheduler seeded the search. *)
let replay_spec = Sched.Heft.spec ()

let point_of ~step ~objective (ev : Engine.evaluation) sched =
  {
    Archive.step;
    em = Distribution.Dist.mean ev.Engine.makespan;
    sigma = Distribution.Dist.std ev.Engine.makespan;
    slack = ev.Engine.slack.Sched.Slack.total;
    objective;
    sched;
  }

let run ?(should_stop = fun () -> false) ~engine ~init config =
  if config.steps < 0 then invalid_arg "Anneal.run: steps must be >= 0";
  if config.restarts < 0 then invalid_arg "Anneal.run: restarts must be >= 0";
  let { reassign = w_re; swap = w_sw; priority = w_pr } = config.mix in
  if w_re < 0 || w_sw < 0 || w_pr < 0 || w_re + w_sw + w_pr = 0 then
    invalid_arg "Anneal.run: move mix weights must be >= 0 and not all zero";
  let graph = Engine.graph engine in
  let platform = Engine.platform engine in
  (* The engine's default cone cutoff is n/2. Search defaults to the
     whole graph, falling back only on non-incremental backends: with
     the session's arrival-sum memo a replay costs less than a fresh
     analyze at every cone size on random30/p8: 9.9–10.6 ms against
     11.1–11.8 ms for cones of 26–30 nodes (BENCH_anneal.json,
     cone_costs). Without the memo the two were level there. *)
  let max_cone =
    match config.max_cone with Some c -> c | None -> Dag.Graph.n_tasks graph
  in
  let engine_before = Engine.stats engine in
  let full_evals = ref 0 in
  let start_session sched =
    incr full_evals;
    Engine.start_session engine sched
  in
  let session = ref (start_session init) in
  let init_eval = Engine.session_evaluation !session in
  let bounds =
    let em0 = Distribution.Dist.mean init_eval.Engine.makespan in
    let sigma0 = Distribution.Dist.std init_eval.Engine.makespan in
    let d0, g0 = Metrics.Robustness.calibrate_bounds [ (em0, sigma0) ] in
    {
      Objective.delta = (match config.delta with Some d -> d | None -> d0);
      gamma = (match config.gamma with Some g -> g | None -> g0);
    }
  in
  let value ev = Objective.value config.objective bounds ev in
  let init_objective = value init_eval in
  let frontier = Archive.create ~axis:config.axis in
  let offer ~step ev sched objective =
    if Archive.offer frontier (point_of ~step ~objective ev sched) then
      Obs.Metrics.incr m_frontier_inserts
  in
  offer ~step:0 init_eval init init_objective;
  let best = ref init and best_eval = ref init_eval and best_obj = ref init_objective in
  let cur_obj = ref init_objective in
  let steps_done = ref 0
  and probes = ref 0
  and accepted = ref 0
  and infeasible = ref 0
  and priority_moves = ref 0
  and restarts_done = ref 0 in
  let interrupted = ref false in
  let progress = Obs.Progress.create ~total:config.steps "optimize" in
  (* base rank table for priority jitter, computed once *)
  let base_priority = (Sched.List_scheduler.prepare replay_spec graph platform).priority in
  let prio_scale =
    let lo = Array.fold_left Float.min infinity base_priority in
    let hi = Array.fold_left Float.max neg_infinity base_priority in
    let r = hi -. lo in
    if r > 0. then r else Float.max 1. (Float.abs hi)
  in
  let root = Prng.Splitmix.create config.seed in
  let runs = config.restarts + 1 in
  let chunk r =
    (config.steps / runs) + if r < config.steps mod runs then 1 else 0
  in
  let accept_worse rng d t =
    t > 0. && Prng.Splitmix.next_float rng < exp (-.d /. t)
  in
  (try
     for r = 0 to runs - 1 do
       if not !interrupted then begin
         if r > 0 then begin
           incr restarts_done;
           session := start_session !best;
           cur_obj := !best_obj
         end;
         let run_sm = Prng.Splitmix.split root in
         let move_rng = Prng.Xoshiro.of_splitmix (Prng.Splitmix.split run_sm) in
         let accept_rng = Prng.Splitmix.split run_sm in
         let jitter_rng = Prng.Xoshiro.of_splitmix (Prng.Splitmix.split run_sm) in
         let steps_this_run = chunk r in
         let t0 =
           match config.policy with
           | Hill_climb -> 0.
           | Metropolis { t0 = Some t; _ } -> t
           | Metropolis { t0 = None; _ } -> 0.05 *. Float.max 1e-12 (Float.abs !cur_obj)
         in
         let auto_alpha =
           if steps_this_run <= 1 then 1.
           else exp (log 1e-3 /. float_of_int (steps_this_run - 1))
         in
         let alpha =
           match config.policy with
           | Hill_climb -> 1.
           | Metropolis { cooling = Geometric (Some a); _ } -> a
           | Metropolis { cooling = Geometric None | Adaptive _; _ } -> auto_alpha
         in
         let temp = ref t0 in
         let window_accepted = ref 0 and window_steps = ref 0 in
         let step = ref 0 in
         while !step < steps_this_run && not !interrupted do
           if should_stop () then interrupted := true
           else begin
             incr step;
             incr steps_done;
             Fault.cut "search.step";
             Obs.Metrics.incr m_steps;
             Obs.Progress.tick progress;
             let total_w = w_re + w_sw + w_pr in
             let draw = Prng.Xoshiro.int move_rng total_w in
             let candidate =
               if draw < w_re then begin
                 let m = Sched.Neighbor.random ~rng:move_rng (Engine.session_schedule !session) in
                 if Sched.Neighbor.is_noop (Engine.session_schedule !session) m then None
                 else Some (`Session (Sched.Neighbor.Reassign m))
               end
               else if draw < w_re + w_sw then
                 match Sched.Neighbor.random_swap ~rng:move_rng (Engine.session_schedule !session) with
                 | None -> None
                 | Some s -> Some (`Session (Sched.Neighbor.Swap s))
               else begin
                 let priority =
                   Array.map
                     (fun p ->
                       p +. (0.3 *. prio_scale *. ((2. *. Prng.Xoshiro.next_float jitter_rng) -. 1.)))
                     base_priority
                 in
                 let sched' = Sched.List_scheduler.run_ranked replay_spec ~priority graph platform in
                 if
                   Sched.Schedule.to_string sched'
                   = Sched.Schedule.to_string (Engine.session_schedule !session)
                 then None
                 else Some (`Rebuild sched')
               end
             in
             (* moves are validated against [Schedule.validate] before any
                probe touches the session *)
             let candidate =
               match candidate with
               | Some (`Session mv) -> (
                 match Sched.Neighbor.apply_any_opt (Engine.session_schedule !session) mv with
                 | None -> None
                 | Some sched' -> (
                   match Sched.Schedule.validate sched' with
                   | Ok () -> Some (`Session mv)
                   | Error _ -> None))
               | Some (`Rebuild sched') -> (
                 match Sched.Schedule.validate sched' with
                 | Ok () -> Some (`Rebuild sched')
                 | Error _ -> None)
               | None -> None
             in
             (match candidate with
             | None ->
               incr infeasible;
               Obs.Metrics.incr m_infeasible
             | Some probe ->
               incr probes;
               Obs.Metrics.incr m_probes;
               let ev =
                 match probe with
                 | `Session mv -> Engine.reevaluate_any ~commit:false ~max_cone !session mv
                 | `Rebuild sched' ->
                   incr priority_moves;
                   Engine.reevaluate_schedule ~max_cone !session sched'
               in
               let obj = value ev in
               let sched' =
                 match probe with
                 | `Session mv -> Sched.Neighbor.apply_any (Engine.session_schedule !session) mv
                 | `Rebuild sched' -> sched'
               in
               offer ~step:!steps_done ev sched' obj;
               let d = obj -. !cur_obj in
               let accept =
                 match config.policy with
                 | Hill_climb -> d < 0.
                 | Metropolis _ -> d <= 0. || accept_worse accept_rng d !temp
               in
               if accept then begin
                 incr accepted;
                 incr window_accepted;
                 Obs.Metrics.incr m_accepted;
                 Engine.accept !session;
                 cur_obj := obj;
                 if obj < !best_obj then begin
                   best := Engine.session_schedule !session;
                   best_eval := ev;
                   best_obj := obj
                 end
               end);
             temp := !temp *. alpha;
             incr window_steps;
             (match config.policy with
             | Metropolis { cooling = Adaptive { target; window }; _ }
               when window > 0 && !window_steps >= window ->
               let rate = float_of_int !window_accepted /. float_of_int !window_steps in
               temp := !temp *. exp (target -. rate);
               window_accepted := 0;
               window_steps := 0
             | _ -> ())
           end
         done
       end
     done
   with exn ->
     Obs.Progress.finish progress;
     raise exn);
  Obs.Progress.finish progress;
  let engine_after = Engine.stats engine in
  let stats =
    {
      steps_done = !steps_done;
      probes = !probes;
      accepted = !accepted;
      infeasible = !infeasible;
      priority_moves = !priority_moves;
      restarts_done = !restarts_done;
      reevals = engine_after.Engine.reevals - engine_before.Engine.reevals;
      reeval_incremental =
        engine_after.Engine.reeval_incremental - engine_before.Engine.reeval_incremental;
      reeval_full = engine_after.Engine.reeval_full - engine_before.Engine.reeval_full;
      full_evals = !full_evals;
    }
  in
  {
    best = !best;
    best_eval = !best_eval;
    best_objective = !best_obj;
    init_objective;
    bounds;
    frontier;
    stats;
    interrupted = !interrupted;
  }

(* ---------------- anneal:... registry specs ---------------- *)

let spec_prefix = "anneal:"

let has_prefix s =
  String.length s >= String.length spec_prefix
  && String.sub s 0 (String.length spec_prefix) = spec_prefix

let float_key = Printf.sprintf "%.17g"

let parse_float ~key s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "invalid %s value %S" key s)

let parse_int ~key s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "invalid %s value %S" key s)

let parse_mix s =
  match String.split_on_char ':' s with
  | [ r; sw; p ] -> (
    match (int_of_string_opt r, int_of_string_opt sw, int_of_string_opt p) with
    | Some reassign, Some swap, Some priority when reassign >= 0 && swap >= 0 && priority >= 0
      -> Ok { reassign; swap; priority }
    | _ -> Error (Printf.sprintf "invalid mix %S (REASSIGN:SWAP:PRIORITY)" s))
  | _ -> Error (Printf.sprintf "invalid mix %S (REASSIGN:SWAP:PRIORITY)" s)

let parse_spec s =
  if not (has_prefix s) then Error (Printf.sprintf "not an anneal spec: %S" s)
  else begin
    let body = String.sub s (String.length spec_prefix) (String.length s - String.length spec_prefix) in
    let parts =
      String.split_on_char ',' (String.map (fun c -> if c = ';' then ',' else c) body)
      |> List.filter (fun p -> String.trim p <> "")
    in
    let ( let* ) = Result.bind in
    let* kvs =
      List.fold_left
        (fun acc part ->
          let* acc = acc in
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "malformed anneal component %S (expected key=value)" part)
          | Some i ->
            let k = String.sub part 0 i and v = String.sub part (i + 1) (String.length part - i - 1) in
            if List.mem_assoc k acc then Error (Printf.sprintf "duplicate anneal component %S" k)
            else Ok (acc @ [ (k, v) ]))
        (Ok []) parts
    in
    let combo_keys = [ "rank"; "select"; "insert"; "tie" ] in
    let known =
      [
        "obj"; "steps"; "seed"; "restarts"; "policy"; "t0"; "alpha"; "target"; "window";
        "init"; "mix"; "max-cone"; "delta"; "gamma"; "axis"; "ul";
      ]
      @ combo_keys
    in
    let* () =
      List.fold_left
        (fun acc (k, _) ->
          let* () = acc in
          if List.mem k known then Ok ()
          else Error (Printf.sprintf "unknown anneal component %S" k))
        (Ok ()) kvs
    in
    let get k = List.assoc_opt k kvs in
    let* objective = match get "obj" with None -> Ok default.objective | Some v -> Objective.parse v in
    let* steps = match get "steps" with None -> Ok default.steps | Some v -> parse_int ~key:"steps" v in
    let* seed =
      match get "seed" with
      | None -> Ok default.seed
      | Some v -> (
        match Int64.of_string_opt v with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "invalid seed value %S" v))
    in
    let* restarts =
      match get "restarts" with None -> Ok default.restarts | Some v -> parse_int ~key:"restarts" v
    in
    let* t0 =
      match get "t0" with None -> Ok None | Some v -> Result.map Option.some (parse_float ~key:"t0" v)
    in
    let* alpha =
      match get "alpha" with
      | None -> Ok None
      | Some v -> Result.map Option.some (parse_float ~key:"alpha" v)
    in
    let* target =
      match get "target" with
      | None -> Ok None
      | Some v -> Result.map Option.some (parse_float ~key:"target" v)
    in
    let* window =
      match get "window" with
      | None -> Ok None
      | Some v -> Result.map Option.some (parse_int ~key:"window" v)
    in
    let* policy =
      match get "policy" with
      | None | Some "metropolis" -> (
        match target with
        | Some t ->
          Ok (Metropolis { t0; cooling = Adaptive { target = t; window = Option.value window ~default:32 } })
        | None -> Ok (Metropolis { t0; cooling = Geometric alpha }))
      | Some "hill" -> Ok Hill_climb
      | Some "adaptive" ->
        Ok
          (Metropolis
             {
               t0;
               cooling =
                 Adaptive
                   {
                     target = Option.value target ~default:0.25;
                     window = Option.value window ~default:32;
                   };
             })
      | Some p -> Error (Printf.sprintf "unknown policy %S (hill|metropolis|adaptive)" p)
    in
    let* init =
      let combo =
        List.filter_map (fun k -> Option.map (fun v -> k ^ "=" ^ v) (get k)) combo_keys
      in
      match (get "init", combo) with
      | Some _, _ :: _ -> Error "anneal spec: give either init= or rank=/select=/... , not both"
      | Some v, [] -> Ok v
      | None, [] -> Ok default.init
      | None, combo -> Ok (String.concat "," combo)
    in
    (* resolve now so the canonical spec names the canonical scheduler *)
    let* init =
      match Sched.Registry.parse init with
      | Ok e -> Ok e.Sched.Registry.name
      | Error e -> Error e
    in
    let* mix = match get "mix" with None -> Ok default.mix | Some v -> parse_mix v in
    let* max_cone =
      match get "max-cone" with
      | None -> Ok None
      | Some v -> Result.map Option.some (parse_int ~key:"max-cone" v)
    in
    let* delta =
      match get "delta" with
      | None -> Ok None
      | Some v -> Result.map Option.some (parse_float ~key:"delta" v)
    in
    let* gamma =
      match get "gamma" with
      | None -> Ok None
      | Some v -> Result.map Option.some (parse_float ~key:"gamma" v)
    in
    let* axis =
      match get "axis" with
      | None | Some "sigma" -> Ok `Sigma
      | Some "slack" -> Ok `Slack
      | Some a -> Error (Printf.sprintf "unknown axis %S (sigma|slack)" a)
    in
    let* ul = match get "ul" with None -> Ok 1.1 | Some v -> parse_float ~key:"ul" v in
    let holds p = Option.fold ~none:true ~some:p in
    if steps < 0 then Error "anneal spec: steps must be >= 0"
    else if restarts < 0 then Error "anneal spec: restarts must be >= 0"
    else if not (holds (fun t -> Float.is_finite t && t > 0.) t0) then
      Error "anneal spec: t0 must be finite and > 0"
    else if not (holds (fun a -> a > 0. && a <= 1.) alpha) then
      Error "anneal spec: alpha must be in (0, 1]"
    else if not (holds (fun t -> t > 0. && t < 1.) target) then
      Error "anneal spec: target must be in (0, 1)"
    else if not (holds (fun w -> w >= 1) window) then
      Error "anneal spec: window must be >= 1"
    else if not (holds (fun m -> m >= 1) max_cone) then
      Error "anneal spec: max-cone must be >= 1"
    else if not (holds (fun d -> Float.is_finite d && d >= 0.) delta) then
      Error "anneal spec: delta must be finite and >= 0"
    else if not (holds (fun g -> Float.is_finite g && g >= 1.) gamma) then
      Error "anneal spec: gamma must be finite and >= 1"
    else if not (Experiments.Case.ul_in_range ul) then
      Error (Printf.sprintf "anneal spec: ul must be in [1, %g]" Experiments.Case.max_ul)
    else
      Ok
        ( {
            objective;
            steps;
            seed;
            policy;
            restarts;
            init;
            mix;
            max_cone;
            delta;
            gamma;
            axis;
          },
          ul )
  end

let canonical_spec c ~ul =
  let buf = Buffer.create 128 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ ";")) fmt in
  Buffer.add_string buf spec_prefix;
  add "obj=%s" (Objective.name c.objective);
  add "steps=%d" c.steps;
  add "seed=%Ld" c.seed;
  if c.restarts <> default.restarts then add "restarts=%d" c.restarts;
  (match c.policy with
  | Hill_climb -> add "policy=hill"
  | Metropolis { t0; cooling } ->
    (match cooling with
    | Geometric alpha ->
      add "policy=metropolis";
      Option.iter (fun a -> add "alpha=%s" (float_key a)) alpha
    | Adaptive { target; window } ->
      add "policy=adaptive";
      add "target=%s" (float_key target);
      add "window=%d" window);
    Option.iter (fun t -> add "t0=%s" (float_key t)) t0);
  (* a composed init is re-emitted as its component keys so the spec
     splits cleanly on ';' *)
  if String.contains c.init '=' then
    List.iter
      (fun part -> if part <> "" then add "%s" part)
      (String.split_on_char ','
         (String.map (fun ch -> if ch = ';' then ',' else ch) c.init))
  else add "init=%s" c.init;
  add "mix=%d:%d:%d" c.mix.reassign c.mix.swap c.mix.priority;
  Option.iter (fun m -> add "max-cone=%d" m) c.max_cone;
  Option.iter (fun d -> add "delta=%s" (float_key d)) c.delta;
  Option.iter (fun g -> add "gamma=%s" (float_key g)) c.gamma;
  (match c.axis with `Sigma -> () | `Slack -> add "axis=slack");
  add "ul=%s" (float_key ul);
  (* drop the trailing separator *)
  String.sub (Buffer.contents buf) 0 (Buffer.length buf - 1)

let entry_of_spec s =
  match parse_spec s with
  | Error e -> Error e
  | Ok (config, ul) ->
    Ok
      {
        Sched.Registry.name = canonical_spec config ~ul;
        aliases = [];
        rank = "anneal";
        select = Objective.name config.objective;
        insert = "-";
        provenance = "simulated annealing over " ^ config.init;
        run =
          (fun graph platform ->
            let model = Workloads.Stochastify.make ~ul () in
            let engine = Makespan.Engine.create ~graph ~platform ~model in
            let init =
              match Sched.Registry.parse config.init with
              | Ok e -> e.Sched.Registry.run graph platform
              | Error e -> invalid_arg ("anneal init scheduler: " ^ e)
            in
            (run ~engine ~init config).best);
      }

let () =
  Sched.Registry.register_extension (fun s ->
      if has_prefix s then Some (entry_of_spec s) else None)
