(* Workload anneal_search: Search.Anneal.run on random30/p8 from HEFT,
   sigma_M objective, default 12:3:1 move mix, a fixed step budget, on
   one domain. The graph is built from [instance_seed]; every repetition
   starts from a fresh engine with its own annealing seed, drawn from
   the run seed, because the cost of a search depends on its trajectory
   (which moves it draws and accepts): a run reports the average of
   many searches, not the luck of one. *)

open Common
module Case = Experiments.Case
module Engine = Makespan.Engine
module Anneal = Search.Anneal

let steps = 300

let heft =
  match Sched.Registry.parse "HEFT" with
  | Ok e -> e.Sched.Registry.run
  | Error m -> failwith m

type env = {
  inst : Case.instance;
  init : Sched.Schedule.t;
  config : Anneal.config;
  seed : int;  (** run seed *)
}

(* The annealing seed of repetition [rep]. *)
let anneal_seed env rep = Int64.(add (mul (of_int env.seed) 1_000_003L) (of_int rep))

let fresh_engine (inst : Case.instance) =
  Engine.create ~graph:inst.Case.graph ~platform:inst.Case.platform ~model:inst.Case.model

let setup seed =
  let case =
    Case.make ~seed:instance_seed ~n_procs:8 ~kind:Case.Random_graph ~n_target:30 ~ul:1.1 ()
  in
  let inst = Case.instantiate case in
  let init = heft inst.Case.graph inst.Case.platform in
  let config = { Anneal.default with Anneal.steps } in
  (* warm-up: a short search grows the heap before anything is timed *)
  ignore (Anneal.run ~engine:(fresh_engine inst) ~init { config with Anneal.steps = 50 });
  { inst; init; config; seed }

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* The facts a repetition must reproduce: best objective bits and the
   frontier CSV digest. *)
let signature (out : Anneal.outcome) =
  ( bits out.Anneal.best_objective,
    Digest.to_hex (Digest.string (Search.Archive.to_csv out.Anneal.frontier)) )

(* The best objective must equal, bit for bit, the objective of a fresh
   full evaluation of the best schedule on a new engine. *)
let check_fresh c env (out : Anneal.outcome) =
  let ev = Engine.analyze (fresh_engine env.inst) out.Anneal.best in
  let v = Search.Objective.value env.config.Anneal.objective out.Anneal.bounds ev in
  check c
    (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float out.Anneal.best_objective))
    "annealing best objective differs from a fresh evaluation of the best schedule"

(* The first repetition of a run with a recorded seed. *)
let check_reference c seed (obj_bits, frontier_md5) =
  match seed_reference "anneal_search" seed with
  | None -> ()
  | Some r ->
    check c
      (ref_string r "best_objective_bits" = Some obj_bits)
      "annealing best objective differs from the reference";
    check c
      (ref_string r "frontier_md5" = Some frontier_md5)
      "annealing frontier CSV differs from the reference digest"

(* Repetition [rep]: one search on a fresh engine. [stamps] receives the
   monotonic time at each step's stop poll, which Anneal.run makes once
   per step. *)
let run_once ?stamps env ~rep =
  let engine = fresh_engine env.inst in
  let should_stop =
    match stamps with
    | None -> fun () -> false
    | Some (a, n) ->
      fun () ->
        if !n < Array.length a then a.(!n) <- now ();
        incr n;
        false
  in
  let config = { env.config with Anneal.seed = anneal_seed env rep } in
  let out, dt = time (fun () -> Anneal.run ~should_stop ~engine ~init:env.init config) in
  (out, dt, engine)

let timed ~seed ~seconds env =
  let c = checks () in
  let rates = ref [] and step_times = ref [] and first = ref None in
  let deadline = now () +. float_of_int seconds in
  let stamps = Array.make (steps + 1) 0. in
  let rep = ref 0 in
  while !rep = 0 || now () < deadline do
    let n = ref 0 in
    let out, dt, _ = run_once ~stamps:(stamps, n) env ~rep:!rep in
    let t_end = now () in
    let done_ = out.Anneal.stats.Anneal.steps_done in
    rates := (float_of_int done_ /. dt) :: !rates;
    for k = 0 to done_ - 1 do
      let next = if k + 1 < done_ then stamps.(k + 1) else t_end in
      step_times := (next -. stamps.(k)) :: !step_times
    done;
    check c (done_ = steps && not out.Anneal.interrupted) "annealing run stopped early";
    check_fresh c env out;
    if !rep = 0 then first := Some (signature out);
    incr rep
  done;
  let s0 = Option.get !first in
  check_reference c seed s0;
  let rates = Array.of_list (List.rev !rates) in
  let step_times = Array.of_list !step_times in
  ( c,
    [
      ("throughput_per_s", median rates);
      ("latency_p99_ms", 1e3 *. quantile step_times 0.99);
    ],
    [
      ("repetitions", jint !rep);
      ("steps_per_s", jfloats rates);
      ("step_samples", jint (Array.length step_times));
      ("step_p50_ms", jnum (1e3 *. median step_times));
      ("best_objective_bits", jstr (fst s0));
      ("frontier_md5", jstr (snd s0));
    ] )

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-call costs of the three kinds of evaluation work a search step
   issues, timed on a warm engine: an uncommitted dirty-cone probe, a
   full evaluation, and a priority-jitter rebuild. *)
let unit_costs env ~seed =
  let { Case.graph; platform; _ } = env.inst in
  let engine = fresh_engine env.inst in
  let session = Engine.start_session engine env.init in
  let base = Engine.session_schedule session in
  let n = Dag.Graph.n_tasks graph in
  let rng = Prng.Xoshiro.create (Int64.of_int (seed + 77)) in
  let probes = ref [] and tries = ref 0 in
  while List.length !probes < 300 && !tries < 3000 do
    incr tries;
    let mv =
      if Prng.Xoshiro.int rng 5 < 4 then
        let m = Sched.Neighbor.random ~rng base in
        if Sched.Neighbor.is_noop base m then None else Some (Sched.Neighbor.Reassign m)
      else Option.map (fun s -> Sched.Neighbor.Swap s) (Sched.Neighbor.random_swap ~rng base)
    in
    let valid mv =
      match Sched.Neighbor.apply_any_opt base mv with
      | Some s' -> Result.is_ok (Sched.Schedule.validate s')
      | None -> false
    in
    match mv with
    | Some mv when valid mv ->
      let t0 = now () in
      ignore (Engine.reevaluate_any ~commit:false ~max_cone:n session mv : Engine.evaluation);
      probes := (now () -. t0) :: !probes
    | _ -> ()
  done;
  let spec = Sched.Heft.spec () in
  let base_priority =
    (Sched.List_scheduler.prepare spec graph platform).Sched.List_scheduler.priority
  in
  let rebuilds =
    Array.init 100 (fun _ ->
        let priority =
          Array.map
            (fun p -> p *. (1. +. (0.1 *. (Prng.Xoshiro.next_float rng -. 0.5))))
            base_priority
        in
        snd
          (time (fun () ->
               ignore (Sched.List_scheduler.run_ranked spec ~priority graph platform))))
  in
  let fulls =
    Array.init 50 (fun _ -> snd (time (fun () -> ignore (Engine.analyze engine env.init))))
  in
  (mean (Array.of_list !probes), mean fulls, mean rebuilds)

let traced ~seed ~seconds env =
  let c = checks () in
  let plain = ref 0. and traced_wall = ref 0. and reps = ref 0 in
  let words = ref 0. and attributed = ref 0. in
  let acc_steps = ref 0 and accepted = ref 0 and incr_share = ref [] in
  let cone = ref 0 and incremental = ref 0 in
  let hits = ref 0 and misses = ref 0 and chits = ref 0 and cmisses = ref 0 in
  let probe, full, rebuild = unit_costs env ~seed in
  let deadline = now () +. float_of_int seconds in
  while !reps = 0 || now () < deadline do
    let out0, dt0, _ = run_once env ~rep:!reps in
    plain := !plain +. dt0;
    let w0 = Gc.minor_words () in
    let out, dt, engine = run_once env ~rep:!reps in
    words := !words +. (Gc.minor_words () -. w0);
    traced_wall := !traced_wall +. dt;
    check c (signature out = signature out0) "traced annealing run differs from the untraced run";
    let st = out.Anneal.stats in
    acc_steps := !acc_steps + st.Anneal.steps_done;
    accepted := !accepted + st.Anneal.accepted;
    incr_share := Anneal.incremental_fraction st :: !incr_share;
    attributed :=
      !attributed
      +. (float_of_int st.Anneal.reevals *. probe)
      +. (float_of_int st.Anneal.full_evals *. full)
      +. (float_of_int st.Anneal.priority_moves *. rebuild);
    let es = Engine.stats engine in
    cone := !cone + es.Engine.reeval_cone_nodes;
    incremental := !incremental + es.Engine.reeval_incremental;
    hits := !hits + es.Engine.task_hits;
    misses := !misses + es.Engine.task_misses;
    chits := !chits + es.Engine.comm_hits;
    cmisses := !cmisses + es.Engine.comm_misses;
    incr reps
  done;
  let reps_f = float_of_int !reps in
  ( c,
    [
      ("sched.rebuild_us", 1e6 *. rebuild);
      ("makespan.probe_us", 1e6 *. probe);
      ("makespan.full_eval_ms", 1e3 *. full);
      ("makespan.cone_nodes_per_reeval", ratio !cone !incremental);
      ("makespan.incremental_share", mean (Array.of_list !incr_share));
      ("makespan.task_hit_ratio", ratio !hits (!hits + !misses));
      ("makespan.comm_hit_ratio", ratio !chits (!chits + !cmisses));
      ("search.accept_ratio", ratio !accepted !acc_steps);
      ("search.kwords_per_step", 1e-3 *. !words /. float_of_int !acc_steps);
      ("obs.trace_overhead_pct", 100. *. (!traced_wall -. !plain) /. !plain);
      ("anneal_search.unattributed_ms", 1e3 *. (!traced_wall -. !attributed) /. reps_f);
    ],
    [
      ("repetitions", jint !reps);
      ("traced_wall_ms", jnum (1e3 *. !traced_wall /. reps_f));
      ("attributed_ms", jnum (1e3 *. !attributed /. reps_f));
    ] )
