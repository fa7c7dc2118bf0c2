(* Workload serve_mixed: an in-process Service.Server (1 worker, 2
   handler domains) fed over loopback on 2 keep-alive connections. An
   open-loop Poisson phase at a fixed rate comes first, then a
   closed-loop capacity phase on the same 2 connections.

   The mix is mostly small full jobs on Cholesky-10 and random-30 cases
   (HEFT plus a few seeded random schedules), with Zipf popularity over
   more batch keys than the 8-engine LRU of a shard holds, plus
   neighbor jobs on random-30 (incremental sessions) and a Spelde-backend
   minority. One GET /metrics scrape per second rides on the same
   connections. Every served body must equal, byte for byte, the
   offline Proto.eval of its job.

   The jobs (cases, random schedules, neighbor moves), the popularity of
   each template and the order in which templates are requested are
   fixed, because each of them moves the cost of a run; the run seed
   draws the arrival times. *)

open Common
module Proto = Service.Proto
module Server = Service.Server
module Client = Service.Client
module Http = Service.Http
module Case = Experiments.Case

(* Frozen parameters of the workload. The open-loop rate is 30 % of the
   closed-loop capacity of this mix, about 150 requests/s on a 2-core
   x86-64 host: at 40 % and 60 % the latencies are mostly queueing and
   moved by a quarter between runs (NOTES.md). At 30 s runs the open
   loop lasts 24 s and sends about 1050 requests, the closed loop 6 s.
   The SLO limit applies to open-loop latency. *)
let open_rate = 44.
let slo_ms = 250.
let conns = 2
let open_share = 0.8
let scrape_period_s = 1.0
let zipf_s = 1.0

type template = {
  job : Proto.job;
  body : string;  (** the job as sent *)
  expected : string;  (** offline Proto.eval of the job *)
  cls : string;  (** traffic class: cholesky, random, neighbor, spelde or cold *)
}

let job ?(backend = Makespan.Engine.Classical) workload schedules =
  {
    Proto.workload;
    ul = 1.1;
    backend;
    schedules;
    slack_mode = `Disjunctive;
    delta = None;
    gamma = None;
    deadline_ms = None;
    trace = None;
  }

let named kind n procs seed = Proto.Named { kind; n; procs; seed }

let expect j =
  match Proto.eval j with Ok b -> b | Error e -> failwith ("serve_mixed job: " ^ e)

let template cls j = { job = j; body = Proto.job_to_json j; expected = expect j; cls }

(* Three one-move neighbors of HEFT on a random-30 case that the service
   accepts: exit tasks moved to a seeded processor, appended. *)
let neighbor_job rng w =
  let j0 = job w [] in
  let graph =
    match Proto.context_of_job j0 with
    | Ok ctx -> ctx.Proto.graph
    | Error e -> failwith e
  in
  let exits = Dag.Graph.exits graph in
  let moves =
    List.init 3 (fun _ ->
        Proto.Neighbor
          {
            base = "HEFT";
            task = exits.(Prng.Xoshiro.int rng (Array.length exits));
            to_ = Prng.Xoshiro.int rng 8;
            at = None;
          })
  in
  job w moves

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.Xoshiro.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Zipf weights over a seeded permutation of [n] items, summing to 1. *)
let zipf rng n =
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  let w = Array.make n 0. in
  Array.iteri (fun rank k -> w.(k) <- 1. /. (float_of_int (rank + 1) ** zipf_s)) perm;
  let total = sum w in
  Array.map (fun x -> x /. total) w

(* The traffic. Hot templates are spread over 7 batch keys (6
   Cholesky-10, 1 random-30; the Spelde and neighbor templates share
   keys with the classical ones, because the batch key is the case
   alone), with Zipf popularity inside each class. Every [cold_every]-th
   request instead goes to the next of 3 cold random-30 keys in turn,
   10 keys in all against the 8-engine LRU of the shard. The cold keys
   are random-30 cases, not Cholesky-10 ones: a Cholesky admission costs
   about 100 ms on the single worker, and cold Cholesky keys made the
   capacity and the latencies vary by a fifth or more between runs
   (NOTES.md). *)
let cold_every = 25

let hot_classes rng =
  let key_seed i = Int64.add instance_seed (Int64.of_int i) in
  let chol i = named Case.Cholesky 10 3 (key_seed i) in
  let rnd i = named Case.Random_graph 30 8 (key_seed (100 + i)) in
  let full k = [ Proto.Heuristic "HEFT"; Proto.Random { count = k; seed = instance_seed } ] in
  ( [
      (0.70, List.init 6 (fun i -> template "cholesky" (job (chol i) (full 2))));
      (0.08, [ template "random" (job (rnd 0) (full 1)) ]);
      (0.07, List.init 2 (fun _ -> template "neighbor" (neighbor_job rng (rnd 0))));
      ( 0.15,
        List.init 2 (fun i ->
            template "spelde" (job ~backend:Makespan.Engine.Spelde (chol i) (full 2))) );
    ],
    List.init 3 (fun i -> template "cold" (job (rnd (1 + i)) (full 1))) )

(* Hot templates (with their share of the hot requests) first, then the
   cold ones, and every template's share of all requests. *)
let templates () =
  let rng = Prng.Xoshiro.create 0x5E4EL in
  let classes, cold = hot_classes rng in
  let hot_share = 1. -. (1. /. float_of_int cold_every) in
  let hot_weights =
    List.concat_map
      (fun (share, ts) ->
        Array.to_list (Array.map (fun w -> share *. w) (zipf rng (List.length ts))))
      classes
  in
  let cold_weight = 1. /. float_of_int (cold_every * List.length cold) in
  ( Array.of_list (List.concat_map snd classes @ cold),
    Array.of_list hot_weights,
    Array.of_list
      (List.map (fun w -> hot_share *. w) hot_weights @ List.map (fun _ -> cold_weight) cold) )

(* Hot requests per [period] in proportion to the hot weights (largest
   remainder). *)
let period = 1000

let hot_counts weights =
  let exact = Array.map (fun w -> w *. float_of_int period) weights in
  let counts = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let by_rest = Array.init (Array.length weights) Fun.id in
  let rest k = exact.(k) -. Float.floor exact.(k) in
  Array.stable_sort (fun a b -> Float.compare (rest b) (rest a)) by_rest;
  for i = 0 to period - Array.fold_left ( + ) 0 counts - 1 do
    counts.(by_rest.(i)) <- counts.(by_rest.(i)) + 1
  done;
  counts

(* The request sequence, [n] template indices, the same on every run:
   the hot requests in smooth weighted round robin, which spreads each
   template's requests evenly, and the cold ones every [cold_every]-th.
   Every hot key then recurs within [cold_every] requests and stays in
   the LRU, while each cold request finds its engine evicted: exactly
   one LRU miss per [cold_every] requests, never two close together. A
   run's cost and tail latency therefore do not depend on how often the
   rarest keys happen to come up, or on misses arriving back to back. *)
let deck counts ~n_cold n =
  let n_hot = Array.length counts in
  let current = Array.make n_hot 0 in
  let next_hot () =
    Array.iteri (fun k c -> current.(k) <- current.(k) + c) counts;
    let best = ref 0 in
    Array.iteri (fun k x -> if x > current.(!best) then best := k) current;
    current.(!best) <- current.(!best) - period;
    !best
  in
  Array.init n (fun i ->
      if (i + 1) mod cold_every = 0 then n_hot + (i / cold_every mod n_cold) else next_hot ())

type env = {
  server : Server.t;
  port : int;
  templates : template array;
  weights : float array;  (** each template's share of the requests *)
  counts : int array;  (** hot requests per template in each period *)
  seed : int;
}

let config =
  { Server.default_config with Server.port = 0; conn_domains = conns; workers = 1 }

let post client body =
  match Client.post client "/eval" body with
  | Ok r when r.Http.status = 200 -> Ok r.Http.body
  | Ok r -> Error (Printf.sprintf "HTTP %d" r.Http.status)
  | Error e -> Error (Http.error_to_string e)

let setup seed =
  let templates, hot_weights, weights = templates () in
  let counts = hot_counts hot_weights in
  let server = Server.start config in
  let port = Server.port server in
  (* warm-up: every template once, the cold ones first, which fills the
     caches and leaves the hot keys in the LRU as the sequence expects *)
  let client = Client.connect ~port () in
  let n_hot = Array.length counts in
  Array.iter
    (fun t ->
      match post client t.body with
      | Ok b when String.equal b t.expected -> ()
      | _ -> failwith "serve_mixed: warm-up response differs from Proto.eval")
    (Array.append
       (Array.sub templates n_hot (Array.length templates - n_hot))
       (Array.sub templates 0 n_hot));
  Client.close client;
  { server; port; templates; weights; counts; seed }

let dispose env = Server.stop env.server
let n_cold env = Array.length env.templates - Array.length env.counts

(* ------------------------------------------------------------------ *)
(* Load phases                                                         *)
(* ------------------------------------------------------------------ *)

type event =
  | Eval of int  (** template index *)
  | Scrape

(* Poisson arrivals at [open_rate], as offsets from the phase start. *)
let arrivals env ~duration =
  let rng = Prng.Xoshiro.create (Int64.of_int (0xA771 + env.seed)) in
  let out = ref [] and t = ref 0. in
  let continue = ref true in
  while !continue do
    t := !t -. (log (1. -. Prng.Xoshiro.next_float rng) /. open_rate);
    if !t >= duration then continue := false else out := !t :: !out
  done;
  List.rev !out

(* The open-loop schedule: the arrivals take the first templates of
   [seq], plus one scrape per [scrape_period_s]. *)
let schedule offsets seq ~duration =
  let evals = List.mapi (fun i t -> (t, Eval seq.(i))) offsets in
  let scrapes =
    List.init (int_of_float (duration /. scrape_period_s)) (fun k ->
        (float_of_int (k + 1) *. scrape_period_s, Scrape))
  in
  let all = Array.of_list (evals @ scrapes) in
  Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) all;
  all

type open_result = {
  latency : float array;  (** per event, from the scheduled send, s *)
  lag : float array;  (** actual send minus scheduled send, s *)
  ok : bool array;
}

let open_phase env events =
  let n = Array.length events in
  let r = { latency = Array.make n 0.; lag = Array.make n 0.; ok = Array.make n false } in
  let cursor = Atomic.make 0 in
  let t_start = now () +. 0.05 in
  let worker () =
    let client = Client.connect ~port:env.port () in
    let rec go () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        let offset, ev = events.(i) in
        let target = t_start +. offset in
        let t = now () in
        if target > t then Unix.sleepf (target -. t);
        r.lag.(i) <- now () -. target;
        (match ev with
        | Eval k ->
          let t0 = target in
          let res = post client env.templates.(k).body in
          r.latency.(i) <- now () -. t0;
          r.ok.(i) <- (match res with Ok b -> String.equal b env.templates.(k).expected | Error _ -> false)
        | Scrape ->
          let t0 = now () in
          let res = Client.get client "/metrics" in
          r.latency.(i) <- now () -. t0;
          r.ok.(i) <-
            (match res with
            | Ok resp ->
              resp.Http.status = 200 && Result.is_ok (Experiments.Json.parse resp.Http.body)
            | Error _ -> false));
        go ()
      end
    in
    go ();
    Client.close client
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  r

(* Closed loop: each connection sends the next job of [seq], from
   [first] on, as soon as its last one returns, until [duration] has
   passed. *)
let closed_phase env seq ~first ~duration =
  let cursor = Atomic.make first in
  let t_end = now () +. duration in
  let results = Array.make conns (0, 0, []) in
  let worker slot =
    let client = Client.connect ~port:env.port () in
    let done_ = ref 0 and bad = ref 0 and lat = ref [] in
    while now () < t_end do
      let i = Atomic.fetch_and_add cursor 1 in
      let t = env.templates.(seq.(i mod Array.length seq)) in
      let t0 = now () in
      (match post client t.body with
      | Ok b when String.equal b t.expected -> incr done_
      | _ -> incr bad);
      lat := (now () -. t0) :: !lat
    done;
    Client.close client;
    results.(slot) <- (!done_, !bad, !lat)
  in
  let t0 = now () in
  List.iter Thread.join (List.init conns (fun slot -> Thread.create worker slot));
  let wall = now () -. t0 in
  (Array.to_list results, wall)

type phases = {
  events : (float * event) array;
  opened : open_result;
  closed_done : int;
  closed_bad : int;
  closed_lat : float array;
  closed_wall : float;
  before : Server.stats;
  after : Server.stats;
}

let run_phases env ~seconds =
  Obs.Metrics.reset ();
  let before = Server.stats env.server in
  let d_open = open_share *. float_of_int seconds in
  let d_closed = float_of_int seconds -. d_open in
  (* one sequence for both phases, so the closed loop continues the
     rotation of cold keys where the open loop left it *)
  let offsets = arrivals env ~duration:d_open in
  let n_open = List.length offsets in
  let seq = deck env.counts ~n_cold:(n_cold env) (n_open + int_of_float (500. *. d_closed)) in
  let events = schedule offsets seq ~duration:d_open in
  let opened = open_phase env events in
  let rs, closed_wall = closed_phase env seq ~first:n_open ~duration:d_closed in
  let after = Server.stats env.server in
  let closed_done = List.fold_left (fun a (d, _, _) -> a + d) 0 rs in
  let closed_bad = List.fold_left (fun a (_, b, _) -> a + b) 0 rs in
  let closed_lat = Array.of_list (List.concat_map (fun (_, _, l) -> l) rs) in
  { events; opened; closed_done; closed_bad; closed_lat; closed_wall; before; after }

let select p f =
  let out = ref [] in
  Array.iteri
    (fun i (_, ev) -> if f ev then out := p.opened.latency.(i) :: !out)
    p.events;
  Array.of_list !out

let is_eval = function Eval _ -> true | Scrape -> false
let is_scrape = function Scrape -> true | Eval _ -> false

(* Failed, refused or wrong responses count toward [failed]. *)
let tally c p =
  Array.iteri
    (fun i (_, ev) ->
      check c p.opened.ok.(i)
        (match ev with
        | Eval k -> Printf.sprintf "open-loop response to template %d differs or failed" k
        | Scrape -> "GET /metrics failed"))
    p.events;
  for _ = 1 to p.closed_done do
    check c true ""
  done;
  for _ = 1 to p.closed_bad do
    check c false "closed-loop response differs or failed"
  done;
  check c (p.after.Server.rejected_full = p.before.Server.rejected_full) "server refused jobs"

let timed ~seed:_ ~seconds env =
  let c = checks () in
  let p = run_phases env ~seconds in
  tally c p;
  let lat = select p is_eval in
  let within =
    Array.fold_left (fun a (l, ok) -> if ok && l *. 1e3 <= slo_ms then a + 1 else a) 0
      (Array.of_list
         (List.filter_map Fun.id
            (Array.to_list
               (Array.mapi
                  (fun i (_, ev) ->
                    if is_eval ev then Some (p.opened.latency.(i), p.opened.ok.(i)) else None)
                  p.events))))
  in
  let lag = Array.mapi (fun i _ -> p.opened.lag.(i)) p.events in
  (* the slowest open-loop requests, to tell where a tail comes from *)
  let tail =
    let idx = Array.init (Array.length p.events) Fun.id in
    Array.sort (fun a b -> Float.compare p.opened.latency.(b) p.opened.latency.(a)) idx;
    List.map
      (fun i ->
        let at, ev = p.events.(i) in
        Experiments.Json.Obj
          [
            ("at_s", jnum at);
            ("class", jstr (match ev with Eval k -> env.templates.(k).cls | Scrape -> "scrape"));
            ("lag_ms", jnum (1e3 *. p.opened.lag.(i)));
            ("latency_ms", jnum (1e3 *. p.opened.latency.(i)));
          ])
      (List.filteri (fun r _ -> r < 12) (Array.to_list idx))
  in
  ( c,
    [
      ("throughput_per_s", float_of_int p.closed_done /. p.closed_wall);
      ("latency_p99_ms", 1e3 *. quantile lat 0.99);
    ],
    [
      ("open_loop_requests", jint (Array.length lat));
      ("open_loop_p50_ms", jnum (1e3 *. median lat));
      ("open_rate_per_s", jnum open_rate);
      ("slo_ms", jnum slo_ms);
      ("slo_share", jnum (ratio within (Array.length lat)));
      ("generator_lag_p99_ms", jnum (1e3 *. quantile lag 0.99));
      ("closed_loop_requests", jint p.closed_done);
      ("closed_loop_p50_ms", jnum (1e3 *. median p.closed_lat));
      ("scrape_p50_ms", jnum (1e3 *. median (select p is_scrape)));
      ( "lru_miss_ratio",
        jnum
          (ratio
             (p.after.Server.engines_created - p.before.Server.engines_created)
             (p.after.Server.jobs_done - p.before.Server.jobs_done)) );
      ("open_loop_slowest", Experiments.Json.Arr tail);
    ] )

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Every shard's [service.stage_seconds{stage=...}] histogram merged. *)
let stage_hist snap stage =
  List.fold_left
    (fun acc (name, h) ->
      match Obs.Openmetrics.split_name name with
      | "service.stage_seconds", labels when List.assoc_opt "stage" labels = Some stage -> (
        match acc with
        | None -> Some h
        | Some m ->
          Some
            {
              m with
              Obs.Metrics.counts = Array.mapi (fun i x -> x + h.Obs.Metrics.counts.(i)) m.Obs.Metrics.counts;
              total = m.Obs.Metrics.total + h.Obs.Metrics.total;
              sum = m.Obs.Metrics.sum +. h.Obs.Metrics.sum;
            })
      | _ -> acc)
    None snap.Obs.Metrics.histograms

(* The layers of one request, driven offline: decode, admit (context
   and engine), a run_job on the cold engine, one on the warm engine,
   and a full analyze of the HEFT schedule. [timer] wraps each call. *)
type layer = [ `Decode | `Admit | `Cold | `Warm | `Analyze ]

type timer = { call : 'a. layer -> (unit -> 'a) -> 'a }

let offline_request timer (t : template) =
  let j = timer.call `Decode (fun () -> Result.get_ok (Proto.job_of_json t.body)) in
  let ctx, engine =
    timer.call `Admit (fun () ->
        let ctx = Result.get_ok (Proto.context_of_job j) in
        ( ctx,
          Makespan.Engine.create ~graph:ctx.Proto.graph ~platform:ctx.Proto.platform
            ~model:ctx.Proto.model ))
  in
  ignore (timer.call `Cold (fun () -> Proto.run_job ~engine j));
  let body = timer.call `Warm (fun () -> Proto.run_job ~engine j) in
  if not (String.equal body t.expected) then failwith "offline run_job differs from Proto.eval";
  let sched = Wl_anneal.heft ctx.Proto.graph ctx.Proto.platform in
  ignore (timer.call `Analyze (fun () -> Makespan.Engine.analyze engine sched));
  Makespan.Engine.stats engine

(* Every template once without timers, then once with a timer around
   each layer. Returns popularity-weighted means per layer and the
   timers' overhead over the plain pass, and each template's costs. *)
let offline env =
  let untimed = { call = (fun _ f -> f ()) } in
  let plain_pass () = Array.iter (fun t -> ignore (offline_request untimed t)) env.templates in
  (* the first pass after the load phases pays for their garbage, so
     only the second is compared with the timed pass *)
  plain_pass ();
  let (), plain = time plain_pass in
  let layers = [ `Decode; `Admit; `Cold; `Warm; `Analyze ] in
  let cost = List.map (fun l -> (l, Array.make (Array.length env.templates) 0.)) layers in
  let hits = ref 0 and misses = ref 0 and comm_hits = ref 0 and comm_misses = ref 0 in
  let (), traced =
    time (fun () ->
        Array.iteri
          (fun k t ->
            let timer =
              {
                call =
                  (fun l f ->
                    let v, dt = time f in
                    (List.assoc l cost).(k) <- dt;
                    v);
              }
            in
            let st = offline_request timer t in
            hits := !hits + st.Makespan.Engine.task_hits;
            misses := !misses + st.Makespan.Engine.task_misses;
            comm_hits := !comm_hits + st.Makespan.Engine.comm_hits;
            comm_misses := !comm_misses + st.Makespan.Engine.comm_misses)
          env.templates)
  in
  let weighted l keep =
    let s = ref 0. and w = ref 0. in
    Array.iteri
      (fun k x ->
        if keep env.templates.(k) then begin
          s := !s +. (env.weights.(k) *. x);
          w := !w +. env.weights.(k)
        end)
      (List.assoc l cost);
    if !w = 0. then 0. else !s /. !w
  in
  let all _ = true and neighbor t = t.cls = "neighbor" in
  let per_template =
    Array.to_list
      (Array.mapi
         (fun k t ->
           Experiments.Json.Obj
             [
               ("class", jstr t.cls);
               ("weight", jnum env.weights.(k));
               ("admit_ms", jnum (1e3 *. (List.assoc `Admit cost).(k)));
               ("run_job_ms", jnum (1e3 *. (List.assoc `Warm cost).(k)));
             ])
         env.templates)
  in
  ( [
      ("service.decode_us", 1e6 *. weighted `Decode all);
      ("service.admit_ms", 1e3 *. weighted `Admit all);
      ("service.run_job_full_ms", 1e3 *. weighted `Warm (fun t -> not (neighbor t)));
      ("service.run_job_neighbor_ms", 1e3 *. weighted `Warm neighbor);
      ("makespan.analyze_ms", 1e3 *. weighted `Analyze all);
      ("makespan.task_hit_ratio", ratio !hits (!hits + !misses));
      ("makespan.comm_hit_ratio", ratio !comm_hits (!comm_hits + !comm_misses));
      ("obs.trace_overhead_pct", 100. *. (traced -. plain) /. plain);
    ],
    Experiments.Json.Arr per_template )

let traced ~seed:_ ~seconds env =
  let c = checks () in
  let p = run_phases env ~seconds in
  tally c p;
  let snap = Obs.Metrics.snapshot () in
  let jobs = p.after.Server.jobs_done - p.before.Server.jobs_done in
  let stage_values, stage_sums =
    List.fold_left
      (fun (vals, sums) s ->
        match stage_hist snap s with
        | Some h when h.Obs.Metrics.total > 0 ->
          ( (Printf.sprintf "service.stage_%s_p50_ms" s, 1e3 *. Obs.Metrics.hist_quantile h 0.5)
            :: (Printf.sprintf "service.stage_%s_p99_ms" s, 1e3 *. Obs.Metrics.hist_quantile h 0.99)
            :: vals,
            (s, h.Obs.Metrics.sum) :: sums )
        | _ -> (vals, sums))
      ([], []) stages
  in
  let per_request x = 1e3 *. x /. float_of_int (Int.max 1 jobs) in
  let stage_sum = List.fold_left (fun a (_, x) -> a +. x) 0. stage_sums in
  (* mean round trip from the actual send, over both phases *)
  let round_trips =
    Array.append p.closed_lat
      (Array.of_list
         (List.filter_map Fun.id
            (Array.to_list
               (Array.mapi
                  (fun i (_, ev) ->
                    if is_eval ev then Some (p.opened.latency.(i) -. p.opened.lag.(i)) else None)
                  p.events))))
  in
  let per_request_stage_ms = per_request stage_sum in
  let lag = Array.mapi (fun i _ -> p.opened.lag.(i)) p.events in
  let a = p.after and b = p.before in
  let offline_values, per_template = offline env in
  ( c,
    stage_values
    @ offline_values
    @ [
        ("service.batch_mean", ratio jobs (a.Server.batches - b.Server.batches));
        ("service.lru_miss_ratio", ratio (a.Server.engines_created - b.Server.engines_created) jobs);
        ("obs.scrape_ms", 1e3 *. median (select p is_scrape));
        ("serve.generator_lag_ms", 1e3 *. quantile lag 0.99);
        ("serve_mixed.unattributed_ms", (1e3 *. mean round_trips) -. per_request_stage_ms);
      ],
    [
      ("jobs", jint jobs);
      ("round_trip_mean_ms", jnum (1e3 *. mean round_trips));
      ("stage_sum_per_request_ms", jnum per_request_stage_ms);
      ( "stage_ms_per_request",
        Experiments.Json.Obj (List.rev_map (fun (s, x) -> (s, jnum (per_request x))) stage_sums) );
      ("offline_templates", per_template);
    ] )
