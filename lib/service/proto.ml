module Json = Obs.Json
module Case = Experiments.Case
module Engine = Makespan.Engine
module Robustness = Metrics.Robustness
module Dist = Distribution.Dist

type workload =
  | Named of {
      kind : Case.graph_kind;
      n : int;
      procs : int;
      seed : int64;
    }
  | Inline of {
      graph : Dag.Graph.t;
      platform : Platform.t;
    }

type sched_spec =
  | Heuristic of string
  | Random of { count : int; seed : int64 }
  | Neighbor of { base : string; task : int; to_ : int; at : int option }
      (* one-move variation of a heuristic's schedule: task reassigned to
         processor [to_] (inserted at slot [at], appended if absent).
         Served through an incremental engine session — byte-identical to
         a full evaluation of the patched schedule, only cheaper. *)

type job = {
  workload : workload;
  ul : float;
  backend : Engine.backend;
  schedules : sched_spec list;
  slack_mode : Sched.Slack.graph_mode;
  delta : float option;
  gamma : float option;
  deadline_ms : int option;
  trace : string option;
}

let resolve_scheduler name =
  match Sched.Registry.parse name with
  | Ok e -> Ok e
  | Error msg -> Error ("schedules[]: " ^ msg)

(* Validation caps: a public endpoint must not let one request allocate
   the machine. Generous for the paper's regimes (n ≤ 103, 16 procs,
   10 000 schedules). *)
let max_tasks = 2000
let max_procs = 128
let max_edges = 100_000
let max_random_count = 50_000
let max_total_schedules = 100_000
let max_mc_count = 1_000_000

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name j =
  match Json.mem name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_field name j = Json.mem name j

let as_int what j =
  match Json.to_int j with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: expected an integer" what)

let as_float what j =
  match Json.to_float j with
  | Some f when Float.is_finite f -> Ok f
  | _ -> Error (Printf.sprintf "%s: expected a finite number" what)

let as_int64 what j =
  match Json.to_int64 j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: expected a 64-bit integer (number or decimal string)" what)

let as_str what j =
  match Json.str j with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s: expected a string" what)

let in_range what lo hi v =
  if v < lo || v > hi then
    Error (Printf.sprintf "%s: %d out of range [%d, %d]" what v lo hi)
  else Ok v

(* Range checks on decoded values. The decoder applies each one right
   after reading its field, and {!validate} applies them all, in the same
   order, to a job built in code — so both report the same error. *)

let check_n = in_range "workload.n" 1 max_tasks
let check_procs = in_range "workload.procs" 1 max_procs
let check_mc_count = in_range "backend.montecarlo.count" 1 max_mc_count
let check_random_count = in_range "schedules[].random.count" 0 max_random_count

let check_index what v = if v >= 0 then Ok v else Error (what ^ ": must be >= 0")
let check_task = check_index "schedules[].neighbor.task"
let check_to = check_index "schedules[].neighbor.to"
let check_at = check_index "schedules[].neighbor.at"

let check_ul ul =
  if Case.ul_in_range ul then Ok ul
  else Error (Printf.sprintf "ul: out of range [1, %g]" Case.max_ul)

let check_finite what x =
  if Float.is_finite x then Ok x else Error (what ^ ": expected a finite number")

let check_delta d =
  let* d = check_finite "delta" d in
  if d >= 0. then Ok d else Error "delta: must be >= 0"

let check_gamma g =
  let* g = check_finite "gamma" g in
  if g >= 1. then Ok g else Error "gamma: must be >= 1"

let check_deadline_ms d = if d > 0 then Ok d else Error "deadline_ms: must be > 0"

let kind_of_name = function
  | "random" -> Ok Case.Random_graph
  | "cholesky" -> Ok Case.Cholesky
  | "gauss" | "gauss-elim" -> Ok Case.Gauss_elim
  | other -> Error (Printf.sprintf "workload.kind: unknown kind %S" other)

let float_matrix what j =
  let* rows =
    match Json.list_ j with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "%s: expected an array of arrays" what)
  in
  let* cells =
    List.fold_right
      (fun row acc ->
        let* acc = acc in
        let* cols =
          match Json.list_ row with
          | Some l -> Ok l
          | None -> Error (Printf.sprintf "%s: expected an array of arrays" what)
        in
        let* values =
          List.fold_right
            (fun c acc ->
              let* acc = acc in
              let* v = as_float what c in
              Ok (v :: acc))
            cols (Ok [])
        in
        Ok (Array.of_list values :: acc))
      rows (Ok [])
  in
  Ok (Array.of_list cells)

let graph_of_json j =
  let* n = Result.bind (field "n" j) (as_int "graph.n") in
  let* n = in_range "graph.n" 1 max_tasks n in
  let* edges_json =
    match Option.bind (Json.mem "edges" j) Json.list_ with
    | Some l -> Ok l
    | None -> Error "graph.edges: expected an array"
  in
  if List.length edges_json > max_edges then
    Error (Printf.sprintf "graph.edges: more than %d edges" max_edges)
  else
    let* edges =
      List.fold_right
        (fun e acc ->
          let* acc = acc in
          match Json.list_ e with
          | Some [ s; d; v ] ->
            let* s = as_int "graph.edges[].src" s in
            let* d = as_int "graph.edges[].dst" d in
            let* v = as_float "graph.edges[].volume" v in
            Ok ((s, d, v) :: acc)
          | _ -> Error "graph.edges[]: expected [src, dst, volume]")
        edges_json (Ok [])
    in
    match Dag.Graph.make ~n ~edges with
    | g -> Ok g
    | exception Invalid_argument msg -> Error ("graph: " ^ msg)

let platform_of_json ~n_tasks j =
  let* etc = Result.bind (field "etc" j) (float_matrix "platform.etc") in
  let* tau = Result.bind (field "tau" j) (float_matrix "platform.tau") in
  let* latency = Result.bind (field "latency" j) (float_matrix "platform.latency") in
  let m = if Array.length etc > 0 then Array.length etc.(0) else 0 in
  if Array.length etc <> n_tasks then
    Error
      (Printf.sprintf "platform.etc: %d rows for %d tasks" (Array.length etc) n_tasks)
  else if m = 0 || m > max_procs then
    Error (Printf.sprintf "platform.etc: processor count out of range [1, %d]" max_procs)
  else
    match Platform.make ~etc ~tau ~latency with
    | p -> Ok p
    | exception Invalid_argument msg -> Error ("platform: " ^ msg)

let workload_of_json j =
  match opt_field "kind" j with
  | Some kind_json ->
    let* kind = Result.bind (as_str "workload.kind" kind_json) kind_of_name in
    let* n = Result.bind (field "n" j) (as_int "workload.n") in
    let* n = check_n n in
    let* procs = Result.bind (field "procs" j) (as_int "workload.procs") in
    let* procs = check_procs procs in
    let* seed =
      match opt_field "seed" j with
      | None -> Ok 1L
      | Some s -> as_int64 "workload.seed" s
    in
    Ok (Named { kind; n; procs; seed })
  | None ->
    let* graph_json = field "graph" j in
    let* graph = graph_of_json graph_json in
    let* platform_json = field "platform" j in
    let* platform = platform_of_json ~n_tasks:(Dag.Graph.n_tasks graph) platform_json in
    Ok (Inline { graph; platform })

let backend_of_json j =
  match j with
  | Json.Str name -> (
    match String.lowercase_ascii name with
    | "classical" -> Ok Engine.Classical
    | "dodin" -> Ok Engine.Dodin
    | "spelde" -> Ok Engine.Spelde
    | other ->
      Error
        (Printf.sprintf
           "backend: unknown backend %S (classical|dodin|spelde|{montecarlo})" other))
  | Json.Obj _ -> (
    match Json.mem "montecarlo" j with
    | None -> Error "backend: expected a name or {\"montecarlo\": {...}}"
    | Some mc ->
      let* count = Result.bind (field "count" mc) (as_int "backend.montecarlo.count") in
      let* count = check_mc_count count in
      let* seed =
        match opt_field "seed" mc with
        | None -> Ok 0L
        | Some s -> as_int64 "backend.montecarlo.seed" s
      in
      Ok (Engine.Montecarlo { count; seed }))
  | _ -> Error "backend: expected a name or {\"montecarlo\": {...}}"

let sched_spec_of_json j =
  match j with
  | Json.Str name ->
    (* canonicalize at parse time so aliases and compositions batch and
       respond under one stable name *)
    Result.map (fun e -> Heuristic e.Sched.Registry.name) (resolve_scheduler name)
  | Json.Obj _ -> (
    match (Json.mem "random" j, Json.mem "neighbor" j) with
    | Some r, _ ->
      let* count = Result.bind (field "count" r) (as_int "schedules[].random.count") in
      let* count = check_random_count count in
      let* seed =
        match opt_field "seed" r with
        | None -> Ok 0L
        | Some s -> as_int64 "schedules[].random.seed" s
      in
      Ok (Random { count; seed })
    | None, Some nb ->
      let* base = Result.bind (field "base" nb) (as_str "schedules[].neighbor.base") in
      let* base =
        Result.map (fun e -> e.Sched.Registry.name) (resolve_scheduler base)
      in
      let* task = Result.bind (field "task" nb) (as_int "schedules[].neighbor.task") in
      let* task = check_task task in
      let* to_ = Result.bind (field "to" nb) (as_int "schedules[].neighbor.to") in
      let* to_ = check_to to_ in
      let* at =
        match opt_field "at" nb with
        | None -> Ok None
        | Some a ->
          let* a = as_int "schedules[].neighbor.at" a in
          Result.map Option.some (check_at a)
      in
      Ok (Neighbor { base; task; to_; at })
    | None, None ->
      Error
        "schedules[]: expected a heuristic name, {\"random\": {...}} or \
         {\"neighbor\": {...}}")
  | _ ->
    Error
      "schedules[]: expected a heuristic name, {\"random\": {...}} or \
       {\"neighbor\": {...}}"

let total_schedules specs =
  List.fold_left
    (fun acc s ->
      acc
      + match s with Heuristic _ | Neighbor _ -> 1 | Random { count; _ } -> count)
    0 specs

let check_total specs =
  let total = total_schedules specs in
  if total = 0 then Error "schedules: zero schedules requested"
  else if total > max_total_schedules then
    Error (Printf.sprintf "schedules: %d schedules exceed the cap %d" total
             max_total_schedules)
  else Ok ()

let job_of_fields j =
  let* workload = Result.bind (field "workload" j) workload_of_json in
  let* ul = Result.bind (field "ul" j) (as_float "ul") in
  let* ul = check_ul ul in
  let* backend =
    match opt_field "backend" j with
    | None -> Ok Engine.Classical
    | Some b -> backend_of_json b
  in
  let* sched_json =
    match Option.bind (Json.mem "schedules" j) Json.list_ with
    | Some [] -> Error "schedules: must not be empty"
    | Some l -> Ok l
    | None -> Error "schedules: expected a non-empty array"
  in
  let* schedules =
    List.fold_right
      (fun s acc ->
        let* acc = acc in
        let* spec = sched_spec_of_json s in
        Ok (spec :: acc))
      sched_json (Ok [])
  in
  let* () = check_total schedules in
  let* slack_mode =
    match opt_field "slack" j with
    | None -> Ok `Disjunctive
    | Some s -> (
      match Json.str s with
      | Some "disjunctive" -> Ok `Disjunctive
      | Some "precedence" -> Ok `Precedence
      | _ -> Error "slack: expected \"disjunctive\" or \"precedence\"")
  in
  let* delta =
    match opt_field "delta" j with
    | None -> Ok None
    | Some d ->
      let* d = as_float "delta" d in
      Result.map Option.some (check_delta d)
  in
  let* gamma =
    match opt_field "gamma" j with
    | None -> Ok None
    | Some g ->
      let* g = as_float "gamma" g in
      Result.map Option.some (check_gamma g)
  in
  let* deadline_ms =
    match opt_field "deadline_ms" j with
    | None -> Ok None
    | Some d ->
      let* d = as_int "deadline_ms" d in
      Result.map Option.some (check_deadline_ms d)
  in
  let* trace =
    match opt_field "trace" j with
    | None -> Ok None
    | Some t ->
      let* t = as_str "trace" t in
      if Obs.Trace.is_valid_trace_id t then Ok (Some t)
      else Error "trace: expected 32 lowercase hex digits (non-zero)"
  in
  Ok { workload; ul; backend; schedules; slack_mode; delta; gamma; deadline_ms; trace }

let validate job =
  let ok r = Result.map ignore r in
  let opt check = function None -> Ok () | Some v -> ok (check v) in
  let* () =
    match job.workload with
    | Named { n; procs; _ } ->
      let* _ = check_n n in
      ok (check_procs procs)
    | Inline _ -> Ok ()
  in
  let* _ = check_ul job.ul in
  let* () =
    match job.backend with
    | Engine.Montecarlo { count; _ } -> ok (check_mc_count count)
    | _ -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc spec ->
        let* () = acc in
        match spec with
        | Heuristic _ -> Ok ()
        | Random { count; _ } -> ok (check_random_count count)
        | Neighbor { task; to_; at; _ } ->
          let* _ = check_task task in
          let* _ = check_to to_ in
          opt check_at at)
      (Ok ()) job.schedules
  in
  let* () = check_total job.schedules in
  let* () = opt check_delta job.delta in
  let* () = opt check_gamma job.gamma in
  opt check_deadline_ms job.deadline_ms

let job_of_json body =
  match Json.parse body with
  | Error e -> Error ("invalid JSON: " ^ Json.error_to_string e)
  | Ok (Json.Obj _ as j) -> job_of_fields j
  | Ok _ -> Error "invalid job: expected a JSON object"

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let num_of_int i = Json.Num (string_of_int i)
let num_of_float f = if Float.is_finite f then Json.Num (Json.float_lit f) else Json.Null

let graph_to_json g =
  Json.Obj
    [
      ("n", num_of_int (Dag.Graph.n_tasks g));
      ( "edges",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun (s, d, v) ->
                  Json.Arr [ num_of_int s; num_of_int d; num_of_float v ])
                (Dag.Graph.edges g))) );
    ]

let platform_to_json p =
  let n = Platform.n_tasks p and m = Platform.n_procs p in
  let matrix rows cols cell =
    Json.Arr
      (List.init rows (fun i ->
           Json.Arr (List.init cols (fun j -> num_of_float (cell i j)))))
  in
  Json.Obj
    [
      ("etc", matrix n m (fun task proc -> Platform.etc p ~task ~proc));
      ("tau", matrix m m (fun src dst -> Platform.tau p ~src ~dst));
      ("latency", matrix m m (fun src dst -> Platform.latency p ~src ~dst));
    ]

let workload_to_json = function
  | Named { kind; n; procs; seed } ->
    Json.Obj
      [
        ("kind", Json.Str (Case.kind_name kind));
        ("n", num_of_int n);
        ("procs", num_of_int procs);
        ("seed", Json.Str (Int64.to_string seed));
      ]
  | Inline { graph; platform } ->
    Json.Obj [ ("graph", graph_to_json graph); ("platform", platform_to_json platform) ]

let backend_to_json = function
  | Engine.Montecarlo { count; seed } ->
    Json.Obj
      [
        ( "montecarlo",
          Json.Obj
            [ ("count", num_of_int count); ("seed", Json.Str (Int64.to_string seed)) ] );
      ]
  | b -> Json.Str (Engine.backend_name b)

let sched_spec_to_json = function
  | Heuristic name -> Json.Str name
  | Random { count; seed } ->
    Json.Obj
      [
        ( "random",
          Json.Obj
            [ ("count", num_of_int count); ("seed", Json.Str (Int64.to_string seed)) ] );
      ]
  | Neighbor { base; task; to_; at } ->
    Json.Obj
      [
        ( "neighbor",
          Json.Obj
            ([ ("base", Json.Str base); ("task", num_of_int task); ("to", num_of_int to_) ]
            @ match at with None -> [] | Some a -> [ ("at", num_of_int a) ]) );
      ]

let job_to_json job =
  let base =
    [
      ("workload", workload_to_json job.workload);
      ("ul", num_of_float job.ul);
      ("backend", backend_to_json job.backend);
      ("schedules", Json.Arr (List.map sched_spec_to_json job.schedules));
      ( "slack",
        Json.Str
          (match job.slack_mode with
          | `Disjunctive -> "disjunctive"
          | `Precedence -> "precedence") );
    ]
  in
  let opt name v f = match v with None -> [] | Some v -> [ (name, f v) ] in
  Json.to_string
    (Json.Obj
       (base
       @ opt "delta" job.delta num_of_float
       @ opt "gamma" job.gamma num_of_float
       @ opt "deadline_ms" job.deadline_ms num_of_int
       @ opt "trace" job.trace (fun t -> Json.Str t)))

(* ------------------------------------------------------------------ *)
(* Context (the batching key)                                          *)
(* ------------------------------------------------------------------ *)

type context = {
  key : string;
  graph : Dag.Graph.t;
  platform : Platform.t;
  model : Workloads.Stochastify.t;
}

let key_of_job job =
  match job.workload with
  | Named { kind; n; procs; seed } ->
    (Case.make ~kind ~n_target:n ~n_procs:procs ~ul:job.ul ~seed ()).Case.id
  | Inline { graph; platform } ->
    (* identity of an inline case is its canonical serialization *)
    let canonical =
      Json.to_string
        (Json.Obj
           [
             ("graph", graph_to_json graph);
             ("platform", platform_to_json platform);
             ("ul", num_of_float job.ul);
           ])
    in
    "inline-" ^ Digest.to_hex (Digest.string canonical)

let context_of_job job =
  match job.workload with
  | Named { kind; n; procs; seed } -> (
    match
      Case.instantiate (Case.make ~kind ~n_target:n ~n_procs:procs ~ul:job.ul ~seed ())
    with
    | inst ->
      Ok
        {
          key = inst.Case.case.Case.id;
          graph = inst.Case.graph;
          platform = inst.Case.platform;
          model = inst.Case.model;
        }
    | exception Invalid_argument msg -> Error ("workload: " ^ msg))
  | Inline { graph; platform } -> (
    match Workloads.Stochastify.make ~ul:job.ul () with
    | model -> Ok { key = key_of_job job; graph; platform; model }
    | exception Invalid_argument msg -> Error ("ul: " ^ msg))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let run_base name graph platform =
  match Sched.Registry.parse name with
  | Ok e -> e.Sched.Registry.run graph platform
  | Error msg ->
    (* unreachable: specs are canonicalized during decoding *)
    invalid_arg ("Proto.expand_schedules: " ^ msg)

let neighbor_label ~base ~task ~to_ ~at =
  match at with
  | None -> Printf.sprintf "neighbor:%s:%d:%d" base task to_
  | Some a -> Printf.sprintf "neighbor:%s:%d:%d:%d" base task to_ a

exception Invalid_job of string

(* A neighbor move can only be checked against its base schedule, so
   this is where a bad index or a deadlocking move shows up. Both are
   the client's error: the message is shaped like a [validate] one. *)
let neighbor_schedule ~base ~task ~to_ ~at (b : Sched.Schedule.t) =
  let check = function Ok _ -> () | Error e -> raise (Invalid_job e) in
  check (in_range "schedules[].neighbor.task" 0 (Dag.Graph.n_tasks b.graph - 1) task);
  check (in_range "schedules[].neighbor.to" 0 (b.n_procs - 1) to_);
  let row = Array.length b.order.(to_) - if b.proc_of.(task) = to_ then 1 else 0 in
  Option.iter (fun a -> check (in_range "schedules[].neighbor.at" 0 row a)) at;
  match Sched.Schedule.reassign ?at b ~task ~to_ with
  | s -> s
  | exception Invalid_argument _ ->
    raise
      (Invalid_job
         (Printf.sprintf "schedules[].neighbor: %s deadlocks its base schedule"
            (neighbor_label ~base ~task ~to_ ~at)))

(* Labeled schedules in spec order, each neighbor with its base
   schedule. Each distinct heuristic runs once per job, so a base shared
   by several rows is one schedule. Each random spec owns one RNG, so
   schedule [i] of a seed is stable whatever else the job asks for. *)
let expand_schedules job graph platform =
  let bases = Hashtbl.create 4 in
  let base name =
    match Hashtbl.find_opt bases name with
    | Some b -> b
    | None ->
      let b = run_base name graph platform in
      Hashtbl.add bases name b;
      b
  in
  List.concat_map
    (function
      | Heuristic name -> [ (name, base name, None) ]
      | Random { count; seed } ->
        let rng = Prng.Xoshiro.create seed in
        let scheds =
          Sched.Random_sched.generate_many ~rng ~graph
            ~n_procs:(Platform.n_procs platform) ~count
        in
        List.mapi (fun i s -> (Printf.sprintf "random:%Ld:%d" seed i, s, None)) scheds
      | Neighbor { base = name; task; to_; at } ->
        let b = base name in
        [
          ( neighbor_label ~base:name ~task ~to_ ~at,
            neighbor_schedule ~base:name ~task ~to_ ~at b,
            Some b );
        ])
    job.schedules

let metrics_to_json (m : Robustness.t) =
  Json.Obj
    [
      ("expected_makespan", num_of_float m.Robustness.expected_makespan);
      ("makespan_std", num_of_float m.Robustness.makespan_std);
      ("makespan_entropy", num_of_float m.Robustness.makespan_entropy);
      ("avg_slack", num_of_float m.Robustness.avg_slack);
      ("slack_std", num_of_float m.Robustness.slack_std);
      ("avg_lateness", num_of_float m.Robustness.avg_lateness);
      ("prob_absolute", num_of_float m.Robustness.prob_absolute);
      ("prob_relative", num_of_float m.Robustness.prob_relative);
    ]

let makespan_to_json d =
  Json.Obj
    [
      ("mean", num_of_float (Dist.mean d));
      ("std", num_of_float (Dist.std d));
      ("q05", num_of_float (Dist.quantile d 0.05));
      ("q50", num_of_float (Dist.quantile d 0.5));
      ("q95", num_of_float (Dist.quantile d 0.95));
    ]

let run_job ?flight ?shard ?pool ~engine job =
  let graph = Engine.graph engine and platform = Engine.platform engine in
  let backend = job.backend and slack_mode = job.slack_mode in
  (* the "eval" span covers schedule expansion, pilot calibration and
     the parallel metric sweep — everything but JSON rendering *)
  let doc =
    Obs.Flight.timed ?record:flight ?shard ~stage:"eval" (fun () ->
        let labeled = Array.of_list (expand_schedules job graph platform) in
        let n = Array.length labeled in
        (* Neighbor rows first, through one incremental session per
           distinct base: the base is evaluated once in full, then every
           neighbor is a probe of the schedule expansion built. Response
           bytes cannot change — a probe agrees bitwise with a fresh full
           evaluation of the same schedule (property-tested in
           test_engine) — only the repeated full sweeps go away. Sessions
           are not thread-safe, so the probes run here, before the sweep
           fans out. *)
        let sessions = ref [] in
        let pre =
          Array.map
            (fun (_, s, base) ->
              Option.map
                (fun b ->
                  let session =
                    match List.assq_opt b !sessions with
                    | Some session -> session
                    | None ->
                      let session = Engine.start_session ~backend ~slack_mode engine b in
                      sessions := (b, session) :: !sessions;
                      session
                  in
                  Engine.reevaluate_schedule session s)
                base)
            labeled
        in
        (* A heuristic row whose schedule is also a neighbor base reads
           its session's full evaluation instead of running a second
           one; the two agree bitwise (tested in test_engine). *)
        let eval_row i =
          match pre.(i) with
          | Some e -> e
          | None -> (
            let _, s, _ = labeled.(i) in
            match List.assq_opt s !sessions with
            | Some session -> Engine.session_evaluation session
            | None -> Engine.analyze ~backend ~slack_mode engine s)
        in
        (* pilot calibration on this job's own first schedules (≤ 20),
           independent of whatever else shares the engine, so batching can
           never change response bytes *)
        let delta, gamma, rows =
          Experiments.Runner.calibrated_sweep ?pool ?delta:job.delta ?gamma:job.gamma
            ~pilot:20 ~eval:eval_row
            ~row:(fun i e m ->
              let label, _, _ = labeled.(i) in
              Json.Obj
                [
                  ("source", Json.Str label);
                  ("makespan", makespan_to_json e.Engine.makespan);
                  ("metrics", metrics_to_json m);
                ])
            n
        in
        Json.Obj
          [
            ("case", Json.Str (key_of_job job));
            ("backend", backend_to_json backend);
            ("ul", num_of_float job.ul);
            ("n_tasks", num_of_int (Dag.Graph.n_tasks graph));
            ("n_procs", num_of_int (Platform.n_procs platform));
            ( "slack",
              Json.Str
                (match slack_mode with
                | `Disjunctive -> "disjunctive"
                | `Precedence -> "precedence") );
            ("delta", num_of_float delta);
            ("gamma", num_of_float gamma);
            ("n_schedules", num_of_int (Array.length labeled));
            ("rows", Json.Arr (Array.to_list rows));
          ])
  in
  Obs.Flight.timed ?record:flight ?shard ~stage:"encode" (fun () -> Json.to_string doc ^ "\n")

let eval job =
  Result.bind (context_of_job job) (fun ctx ->
      let engine = Engine.create ~graph:ctx.graph ~platform:ctx.platform ~model:ctx.model in
      match run_job ~engine job with
      | body -> Ok body
      | exception Invalid_job e -> Error e)
