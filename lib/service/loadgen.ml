module Json = Experiments.Json

type arrival = Closed | Poisson of float

type config = {
  host : string;
  port : int;
  concurrency : int;
  requests : int;
  job : Proto.job;
  arrival : arrival;
  slo_ms : float option;
  trace_out : string option;
}

let default_job () =
  {
    Proto.workload =
      Proto.Named { kind = Experiments.Case.Cholesky; n = 10; procs = 3; seed = 1L };
    ul = 1.1;
    backend = Makespan.Engine.Classical;
    schedules = [ Proto.Heuristic "HEFT"; Proto.Random { count = 20; seed = 7L } ];
    slack_mode = `Disjunctive;
    delta = None;
    gamma = None;
    deadline_ms = None;
    trace = None;
  }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Int.min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

type worker_result = {
  latencies : float list;
  errors : int;
}

(* Closed loop: each domain fires its share back-to-back; latency is
   the client-side round trip. *)
let closed_worker config n_requests =
  let client = Client.connect ~host:config.host ~port:config.port () in
  let body = config.job in
  let rec go i acc errors =
    if i >= n_requests then { latencies = acc; errors }
    else begin
      let t0 = Obs.Clock.now_s () in
      match Client.eval client body with
      | Ok _ -> go (i + 1) (Obs.Clock.now_s () -. t0 :: acc) errors
      | Error _ -> go (i + 1) acc (errors + 1)
    end
  in
  let r = go 0 [] 0 in
  Client.close client;
  r

(* Open loop: arrivals are a Poisson process with the requested rate,
   scheduled up front as absolute offsets from the start instant and
   claimed by the workers through a shared cursor. Latency is measured
   from the *scheduled arrival*, not the send — when the service falls
   behind, the backlog shows up as latency instead of silently slowing
   the offered load (the coordinated-omission trap of closed loops). *)
let poisson_worker config ~t_start_s ~offsets ~cursor =
  let client = Client.connect ~host:config.host ~port:config.port () in
  let body = config.job in
  let total = Array.length offsets in
  let rec go acc errors =
    let i = Atomic.fetch_and_add cursor 1 in
    if i >= total then { latencies = acc; errors }
    else begin
      let target = t_start_s +. offsets.(i) in
      let now = Obs.Clock.now_s () in
      if target > now then Unix.sleepf (target -. now);
      match Client.eval client body with
      | Ok _ -> go (Obs.Clock.now_s () -. target :: acc) errors
      | Error _ -> go acc (errors + 1)
    end
  in
  let r = go [] 0 in
  Client.close client;
  r

(* One traced request after the load: mint a trace id, propagate it via
   [traceparent], then pull that request's Chrome trace back out of the
   server's flight ring. The server publishes the record only after the
   response bytes are written, so the first poll can race it — retry. *)
let fetch_trace config =
  let tr = Obs.Trace.mint () in
  let client = Client.connect ~host:config.host ~port:config.port () in
  let result =
    match Client.eval ~traceparent:(Obs.Trace.to_traceparent tr) client config.job with
    | Error e -> Error ("traced request failed: " ^ e)
    | Ok _ ->
      let path =
        Printf.sprintf "/debug/requests?format=chrome&trace=%s" tr.Obs.Trace.trace_id
      in
      (* an empty filter result is ~42 bytes; any real event pushes the
         document well past that *)
      let has_events body = String.length body >= 60 in
      let rec poll attempts =
        match Client.get client path with
        | Ok resp when resp.Http.status = 200 && has_events resp.Http.body ->
          Ok (tr.Obs.Trace.trace_id, resp.Http.body)
        | _ when attempts > 1 ->
          Unix.sleepf 0.01;
          poll (attempts - 1)
        | Ok resp ->
          Error (Printf.sprintf "trace not found (HTTP %d)" resp.Http.status)
        | Error e -> Error ("trace fetch failed: " ^ Http.error_to_string e)
      in
      poll 20
  in
  Client.close client;
  result

let num f = if Float.is_finite f then Json.Num (Json.float_lit f) else Json.Null
let int_ i = Json.Num (string_of_int i)

(* ------------------------------------------------------------------ *)
(* Worker-scaling sweep (BENCH_serve.json curve)                       *)
(* ------------------------------------------------------------------ *)

type sweep_config = {
  worker_counts : int list;
  sweep_concurrency : int;
  sweep_requests : int;
  keys : int;
  task_n : int;
}

(* [keys] distinct cases: same shape, different seeds, so every job has
   its own (graph × platform × UL) key — they spread across shards and
   each owns one engine. *)
let sweep_job ~task_n i =
  {
    (default_job ()) with
    Proto.workload =
      Proto.Named
        {
          kind = Experiments.Case.Cholesky;
          n = task_n;
          procs = 4;
          seed = Int64.of_int (100 + i);
        };
    schedules =
      [ Proto.Heuristic "HEFT"; Proto.Random { count = 10; seed = Int64.of_int (7 + i) } ];
  }

let sweep_worker ~host ~port ~jobs ~expected ~share ~offset =
  (* generous socket timeout: requests can queue behind cold admissions,
     and a timeout would desync the keep-alive stream (responses pairing
     with the wrong request) *)
  let client = ref (Client.connect ~host ~port ~timeout_s:600. ()) in
  let k = Array.length jobs in
  let rec go i lat errors mismatches =
    if i >= share then (lat, errors, mismatches)
    else begin
      let ji = (offset + i) mod k in
      let t0 = Obs.Clock.now_s () in
      match Client.eval !client jobs.(ji) with
      | Ok body ->
        let lat = (Obs.Clock.now_s () -. t0) :: lat in
        if String.equal body (expected.(ji) : string) then go (i + 1) lat errors mismatches
        else go (i + 1) lat errors (mismatches + 1)
      | Error _ ->
        (* resync: never reuse a connection after a failed round trip *)
        Client.close !client;
        client := Client.connect ~host ~port ~timeout_s:600. ();
        go (i + 1) lat (errors + 1) mismatches
    end
  in
  let r = go 0 [] 0 0 in
  Client.close !client;
  r

(* Merge every shard's [service.stage_seconds{stage=...}] family into
   one histogram (the bucket ladder is shared), so the sweep reports a
   service-wide stage quantile whatever the worker count. *)
let merged_stage_hist snap stage =
  List.fold_left
    (fun acc (name, h) ->
      match Obs.Openmetrics.split_name name with
      | "service.stage_seconds", ("stage", s) :: _ when String.equal s stage -> (
        match acc with
        | None -> Some h
        | Some m when Array.length m.Obs.Metrics.counts = Array.length h.Obs.Metrics.counts
          ->
          Some
            {
              m with
              Obs.Metrics.counts =
                Array.mapi (fun i c -> c + h.Obs.Metrics.counts.(i)) m.Obs.Metrics.counts;
              total = m.Obs.Metrics.total + h.Obs.Metrics.total;
              sum = m.Obs.Metrics.sum +. h.Obs.Metrics.sum;
            }
        | some -> some)
      | _ -> acc)
    None snap.Obs.Metrics.histograms

let sweep (sc : sweep_config) =
  let keys = Int.max 1 sc.keys in
  let jobs = Array.init keys (sweep_job ~task_n:sc.task_n) in
  (* the offline twins every served body must match, byte for byte *)
  let expected =
    Array.map
      (fun j ->
        match Proto.eval j with Ok b -> b | Error e -> invalid_arg ("sweep job: " ^ e))
      jobs
  in
  let point workers =
    (* fresh instruments per point: the admit quantile must describe
       this configuration only (no concurrent writers between points —
       the previous server is stopped) *)
    Obs.Flight.reset ();
    Obs.Metrics.reset ();
    let t =
      Server.start
        {
          Server.default_config with
          Server.port = 0;
          workers;
          queue_capacity = Int.max 64 sc.sweep_requests;
        }
    in
    let host = Server.default_config.Server.host in
    let port = Server.port t in
    let concurrency = Int.max 1 sc.sweep_concurrency in
    let total = Int.max 1 sc.sweep_requests in
    let share d = (total / concurrency) + if d < total mod concurrency then 1 else 0 in
    let t0 = Obs.Clock.now_s () in
    let results =
      List.init concurrency (fun d ->
          Domain.spawn (fun () ->
              sweep_worker ~host ~port ~jobs ~expected ~share:(share d)
                ~offset:(d * (total / concurrency))))
      |> List.map Domain.join
    in
    let wall = Obs.Clock.now_s () -. t0 in
    let snap = Obs.Metrics.snapshot () in
    let stats = Server.stats t in
    Server.stop t;
    let latencies =
      List.concat_map (fun (l, _, _) -> l) results |> Array.of_list
    in
    Array.sort compare latencies;
    let errors = List.fold_left (fun a (_, e, _) -> a + e) 0 results in
    let mismatches = List.fold_left (fun a (_, _, m) -> a + m) 0 results in
    let admit = merged_stage_hist snap "admit" in
    let admit_q q =
      match admit with Some h -> Obs.Metrics.hist_quantile h q | None -> nan
    in
    Json.Obj
      [
        ("label", Json.Str (Printf.sprintf "w%d" workers));
        ("workers", int_ workers);
        ("completed", int_ (Array.length latencies));
        ("errors", int_ errors);
        ("byte_mismatches", int_ mismatches);
        ("wall_s", num wall);
        ( "throughput_rps",
          num (float_of_int (Array.length latencies) /. wall) );
        ("latency_p50_s", num (percentile latencies 0.50));
        ("latency_p99_s", num (percentile latencies 0.99));
        ( "admit_count",
          int_ (match admit with Some h -> h.Obs.Metrics.total | None -> 0) );
        ("admit_p50_s", num (admit_q 0.50));
        ("admit_p99_s", num (admit_q 0.99));
        ("engines_created", int_ stats.Server.engines_created);
        ( "shard_jobs",
          Json.Arr (Array.to_list (Array.map int_ stats.Server.shard_jobs)) );
      ]
  in
  let points = List.map point sc.worker_counts in
  Json.to_string
    (Json.Obj
       [
         ("bench", Json.Str "serve_workers_sweep");
         ("version", Json.Str Build_info.version);
         ("keys", int_ keys);
         ("task_n", int_ sc.task_n);
         ("requests_per_point", int_ sc.sweep_requests);
         ("concurrency", int_ sc.sweep_concurrency);
         ("points", Json.Arr points);
       ])
  ^ "\n"

let run config =
  let concurrency = Int.max 1 config.concurrency in
  let total = Int.max 1 config.requests in
  let t0 = Obs.Clock.now_s () in
  let results =
    match config.arrival with
    | Closed ->
      let share d =
        (* split [total] across domains, first domains take the remainder *)
        (total / concurrency) + if d < total mod concurrency then 1 else 0
      in
      List.init concurrency (fun d ->
          Domain.spawn (fun () -> closed_worker config (share d)))
      |> List.map Domain.join
    | Poisson rate ->
      let rate = Float.max 1e-3 rate in
      (* deterministic arrival schedule: exponential gaps, fixed seed *)
      let st = Random.State.make [| 0x10adc0de; total; int_of_float (rate *. 1e3) |] in
      let offsets = Array.make total 0. in
      let t = ref 0. in
      for i = 0 to total - 1 do
        t := !t +. (-.Float.log (1. -. Random.State.float st 1.) /. rate);
        offsets.(i) <- !t
      done;
      let cursor = Atomic.make 0 in
      let t_start_s = Obs.Clock.now_s () in
      List.init concurrency (fun _ ->
          Domain.spawn (fun () -> poisson_worker config ~t_start_s ~offsets ~cursor))
      |> List.map Domain.join
  in
  let wall = Obs.Clock.now_s () -. t0 in
  let latencies =
    List.concat_map (fun r -> r.latencies) results |> Array.of_list
  in
  Array.sort compare latencies;
  let errors = List.fold_left (fun acc r -> acc + r.errors) 0 results in
  let completed = Array.length latencies in
  let mean =
    if completed = 0 then nan
    else Array.fold_left ( +. ) 0. latencies /. float_of_int completed
  in
  (* one scrape of the server's own counters for the report *)
  let service =
    let client = Client.connect ~host:config.host ~port:config.port () in
    let section =
      match Client.get client "/metrics" with
      | Ok resp when resp.Http.status = 200 -> (
        match Result.to_option (Json.parse resp.Http.body) with
        | Some doc -> Json.mem "service" doc
        | None -> None)
      | _ -> None
    in
    Client.close client;
    Option.value section ~default:Json.Null
  in
  let trace_section =
    match config.trace_out with
    | None -> []
    | Some file -> (
      match fetch_trace config with
      | Ok (trace_id, body) ->
        let oc = open_out file in
        output_string oc body;
        close_out oc;
        [ ("trace_id", Json.Str trace_id); ("trace_file", Json.Str file) ]
      | Error e -> [ ("trace_error", Json.Str e) ])
  in
  let arrival_section =
    match config.arrival with
    | Closed -> [ ("arrival", Json.Str "closed") ]
    | Poisson rate -> [ ("arrival", Json.Str "poisson"); ("rate_rps", num rate) ]
  in
  let slo_section =
    match config.slo_ms with
    | None -> []
    | Some ms ->
      let budget_s = ms /. 1e3 in
      let within =
        Array.fold_left (fun acc l -> if l <= budget_s then acc + 1 else acc) 0 latencies
      in
      (* errors count against the SLO: attained = within / offered *)
      let offered = completed + errors in
      let attained =
        if offered = 0 then nan else float_of_int within /. float_of_int offered
      in
      [ ("slo_ms", num ms); ("slo_attained", num attained) ]
  in
  let doc =
    Json.Obj
      ([
         ("bench", Json.Str "serve");
         ("version", Json.Str Build_info.version);
         ("concurrency", int_ concurrency);
         ("requests", int_ total);
       ]
      @ arrival_section
      @ [
          ("completed", int_ completed);
          ("errors", int_ errors);
          ("wall_s", num wall);
          ("throughput_rps", num (float_of_int completed /. wall));
          ( "latency_s",
            Json.Obj
              [
                ("mean", num mean);
                ("p50", num (percentile latencies 0.50));
                ("p90", num (percentile latencies 0.90));
                ("p99", num (percentile latencies 0.99));
                ("max", num (percentile latencies 1.0));
              ] );
        ]
      @ slo_section
      @ trace_section
      @ [ ("service", service) ])
  in
  Json.to_string doc ^ "\n"
