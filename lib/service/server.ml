module Json = Obs.Json
module Stop = Experiments.Stop
module Engine = Makespan.Engine

type config = {
  host : string;
  port : int;
  queue_capacity : int;
  conn_domains : int;
  workers : int;
  limits : Http.limits;
  engine_cache : int;
  auto_worker : bool;
  drain_grace_s : float;
  slow_ms : float option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    queue_capacity = 64;
    conn_domains = 4;
    workers = 1;
    limits = Http.default_limits;
    engine_cache = 8;
    auto_worker = true;
    drain_grace_s = 5.0;
    slow_ms = None;
  }

type jstate =
  | Queued
  | Running
  | Done of string
  | Failed of string
  | Invalid of string  (* context or neighbor move refused on the worker; 422 *)
  | Expired
  | Cancelled

(* A connection domain's self-pipe, opened when the domain starts and
   closed when it exits. A sync job carries its handler's pipe, and
   [settle] writes one byte on it. [closed] is read and set under [pmu],
   so a [settle] that races the domain's exit never writes to a closed
   (or reused) descriptor. *)
type pipe = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  pmu : Mutex.t;
  mutable closed : bool;
}

type jrec = {
  id : string;
  spec : Proto.job;
  key : string;
  shard : int;
  state : jstate Atomic.t;
  deadline : float option;
      (* absolute MONOTONIC seconds (Obs.Clock); queue-admission only.
         Wall clock would let an NTP step mass-expire the queue. *)
  flight : Obs.Flight.record;  (* the request that submitted the job *)
  waiter : pipe option;  (* the sync handler's pipe; [None] for [/jobs] *)
}

(* Always-on counters — plain atomics, independent of Obs gating. *)
type counters = {
  c_requests : int Atomic.t;
  c_submitted : int Atomic.t;
  c_done : int Atomic.t;
  c_failed : int Atomic.t;
  c_expired : int Atomic.t;
  c_cancelled : int Atomic.t;
  c_rejected_full : int Atomic.t;
  c_rejected_invalid : int Atomic.t;
  c_rejected_draining : int Atomic.t;
  c_batches : int Atomic.t;
  c_max_batch : int Atomic.t;
  c_engines_created : int Atomic.t;
}

type stats = {
  requests : int;
  jobs_submitted : int;
  jobs_done : int;
  jobs_failed : int;
  jobs_expired : int;
  jobs_cancelled : int;
  rejected_full : int;
  rejected_invalid : int;
  rejected_draining : int;
  batches : int;
  max_batch : int;
  engines_created : int;
  queue_depth : int;
  workers : int;
  shard_jobs : int array;
  shard_depth : int array;
}

(* One evaluation shard: a job queue and an engine LRU. The server's
   pool domains pop whole batches off every shard's queue, so a shard
   runs several jobs at once. The LRU has its own lock, apart from the
   queue's [mu], so a handler's admission never waits on an engine
   lookup. *)
type shard = {
  index : int;
  mu : Mutex.t;
  jobs : jrec Queue.t;
  emu : Mutex.t;  (* guards [engines] *)
  mutable engines : (string * Engine.t) list;  (* LRU, MRU first *)
  sc_jobs : int Atomic.t;  (* jobs evaluated on this shard *)
  sc_engines : int Atomic.t;  (* engines built on this shard *)
  g_depth : Obs.Metrics.gauge;  (* service.queue_depth{shard="k"} *)
}

type t = {
  config : config;
  lsock : Unix.file_descr;
  bound_port : int;
  draining : bool Atomic.t;
  (* accepted connections awaiting a handler *)
  cmu : Mutex.t;
  ccond : Condition.t;
  conns : Unix.file_descr Queue.t;
  shards : shard array;
  pool : Parallel.Pool.t;  (* the evaluation domains: run jobs, help fan-outs *)
  next_shard : int Atomic.t;  (* where the next idle pool domain starts looking *)
  (* id table + finished ring, shared across shards. Lock order: a
     shard's [mu] may be held when taking [tmu], never the reverse. *)
  tmu : Mutex.t;
  table : (string, jrec) Hashtbl.t;
  finished : string Queue.t;  (* terminal-state ids, oldest first *)
  next_id : int Atomic.t;
  c : counters;
  mutable domains : unit Domain.t list;
  stopped : bool Atomic.t;
  (* Obs instruments (live only when Obs.Metrics is enabled) *)
  h_latency : Obs.Metrics.histogram;
  h_batch : Obs.Metrics.histogram;
}

let max_finished_kept = 1024
let idle_poll_s = 0.25

let counters () =
  {
    c_requests = Atomic.make 0;
    c_submitted = Atomic.make 0;
    c_done = Atomic.make 0;
    c_failed = Atomic.make 0;
    c_expired = Atomic.make 0;
    c_cancelled = Atomic.make 0;
    c_rejected_full = Atomic.make 0;
    c_rejected_invalid = Atomic.make 0;
    c_rejected_draining = Atomic.make 0;
    c_batches = Atomic.make 0;
    c_max_batch = Atomic.make 0;
    c_engines_created = Atomic.make 0;
  }

let atomic_max a v =
  let rec go () =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then go ()
  in
  go ()

let port t = t.bound_port

(* Consistent job routing: same batch key → same shard, always, so
   same-key batching and per-base reeval sessions keep their affinity
   without any cross-shard engine sharing. *)
let shard_of_key t key = Hashtbl.hash key mod Array.length t.shards

(* ------------------------------------------------------------------ *)
(* Clocks                                                              *)
(* ------------------------------------------------------------------ *)

(* Queue deadlines are measured on the monotonic clock ({!Obs.Clock}):
   an NTP step must neither mass-expire nor immortalize queued jobs.
   The only wall-clock reading the server still owns is the display
   timestamp on flight records; [set_wall_offset_for_tests] skews it to
   simulate such a step, and the deadline tests assert expiry behavior
   depends on monotonic elapsed time alone. *)
let wall_offset_for_tests = Atomic.make 0.
let set_wall_offset_for_tests s = Atomic.set wall_offset_for_tests s
let wall_now () = Unix.gettimeofday () +. Atomic.get wall_offset_for_tests

(* ------------------------------------------------------------------ *)
(* Job lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

(* Record a job's terminal transition; evict the oldest finished jobs
   so the table stays bounded. Callers already performed the CAS. *)
let finished t j =
  Mutex.lock t.tmu;
  Queue.push j.id t.finished;
  while Queue.length t.finished > max_finished_kept do
    Hashtbl.remove t.table (Queue.pop t.finished)
  done;
  Mutex.unlock t.tmu

let open_pipe () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  { rd; wr; pmu = Mutex.create (); closed = false }

let close_pipe p =
  Mutex.protect p.pmu (fun () ->
      p.closed <- true;
      Unix.close p.rd;
      Unix.close p.wr)

let wake p =
  Mutex.protect p.pmu (fun () ->
      if not p.closed then
        try ignore (Unix.single_write_substring p.wr "!" 0 1) with Unix.Unix_error _ -> ())

(* Every terminal transition a pool domain or [stop] makes: [from] → [state],
   counted and recorded as finished, then one byte to the sync waiter.
   The state is set before the byte, so a woken waiter never reads a
   stale state, and the count before it, so the waiter's reply never
   precedes its count. Nothing happens when the job already left
   [from] (its waiter expired it). Expiry itself is not signalled: a
   waiter sleeps at most until its job's deadline. *)
let settle t j ~from state =
  if Atomic.compare_and_set j.state from state then begin
    Atomic.incr
      (match state with
      | Done _ -> t.c.c_done
      | Failed _ -> t.c.c_failed
      | Invalid _ -> t.c.c_rejected_invalid
      | Cancelled -> t.c.c_cancelled
      | Queued | Running | Expired -> invalid_arg "Server.settle: not a settled state");
    finished t j;
    Option.iter wake j.waiter
  end

let expire_if_due t j =
  match j.deadline with
  | Some d
    when Obs.Clock.now_s () > d && Atomic.compare_and_set j.state Queued Expired ->
    Atomic.incr t.c.c_expired;
    finished t j;
    true
  | _ -> ( match Atomic.get j.state with Expired -> true | _ -> false)

type submit_error =
  [ `Invalid of int * string  (* HTTP status + message *)
  | `Full
  | `Draining ]

(* [header_traced] says whether the request already carried a
   [traceparent] header — a valid [trace] field in the job body only
   takes over when it did not (the header is the more specific signal).

   The connection domain does only the cheap half of admission: decode,
   batch-key extraction ({!Proto.key_of_job}, no workload generation)
   and the deadline stamp. The expensive half — [Proto.context_of_job],
   the ~50 ms workload/platform build that used to fight the evaluation
   pool for the minor heap — runs on the pool domain that takes the job as its
   "admit" stage. *)
let submit ?waiter t fl ~header_traced body : (jrec, submit_error) result =
  let decoded =
    Obs.Flight.timed ~record:fl ~stage:"decode" (fun () -> Proto.job_of_json body)
  in
  match decoded with
  | Error e ->
    Atomic.incr t.c.c_rejected_invalid;
    Error (`Invalid (400, e))
  | Ok spec ->
    (match spec.Proto.trace with
    | Some tid when not header_traced -> fl.Obs.Flight.trace_id <- tid
    | _ -> ());
    let key = Proto.key_of_job spec in
    let deadline =
      Option.map
        (fun ms -> Obs.Clock.now_s () +. (float_of_int ms /. 1000.))
        spec.Proto.deadline_ms
    in
    let id = Printf.sprintf "job-%06d" (Atomic.fetch_and_add t.next_id 1) in
    let shard = shard_of_key t key in
    let sh = t.shards.(shard) in
    let j =
      { id; spec; key; shard; state = Atomic.make Queued; deadline; flight = fl; waiter }
    in
    Mutex.lock sh.mu;
    let verdict =
      if Atomic.get t.draining then Error `Draining
      else if Queue.length sh.jobs >= t.config.queue_capacity then Error `Full
      else begin
        Queue.push j sh.jobs;
        (* stamp only admitted jobs (a rejected request must not carry
           a dangling open "queue" stage), and under the shard lock so
           the stamp is in place before a pool domain can pop the job *)
        Obs.Flight.mark_queued fl;
        Ok j
      end
    in
    let depth = Queue.length sh.jobs in
    Mutex.unlock sh.mu;
    (match verdict with
    | Ok _ ->
      Parallel.Pool.wake t.pool;
      Mutex.lock t.tmu;
      Hashtbl.replace t.table id j;
      Mutex.unlock t.tmu;
      Atomic.incr t.c.c_submitted;
      Obs.Metrics.set sh.g_depth (float_of_int depth)
    | Error `Full -> Atomic.incr t.c.c_rejected_full
    | Error `Draining -> Atomic.incr t.c.c_rejected_draining
    | Error _ -> ());
    verdict

(* Pop the oldest job plus every queued job sharing its key, preserving
   the order of what stays behind. Caller holds the shard's [mu]. *)
let pop_batch_locked sh =
  if Queue.is_empty sh.jobs then []
  else begin
    let first = Queue.pop sh.jobs in
    let rest = List.of_seq (Queue.to_seq sh.jobs) in
    Queue.clear sh.jobs;
    let same, other = List.partition (fun j -> String.equal j.key first.key) rest in
    List.iter (fun j -> Queue.push j sh.jobs) other;
    first :: same
  end

(* Engine acquisition IS admission now: on an LRU hit it is a few list
   operations; on a miss the pool domain materializes the context (the
   expensive generation step deferred off the connection domain) and
   builds the engine. A miss builds under the LRU lock, so a key has
   exactly one engine per shard; a cold key therefore holds up only the
   shard's other admissions, never its running evaluations. *)
let engine_for t sh j =
  Mutex.protect sh.emu @@ fun () ->
  match List.assoc_opt j.key sh.engines with
  | Some e ->
    sh.engines <- (j.key, e) :: List.remove_assoc j.key sh.engines;
    Ok (e, true)
  | None -> (
    match Proto.context_of_job j.spec with
    | Error e -> Error e
    | Ok context ->
      let e =
        Engine.create ~graph:context.Proto.graph ~platform:context.Proto.platform
          ~model:context.Proto.model
      in
      Atomic.incr t.c.c_engines_created;
      Atomic.incr sh.sc_engines;
      let keep = List.filteri (fun i _ -> i < t.config.engine_cache - 1) sh.engines in
      sh.engines <- (j.key, e) :: keep;
      Ok (e, false))

let run_batch t sh batch =
  match batch with
  | [] -> 0
  | _ ->
    let shard = sh.index in
    Atomic.incr t.c.c_batches;
    atomic_max t.c.c_max_batch (List.length batch);
    Obs.Metrics.observe t.h_batch (float_of_int (List.length batch));
    let pop_us = Obs.Clock.now_us () in
    List.iter
      (fun j ->
        if not (expire_if_due t j) then
          if Atomic.compare_and_set j.state Queued Running then begin
            let fl = j.flight in
            (* "queue" = enqueue → batch pop; "batch" = pop → this job's
               turn (time spent behind same-key peers in the batch) *)
            if fl.Obs.Flight.queued_us > 0. then
              Obs.Flight.record_stage ~shard (Some fl) ~stage:"queue"
                fl.Obs.Flight.queued_us pop_us;
            let t_turn = Obs.Clock.now_us () in
            Obs.Flight.record_stage ~shard (Some fl) ~stage:"batch" pop_us t_turn;
            (* admission, relocated: context + engine acquisition on the
               owning shard. Warm shards skip generation entirely. *)
            match
              Obs.Flight.timed ~record:fl ~shard ~stage:"admit" (fun () ->
                  engine_for t sh j)
            with
            | Error msg -> settle t j ~from:Running (Invalid msg)
            | Ok (engine, cache_hit) ->
              Obs.Flight.set_cache fl
                (if cache_hit then Obs.Flight.Hit else Obs.Flight.Miss);
              let t0 = Obs.Clock.now_us () in
              let state =
                match
                  (* fault-injection boundary: an injected failure is a
                     job that raised (a 500), a stall holds its domain *)
                  Fault.cut "service.job";
                  Proto.run_job ~flight:fl ~shard ~pool:t.pool ~engine j.spec
                with
                | body ->
                  Atomic.incr sh.sc_jobs;
                  Done body
                | exception Proto.Invalid_job msg -> Invalid msg
                | exception exn -> Failed (Printexc.to_string exn)
              in
              Obs.Metrics.observe_ex t.h_latency ~exemplar:fl.Obs.Flight.trace_id
                ((Obs.Clock.now_us () -. t0) *. 1e-6);
              settle t j ~from:Running state
          end)
      batch;
    List.length batch

let pop_batch sh =
  Mutex.lock sh.mu;
  let batch = pop_batch_locked sh in
  let depth = Queue.length sh.jobs in
  Mutex.unlock sh.mu;
  Obs.Metrics.set sh.g_depth (float_of_int depth);
  batch

let step t = Array.fold_left (fun acc sh -> acc + run_batch t sh (pop_batch sh)) 0 t.shards

(* The server pool's task source: the oldest batch of the first shard
   with queued jobs, looking from a rotating start so that no shard
   starves. Called under the pool's lock by a pool domain that found no
   chunk to help with. *)
let next_task t () =
  let n = Array.length t.shards in
  let start = Atomic.fetch_and_add t.next_shard 1 in
  let rec look i =
    if i = n then None
    else
      let sh = t.shards.((start + i) mod n) in
      match pop_batch sh with
      | [] -> look (i + 1)
      | batch -> Some (fun () -> ignore (run_batch t sh batch))
  in
  look 0

(* ------------------------------------------------------------------ *)
(* Stats / introspection documents                                     *)
(* ------------------------------------------------------------------ *)

let stats t =
  let shard_depth =
    Array.map
      (fun sh ->
        Mutex.lock sh.mu;
        let d = Queue.length sh.jobs in
        Mutex.unlock sh.mu;
        d)
      t.shards
  in
  {
    requests = Atomic.get t.c.c_requests;
    jobs_submitted = Atomic.get t.c.c_submitted;
    jobs_done = Atomic.get t.c.c_done;
    jobs_failed = Atomic.get t.c.c_failed;
    jobs_expired = Atomic.get t.c.c_expired;
    jobs_cancelled = Atomic.get t.c.c_cancelled;
    rejected_full = Atomic.get t.c.c_rejected_full;
    rejected_invalid = Atomic.get t.c.c_rejected_invalid;
    rejected_draining = Atomic.get t.c.c_rejected_draining;
    batches = Atomic.get t.c.c_batches;
    max_batch = Atomic.get t.c.c_max_batch;
    engines_created = Atomic.get t.c.c_engines_created;
    queue_depth = Array.fold_left ( + ) 0 shard_depth;
    workers = Array.length t.shards;
    shard_jobs = Array.map (fun sh -> Atomic.get sh.sc_jobs) t.shards;
    shard_depth;
  }

let num_of_int i = Json.Num (string_of_int i)

let healthz_body t =
  let s = stats t in
  Json.to_string
    (Json.Obj
       [
         ("status", Json.Str (if Atomic.get t.draining then "draining" else "ok"));
         ("version", Json.Str Build_info.version);
         ("workers", num_of_int s.workers);
         ("queue_depth", num_of_int s.queue_depth);
         ("queue_capacity", num_of_int t.config.queue_capacity);
         ("jobs_done", num_of_int s.jobs_done);
       ])
  ^ "\n"

(* The service counters and gauges behind both [/metrics] forms, in
   JSON order: the key in the JSON document's "service" object, the
   OpenMetrics family, and the value. A [None] key or family marks an
   entry that exists in only one form. OpenMetrics names must stay
   disjoint from the families the obs snapshot already owns
   ([service_request_seconds], [service_batch_size],
   [service_queue_depth], [service_stage_seconds]), or the exposition
   would carry a duplicate [# TYPE]. Engine counters have no row: the
   obs snapshot carries them process-wide as [engine.*]. *)
type stat_row = {
  key : string option;
  family : string option;
  kind : [ `Counter | `Gauge ];
  help : string;
  value : [ `One of int | `Per_shard of int array ];
}

let stat_rows t (s : stats) =
  let row ?key ?family kind help value = { key; family; kind; help; value } in
  let std key kind help v = row ~key ~family:("service_" ^ key) kind help (`One v) in
  [
    std "requests" `Counter "HTTP requests parsed (any route)" s.requests;
    std "jobs_submitted" `Counter "Jobs admitted to the queue" s.jobs_submitted;
    std "jobs_done" `Counter "Jobs evaluated successfully" s.jobs_done;
    std "jobs_failed" `Counter "Jobs that raised during evaluation" s.jobs_failed;
    std "jobs_expired" `Counter "Jobs whose deadline elapsed while queued" s.jobs_expired;
    std "jobs_cancelled" `Counter "Jobs cancelled by drain" s.jobs_cancelled;
    std "rejected_full" `Counter "Submissions refused by a full queue" s.rejected_full;
    std "rejected_invalid" `Counter "Submissions refused as invalid (400/422)"
      s.rejected_invalid;
    std "rejected_draining" `Counter "Submissions refused because of drain"
      s.rejected_draining;
    std "batches" `Counter "Same-key batches popped by the workers" s.batches;
    std "max_batch" `Gauge "Largest batch so far" s.max_batch;
    row ~key:"queue_depth" `Gauge "Queued jobs over all shards" (`One s.queue_depth);
    row ~family:"service_queue_capacity" `Gauge "Per-shard job-queue bound"
      (`One t.config.queue_capacity);
    std "workers" `Gauge "Evaluation worker shards" s.workers;
    row ~key:"shard_jobs" ~family:"service_shard_jobs" `Counter "Jobs evaluated per shard"
      (`Per_shard s.shard_jobs);
    row ~family:"service_shard_engines" `Counter
      "Engines built per shard (context materializations)"
      (`Per_shard (Array.map (fun sh -> Atomic.get sh.sc_engines) t.shards));
    row ~key:"shard_depth" ~family:"service_shard_depth" `Gauge "Queued jobs per shard"
      (`Per_shard s.shard_depth);
    std "engines_created" `Counter "Engines built (LRU misses)" s.engines_created;
  ]

let metrics_body t =
  let q p =
    let snap = Obs.Metrics.snapshot () in
    match List.assoc_opt "service.request_seconds" snap.Obs.Metrics.histograms with
    | Some h when h.Obs.Metrics.total > 0 ->
      (* sliding window: the current p50/p99, not the lifetime average *)
      Json.Num (Json.float_lit (Obs.Metrics.window_quantile h p))
    | _ -> Json.Null
  in
  let service =
    Json.Obj
      (List.filter_map
         (fun r ->
           Option.map
             (fun key ->
               ( key,
                 match r.value with
                 | `One v -> num_of_int v
                 | `Per_shard a -> Json.Arr (Array.to_list (Array.map num_of_int a)) ))
             r.key)
         (stat_rows t (stats t))
      @ [ ("latency_p50_s", q 0.5); ("latency_p99_s", q 0.99) ])
  in
  Json.to_string (Json.Obj [ ("service", service); ("obs", Obs.Report.json ()) ]) ^ "\n"

let openmetrics_content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8"

(* OpenMetrics exposition: the service rows plus every Obs instrument. *)
let openmetrics_body t =
  let service =
    List.concat_map
      (fun r ->
        match r.family with
        | None -> []
        | Some family ->
          let metric labels v =
            {
              Obs.Openmetrics.family;
              labels;
              help = Some r.help;
              data =
                (match r.kind with
                | `Counter -> Obs.Openmetrics.Counter (float_of_int v)
                | `Gauge -> Obs.Openmetrics.Gauge (float_of_int v));
            }
          in
          (match r.value with
          | `One v -> [ metric [] v ]
          | `Per_shard a ->
            Array.to_list
              (Array.mapi (fun k v -> metric [ ("shard", string_of_int k) ] v) a)))
      (stat_rows t (stats t))
  in
  Obs.Openmetrics.render
    (service @ Obs.Openmetrics.of_snapshot (Obs.Metrics.snapshot ()))

(* ------------------------------------------------------------------ *)
(* HTTP plumbing                                                       *)
(* ------------------------------------------------------------------ *)

let error_body msg = Json.to_string (Json.Obj [ ("error", Json.Str msg) ]) ^ "\n"

let job_status_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Invalid _ -> "invalid"
  | Expired -> "expired"
  | Cancelled -> "cancelled"

let job_envelope j =
  let state = Atomic.get j.state in
  let base = [ ("id", Json.Str j.id); ("status", Json.Str (job_status_name state)) ] in
  let extra =
    match state with
    | Failed e | Invalid e -> [ ("error", Json.Str e) ]
    | _ -> []
  in
  Json.to_string (Json.Obj (base @ extra)) ^ "\n"

(* Wait for a sync job to reach a terminal state, asleep on the
   handler's pipe [p] until [settle] writes to it. A queued job with a
   deadline bounds the sleep by the time left, and the waiter expires
   the job itself; a running job, or one without a deadline, waits for
   the byte alone. A byte an earlier job left unread costs one more
   turn of the loop. *)
let wait_terminal t p j =
  let buf = Bytes.create 16 in
  let rec go () =
    match Atomic.get j.state with
    | Done body -> `Done body
    | Failed e -> `Failed e
    | Invalid e -> `Invalid e
    | Expired -> `Expired
    | Cancelled -> `Cancelled
    | (Queued | Running) as state ->
      if expire_if_due t j then `Expired
      else begin
        let timeout =
          match (state, j.deadline) with
          | Queued, Some d -> Float.max 0. (d -. Obs.Clock.now_s ())
          | _ -> -1.
        in
        (match Unix.select [ p.rd ] [] [] timeout with
        | [ _ ], _, _ -> ignore (Unix.read p.rd buf 0 (Bytes.length buf))
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
  in
  go ()

let lookup_job t id =
  Mutex.lock t.tmu;
  let j = Hashtbl.find_opt t.table id in
  Mutex.unlock t.tmu;
  j

type reply = { status : int; headers : (string * string) list; body : string }

let reply ?(headers = []) status body = { status; headers; body }

let submit_error_reply = function
  | `Invalid (status, msg) -> reply status (error_body msg)
  | `Full -> reply ~headers:[ ("retry-after", "1") ] 503 (error_body "queue full")
  | `Draining -> reply ~headers:[ ("retry-after", "5") ] 503 (error_body "draining")

(* Case-sensitive substring test — media types in Accept are expected
   lowercase; good enough for content negotiation on one literal. *)
let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let wants_openmetrics (req : Http.request) =
  List.assoc_opt "format" req.Http.query = Some "openmetrics"
  ||
  match Http.header "accept" req.Http.headers with
  | Some a -> contains ~needle:"application/openmetrics-text" a
  | None -> false

let handle t p fl ~header_traced (req : Http.request) =
  Atomic.incr t.c.c_requests;
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" -> reply 200 (healthz_body t)
  | "GET", "/metrics" ->
    if wants_openmetrics req then
      reply
        ~headers:[ ("content-type", openmetrics_content_type) ]
        200 (openmetrics_body t)
    else reply 200 (metrics_body t)
  | "GET", "/debug/requests" -> (
    let limit =
      match Option.bind (List.assoc_opt "limit" req.Http.query) int_of_string_opt with
      | Some n when n > 0 -> Int.min n Obs.Flight.capacity
      | _ -> 64
    in
    match List.assoc_opt "format" req.Http.query with
    | Some "chrome" ->
      let trace_id = List.assoc_opt "trace" req.Http.query in
      reply 200 (Obs.Flight.chrome ~limit ?trace_id ())
    | _ -> reply 200 (Obs.Flight.json ~limit ()))
  | "POST", "/eval" -> (
    match submit ~waiter:p t fl ~header_traced req.Http.body with
    | Error e -> submit_error_reply e
    | Ok j -> (
      match wait_terminal t p j with
      | `Done body -> reply 200 body
      | `Failed e -> reply 500 (error_body e)
      | `Invalid e -> reply 422 (error_body e)
      | `Expired -> reply 504 (error_body "deadline expired while queued")
      | `Cancelled -> reply 503 (error_body "cancelled by drain")))
  | "POST", "/jobs" -> (
    match submit t fl ~header_traced req.Http.body with
    | Error e -> submit_error_reply e
    | Ok j -> reply 202 (job_envelope j))
  | "GET", path when String.length path > 6 && String.sub path 0 6 = "/jobs/" -> (
    let rest = String.sub path 6 (String.length path - 6) in
    let id, want_result =
      match String.index_opt rest '/' with
      | Some i when String.sub rest i (String.length rest - i) = "/result" ->
        (String.sub rest 0 i, true)
      | _ -> (rest, false)
    in
    match lookup_job t id with
    | None -> reply 404 (error_body "unknown job")
    | Some j when not want_result -> reply 200 (job_envelope j)
    | Some j -> (
      (* /result serves the bare stored document so clients (and the CI
         smoke test) can compare it byte-for-byte with [repro eval]. *)
      match Atomic.get j.state with
      | Done body -> reply 200 body
      | Failed e -> reply 500 (error_body e)
      | Invalid e -> reply 422 (error_body e)
      | Expired -> reply 504 (error_body "deadline expired while queued")
      | Cancelled -> reply 503 (error_body "cancelled by drain")
      | Queued | Running -> reply 202 (job_envelope j)))
  | _, ("/healthz" | "/metrics" | "/eval" | "/jobs" | "/debug/requests") ->
    reply 405 (error_body "method not allowed")
  | _ -> reply 404 (error_body "not found")

let serve_conn t p fd =
  let r = Http.reader fd in
  let rec loop () =
    (* Wait for the first byte before starting the parse clock: idle
       keep-alive time must not count as the "parse" stage. Skip the
       select when bytes are already buffered (pipelined requests). *)
    if Http.buffered r > 0 then request ()
    else
      match Unix.select [ fd ] [] [] idle_poll_s with
      | [], _, _ -> if not (Atomic.get t.draining) then loop ()
      | _ -> request ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
  and request () =
    let t_parse0 = Obs.Clock.now_us () in
    match Http.read_request ~limits:t.config.limits r with
    | Ok req ->
      let t_parse1 = Obs.Clock.now_us () in
      let header_trace =
        Option.bind
          (Http.header "traceparent" req.Http.headers)
          (fun tp ->
            Option.map
              (fun tr -> tr.Obs.Trace.trace_id)
              (Obs.Trace.of_traceparent tp))
      in
      let fl =
        Obs.Flight.create ?trace_id:header_trace ~started_wall_s:(wall_now ())
          ~meth:req.Http.meth ~path:req.Http.path ()
      in
      fl.Obs.Flight.bytes_in <- String.length req.Http.body;
      Obs.Flight.record_stage (Some fl) ~stage:"parse" t_parse0 t_parse1;
      let { status; headers; body } =
        handle t p fl ~header_traced:(header_trace <> None) req
      in
      fl.Obs.Flight.bytes_out <- String.length body;
      let keep = Http.keep_alive req && not (Atomic.get t.draining) in
      let headers = if keep then headers else ("connection", "close") :: headers in
      (match
         Obs.Flight.timed ~record:fl ~stage:"write" (fun () ->
             Http.write_response ~headers fd ~status body)
       with
      | () ->
        Obs.Flight.finish ?slow_ms:t.config.slow_ms fl ~status;
        if keep then loop ()
      | exception Unix.Unix_error _ ->
        Obs.Flight.finish ?slow_ms:t.config.slow_ms fl ~status)
    | Error `Timeout when Http.buffered r = 0 ->
      (* idle keep-alive connection: poll again unless draining *)
      if not (Atomic.get t.draining) then loop ()
    | Error `Timeout -> ( try Http.write_response fd ~status:408 (error_body "request timeout") with Unix.Unix_error _ -> ())
    | Error `Closed -> ()
    | Error `Header_too_large ->
      (try Http.write_response fd ~status:431 (error_body "header too large")
       with Unix.Unix_error _ -> ())
    | Error `Body_too_large ->
      (try Http.write_response fd ~status:413 (error_body "body too large")
       with Unix.Unix_error _ -> ())
    | Error (`Bad_request msg) -> (
      try Http.write_response fd ~status:400 (error_body msg)
      with Unix.Unix_error _ -> ())
  in
  (try loop () with exn ->
    (* a handler bug must not kill the domain; answer 500 best-effort *)
    (try Http.write_response fd ~status:500 (error_body (Printexc.to_string exn))
     with _ -> ()));
  try Unix.close fd with Unix.Unix_error _ -> ()

let conn_worker t =
  let p = open_pipe () in
  let rec next () =
    Mutex.lock t.cmu;
    let rec wait () =
      if not (Queue.is_empty t.conns) then Some (Queue.pop t.conns)
      else if Atomic.get t.draining then None
      else begin
        Condition.wait t.ccond t.cmu;
        wait ()
      end
    in
    let fd = wait () in
    Mutex.unlock t.cmu;
    match fd with
    | None -> ()
    | Some fd ->
      serve_conn t p fd;
      next ()
  in
  Fun.protect ~finally:(fun () -> close_pipe p) next

let acceptor t =
  let rec loop () =
    if not (Atomic.get t.draining) then begin
      (match Unix.select [ t.lsock ] [] [] idle_poll_s with
      | [ _ ], _, _ -> (
        match Unix.accept t.lsock with
        | fd, _ ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO idle_poll_s;
          Mutex.lock t.cmu;
          Queue.push fd t.conns;
          Condition.signal t.ccond;
          Mutex.unlock t.cmu
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start (config : config) =
  (* A peer closing mid-response must surface as EPIPE, not kill us. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  Obs.Metrics.set_enabled true;
  let workers = Int.max 1 config.workers in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen lsock 64
   with e ->
     (try Unix.close lsock with _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let shards =
    Array.init workers (fun index ->
        {
          index;
          mu = Mutex.create ();
          jobs = Queue.create ();
          emu = Mutex.create ();
          engines = [];
          sc_jobs = Atomic.make 0;
          sc_engines = Atomic.make 0;
          g_depth =
            Obs.Metrics.gauge
              (Printf.sprintf "service.queue_depth{shard=\"%d\"}" index);
        })
  in
  (* The evaluation domains, one per core: each runs one job at a time
     as a pool task and helps the other jobs' fan-outs between its own.
     Without them ([auto_worker = false]) the pool only helps [step]'s
     fan-outs. The task source reaches the server through [self]. *)
  let self = Atomic.make None in
  let pool =
    if config.auto_worker then
      Parallel.Pool.create
        ~idle:(fun () -> Option.bind (Atomic.get self) (fun t -> next_task t ()))
        ()
    else Parallel.Pool.create ()
  in
  let t =
    {
      config = { config with workers };
      lsock;
      bound_port;
      draining = Atomic.make false;
      cmu = Mutex.create ();
      ccond = Condition.create ();
      conns = Queue.create ();
      shards;
      pool;
      next_shard = Atomic.make 0;
      tmu = Mutex.create ();
      table = Hashtbl.create 64;
      finished = Queue.create ();
      next_id = Atomic.make 0;
      c = counters ();
      domains = [];
      stopped = Atomic.make false;
      h_latency =
        Obs.Metrics.histogram ~buckets:Obs.Metrics.latency_buckets
          "service.request_seconds";
      h_batch =
        Obs.Metrics.histogram
          ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
          "service.batch_size";
    }
  in
  Atomic.set self (Some t);
  let spawned = ref [ Domain.spawn (fun () -> acceptor t) ] in
  for _ = 1 to config.conn_domains do
    spawned := Domain.spawn (fun () -> conn_worker t) :: !spawned
  done;
  t.domains <- !spawned;
  t

let eval_domains t = Parallel.Pool.size t.pool

let stop t =
  if Atomic.compare_and_set t.stopped false true then begin
    (* Give queued jobs [drain_grace_s] to finish before draining flips
       handlers off; their sync waiters wake as each one settles. The
       grace timer runs on the monotonic clock, same as deadlines. *)
    let deadline = Obs.Clock.now_s () +. t.config.drain_grace_s in
    let all_empty () =
      Array.for_all
        (fun sh ->
          Mutex.lock sh.mu;
          let e = Queue.is_empty sh.jobs in
          Mutex.unlock sh.mu;
          e)
        t.shards
    in
    let rec wait_empty () =
      if (not (all_empty ())) && Obs.Clock.now_s () < deadline then begin
        Unix.sleepf 0.01;
        wait_empty ()
      end
    in
    if t.config.auto_worker then wait_empty ();
    Atomic.set t.draining true;
    (* Cancel whatever is still queued, shard by shard, waking each
       job's sync waiter. *)
    Array.iter
      (fun sh ->
        Mutex.lock sh.mu;
        Queue.iter (fun j -> settle t j ~from:Queued Cancelled) sh.jobs;
        Queue.clear sh.jobs;
        Mutex.unlock sh.mu)
      t.shards;
    (* the pool domains finish the jobs they are running, then exit *)
    Parallel.Pool.shutdown t.pool;
    Mutex.lock t.cmu;
    Condition.broadcast t.ccond;
    Mutex.unlock t.cmu;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* Connections still queued but never picked up: close them. *)
    Queue.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.conns;
    Queue.clear t.conns;
    (try Unix.close t.lsock with Unix.Unix_error _ -> ())
  end

let serve_forever config =
  Stop.with_scope (fun scope ->
      let t = start config in
      Printf.printf "serving on %s:%d (version %s, %d workers)\n%!" config.host
        (port t) Build_info.version
        (Array.length t.shards);
      while not (Stop.requested scope) do
        Unix.sleepf 0.1
      done;
      Printf.printf "draining...\n%!";
      stop t;
      Printf.printf "stopped.\n%!")
