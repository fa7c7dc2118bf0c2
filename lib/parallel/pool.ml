let default_domains () = Int.max 1 (Domain.recommended_domain_count ())

(* Telemetry (active only while Obs sinks are enabled): every chunk gets
   a "pool.chunk" span, and each worker accumulates its busy time and
   chunk count into a slot-private cell. After the join the totals feed
   the registry, including the imbalance ratio — max worker busy time
   over the mean across workers that ran at least one chunk (1.0 =
   perfectly balanced). *)
let m_chunks = Obs.Metrics.counter "pool.chunks"
let m_busy_us = Obs.Metrics.counter "pool.busy_us"
let m_runs = Obs.Metrics.counter "pool.runs"
let g_imbalance = Obs.Metrics.gauge "pool.imbalance"

(* One submitted fan-out: the chunk function plus the atomic work-stealing
   counter and slot-private telemetry cells. Chunks are claimed through
   [next], so results depend only on the chunk decomposition — never on
   how many domains happened to run. *)
type job = {
  f : int -> unit;
  chunks : int;
  next : int Atomic.t;
  failure : exn option Atomic.t;
  busy : float array;
  count : int array;
  instrumented : bool;
}

let make_job ~slots ~chunks f =
  {
    f;
    chunks;
    next = Atomic.make 0;
    failure = Atomic.make None;
    busy = Array.make slots 0.;
    count = Array.make slots 0;
    instrumented = Obs.Metrics.enabled () || Obs.Span.enabled ();
  }

(* Set while the current domain is draining chunks; a nested [run] from
   inside a chunk executes inline instead of deadlocking on (or
   oversubscribing) the pool. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let drain job slot =
  let rec loop () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.chunks then begin
      (try
         (* fault-injection boundary: an injected chunk failure takes the
            same first-failure path as a real one — remaining chunks
            drain, workers re-park, the caller gets the exception *)
         Fault.cut "pool.chunk";
         if job.instrumented then begin
           let t0 = Unix.gettimeofday () in
           Obs.Span.with_ ~name:"pool.chunk" (fun () -> job.f c);
           job.busy.(slot) <- job.busy.(slot) +. (Unix.gettimeofday () -. t0);
           job.count.(slot) <- job.count.(slot) + 1
         end
         else job.f c
       with exn ->
         (* record the first failure; later chunks still drain so that
            all domains terminate promptly *)
         ignore (Atomic.compare_and_set job.failure None (Some exn)));
      loop ()
    end
  in
  loop ()

let drain_as_worker job slot =
  Domain.DLS.set in_worker_key true;
  drain job slot;
  Domain.DLS.set in_worker_key false

(* Feed telemetry and re-raise the first chunk failure. Called once per
   job, after every participating domain is known to be done. *)
let finish job =
  if job.instrumented && job.chunks > 0 then begin
    let total_busy = Array.fold_left ( +. ) 0. job.busy in
    let max_busy = Array.fold_left Float.max 0. job.busy in
    let active =
      Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 job.count
    in
    Obs.Metrics.incr m_runs;
    Obs.Metrics.add m_chunks (Array.fold_left ( + ) 0 job.count);
    Obs.Metrics.add m_busy_us (int_of_float (total_busy *. 1e6));
    if active > 0 && total_busy > 0. then
      Obs.Metrics.set g_imbalance (max_busy /. (total_busy /. float_of_int active))
  end;
  match Atomic.get job.failure with Some exn -> raise exn | None -> ()

(* Persistent pool: helper domains are spawned once and then parked on a
   condition variable between jobs, so a sweep of thousands of small
   fan-outs pays spawn/join once instead of per call. A job is published
   as (job, generation); a helper that has already served generation g
   sleeps until [seq] moves past g. [submit] serializes whole jobs, so
   one job's helpers are all back at the fence before the next job's
   generation is published. *)
type t = {
  helpers : int;
  mutex : Mutex.t; (* guards [job], [seq], [pending], [stop] *)
  wake : Condition.t; (* new generation or shutdown *)
  finished : Condition.t; (* [pending] reached zero *)
  submit : Mutex.t; (* serializes run_on callers *)
  mutable job : job option;
  mutable seq : int;
  mutable pending : int;
  mutable stop : bool;
  mutable handles : unit Domain.t list;
}

let worker_loop t slot () =
  Mutex.lock t.mutex;
  let seen = ref 0 in
  let running = ref true in
  while !running do
    if t.stop then running := false
    else if t.seq = !seen then Condition.wait t.wake t.mutex
    else begin
      seen := t.seq;
      let job = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.mutex;
      drain_as_worker job slot;
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.finished
    end
  done;
  Mutex.unlock t.mutex

let create ?domains () =
  let domains = match domains with Some d -> Int.max 1 d | None -> default_domains () in
  let t =
    {
      helpers = domains - 1;
      mutex = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      submit = Mutex.create ();
      job = None;
      seq = 0;
      pending = 0;
      stop = false;
      handles = [];
    }
  in
  t.handles <- List.init t.helpers (fun i -> Domain.spawn (worker_loop t (i + 1)));
  t

let size t = t.helpers + 1

let shutdown t =
  (* taking [submit] first lets an in-flight job complete *)
  Mutex.lock t.submit;
  Mutex.lock t.mutex;
  let handles = t.handles in
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.wake
  end;
  t.handles <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join handles;
  Mutex.unlock t.submit

(* Nested fan-out from inside a chunk: drain sequentially on the calling
   domain (same chunk decomposition, same first-failure semantics). *)
let run_inline ~chunks f =
  let job = make_job ~slots:1 ~chunks f in
  drain job 0;
  finish job

let run_on t ~chunks f =
  if Domain.DLS.get in_worker_key then run_inline ~chunks f
  else begin
    Mutex.lock t.submit;
    let job = make_job ~slots:(t.helpers + 1) ~chunks f in
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      Mutex.unlock t.submit;
      invalid_arg "Pool.run: pool has been shut down"
    end;
    t.job <- Some job;
    t.pending <- t.helpers;
    t.seq <- t.seq + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    drain_as_worker job 0;
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.finished t.mutex
    done;
    t.job <- None;
    Mutex.unlock t.mutex;
    Mutex.unlock t.submit;
    finish job
  end

(* Process-wide shared pool, created on first demand and torn down at
   exit. Callers that pass no [?pool] land here, so campaigns reuse one
   warm set of domains across every case.

   The cell may be refreshed: shutting the shared pool down (a server
   drain, a test) and asking for it again respawns a fresh pool, so
   serve → drain → serve cycles in one process keep working. The
   [at_exit] hook is registered exactly once and tears down whichever
   pool is current at exit — never a pool per respawn. *)
let shared_cell : t option Atomic.t = Atomic.make None
let shared_init = Mutex.create ()
let shared_at_exit_registered = ref false

let stopped t =
  Mutex.lock t.mutex;
  let s = t.stop in
  Mutex.unlock t.mutex;
  s

let shared () =
  match Atomic.get shared_cell with
  | Some t when not (stopped t) -> t
  | _ ->
    Mutex.lock shared_init;
    let t =
      match Atomic.get shared_cell with
      | Some t when not (stopped t) -> t
      | _ ->
        let t = create () in
        if not !shared_at_exit_registered then begin
          shared_at_exit_registered := true;
          at_exit (fun () ->
              match Atomic.get shared_cell with
              | Some t -> shutdown t
              | None -> ())
        end;
        Atomic.set shared_cell (Some t);
        t
    in
    Mutex.unlock shared_init;
    t

let run ?pool ~chunks f =
  if chunks < 0 then invalid_arg "Pool.run: negative chunk count";
  if Domain.DLS.get in_worker_key then run_inline ~chunks f
  else run_on (match pool with Some t -> t | None -> shared ()) ~chunks f
