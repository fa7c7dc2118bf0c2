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

(* One running fan-out: the chunk function, the atomic work-stealing
   counter [next], the atomic [completed] count its caller waits on, and
   slot-private telemetry cells. Chunks are claimed through [next], so
   results depend only on the chunk decomposition — never on how many
   domains happened to run, nor on which other fan-outs ran beside it. *)
type job = {
  f : int -> unit;
  chunks : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  failure : exn option Atomic.t;
  busy : float array;
  count : int array;
  instrumented : bool;
  jmu : Mutex.t; (* with [done_], wakes the caller at [completed = chunks] *)
  done_ : Condition.t;
}

let make_job ~slots ~chunks f =
  {
    f;
    chunks;
    next = Atomic.make 0;
    completed = Atomic.make 0;
    failure = Atomic.make None;
    busy = Array.make slots 0.;
    count = Array.make slots 0;
    instrumented = Obs.Metrics.enabled () || Obs.Span.enabled ();
    jmu = Mutex.create ();
    done_ = Condition.create ();
  }

(* Set while the current domain is draining chunks; a nested [run] from
   inside a chunk executes inline instead of deadlocking on (or
   oversubscribing) the pool. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let unclaimed job = Atomic.get job.next < job.chunks

(* Count one finished chunk; whoever finishes the last one wakes the
   caller. The count is taken before the lock, and the caller tests it
   under the lock before it sleeps, so the wake-up cannot be lost. *)
let complete job =
  if Atomic.fetch_and_add job.completed 1 = job.chunks - 1 then
    Mutex.protect job.jmu (fun () -> Condition.broadcast job.done_)

let drain job slot =
  let rec loop () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.chunks then begin
      (try
         (* fault-injection boundary: an injected chunk failure takes the
            same first-failure path as a real one — remaining chunks
            drain, helpers move on, the caller gets the exception *)
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
            the caller's wait ends promptly *)
         ignore (Atomic.compare_and_set job.failure None (Some exn)));
      complete job;
      loop ()
    end
  in
  loop ()

let drain_as_worker job slot =
  Domain.DLS.set in_worker_key true;
  drain job slot;
  Domain.DLS.set in_worker_key false

(* Feed telemetry and re-raise the first chunk failure. Called once per
   job, by its caller, after every chunk has completed. *)
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
   condition variable between fan-outs, so a sweep of thousands of small
   fan-outs pays spawn/join once. Any number of callers may run at once:
   each publishes its fan-out at the tail of [running] and drains it
   itself, while a helper claims chunks from the oldest fan-out that
   still has unclaimed ones. A helper that finds no chunk asks [idle]
   for a task and runs it, or parks when there is none. A caller waits
   only for the chunks it did not run itself, never for a helper that
   claimed nothing. *)
type t = {
  helpers : int;
  size : int;  (* domains that run a fan-out: the helpers, plus the caller without [idle] *)
  idle : unit -> (unit -> unit) option;  (* called under [mutex] *)
  mutex : Mutex.t; (* guards [running] and [stop] *)
  wake : Condition.t; (* a fan-out was published, a task is ready, or shutdown *)
  mutable running : job list; (* oldest first *)
  mutable stop : bool;
  mutable handles : unit Domain.t list;
}

(* The pool whose helper this domain is. A run that names no pool goes
   to it, so a task's nested fan-outs stay on its own pool's domains. *)
let helper_of : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let worker_loop t slot () =
  Domain.DLS.set helper_of (Some t);
  Mutex.lock t.mutex;
  let rec loop () =
    if not t.stop then
      match List.find_opt unclaimed t.running with
      | Some job ->
        Mutex.unlock t.mutex;
        drain_as_worker job slot;
        Mutex.lock t.mutex;
        loop ()
      | None -> (
        match t.idle () with
        | Some task ->
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex;
          loop ()
        | None ->
          Condition.wait t.wake t.mutex;
          loop ())
  in
  loop ();
  Mutex.unlock t.mutex

let no_task () = None

let create ?domains ?idle () =
  let domains = match domains with Some d -> Int.max 1 d | None -> default_domains () in
  (* with [idle] every fan-out's caller is a helper running a task *)
  let helpers = if Option.is_some idle then domains else domains - 1 in
  let t =
    {
      helpers;
      size = domains;
      idle = Option.value idle ~default:no_task;
      mutex = Mutex.create ();
      wake = Condition.create ();
      running = [];
      stop = false;
      handles = [];
    }
  in
  t.handles <- List.init helpers (fun i -> Domain.spawn (worker_loop t (i + 1)));
  t

let size t = t.size

let wake t = Mutex.protect t.mutex (fun () -> Condition.signal t.wake)

(* Helpers finish the chunks they claimed and the task they run, then
   exit; a caller still draining runs what is left of its fan-out on its
   own domain. *)
let shutdown t =
  Mutex.lock t.mutex;
  let handles = t.handles in
  t.stop <- true;
  t.handles <- [];
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join handles

(* Nested fan-out from inside a chunk: drain sequentially on the calling
   domain (same chunk decomposition, same first-failure semantics). *)
let run_inline ~chunks f =
  let job = make_job ~slots:1 ~chunks f in
  drain job 0;
  finish job

let is_helper t = match Domain.DLS.get helper_of with Some p -> p == t | None -> false

let run_on t ~chunks f =
  let job = make_job ~slots:(t.helpers + 1) ~chunks f in
  Mutex.lock t.mutex;
  (* a task that was running when shutdown began still fans out *)
  if t.stop && not (is_helper t) then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run: pool has been shut down"
  end;
  t.running <- t.running @ [ job ];
  if chunks > 1 then Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  drain_as_worker job 0;
  Mutex.lock t.mutex;
  t.running <- List.filter (fun j -> j != job) t.running;
  Mutex.unlock t.mutex;
  Mutex.lock job.jmu;
  while Atomic.get job.completed < chunks do
    Condition.wait job.done_ job.jmu
  done;
  Mutex.unlock job.jmu;
  finish job

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
  else
    match (pool, Domain.DLS.get helper_of) with
    | Some t, _ | None, Some t -> run_on t ~chunks f
    | None, None -> run_on (shared ()) ~chunks f
