(* Parallel fan-out suites: chunk coverage, exception propagation,
   determinism with respect to domain count. *)

let pool_covers_all_chunks () =
  let n = 100 in
  let hit = Array.make n 0 in
  Tutil.with_pool 3 (fun pool ->
      Parallel.Pool.run ~pool ~chunks:n (fun c -> hit.(c) <- hit.(c) + 1));
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "chunk %d once" i) 1 c)
    hit

let pool_zero_chunks () =
  Tutil.with_pool 2 (fun pool -> Parallel.Pool.run ~pool ~chunks:0 (fun _ -> assert false))

let pool_single_domain () =
  let acc = ref 0 in
  Tutil.with_pool 1 (fun pool ->
      Parallel.Pool.run ~pool ~chunks:10 (fun c -> acc := !acc + c));
  Alcotest.(check int) "sum" 45 !acc

let pool_propagates_exception () =
  Alcotest.check_raises "failure" (Failure "boom") (fun () ->
      Tutil.with_pool 2 (fun pool ->
          Parallel.Pool.run ~pool ~chunks:8 (fun c -> if c = 3 then failwith "boom")))

let pool_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Pool.run: negative chunk count")
    (fun () -> Parallel.Pool.run ~chunks:(-1) (fun _ -> ()))

let par_array_matches_sequential =
  Tutil.qcheck ~count:50 "Par_array.init = Array.init"
    QCheck2.Gen.(pair (int_range 0 500) (int_range 1 4))
    (fun (n, domains) ->
      let f i = (i * 37) mod 101 in
      Tutil.with_pool domains (fun pool -> Parallel.Par_array.init ~pool ~chunk_size:13 n f)
      = Array.init n f)

let par_array_rejects_bad_arguments () =
  Alcotest.check_raises "negative size" (Invalid_argument "Par_array.init: negative size")
    (fun () -> ignore (Parallel.Par_array.init (-1) Fun.id));
  Alcotest.check_raises "zero chunk_size"
    (Invalid_argument "Par_array.init: chunk_size must be positive") (fun () ->
      ignore (Parallel.Par_array.init ~chunk_size:0 4 Fun.id))

let par_array_empty () =
  Alcotest.(check int) "empty" 0 (Array.length (Parallel.Par_array.init 0 (fun _ -> 0)))

let par_array_domain_count_irrelevant () =
  let f i = float_of_int (i * i) /. 7. in
  let on domains = Tutil.with_pool domains (fun pool -> Parallel.Par_array.init ~pool 1000 f) in
  let one = on 1 and four = on 4 in
  Alcotest.(check bool) "identical" true (one = four)

(* Index 0 runs inside the fan-out: [f 0] waits (at most 5 s) for [f 1]
   to start, which on a 2-domain pool only the other domain can do while
   [f 0] is still running. *)
let par_array_index0_on_pool () =
  let started1 = Atomic.make false in
  let calls = Array.init 2 (fun _ -> Atomic.make 0) in
  let overlapped =
    Tutil.with_pool 2 (fun pool ->
        Parallel.Par_array.init ~pool ~chunk_size:1 2 (fun i ->
            Atomic.incr calls.(i);
            if i = 1 then Atomic.set started1 true
            else begin
              let deadline = Unix.gettimeofday () +. 5. in
              while (not (Atomic.get started1)) && Unix.gettimeofday () < deadline do
                Domain.cpu_relax ()
              done
            end;
            Atomic.get started1))
  in
  Alcotest.(check bool) "f 1 started while f 0 ran" true overlapped.(0);
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "index %d once" i) 1 (Atomic.get c))
    calls

let par_array_index0_raises () =
  Alcotest.check_raises "index 0 failure" (Failure "index 0") (fun () ->
      Tutil.with_pool 2 (fun pool ->
          ignore
            (Parallel.Par_array.init ~pool ~chunk_size:1 4 (fun i ->
                 if i = 0 then failwith "index 0" else i))))

(* Every core runs a job, the caller included: on 2 cores the shared
   pool has one helper domain. *)
let default_domains_positive () =
  Alcotest.(check bool) "at least 1" true (Parallel.Pool.default_domains () >= 1);
  Alcotest.(check int) "every core" (Int.max 1 (Domain.recommended_domain_count ()))
    (Parallel.Pool.default_domains ())

(* --- persistent pools --- *)

let persistent_pool_reuse () =
  let pool = Parallel.Pool.create ~domains:3 () in
  Alcotest.(check int) "size" 3 (Parallel.Pool.size pool);
  (* many consecutive jobs on the same pool: domains are parked and
     rewoken, never respawned *)
  for round = 1 to 50 do
    let n = 20 + (round mod 7) in
    let hit = Array.make n 0 in
    Parallel.Pool.run ~pool ~chunks:n (fun c -> hit.(c) <- hit.(c) + 1);
    Array.iteri
      (fun i c ->
        if c <> 1 then Alcotest.failf "round %d: chunk %d ran %d times" round i c)
      hit
  done;
  Parallel.Pool.shutdown pool

let persistent_pool_exception_then_reuse () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Alcotest.check_raises "failure" (Failure "boom") (fun () ->
      Parallel.Pool.run ~pool ~chunks:8 (fun c -> if c = 5 then failwith "boom"));
  (* the pool survives a failed job *)
  let acc = Atomic.make 0 in
  Parallel.Pool.run ~pool ~chunks:10 (fun c -> ignore (Atomic.fetch_and_add acc c));
  Alcotest.(check int) "sum after failure" 45 (Atomic.get acc);
  Parallel.Pool.shutdown pool

let persistent_pool_shutdown_semantics () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Parallel.Pool.run ~pool ~chunks:4 (fun _ -> ());
  Parallel.Pool.shutdown pool;
  (* idempotent *)
  Parallel.Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool has been shut down") (fun () ->
      Parallel.Pool.run ~pool ~chunks:2 (fun _ -> ()))

let persistent_pool_nested_runs_inline () =
  let pool = Parallel.Pool.create ~domains:2 () in
  let inner_total = Atomic.make 0 in
  Parallel.Pool.run ~pool ~chunks:4 (fun _ ->
      (* a nested run from inside a chunk must drain inline rather than
         deadlock on the busy pool *)
      Parallel.Pool.run ~pool ~chunks:3 (fun c ->
          ignore (Atomic.fetch_and_add inner_total c)));
  Alcotest.(check int) "nested chunks all ran" 12 (Atomic.get inner_total);
  Parallel.Pool.shutdown pool

let shared_pool_respawns_after_shutdown () =
  let p1 = Parallel.Pool.shared () in
  Parallel.Pool.run ~pool:p1 ~chunks:4 (fun _ -> ());
  Parallel.Pool.shutdown p1;
  (* re-fetching after a shutdown transparently respawns a working pool
     (the serve → drain → serve cycle) *)
  let p2 = Parallel.Pool.shared () in
  Alcotest.(check bool) "fresh pool after shutdown" true (p2 != p1);
  let acc = Atomic.make 0 in
  Parallel.Pool.run ~pool:p2 ~chunks:10 (fun c -> ignore (Atomic.fetch_and_add acc c));
  Alcotest.(check int) "sum on respawned pool" 45 (Atomic.get acc);
  (* repeated shutdowns stay idempotent, and the default [run] path
     lands on yet another live shared pool *)
  Parallel.Pool.shutdown p2;
  Parallel.Pool.shutdown p2;
  let hits = Atomic.make 0 in
  Parallel.Pool.run ~chunks:6 (fun _ -> Atomic.incr hits);
  Alcotest.(check int) "default path after two drains" 6 (Atomic.get hits)

(* --- concurrent callers --- *)

(* Spin until [flag] is set, at most 5 s; whether it was set. *)
let spin_until flag =
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Atomic.get flag

(* Three domains each issue 50 fan-outs of varying width on one
   2-domain pool; every fan-out's result equals its sequential value. *)
let concurrent_callers_match_sequential () =
  let pool = Parallel.Pool.create ~domains:2 () in
  let value d round c = (d * 1_000_003) + (round * 1009) + (c * c) in
  let caller d =
    Domain.spawn (fun () ->
        List.init 50 (fun round ->
            let chunks = 1 + ((d * 13) + (round * 7)) mod 23 in
            let out = Array.make chunks (-1) in
            Parallel.Pool.run ~pool ~chunks (fun c -> out.(c) <- value d round c);
            out = Array.init chunks (value d round)))
  in
  let results = List.map Domain.join (List.init 3 caller) in
  Parallel.Pool.shutdown pool;
  List.iteri
    (fun d rounds ->
      List.iteri
        (fun round ok ->
          if not ok then Alcotest.failf "caller %d round %d: result differs" d round)
        rounds)
    results

(* A failing chunk reaches its own caller only: one domain's fan-outs
   all raise, another's run cleanly on the same pool at the same time. *)
let concurrent_failure_stays_with_caller () =
  let pool = Parallel.Pool.create ~domains:2 () in
  let failing =
    Domain.spawn (fun () ->
        List.init 30 (fun _ ->
            match
              Parallel.Pool.run ~pool ~chunks:8 (fun c -> if c = 3 then failwith "mine")
            with
            | () -> false
            | exception Failure m -> m = "mine"))
  in
  let clean =
    Domain.spawn (fun () ->
        List.init 30 (fun _ ->
            let acc = Atomic.make 0 in
            match
              Parallel.Pool.run ~pool ~chunks:8 (fun c -> ignore (Atomic.fetch_and_add acc c))
            with
            | () -> Atomic.get acc = 28
            | exception _ -> false))
  in
  let f = Domain.join failing and c = Domain.join clean in
  Parallel.Pool.shutdown pool;
  Alcotest.(check bool) "every failing run raised its own failure" true (List.for_all Fun.id f);
  Alcotest.(check bool) "every clean run completed" true (List.for_all Fun.id c)

(* A caller does not wait for another caller's fan-out: while a long
   fan-out holds both domains of a 2-domain pool, a second caller runs
   all of its own chunks and returns. *)
let callers_do_not_wait_for_each_other () =
  let pool = Parallel.Pool.create ~domains:2 () in
  let release = Atomic.make false and released = Atomic.make true in
  let started = Atomic.make 0 in
  let long =
    Domain.spawn (fun () ->
        Parallel.Pool.run ~pool ~chunks:2 (fun _ ->
            Atomic.incr started;
            if not (spin_until release) then Atomic.set released false))
  in
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  let hits = Atomic.make 0 in
  Parallel.Pool.run ~pool ~chunks:5 (fun _ -> Atomic.incr hits);
  Atomic.set release true;
  Domain.join long;
  Parallel.Pool.shutdown pool;
  Alcotest.(check int) "short fan-out ran every chunk" 5 (Atomic.get hits);
  Alcotest.(check bool) "short fan-out returned while the long one ran" true
    (Atomic.get released)

(* [shutdown] while a caller is mid-run: the run completes with every
   chunk, and the next run raises. *)
let shutdown_lets_inflight_run_finish () =
  let pool = Parallel.Pool.create ~domains:2 () in
  let release = Atomic.make false and started = Atomic.make false in
  let hits = Array.init 6 (fun _ -> Atomic.make 0) in
  let caller =
    Domain.spawn (fun () ->
        Parallel.Pool.run ~pool ~chunks:6 (fun c ->
            Atomic.set started true;
            ignore (spin_until release);
            Atomic.incr hits.(c)))
  in
  ignore (spin_until started);
  let stopper = Domain.spawn (fun () -> Parallel.Pool.shutdown pool) in
  Unix.sleepf 0.05;
  Atomic.set release true;
  Domain.join caller;
  Domain.join stopper;
  Array.iteri
    (fun c h -> Alcotest.(check int) (Printf.sprintf "chunk %d once" c) 1 (Atomic.get h))
    hits;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool has been shut down") (fun () ->
      Parallel.Pool.run ~pool ~chunks:2 (fun _ -> ()))

(* With two callers on one pool, a run nested inside a chunk still
   drains inline on the domain that runs the outer chunk. *)
let concurrent_nested_runs_inline () =
  let pool = Parallel.Pool.create ~domains:2 () in
  let caller () =
    Domain.spawn (fun () ->
        let inline = Atomic.make true and total = Atomic.make 0 in
        for _ = 1 to 20 do
          Parallel.Pool.run ~pool ~chunks:4 (fun _ ->
              let outer = Domain.self () in
              Parallel.Pool.run ~pool ~chunks:3 (fun c ->
                  if Domain.self () <> outer then Atomic.set inline false;
                  ignore (Atomic.fetch_and_add total c)))
        done;
        (Atomic.get inline, Atomic.get total))
  in
  let a = caller () and b = caller () in
  let ra = Domain.join a and rb = Domain.join b in
  Parallel.Pool.shutdown pool;
  List.iter
    (fun (inline, total) ->
      Alcotest.(check bool) "nested chunks ran on the outer chunk's domain" true inline;
      Alcotest.(check int) "nested chunks all ran" (20 * 4 * 3) total)
    [ ra; rb ]

(* A pool with a task source: [tasks] is a locked queue of thunks that
   [idle] pops, so the helpers run the tasks and every task's fan-out
   (naming no pool) runs on the same helpers. *)
let task_pool ~domains =
  let mu = Mutex.create () and tasks = Queue.create () in
  let idle () = Mutex.protect mu (fun () -> Queue.take_opt tasks) in
  let pool = Parallel.Pool.create ~domains ~idle () in
  let post f =
    Mutex.protect mu (fun () -> Queue.push f tasks);
    Parallel.Pool.wake pool
  in
  (pool, post)

let wait_for n counter =
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get counter < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Atomic.get counter

(* 40 tasks, each fanning out over 1–9 chunks with no pool named: every
   result equals its sequential value, and only the pool's own two
   domains ran tasks or chunks (not the posting domain, nor a helper of
   the shared pool). *)
let tasks_run_on_helpers () =
  let pool, post = task_pool ~domains:2 in
  Alcotest.(check int) "size counts the helpers" 2 (Parallel.Pool.size pool);
  let me = Domain.self () in
  let seen_mu = Mutex.create () and seen = ref [] in
  let saw () =
    let d = Domain.self () in
    Mutex.protect seen_mu (fun () -> if not (List.mem d !seen) then seen := d :: !seen)
  in
  let finished = Atomic.make 0 in
  let results = Array.make 40 (-1) in
  ignore (Parallel.Pool.shared ());
  for i = 0 to 39 do
    post (fun () ->
        saw ();
        let chunks = 1 + (i mod 9) in
        let parts = Array.make chunks 0 in
        Parallel.Pool.run ~chunks (fun c ->
            saw ();
            (* long enough for an idle domain to claim a chunk *)
            Unix.sleepf 0.0002;
            parts.(c) <- (c + 1) * i);
        results.(i) <- Array.fold_left ( + ) 0 parts;
        Atomic.incr finished)
  done;
  let n = wait_for 40 finished in
  Parallel.Pool.shutdown pool;
  Alcotest.(check int) "every task ran" 40 n;
  Array.iteri
    (fun i r ->
      let chunks = 1 + (i mod 9) in
      Alcotest.(check int) (Printf.sprintf "task %d" i) (i * chunks * (chunks + 1) / 2) r)
    results;
  Alcotest.(check bool) "nothing ran on the posting domain" false (List.mem me !seen);
  Alcotest.(check bool) "only the pool's two domains ran" true (List.length !seen <= 2)

(* An idle helper helps a running task's fan-out: chunk 0 waits until
   chunk 1 has run on another domain, which only the second helper can
   do while the first runs the task. *)
let idle_helper_helps_a_task () =
  let pool, post = task_pool ~domains:2 in
  let other_ran = Atomic.make false and helped = Atomic.make false in
  let finished = Atomic.make 0 in
  post (fun () ->
      let task_domain = Domain.self () in
      Parallel.Pool.run ~chunks:2 (fun _ ->
          if Domain.self () = task_domain then Atomic.set helped (spin_until other_ran)
          else Atomic.set other_ran true);
      Atomic.incr finished);
  let n = wait_for 1 finished in
  Parallel.Pool.shutdown pool;
  Alcotest.(check int) "the task finished" 1 n;
  Alcotest.(check bool) "the other helper ran a chunk of the task's fan-out" true
    (Atomic.get helped)

(* [shutdown] while a task runs: the task still fans out (over its own
   domain, as the other helper has gone) and completes, a task posted
   afterwards never runs, and a run from outside raises. *)
let shutdown_lets_a_task_finish () =
  let pool, post = task_pool ~domains:2 in
  let release = Atomic.make false and started = Atomic.make false in
  let finished = Atomic.make 0 and late = Atomic.make false in
  let hits = Atomic.make 0 in
  post (fun () ->
      Atomic.set started true;
      ignore (spin_until release);
      Parallel.Pool.run ~chunks:4 (fun _ -> Atomic.incr hits);
      Atomic.incr finished);
  ignore (spin_until started);
  let stopper = Domain.spawn (fun () -> Parallel.Pool.shutdown pool) in
  Unix.sleepf 0.05;
  post (fun () -> Atomic.set late true);
  Atomic.set release true;
  Domain.join stopper;
  Alcotest.(check int) "the running task finished" 1 (Atomic.get finished);
  Alcotest.(check int) "its fan-out ran every chunk" 4 (Atomic.get hits);
  Alcotest.(check bool) "no task started after shutdown" false (Atomic.get late);
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool has been shut down") (fun () ->
      Parallel.Pool.run ~pool ~chunks:2 (fun _ -> ()))

let par_array_explicit_pool () =
  let pool = Parallel.Pool.create ~domains:3 () in
  let f i = (i * 31) mod 97 in
  let got = Parallel.Par_array.init ~pool ~chunk_size:13 500 f in
  Parallel.Pool.shutdown pool;
  Alcotest.(check bool) "matches Array.init" true (got = Array.init 500 f)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          tc "covers all chunks" `Quick pool_covers_all_chunks;
          tc "zero chunks" `Quick pool_zero_chunks;
          tc "single domain" `Quick pool_single_domain;
          tc "exception" `Quick pool_propagates_exception;
          tc "negative" `Quick pool_rejects_negative;
          tc "default domains" `Quick default_domains_positive;
        ] );
      ( "persistent",
        [
          tc "reuse across jobs" `Quick persistent_pool_reuse;
          tc "survives exception" `Quick persistent_pool_exception_then_reuse;
          tc "shutdown" `Quick persistent_pool_shutdown_semantics;
          tc "nested runs inline" `Quick persistent_pool_nested_runs_inline;
          tc "shared respawns after shutdown" `Quick shared_pool_respawns_after_shutdown;
        ] );
      ( "concurrent",
        [
          tc "callers match sequential" `Quick concurrent_callers_match_sequential;
          tc "failure stays with its caller" `Quick concurrent_failure_stays_with_caller;
          tc "callers do not wait for each other" `Quick callers_do_not_wait_for_each_other;
          tc "shutdown lets an in-flight run finish" `Quick shutdown_lets_inflight_run_finish;
          tc "nested runs inline" `Quick concurrent_nested_runs_inline;
        ] );
      ( "tasks",
        [
          tc "tasks run on the helpers" `Quick tasks_run_on_helpers;
          tc "an idle helper helps a task" `Quick idle_helper_helps_a_task;
          tc "shutdown lets a running task finish" `Quick shutdown_lets_a_task_finish;
        ] );
      ( "par_array",
        [
          par_array_matches_sequential;
          tc "bad arguments" `Quick par_array_rejects_bad_arguments;
          tc "empty" `Quick par_array_empty;
          tc "domain independence" `Quick par_array_domain_count_irrelevant;
          tc "explicit pool" `Quick par_array_explicit_pool;
          tc "index 0 on the pool" `Quick par_array_index0_on_pool;
          tc "index 0 raises" `Quick par_array_index0_raises;
        ] );
    ]
