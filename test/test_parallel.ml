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
