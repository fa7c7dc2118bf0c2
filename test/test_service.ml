(* Evaluation-service suites: bounded HTTP parsing, protocol round-trips,
   batching, backpressure, deadlines, drain and Stop-scope composition.
   Servers bind 127.0.0.1 on ephemeral ports. *)

module Http = Service.Http
module Proto = Service.Proto
module Server = Service.Server
module Client = Service.Client
module Stop = Experiments.Stop

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- HTTP parser ------------------------------------------------- *)

(* Feed raw bytes to the request parser through a socketpair. *)
let parse_bytes ?limits bytes =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer = Domain.spawn (fun () ->
      let buf = Bytes.of_string bytes in
      let n = Bytes.length buf in
      let rec go off =
        if off < n then
          match Unix.write a buf off (n - off) with
          | w -> go (off + w)
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      in
      go 0;
      (try Unix.shutdown a Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()))
  in
  let result = Http.read_request ?limits (Http.reader b) in
  Domain.join writer;
  Unix.close a;
  Unix.close b;
  result

let http_parses_simple_request () =
  match parse_bytes "POST /eval?x=1&y=a%20b HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nhi" with
  | Ok req ->
    Alcotest.(check string) "meth" "POST" req.Http.meth;
    Alcotest.(check string) "path" "/eval" req.Http.path;
    Alcotest.(check (list (pair string string))) "query" [ ("x", "1"); ("y", "a b") ]
      req.Http.query;
    Alcotest.(check string) "body" "hi" req.Http.body;
    Alcotest.(check bool) "keep alive" true (Http.keep_alive req)
  | Error e -> Alcotest.failf "unexpected error: %s" (Http.error_to_string e)

let http_rejects_oversized_header () =
  let limits = { Http.default_limits with Http.max_header_bytes = 128 } in
  let big = "GET / HTTP/1.1\r\nx-pad: " ^ String.make 256 'a' ^ "\r\n\r\n" in
  (match parse_bytes ~limits big with
  | Error `Header_too_large -> ()
  | Ok _ -> Alcotest.fail "oversized header accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Http.error_to_string e));
  let limits = { Http.default_limits with Http.max_headers = 2 } in
  match parse_bytes ~limits "GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n" with
  | Error `Header_too_large -> ()
  | Ok _ -> Alcotest.fail "too many headers accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Http.error_to_string e)

let http_rejects_oversized_body () =
  let limits = { Http.default_limits with Http.max_body_bytes = 8 } in
  match parse_bytes ~limits "POST / HTTP/1.1\r\nContent-Length: 64\r\n\r\n" with
  | Error `Body_too_large -> ()
  | Ok _ -> Alcotest.fail "oversized body accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Http.error_to_string e)

let http_rejects_malformed () =
  let expect_bad bytes =
    match parse_bytes bytes with
    | Error (`Bad_request _) -> ()
    | Ok _ -> Alcotest.failf "accepted malformed %S" bytes
    | Error e -> Alcotest.failf "wrong error for %S: %s" bytes (Http.error_to_string e)
  in
  expect_bad "NOT-A-REQUEST-LINE\r\n\r\n";
  expect_bad "GET / HTTP/9.9\r\n\r\n";
  expect_bad "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
  expect_bad "POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
  expect_bad "POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n";
  expect_bad "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  expect_bad "GET /%zz HTTP/1.1\r\n\r\n";
  (* truncated mid-head and mid-body *)
  expect_bad "GET / HTTP/1.1\r\nHost: h";
  expect_bad "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"

let http_eof_is_closed () =
  match parse_bytes "" with
  | Error `Closed -> ()
  | Ok _ -> Alcotest.fail "empty stream produced a request"
  | Error e -> Alcotest.failf "wrong error: %s" (Http.error_to_string e)

let http_keep_alive_pipelining () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let bytes = "GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.0\r\n\r\n" in
  ignore (Unix.write a (Bytes.of_string bytes) 0 (String.length bytes));
  let r = Http.reader b in
  (match Http.read_request r with
  | Ok req ->
    Alcotest.(check string) "first" "/one" req.Http.path;
    Alcotest.(check bool) "keep-alive" true (Http.keep_alive req)
  | Error e -> Alcotest.failf "first: %s" (Http.error_to_string e));
  (match Http.read_request r with
  | Ok req ->
    Alcotest.(check string) "second" "/two" req.Http.path;
    Alcotest.(check bool) "1.0 closes" false (Http.keep_alive req)
  | Error e -> Alcotest.failf "second: %s" (Http.error_to_string e));
  Unix.close a;
  Unix.close b

let http_fuzz_never_raises =
  Tutil.qcheck ~count:60 "read_request never raises"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
    (fun bytes ->
      let limits =
        { Http.max_header_bytes = 64; max_headers = 4; max_body_bytes = 64 }
      in
      match parse_bytes ~limits bytes with Ok _ | Error _ -> true)

(* --- Protocol ---------------------------------------------------- *)

let named_job ?(schedules = [ Proto.Heuristic "HEFT" ]) ?(ul = 1.1) ?deadline_ms
    ?(seed = 1L) () =
  {
    Proto.workload =
      Proto.Named { kind = Experiments.Case.Cholesky; n = 10; procs = 3; seed };
    ul;
    backend = Makespan.Engine.Classical;
    schedules;
    slack_mode = `Disjunctive;
    delta = None;
    gamma = None;
    deadline_ms;
    trace = None;
  }

let inline_job () =
  let graph = Dag.Graph.make ~n:3 ~edges:[ (0, 1, 2.); (0, 2, 1.); (1, 2, 3.) ] in
  let etc = [| [| 1.; 2. |]; [| 2.; 1. |]; [| 1.5; 1.5 |] |] in
  let flat = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let platform = Platform.make ~etc ~tau:flat ~latency:flat in
  {
    Proto.workload = Proto.Inline { graph; platform };
    ul = 1.2;
    backend = Makespan.Engine.Dodin;
    schedules = [ Proto.Random { count = 4; seed = 3L } ];
    slack_mode = `Precedence;
    delta = Some 0.5;
    gamma = Some 1.001;
    deadline_ms = Some 60_000;
    trace = None;
  }

let proto_job_roundtrip () =
  let check job =
    match Proto.job_of_json (Proto.job_to_json job) with
    | Ok back ->
      Alcotest.(check string) "roundtrip" (Proto.job_to_json job) (Proto.job_to_json back)
    | Error e -> Alcotest.failf "roundtrip failed: %s" e
  in
  check (named_job ());
  check
    (named_job
       ~schedules:[ Proto.Heuristic "DLS"; Proto.Random { count = 7; seed = -1L } ]
       ~deadline_ms:1500 ());
  check (inline_job ());
  check { (named_job ()) with Proto.backend = Makespan.Engine.Montecarlo { count = 50; seed = 9L } }

let proto_rejects_invalid () =
  let expect_err body =
    match Proto.job_of_json body with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted invalid job %s" body
  in
  expect_err "not json at all {";
  expect_err "[1,2,3]";
  expect_err {|{"ul":1.1,"schedules":["HEFT"]}|};
  (* missing workload *)
  expect_err
    {|{"workload":{"kind":"cholesky","n":10,"procs":3},"ul":0.5,"schedules":["HEFT"]}|};
  expect_err
    {|{"workload":{"kind":"cholesky","n":10,"procs":3},"ul":1.1,"schedules":[]}|};
  expect_err
    {|{"workload":{"kind":"cholesky","n":10,"procs":3},"ul":1.1,"schedules":["NOPE"]}|};
  expect_err
    {|{"workload":{"kind":"volcano","n":10,"procs":3},"ul":1.1,"schedules":["HEFT"]}|};
  expect_err
    {|{"workload":{"kind":"cholesky","n":10,"procs":3},"ul":1.1,"backend":"quantum","schedules":["HEFT"]}|};
  expect_err
    {|{"workload":{"kind":"cholesky","n":99999,"procs":3},"ul":1.1,"schedules":["HEFT"]}|};
  expect_err
    {|{"workload":{"kind":"cholesky","n":10,"procs":3},"ul":1.1,"schedules":[{"random":{"count":999999999}}]}|};
  expect_err
    {|{"workload":{"kind":"cholesky","n":10,"procs":3},"ul":1.1,"delta":-1,"schedules":["HEFT"]}|};
  expect_err
    {|{"workload":{"kind":"cholesky","n":10,"procs":3},"ul":1.1,"backend":{"montecarlo":{"count":0}},"schedules":["HEFT"]}|};
  (* a job built in code passes the same checks, with the decoder's error *)
  let expect_invalid what job want =
    match Proto.validate job with
    | Error e -> Alcotest.(check string) what want e
    | Ok () -> Alcotest.failf "validate accepted %s" what
  in
  Alcotest.(check bool) "valid job" true (Proto.validate (named_job ()) = Ok ());
  expect_invalid "NaN delta" { (named_job ()) with Proto.delta = Some Float.nan }
    "delta: expected a finite number";
  expect_invalid "negative delta" { (named_job ()) with Proto.delta = Some (-1.) }
    "delta: must be >= 0";
  expect_invalid "infinite gamma" { (named_job ()) with Proto.gamma = Some Float.infinity }
    "gamma: expected a finite number";
  expect_invalid "zero mc count"
    { (named_job ()) with Proto.backend = Makespan.Engine.Montecarlo { count = 0; seed = 0L } }
    "backend.montecarlo.count: 0 out of range [1, 1000000]"

let proto_eval_deterministic () =
  let job = named_job ~schedules:[ Proto.Heuristic "HEFT"; Proto.Random { count = 3; seed = 5L } ] () in
  match (Proto.eval job, Proto.eval job) with
  | Ok a, Ok b -> Alcotest.(check string) "identical bytes" a b
  | Error e, _ | _, Error e -> Alcotest.failf "eval failed: %s" e

(* Neighbor specs go through the worker's incremental-session fast path
   (one full base evaluation + an uncommitted cone replay per row). The
   served numbers must be byte-for-byte those of a fresh full evaluation
   of the patched schedule — the fast path is a latency optimization,
   never a semantic one. *)
let proto_neighbor_rows_match_fresh_eval () =
  let base_job = named_job () in
  let ctx =
    match Proto.context_of_job base_job with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (* move a sink task: appending it to any processor order is always
     precedence-feasible, so every target processor is a valid neighbor *)
  let exits = Dag.Graph.exits ctx.Proto.graph in
  let task = exits.(Array.length exits - 1) in
  let targets = [ 0; 1; 2 ] in
  let job =
    {
      base_job with
      Proto.schedules =
        Proto.Heuristic "HEFT"
        :: List.map (fun to_ -> Proto.Neighbor { base = "HEFT"; task; to_; at = None }) targets;
    }
  in
  let body = match Proto.eval job with Ok b -> b | Error e -> Alcotest.fail e in
  (match Proto.eval job with
  | Ok again -> Alcotest.(check string) "deterministic bytes" body again
  | Error e -> Alcotest.fail e);
  let engine =
    Makespan.Engine.create ~graph:ctx.Proto.graph ~platform:ctx.Proto.platform
      ~model:ctx.Proto.model
  in
  let base =
    match Sched.Registry.parse "HEFT" with
    | Ok e -> e.Sched.Registry.run ctx.Proto.graph ctx.Proto.platform
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun to_ ->
      let s = Sched.Schedule.reassign base ~task ~to_ in
      let e =
        Makespan.Engine.analyze ~backend:Makespan.Engine.Classical
          ~slack_mode:`Disjunctive engine s
      in
      let d = e.Makespan.Engine.makespan in
      let row =
        Printf.sprintf
          {|{"source":"neighbor:HEFT:%d:%d","makespan":{"mean":%s,"std":%s,"q05":%s,"q50":%s,"q95":%s}|}
          task to_
          (Obs.Json.float_lit (Distribution.Dist.mean d))
          (Obs.Json.float_lit (Distribution.Dist.std d))
          (Obs.Json.float_lit (Distribution.Dist.quantile d 0.05))
          (Obs.Json.float_lit (Distribution.Dist.quantile d 0.5))
          (Obs.Json.float_lit (Distribution.Dist.quantile d 0.95))
      in
      Alcotest.(check bool)
        (Printf.sprintf "neighbor row to proc %d equals fresh eval" to_)
        true
        (contains ~needle:row body))
    targets;
  (* the neighbor spec round-trips through the wire format *)
  match Proto.job_of_json (Proto.job_to_json job) with
  | Ok back ->
    Alcotest.(check string) "neighbor json roundtrip" (Proto.job_to_json job)
      (Proto.job_to_json back)
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let on_case kind n procs job =
  { job with Proto.workload = Proto.Named { kind; n; procs; seed = 1L } }

let perfbench_cases =
  let module C = Experiments.Case in
  [ ("random30/p8", C.Random_graph, 30, 8); ("cholesky10/p3", C.Cholesky, 10, 3);
    ("gauss104/p16", C.Gauss_elim, 104, 16) ]

let engine_of_job job =
  match Proto.context_of_job job with
  | Ok ctx ->
    Makespan.Engine.create ~graph:ctx.Proto.graph ~platform:ctx.Proto.platform
      ~model:ctx.Proto.model
  | Error e -> Alcotest.fail e

(* The makespan object of the row labeled [source], as rendered. *)
let row_makespan ~source body =
  let needle = Printf.sprintf {|{"source":"%s","makespan":|} source in
  let rec find i =
    if i + String.length needle > String.length body then
      Alcotest.failf "no row %s in %s" source body
    else if String.sub body i (String.length needle) = needle then i
    else find (i + 1)
  in
  let start = find 0 + String.length needle in
  String.sub body start (String.index_from body start '}' - start + 1)

(* A heuristic row that is also a neighbor base reads its session's
   evaluation instead of running a second full one. On a fresh engine,
   [HEFT; neighbor:HEFT:29:1] on random30/p8 made 3 evaluations (the
   session's, the neighbor's probe and HEFT's own [analyze]) and 1
   reevaluation; now it makes 2 and 1. HEFT's row still renders the
   makespan of a job that asks for HEFT alone. *)
let proto_base_row_reads_session () =
  let job =
    on_case Experiments.Case.Random_graph 30 8
      (named_job
         ~schedules:
           [
             Proto.Heuristic "HEFT";
             Proto.Neighbor { base = "HEFT"; task = 29; to_ = 1; at = None };
           ]
         ())
  in
  let engine = engine_of_job job in
  let counts () =
    let s = Makespan.Engine.stats engine in
    (s.Makespan.Engine.evals, s.Makespan.Engine.reevals)
  in
  Alcotest.(check (pair int int)) "fresh engine" (0, 0) (counts ());
  let body = Proto.run_job ~engine job in
  Alcotest.(check (pair int int)) "evals and reevals" (2, 1) (counts ());
  let solo =
    match Proto.eval { job with Proto.schedules = [ Proto.Heuristic "HEFT" ] } with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "HEFT row = HEFT alone" (row_makespan ~source:"HEFT" solo)
    (row_makespan ~source:"HEFT" body)

(* The pool fixes no byte: a job's schedules run on one domain or two
   and render the same document, on each perfbench case. *)
let proto_run_job_pool_invariant () =
  List.iter
    (fun (name, kind, n, procs) ->
      let job =
        on_case kind n procs
          (named_job
             ~schedules:
               [
                 Proto.Heuristic "HEFT";
                 Proto.Random { count = 3; seed = 7L };
                 Proto.Heuristic "CPOP";
               ]
             ())
      in
      let on domains =
        Tutil.with_pool domains (fun pool ->
            Proto.run_job ~pool ~engine:(engine_of_job job) job)
      in
      Alcotest.(check string) (name ^ ": 1 domain = 2 domains") (on 1) (on 2))
    perfbench_cases

let proto_inline_key_stable () =
  let j1 = inline_job () and j2 = inline_job () in
  match (Proto.context_of_job j1, Proto.context_of_job j2) with
  | Ok c1, Ok c2 ->
    Alcotest.(check string) "same content, same key" c1.Proto.key c2.Proto.key;
    Alcotest.(check bool) "digest-prefixed" true
      (String.length c1.Proto.key > 7 && String.sub c1.Proto.key 0 7 = "inline-");
    let j3 = { j1 with Proto.ul = 1.3 } in
    (match Proto.context_of_job j3 with
    | Ok c3 ->
      Alcotest.(check bool) "ul changes key" true (c1.Proto.key <> c3.Proto.key)
    | Error e -> Alcotest.failf "context: %s" e)
  | Error e, _ | _, Error e -> Alcotest.failf "context: %s" e

(* --- Server ------------------------------------------------------ *)

(* Engine counters live only in the process-wide Obs registry (which
   [Server.start] turns on); tests read them as deltas across a request. *)
let obs_counter name =
  Option.value ~default:0 (Obs.Metrics.find_counter (Obs.Metrics.snapshot ()) name)

(* The [_total] samples of an OpenMetrics exposition, keyed by series
   (name and labels). *)
let om_totals body =
  List.filter_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i when line.[0] <> '#' ->
        let series = String.sub line 0 i in
        let value = String.sub line (i + 1) (String.length line - i - 1) in
        let name = List.hd (String.split_on_char '{' series) in
        if String.ends_with ~suffix:"_total" name then Some (series, float_of_string value)
        else None
      | _ -> None)
    (String.split_on_char '\n' body)

let with_server ?(config = Server.default_config) f =
  let t = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let with_client t f =
  let c = Client.connect ~port:(Server.port t) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Served bodies equal the offline [Proto.eval] bytes at every worker
   count: two client domains, each on its own keep-alive connection,
   cycle over four distinct keys while the worker domains run. *)
let server_sync_eval_matches_local workers =
  let config = { Server.default_config with Server.workers } in
  let jobs =
    Array.init 4 (fun i ->
        named_job ~seed:(Int64.of_int (1 + i))
          ~schedules:[ Proto.Heuristic "HEFT"; Proto.Random { count = 3; seed = 5L } ]
          ())
  in
  let local =
    Array.map (fun job -> match Proto.eval job with Ok b -> b | Error e -> Alcotest.fail e) jobs
  in
  let per_client = 6 in
  with_server ~config (fun t ->
      let client d =
        Domain.spawn (fun () ->
            with_client t (fun c ->
                List.init per_client (fun i ->
                    let k = (d + i) mod Array.length jobs in
                    (k, Client.eval c jobs.(k)))))
      in
      let served = List.concat_map Domain.join [ client 0; client 1 ] in
      Alcotest.(check int)
        (Printf.sprintf "workers=%d: every request answered" workers)
        (2 * per_client) (List.length served);
      List.iter
        (fun (k, r) ->
          match r with
          | Ok body ->
            Alcotest.(check string)
              (Printf.sprintf "workers=%d key %d: served = local bytes" workers k)
              local.(k) body
          | Error e -> Alcotest.failf "workers=%d key %d: %s" workers k e)
        served;
      Alcotest.(check int) "shard count" workers (Server.stats t).Server.workers;
      with_client t (fun c ->
          match Client.healthz c with
          | Ok body ->
            Alcotest.(check bool) "healthz has version" true
              (contains ~needle:Service.Build_info.version body);
            Alcotest.(check bool) "healthz ok" true (contains ~needle:"\"ok\"" body)
          | Error e -> Alcotest.fail e))

let server_batches_same_key_jobs () =
  let config = { Server.default_config with Server.auto_worker = false } in
  with_server ~config (fun t ->
      with_client t (fun c ->
          (* same (graph × platform × UL) key, different schedule specs *)
          let j1 = named_job ~schedules:[ Proto.Heuristic "HEFT" ] () in
          let j2 = named_job ~schedules:[ Proto.Random { count = 2; seed = 9L } ] () in
          let id1 = match Client.submit c j1 with Ok id -> id | Error e -> Alcotest.fail e in
          let id2 = match Client.submit c j2 with Ok id -> id | Error e -> Alcotest.fail e in
          Alcotest.(check int) "both queued" 2 (Server.stats t).Server.queue_depth;
          let engine_counts () =
            List.map obs_counter [ "engine.task_hits"; "engine.arrival_misses" ]
          in
          let before = engine_counts () in
          let processed = Server.step t in
          Alcotest.(check int) "one step ran both" 2 processed;
          let s = Server.stats t in
          Alcotest.(check int) "one batch" 1 s.Server.batches;
          Alcotest.(check int) "batch of two" 2 s.Server.max_batch;
          Alcotest.(check int) "one engine" 1 s.Server.engines_created;
          Alcotest.(check int) "both done" 2 s.Server.jobs_done;
          (match List.map2 ( - ) (engine_counts ()) before with
          | [ task_hits; arrival_misses ] ->
            Alcotest.(check bool) "shared caches hit" true (task_hits > 0);
            Alcotest.(check bool) "arrival sums counted" true (arrival_misses > 0)
          | _ -> assert false);
          (* batching must not change response bytes *)
          List.iter
            (fun (id, job) ->
              let local =
                match Proto.eval job with Ok b -> b | Error e -> Alcotest.fail e
              in
              match Client.wait c id with
              | Ok served -> Alcotest.(check string) (id ^ " bytes") local served
              | Error e -> Alcotest.fail e)
            [ (id1, j1); (id2, j2) ]))

(* Sharded tier: same-key jobs must land on one shard (and batch
   there); distinct keys must spread. Routing is pure consistent
   hashing, so [Server.shard_of_key] predicts every placement. *)
let server_shards_by_key () =
  let config =
    { Server.default_config with Server.auto_worker = false; workers = 4 }
  in
  with_server ~config (fun t ->
      with_client t (fun c ->
          let submit job =
            match Client.submit c job with Ok id -> id | Error e -> Alcotest.fail e
          in
          (* two jobs of one case + six other cases (distinct seeds) *)
          let twin_a = named_job ~schedules:[ Proto.Heuristic "HEFT" ] () in
          let twin_b = named_job ~schedules:[ Proto.Random { count = 2; seed = 9L } ] () in
          let others = List.init 6 (fun i -> named_job ~seed:(Int64.of_int (50 + i)) ()) in
          ignore (submit twin_a);
          ignore (submit twin_b);
          List.iter (fun j -> ignore (submit j)) others;
          let s = Server.stats t in
          Alcotest.(check int) "four shards" 4 s.Server.workers;
          Alcotest.(check int) "all queued" 8 s.Server.queue_depth;
          let home = Server.shard_of_key t (Proto.key_of_job twin_a) in
          Alcotest.(check int) "twin routing agrees" home
            (Server.shard_of_key t (Proto.key_of_job twin_b));
          Alcotest.(check bool) "same-key pair on its home shard" true
            (s.Server.shard_depth.(home) >= 2);
          let occupied =
            Array.fold_left (fun n d -> if d > 0 then n + 1 else n) 0 s.Server.shard_depth
          in
          Alcotest.(check bool) "distinct keys spread over shards" true (occupied >= 2);
          (* drain every shard; the twins must ride one batch *)
          let rec drain n = if Server.step t > 0 then drain (n + 1) else n in
          ignore (drain 0);
          let s = Server.stats t in
          Alcotest.(check int) "everything evaluated" 8 s.Server.jobs_done;
          Alcotest.(check int) "twins batched together" 2 s.Server.max_batch;
          Alcotest.(check int) "one engine per distinct key" 7 s.Server.engines_created;
          Alcotest.(check bool) "per-shard job counts add up" true
            (Array.fold_left ( + ) 0 s.Server.shard_jobs = 8)))

(* Drain with N workers: draining rejections are counted and visible,
   queued jobs across every shard are cancelled. *)
let server_drain_with_workers () =
  (* The loop below submits until drain mode answers. Admission takes
     well under a millisecond, so a loaded host could fill a 64-job shard
     queue before the stopper domain flips to draining and answer the
     "queue full" 503 instead (backpressure has its own test): the queue
     here is unbounded in practice. *)
  let config =
    {
      Server.default_config with
      Server.auto_worker = false;
      workers = 3;
      queue_capacity = 1_000_000;
    }
  in
  let t = Server.start config in
  let c = Client.connect ~port:(Server.port t) () in
  (* spread a few jobs over the shards before the drain begins *)
  let admitted = ref 0 in
  for i = 0 to 4 do
    match Client.submit c (named_job ~seed:(Int64.of_int (80 + i)) ()) with
    | Ok _ -> incr admitted
    | Error e -> Alcotest.fail e
  done;
  let stopper = Domain.spawn (fun () -> Server.stop t) in
  (* keep submitting on the live connection until drain mode answers;
     the first response sent after the flip is the draining 503 *)
  let saw_draining = ref false in
  (try
     while not !saw_draining do
       match Client.post c "/jobs" (Proto.job_to_json (named_job ())) with
       | Ok resp when resp.Http.status = 202 -> incr admitted
       | Ok resp ->
         Alcotest.(check int) "drain rejection is 503" 503 resp.Http.status;
         Alcotest.(check bool) "body says draining" true
           (contains ~needle:"draining" resp.Http.body);
         saw_draining := true
       | Error _ -> Alcotest.fail "connection died before the draining 503"
     done
   with e ->
     Domain.join stopper;
     raise e);
  Domain.join stopper;
  Client.close c;
  let s = Server.stats t in
  Alcotest.(check bool) "draining rejection counted" true (s.Server.rejected_draining >= 1);
  Alcotest.(check int) "every queued job cancelled" !admitted s.Server.jobs_cancelled;
  Alcotest.(check int) "all shard queues empty" 0 s.Server.queue_depth

(* Deadlines are monotonic: a simulated NTP step (the wall-clock skew
   hook) must neither mass-expire fresh jobs nor immortalize stale
   ones. The pre-fix implementation compared [Unix.gettimeofday]. *)
let server_deadline_survives_wall_step () =
  let config = { Server.default_config with Server.auto_worker = false; workers = 2 } in
  Fun.protect
    ~finally:(fun () -> Server.set_wall_offset_for_tests 0.)
    (fun () ->
      with_server ~config (fun t ->
          with_client t (fun c ->
              (* wall clock jumps 1 h forward: a 60 s deadline must hold *)
              Server.set_wall_offset_for_tests 3600.;
              let id =
                match Client.submit c (named_job ~deadline_ms:60000 ()) with
                | Ok id -> id
                | Error e -> Alcotest.fail e
              in
              Alcotest.(check int) "job survives the forward step" 1 (Server.step t);
              (match Client.wait c id with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("job after forward step: " ^ e));
              Alcotest.(check int) "nothing expired" 0 (Server.stats t).Server.jobs_expired;
              (* wall clock jumps 2 h back: a 30 ms deadline still fires *)
              Server.set_wall_offset_for_tests (-7200.);
              (match Client.post c "/eval" (Proto.job_to_json (named_job ~deadline_ms:30 ())) with
              | Ok resp ->
                Alcotest.(check int) "expires on monotonic time" 504 resp.Http.status
              | Error e -> Alcotest.fail (Http.error_to_string e));
              Alcotest.(check int) "expiry counted" 1 (Server.stats t).Server.jobs_expired;
              ignore (Server.step t);
              Alcotest.(check int) "expired job never evaluated" 1
                (Server.stats t).Server.jobs_done)))

let server_backpressure_503 () =
  let config =
    { Server.default_config with Server.auto_worker = false; queue_capacity = 1 }
  in
  with_server ~config (fun t ->
      with_client t (fun c ->
          let j = named_job () in
          (match Client.submit c j with Ok _ -> () | Error e -> Alcotest.fail e);
          (match Client.post c "/jobs" (Proto.job_to_json j) with
          | Ok resp ->
            Alcotest.(check int) "second gets 503" 503 resp.Http.status;
            Alcotest.(check bool) "retry-after set" true
              (Http.header "retry-after" resp.Http.headers <> None)
          | Error e -> Alcotest.fail (Http.error_to_string e));
          let s = Server.stats t in
          Alcotest.(check int) "one admitted" 1 s.Server.jobs_submitted;
          Alcotest.(check int) "one rejected" 1 s.Server.rejected_full;
          Alcotest.(check int) "nothing evaluated yet" 0 s.Server.batches;
          ignore (Server.step t)))

let server_deadline_expires_504 () =
  let config = { Server.default_config with Server.auto_worker = false } in
  with_server ~config (fun t ->
      with_client t (fun c ->
          (* no worker runs it, so the queue-admission deadline must fire *)
          let j = named_job ~deadline_ms:30 () in
          (match Client.post c "/eval" (Proto.job_to_json j) with
          | Ok resp -> Alcotest.(check int) "sync deadline" 504 resp.Http.status
          | Error e -> Alcotest.fail (Http.error_to_string e));
          let s = Server.stats t in
          Alcotest.(check int) "expired counted" 1 s.Server.jobs_expired;
          (* expired job is skipped, not evaluated, when a step drains it *)
          ignore (Server.step t);
          Alcotest.(check int) "never evaluated" 0 (Server.stats t).Server.jobs_done))

let server_rejects_invalid_requests () =
  with_server (fun t ->
      with_client t (fun c ->
          (match Client.post c "/eval" "definitely not json" with
          | Ok resp -> Alcotest.(check int) "bad body" 400 resp.Http.status
          | Error e -> Alcotest.fail (Http.error_to_string e));
          (match Client.get c "/jobs/job-999999" with
          | Ok resp -> Alcotest.(check int) "unknown job" 404 resp.Http.status
          | Error e -> Alcotest.fail (Http.error_to_string e));
          (match Client.post c "/healthz" "" with
          | Ok resp -> Alcotest.(check int) "wrong method" 405 resp.Http.status
          | Error e -> Alcotest.fail (Http.error_to_string e));
          (match Client.get c "/nope" with
          | Ok resp -> Alcotest.(check int) "unknown route" 404 resp.Http.status
          | Error e -> Alcotest.fail (Http.error_to_string e));
          match Client.get c "/metrics" with
          | Ok resp ->
            Alcotest.(check int) "metrics alive" 200 resp.Http.status;
            Alcotest.(check bool) "metrics json" true
              (contains ~needle:"\"service\"" resp.Http.body);
            List.iter
              (fun key ->
                Alcotest.(check bool) (key ^ " in metrics json") true
                  (contains ~needle:(Printf.sprintf "\"%s\"" key) resp.Http.body))
              [ "engine.task_hits"; "engine.arrival_hits"; "engine.arrival_misses" ];
            (* engine counters appear once, in the obs snapshot *)
            List.iter
              (fun key ->
                Alcotest.(check bool) (key ^ " not a service key") false
                  (contains ~needle:(Printf.sprintf "\"%s\"" key) resp.Http.body))
              [ "engine_task_hits"; "engine_arrival_hits"; "engine_arrival_misses" ]
          | Error e -> Alcotest.fail (Http.error_to_string e)))

(* A neighbor move its base schedule cannot take is the client's error:
   [Proto.eval] reports it like a [validate] failure, and served it is a
   422 counted in [rejected_invalid], never a 500 in [jobs_failed]. On
   random30/p8, moving HEFT's task 5 to processor 3 deadlocks; on a
   three-processor Cholesky case, processor 3 does not exist. *)
let invalid_neighbor_is_client_error () =
  let job kind procs =
    {
      (named_job
         ~schedules:
           [
             Proto.Heuristic "HEFT";
             Proto.Neighbor { base = "HEFT"; task = 5; to_ = 3; at = None };
           ]
         ())
      with
      Proto.workload = Proto.Named { kind; n = 30; procs; seed = 1L };
    }
  in
  let deadlock = job Experiments.Case.Random_graph 8 in
  let no_proc = job Experiments.Case.Cholesky 3 in
  List.iter
    (fun (job, want) ->
      (match Proto.validate job with
      | Ok () -> ()
      | Error e -> Alcotest.failf "validate needs the case to see this move: %s" e);
      match Proto.eval job with
      | Ok _ -> Alcotest.fail "an invalid move evaluated"
      | Error e -> Alcotest.(check string) "validate-style error" want e)
    [
      (deadlock, "schedules[].neighbor: neighbor:HEFT:5:3 deadlocks its base schedule");
      (no_proc, "schedules[].neighbor.to: 3 out of range [0, 2]");
    ];
  with_server (fun t ->
      with_client t (fun c ->
          List.iter
            (fun job ->
              match Client.post c "/eval" (Proto.job_to_json job) with
              | Ok resp -> Alcotest.(check int) "served as 422" 422 resp.Http.status
              | Error e -> Alcotest.fail (Http.error_to_string e))
            [ deadlock; no_proc ];
          let s = Server.stats t in
          Alcotest.(check int) "counted as invalid" 2 s.Server.rejected_invalid;
          Alcotest.(check int) "not counted as failed" 0 s.Server.jobs_failed))

(* A sync waiter sleeps until its job settles, so every terminal
   transition must wake it. With no worker running, a blocked /eval
   answers 200 once [Server.step] runs its job, 422 once [step] finds a
   deadlocking neighbor move, and 503 once [Server.stop] cancels it,
   each within 1 s. *)
let server_settle_wakes_waiter () =
  let config = { Server.default_config with Server.auto_worker = false } in
  let deadlock =
    on_case Experiments.Case.Random_graph 30 8
      (named_job
         ~schedules:
           [
             Proto.Heuristic "HEFT";
             Proto.Neighbor { base = "HEFT"; task = 5; to_ = 3; at = None };
           ]
         ())
  in
  List.iter
    (fun (what, job, settle, want) ->
      with_server ~config (fun t ->
          let client =
            Domain.spawn (fun () ->
                with_client t (fun c ->
                    let r = Client.post c "/eval" (Proto.job_to_json job) in
                    (r, Obs.Clock.now_s ())))
          in
          let rec await_queued n =
            if (Server.stats t).Server.queue_depth = 0 then
              if n = 0 then Alcotest.failf "%s: job never queued" what
              else begin
                Unix.sleepf 0.005;
                await_queued (n - 1)
              end
          in
          await_queued 1000;
          let t0 = Obs.Clock.now_s () in
          settle t;
          match Domain.join client with
          | Ok resp, t1 ->
            Alcotest.(check int) what want resp.Http.status;
            if t1 -. t0 > 1. then Alcotest.failf "%s: answered after %.3f s" what (t1 -. t0)
          | Error e, _ -> Alcotest.failf "%s: %s" what (Http.error_to_string e)))
    [
      ("done through step", named_job (), (fun t -> ignore (Server.step t)), 200);
      ("invalid through step", deadlock, (fun t -> ignore (Server.step t)), 422);
      ("cancelled by stop", named_job (), Server.stop, 503);
    ]

(* Each connection domain's pipe closes with the domain: starting and
   stopping servers leaves this process's descriptor count as it was. *)
let server_start_stop_keeps_fds () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let before = open_fds () in
    for _ = 1 to 10 do
      Server.stop (Server.start Server.default_config)
    done;
    Alcotest.(check int) "open descriptors" before (open_fds ())
  end

let server_drain_cancels_queued () =
  let config = { Server.default_config with Server.auto_worker = false } in
  let t = Server.start config in
  let c = Client.connect ~port:(Server.port t) () in
  let id = match Client.submit c (named_job ()) with Ok id -> id | Error e -> Alcotest.fail e in
  ignore id;
  Client.close c;
  Server.stop t;
  Server.stop t (* idempotent *);
  let s = Server.stats t in
  Alcotest.(check int) "queued job cancelled" 1 s.Server.jobs_cancelled;
  Alcotest.(check int) "queue drained" 0 s.Server.queue_depth

let server_restarts_after_stop () =
  (* serve → drain → serve in one process: the shared pool must survive
     (its teardown belongs to at_exit, not Server.stop). *)
  let run_once () =
    with_server (fun t ->
        with_client t (fun c ->
            match Client.eval c (named_job ()) with
            | Ok body -> body
            | Error e -> Alcotest.fail e))
  in
  let a = run_once () in
  let b = run_once () in
  Alcotest.(check string) "second server, same bytes" a b

(* A shard runs several jobs at once: on one shard, a sync job
   (random30/p8, 16 random schedules) is posted first and held at the
   "service.job" probe on the pool domain that took it; then a fast one
   (cholesky10/p3, HEFT) is posted. With two or more pool domains the
   fast reply arrives while the first job is still held, and the hold is
   released only then. Both bodies equal the offline bytes either way. *)
let server_runners_overlap_jobs () =
  let slow =
    on_case Experiments.Case.Random_graph 30 8
      (named_job ~schedules:[ Proto.Random { count = 16; seed = 3L } ] ())
  in
  let fast = named_job () in
  let local job = match Proto.eval job with Ok b -> b | Error e -> Alcotest.fail e in
  let slow_local = local slow and fast_local = local fast in
  let body what want = function
    | Ok b -> Alcotest.(check string) (what ^ ": served = local bytes") want b
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  Fault.configure ~spec:"service.job:hold@1";
  Fun.protect ~finally:Fault.reset @@ fun () ->
  with_server (fun t ->
      let post job = Domain.spawn (fun () -> with_client t (fun c -> Client.eval c job)) in
      let slow_d = post slow in
      let rec until_held n =
        if Fault.hits "service.job" < 1 then
          if n = 0 then Alcotest.fail "the first job never reached its evaluation"
          else begin
            Unix.sleepf 0.001;
            until_held (n - 1)
          end
      in
      until_held 10_000;
      if Parallel.Pool.default_domains () < 2 then begin
        print_endline
          "runners overlap jobs: one pool domain runs one job at a time; the \
           reply-order check is skipped";
        Fault.release "service.job";
        body "slow" slow_local (Domain.join slow_d);
        body "fast" fast_local (Domain.join (post fast))
      end
      else begin
        (* release on any failure too, or [stop] would wait on the hold *)
        Fun.protect
          ~finally:(fun () -> Fault.release "service.job")
          (fun () ->
            let answered = Atomic.make false in
            let fast_d =
              Domain.spawn (fun () ->
                  let r = with_client t (fun c -> Client.eval c fast) in
                  Atomic.set answered true;
                  r)
            in
            let deadline = Unix.gettimeofday () +. 10. in
            while (not (Atomic.get answered)) && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.001
            done;
            if not (Atomic.get answered) then
              Alcotest.fail "the fast job did not finish while the first was held";
            body "fast, while the first job is held" fast_local (Domain.join fast_d);
            Alcotest.(check int) "only the fast job is done" 1
              (Server.stats t).Server.jobs_done);
        body "slow" slow_local (Domain.join slow_d)
      end)

(* The server's evaluation domains are one pool of [default_domains]
   whatever the shard count, with no runner domains beside it: a started
   server adds the threads of its acceptor, its connection domains and
   its pool and no more. *)
let server_domain_budget () =
  let threads () =
    match Sys.readdir "/proc/self/task" with
    | a -> Some (Array.length a)
    | exception Sys_error _ -> None
  in
  (* the first spawn also starts this domain's backup thread *)
  Domain.join (Domain.spawn ignore);
  List.iter
    (fun workers ->
      let config = { Server.default_config with Server.workers; conn_domains = 2 } in
      let before = threads () in
      let t = Server.start config in
      let during = threads () in
      Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
      Alcotest.(check int)
        (Printf.sprintf "workers=%d: eval domains" workers)
        (Parallel.Pool.default_domains ()) (Server.eval_domains t);
      match (before, during) with
      | Some b, Some d ->
        (* a domain is one thread, plus a backup thread the runtime may
           start later *)
        let domains = 1 + config.Server.conn_domains + Parallel.Pool.default_domains () in
        let started = d - b in
        if started < domains || started > 2 * domains then
          Alcotest.failf "workers=%d: %d threads started for %d domains" workers started
            domains
      | _ -> print_endline "server domain budget: no /proc/self/task, thread count skipped")
    [ 1; 2; 3 ]

(* Four clients post one cold key at once; however the pool domains
   split them into batches, the LRU lock lets exactly one build its
   engine. *)
let server_cold_key_builds_once () =
  let job = named_job ~seed:7L ~schedules:[ Proto.Random { count = 2; seed = 4L } ] () in
  let local = match Proto.eval job with Ok b -> b | Error e -> Alcotest.fail e in
  with_server (fun t ->
      let ready = Atomic.make 0 in
      let clients =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                with_client t (fun c ->
                    ignore (Client.healthz c);
                    Atomic.incr ready;
                    while Atomic.get ready < 4 do
                      Domain.cpu_relax ()
                    done;
                    Client.eval c job)))
      in
      List.iteri
        (fun i d ->
          match Domain.join d with
          | Ok body ->
            Alcotest.(check string) (Printf.sprintf "client %d: served = local bytes" i)
              local body
          | Error e -> Alcotest.failf "client %d: %s" i e)
        clients;
      Alcotest.(check int) "one engine for the key" 1 (Server.stats t).Server.engines_created)

let server_propagates_trace () =
  with_server (fun t ->
      with_client t (fun c ->
          let tr = Obs.Trace.mint () in
          let tid = tr.Obs.Trace.trace_id in
          (match Client.eval ~traceparent:(Obs.Trace.to_traceparent tr) c (named_job ()) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          (* the record is published just after the response bytes go out,
             so the ring can trail the client by a beat — poll briefly *)
          let path = Printf.sprintf "/debug/requests?format=chrome&trace=%s" tid in
          let rec poll n =
            match Client.get c path with
            | Ok resp when resp.Http.status = 200 && contains ~needle:tid resp.Http.body
              ->
              resp.Http.body
            | (Ok _ | Error _) when n > 0 ->
              Unix.sleepf 0.01;
              poll (n - 1)
            | Ok resp ->
              Alcotest.failf "traced request never surfaced (last status %d)"
                resp.Http.status
            | Error e -> Alcotest.fail (Http.error_to_string e)
          in
          let chrome = poll 100 in
          (* one request must decompose into the full linked stage tree *)
          List.iter
            (fun stage ->
              Alcotest.(check bool) (stage ^ " stage present") true
                (contains ~needle:(Printf.sprintf "\"name\":\"%s\"" stage) chrome))
            [ "parse"; "decode"; "queue"; "batch"; "admit"; "eval"; "encode"; "write" ];
          (* the filtered export carries no other trace *)
          let events =
            let n = ref 0 and i = ref 0 in
            let needle = "\"ph\":\"X\"" in
            let len = String.length needle in
            while !i + len <= String.length chrome do
              if String.sub chrome !i len = needle then incr n;
              incr i
            done;
            !n
          in
          Alcotest.(check bool)
            (Printf.sprintf "request + >=5 stages under one trace (%d events)" events)
            true (events >= 6);
          let ids =
            let n = ref 0 and i = ref 0 in
            let len = String.length tid in
            while !i + len <= String.length chrome do
              if String.sub chrome !i len = tid then incr n;
              incr i
            done;
            !n
          in
          Alcotest.(check int) "every event links the propagated trace id" events ids;
          (* the JSON form shows the same record *)
          match Client.get c "/debug/requests" with
          | Ok resp ->
            Alcotest.(check bool) "debug json lists the trace" true
              (contains ~needle:tid resp.Http.body)
          | Error e -> Alcotest.fail (Http.error_to_string e)))

let server_exposes_openmetrics () =
  with_server (fun t ->
      with_client t (fun c ->
          let evals_before = obs_counter "engine.evals.classical" in
          (match Client.eval c (named_job ()) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          (match Client.get c "/metrics?format=openmetrics" with
          | Ok resp ->
            Alcotest.(check int) "openmetrics status" 200 resp.Http.status;
            (match Http.header "content-type" resp.Http.headers with
            | Some ct ->
              Alcotest.(check bool) "openmetrics content type" true
                (contains ~needle:"application/openmetrics-text" ct)
            | None -> Alcotest.fail "no content-type on /metrics?format=openmetrics");
            (match Obs.Openmetrics.validate resp.Http.body with
            | Ok () -> ()
            | Error e -> Alcotest.failf "exposition fails its own validator: %s" e);
            List.iter
              (fun needle ->
                Alcotest.(check bool) (needle ^ " exposed") true
                  (contains ~needle resp.Http.body))
              [
                "service_requests_total";
                "service_jobs_done_total";
                "service_rejected_draining_total";
                "engine_task_hits_total";
                "engine_reeval_incremental_total";
                "engine_reeval_full_total";
                "engine_arrival_hits_total";
                "engine_arrival_misses_total";
                "service_request_seconds_bucket";
                "service_stage_seconds_bucket{stage=\"eval\",shard=\"0\"";
                "service_shard_jobs_total{shard=\"0\"";
                "service_queue_depth{shard=\"0\"";
                "# EOF";
              ];
            (* engine counters appear once, under engine_*, and count
               the request just served *)
            Alcotest.(check bool) "no service_engine_ family" false
              (contains ~needle:"service_engine_" resp.Http.body);
            List.iter
              (fun family ->
                let typ = Printf.sprintf "# TYPE %s counter" family in
                let lines = String.split_on_char '\n' resp.Http.body in
                let n = List.length (List.filter (String.equal typ) lines) in
                Alcotest.(check int) (family ^ " declared once") 1 n)
              [ "engine_task_hits"; "engine_arrival_hits"; "engine_reeval_full" ];
            (match List.assoc_opt "engine_evals_classical_total" (om_totals resp.Http.body) with
            | Some v ->
              Alcotest.(check bool) "the served job's evaluations counted" true
                (v >= float_of_int (evals_before + 1))
            | None -> Alcotest.fail "engine_evals_classical_total missing")
          | Error e -> Alcotest.fail (Http.error_to_string e));
          (* Accept-header negotiation selects the same representation *)
          (match
             Client.request c ~meth:"GET" ~path:"/metrics"
               ~headers:[ ("accept", "application/openmetrics-text") ]
               ()
           with
          | Ok resp ->
            Alcotest.(check bool) "negotiated body is openmetrics" true
              (contains ~needle:"# EOF" resp.Http.body)
          | Error e -> Alcotest.fail (Http.error_to_string e));
          (* without either signal the JSON form stays *)
          match Client.get c "/metrics" with
          | Ok resp ->
            Alcotest.(check bool) "default stays json" true
              (contains ~needle:"\"service\"" resp.Http.body)
          | Error e -> Alcotest.fail (Http.error_to_string e)))

(* Serving a neighbor job must route through engine sessions: the
   engine's Obs counters count one re-evaluation per neighbor row. A
   probe replays the nodes the move changed, so a move that leaves the
   schedule as it was (the task is already last on its processor)
   replays none, and each other move replays at least its task. *)
let server_counts_neighbor_reevals () =
  with_server (fun t ->
      with_client t (fun c ->
          let base_job = named_job () in
          let ctx =
            match Proto.context_of_job base_job with
            | Ok x -> x
            | Error e -> Alcotest.fail e
          in
          let exits = Dag.Graph.exits ctx.Proto.graph in
          let task = exits.(Array.length exits - 1) in
          let job =
            {
              base_job with
              Proto.schedules =
                [
                  Proto.Neighbor { base = "HEFT"; task; to_ = 0; at = None };
                  Proto.Neighbor { base = "HEFT"; task; to_ = 1; at = None };
                ];
            }
          in
          let counts () =
            List.map obs_counter
              [
                "engine.reeval_incremental";
                "engine.reeval_full";
                "engine.reeval_full_cone";
                "engine.reeval_full_backend";
                "engine.reeval_cone_nodes";
              ]
          in
          let changing =
            let base =
              match Sched.Registry.parse "HEFT" with
              | Ok e -> e.Sched.Registry.run ctx.Proto.graph ctx.Proto.platform
              | Error e -> Alcotest.fail e
            in
            List.length
              (List.filter
                 (fun to_ ->
                   let s = Sched.Schedule.reassign base ~task ~to_ in
                   s.Sched.Schedule.order <> base.Sched.Schedule.order)
                 [ 0; 1 ])
          in
          let before = counts () in
          (match Client.eval c job with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          match List.map2 ( - ) (counts ()) before with
          | [ incremental; full; full_cone; full_backend; cone_nodes ] ->
            Alcotest.(check int) "one re-evaluation per neighbor, incremental or full" 2
              (incremental + full);
            Alcotest.(check int) "full = cone + backend fallbacks" full
              (full_cone + full_backend);
            Alcotest.(check bool) "cone stats coherent" true
              (changing > 0 && cone_nodes >= changing)
          | _ -> assert false))

(* Counters never fall. With a one-engine LRU, the second key evicts the
   first key's engine; every [_total] sample of the exposition must
   still be at least what it was before. *)
let server_totals_survive_eviction () =
  let config = { Server.default_config with Server.auto_worker = false; engine_cache = 1 } in
  with_server ~config (fun t ->
      with_client t (fun c ->
          let scrape () =
            match Client.get c "/metrics?format=openmetrics" with
            | Ok resp -> om_totals resp.Http.body
            | Error e -> Alcotest.fail (Http.error_to_string e)
          in
          let run seed schedules =
            (match Client.submit c (named_job ~seed ~schedules ()) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            Alcotest.(check int) "one job stepped" 1 (Server.step t);
            scrape ()
          in
          (* the first key evaluates more schedules than the second, so a
             sum over the cached engines would fall *)
          let first = run 1L [ Proto.Heuristic "HEFT"; Proto.Random { count = 8; seed = 3L } ] in
          let second = run 2L [ Proto.Heuristic "HEFT" ] in
          Alcotest.(check int) "the second key evicted the first" 2
            (Server.stats t).Server.engines_created;
          Alcotest.(check bool) "engine hits exposed" true
            (List.mem_assoc "engine_task_hits_total" second);
          List.iter
            (fun (series, v1) ->
              match List.assoc_opt series second with
              | Some v2 ->
                if v2 < v1 then Alcotest.failf "%s fell from %g to %g" series v1 v2
              | None -> ())
            first))

let proto_trace_field_roundtrip () =
  let tid = (Obs.Trace.mint ()).Obs.Trace.trace_id in
  let job = { (named_job ()) with Proto.trace = Some tid } in
  let json = Proto.job_to_json job in
  Alcotest.(check bool) "trace serialized" true (contains ~needle:tid json);
  (match Proto.job_of_json json with
  | Ok j -> Alcotest.(check bool) "trace survives decode" true (j.Proto.trace = Some tid)
  | Error e -> Alcotest.failf "decode: %s" e);
  (* the trace is correlation metadata: it must not change the batch key *)
  (match (Proto.context_of_job job, Proto.context_of_job (named_job ())) with
  | Ok a, Ok b -> Alcotest.(check string) "key unaffected by trace" b.Proto.key a.Proto.key
  | Error e, _ | _, Error e -> Alcotest.failf "context: %s" e);
  match
    Proto.job_of_json
      {|{"workload":{"kind":"cholesky","n":10,"procs":3},"ul":1.1,"schedules":["HEFT"],"trace":"nope"}|}
  with
  | Ok _ -> Alcotest.fail "invalid trace id accepted"
  | Error _ -> ()

(* --- Stop scopes (shared by campaign + service) ------------------- *)

let stop_scopes_compose () =
  Stop.with_scope (fun outer ->
      Stop.with_scope (fun inner ->
          Alcotest.(check bool) "clean" false
            (Stop.requested outer || Stop.requested inner);
          Stop.request ();
          Alcotest.(check bool) "outer sees it" true (Stop.requested outer);
          Alcotest.(check bool) "inner sees it" true (Stop.requested inner);
          Stop.clear inner;
          Alcotest.(check bool) "inner cleared" false (Stop.requested inner);
          Alcotest.(check bool) "outer still set" true (Stop.requested outer);
          Stop.clear outer))

let stop_restores_signal_behavior () =
  (* behavioral check: inside a scope SIGINT is a stop request; once the
     last scope exits the previous handler is back in charge *)
  let hits = ref 0 in
  let saved = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> incr hits)) in
  let await cond =
    let deadline = Unix.gettimeofday () +. 5. in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.005
    done;
    cond ()
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.signal Sys.sigint saved))
    (fun () ->
      Stop.with_scope (fun scope ->
          Alcotest.(check int) "scope active" 1 (Stop.active ());
          Unix.kill (Unix.getpid ()) Sys.sigint;
          Alcotest.(check bool) "scope caught the signal" true
            (await (fun () -> Stop.requested scope));
          Alcotest.(check int) "previous handler untouched" 0 !hits;
          Stop.clear scope);
      Alcotest.(check int) "inactive after exit" 0 (Stop.active ());
      Unix.kill (Unix.getpid ()) Sys.sigint;
      Alcotest.(check bool) "previous handler restored" true
        (await (fun () -> !hits = 1)))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "service"
    [
      ( "http",
        [
          tc "simple request" `Quick http_parses_simple_request;
          tc "oversized header" `Quick http_rejects_oversized_header;
          tc "oversized body" `Quick http_rejects_oversized_body;
          tc "malformed" `Quick http_rejects_malformed;
          tc "eof" `Quick http_eof_is_closed;
          tc "pipelining" `Quick http_keep_alive_pipelining;
          http_fuzz_never_raises;
        ] );
      ( "proto",
        [
          tc "job roundtrip" `Quick proto_job_roundtrip;
          tc "rejects invalid" `Quick proto_rejects_invalid;
          tc "deterministic" `Quick proto_eval_deterministic;
          tc "neighbor rows = fresh eval" `Quick proto_neighbor_rows_match_fresh_eval;
          tc "inline key" `Quick proto_inline_key_stable;
          tc "trace field roundtrip" `Quick proto_trace_field_roundtrip;
          tc "base row reads its session" `Quick proto_base_row_reads_session;
          tc "run_job pool-invariant" `Quick proto_run_job_pool_invariant;
        ] );
      ( "server",
        [
          tc "sync eval = local bytes" `Quick (fun () ->
              List.iter server_sync_eval_matches_local [ 1; 2 ]);
          tc "batches same-key jobs" `Quick server_batches_same_key_jobs;
          tc "shards by key" `Quick server_shards_by_key;
          tc "drain with workers" `Quick server_drain_with_workers;
          tc "deadline survives wall step" `Quick server_deadline_survives_wall_step;
          tc "backpressure 503" `Quick server_backpressure_503;
          tc "deadline 504" `Quick server_deadline_expires_504;
          tc "invalid requests" `Quick server_rejects_invalid_requests;
          tc "drain cancels queued" `Quick server_drain_cancels_queued;
          tc "settle wakes sync waiters" `Quick server_settle_wakes_waiter;
          tc "start-stop keeps descriptors" `Quick server_start_stop_keeps_fds;
          tc "serve-drain-serve" `Quick server_restarts_after_stop;
          tc "trace propagation end to end" `Quick server_propagates_trace;
          tc "openmetrics exposition" `Quick server_exposes_openmetrics;
          tc "neighbor jobs count reevals" `Quick server_counts_neighbor_reevals;
          tc "invalid neighbor is a client error" `Quick invalid_neighbor_is_client_error;
          tc "totals survive eviction" `Quick server_totals_survive_eviction;
          tc "runners overlap jobs" `Quick server_runners_overlap_jobs;
          tc "cold key builds once" `Quick server_cold_key_builds_once;
          tc "domain budget" `Quick server_domain_budget;
        ] );
      ( "stop",
        [
          tc "scopes compose" `Quick stop_scopes_compose;
          tc "signals restored" `Quick stop_restores_signal_behavior;
        ] );
    ]
