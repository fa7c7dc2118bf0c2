(* Telemetry suites: sharded counter/histogram correctness under
   Pool.run, Chrome-trace export validity, zero-cost disabled paths,
   and the engine's per-backend evaluation counters. *)

(* Every test toggles sinks behind [with_flags], so a failure cannot
   leak an enabled sink into later suites (some assert bit-level
   reproducibility of uninstrumented runs). *)
let with_flags ~metrics ~spans ~progress f =
  let m0 = Obs.Metrics.enabled ()
  and s0 = Obs.Span.enabled ()
  and p0 = Obs.Progress.enabled () in
  Obs.Metrics.set_enabled metrics;
  Obs.Span.set_enabled spans;
  Obs.Progress.set_enabled progress;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled m0;
      Obs.Span.set_enabled s0;
      Obs.Progress.set_enabled p0;
      Obs.Metrics.reset ();
      Obs.Span.reset ();
      Obs.Progress.reset_phases ())
    f

(* {1 A minimal JSON syntax checker}

   Enough of RFC 8259 to reject anything structurally malformed that
   our hand-rolled emitters could produce: unbalanced brackets, bad
   escapes, trailing garbage, missing commas/colons. *)

exception Bad of int * string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word =
    String.iter
      (fun c ->
        match peek () with
        | Some c' when c' = c -> advance ()
        | _ -> fail ("in literal " ^ word))
      word
  in
  let string_body () =
    expect '"';
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance (); closed := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ -> advance ()
    done
  in
  let number () =
    let digits () =
      let seen = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        seen := true;
        advance ()
      done;
      if not !seen then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' -> advance (); digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let more = ref true in
          while !more do
            skip_ws ();
            string_body ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' -> advance (); more := false
            | _ -> fail "expected , or } in object"
          done
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let more = ref true in
          while !more do
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' -> advance (); more := false
            | _ -> fail "expected , or ] in array"
          done
        end
    | Some '"' -> string_body ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value");
    skip_ws ()
  in
  value ();
  if !pos <> n then fail "trailing garbage"

let check_valid_json what s =
  match validate_json s with
  | () -> ()
  | exception Bad (pos, msg) ->
      Alcotest.failf "%s: invalid JSON at byte %d (%s): %s" what pos msg
        (String.sub s (max 0 (pos - 40)) (min 80 (String.length s - max 0 (pos - 40))))

let count_substring ~sub s =
  let m = String.length sub and n = String.length s in
  let k = ref 0 in
  for i = 0 to n - m do
    if String.sub s i m = sub then incr k
  done;
  !k

(* {1 Metrics} *)

let counter_concurrent_sum () =
  with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
  let c = Obs.Metrics.counter "test.obs.hits" in
  let chunks = 64 and per_chunk = 500 in
  Tutil.with_pool 4 (fun pool ->
      Parallel.Pool.run ~pool ~chunks (fun _ ->
          for _ = 1 to per_chunk do
            Obs.Metrics.incr c
          done));
  let snap = Obs.Metrics.snapshot () in
  match Obs.Metrics.find_counter snap "test.obs.hits" with
  | None -> Alcotest.fail "counter missing from snapshot"
  | Some v -> Alcotest.(check int) "merged sum" (chunks * per_chunk) v

let counter_add_and_reset () =
  with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
  let c = Obs.Metrics.counter "test.obs.add" in
  Obs.Metrics.add c 41;
  Obs.Metrics.incr c;
  let v () = Obs.Metrics.find_counter (Obs.Metrics.snapshot ()) "test.obs.add" in
  Alcotest.(check (option int)) "after adds" (Some 42) (v ());
  Obs.Metrics.reset ();
  Alcotest.(check (option int)) "after reset" (Some 0) (v ())

let gauge_last_write_wins () =
  with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
  let g = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.set g 1.5;
  Obs.Metrics.set g 2.5;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check (option (float 1e-12)))
    "last value" (Some 2.5)
    (List.assoc_opt "test.obs.gauge" snap.Obs.Metrics.gauges)

(* Reference bucketing for the histogram property: first bound >= x,
   else the overflow bucket. *)
let reference_hist bounds xs =
  let counts = Array.make (Array.length bounds + 1) 0 in
  List.iter
    (fun x ->
      let rec find i =
        if i = Array.length bounds then i
        else if x <= bounds.(i) then i
        else find (i + 1)
      in
      let i = find 0 in
      counts.(i) <- counts.(i) + 1)
    xs;
  counts

let histogram_matches_reference =
  Tutil.qcheck ~count:60 "histogram buckets = sequential reference"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 400) (float_range 1e-7 2e3))
        (int_range 1 4))
    (fun (xs, domains) ->
      with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
      let h = Obs.Metrics.histogram "test.obs.hist" in
      let arr = Array.of_list xs in
      let n = Array.length arr in
      (* one chunk per value, so observations land on several shards *)
      Tutil.with_pool domains (fun pool ->
          Parallel.Pool.run ~pool ~chunks:n (fun i -> Obs.Metrics.observe h arr.(i)));
      let snap = Obs.Metrics.snapshot () in
      match List.assoc_opt "test.obs.hist" snap.Obs.Metrics.histograms with
      | None -> false
      | Some hv ->
          let expected = reference_hist hv.Obs.Metrics.bounds xs in
          hv.Obs.Metrics.counts = expected
          && hv.Obs.Metrics.total = n
          && Float.abs (hv.Obs.Metrics.sum -. List.fold_left ( +. ) 0. xs)
             <= 1e-9 *. Float.max 1. (Float.abs hv.Obs.Metrics.sum))

let registration_is_idempotent () =
  with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
  let a = Obs.Metrics.counter "test.obs.same" in
  let b = Obs.Metrics.counter "test.obs.same" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr b;
  Alcotest.(check (option int))
    "one slot" (Some 2)
    (Obs.Metrics.find_counter (Obs.Metrics.snapshot ()) "test.obs.same")

let kind_clash_rejected () =
  with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
  let (_ : Obs.Metrics.counter) = Obs.Metrics.counter "test.obs.kind" in
  match Obs.Metrics.histogram "test.obs.kind" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* {1 Spans} *)

let nested_work () = Obs.Span.with_ ~name:"test.inner" (fun () -> Sys.opaque_identity 1)

let trace_export_balanced () =
  with_flags ~metrics:false ~spans:true ~progress:false @@ fun () ->
  let outer () = Obs.Span.with_ ~name:"test.outer" (fun () -> ignore (nested_work ())) in
  for _ = 1 to 5 do
    outer ()
  done;
  Tutil.with_pool 3 (fun pool ->
      Parallel.Pool.run ~pool ~chunks:12 (fun _ -> ignore (nested_work ())));
  let json = Obs.Span.export_chrome () in
  check_valid_json "trace" json;
  let b = count_substring ~sub:{|"ph":"B"|} json
  and e = count_substring ~sub:{|"ph":"E"|} json in
  Alcotest.(check int) "balanced B/E" b e;
  Alcotest.(check bool) "has events" true (b > 0);
  (* pool chunks themselves are spans when tracing is on *)
  Alcotest.(check bool)
    "pool.chunk present" true
    (count_substring ~sub:{|"name":"pool.chunk"|} json > 0)

let trace_survives_exception () =
  with_flags ~metrics:false ~spans:true ~progress:false @@ fun () ->
  (try Obs.Span.with_ ~name:"test.raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  let json = Obs.Span.export_chrome () in
  check_valid_json "trace" json;
  Alcotest.(check int) "span recorded despite raise" 1
    (count_substring ~sub:{|"name":"test.raise"|} json / 2 * 2 / 2);
  let b = count_substring ~sub:{|"ph":"B"|} json
  and e = count_substring ~sub:{|"ph":"E"|} json in
  Alcotest.(check int) "balanced" b e

let ring_overwrites_and_counts_drops () =
  with_flags ~metrics:false ~spans:true ~progress:false @@ fun () ->
  let extra = 37 in
  for _ = 1 to Obs.Span.capacity + extra do
    ignore (nested_work ())
  done;
  Alcotest.(check bool)
    "dropped >= overflow" true
    (Obs.Span.dropped () >= extra);
  let json = Obs.Span.export_chrome () in
  check_valid_json "trace after wrap" json;
  let b = count_substring ~sub:{|"ph":"B"|} json
  and e = count_substring ~sub:{|"ph":"E"|} json in
  Alcotest.(check int) "still balanced" b e

let summary_counts_spans () =
  with_flags ~metrics:false ~spans:true ~progress:false @@ fun () ->
  for _ = 1 to 7 do
    ignore (nested_work ())
  done;
  match
    List.find_opt (fun s -> s.Obs.Span.name = "test.inner") (Obs.Span.summary ())
  with
  | None -> Alcotest.fail "no summary row"
  | Some s ->
      Alcotest.(check int) "count" 7 s.Obs.Span.count;
      Alcotest.(check bool) "ordered percentiles" true
        (s.Obs.Span.p50_us <= s.Obs.Span.p99_us +. 1e-9);
      Alcotest.(check bool) "mean consistent" true
        (Float.abs ((s.Obs.Span.total_us /. 7.) -. s.Obs.Span.mean_us) < 1e-6)

let json_escape_roundtrip () =
  let escaped = Obs.Json.to_string (Obs.Json.Str "a\"b\\c\nd\te\x01f") in
  check_valid_json "escaped string" escaped;
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd\te\u0001f"|} escaped

(* {1 Report} *)

let report_json_valid () =
  with_flags ~metrics:true ~spans:true ~progress:false @@ fun () ->
  let c = Obs.Metrics.counter "test.obs.report" in
  Obs.Metrics.incr c;
  let h = Obs.Metrics.histogram "test.obs.report_hist" in
  Obs.Metrics.observe h 0.5;
  ignore (nested_work ());
  Obs.Progress.phase "test.phase" (fun () -> ignore (Sys.opaque_identity 0));
  let json = Obs.Json.to_string (Obs.Report.json ()) in
  check_valid_json "report" json;
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true
        (count_substring ~sub:(Printf.sprintf "%S" key) json > 0))
    [ "counters"; "gauges"; "histograms"; "spans"; "phases"; "test.phase" ]

let progress_phase_records_gc () =
  with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
  Obs.Progress.phase "test.gc" (fun () ->
      (* small boxed values, so the allocation lands in the minor heap *)
      ignore (Sys.opaque_identity (List.init 10_000 float_of_int)));
  match List.find_opt (fun p -> p.Obs.Progress.phase = "test.gc") (Obs.Progress.phases ()) with
  | None -> Alcotest.fail "phase not recorded"
  | Some p ->
      Alcotest.(check bool) "elapsed >= 0" true (p.Obs.Progress.elapsed_s >= 0.);
      Alcotest.(check bool) "allocated" true (p.Obs.Progress.minor_words > 0.)

let disabled_phase_is_transparent () =
  with_flags ~metrics:false ~spans:false ~progress:false @@ fun () ->
  let r = Obs.Progress.phase "test.off" (fun () -> 17) in
  Alcotest.(check int) "result" 17 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Progress.phases ()))

(* {1 Zero-cost when disabled}

   The contract is "no observable allocation": a fixed instrumented
   loop must allocate O(1) minor words regardless of iteration count.
   We allow a generous constant for the harness itself. *)

let incr_loop c n =
  for _ = 1 to n do
    Obs.Metrics.incr c
  done

let span_loop f n =
  for _ = 1 to n do
    if Obs.Span.enabled () then ignore (Obs.Span.with_ ~name:"test.cold" f)
    else ignore (f ())
  done

let disabled_paths_do_not_allocate () =
  with_flags ~metrics:false ~spans:false ~progress:false @@ fun () ->
  let c = Obs.Metrics.counter "test.obs.cold" in
  let f () = Sys.opaque_identity 0 in
  (* warm up so any one-time setup is paid before measuring *)
  incr_loop c 100;
  span_loop f 100;
  let before = Gc.minor_words () in
  incr_loop c 50_000;
  span_loop f 50_000;
  let delta = Gc.minor_words () -. before in
  if delta > 1_000. then
    Alcotest.failf "disabled telemetry allocated %.0f minor words over 100k ops" delta;
  Alcotest.(check (option int))
    "counter untouched" (Some 0)
    (Obs.Metrics.find_counter (Obs.Metrics.snapshot ()) "test.obs.cold");
  Alcotest.(check int) "no spans" 0 (List.length (Obs.Span.summary ()))

(* {1 Engine per-backend counters} *)

let small_engine () =
  let rng = Tutil.rng_of_seed 7 in
  let graph = Workloads.Cholesky.generate ~tiles:2 () in
  let platform =
    Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:3 ()
  in
  let model = Workloads.Stochastify.make ~ul:1.2 () in
  let sched = Sched.Heft.schedule graph platform in
  (Makespan.Engine.create ~graph ~platform ~model, sched)

let engine_counts_per_backend () =
  let engine, sched = small_engine () in
  let eval b = ignore (Makespan.Engine.eval ~backend:b engine sched) in
  eval Makespan.Engine.Classical;
  eval Makespan.Engine.Classical;
  eval Makespan.Engine.Spelde;
  eval (Makespan.Engine.Montecarlo { count = 50; seed = 5L });
  let s = Makespan.Engine.stats engine in
  Alcotest.(check int) "classical" 2 s.Makespan.Engine.evals_classical;
  Alcotest.(check int) "spelde" 1 s.Makespan.Engine.evals_spelde;
  Alcotest.(check int) "montecarlo" 1 s.Makespan.Engine.evals_montecarlo;
  Alcotest.(check int) "dodin" 0 s.Makespan.Engine.evals_dodin;
  Alcotest.(check int) "total" 4 s.Makespan.Engine.evals;
  (* counters are per engine: a fresh engine of the same case starts at
     zero and counts only its own evaluations *)
  let fresh, _ = small_engine () in
  let z = Makespan.Engine.stats fresh in
  Alcotest.(check int) "fresh evals" 0 z.Makespan.Engine.evals;
  Alcotest.(check int) "fresh hits" 0 z.Makespan.Engine.task_hits;
  Alcotest.(check int) "fresh misses" 0 z.Makespan.Engine.task_misses;
  ignore (Makespan.Engine.eval fresh sched);
  Alcotest.(check int) "fresh engine counts its own" 1
    (Makespan.Engine.stats fresh).Makespan.Engine.evals_classical;
  Alcotest.(check int) "first engine unchanged" 4
    (Makespan.Engine.stats engine).Makespan.Engine.evals

(* The arrival-memo counters mirror [Engine.stats] when metrics are on
   and stay untouched when they are off. One processor makes every data
   edge a shared zero-weight arrival, so the fork's sums are reused. *)
let engine_arrival_counters_mirror_stats () =
  let graph = Workloads.Classic.fork_join ~width:4 () in
  let rng = Tutil.rng_of_seed 3 in
  let platform =
    Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:1 ()
  in
  let model = Workloads.Stochastify.make ~ul:1.2 () in
  let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs:1 in
  let engine = Makespan.Engine.create ~graph ~platform ~model in
  let counters () =
    let snap = Obs.Metrics.snapshot () in
    let get name = Option.value ~default:0 (Obs.Metrics.find_counter snap name) in
    (get "engine.arrival_hits", get "engine.arrival_misses")
  in
  with_flags ~metrics:false ~spans:false ~progress:false (fun () ->
      ignore (Makespan.Engine.eval engine sched);
      Alcotest.(check (pair int int)) "off: untouched" (0, 0) (counters ()));
  let before = Makespan.Engine.stats engine in
  with_flags ~metrics:true ~spans:false ~progress:false (fun () ->
      ignore (Makespan.Engine.eval engine sched);
      let st = Makespan.Engine.stats engine in
      let hits = st.Makespan.Engine.arrival_hits - before.Makespan.Engine.arrival_hits
      and misses = st.Makespan.Engine.arrival_misses - before.Makespan.Engine.arrival_misses in
      Alcotest.(check bool) "fork arrivals reused" true (hits > 0);
      Alcotest.(check (pair int int)) "on: mirrors stats" (hits, misses) (counters ()))

(* Same contract for the session memo's counters, on a walk of probes
   with every other one accepted. *)
let engine_session_sum_counters_mirror_stats () =
  let rng = Tutil.rng_of_seed 5 in
  let graph = Workloads.Random_dag.generate ~rng ~n:16 () in
  let platform =
    Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs:3 ()
  in
  let model = Workloads.Stochastify.make ~ul:1.1 () in
  let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs:3 in
  let engine = Makespan.Engine.create ~graph ~platform ~model in
  let counters () =
    let snap = Obs.Metrics.snapshot () in
    let get name = Option.value ~default:0 (Obs.Metrics.find_counter snap name) in
    (get "engine.reeval_sum_hits", get "engine.reeval_sum_misses")
  in
  let walk () =
    let session = Makespan.Engine.start_session engine sched in
    for i = 1 to 30 do
      let m = Sched.Neighbor.random ~rng (Makespan.Engine.session_schedule session) in
      ignore (Makespan.Engine.reevaluate_any ~commit:false session (Sched.Neighbor.Reassign m));
      if i mod 2 = 0 then Makespan.Engine.accept session
    done
  in
  with_flags ~metrics:false ~spans:false ~progress:false (fun () ->
      walk ();
      Alcotest.(check (pair int int)) "off: untouched" (0, 0) (counters ()));
  let before = Makespan.Engine.stats engine in
  with_flags ~metrics:true ~spans:false ~progress:false (fun () ->
      walk ();
      let st = Makespan.Engine.stats engine in
      let hits = st.Makespan.Engine.reeval_sum_hits - before.Makespan.Engine.reeval_sum_hits
      and misses =
        st.Makespan.Engine.reeval_sum_misses - before.Makespan.Engine.reeval_sum_misses
      in
      Alcotest.(check bool) "replays computed sums" true (misses > 0);
      Alcotest.(check (pair int int)) "on: mirrors stats" (hits, misses) (counters ()))

let engine_output_independent_of_sinks () =
  let engine, sched = small_engine () in
  let reference = Makespan.Engine.eval engine sched in
  let instrumented =
    with_flags ~metrics:true ~spans:true ~progress:false @@ fun () ->
    Makespan.Engine.eval engine sched
  in
  Alcotest.(check bool) "bit-identical distribution" true (reference = instrumented)

(* ------------------------------------------------------------------ *)
(* Trace identifiers                                                   *)
(* ------------------------------------------------------------------ *)

let w3c_trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"
let w3c_parent_id = "00f067aa0ba902b7"

let trace_mint_and_roundtrip () =
  let t = Obs.Trace.mint () in
  Alcotest.(check bool) "minted trace id valid" true
    (Obs.Trace.is_valid_trace_id t.Obs.Trace.trace_id);
  Alcotest.(check int) "parent id length" 16 (String.length t.Obs.Trace.parent_id);
  let hdr = Obs.Trace.to_traceparent t in
  Alcotest.(check int) "traceparent length" 55 (String.length hdr);
  (match Obs.Trace.of_traceparent hdr with
  | Some t' -> Alcotest.(check bool) "roundtrip preserves both ids" true (t = t')
  | None -> Alcotest.fail "to_traceparent output rejected by of_traceparent");
  let u = Obs.Trace.mint () in
  Alcotest.(check bool) "successive mints differ" true
    (t.Obs.Trace.trace_id <> u.Obs.Trace.trace_id)

let trace_rejects_malformed () =
  let reject what s =
    match Obs.Trace.of_traceparent s with
    | None -> ()
    | Some _ -> Alcotest.failf "%s: accepted %S" what s
  in
  (match
     Obs.Trace.of_traceparent
       (Printf.sprintf "00-%s-%s-01" w3c_trace_id w3c_parent_id)
   with
  | Some t -> Alcotest.(check string) "w3c example parses" w3c_trace_id t.Obs.Trace.trace_id
  | None -> Alcotest.fail "rejected the W3C example header");
  reject "unknown version" (Printf.sprintf "ff-%s-%s-01" w3c_trace_id w3c_parent_id);
  reject "uppercase hex"
    (Printf.sprintf "00-%s-%s-01" (String.uppercase_ascii w3c_trace_id) w3c_parent_id);
  reject "all-zero trace id"
    (Printf.sprintf "00-%s-%s-01" (String.make 32 '0') w3c_parent_id);
  reject "all-zero parent id"
    (Printf.sprintf "00-%s-%s-01" w3c_trace_id (String.make 16 '0'));
  reject "missing flags" (Printf.sprintf "00-%s-%s" w3c_trace_id w3c_parent_id);
  reject "empty" "";
  reject "non-hex trace id"
    (Printf.sprintf "00-%s-%s-01" ("zz" ^ String.sub w3c_trace_id 2 30) w3c_parent_id);
  Alcotest.(check bool) "is_valid_trace_id rejects all-zero" false
    (Obs.Trace.is_valid_trace_id (String.make 32 '0'));
  Alcotest.(check bool) "is_valid_trace_id rejects short" false
    (Obs.Trace.is_valid_trace_id "abc")

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                     *)
(* ------------------------------------------------------------------ *)

let clock_monotone () =
  let prev = ref (Obs.Clock.now_us ()) in
  let violated = ref false in
  for _ = 1 to 10_000 do
    let t = Obs.Clock.now_us () in
    if t < !prev then violated := true;
    prev := t
  done;
  Alcotest.(check bool) "now_us never decreases" false !violated

let clock_measures_sleep () =
  let t0 = Obs.Clock.now_us () in
  let s0 = Obs.Clock.now_s () in
  Unix.sleepf 0.02;
  let dus = Obs.Clock.now_us () -. t0 in
  let ds = Obs.Clock.now_s () -. s0 in
  Alcotest.(check bool)
    (Printf.sprintf "20 ms sleep measures as %.0f us" dus)
    true
    (dus >= 15_000. && dus < 5e6);
  Alcotest.(check bool) "now_s agrees with now_us" true
    (Float.abs ((ds *. 1e6) -. dus) < 1e6)

(* ------------------------------------------------------------------ *)
(* Windowed quantiles and the latency bucket preset                    *)
(* ------------------------------------------------------------------ *)

let window_quantile_tracks_recent () =
  with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
  let h = Obs.Metrics.histogram ~buckets:[| 50.; 100.; 150.; 200. |] "omtest.window" in
  for i = 1 to 200 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  let s = Obs.Metrics.snapshot () in
  let hv = List.assoc "omtest.window" s.Obs.Metrics.histograms in
  Alcotest.(check int) "lifetime total" 200 hv.Obs.Metrics.total;
  (* the window holds the last 128 samples: 73..200 *)
  Alcotest.(check int) "window capped at 128" 128 (Array.length hv.Obs.Metrics.recent);
  Alcotest.(check (float 1e-9)) "window min" 73. (Obs.Metrics.window_quantile hv 0.);
  Alcotest.(check (float 1e-9)) "window max" 200. (Obs.Metrics.window_quantile hv 1.);
  let p50 = Obs.Metrics.window_quantile hv 0.5 in
  Alcotest.(check (float 1e-9)) "window median exact" 136.5 p50;
  Alcotest.(check bool) "window median above the lifetime bucket estimate" true
    (p50 > Obs.Metrics.hist_quantile hv 0.5)

let window_quantile_empty_falls_back () =
  with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
  let (_ : Obs.Metrics.histogram) =
    Obs.Metrics.histogram ~buckets:[| 1. |] "omtest.window_empty"
  in
  let s = Obs.Metrics.snapshot () in
  let hv = List.assoc "omtest.window_empty" s.Obs.Metrics.histograms in
  Alcotest.(check bool) "empty histogram yields nan" true
    (Float.is_nan (Obs.Metrics.window_quantile hv 0.5))

let latency_buckets_preset () =
  let b = Obs.Metrics.latency_buckets in
  Alcotest.(check int) "43 buckets" 43 (Array.length b);
  Alcotest.(check (float 1e-12)) "starts at 1 us" 1e-6 b.(0);
  for i = 1 to Array.length b - 1 do
    if b.(i) <= b.(i - 1) then Alcotest.fail "bounds not strictly increasing";
    let r = b.(i) /. b.(i - 1) in
    if r < 1.49 || r > 1.51 then Alcotest.failf "step ratio %g at %d is not log-1.5" r i
  done;
  Alcotest.(check bool) "tops out in the tens of seconds" true
    (b.(42) > 20. && b.(42) < 30.)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let flight_lifecycle () =
  Obs.Flight.reset ();
  let r = Obs.Flight.create ~trace_id:w3c_trace_id ~meth:"POST" ~path:"/eval" () in
  Obs.Flight.set_cache r Obs.Flight.Hit;
  let t0 = Obs.Clock.now_us () in
  Obs.Flight.record_stage (Some r) ~stage:"parse" t0 (t0 +. 5.);
  let v = Obs.Flight.timed ~record:r ~stage:"eval" (fun () -> 42) in
  Alcotest.(check int) "timed passes the result through" 42 v;
  Obs.Flight.finish r ~status:200;
  Alcotest.(check int) "one publication" 1 (Obs.Flight.total ());
  (match Obs.Flight.recent () with
  | [ p ] ->
    Alcotest.(check string) "trace id" w3c_trace_id p.Obs.Flight.trace_id;
    Alcotest.(check int) "status" 200 p.Obs.Flight.status;
    Alcotest.(check bool) "sealed" true (p.Obs.Flight.t_end_us > 0.);
    let stages = List.map (fun s -> s.Obs.Flight.stage) (Atomic.get p.Obs.Flight.stages) in
    Alcotest.(check bool) "parse stage recorded" true (List.mem "parse" stages);
    Alcotest.(check bool) "eval stage recorded" true (List.mem "eval" stages)
  | l -> Alcotest.failf "expected one record, got %d" (List.length l));
  check_valid_json "debug document" (Obs.Flight.json ());
  let chrome = Obs.Flight.chrome ~trace_id:w3c_trace_id () in
  check_valid_json "chrome document" chrome;
  Alcotest.(check bool) "chrome carries the trace" true
    (count_substring ~sub:w3c_trace_id chrome > 0);
  let other = Obs.Flight.chrome ~trace_id:(String.make 32 'b') () in
  Alcotest.(check int) "trace filter excludes other requests" 0
    (count_substring ~sub:"/eval" other);
  Obs.Flight.reset ();
  Alcotest.(check int) "reset clears the ring" 0 (Obs.Flight.total ())

let flight_ring_wraparound_concurrent () =
  Obs.Flight.reset ();
  let n_domains = 4 and per_domain = 150 in
  (* 600 publications into a 256-slot ring, from four domains at once *)
  let worker d () =
    for i = 1 to per_domain do
      let r = Obs.Flight.create ~meth:"GET" ~path:(Printf.sprintf "/d%d/%d" d i) () in
      Obs.Flight.timed ~record:r ~stage:"eval" (fun () -> ());
      Obs.Flight.finish r ~status:200
    done
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "total counts every publication" (n_domains * per_domain)
    (Obs.Flight.total ());
  let rs = Obs.Flight.recent () in
  Alcotest.(check int) "ring serves exactly capacity records" Obs.Flight.capacity
    (List.length rs);
  let seqs = List.sort_uniq compare (List.map (fun r -> r.Obs.Flight.seq) rs) in
  Alcotest.(check int) "every served record is distinct" (List.length rs)
    (List.length seqs);
  List.iter
    (fun r ->
      Alcotest.(check int) "served record sealed" 200 r.Obs.Flight.status;
      Alcotest.(check bool) "served record has an end stamp" true
        (r.Obs.Flight.t_end_us > 0.))
    rs;
  check_valid_json "debug document after wrap" (Obs.Flight.json ());
  check_valid_json "chrome document after wrap" (Obs.Flight.chrome ());
  Alcotest.(check int) "limit respected" 8 (List.length (Obs.Flight.recent ~limit:8 ()));
  Obs.Flight.reset ()

let flight_timed_off_does_not_allocate () =
  with_flags ~metrics:false ~spans:false ~progress:false @@ fun () ->
  let f () = () in
  for _ = 1 to 1_000 do
    Obs.Flight.timed ~stage:"hot" f
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 50_000 do
    Obs.Flight.timed ~stage:"hot" f
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "timed with no record and sinks off allocated %.0f minor words"
       allocated)
    true (allocated <= 1000.)

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)
(* ------------------------------------------------------------------ *)

let openmetrics_render_golden () =
  let open Obs.Openmetrics in
  let metrics =
    [
      { family = "om_requests"; labels = []; help = Some "Total requests";
        data = Counter 3. };
      { family = "om_depth"; labels = []; help = None; data = Gauge 2.5 };
      { family = "om_lat"; labels = [ ("stage", "parse") ]; help = None;
        data =
          Histogram
            {
              bounds = [| 0.001; 0.01 |];
              counts = [| 2; 1; 1 |];
              sum = 0.0215;
              exemplars = [| Some (w3c_trace_id, 0.0005); None; None |];
            } };
    ]
  in
  let text = render metrics in
  let expected =
    String.concat "\n"
      [
        "# HELP om_requests Total requests";
        "# TYPE om_requests counter";
        "om_requests_total 3";
        "# TYPE om_depth gauge";
        "om_depth 2.5";
        "# TYPE om_lat histogram";
        "om_lat_bucket{stage=\"parse\",le=\"0.001\"} 2 # {trace_id=\"" ^ w3c_trace_id
        ^ "\"} 0.0005";
        "om_lat_bucket{stage=\"parse\",le=\"0.01\"} 3";
        "om_lat_bucket{stage=\"parse\",le=\"+Inf\"} 4";
        "om_lat_count{stage=\"parse\"} 4";
        "om_lat_sum{stage=\"parse\"} 0.0215";
        "# EOF";
      ]
    ^ "\n"
  in
  Alcotest.(check string) "golden exposition" expected text;
  match validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validator rejected the golden document: %s" e

let openmetrics_groups_families () =
  let open Obs.Openmetrics in
  let hist stage =
    { family = "om_grp"; labels = [ ("stage", stage) ]; help = None;
      data =
        Histogram
          { bounds = [| 1. |]; counts = [| 1; 0 |]; sum = 0.5;
            exemplars = [| None; None |] } }
  in
  let other = { family = "om_other"; labels = []; help = None; data = Counter 1. } in
  (* the family is split across the input list; the renderer must emit
     its label sets contiguously or the validator flags interleaving *)
  let text = render [ hist "a"; other; hist "b" ] in
  (match validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validator: %s" e);
  Alcotest.(check int) "one TYPE line for the split family" 1
    (count_substring ~sub:"# TYPE om_grp histogram" text);
  Alcotest.(check bool) "both label sets present" true
    (count_substring ~sub:"om_grp_bucket{stage=\"a\"" text > 0
    && count_substring ~sub:"om_grp_bucket{stage=\"b\"" text > 0)

let openmetrics_mixed_kind_rejected () =
  let open Obs.Openmetrics in
  let c = { family = "om_mixed"; labels = []; help = None; data = Counter 1. } in
  let g = { family = "om_mixed"; labels = []; help = None; data = Gauge 1. } in
  match render [ c; g ] with
  | (_ : string) -> Alcotest.fail "render accepted a family mixing counter and gauge"
  | exception Invalid_argument _ -> ()

let openmetrics_validator_rejects () =
  let reject what text =
    match Obs.Openmetrics.validate text with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: validator accepted" what
  in
  reject "no trailing newline" "# EOF";
  reject "missing terminal EOF" "# TYPE a counter\na_total 1\n";
  reject "empty line" "# TYPE a counter\n\na_total 1\n# EOF\n";
  reject "content after EOF" "# EOF\n# TYPE a counter\n";
  reject "sample without TYPE" "a_total 1\n# EOF\n";
  reject "interleaved families"
    "# TYPE a counter\na_total 1\n# TYPE b counter\nb_total 1\na_total 2\n# EOF\n";
  reject "counter sample without _total" "# TYPE a counter\na 1\n# EOF\n";
  reject "histogram without +Inf"
    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n# EOF\n";
  reject "_count disagrees with +Inf"
    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n# EOF\n";
  reject "bucket counts decrease"
    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n# EOF\n";
  reject "exemplar on a gauge" "# TYPE g gauge\ng 1 # {trace_id=\"ab\"} 1\n# EOF\n";
  reject "unknown comment" "# FOO bar\n# EOF\n";
  reject "duplicate TYPE" "# TYPE a counter\n# TYPE a counter\na_total 1\n# EOF\n";
  reject "unparsable sample value" "# TYPE a counter\na_total x\n# EOF\n";
  match Obs.Openmetrics.validate "# TYPE a counter\na_total 1\n# EOF\n" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "minimal valid document rejected: %s" e

let openmetrics_names () =
  Alcotest.(check string) "dots become underscores" "service_stage_seconds"
    (Obs.Openmetrics.sanitize_name "service.stage_seconds");
  Alcotest.(check string) "leading digit masked" "_x" (Obs.Openmetrics.sanitize_name "9x");
  let check_split what name expected =
    let got = Obs.Openmetrics.split_name name in
    Alcotest.(check (pair string (list (pair string string)))) what expected got
  in
  check_split "labeled name splits" "fam{stage=\"parse\",proc=\"3\"}"
    ("fam", [ ("stage", "parse"); ("proc", "3") ]);
  check_split "plain name passes through" "plain" ("plain", []);
  check_split "malformed braces pass through whole" "bad{" ("bad{", [])

let openmetrics_snapshot_roundtrip () =
  with_flags ~metrics:true ~spans:false ~progress:false @@ fun () ->
  let c = Obs.Metrics.counter "omtest.requests" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr c;
  let g = Obs.Metrics.gauge "omtest.depth" in
  Obs.Metrics.set g 4.;
  let h =
    Obs.Metrics.histogram ~buckets:Obs.Metrics.latency_buckets
      "omtest.stage_seconds{stage=\"parse\"}"
  in
  Obs.Metrics.observe_ex h ~exemplar:w3c_trace_id 0.0005;
  let text =
    Obs.Openmetrics.render (Obs.Openmetrics.of_snapshot (Obs.Metrics.snapshot ()))
  in
  (match Obs.Openmetrics.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validator rejected the snapshot exposition: %s" e);
  let has what sub = Alcotest.(check bool) what true (count_substring ~sub text > 0) in
  has "counter exposed with _total" "omtest_requests_total 2";
  has "gauge exposed" "omtest_depth 4";
  has "labeled histogram split into a stage label"
    "omtest_stage_seconds_bucket{stage=\"parse\",le=";
  has "exemplar attached" ("# {trace_id=\"" ^ w3c_trace_id ^ "\"} 0.0005")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          tc "concurrent counter sum" `Quick counter_concurrent_sum;
          tc "add and reset" `Quick counter_add_and_reset;
          tc "gauge last-write-wins" `Quick gauge_last_write_wins;
          histogram_matches_reference;
          tc "idempotent registration" `Quick registration_is_idempotent;
          tc "kind clash" `Quick kind_clash_rejected;
        ] );
      ( "span",
        [
          tc "export balanced" `Quick trace_export_balanced;
          tc "exception safety" `Quick trace_survives_exception;
          tc "ring wrap" `Quick ring_overwrites_and_counts_drops;
          tc "summary" `Quick summary_counts_spans;
          tc "json escape" `Quick json_escape_roundtrip;
        ] );
      ( "report",
        [
          tc "combined json" `Quick report_json_valid;
          tc "phase gc" `Quick progress_phase_records_gc;
          tc "disabled phase" `Quick disabled_phase_is_transparent;
        ] );
      ( "zero-cost",
        [ tc "disabled paths allocate nothing" `Quick disabled_paths_do_not_allocate ] );
      ( "engine",
        [
          tc "per-backend counts" `Quick engine_counts_per_backend;
          tc "arrival counters mirror stats" `Quick engine_arrival_counters_mirror_stats;
          tc "session memo counters mirror stats" `Quick
            engine_session_sum_counters_mirror_stats;
          tc "sinks do not affect output" `Quick engine_output_independent_of_sinks;
        ] );
      ( "trace",
        [
          tc "mint and roundtrip" `Quick trace_mint_and_roundtrip;
          tc "rejects malformed headers" `Quick trace_rejects_malformed;
        ] );
      ( "clock",
        [
          tc "monotone" `Quick clock_monotone;
          tc "measures a sleep" `Quick clock_measures_sleep;
        ] );
      ( "window",
        [
          tc "quantile tracks recent samples" `Quick window_quantile_tracks_recent;
          tc "empty window falls back" `Quick window_quantile_empty_falls_back;
          tc "latency bucket preset" `Quick latency_buckets_preset;
        ] );
      ( "flight",
        [
          tc "lifecycle" `Quick flight_lifecycle;
          tc "ring wraparound under concurrent writers" `Quick
            flight_ring_wraparound_concurrent;
          tc "timed with sinks off allocates nothing" `Quick
            flight_timed_off_does_not_allocate;
        ] );
      ( "openmetrics",
        [
          tc "render golden" `Quick openmetrics_render_golden;
          tc "families grouped" `Quick openmetrics_groups_families;
          tc "mixed-kind family rejected" `Quick openmetrics_mixed_kind_rejected;
          tc "validator rejects malformed documents" `Quick openmetrics_validator_rejects;
          tc "name sanitizing and splitting" `Quick openmetrics_names;
          tc "snapshot exposition roundtrip" `Quick openmetrics_snapshot_roundtrip;
        ] );
    ]
