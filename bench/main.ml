(* Kernel benchmark harness.

   Running `dune exec bench/main.exe` times, with Bechamel, the kernels
   that a committed BENCH record reports: the distribution, convolution
   and pool kernels, the one-move re-evaluation and the annealing search.
   It writes BENCH_dist.json and BENCH_search.json to the current
   directory. The figures themselves are reproduced by `repro all`. *)

open Bechamel
open Toolkit
module E = Experiments

(* shared fixtures, built once *)
let random30 =
  lazy
    (E.Case.instantiate
       (E.Case.make ~kind:E.Case.Random_graph ~n_target:30 ~n_procs:8 ~ul:1.01 ()))

(* engine batch fixtures: a batch of schedules of ONE case, the usage
   pattern of the experiment sweeps (the engine is created once per case
   and amortizes its distribution caches across the batch) *)
let batch_size = 8

let sched_batch =
  lazy
    (let inst = Lazy.force random30 in
     let rng = Prng.Xoshiro.create 31L in
     let scheds =
       Sched.Random_sched.generate_many ~rng ~graph:inst.E.Case.graph ~n_procs:8
         ~count:batch_size
     in
     Array.of_list scheds)

let shared_engine =
  lazy
    (let inst = Lazy.force random30 in
     Makespan.Engine.create ~graph:inst.E.Case.graph ~platform:inst.E.Case.platform
       ~model:inst.E.Case.model)

(* incremental-session fixture: a warm session over the first schedule
   of the random30 batch plus a small-cone single move — the last exit
   task reassigned to the next processor (appending a sink is always
   acyclic, and its cone stays small: the task itself plus the
   disjunctive tail of the target row) *)
let reeval_fixture =
  lazy
    (let inst = Lazy.force random30 in
     let scheds = Lazy.force sched_batch in
     let sched = scheds.(0) in
     let session = Makespan.Engine.start_session (Lazy.force shared_engine) sched in
     let exits = Dag.Graph.exits inst.E.Case.graph in
     let moved = exits.(Array.length exits - 1) in
     let to_ = (sched.Sched.Schedule.proc_of.(moved) + 1) mod 8 in
     let move = Sched.Neighbor.Reassign (Sched.Neighbor.make ~task:moved ~to_ ()) in
     ignore (Makespan.Engine.reevaluate_any ~commit:false session move);
     (session, move))

(* distribution/convolution/pool kernels: the zero-allocation hot layer *)
let uncertain = lazy (Distribution.Family.uncertain ~ul:1.1 20.)

(* a wide partial like the mid-sweep completion distributions: a 13-fold
   sum of [uncertain], trimmed to about 6× its support *)
let wide_partial =
  lazy
    (let u = Lazy.force uncertain in
     let d = ref u in
     for _ = 1 to 12 do
       d := Distribution.Dist.add !d u
     done;
     !d)

(* a grid 50× wider than [uncertain]: the sum of the two takes the
   k-point path, which needs the narrow support below 1/16 of the
   combined range (the 6× wide partial takes the FFT path) *)
let kpoint_wide = lazy (Distribution.Family.uncertain ~ul:2. 100.)

(* the uncertain grid's knots and its spline, for the two per-cell
   kernels every sum and maximum runs: one 64-point spline scan and one
   64-sample density construction (clamp, mass, normalization, CDF) *)
let uncertain_knots =
  lazy
    (let xs, pdf = Distribution.Dist.to_arrays (Lazy.force uncertain) in
     (xs, pdf, Numerics.Spline.fit ~xs ~ys:pdf))

let sample_out = Array.make 64 0.

let dist_tests =
  [
    Test.make ~name:"dist:spline-sample-64"
      (Staged.stage (fun () ->
           let xs, _, s = Lazy.force uncertain_knots in
           let lo = xs.(0) and hi = xs.(Array.length xs - 1) in
           Numerics.Spline.sample_into s ~x0:lo ~dx:((hi -. lo) /. 63.) ~shift:0. ~clip_lo:lo
             ~clip_hi:hi ~n:64 sample_out));
    Test.make ~name:"dist:density-64"
      (Staged.stage (fun () ->
           let xs, pdf, _ = Lazy.force uncertain_knots in
           ignore (Distribution.Dist.of_samples_pdf ~lo:xs.(0) ~dx:(xs.(1) -. xs.(0)) pdf)));
    Test.make ~name:"dist:add-full-64x64"
      (Staged.stage (fun () ->
           let u = Lazy.force uncertain in
           ignore (Distribution.Dist.add u u)));
    Test.make ~name:"dist:add-kpoint"
      (Staged.stage (fun () ->
           let w = Lazy.force kpoint_wide and u = Lazy.force uncertain in
           ignore (Distribution.Dist.add w u)));
    Test.make ~name:"dist:max-indep-64x64"
      (Staged.stage (fun () ->
           let u = Lazy.force uncertain in
           ignore
             (Distribution.Dist.max_indep u (Distribution.Dist.shift u 2.))));
    Test.make ~name:"dist:trim-64"
      (Staged.stage (fun () ->
           let w = Lazy.force wide_partial in
           ignore (Distribution.Dist.trim w)));
    Test.make ~name:"dist:resample-64"
      (Staged.stage (fun () ->
           let u = Lazy.force uncertain in
           ignore (Distribution.Dist.resample ~points:64 u)));
    Test.make ~name:"dist:mean-std"
      (Staged.stage (fun () ->
           let w = Lazy.force wide_partial in
           ignore (Distribution.Dist.mean w +. Distribution.Dist.std w)));
    (* a 12-sum chain under Moment mode: past depth 8 every further sum
       collapses to the CLT normal (moment arithmetic + one 64-point
       normal sampling) instead of a convolution *)
    Test.make ~name:"conv:moment-chain"
      (Staged.stage (fun () ->
           let u = Lazy.force uncertain in
           Distribution.Dist.set_chain_mode (Distribution.Dist.Moment 8);
           Fun.protect
             ~finally:(fun () ->
               Distribution.Dist.set_chain_mode Distribution.Dist.Exact)
             (fun () ->
               let d = ref u in
               for _ = 1 to 12 do
                 d := Distribution.Dist.add !d u
               done;
               ignore !d)));
    (* the identical 12-sum chain on the exact path, for the ratio *)
    Test.make ~name:"conv:exact-chain"
      (Staged.stage (fun () ->
           let u = Lazy.force uncertain in
           let d = ref u in
           for _ = 1 to 12 do
             d := Distribution.Dist.add !d u
           done;
           ignore !d));
  ]

(* single-move incremental re-evaluation on the warm session; compare
   against the full warm eval measured as live_classical_eval below *)
let reeval_tests =
  [
    Test.make ~name:"engine:reeval-1move"
      (Staged.stage (fun () ->
           let session, move = Lazy.force reeval_fixture in
           ignore (Makespan.Engine.reevaluate_any ~commit:false session move)));
  ]

(* robustness-aware search: one short annealing run per Bechamel run (the
   whole probe/accept/frontier loop, sessions included) plus the raw swap
   probe on a warm session. BENCH_search.json turns the first into the
   moves/sec headline; the incremental share comes from one deterministic
   run measured at write time, not from timing. *)
let search_steps_per_run = 32

let heft_init inst =
  match Sched.Registry.parse "HEFT" with
  | Ok e -> e.Sched.Registry.run inst.E.Case.graph inst.E.Case.platform
  | Error e -> failwith e

let search_engine =
  lazy
    (let inst = Lazy.force random30 in
     Makespan.Engine.create ~graph:inst.E.Case.graph ~platform:inst.E.Case.platform
       ~model:inst.E.Case.model)

(* warm session + one precomputed feasible swap, the swap analogue of
   reeval_fixture *)
let swap_fixture =
  lazy
    (let scheds = Lazy.force sched_batch in
     let sched = scheds.(0) in
     let session = Makespan.Engine.start_session (Lazy.force search_engine) sched in
     let rng = Prng.Xoshiro.create 17L in
     let swap =
       match Sched.Neighbor.random_swap ~rng sched with
       | Some s -> Sched.Neighbor.Swap s
       | None -> failwith "bench: no feasible swap on random30"
     in
     ignore (Makespan.Engine.reevaluate_any ~commit:false session swap);
     (session, swap))

let search_tests =
  [
    Test.make ~name:"search:probe-swap"
      (Staged.stage (fun () ->
           let session, swap = Lazy.force swap_fixture in
           ignore (Makespan.Engine.reevaluate_any ~commit:false session swap)));
    Test.make ~name:"search:anneal-32step"
      (Staged.stage (fun () ->
           let inst = Lazy.force random30 in
           let engine = Lazy.force search_engine in
           let init = heft_init inst in
           ignore
             (Search.Anneal.run ~engine ~init
                { Search.Anneal.default with steps = search_steps_per_run; seed = 9L })));
  ]

let conv_tests =
  let mk n = Array.init n (fun i -> 1. +. sin (float_of_int i)) in
  let a512 = mk 512 and b512 = mk 512 in
  let long = mk 2048 and kernel = mk 17 in
  (* the campaign's shapes: a near-square sum and a long-by-short one *)
  let a290 = mk 290 and b291 = mk 291 in
  let a540 = mk 540 and b40 = mk 40 in
  let out = Array.make 4096 0. in
  [
    Test.make ~name:"conv:direct-512x512"
      (Staged.stage (fun () ->
           Numerics.Convolution.direct_into ~out a512 512 b512 512));
    Test.make ~name:"conv:packed-512x512"
      (Staged.stage (fun () ->
           Numerics.Convolution.fft_packed_into ~out a512 512 b512 512));
    Test.make ~name:"conv:packed-290x291"
      (Staged.stage (fun () ->
           Numerics.Convolution.fft_packed_into ~out a290 290 b291 291));
    Test.make ~name:"conv:overlap-add-540x40"
      (Staged.stage (fun () ->
           Numerics.Convolution.overlap_add_into ~out a540 540 b40 40));
    Test.make ~name:"conv:overlap-add-2048x17"
      (Staged.stage (fun () ->
           Numerics.Convolution.overlap_add_into ~out long 2048 kernel 17));
  ]

let bench_pool = lazy (Parallel.Pool.create ~domains:2 ())

let pool_tests =
  [
    Test.make ~name:"pool:persistent-run32"
      (Staged.stage (fun () ->
           Parallel.Pool.run ~pool:(Lazy.force bench_pool) ~chunks:32 (fun c ->
               ignore (Sys.opaque_identity (c * c)))));
  ]

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns > 1e9 then Printf.sprintf "%8.3f  s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%8.3f µs" (ns /. 1e3)
  else Printf.sprintf "%8.0f ns" ns

let run_kernels cfg tests =
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock ] in
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> v
            | _ -> Float.nan
          in
          Printf.printf "%-36s  %14s\n%!" (Test.Elt.name elt) (pretty_ns ns);
          (Test.Elt.name elt, ns))
        (Test.elements test))
    tests

(* BENCH files: kernel results are (name, ns/run) pairs, a NaN estimate
   meaning Bechamel could not fit one. Every file is one Obs.Json
   document. *)
module J = Obs.Json

let ns_of results name =
  match List.assoc_opt name results with
  | Some ns when Float.is_finite ns && ns > 0. -> Some ns
  | _ -> None

let fixed digits x = J.Num (Printf.sprintf "%.*f" digits x)
let opt_fixed digits = function Some x -> fixed digits x | None -> J.Null

let kernel_records results =
  J.Arr
    (List.map
       (fun (name, ns) ->
         J.Obj
           [ ("name", J.Str name); ("ns", if Float.is_finite ns then fixed 3 ns else J.Null) ])
       results)

let with_prefixes prefixes results =
  List.filter
    (fun (name, _) -> List.exists (fun prefix -> String.starts_with ~prefix name) prefixes)
    results

let write_json file fields =
  let oc = open_out file in
  output_string oc (J.to_string (J.Obj fields));
  output_char oc '\n';
  close_out oc;
  Printf.printf "[wrote %s]\n%!" file

(* BENCH_dist.json: the before/after record of the pooled-arena kernel
   layer. The headline speedup and its allocation twin are the committed
   interleaved A/B probe (seed binary and this binary alternated on the
   same machine — the only sound protocol on a host with drifting
   background load); the kernels array and the live eval numbers are
   re-measured on every run, stamped with the commit, core count and
   compiler that produced them. *)
let seed_baseline_ns_per_schedule = 23_015_611.
let seed_baseline_minor_words_per_schedule = 4_024_988.
let after_probe_ns_per_schedule = 11_091_376.
let after_probe_minor_words_per_schedule = 1_937_340.

(* The checkout this binary was built from, read next to the executable
   so the bench may run from any directory; "-dirty" marks uncommitted
   changes, "unknown" a tree without git. Read at startup, before any
   BENCH file is written. *)
let build_commit =
  let dir = Filename.dirname Sys.executable_name in
  match
    Unix.open_process_in
      (Printf.sprintf "git -C %s describe --always --dirty --abbrev=40 2>/dev/null"
         (Filename.quote dir))
  with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line

(* Minor words and words allocated straight into the major heap
   (major − promoted: blocks too large for the minor heap) during [f]. *)
let allocated f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0, major1 -. major0 -. (promoted1 -. promoted0))

(* live warm-engine classical eval: ns and minor words per schedule on
   the random30/p8 batch of [sched_batch] *)
let measure_live_eval () =
  let scheds = Lazy.force sched_batch in
  let engine = Lazy.force shared_engine in
  let eval_all () =
    Array.iter (fun s -> ignore (Makespan.Engine.eval engine s)) scheds
  in
  eval_all ();
  let iters = 5 in
  let t0 = Unix.gettimeofday () in
  let minor, major =
    allocated (fun () ->
        for _ = 1 to iters do
          eval_all ()
        done)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let per = float_of_int (iters * Array.length scheds) in
  (dt *. 1e9 /. per, minor /. per, major /. per)

(* live warm-session single-move re-evaluation: ns and minor words per
   re-evaluated schedule, same case and protocol as [measure_live_eval]
   (40 warm iterations) so the two numbers are directly comparable *)
let measure_live_reeval () =
  let session, move = Lazy.force reeval_fixture in
  let reeval () = ignore (Makespan.Engine.reevaluate_any ~commit:false session move) in
  reeval ();
  let iters = 5 * batch_size in
  let t0 = Unix.gettimeofday () in
  let minor, major =
    allocated (fun () ->
        for _ = 1 to iters do
          reeval ()
        done)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let per = float_of_int iters in
  (dt *. 1e9 /. per, minor /. per, major /. per)

let write_dist_json results =
  let live_ns, live_words, live_major = measure_live_eval () in
  let reeval_ns, reeval_words, reeval_major = measure_live_reeval () in
  write_json "BENCH_dist.json"
    [
      ("commit", J.Str build_commit);
      ("nproc", J.Num (string_of_int (Domain.recommended_domain_count ())));
      ("ocaml", J.Str Sys.ocaml_version);
      ("unit", J.Str "ns");
      ( "protocol",
        J.Str
          "interleaved A/B probe vs seed 839f515, random30/p8 case, 8-schedule batch, 40 \
           warm iterations" );
      ("baseline_classical_eval_ns_per_schedule", fixed 0 seed_baseline_ns_per_schedule);
      ( "baseline_classical_eval_minor_words_per_schedule",
        fixed 0 seed_baseline_minor_words_per_schedule );
      ("after_classical_eval_ns_per_schedule", fixed 0 after_probe_ns_per_schedule);
      ( "after_classical_eval_minor_words_per_schedule",
        fixed 0 after_probe_minor_words_per_schedule );
      ( "speedup_classical_eval",
        fixed 3 (seed_baseline_ns_per_schedule /. after_probe_ns_per_schedule) );
      ( "minor_alloc_drop_pct",
        fixed 1
          ((seed_baseline_minor_words_per_schedule -. after_probe_minor_words_per_schedule)
          /. seed_baseline_minor_words_per_schedule *. 100.) );
      ("live_classical_eval_ns_per_schedule", fixed 0 live_ns);
      ("live_classical_eval_minor_words_per_schedule", fixed 0 live_words);
      ("live_classical_eval_direct_major_words_per_schedule", fixed 0 live_major);
      ("reeval_1move_ns_per_schedule", fixed 0 reeval_ns);
      ("reeval_1move_minor_words_per_schedule", fixed 0 reeval_words);
      ("reeval_1move_direct_major_words_per_schedule", fixed 0 reeval_major);
      ( "reeval_speedup_vs_full_eval",
        fixed 2 (if reeval_ns > 0. then live_ns /. reeval_ns else 0.) );
      ( "kernels",
        kernel_records (with_prefixes [ "dist:"; "conv:"; "pool:"; "engine:" ] results) );
    ]

(* BENCH_search.json: the stochastic-optimizer throughput record. The
   headline is moves/sec through the full annealing loop (probes,
   accepts, frontier bookkeeping) on random30/p8; "incremental_pct" is
   the share of all evaluation work served by dirty-cone replay during a
   deterministic 256-step run — the ≥ 80% acceptance bound applies to
   it. *)
let write_search_json results =
  let ns = ns_of results in
  let inst = Lazy.force random30 in
  let outcome =
    Search.Anneal.run ~engine:(Lazy.force search_engine) ~init:(heft_init inst)
      { Search.Anneal.default with steps = 256 }
  in
  let stats = outcome.Search.Anneal.stats in
  write_json "BENCH_search.json"
    [
      ("unit", J.Str "ns/run");
      ("case", J.Str "random30/p8");
      ( "objective",
        J.Str (Search.Objective.name Search.Anneal.default.Search.Anneal.objective) );
      ("steps_per_run", J.Num (string_of_int search_steps_per_run));
      ("anneal_run_ns", opt_fixed 3 (ns "search:anneal-32step"));
      ( "moves_per_sec",
        opt_fixed 1
          (Option.map
             (fun ns -> float_of_int search_steps_per_run /. (ns *. 1e-9))
             (ns "search:anneal-32step")) );
      ("probe_swap_ns", opt_fixed 3 (ns "search:probe-swap"));
      ("probe_reassign_ns", opt_fixed 3 (ns "engine:reeval-1move"));
      ("ref_steps", J.Num (string_of_int stats.Search.Anneal.steps_done));
      ("incremental_pct", fixed 2 (100. *. Search.Anneal.incremental_fraction stats));
      ( "objective_improvement_pct",
        fixed 2
          (100.
          *. (outcome.Search.Anneal.init_objective -. outcome.Search.Anneal.best_objective)
          /. Float.max 1e-12 (Float.abs outcome.Search.Anneal.init_objective)) );
      ( "frontier_size",
        J.Num (string_of_int (Search.Archive.size outcome.Search.Anneal.frontier)) );
      ("kernels", kernel_records (with_prefixes [ "search:" ] results));
    ]

let () =
  Printf.printf "%-36s  %14s\n" "kernel" "time/run";
  Printf.printf "%s\n" (String.make 52 '-');
  let kernels =
    run_kernels
      (Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None ())
      (dist_tests @ conv_tests @ pool_tests @ reeval_tests @ search_tests)
  in
  write_dist_json kernels;
  write_search_json kernels;
  Parallel.Pool.shutdown (Lazy.force bench_pool)
