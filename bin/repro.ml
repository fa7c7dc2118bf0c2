(* Command-line driver regenerating every table/figure of the paper.
   `repro all` prints the full reproduction at the ambient REPRO_SCALE;
   `--out DIR` additionally writes CSV data (and gnuplot scripts for the
   series/density figures) for external plotting. *)

open Cmdliner
module E = Experiments

let scale_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "smoke" -> Ok E.Scale.smoke
    | "small" -> Ok E.Scale.small
    | "full" | "paper" -> Ok E.Scale.full
    | other -> Error (`Msg (Printf.sprintf "unknown scale %S (smoke|small|full)" other))
  in
  let print fmt (s : E.Scale.t) = Format.pp_print_string fmt s.E.Scale.name in
  Arg.(
    value
    & opt (conv (parse, print)) (E.Scale.of_env ())
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Experiment scale: smoke, small (default; also via REPRO_SCALE) or full.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "domains" ] ~docv:"N"
        ~doc:
          "Domains that run a sweep, the calling one included (default: every core, so a \
           2-core host sweeps on two domains).")

let seed_arg =
  Arg.(
    value
    & opt int64 0L
    & info [ "seed" ] ~docv:"SEED" ~doc:"Offset added to built-in experiment seeds.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Also write CSV data (and gnuplot scripts) to $(docv).")

let verbose_arg =
  Arg.(
    value & flag_all
    & info [ "v"; "verbose" ]
        ~doc:"Log sweep progress to stderr (info); repeat ($(b,-vv)) for debug detail.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record span traces and write them to $(docv) as Chrome trace-event JSON \
           (open in chrome://tracing or ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record engine/pool/Monte-Carlo counters and write the merged registry to \
           $(docv) as JSON.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Report per-sweep rate/ETA and phase GC stats to stderr.")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-spec" ] ~docv:"SPEC"
        ~doc:
          "Arm deterministic fault-injection probes (testing aid; see DESIGN.md §9). \
           $(docv) is 'point:action[@N][:k=v]...' clauses joined by ';', e.g. \
           $(b,runner.eval:fail@1) or $(b,pool.chunk:delay:p=0.01:seed=7:ms=5).")

let moment_depth_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "moment-depth" ] ~docv:"K"
        ~doc:
          "Moment-space fast path: replace a sum of distributions whose combined \
           convolution-chain depth reaches $(docv) (>= 2) by its CLT normal, with a \
           certified Berry-Esseen error bound carried on every result. Default: exact \
           convolution everywhere (bit-reproducible output).")

let setup_chain_mode ~moment_depth =
  match moment_depth with
  | None -> Distribution.Dist.set_chain_mode Distribution.Dist.Exact
  | Some k ->
    if k < 2 then begin
      prerr_endline "repro: --moment-depth must be >= 2";
      Stdlib.exit 2
    end;
    Distribution.Dist.set_chain_mode (Distribution.Dist.Moment k)

let setup_logging verbosity =
  if verbosity > 0 then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level E.Elog.src
      (Some (if verbosity >= 2 then Logs.Debug else Logs.Info))
  end

type ctx = {
  scale : E.Scale.t;
  pool : Parallel.Pool.t option;
  seed : int64;
  out : string option;
  trace : string option;
  metrics : string option;
}

let save ctx name content =
  match ctx.out with
  | None -> ()
  | Some dir ->
    let path = E.Export.write_file ~dir ~name content in
    Printf.printf "[wrote %s]\n" path

let run_fig1 ctx =
  let t = E.Fig1.run ?pool:ctx.pool ~scale:ctx.scale ~seed:(Int64.add 11L ctx.seed) () in
  print_string (E.Fig1.render t);
  save ctx "fig1.csv" (E.Export.fig1_csv t);
  save ctx "fig1.gp" (E.Export.gnuplot_fig1 ~data:"fig1.csv")

let run_fig2 ctx =
  let t = E.Fig2.run ?pool:ctx.pool ~scale:ctx.scale ~seed:(Int64.add 21L ctx.seed) () in
  print_string (E.Fig2.render t);
  save ctx "fig2.csv" (E.Export.fig2_csv t);
  save ctx "fig2.gp"
    (E.Export.gnuplot_density ~data:"fig2.csv" ~title:"calculated vs experimental density")

let run_fig_corr spec name ctx =
  let t = E.Fig_corr.run ?pool:ctx.pool ~scale:ctx.scale spec in
  print_string (E.Fig_corr.render t);
  save ctx (name ^ "-matrix.csv") (E.Export.fig_corr_csv t);
  save ctx (name ^ "-schedules.csv") (E.Export.schedules_csv t.E.Fig_corr.result)

let run_fig6 ctx =
  let t = E.Fig6.run ?pool:ctx.pool ~scale:ctx.scale () in
  print_string (E.Fig6.render t);
  print_newline ();
  print_string
    (E.Intext.render_rel_prob
       (E.Intext.rel_prob_vs_std (List.map E.Runner.random_rows t.E.Fig6.results)));
  save ctx "fig6.csv" (E.Export.fig6_csv t)

let run_fig7 ctx =
  let t = E.Fig7.run () in
  print_string (E.Fig7.render t);
  save ctx "fig7.csv" (E.Export.fig7_csv t);
  save ctx "fig7.gp"
    (E.Export.gnuplot_density ~data:"fig7.csv" ~title:"special vs normal distribution")

let run_fig8 ctx =
  let t = E.Fig8.run () in
  print_string (E.Fig8.render t);
  save ctx "fig8.csv" (E.Export.fig8_csv t);
  save ctx "fig8.gp" (E.Export.gnuplot_fig8 ~data:"fig8.csv")

let run_fig9 ctx =
  let t = E.Fig9.run () in
  print_string (E.Fig9.render t);
  save ctx "fig9.csv" (E.Export.fig9_csv t)

let run_methods ctx =
  print_string
    (E.Intext.render_methods (E.Intext.methods_vs_mc ?pool:ctx.pool ~scale:ctx.scale ()))

let run_ablation ctx =
  print_string
    (E.Ablation.render_correlation
       (E.Ablation.correlation_under_variable_ul ?pool:ctx.pool ~scale:ctx.scale
          ~seed:(Int64.add 51L ctx.seed) ()));
  print_newline ();
  print_string
    (E.Ablation.render_shapes
       (E.Ablation.cluster_under_shapes ?pool:ctx.pool ~scale:ctx.scale
          ~seed:(Int64.add 61L ctx.seed) ()));
  print_newline ();
  print_string
    (E.Ablation.render_tradeoff
       (E.Ablation.robust_heft_tradeoff ~seed:(Int64.add 17L ctx.seed) ()));
  print_newline ();
  print_string
    (E.Ablation.render_pareto
       (E.Ablation.pareto_front_study ?pool:ctx.pool ~scale:ctx.scale
          ~seed:(Int64.add 71L ctx.seed) ()))

(* --- schedule inspection commands --- *)

let heuristics_with_extras =
  List.map (fun e -> (e.Sched.Registry.name, e.Sched.Registry.run)) Sched.Registry.entries

let run_sched_list () =
  let open Sched.Registry in
  Printf.printf "%-10s %-16s %-16s %-10s %s\n" "NAME" "RANK" "SELECT" "INSERT"
    "PROVENANCE";
  List.iter
    (fun e ->
      Printf.printf "%-10s %-16s %-16s %-10s %s%s\n" e.name e.rank e.select e.insert
        e.provenance
        (match e.aliases with
        | [] -> ""
        | a -> Printf.sprintf "  (aliases: %s)" (String.concat ", " a)))
    entries;
  print_newline ();
  print_endline
    "Ad-hoc compositions are accepted wherever a scheduler name is:\n\
    \  rank=R;select=S[;insert=I][;tie=T]\n\
     with R in upward[:mean|best|worst] | updown[:...] | static-level | bil | oct | \
     het-upward,\n\
     S in eft | cp-pin | dl | bim | oeft | lookahead | crossover[:SEED],\n\
     I in insertion | append, and T in id | ready | seeded:SEED."

let parse_case s =
  match String.lowercase_ascii s with
  | "cholesky" -> Ok E.Case.Cholesky
  | "gauss" | "gauss-elim" -> Ok E.Case.Gauss_elim
  | "random" -> Ok E.Case.Random_graph
  | other -> Error (`Msg (Printf.sprintf "unknown workload %S (cholesky|gauss|random)" other))

let case_arg =
  let print fmt k = Format.pp_print_string fmt (E.Case.kind_name k) in
  Arg.(
    value
    & opt (conv (parse_case, print)) E.Case.Cholesky
    & info [ "workload" ] ~docv:"KIND" ~doc:"Workload kind: cholesky, gauss or random.")

let n_arg =
  Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Approximate task count.")

let procs_arg =
  Arg.(value & opt int 3 & info [ "p"; "procs" ] ~docv:"P" ~doc:"Processor count.")

(* The range the service enforces on a job's "ul" field, checked at parse
   time so an out-of-range or non-finite UL is a usage error. *)
let ul_conv =
  let parse s =
    match float_of_string_opt s with
    | Some ul when E.Case.ul_in_range ul -> Ok ul
    | _ ->
      Error
        (`Msg (Printf.sprintf "invalid UL %S: expected a number in [1, %g]" s E.Case.max_ul))
  in
  Arg.conv (parse, Format.pp_print_float)

let ul_arg =
  Arg.(
    value & opt ul_conv 1.1
    & info [ "ul" ] ~docv:"UL"
        ~doc:(Printf.sprintf "Uncertainty level, in [1, %g]." E.Case.max_ul))

let instance kind n procs ul seed =
  E.Case.instantiate
    (E.Case.make ~kind ~n_target:n ~n_procs:procs ~ul ~seed:(Int64.add 1L seed) ())

let run_gantt kind n procs ul seed =
  let inst = instance kind n procs ul seed in
  List.iter
    (fun (name, h) ->
      let sched = h inst.E.Case.graph inst.E.Case.platform in
      let times = Sched.Simulator.deterministic sched inst.E.Case.platform in
      Printf.printf "%s (makespan %.2f):\n%s\n" name times.Sched.Simulator.makespan
        (Sched.Gantt.render sched times))
    heuristics_with_extras

let run_dot kind n procs ul seed =
  let inst = instance kind n procs ul seed in
  print_string (Dag.Dot.to_dot inst.E.Case.graph)

let run_bounds kind n procs ul seed =
  let inst = instance kind n procs ul seed in
  let rng = Prng.Xoshiro.create (Int64.add 77L seed) in
  let sched =
    Sched.Random_sched.generate ~rng ~graph:inst.E.Case.graph ~n_procs:procs
  in
  let b = Makespan.Bounds.run sched inst.E.Case.platform inst.E.Case.model in
  let engine =
    Makespan.Engine.create ~graph:inst.E.Case.graph ~platform:inst.E.Case.platform
      ~model:inst.E.Case.model
  in
  let classical = Makespan.Engine.eval engine sched in
  let mc =
    Makespan.Montecarlo.run ~rng ~count:20000 sched inst.E.Case.platform inst.E.Case.model
  in
  let open Distribution in
  Printf.printf
    "Kleindorfer-style bracket on a random schedule (%s, %d tasks, %d procs, UL %g):\n"
    (E.Case.kind_name kind) (Dag.Graph.n_tasks inst.E.Case.graph) procs ul;
  Printf.printf "  lower (comonotone maxima):  mean %10.3f  std %8.4f\n"
    (Dist.mean b.Makespan.Bounds.lower) (Dist.std b.Makespan.Bounds.lower);
  Printf.printf "  classical (engine):         mean %10.3f  std %8.4f\n"
    (Dist.mean classical) (Dist.std classical);
  Printf.printf "  Monte Carlo (20000 runs):   mean %10.3f  std %8.4f\n"
    (Empirical.mean mc) (Empirical.std mc);
  Printf.printf "  upper (independent maxima): mean %10.3f  std %8.4f\n"
    (Dist.mean b.Makespan.Bounds.upper) (Dist.std b.Makespan.Bounds.upper);
  Printf.printf "  CDF bracket holds: %b\n"
    (Makespan.Bounds.enclose b (Empirical.to_dist ~points:128 mc))

(* --- evaluation service commands --- *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Service bind/connect address.")

let port_arg default =
  Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc:"Service TCP port.")

let parse_sched_token tok =
  match String.split_on_char ':' tok with
  | "random" :: count :: rest -> (
    match (int_of_string_opt count, rest) with
    | Some count, [] -> Ok (Service.Proto.Random { count; seed = 0L })
    | Some count, [ s ] -> (
      match Int64.of_string_opt s with
      | Some seed -> Ok (Service.Proto.Random { count; seed })
      | None -> Error (`Msg (Printf.sprintf "bad random seed in %S" tok)))
    | _ -> Error (`Msg (Printf.sprintf "bad random spec %S (random:COUNT[:SEED])" tok)))
  | "neighbor" :: rest -> (
    (* trailing integer fields are the move; everything before them is
       the base scheduler name (which may itself contain ':', e.g. a
       seeded tie-break composition) *)
    let bad () =
      Error
        (`Msg (Printf.sprintf "bad neighbor spec %S (neighbor:BASE:TASK:PROC[:AT])" tok))
    in
    let make base task to_ at =
      match Sched.Registry.parse base with
      | Ok e ->
        Ok (Service.Proto.Neighbor { base = e.Sched.Registry.name; task; to_; at })
      | Error msg -> Error (`Msg msg)
    in
    match List.rev rest with
    | c :: b :: a :: (_ :: _ as front) -> (
      let without_at () =
        match (int_of_string_opt b, int_of_string_opt c) with
        | Some task, Some to_ when task >= 0 && to_ >= 0 ->
          make (String.concat ":" (List.rev (a :: front))) task to_ None
        | _ -> bad ()
      in
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
      | Some task, Some to_, Some at when task >= 0 && to_ >= 0 && at >= 0 -> (
        (* both readings are syntactically possible when the base's own
           name ends in an integer; prefer TASK:PROC:AT, fall back if
           the shorter base is not a known scheduler *)
        match make (String.concat ":" (List.rev front)) task to_ (Some at) with
        | Ok _ as ok -> ok
        | Error _ -> without_at ())
      | _ -> without_at ())
    | [ c; b; a ] -> (
      match (int_of_string_opt b, int_of_string_opt c) with
      | Some task, Some to_ when task >= 0 && to_ >= 0 -> make a task to_ None
      | _ -> bad ())
    | _ -> bad ())
  | _ -> (
    (* registry name, alias, or rank=...;select=... composition *)
    match Sched.Registry.parse tok with
    | Ok e -> Ok (Service.Proto.Heuristic e.Sched.Registry.name)
    | Error msg -> Error (`Msg msg))

let schedules_arg =
  let parse s =
    List.fold_right
      (fun tok acc ->
        Result.bind acc (fun specs ->
            Result.map (fun spec -> spec :: specs) (parse_sched_token (String.trim tok))))
      (String.split_on_char ',' s)
      (Ok [])
  in
  let print fmt specs =
    Format.pp_print_string fmt
      (String.concat ","
         (List.map
            (function
              | Service.Proto.Heuristic h -> h
              | Service.Proto.Random { count; seed } ->
                Printf.sprintf "random:%d:%Ld" count seed
              | Service.Proto.Neighbor { base; task; to_; at } -> (
                match at with
                | None -> Printf.sprintf "neighbor:%s:%d:%d" base task to_
                | Some a -> Printf.sprintf "neighbor:%s:%d:%d:%d" base task to_ a))
            specs))
  in
  Arg.(
    value
    & opt (conv (parse, print)) [ Service.Proto.Heuristic "HEFT" ]
    & info [ "schedules" ] ~docv:"SPECS"
        ~doc:
          "Comma-separated schedule sources: registry scheduler names (see $(b,repro \
           sched --list)), $(b,rank=R;select=S[;insert=I][;tie=T]) compositions, \
           and/or $(b,random:COUNT[:SEED]) batches.")

let backend_arg =
  Arg.(
    value
    & opt string "classical"
    & info [ "backend" ] ~docv:"NAME"
        ~doc:"Evaluation backend: classical, dodin, spelde or mc (Monte Carlo).")

let slack_arg =
  let parse = function
    | "disjunctive" -> Ok `Disjunctive
    | "precedence" -> Ok `Precedence
    | other -> Error (`Msg (Printf.sprintf "unknown slack mode %S" other))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with `Disjunctive -> "disjunctive" | `Precedence -> "precedence")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Disjunctive
    & info [ "slack" ] ~docv:"MODE" ~doc:"Slack graph mode: disjunctive or precedence.")

let eval_job workload n procs ul seed backend mc_count mc_seed schedules slack delta
    gamma =
  match Makespan.Engine.backend_of_name ~mc_count ~mc_seed backend with
  | None ->
    prerr_endline ("repro eval: unknown backend " ^ backend);
    Stdlib.exit 2
  | Some backend ->
    {
      Service.Proto.workload =
        Service.Proto.Named { kind = workload; n; procs; seed = Int64.add 1L seed };
      ul;
      backend;
      schedules;
      slack_mode = slack;
      delta;
      gamma;
      deadline_ms = None;
      trace = None;
    }

let run_eval job emit =
  (match Service.Proto.validate job with
  | Ok () -> ()
  | Error e ->
    prerr_endline ("repro eval: " ^ e);
    Stdlib.exit 2);
  if emit then print_string (Service.Proto.job_to_json job ^ "\n")
  else
    match Service.Proto.eval job with
    | Ok body -> print_string body
    | Error e ->
      prerr_endline ("repro eval: " ^ e);
      Stdlib.exit 2
    | exception exn ->
      prerr_endline ("repro eval: " ^ Printexc.to_string exn);
      Stdlib.exit 1

let eval_cmd =
  let emit_arg =
    Arg.(
      value & flag
      & info [ "emit-request" ]
          ~doc:
            "Print the JSON job body for this evaluation instead of running it \
             (pipe to $(b,curl -d @- http://host:port/eval)).")
  in
  let delta_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "delta" ] ~docv:"D" ~doc:"A(δ) bound override (calibrated if absent).")
  in
  let gamma_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "gamma" ] ~docv:"G" ~doc:"R(γ) bound override (calibrated if absent).")
  in
  let mc_count_arg =
    Arg.(
      value & opt int 10_000
      & info [ "mc-count" ] ~docv:"N" ~doc:"Monte Carlo runs for --backend mc.")
  in
  let mc_seed_arg =
    Arg.(
      value & opt int64 0L
      & info [ "mc-seed" ] ~docv:"S" ~doc:"Monte Carlo seed for --backend mc.")
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Evaluate schedules of one case and print the service-format result \
          document (the byte-identical offline twin of POST /eval).")
    Term.(
      const (fun workload n procs ul seed backend mc_count mc_seed schedules slack
                 delta gamma emit moment_depth ->
          setup_chain_mode ~moment_depth;
          run_eval
            (eval_job workload n procs ul seed backend mc_count mc_seed schedules
               slack delta gamma)
            emit)
      $ case_arg $ n_arg $ procs_arg $ ul_arg $ seed_arg $ backend_arg $ mc_count_arg
      $ mc_seed_arg $ schedules_arg $ slack_arg $ delta_arg $ gamma_arg $ emit_arg
      $ moment_depth_arg)

let serve_cmd =
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N" ~doc:"Job-queue capacity (503 beyond it).")
  in
  let conns_arg =
    Arg.(
      value & opt int 4
      & info [ "conns" ] ~docv:"N" ~doc:"Connection-handler domains.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Evaluation shards: each is a job queue and a locked engine cache; \
             jobs are consistent-hashed to shards by batch key. One pool of one \
             domain per core runs every shard's jobs side by side and helps \
             their schedule fan-outs.")
  in
  let grace_arg =
    Arg.(
      value & opt float 5.0
      & info [ "grace" ] ~docv:"SEC"
          ~doc:"Drain grace: max seconds for queued jobs to finish on shutdown.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log one stderr line (trace id + stage list) for every request slower \
             than $(docv) milliseconds.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the evaluation daemon: POST /eval (sync), POST /jobs + GET /jobs/:id \
          (async), GET /healthz, GET /metrics (JSON or OpenMetrics), GET \
          /debug/requests (flight recorder). Same-case jobs are batched onto \
          shared engines. SIGINT/SIGTERM drains gracefully.")
    Term.(
      const (fun host port queue conns workers grace slow_ms ->
          Service.Server.serve_forever
            {
              Service.Server.default_config with
              host;
              port;
              queue_capacity = queue;
              conn_domains = conns;
              workers;
              drain_grace_s = grace;
              slow_ms;
            })
      $ host_arg $ port_arg 8123 $ queue_arg $ conns_arg $ workers_arg $ grace_arg
      $ slow_ms_arg)

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SEC" ~doc:"Seconds between frames.")
  in
  let iterations_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Render $(docv) frames then exit (default: until killed).")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ] ~doc:"Render a single frame and exit.")
  in
  let plain_arg =
    Arg.(
      value & flag
      & info [ "plain" ]
          ~doc:"Append frames instead of clearing the screen (pipes, CI logs).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running $(b,repro serve): throughput, queue depth, \
          engine-cache hit rate, per-stage latency p50/p99 (deltas between \
          frames) and the most recent requests from the flight recorder.")
    Term.(
      const (fun host port interval iterations once plain ->
          let iterations = if once then Some 1 else iterations in
          match
            Service.Top.run
              { Service.Top.host; port; interval_s = interval; iterations; plain }
          with
          | Ok () -> ()
          | Error e ->
            prerr_endline ("repro top: " ^ e);
            Stdlib.exit 1)
      $ host_arg $ port_arg 8123 $ interval_arg $ iterations_arg $ once_arg
      $ plain_arg)

let check_metrics_cmd =
  let input_arg =
    Arg.(
      value
      & pos 0 string "-"
      & info [] ~docv:"FILE"
          ~doc:"OpenMetrics exposition to validate ($(b,-) reads stdin).")
  in
  Cmd.v
    (Cmd.info "check-metrics"
       ~doc:
         "Validate an OpenMetrics text exposition (as served by GET \
          /metrics?format=openmetrics) against the line grammar: typed families, \
          no interleaving, cumulative buckets, exemplar syntax, terminal # EOF. \
          Exits 1 with the offending line on failure.")
    Term.(
      const (fun input ->
          let text =
            if input = "-" then In_channel.input_all In_channel.stdin
            else In_channel.with_open_bin input In_channel.input_all
          in
          match Obs.Openmetrics.validate text with
          | Ok () -> print_endline "ok"
          | Error e ->
            prerr_endline ("check-metrics: " ^ e);
            Stdlib.exit 1)
      $ input_arg)

(* --- robustness-aware search: repro optimize --- *)

(* Build the spec string first and parse it like any other anneal:...
   name, so the spec the command reports is — by construction — the one
   that reproduces this exact run through the registry. *)
let optimize_spec ~objective ~steps ~opt_seed ~restarts ~policy ~t0 ~alpha ~target ~window
    ~init ~mix ~max_cone ~delta ~gamma ~axis ~ul =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  add "obj=%s" objective;
  add "steps=%d" steps;
  add "seed=%Ld" opt_seed;
  if restarts <> 0 then add "restarts=%d" restarts;
  add "policy=%s" policy;
  Option.iter (fun v -> add "t0=%.17g" v) t0;
  Option.iter (fun v -> add "alpha=%.17g" v) alpha;
  Option.iter (fun v -> add "target=%.17g" v) target;
  Option.iter (fun v -> add "window=%d" v) window;
  (* composed inits are spliced in as their component keys *)
  if String.contains init '=' then
    List.iter
      (fun p -> if p <> "" then add "%s" p)
      (String.split_on_char ','
         (String.map (fun c -> if c = ';' then ',' else c) init))
  else add "init=%s" init;
  add "mix=%s" mix;
  Option.iter (fun v -> add "max-cone=%d" v) max_cone;
  Option.iter (fun v -> add "delta=%.17g" v) delta;
  Option.iter (fun v -> add "gamma=%.17g" v) gamma;
  if axis = "slack" then add "axis=slack";
  add "ul=%.17g" ul;
  Search.Anneal.spec_prefix ^ String.concat ";" (List.rev !parts)

let optimize_summary_json ~kind ~n ~procs ~ul ~case_seed ~spec ~(config : Search.Anneal.config)
    ~(outcome : Search.Anneal.outcome) ~best_heuristic ~verified =
  let open Obs.Json in
  let num v = Num (float_lit v) and int i = Num (string_of_int i) in
  let stats = outcome.Search.Anneal.stats in
  let best_eval = outcome.Search.Anneal.best_eval in
  let best_makespan = best_eval.Makespan.Engine.makespan in
  let best_name, best_h_obj = best_heuristic in
  to_string
    (Obj
       [
         ( "case",
           Obj
             [
               ("kind", Str (E.Case.kind_name kind));
               ("n", int n);
               ("procs", int procs);
               ("ul", num ul);
               ("seed", Num (Int64.to_string case_seed));
             ] );
         ("objective", Str (Search.Objective.name config.Search.Anneal.objective));
         ("spec", Str spec);
         ("delta", num outcome.Search.Anneal.bounds.Search.Objective.delta);
         ("gamma", num outcome.Search.Anneal.bounds.Search.Objective.gamma);
         ( "init",
           Obj
             [
               ("scheduler", Str config.Search.Anneal.init);
               ("objective", num outcome.Search.Anneal.init_objective);
             ] );
         ( "best",
           Obj
             [
               ("objective", num outcome.Search.Anneal.best_objective);
               ("expected_makespan", num (Distribution.Dist.mean best_makespan));
               ("makespan_std", num (Distribution.Dist.std best_makespan));
               ("slack_total", num best_eval.Makespan.Engine.slack.Sched.Slack.total);
               ("schedule", Str (Search.Archive.flat_sched outcome.Search.Anneal.best));
             ] );
         ("best_heuristic", Obj [ ("name", Str best_name); ("objective", num best_h_obj) ]);
         ( "stats",
           Obj
             [
               ("steps", int stats.Search.Anneal.steps_done);
               ("probes", int stats.Search.Anneal.probes);
               ("accepted", int stats.Search.Anneal.accepted);
               ("infeasible", int stats.Search.Anneal.infeasible);
               ("priority_moves", int stats.Search.Anneal.priority_moves);
               ("restarts", int stats.Search.Anneal.restarts_done);
               ("reevals", int stats.Search.Anneal.reevals);
               ("reeval_incremental", int stats.Search.Anneal.reeval_incremental);
               ("reeval_full", int stats.Search.Anneal.reeval_full);
               ("full_evals", int stats.Search.Anneal.full_evals);
               ("incremental_fraction", num (Search.Anneal.incremental_fraction stats));
             ] );
         ("verified_bitwise", Bool verified);
         ("interrupted", Bool outcome.Search.Anneal.interrupted);
         ("frontier_size", int (Search.Archive.size outcome.Search.Anneal.frontier));
       ])

let run_optimize ctx kind n procs ul spec =
  match Search.Anneal.parse_spec spec with
  | Error e ->
    prerr_endline ("repro optimize: " ^ e);
    2
  | Ok (config, _spec_ul) ->
    let inst = instance kind n procs ul ctx.seed in
    let graph = inst.E.Case.graph and platform = inst.E.Case.platform in
    let engine = Makespan.Engine.create ~graph ~platform ~model:inst.E.Case.model in
    let init_sched =
      match Sched.Registry.parse config.Search.Anneal.init with
      | Ok e -> e.Sched.Registry.run graph platform
      | Error e ->
        prerr_endline ("repro optimize: init scheduler: " ^ e);
        Stdlib.exit 2
    in
    let outcome =
      E.Stop.with_scope (fun scope ->
          Search.Anneal.run
            ~should_stop:(fun () -> E.Stop.requested scope)
            ~engine ~init:init_sched config)
    in
    let bounds = outcome.Search.Anneal.bounds in
    let objective ev = Search.Objective.value config.Search.Anneal.objective bounds ev in
    (* heuristic baselines under the same objective and bounds *)
    let baselines =
      List.map
        (fun e ->
          let sched = e.Sched.Registry.run graph platform in
          let ev = Makespan.Engine.analyze engine sched in
          (e.Sched.Registry.name, ev, objective ev))
        Sched.Registry.entries
    in
    let best_name, _, best_h_obj =
      List.fold_left
        (fun ((_, _, bo) as best) ((_, _, o) as cand) -> if o < bo then cand else best)
        (List.hd baselines) (List.tl baselines)
    in
    let fresh = Makespan.Engine.analyze engine outcome.Search.Anneal.best in
    let verified =
      Int64.bits_of_float (objective fresh)
      = Int64.bits_of_float outcome.Search.Anneal.best_objective
    in
    let canonical =
      Search.Anneal.canonical_spec config ~ul:inst.E.Case.case.E.Case.ul
    in
    let stats = outcome.Search.Anneal.stats in
    Printf.printf "optimize: %s %d tasks / %d procs / UL %g (case seed %Ld)\n"
      (E.Case.kind_name kind)
      (Dag.Graph.n_tasks graph)
      procs ul (Int64.add 1L ctx.seed);
    Printf.printf "objective: %s  (delta %.6g, gamma %.8g)\n"
      (Search.Objective.name config.Search.Anneal.objective)
      bounds.Search.Objective.delta bounds.Search.Objective.gamma;
    Printf.printf "spec: %s\n\n" canonical;
    Printf.printf "heuristic baselines:\n";
    Printf.printf "  %-28s %12s %12s %14s\n" "scheduler" "E(M)" "sigma_M" "objective";
    List.iter
      (fun (name, ev, o) ->
        Printf.printf "  %-28s %12.4f %12.4f %14.6f\n" name
          (Distribution.Dist.mean ev.Makespan.Engine.makespan)
          (Distribution.Dist.std ev.Makespan.Engine.makespan)
          o)
      baselines;
    Printf.printf "  best heuristic: %s (objective %.6f)\n\n" best_name best_h_obj;
    Printf.printf "search: %d steps, %d probes, %d accepted, %d infeasible draws, \
                   %d priority rebuilds, %d restarts\n"
      stats.Search.Anneal.steps_done stats.Search.Anneal.probes
      stats.Search.Anneal.accepted stats.Search.Anneal.infeasible
      stats.Search.Anneal.priority_moves stats.Search.Anneal.restarts_done;
    Printf.printf
      "incremental re-evaluation: %.1f%% of evaluation work (%d reevals: %d incremental, \
       %d full; %d fresh sweeps)\n"
      (100. *. Search.Anneal.incremental_fraction stats)
      stats.Search.Anneal.reevals stats.Search.Anneal.reeval_incremental
      stats.Search.Anneal.reeval_full stats.Search.Anneal.full_evals;
    let best_eval = outcome.Search.Anneal.best_eval in
    Printf.printf "initial objective (%s): %.6f\n" config.Search.Anneal.init
      outcome.Search.Anneal.init_objective;
    Printf.printf "best objective: %.6f  (E(M) %.4f, sigma_M %.4f, slack %.4f)\n"
      outcome.Search.Anneal.best_objective
      (Distribution.Dist.mean best_eval.Makespan.Engine.makespan)
      (Distribution.Dist.std best_eval.Makespan.Engine.makespan)
      best_eval.Makespan.Engine.slack.Sched.Slack.total;
    let rel =
      if best_h_obj <> 0. then
        100. *. (best_h_obj -. outcome.Search.Anneal.best_objective) /. Float.abs best_h_obj
      else nan
    in
    Printf.printf "vs best heuristic: %+.2f%%\n" rel;
    Printf.printf "objective bitwise-equal to fresh analyze: %b\n" verified;
    if outcome.Search.Anneal.interrupted then
      Printf.printf "interrupted: partial result (stop requested mid-search)\n";
    let frontier = outcome.Search.Anneal.frontier in
    Printf.printf "\nfrontier (E(M) vs %s), %d points:\n"
      (match Search.Archive.axis frontier with `Sigma -> "sigma_M" | `Slack -> "slack")
      (Search.Archive.size frontier);
    Printf.printf "  %6s %12s %12s %12s %14s\n" "step" "E(M)" "sigma_M" "slack" "objective";
    List.iter
      (fun (p : Search.Archive.point) ->
        Printf.printf "  %6d %12.4f %12.4f %12.4f %14.6f\n" p.Search.Archive.step
          p.Search.Archive.em p.Search.Archive.sigma p.Search.Archive.slack
          p.Search.Archive.objective)
      (Search.Archive.points frontier);
    Printf.printf "\nbest schedule:\n%s" (Sched.Schedule.to_string outcome.Search.Anneal.best);
    save ctx "frontier.csv" (Search.Archive.to_csv frontier);
    save ctx "frontier.json" (Search.Archive.to_json frontier);
    save ctx "summary.json"
      (optimize_summary_json ~kind ~n ~procs ~ul ~case_seed:(Int64.add 1L ctx.seed)
         ~spec:canonical ~config ~outcome
         ~best_heuristic:(best_name, best_h_obj)
         ~verified);
    if outcome.Search.Anneal.interrupted then 130 else 0

(* Returns the process exit code: 0 on full success, 2 when some case
   failed permanently (results above exclude it), 130 when a stop was
   requested (SIGINT/SIGTERM) — checkpoints and manifest are saved, so
   rerunning resumes exactly. *)
let run_campaign limit schedulers ctx =
  let dir = Option.value ctx.out ~default:"repro-campaign" in
  let cases =
    Option.map
      (fun k -> List.filteri (fun i _ -> i < k) (E.Case.paper_cases ()))
      limit
  in
  match
    E.Campaign.run ?pool:ctx.pool ~scale:ctx.scale ?schedulers ~dir ?cases ()
  with
  | exception E.Campaign.Interrupted ->
    prerr_endline
      "campaign: stop requested; completed cases are checkpointed — rerun to resume";
    130
  | t ->
    print_string (E.Campaign.render t);
    print_newline ();
    let random_rows =
      (* the §VII in-text computation over campaign rows *)
      List.map
        (fun (r : E.Campaign.case_result) ->
          E.Runner.random_rows_of ~sources:r.E.Campaign.sources ~rows:r.E.Campaign.rows)
        t.E.Campaign.results
    in
    if random_rows <> [] then
      print_string (E.Intext.render_rel_prob (E.Intext.rel_prob_vs_std random_rows));
    if t.E.Campaign.failures = [] then 0 else 2

let run_all ctx =
  let sep () = print_string "\n======================================================\n\n" in
  run_fig1 ctx;
  sep ();
  run_fig2 ctx;
  sep ();
  run_fig_corr E.Fig_corr.fig3 "fig3" ctx;
  sep ();
  run_fig_corr E.Fig_corr.fig4 "fig4" ctx;
  sep ();
  run_fig_corr E.Fig_corr.fig5 "fig5" ctx;
  sep ();
  run_fig6 ctx;
  sep ();
  run_fig7 ctx;
  sep ();
  run_fig8 ctx;
  sep ();
  run_fig9 ctx;
  sep ();
  run_methods ctx;
  sep ();
  run_ablation ctx

let ctx_term =
  Term.(
    const (fun scale domains seed out verbose trace metrics progress fault
               moment_depth ->
        setup_logging (List.length verbose);
        if trace <> None then Obs.Span.set_enabled true;
        if metrics <> None then Obs.Metrics.set_enabled true;
        if progress then Obs.Progress.set_enabled true;
        Option.iter (fun spec -> Fault.configure ~spec) fault;
        setup_chain_mode ~moment_depth;
        let pool =
          Option.map
            (fun domains ->
              let pool = Parallel.Pool.create ~domains () in
              at_exit (fun () -> Parallel.Pool.shutdown pool);
              pool)
            domains
        in
        { scale; pool; seed; out; trace; metrics })
    $ scale_arg $ domains_arg $ seed_arg $ out_arg $ verbose_arg $ trace_arg
    $ metrics_arg $ progress_arg $ fault_arg $ moment_depth_arg)

(* Telemetry sinks flush once, after the command body: the trace file
   holds every span of the run, the metrics file the merged registry
   (counters/gauges/histograms + span summary + phase GC reports). *)
let write_sink path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  (* stderr, so stdout stays bit-identical with sinks on and off *)
  Printf.eprintf "[wrote %s]\n%!" path

let finalize ctx =
  Option.iter
    (fun path -> write_sink path (Obs.Json.to_string (Obs.Report.json ()) ^ "\n"))
    ctx.metrics;
  Option.iter (fun path -> write_sink path (Obs.Span.export_chrome ())) ctx.trace

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun ctx ->
          f ctx;
          finalize ctx)
      $ ctx_term)

let case_cmd name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(const f $ case_arg $ n_arg $ procs_arg $ ul_arg $ seed_arg)

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit" ] ~docv:"N"
        ~doc:"Run only the first $(docv) paper cases (CI / smoke testing).")

let schedulers_arg =
  let parse s =
    let toks =
      List.filter (fun t -> t <> "") (List.map String.trim (String.split_on_char ',' s))
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | t :: rest -> (
        match Sched.Registry.parse t with
        | Ok _ -> go (t :: acc) rest
        | Error msg -> Error (`Msg msg))
    in
    go [] toks
  in
  let print fmt l = Format.pp_print_string fmt (String.concat "," l) in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "schedulers" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated heuristic schedulers swept next to the random batch: registry \
           names (see $(b,repro sched --list)) or $(b,rank=R;select=S) compositions. \
           Default: HEFT,BIL,Hyb.BMCT.")

let campaign_cmd =
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Checkpointed Fig. 6 sweep: per-case CSVs plus a campaign.json provenance \
          manifest in --out (default repro-campaign/), crash-safe and resumable. Exits 2 \
          if a case failed permanently, 130 on SIGINT/SIGTERM (resume by rerunning).")
    Term.(
      const (fun ctx limit schedulers ->
          let code = run_campaign limit schedulers ctx in
          finalize ctx;
          if code <> 0 then Stdlib.exit code)
      $ ctx_term $ limit_arg $ schedulers_arg)

let sched_cmd =
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List every registered scheduler (name, components, provenance).")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Inspect the scheduler registry: names, component decomposition \
          (rank/select/insert) and provenance, plus the composition grammar.")
    Term.(const (fun _list -> run_sched_list ()) $ list_arg)

let optimize_cmd =
  let objective_arg =
    Arg.(
      value & opt string "sigma_m"
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:
            "Objective to minimize: $(b,makespan), $(b,sigma_m), $(b,entropy), \
             $(b,slack), $(b,slack_std), $(b,lateness), $(b,a_delta), $(b,r_gamma) or \
             $(b,blend:LAMBDA) (E(M) + LAMBDA*sigma_M). Better-when-larger metrics are \
             negated internally.")
  in
  let steps_arg =
    Arg.(
      value & opt int 400
      & info [ "steps" ] ~docv:"N" ~doc:"Total probe budget (split across restarts).")
  in
  let opt_seed_arg =
    Arg.(
      value & opt int64 0L
      & info [ "opt-seed" ] ~docv:"SEED"
          ~doc:"Search seed (SplitMix64 root); runs are byte-reproducible per seed.")
  in
  let restarts_arg =
    Arg.(
      value & opt int 0
      & info [ "restarts" ] ~docv:"R" ~doc:"Extra runs re-seeded from the incumbent best.")
  in
  let policy_arg =
    Arg.(
      value & opt string "metropolis"
      & info [ "policy" ] ~docv:"P"
          ~doc:
            "Acceptance policy: $(b,hill) (strict improvements), $(b,metropolis) \
             (geometric cooling) or $(b,adaptive) (acceptance-rate-steered cooling).")
  in
  let t0_arg =
    Arg.(
      value & opt (some float) None
      & info [ "t0" ] ~docv:"T"
          ~doc:"Initial temperature (default: 5% of the initial objective magnitude).")
  in
  let alpha_arg =
    Arg.(
      value & opt (some float) None
      & info [ "alpha" ] ~docv:"A"
          ~doc:"Geometric cooling factor per step (default: 1000x decay over the run).")
  in
  let target_arg =
    Arg.(
      value & opt (some float) None
      & info [ "target" ] ~docv:"RATE"
          ~doc:"Adaptive cooling: steer the acceptance rate toward $(docv) (default 0.25).")
  in
  let window_arg =
    Arg.(
      value & opt (some int) None
      & info [ "window" ] ~docv:"N" ~doc:"Adaptive cooling correction window (default 32).")
  in
  let init_arg =
    Arg.(
      value & opt string "HEFT"
      & info [ "init" ] ~docv:"SCHED"
          ~doc:
            "Initial schedule: a registry scheduler name or a \
             $(b,rank=R;select=S) composition.")
  in
  let mix_arg =
    Arg.(
      value & opt string "12:3:1"
      & info [ "mix" ] ~docv:"R:S:P"
          ~doc:
            "Move-generator weights: one-task reassigns : task swaps : priority \
             perturbations replayed through the list scheduler.")
  in
  let max_cone_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-cone" ] ~docv:"N"
          ~doc:"Dirty-cone cutoff forwarded to the incremental engine session.")
  in
  let delta_arg =
    Arg.(
      value & opt (some float) None
      & info [ "delta" ] ~docv:"D"
          ~doc:"A(delta) bound override (default: calibrated from the initial schedule).")
  in
  let gamma_arg =
    Arg.(
      value & opt (some float) None
      & info [ "gamma" ] ~docv:"G" ~doc:"R(gamma) bound override (same convention).")
  in
  let frontier_arg =
    let parse = function
      | "sigma" -> Ok "sigma"
      | "slack" -> Ok "slack"
      | s -> Error (`Msg (Printf.sprintf "unknown frontier axis %S (sigma|slack)" s))
    in
    Arg.(
      value
      & opt (conv (parse, Format.pp_print_string)) "sigma"
      & info [ "frontier" ] ~docv:"AXIS"
          ~doc:
            "Pareto frontier y-axis: $(b,sigma) (E(M) vs sigma_M) or $(b,slack) \
             (E(M) vs total slack — the slack-injecting variant quantifying the \
             paper's slack-conflicts-with-makespan trade).")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Robustness-aware stochastic schedule optimization: simulated \
          annealing / hill climbing over reassign, swap and priority-perturbation \
          moves, probed through the incremental evaluation engine. Prints heuristic \
          baselines, the Pareto frontier and the canonical $(b,anneal:...) spec that \
          replays the run; $(b,--out) writes frontier.csv, frontier.json and \
          summary.json. Exits 130 on SIGINT/SIGTERM with the partial frontier.")
    Term.(
      const
        (fun ctx kind n procs ul objective steps opt_seed restarts policy t0 alpha target
             window init mix max_cone delta gamma axis ->
          let spec =
            optimize_spec ~objective ~steps ~opt_seed ~restarts ~policy ~t0 ~alpha ~target
              ~window ~init ~mix ~max_cone ~delta ~gamma ~axis ~ul
          in
          let code = run_optimize ctx kind n procs ul spec in
          finalize ctx;
          if code <> 0 then Stdlib.exit code)
      $ ctx_term $ case_arg $ n_arg $ procs_arg $ ul_arg $ objective_arg $ steps_arg
      $ opt_seed_arg $ restarts_arg $ policy_arg $ t0_arg $ alpha_arg $ target_arg
      $ window_arg $ init_arg $ mix_arg $ max_cone_arg $ delta_arg $ gamma_arg
      $ frontier_arg)

let () =
  let cmds =
    [
      cmd "fig1" "Precision of the independence assumption vs graph size." run_fig1;
      cmd "fig2" "Calculated vs experimental makespan density." run_fig2;
      cmd "fig3" "Correlation matrix: Cholesky 10 tasks / 3 procs / UL 1.01."
        (run_fig_corr E.Fig_corr.fig3 "fig3");
      cmd "fig4" "Correlation matrix: random 30 tasks / 8 procs / UL 1.01."
        (run_fig_corr E.Fig_corr.fig4 "fig4");
      cmd "fig5" "Correlation matrix: Gaussian elimination 103 tasks / 16 procs / UL 1.1."
        (run_fig_corr E.Fig_corr.fig5 "fig5");
      cmd "fig6" "Mean/std Pearson matrix over the 24 paper cases (+ §VII in-text)."
        run_fig6;
      cmd "fig7" "Special multi-modal distribution vs matching normal." run_fig7;
      cmd "fig8" "CLT convergence of n-fold self-sums." run_fig8;
      cmd "fig9" "Slack vs robustness on a join graph." run_fig9;
      cmd "methods" "Classical/Dodin/Spelde accuracy against Monte Carlo." run_methods;
      cmd "ablation" "Extension: variable-UL correlation shift + RobustHEFT sweep."
        run_ablation;
      campaign_cmd;
      sched_cmd;
      optimize_cmd;
      cmd "all" "Every figure and in-text result in sequence." run_all;
      case_cmd "gantt" "Gantt charts of all heuristics on a chosen workload." run_gantt;
      case_cmd "dot" "Export a workload DAG as Graphviz." run_dot;
      case_cmd "bounds" "Kleindorfer-style bracket vs Monte Carlo on a random schedule."
        run_bounds;
      eval_cmd;
      serve_cmd;
      top_cmd;
      check_metrics_cmd;
    ]
  in
  let info =
    Cmd.info "repro" ~version:Service.Build_info.version
      ~doc:
        "Reproduction of Canon & Jeannot, 'A Comparison of Robustness Metrics for \
         Scheduling DAGs on Heterogeneous Systems' (HeteroPar/CLUSTER 2007)."
  in
  exit (Cmd.eval (Cmd.group info cmds))
