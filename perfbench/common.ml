(* Shared plumbing of the benchmark: clocks, order statistics, the
   metric catalogue, reference digests and the result line. *)

let now = Obs.Clock.now_s

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear-interpolation quantile of an unsorted sample, q in [0, 1]. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Int.min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  end

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  match Array.length xs with 0 -> 0. | n -> sum xs /. float_of_int n

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Run a set-up step [k] times and keep the last result; the reported
   set-up time is the median of the [k] timings, so one noisy repetition
   cannot move it. *)
let setup_median ?(dispose = ignore) ~k f =
  let times = Array.make k 0. in
  let last = ref None in
  for i = 0 to k - 1 do
    Option.iter dispose !last;
    let v, dt = time f in
    times.(i) <- dt;
    last := Some v
  done;
  (Option.get !last, median times)

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

let md5_file path = Digest.to_hex (Digest.file path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Scratch space for outputs, inside the checkout. *)
let work_root = ".perfbench/work"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir name =
  let dir = Filename.concat work_root name in
  rm_rf dir;
  Experiments.Export.mkdir_p dir;
  dir

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

(* End-to-end metrics: every workload reports each of them, with the
   workload's own unit of work (see NOTES.md). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("throughput_per_s", "1/s");
    ("latency_p99_ms", "ms");
  ]

let stages = [ "parse"; "decode"; "queue"; "batch"; "admit"; "eval"; "encode"; "write" ]

(* Per-layer metrics of the traced run. A layer the workload does not
   exercise reports 0. *)
let per_layer =
  [
    ("workloads.instantiate_ms", "ms");
    ("sched.random_ms", "ms");
    ("sched.heuristics_ms", "ms");
    ("sched.rebuild_us", "us");
    ("makespan.analyze_ms", "ms");
    ("makespan.analyze_ms.random30_p8", "ms");
    ("makespan.analyze_ms.cholesky10_p3", "ms");
    ("makespan.analyze_ms.gauss104_p16", "ms");
    ("makespan.analyze_kwords", "kwords");
    ("makespan.task_hit_ratio", "ratio");
    ("makespan.comm_hit_ratio", "ratio");
    ("makespan.probe_us", "us");
    ("makespan.full_eval_ms", "ms");
    ("makespan.cone_nodes_per_reeval", "count");
    ("makespan.incremental_share", "ratio");
    ("metrics.compute_us", "us");
    ("experiments.correlate_ms", "ms");
    ("experiments.export_ms", "ms");
    ("parallel.efficiency", "ratio");
    ("parallel.imbalance", "ratio");
    ("service.decode_us", "us");
    ("service.admit_ms", "ms");
    ("service.run_job_full_ms", "ms");
    ("service.run_job_neighbor_ms", "ms");
  ]
  @ List.concat_map
      (fun s ->
        [
          (Printf.sprintf "service.stage_%s_p50_ms" s, "ms");
          (Printf.sprintf "service.stage_%s_p99_ms" s, "ms");
        ])
      stages
  @ [
      ("service.batch_mean", "count");
      ("service.lru_miss_ratio", "ratio");
      ("obs.scrape_ms", "ms");
      ("obs.trace_overhead_pct", "%");
      ("search.accept_ratio", "ratio");
      ("search.kwords_per_step", "kwords");
      ("serve.generator_lag_ms", "ms");
      ("campaign_fig6.unattributed_ms", "ms");
      ("serve_mixed.unattributed_ms", "ms");
      ("anneal_search.unattributed_ms", "ms");
    ]

(* ------------------------------------------------------------------ *)
(* Outcome of one run                                                  *)
(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;  (** outputs checked *)
  failed : int;  (** failed, refused or wrong outputs *)
  values : (string * float) list;  (** metric name -> value *)
  detail : (string * Experiments.Json.t) list;  (** extra facts for the result file *)
}

(* The failure counter every workload threads through its checks. *)
type checks = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let checks () = { attempted = 0; failed = 0; notes = [] }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.notes < 10 then c.notes <- what :: c.notes;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let jnum f = Experiments.Json.Num (Experiments.Json.float_lit f)
let jint i = Experiments.Json.Num (string_of_int i)
let jstr s = Experiments.Json.Str s
let jfloats xs = Experiments.Json.Arr (List.map jnum (Array.to_list xs))

(* The result document: the last line the executable prints. Metrics
   are the catalogue selected by [trace], in catalogue order. *)
let result_json ~workload ~seed ~trace ~seconds (o : outcome) =
  let open Experiments.Json in
  let catalogue = if trace then per_layer else end_to_end in
  let metric (name, unit_) =
    let v = Option.value (List.assoc_opt name o.values) ~default:0. in
    let v = if Float.is_finite v then v else 0. in
    (name, Obj [ ("value", jnum v); ("unit", Str unit_) ])
  in
  to_string
    (Obj
       [
         ("workload", Str workload);
         ("seed", jint seed);
         ("trace", jint (if trace then 1 else 0));
         ("seconds", jint seconds);
         ("ocaml", Str Sys.ocaml_version);
         ("nproc", jint (Domain.recommended_domain_count ()));
         ("correct", Bool (o.failed = 0 && o.attempted > 0));
         ("attempted", jint o.attempted);
         ("failed", jint o.failed);
         ("metrics", Obj (List.map metric catalogue));
         ("detail", Obj o.detail);
       ])

(* ------------------------------------------------------------------ *)
(* Reference digests                                                   *)
(* ------------------------------------------------------------------ *)

let reference_file = "perfbench/reference.json"

(* The seed runs default to, and a second one held out for checking
   claims; both have stored reference outputs. *)
let default_seed = 1
let heldout_seed = 2

(* Every workload builds its graph instances from this fixed seed, so
   the cost of a run does not depend on which graphs its run seed would
   draw; the run seed varies only what a workload does on them. *)
let instance_seed = 1L

(* [reference workload] is the stored object of that workload. *)
let reference workload =
  match Experiments.Json.parse (read_file reference_file) with
  | Error e ->
    failwith
      (Printf.sprintf "%s: %s" reference_file (Experiments.Json.error_to_string e))
  | Ok j -> Experiments.Json.mem workload j

(* [seed_reference workload seed] is the stored object for that pair, if
   the seed is one of the recorded ones. *)
let seed_reference workload seed =
  Option.bind (reference workload) (Experiments.Json.mem (string_of_int seed))

let ref_string r key = Option.bind (Experiments.Json.mem key r) Experiments.Json.str
