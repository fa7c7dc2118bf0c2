(* Live terminal view of a running evaluation service: polls
   [GET /metrics] (JSON form) and [GET /debug/requests], renders
   throughput, queue depth, engine-cache hit rate, a per-stage latency
   table and the most recent requests. Rates and stage quantiles are
   *deltas between polls* (bucket-count differences), so the display
   shows current behavior, not lifetime averages. *)

module Json = Obs.Json

type config = {
  host : string;
  port : int;
  interval_s : float;
  iterations : int option; (* None = until killed *)
  plain : bool; (* no ANSI clear — append frames (CI, pipes) *)
}

(* ------------------------------------------------------------------ *)
(* Scrape                                                              *)
(* ------------------------------------------------------------------ *)

type hist = { bounds : float array; counts : int array; total : int }

type sample = {
  at_s : float; (* monotonic, for rate deltas *)
  requests : int;
  jobs_done : int;
  jobs_failed : int;
  queue_depth : int;
  task_hits : int;
  task_misses : int;
  stages : (string * hist) list; (* stage label -> histogram *)
  request_hist : hist option;
}

let ints_of what j =
  Option.bind (Json.mem what j) Json.to_int |> Option.value ~default:0

let hist_of_json j =
  let floats name =
    match Option.bind (Json.mem name j) Json.list_ with
    | None -> None
    | Some l ->
      let vs = List.filter_map Json.to_float l in
      if List.length vs = List.length l then Some (Array.of_list vs) else None
  in
  let ints name =
    match Option.bind (Json.mem name j) Json.list_ with
    | None -> None
    | Some l ->
      let vs = List.filter_map Json.to_int l in
      if List.length vs = List.length l then Some (Array.of_list vs) else None
  in
  match (floats "bounds", ints "counts", Option.bind (Json.mem "total" j) Json.to_int) with
  | Some bounds, Some counts, Some total -> Some { bounds; counts; total }
  | _ -> None

let sample_of_metrics body =
  match Json.parse body with
  | Error _ -> None
  | Ok doc ->
    let service = Option.value (Json.mem "service" doc) ~default:Json.Null in
    let counters =
      Option.value (Option.bind (Json.mem "obs" doc) (Json.mem "counters")) ~default:Json.Null
    in
    let histograms =
      match Option.bind (Json.mem "obs" doc) (Json.mem "histograms") with
      | Some (Json.Obj fields) -> fields
      | _ -> []
    in
    (* A sharded server exposes one stage family per shard
       ([service.stage_seconds{stage="eval",shard="k"}]); top shows the
       service-wide view, so merge every shard's histogram of a stage
       into one (bounds are the shared latency buckets). *)
    let merge a b =
      if Array.length a.counts <> Array.length b.counts then a
      else
        {
          bounds = a.bounds;
          counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
          total = a.total + b.total;
        }
    in
    let stages =
      List.fold_left
        (fun acc (name, j) ->
          match Obs.Openmetrics.split_name name with
          | "service.stage_seconds", (("stage", stage) :: _) -> (
            match hist_of_json j with
            | None -> acc
            | Some h -> (
              match List.assoc_opt stage acc with
              | None -> acc @ [ (stage, h) ]
              | Some prev ->
                List.map
                  (fun (s, v) -> if String.equal s stage then (s, merge prev h) else (s, v))
                  acc))
          | _ -> acc)
        [] histograms
    in
    let request_hist =
      Option.bind (List.assoc_opt "service.request_seconds" histograms) hist_of_json
    in
    Some
      {
        at_s = Obs.Clock.now_s ();
        requests = ints_of "requests" service;
        jobs_done = ints_of "jobs_done" service;
        jobs_failed = ints_of "jobs_failed" service;
        queue_depth = ints_of "queue_depth" service;
        task_hits = ints_of "engine.task_hits" counters;
        task_misses = ints_of "engine.task_misses" counters;
        stages;
        request_hist;
      }

type req_row = {
  r_trace : string;
  r_meth : string;
  r_path : string;
  r_status : int;
  r_ms : float;
  r_cache : string;
}

let rows_of_debug body =
  match Json.parse body with
  | Error _ -> []
  | Ok doc -> (
    match Option.bind (Json.mem "requests" doc) Json.list_ with
    | None -> []
    | Some l ->
      List.filter_map
        (fun j ->
          let str name = Option.bind (Json.mem name j) Json.str in
          match (str "trace_id", str "method", str "path") with
          | Some r_trace, Some r_meth, Some r_path ->
            Some
              {
                r_trace;
                r_meth;
                r_path;
                r_status = ints_of "status" j;
                r_ms =
                  Option.bind (Json.mem "duration_ms" j) Json.to_float
                  |> Option.value ~default:nan;
                r_cache = Option.value (str "engine_cache") ~default:"-";
              }
          | _ -> None)
        l)

(* ------------------------------------------------------------------ *)
(* Delta quantiles                                                     *)
(* ------------------------------------------------------------------ *)

(* Quantile over the *difference* of two cumulative scrapes: what
   happened since the previous frame. Interpolates inside the winning
   bucket; the overflow bucket is pinned at the last bound. *)
let delta_quantile ~prev ~cur q =
  let n = Array.length cur.counts in
  let d =
    Array.init n (fun i ->
        let p =
          match prev with
          | Some p when Array.length p.counts = n -> p.counts.(i)
          | _ -> 0
        in
        Int.max 0 (cur.counts.(i) - p))
  in
  let total = Array.fold_left ( + ) 0 d in
  if total = 0 then nan
  else begin
    let rank = q *. float_of_int total in
    let rec walk i seen =
      if i >= n then Float.of_int n
      else
        let seen' = seen + d.(i) in
        if float_of_int seen' >= rank then
          let lo = if i = 0 then 0. else cur.bounds.(i - 1) in
          let hi = if i < Array.length cur.bounds then cur.bounds.(i)
                   else cur.bounds.(Array.length cur.bounds - 1) in
          let inside =
            if d.(i) = 0 then 0.
            else (rank -. float_of_int seen) /. float_of_int d.(i)
          in
          lo +. ((hi -. lo) *. Float.max 0. (Float.min 1. inside))
        else walk (i + 1) seen'
    in
    walk 0 0
  end

let delta_count ~prev ~cur =
  match prev with
  | Some p when Array.length p.counts = Array.length cur.counts ->
    Int.max 0 (cur.total - p.total)
  | _ -> cur.total

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let fmt_seconds s =
  if Float.is_nan s then "      -"
  else if s < 1e-3 then Printf.sprintf "%5.1fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%5.2fms" (s *. 1e3)
  else Printf.sprintf "%6.2fs" s

(* canonical request-lifecycle order; unknown stages sort after, alphabetically *)
let stage_order =
  [ "parse"; "decode"; "queue"; "batch"; "admit"; "eval"; "encode"; "write" ]

let stage_rank s =
  let rec go i = function
    | [] -> (List.length stage_order, s)
    | x :: _ when String.equal x s -> (i, s)
    | _ :: tl -> go (i + 1) tl
  in
  go 0 stage_order

let render ~host ~port ~(prev : sample option) (cur : sample) rows =
  let buf = Buffer.create 2048 in
  let dt =
    match prev with
    | Some p when cur.at_s > p.at_s -> cur.at_s -. p.at_s
    | _ -> nan
  in
  let rate get =
    match prev with
    | Some p when Float.is_finite dt && dt > 0. ->
      float_of_int (get cur - get p) /. dt
    | _ -> nan
  in
  let rps = rate (fun s -> s.requests) in
  let jps = rate (fun s -> s.jobs_done) in
  let hit_rate =
    let h, m =
      match prev with
      | Some p -> (cur.task_hits - p.task_hits, cur.task_misses - p.task_misses)
      | None -> (cur.task_hits, cur.task_misses)
    in
    if h + m <= 0 then nan else float_of_int h /. float_of_int (h + m)
  in
  let fmt_rate r = if Float.is_nan r then "-" else Printf.sprintf "%.1f/s" r in
  Buffer.add_string buf
    (Printf.sprintf "repro top — %s:%d\n" host port);
  Buffer.add_string buf
    (Printf.sprintf
       "requests %s   jobs %s   queue %d   cache-hit %s   failed %d\n\n"
       (fmt_rate rps) (fmt_rate jps) cur.queue_depth
       (if Float.is_nan hit_rate then "-" else Printf.sprintf "%.0f%%" (hit_rate *. 100.))
       cur.jobs_failed);
  let stages =
    List.sort
      (fun (a, _) (b, _) -> compare (stage_rank a) (stage_rank b))
      cur.stages
  in
  if stages <> [] then begin
    Buffer.add_string buf "stage       count      p50      p99\n";
    List.iter
      (fun (stage, cur_h) ->
        let prev_h =
          Option.bind prev (fun p -> List.assoc_opt stage p.stages)
        in
        Buffer.add_string buf
          (Printf.sprintf "%-9s %7d  %s  %s\n" stage
             (delta_count ~prev:prev_h ~cur:cur_h)
             (fmt_seconds (delta_quantile ~prev:prev_h ~cur:cur_h 0.50))
             (fmt_seconds (delta_quantile ~prev:prev_h ~cur:cur_h 0.99))))
      stages;
    (match cur.request_hist with
    | None -> ()
    | Some cur_h ->
      let prev_h = Option.bind prev (fun p -> p.request_hist) in
      Buffer.add_string buf
        (Printf.sprintf "%-9s %7d  %s  %s\n" "job" (delta_count ~prev:prev_h ~cur:cur_h)
           (fmt_seconds (delta_quantile ~prev:prev_h ~cur:cur_h 0.50))
           (fmt_seconds (delta_quantile ~prev:prev_h ~cur:cur_h 0.99))));
    Buffer.add_char buf '\n'
  end;
  if rows <> [] then begin
    Buffer.add_string buf "recent requests\n";
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "  %-16s %-4s %-18s %3d %9.2fms %s\n"
             (if String.length r.r_trace > 16 then String.sub r.r_trace 0 16
              else r.r_trace)
             r.r_meth
             (if String.length r.r_path > 18 then String.sub r.r_path 0 18
              else r.r_path)
             r.r_status r.r_ms r.r_cache))
      rows
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Loop                                                                *)
(* ------------------------------------------------------------------ *)

let scrape client =
  match Client.get client "/metrics" with
  | Ok resp when resp.Http.status = 200 -> (
    match sample_of_metrics resp.Http.body with
    | Some s ->
      let rows =
        match Client.get client "/debug/requests?limit=8" with
        | Ok r when r.Http.status = 200 -> rows_of_debug r.Http.body
        | _ -> []
      in
      Ok (s, rows)
    | None -> Error "unparsable /metrics document")
  | Ok resp -> Error (Printf.sprintf "/metrics: HTTP %d" resp.Http.status)
  | Error e -> Error ("/metrics: " ^ Http.error_to_string e)

let run config =
  let client = Client.connect ~host:config.host ~port:config.port () in
  let finally () = Client.close client in
  let clear = "\027[2J\027[H" in
  let rec loop prev remaining =
    if remaining = Some 0 then Ok ()
    else
      match scrape client with
      | Error _ as e -> e
      | Ok (cur, rows) ->
        let frame = render ~host:config.host ~port:config.port ~prev cur rows in
        if config.plain then print_string frame
        else begin
          print_string clear;
          print_string frame
        end;
        flush stdout;
        let remaining = Option.map (fun n -> n - 1) remaining in
        if remaining = Some 0 then Ok ()
        else begin
          Unix.sleepf (Float.max 0.05 config.interval_s);
          loop (Some cur) remaining
        end
  in
  Fun.protect ~finally (fun () -> loop None config.iterations)
