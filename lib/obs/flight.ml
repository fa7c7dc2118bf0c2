(* Always-on flight recorder: the last [capacity] served requests, with
   per-stage timings, kept cheap enough for production.

   Memory model (documented in DESIGN §14): one [record] per request is
   created by the connection domain and mutated across the conn/worker
   domain hop. The scalar fields (status, bytes, cache) are plain
   mutable stores — each is written by exactly one domain at a time
   (conn until submit, worker during eval, conn again for write/finish),
   and readers ( /debug/requests ) tolerate a racy-but-unturn view
   because OCaml word stores are atomic. The [stages] list is the one
   genuinely concurrent field (conn and worker both push), so it is an
   immutable list behind an [Atomic.t] with CAS push. The ring itself
   is an option array plus a fetch-and-add cursor: publication is one
   atomic increment and one pointer store, no lock, so two domains
   finishing simultaneously write distinct slots.

   Unlike Metrics/Span this module is NOT gated on the sinks flag: the
   server always records flights (that is the point of a flight
   recorder). The cost per request is one small record, ≤ max_stages
   conses and a handful of clock reads — amortized over an HTTP round
   trip, not per-schedule work. [timed] with no record and sinks off
   stays allocation-free. *)

type cache_status = Hit | Miss | Unknown

type stage = {
  stage : string;
  t0_us : float; (* monotonic, Clock.now_us *)
  t1_us : float;
}

type record = {
  seq : int; (* per-process request ordinal; Chrome tid *)
  mutable trace_id : string;
  mutable meth : string;
  mutable path : string;
  started_wall_s : float; (* Unix time, display only *)
  t_start_us : float; (* monotonic *)
  mutable t_end_us : float; (* 0 until finished *)
  mutable queued_us : float; (* 0 unless the job entered the queue *)
  mutable status : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable cache : cache_status;
  stages : stage list Atomic.t; (* newest first *)
}

let max_stages = 32
let next_seq = Atomic.make 0

let create ?trace_id ?started_wall_s ~meth ~path () =
  let trace_id =
    match trace_id with Some id -> id | None -> (Trace.mint ()).Trace.trace_id
  in
  {
    seq = Atomic.fetch_and_add next_seq 1;
    trace_id;
    meth;
    path;
    started_wall_s =
      (match started_wall_s with Some s -> s | None -> Unix.gettimeofday ());
    t_start_us = Clock.now_us ();
    t_end_us = 0.;
    queued_us = 0.;
    status = 0;
    bytes_in = 0;
    bytes_out = 0;
    cache = Unknown;
    stages = Atomic.make [];
  }

let mark_queued r = r.queued_us <- Clock.now_us ()
let set_cache r c = r.cache <- c

let add_stage r ~stage t0_us t1_us =
  let s = { stage; t0_us; t1_us } in
  let rec push () =
    let cur = Atomic.get r.stages in
    if List.length cur >= max_stages then ()
    else if not (Atomic.compare_and_set r.stages cur (s :: cur)) then push ()
  in
  push ()

(* ------------------------------------------------------------------ *)
(* Per-stage latency histograms (+ trace-id exemplars)                  *)
(* ------------------------------------------------------------------ *)

(* Registered lazily per (stage, shard) under the OpenMetrics label
   convention: one family [service.stage_seconds] with a [stage] label
   (plus a [shard] label for stages executed on a sharded worker
   domain), parsed back out by Obs.Openmetrics. The [stage] label comes
   first so scrapers grepping [{stage="eval"] keep matching whether or
   not a shard label follows. *)
let hist_lock = Mutex.create ()
let hists : (string, Metrics.histogram) Hashtbl.t = Hashtbl.create 16

let stage_hist ?shard stage =
  let name =
    match shard with
    | None -> Printf.sprintf "service.stage_seconds{stage=%S}" stage
    | Some k -> Printf.sprintf "service.stage_seconds{stage=%S,shard=\"%d\"}" stage k
  in
  Mutex.protect hist_lock (fun () ->
      match Hashtbl.find_opt hists name with
      | Some h -> h
      | None ->
        let h = Metrics.histogram ~buckets:Metrics.latency_buckets name in
        Hashtbl.add hists name h;
        h)

let record_stage ?shard record ~stage t0_us t1_us =
  (match record with None -> () | Some r -> add_stage r ~stage t0_us t1_us);
  if Metrics.enabled () then
    Metrics.observe_ex
      (stage_hist ?shard stage)
      ?exemplar:(match record with Some r -> Some r.trace_id | None -> None)
      ((t1_us -. t0_us) *. 1e-6)

let timed ?record ?shard ~stage f =
  match record with
  | None when not (Metrics.enabled ()) -> f () (* two loads, no allocation *)
  | _ -> (
    let t0 = Clock.now_us () in
    match f () with
    | v ->
      record_stage ?shard record ~stage t0 (Clock.now_us ());
      v
    | exception e ->
      record_stage ?shard record ~stage t0 (Clock.now_us ());
      raise e)

(* ------------------------------------------------------------------ *)
(* The ring                                                            *)
(* ------------------------------------------------------------------ *)

let capacity = 256
let ring : record option array = Array.make capacity None
let cursor = Atomic.make 0 (* total records ever published *)

let total () = Atomic.get cursor

let publish r =
  let i = Atomic.fetch_and_add cursor 1 in
  ring.(i mod capacity) <- Some r

let duration_ms r =
  let e = if r.t_end_us > 0. then r.t_end_us else Clock.now_us () in
  (e -. r.t_start_us) /. 1e3

let finish ?slow_ms r ~status =
  r.t_end_us <- Clock.now_us ();
  r.status <- status;
  publish r;
  match slow_ms with
  | Some ms when duration_ms r >= ms ->
    let stages =
      Atomic.get r.stages |> List.rev_map (fun s -> s.stage) |> String.concat ","
    in
    Printf.eprintf "[slow] %s %s -> %d in %.1f ms (trace=%s stages=%s)\n%!" r.meth
      r.path status (duration_ms r) r.trace_id stages
  | _ -> ()

let recent ?(limit = capacity) () =
  let upper = Atomic.get cursor in
  let lower = Int.max 0 (upper - capacity) in
  let rec collect i acc n =
    if i < lower || n >= limit then List.rev acc
    else
      match ring.(i mod capacity) with
      | None -> List.rev acc
      | Some r -> collect (i - 1) (r :: acc) (n + 1)
  in
  List.rev (collect (upper - 1) [] 0)

let reset () =
  Atomic.set cursor 0;
  Array.fill ring 0 capacity None

(* ------------------------------------------------------------------ *)
(* Rendering (/debug/requests)                                         *)
(* ------------------------------------------------------------------ *)

let cache_name = function Hit -> "hit" | Miss -> "miss" | Unknown -> "unknown"

let sorted_stages r =
  List.sort (fun a b -> Float.compare a.t0_us b.t0_us) (Atomic.get r.stages)

let num fmt v = Json.Num (Json.float_lit ~fmt v)
let int n = Json.Num (string_of_int n)

let record_json r =
  Json.Obj
    [
      ("trace_id", Json.Str r.trace_id);
      ("method", Json.Str r.meth);
      ("path", Json.Str r.path);
      ("status", int r.status);
      ("start_unix_s", num "%.6f" r.started_wall_s);
      ("duration_ms", num "%.3f" (duration_ms r));
      ("bytes_in", int r.bytes_in);
      ("bytes_out", int r.bytes_out);
      ("engine_cache", Json.Str (cache_name r.cache));
      ( "stages",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.stage);
                   ("start_us", num "%.1f" (s.t0_us -. r.t_start_us));
                   ("duration_us", num "%.1f" (s.t1_us -. s.t0_us));
                 ])
             (sorted_stages r)) );
    ]

let json ?limit () =
  Json.to_string
    (Json.Obj
       [
         ("total", int (total ()));
         ("capacity", int capacity);
         ("requests", Json.Arr (List.map record_json (recent ?limit ())));
       ])
  ^ "\n"

(* Chrome trace_event export: one "X" (complete) event per stage plus
   an enclosing request event, tid = request ordinal so each request is
   its own row; args carry the trace id, which is what links the tree. *)
let chrome ?limit ?trace_id () =
  let rs = recent ?limit () in
  let rs =
    match trace_id with
    | None -> rs
    | Some id -> List.filter (fun r -> String.equal r.trace_id id) rs
  in
  Span.chrome_document
    (List.concat_map
       (fun r ->
         let tid = r.seq land 0x3fffffff in
         let t_end = if r.t_end_us > 0. then r.t_end_us else Clock.now_us () in
         let trace_id = ("trace_id", Json.Str r.trace_id) in
         let event ~name ~ts ~dur ~args =
           { Span.name; cat = "request"; ph = `X dur; tid; ts; args }
         in
         event
           ~name:(Printf.sprintf "%s %s" r.meth r.path)
           ~ts:r.t_start_us
           ~dur:(t_end -. r.t_start_us)
           ~args:
             [ trace_id; ("status", int r.status);
               ("engine_cache", Json.Str (cache_name r.cache)) ]
         :: List.map
              (fun s -> event ~name:s.stage ~ts:s.t0_us ~dur:(s.t1_us -. s.t0_us) ~args:[ trace_id ])
              (sorted_stages r))
       rs)
