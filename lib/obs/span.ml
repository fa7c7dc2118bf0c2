(* Span tracing into per-domain ring buffers.

   [with_ ~name f] records one (name, begin, end) triple per call into
   the calling domain's buffer — three array stores, no allocation once
   the buffer exists. Buffers are fixed-capacity rings: a long sweep
   overwrites its oldest spans and reports how many were dropped, so
   tracing never grows without bound. Export renders Chrome trace_event
   JSON (loadable in chrome://tracing or Perfetto) or a per-name summary
   table (count, total, mean, p50/p99). *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let capacity = 8192 (* spans per domain; power of two *)

type buf = {
  tid : int; (* domain id, the trace's thread id *)
  names : string array;
  begins : float array; (* µs *)
  ends : float array; (* µs *)
  mutable len : int; (* total ever recorded; wraps over [capacity] *)
}

let bufs_lock = Mutex.create ()
let bufs : buf list ref = ref []

let buf_key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = (Domain.self () :> int);
          names = Array.make capacity "";
          begins = Array.make capacity 0.;
          ends = Array.make capacity 0.;
          len = 0;
        }
      in
      Mutex.protect bufs_lock (fun () -> bufs := b :: !bufs);
      b)

(* Monotonic: spans survive NTP steps (a wall-clock correction mid-span
   used to produce negative or hours-long durations). *)
let now_us = Clock.now_us

let record name t0 t1 =
  let b = Domain.DLS.get buf_key in
  let i = b.len land (capacity - 1) in
  b.names.(i) <- name;
  b.begins.(i) <- t0;
  b.ends.(i) <- t1;
  b.len <- b.len + 1

let with_ ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_us () in
    match f () with
    | v ->
      record name t0 (now_us ());
      v
    | exception e ->
      record name t0 (now_us ());
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Reading the buffers                                                 *)
(* ------------------------------------------------------------------ *)

(* (name, begin_us, end_us, tid), unordered *)
let records () =
  let bufs = Mutex.protect bufs_lock (fun () -> !bufs) in
  List.concat_map
    (fun b ->
      let n = Int.min b.len capacity in
      List.init n (fun i -> (b.names.(i), b.begins.(i), b.ends.(i), b.tid)))
    bufs

let dropped () =
  let bufs = Mutex.protect bufs_lock (fun () -> !bufs) in
  List.fold_left (fun acc b -> acc + Int.max 0 (b.len - capacity)) 0 bufs

let reset () =
  Mutex.protect bufs_lock (fun () -> List.iter (fun b -> b.len <- 0) !bufs)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

type event = {
  ts : float;
  is_begin : bool;
  dur : float; (* of the owning span; orders ties into proper nesting *)
  span_begin : float;
  ev_name : string;
  ev_tid : int;
}

(* Sort so B/E events nest even under timestamp ties: earlier first;
   at equal ts an E closes before a B opens (touching spans), a longer
   span opens before a shorter one, and a later-opened span closes
   first. *)
let compare_events a b =
  match Float.compare a.ts b.ts with
  | 0 -> (
    match (a.is_begin, b.is_begin) with
    | false, true -> -1
    | true, false -> 1
    | true, true -> Float.compare b.dur a.dur
    | false, false -> Float.compare b.span_begin a.span_begin)
  | c -> c

type chrome_event = {
  name : string;
  cat : string;
  ph : [ `B | `E | `X of float ];
  tid : int;
  ts : float;
  args : (string * Json.t) list;
}

let us v = Json.Num (Json.float_lit ~fmt:"%.3f" v)

let chrome_event_json e =
  Json.Obj
    ([
       ("name", Json.Str e.name);
       ("cat", Json.Str e.cat);
       ("ph", Json.Str (match e.ph with `B -> "B" | `E -> "E" | `X _ -> "X"));
       ("pid", Json.Num "0");
       ("tid", Json.Num (string_of_int e.tid));
       ("ts", us e.ts);
     ]
    @ (match e.ph with `X dur -> [ ("dur", us dur) ] | `B | `E -> [])
    @ if e.args = [] then [] else [ ("args", Json.Obj e.args) ])

(* [fields] go between the display unit and the events *)
let chrome_document_with fields events =
  Json.to_string
    (Json.Obj
       ((("displayTimeUnit", Json.Str "ms") :: fields)
       @ [ ("traceEvents", Json.Arr (List.map chrome_event_json events)) ]))
  ^ "\n"

let chrome_document events = chrome_document_with [] events

let export_chrome () =
  let events =
    List.concat_map
      (fun (name, t0, t1, tid) ->
        let dur = t1 -. t0 in
        [
          { ts = t0; is_begin = true; dur; span_begin = t0; ev_name = name; ev_tid = tid };
          { ts = t1; is_begin = false; dur; span_begin = t0; ev_name = name; ev_tid = tid };
        ])
      (records ())
  in
  chrome_document_with
    [ ("dropped", Json.Num (string_of_int (dropped ()))) ]
    (List.map
       (fun e ->
         {
           name = e.ev_name;
           cat = "obs";
           ph = (if e.is_begin then `B else `E);
           tid = e.ev_tid;
           ts = e.ts;
           args = [];
         })
       (List.sort compare_events events))

(* ------------------------------------------------------------------ *)
(* Summary table                                                       *)
(* ------------------------------------------------------------------ *)

type stat = {
  name : string;
  count : int;
  total_us : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(Int.min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let summary () =
  let tbl : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, t0, t1, _) ->
      let durs =
        match Hashtbl.find_opt tbl name with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.add tbl name r;
          r
      in
      durs := (t1 -. t0) :: !durs)
    (records ());
  Hashtbl.fold
    (fun name durs acc ->
      let a = Array.of_list !durs in
      Array.sort Float.compare a;
      let total = Array.fold_left ( +. ) 0. a in
      let n = Array.length a in
      {
        name;
        count = n;
        total_us = total;
        mean_us = total /. float_of_int n;
        p50_us = percentile a 0.5;
        p99_us = percentile a 0.99;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.name b.name)
