(* Sweep progress (rate/ETA to stderr) and phase reports with GC
   deltas. Ticks come from many domains: the count is one atomic
   fetch-and-add, printing is throttled through a compare-and-set on the
   last-print timestamp so only one domain wins each refresh. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type t = {
  label : string;
  total : int;
  ticks : int Atomic.t;
  started : float; (* seconds *)
  last_print : float Atomic.t;
}

(* refresh period of the progress line, seconds *)
let every = 0.5

let create ~total label =
  {
    label;
    total;
    ticks = Atomic.make 0;
    started = Unix.gettimeofday ();
    last_print = Atomic.make 0.;
  }

let print_line t ~final =
  let done_ = Atomic.get t.ticks in
  let elapsed = Unix.gettimeofday () -. t.started in
  let rate = if elapsed > 0. then float_of_int done_ /. elapsed else 0. in
  let eta =
    if rate > 0. && t.total > done_ then float_of_int (t.total - done_) /. rate else 0.
  in
  let pct = if t.total > 0 then 100. *. float_of_int done_ /. float_of_int t.total else 0. in
  Printf.eprintf "\r[obs] %s: %d/%d (%.0f%%)  %.1f/s  elapsed %.1fs  ETA %.1fs   %s"
    t.label done_ t.total pct rate elapsed eta
    (if final then "\n" else "");
  flush stderr

let tick ?(n = 1) t =
  if Atomic.get enabled_flag then begin
    ignore (Atomic.fetch_and_add t.ticks n);
    let now = Unix.gettimeofday () in
    let last = Atomic.get t.last_print in
    if now -. last >= every && Atomic.compare_and_set t.last_print last now then
      print_line t ~final:false
  end

let finish t = if Atomic.get enabled_flag then print_line t ~final:true

(* ------------------------------------------------------------------ *)
(* Phases with GC snapshots                                            *)
(* ------------------------------------------------------------------ *)

type phase_report = {
  phase : string;
  elapsed_s : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  compactions : int;
}

let reports_lock = Mutex.create ()
let reports : phase_report list ref = ref []
let phases () = Mutex.protect reports_lock (fun () -> List.rev !reports)
let reset_phases () = Mutex.protect reports_lock (fun () -> reports := [])

let phase name f =
  if not (Atomic.get enabled_flag || Span.enabled () || Metrics.enabled ()) then f ()
  else begin
    let g0 = Gc.quick_stat () in
    (* quick_stat.minor_words lags until the next minor collection;
       Gc.minor_words reads the allocation pointer exactly *)
    let mw0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let elapsed_s = Unix.gettimeofday () -. t0 in
      let g1 = Gc.quick_stat () in
      let r =
        {
          phase = name;
          elapsed_s;
          minor_words = Gc.minor_words () -. mw0;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
          promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          compactions = g1.Gc.compactions - g0.Gc.compactions;
        }
      in
      Mutex.protect reports_lock (fun () -> reports := r :: !reports);
      if Atomic.get enabled_flag then begin
        Printf.eprintf "[obs] phase %s: %.2fs (minor %.3g w, major %.3g w, %d compactions)\n"
          name elapsed_s r.minor_words r.major_words r.compactions;
        flush stderr
      end
    in
    match Span.with_ ~name f with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end
