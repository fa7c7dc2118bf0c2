(* Combined telemetry report: the metrics registry, span summary and
   phase/GC reports as one JSON document (for `repro --metrics FILE`)
   or one human-readable text block. Hand-rolled JSON, as everywhere in
   this repo — no JSON dependency. *)

let escape = Span.json_escape

let float_json v =
  if Float.is_finite v then Printf.sprintf "%.10g" v else "null"

let hist_json (h : Metrics.hist_value) =
  Printf.sprintf "{\"bounds\":[%s],\"counts\":[%s],\"total\":%d,\"sum\":%s}"
    (String.concat "," (List.map float_json (Array.to_list h.bounds)))
    (String.concat "," (List.map string_of_int (Array.to_list h.counts)))
    h.total (float_json h.sum)

let span_json (s : Span.stat) =
  Printf.sprintf
    "{\"name\":\"%s\",\"count\":%d,\"total_us\":%s,\"mean_us\":%s,\"p50_us\":%s,\"p99_us\":%s}"
    (escape s.Span.name) s.Span.count (float_json s.Span.total_us)
    (float_json s.Span.mean_us) (float_json s.Span.p50_us) (float_json s.Span.p99_us)

let phase_json (p : Progress.phase_report) =
  Printf.sprintf
    "{\"name\":\"%s\",\"elapsed_s\":%s,\"minor_words\":%s,\"major_words\":%s,\"promoted_words\":%s,\"compactions\":%d}"
    (escape p.Progress.phase)
    (float_json p.Progress.elapsed_s)
    (float_json p.Progress.minor_words)
    (float_json p.Progress.major_words)
    (float_json p.Progress.promoted_words)
    p.Progress.compactions

let fields to_row l =
  String.concat "," (List.map to_row l)

let json () =
  let s = Metrics.snapshot () in
  let counters =
    fields (fun (name, v) -> Printf.sprintf "\"%s\":%d" (escape name) v) s.Metrics.counters
  in
  let gauges =
    fields
      (fun (name, v) -> Printf.sprintf "\"%s\":%s" (escape name) (float_json v))
      s.Metrics.gauges
  in
  let histograms =
    fields
      (fun (name, h) -> Printf.sprintf "\"%s\":%s" (escape name) (hist_json h))
      s.Metrics.histograms
  in
  let spans = fields span_json (Span.summary ()) in
  let phases = fields phase_json (Progress.phases ()) in
  Printf.sprintf
    "{\n\
     \"counters\":{%s},\n\
     \"gauges\":{%s},\n\
     \"histograms\":{%s},\n\
     \"spans\":[%s],\n\
     \"phases\":[%s]\n\
     }\n"
    counters gauges histograms spans phases
