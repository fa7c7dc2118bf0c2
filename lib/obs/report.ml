(* Combined telemetry report: the metrics registry, span summary and
   phase/GC reports as one JSON document (for `repro --metrics FILE`
   and the service's /metrics). Numbers are written at [%.10g]. *)

let num v = Json.Num (Json.float_lit ~fmt:"%.10g" v)
let int n = Json.Num (string_of_int n)

let hist_json (h : Metrics.hist_value) =
  Json.Obj
    [
      ("bounds", Json.Arr (List.map num (Array.to_list h.bounds)));
      ("counts", Json.Arr (List.map int (Array.to_list h.counts)));
      ("total", int h.total);
      ("sum", num h.sum);
    ]

let span_json (s : Span.stat) =
  Json.Obj
    [
      ("name", Json.Str s.Span.name);
      ("count", int s.Span.count);
      ("total_us", num s.Span.total_us);
      ("mean_us", num s.Span.mean_us);
      ("p50_us", num s.Span.p50_us);
      ("p99_us", num s.Span.p99_us);
    ]

let phase_json (p : Progress.phase_report) =
  Json.Obj
    [
      ("name", Json.Str p.Progress.phase);
      ("elapsed_s", num p.Progress.elapsed_s);
      ("minor_words", num p.Progress.minor_words);
      ("major_words", num p.Progress.major_words);
      ("promoted_words", num p.Progress.promoted_words);
      ("compactions", int p.Progress.compactions);
    ]

let json () =
  let s = Metrics.snapshot () in
  let fields f l = Json.Obj (List.map (fun (name, v) -> (name, f v)) l) in
  Json.Obj
    [
      ("counters", fields int s.Metrics.counters);
      ("gauges", fields num s.Metrics.gauges);
      ("histograms", fields hist_json s.Metrics.histograms);
      ("spans", Json.Arr (List.map span_json (Span.summary ())));
      ("phases", Json.Arr (List.map phase_json (Progress.phases ())));
    ]
