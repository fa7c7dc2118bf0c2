type t = {
  results : Runner.result list;
  matrices : float array array list;
  mean : float array array;
  std : float array array;
}

let run ?pool ?scale ?(cases = Case.paper_cases ()) () =
  if cases = [] then invalid_arg "Fig6.run: no cases";
  let results = List.map (Runner.run ?pool ?scale) cases in
  let matrices = List.map Correlate.of_result results in
  let mean, std = Correlate.mean_std matrices in
  { results; matrices; mean; std }

let render t =
  Printf.sprintf
    "Fig. 6 — Pearson coefficients over %d cases (upper: mean, lower: std dev)\n\
     (paper shape: mk-std/entropy/lateness/abs-prob ≈ +0.98..1.0 with std ≤ 0.03;\n\
     makespan vs cluster ≈ +0.75; avg-slack negative vs makespan ≈ −0.4)\n\n%s"
    (List.length t.results)
    (Stats.Matrix_render.render_mean_std ~labels:Metrics.Robustness.labels t.mean t.std)
