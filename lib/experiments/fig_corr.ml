type spec = {
  fig : string;
  case : Case.t;
}

let fig3 =
  {
    fig = "Fig. 3";
    case =
      Case.make ~id:"fig3-cholesky10" ~kind:Case.Cholesky ~n_target:10 ~n_procs:3 ~ul:1.01
        ();
  }

let fig4 =
  {
    fig = "Fig. 4";
    case =
      Case.make ~id:"fig4-random30" ~kind:Case.Random_graph ~n_target:30 ~n_procs:8
        ~ul:1.01 ();
  }

let fig5 =
  {
    fig = "Fig. 5";
    case =
      Case.make ~id:"fig5-gauss103" ~kind:Case.Gauss_elim ~n_target:103 ~n_procs:16 ~ul:1.1
        ~paper_schedules:2000 ();
  }

type t = {
  spec : spec;
  result : Runner.result;
  matrix : float array array;
}

let run ?pool ?scale spec =
  let result = Runner.run ?pool ?scale spec.case in
  { spec; result; matrix = Correlate.of_result result }

let heuristic_rank t ~metric name =
  let rows = Runner.random_rows t.result in
  let inverted = Metrics.Inversion.apply_all t.result.Runner.rows in
  (* locate the heuristic's inverted value *)
  let h_value = ref Float.nan in
  Array.iteri
    (fun i src ->
      match src with
      | Runner.Heuristic n when n = name -> h_value := inverted.(i).(metric)
      | _ -> ())
    t.result.Runner.sources;
  if Float.is_nan !h_value then invalid_arg "Fig_corr.heuristic_rank: unknown heuristic";
  let better = ref 0 in
  Array.iteri
    (fun i src ->
      match src with
      | Runner.Random _ -> if inverted.(i).(metric) < !h_value then incr better
      | _ -> ())
    t.result.Runner.sources;
  (* rank within {heuristic} ∪ randoms *)
  (!better + 1, Array.length rows + 1)

let render t =
  let labels = Metrics.Robustness.labels in
  let case = t.spec.case in
  let n_random = Array.length (Runner.random_rows t.result) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "%s — metric correlations: %s (%d tasks requested, %d procs, UL = %g)\n\
        %d random schedules + heuristics; Pearson over inverted metrics\n\
        (paper shape: mk-std/entropy/lateness/abs-prob cluster near +1;\n\
        avg-slack anti-correlates with makespan)\n\n"
       t.spec.fig (Case.kind_name case.Case.kind) case.Case.n_target case.Case.n_procs
       case.Case.ul n_random);
  Buffer.add_string buf (Stats.Matrix_render.render ~labels t.matrix);
  Buffer.add_string buf "\nHeuristic schedules (raw metric values, rank among random):\n";
  let headers = "heuristic" :: Array.to_list labels in
  let rows =
    List.map
      (fun (name, row) ->
        name
        :: List.init (Array.length row) (fun j ->
               let rank, pop = heuristic_rank t ~metric:j name in
               Printf.sprintf "%s (#%d/%d)" (Render.cell row.(j)) rank pop))
      (Runner.heuristic_rows t.result)
  in
  Buffer.add_string buf (Render.table ~title:"" ~headers ~rows);
  Buffer.contents buf
