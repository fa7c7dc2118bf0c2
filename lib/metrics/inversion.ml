(* indices in Robustness.labels order *)
let idx_avg_slack = 3
let idx_abs_prob = 6
let idx_rel_prob = 7

let apply ~max_slack values =
  if Array.length values <> Robustness.n_metrics then
    invalid_arg "Inversion.apply: wrong metric vector length";
  Array.mapi
    (fun i v ->
      if i = idx_avg_slack then max_slack -. v
      else if i = idx_abs_prob || i = idx_rel_prob then 1. -. v
      else v)
    values

let apply_all rows =
  if Array.length rows = 0 then invalid_arg "Inversion.apply_all: no schedules";
  let max_slack =
    Array.fold_left (fun acc row -> Float.max acc row.(idx_avg_slack)) neg_infinity rows
  in
  Array.map (apply ~max_slack) rows
