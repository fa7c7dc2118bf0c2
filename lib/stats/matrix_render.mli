(** Text rendering of labelled square matrices.

    Renders the paper's correlation matrices (Figs. 3–6) as aligned ASCII
    tables: either a plain matrix, or the paper's combined layout with one
    triangle holding means and the other standard deviations. *)

val render : labels:string array -> float array array -> string
(** [render ~labels m] renders [m] (square, same order as [labels]) with a
    header row and row labels. Cell format: ["%+.3f"], [nan] printed as
    ["  n/a "]. *)

val render_mean_std :
  labels:string array ->
  float array array ->
  float array array ->
  string
(** [render_mean_std ~labels mean std] is the paper's Fig. 6 layout:
    upper triangle = mean Pearson coefficient, lower triangle = standard
    deviation, diagonal = the metric label. *)

val to_csv : labels:string array -> float array array -> string
(** Comma-separated rendering with a header line. *)
