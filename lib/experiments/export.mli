(** CSV (and gnuplot) export of experiment results, so figures can be
    re-plotted outside the terminal. [`repro --out DIR`] writes these
    next to the rendered text. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; an already-existing
    directory (including one created concurrently) is not an error. *)

val write_file : dir:string -> name:string -> string -> string
(** [write_file ~dir ~name content] creates [dir] (and parents) if
    needed, then {e atomically} publishes [dir/name]: the content is
    written to a process-unique temp file, fsynced and renamed into
    place, so a crash or kill at any instant leaves either the previous
    file intact or the new one complete — never a truncation. Returns
    the path. Carries the ["campaign.write"] {!Fault} probe between
    write and fsync. *)

val fig1_csv : Fig1.t -> string
val fig2_csv : Fig2.t -> string

val fig_corr_csv : Fig_corr.t -> string
(** The correlation matrix (CSV), followed by one commented line per
    heuristic with its raw metric vector. *)

val schedules_csv : Runner.result -> string
(** The full per-schedule dataset of a run: one row per schedule (random
    and heuristic), raw metric values in {!Metrics.Robustness.labels}
    order plus a [source] column — the paper's scatter-matrix input. *)

val fig6_csv : Fig6.t -> string
(** Mean matrix then std matrix. *)

val fig7_csv : Fig7.t -> string
val fig8_csv : Fig8.t -> string
val fig9_csv : Fig9.t -> string

val gnuplot_fig1 : data:string -> string
(** A gnuplot script plotting the Fig. 1 series from the CSV at [data]
    (log-log, as in the paper). *)

val gnuplot_density : data:string -> title:string -> string
(** Script for the two-density figures (Figs. 2 and 7). *)

val gnuplot_fig8 : data:string -> string
