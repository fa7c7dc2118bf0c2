(** Task graph of parallel Gaussian elimination (Cosnard, Marrakchi,
    Robert & Trystram 1988), the paper's second real application.

    At step [k] (1-based, [k < n]) a pivot task [Pivot k] prepares column
    [k]; update tasks [Update (k, j)] for [j > k] apply it to the
    remaining columns. [Update (k, j)] needs the pivot of step [k] and the
    updated column [j] from step [k − 1]; the pivot of step [k] needs
    [Update (k−1, k)].

    Task count: [(n−1) + n(n−1)/2]; with [n = 14] this yields 104 tasks —
    the closest realization of the paper's “Gaussian elimination graph of
    103 tasks” (see DESIGN.md). *)

val n_tasks : n:int -> int
(** [(n−1) + n(n−1)/2] for an [n × n] system, [n >= 2]. *)

val generate : n:int -> ?volume:float -> unit -> Dag.Graph.t
(** Build the DAG; each edge carries communication [volume]
    (default 20.0, the same order as the computation times, per §V). *)
