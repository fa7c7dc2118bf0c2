(** Task graph of the tiled Cholesky decomposition.

    The classic right-looking factorization over [b × b] tiles:
    [POTRF(k)] factors the diagonal tile, [TRSM(k, i)] solves the
    panel, and [UPDATE(k, i, j)] (SYRK on the diagonal, GEMM off it)
    applies the trailing update. For [b = 3] this gives the 10-task
    Cholesky graph of the paper's Fig. 3. *)

type kind =
  | Potrf of int  (** [Potrf k] *)
  | Trsm of int * int  (** [Trsm (k, i)], [i > k] *)
  | Update of int * int * int  (** [Update (k, i, j)], [k < j <= i] *)

val kinds : tiles:int -> kind list
(** Every task's role in task-index order: per step [k], [POTRF(k)], then
    its panel solves, then its trailing updates row by row. *)

val n_tasks : tiles:int -> int
(** Number of tasks for a [tiles × tiles] tiled matrix:
    [b + b(b−1)/2 + Σ_k (b−k−1)(b−k)/2 = b(b+1)(b+2)/6], in O(1). *)

val generate : tiles:int -> ?volume:float -> unit -> Dag.Graph.t
(** [generate ~tiles ()] builds the DAG; every edge carries the uniform
    tile communication [volume] (default 20.0, the same order as the
    time scale when computation costs are a few tens). *)
