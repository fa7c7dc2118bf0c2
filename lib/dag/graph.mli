(** Immutable task DAGs with per-edge communication volumes.

    This is the application model of §II: nodes are tasks, edges are
    precedence constraints carrying a communication volume (the [C] of
    [G = (V, E, C)]). Computation costs are {e not} stored here — under
    the unrelated-machines model they depend on the processor and live in
    the platform's ETC matrix. *)

type task = int
(** Tasks are dense indices [0 .. n_tasks − 1]. *)

type t

val make : n:int -> edges:(task * task * float) list -> t
(** [make ~n ~edges] builds a DAG over [n] tasks. Each edge is
    [(src, dst, volume)] with [volume >= 0]. Raises [Invalid_argument] on
    out-of-range endpoints, self-loops, duplicate edges, negative volumes,
    or cycles. *)

val of_adjacency :
  succs:(task * float) array array -> preds:(task * float) array array -> t
(** [of_adjacency ~succs ~preds] is the DAG whose successor and
    predecessor arrays are [succs] and [preds], as {!make} would build
    them: one row per task, each sorted by task, every edge listed once
    in each direction, volumes finite and [>= 0]. Nothing of that is
    re-checked and the rows are not copied; only the topological order
    is computed (raises [Invalid_argument] on a cycle). Used to build a
    schedule's disjunctive graph by merging rows. *)

val n_tasks : t -> int
val n_edges : t -> int

val succs : t -> task -> (task * float) array
(** Successors with communication volumes (do not mutate). *)

val preds : t -> task -> (task * float) array
(** Predecessors with communication volumes (do not mutate). *)

val volume : t -> src:task -> dst:task -> float option
(** Communication volume of an edge, if present. *)

val has_edge : t -> src:task -> dst:task -> bool

val edges : t -> (task * task * float) array
(** All edges, in (src, dst) lexicographic order. *)

val entries : t -> task array
(** Tasks without predecessors (non-empty for any valid DAG). *)

val exits : t -> task array
(** Tasks without successors. *)

val topo_order : t -> task array
(** A topological order, computed once at construction (do not mutate). *)

