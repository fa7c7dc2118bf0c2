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

val add_edges : t -> (task * task * float) list -> t
(** A new DAG with extra edges (same validation as {!make}); used to build
    disjunctive graphs. Edges already present are rejected. *)
