(** Graphviz export of task DAGs, for debugging and documentation. *)

val to_dot :
  ?name:string ->
  ?task_label:(Graph.task -> string) ->
  Graph.t ->
  string
(** [to_dot g] renders a [digraph]. Tasks are labelled by index by
    default; edges by their communication volume. *)
