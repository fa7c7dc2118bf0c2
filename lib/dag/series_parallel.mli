(** Two-terminal series–parallel reduction with Dodin's node-duplication
    approximation.

    This is the engine behind the Dodin makespan-distribution method
    (Dodin 1985, as described by Ludwig, Möhring & Stork 2001): an
    activity-on-arc network is repeatedly simplified by
    - {e series} reduction (interior node with one in- and one out-edge:
      compose the weights — distribution sum),
    - {e parallel} reduction (two edges with the same endpoints: combine
      the weights — distribution maximum),
    and, when neither applies, the topologically first interior node
    (which then necessarily has in-degree 1) is {e duplicated}: its single
    in-edge is composed into each of its out-edges. Duplication treats the
    shared in-edge as independent copies — this is Dodin's approximation.

    The module is polymorphic in the weight algebra so it can be tested
    with exact scalars (series = (+), parallel = max) and used with
    distributions. *)

type 'w algebra = {
  series : 'w -> 'w -> 'w;  (** composition along a path *)
  parallel : 'w -> 'w -> 'w;  (** combination of parallel branches *)
}

type 'w network
(** Mutable two-terminal multigraph. *)

val of_edges : n:int -> source:int -> sink:int -> (int * int * 'w) list -> 'w network
(** [of_edges ~n ~source ~sink edges] over nodes [0..n−1]. Requirements
    (checked): [source <> sink]; the edge set is acyclic; every node lies
    on a path from [source] to [sink]. Multi-edges are allowed. *)

val of_task_dag :
  Graph.t ->
  task:(Graph.task -> 'w) ->
  edge:(Graph.task -> int -> 'w) ->
  zero:'w ->
  'w network
(** Activity-on-node to activity-on-arc conversion: each task becomes an
    edge carrying its weight between fresh start/end nodes, each
    dependency an edge carrying its weight ([edge v k] weighs the edge
    from [v]'s [k]-th entry of {!Graph.preds}), and a
    super-source/super-sink with [zero]-weight edges close the
    network. *)

type 'w result = {
  weight : 'w;  (** weight of the fully reduced source–sink edge *)
  duplications : int;  (** 0 iff the network was series–parallel *)
}

val reduce : 'w algebra -> 'w network -> 'w result
(** Destructively reduce the network to a single edge. *)

val is_series_parallel : 'w network -> bool
(** Whether series/parallel steps alone fully reduce (the network is
    consumed). *)
