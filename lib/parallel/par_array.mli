(** Parallel array construction on top of {!Pool}. *)

val init : ?pool:Pool.t -> ?chunk_size:int -> int -> (int -> 'a) -> 'a array
(** [init n f] is [Array.init n f] with the index range cut into chunks
    (default size 64) executed across domains. [f] must be safe to run
    concurrently for distinct indices. Runs on [?pool], or on the
    shared persistent pool (see {!Pool.run}). *)

val map : ?pool:Pool.t -> ?chunk_size:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]. *)
