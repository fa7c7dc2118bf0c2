(** Parallel array construction on top of {!Pool}. *)

val init : ?pool:Pool.t -> ?chunk_size:int -> int -> (int -> 'a) -> 'a array
(** [init n f] is [Array.init n f] with the index range cut into chunks
    (default size 64) executed across domains. Every index, [0]
    included, runs inside the fan-out, exactly once. [f] must be safe to
    run concurrently for distinct indices. Runs on [?pool], or on the
    shared persistent pool (see {!Pool.run}); the first exception raised
    by [f] is re-raised after all domains drain. *)
