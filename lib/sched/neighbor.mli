(** Single-move schedule neighborhoods.

    A {!move} reassigns one task to a (processor, position); applying it
    patches the schedule in O(row) via {!Schedule.reassign} instead of a
    full rebuild. This is the currency of incremental re-evaluation
    ([Makespan.Engine.reevaluate_any]), the service's neighbor job specs,
    and local-search schedulers. *)

type move = {
  task : int;  (** task to move *)
  to_ : int;  (** destination processor *)
  at : int option;
      (** position in the destination order row, counted {e after} the
          task is removed from its current row; [None] appends *)
}

val make : ?at:int -> task:int -> to_:int -> unit -> move

val apply : Schedule.t -> move -> Schedule.t
(** Patched schedule. Raises [Invalid_argument] if the move is out of
    range or would deadlock the eager execution. *)

val is_noop : Schedule.t -> move -> bool
(** True when applying the move reproduces the same assignment and
    order (same processor, same resulting position). *)

val random : ?attempts:int -> rng:Prng.Xoshiro.t -> Schedule.t -> move
(** A random feasible move, deterministic in [rng]. Infeasible draws are
    retried up to [attempts] times (default 64) before falling back to a
    guaranteed-feasible same-processor append. *)

(** {1 Swap moves}

    A {!swap} exchanges the (processor, position) slots of two tasks via
    {!Schedule.swap}. Together with {!move} this is the second move
    class of the local-search neighborhood. *)

type swap = { a : int; b : int }

val apply_swap_opt : Schedule.t -> swap -> Schedule.t option
(** The schedule with tasks [a] and [b] exchanging their (processor,
    position) slots; [None] if out of range, [a = b], or the exchange
    would deadlock the eager execution. *)

val random_swap : ?attempts:int -> rng:Prng.Xoshiro.t -> Schedule.t -> swap option
(** A random feasible swap, deterministic in [rng]. [None] after
    [attempts] (default 64) infeasible draws — unlike {!random} there is
    no universally feasible fallback swap. *)

(** {1 Either neighborhood} *)

type any = Reassign of move | Swap of swap

val apply_any : Schedule.t -> any -> Schedule.t
val apply_any_opt : Schedule.t -> any -> Schedule.t option
