(* Single-move neighborhood over schedules: reassign one task to a
   (processor, position). This is the move type shared by the bench
   reeval probes, the service's neighbor fast path, and the (future)
   robustness-aware local search — [Engine.reevaluate_any] consumes exactly
   one of these per step. *)

type move = {
  task : int;
  to_ : int;  (* destination processor *)
  at : int option;  (* position in the destination row after removal; None = append *)
}

let make ?at ~task ~to_ () = { task; to_; at }

let apply sched m = Schedule.reassign ?at:m.at sched ~task:m.task ~to_:m.to_

let apply_opt sched m =
  match apply sched m with
  | s -> Some s
  | exception Invalid_argument _ -> None

let is_noop sched m =
  let open Schedule in
  m.to_ = sched.proc_of.(m.task)
  &&
  (* after removal the row shrinks by one, so position [p] is a no-op
     iff the task already sits at [p]; append is a no-op iff it is last *)
  let row_len = Array.length sched.order.(m.to_) in
  let pos = sched.pos_in_proc.(m.task) in
  match m.at with None -> pos = row_len - 1 | Some p -> p = pos

(* Draw a uniformly random feasible move (retrying infeasible draws —
   moves that would deadlock the eager execution). Deterministic in
   [rng]; raises after [attempts] consecutive infeasible draws, which
   cannot happen on schedules with >= 1 processor because appending a
   task to its own row is always feasible (checked last). *)
let random ?(attempts = 64) ~rng sched =
  let open Schedule in
  let n = n_tasks sched in
  let rec draw k =
    if k = 0 then
      (* fallback: same-proc append is always acyclic *)
      let task = Prng.Xoshiro.int rng n in
      { task; to_ = sched.proc_of.(task); at = None }
    else begin
      let task = Prng.Xoshiro.int rng n in
      let to_ = Prng.Xoshiro.int rng sched.n_procs in
      let row_len =
        Array.length sched.order.(to_) - (if sched.proc_of.(task) = to_ then 1 else 0)
      in
      let at =
        if Prng.Xoshiro.int rng 2 = 0 then None
        else Some (Prng.Xoshiro.int rng (row_len + 1))
      in
      let m = { task; to_; at } in
      match apply_opt sched m with Some _ -> m | None -> draw (k - 1)
    end
  in
  draw attempts

(* Swap move: exchange two tasks' (processor, position) slots. *)

type swap = { a : int; b : int }

let apply_swap sched (s : swap) = Schedule.swap sched ~a:s.a ~b:s.b

let apply_swap_opt sched s =
  match apply_swap sched s with
  | s' -> Some s'
  | exception Invalid_argument _ -> None

(* Draw a random feasible swap, deterministic in [rng]. Unlike [random]
   there is no always-feasible fallback swap, so after [attempts]
   infeasible or degenerate draws this returns [None] (on a 1-task
   schedule no swap exists at all). *)
let random_swap ?(attempts = 64) ~rng sched =
  let n = Schedule.n_tasks sched in
  if n < 2 then None
  else
    let rec draw k =
      if k = 0 then None
      else
        let a = Prng.Xoshiro.int rng n in
        let b = Prng.Xoshiro.int rng n in
        if a = b then draw (k - 1)
        else
          let s = { a; b } in
          match apply_swap_opt sched s with Some _ -> Some s | None -> draw (k - 1)
    in
    draw attempts

(* One feasibility-checked step drawn from either neighborhood —
   [Reassign] via {!Schedule.reassign}, [Swap] via {!Schedule.swap}. *)

type any = Reassign of move | Swap of swap

let apply_any sched = function
  | Reassign m -> apply sched m
  | Swap s -> apply_swap sched s

let apply_any_opt sched = function
  | Reassign m -> apply_opt sched m
  | Swap s -> apply_swap_opt sched s
