(* The forward sweep takes the duration and communication distributions
   as functions plus a caller-owned scratch array, so {!Engine} feeds it
   from its memo tables and reuses the array across schedules. *)

module Dist = Distribution.Dist

(* Per-predecessor memo of arrival sums for one full sweep. Entry [p]
   holds the last two sums [C(p) + comm] computed for predecessor [p],
   six slots each, most recent first: (C(p), comm, sum) twice. Keys
   compare by physical identity, so a hit returns the value of the
   identical [Dist.add] call on the identical operands. [left.(p)]
   counts the data successors of [p] the sweep has still to reach: an
   entry is released at its last use, so a kept sum survives no longer
   than it can be reused (a sum held across a minor collection is
   promoted to the major heap). *)
type arrivals = {
  mutable slots : Dist.t array;
  mutable left : int array;
  mutable hits : int;
  mutable misses : int;
}

(* never a completion or a communication distribution, so an empty slot
   matches no key *)
let vacant = Dist.const 0.

let arrivals () = { slots = [||]; left = [||]; hits = 0; misses = 0 }
let arrival_hits a = a.hits
let arrival_misses a = a.misses

let memo_sum ~points a p c comm =
  let s = a.slots and i = 6 * p in
  let left = a.left.(p) - 1 in
  a.left.(p) <- left;
  let sum =
    if Array.unsafe_get s i == c && Array.unsafe_get s (i + 1) == comm then begin
      a.hits <- a.hits + 1;
      Array.unsafe_get s (i + 2)
    end
    else if Array.unsafe_get s (i + 3) == c && Array.unsafe_get s (i + 4) == comm then begin
      a.hits <- a.hits + 1;
      Array.unsafe_get s (i + 5)
    end
    else begin
      a.misses <- a.misses + 1;
      let sum = Dist.add ~points c comm in
      if left > 0 then begin
        Array.blit s i s (i + 3) 3;
        s.(i) <- c;
        s.(i + 1) <- comm;
        s.(i + 2) <- sum
      end;
      sum
    end
  in
  if left = 0 then Array.fill s i 6 vacant;
  sum

(* C(v) = max over [v]'s disjunctive predecessors of their arrivals,
   plus v's duration: a fused arrival/max loop, the same left fold as
   the historical [max_list] over a materialized arrival list
   (bit-identical results) without the per-node list. *)
let finish ~points ~dgraph ~task_dist ~proc completion v arrival =
  let preds = Dag.Graph.preds dgraph v in
  let np = Array.length preds in
  let ready =
    if np = 0 then Dist.const 0.
    else begin
      let acc = ref (arrival preds.(0)) in
      for i = 1 to np - 1 do
        acc := Dist.max_indep ~points !acc (arrival preds.(i))
      done;
      !acc
    end
  in
  completion.(v) <- Dist.add ~points ready (task_dist ~task:v ~proc)

let node ~points ~dgraph ~task_dist ~comm_dist ~arrivals sched completion v =
  let graph = sched.Sched.Schedule.graph in
  let proc_of = sched.Sched.Schedule.proc_of in
  let arrival (p, _) =
    (* disjunctive edges carry no data: volume lookup must use the
       original graph *)
    match Dag.Graph.volume graph ~src:p ~dst:v with
    | None -> completion.(p)
    | Some volume -> (
      let comm = comm_dist ~volume ~src:proc_of.(p) ~dst:proc_of.(v) in
      match arrivals with
      | None -> Dist.add ~points completion.(p) comm
      | Some a -> memo_sum ~points a p completion.(p) comm)
  in
  finish ~points ~dgraph ~task_dist ~proc:proc_of.(v) completion v arrival

(* Per-session memo of arrival sums for dirty-cone replays: one slot of
   three, (C(p), comm, sum), per data edge p→v of the case graph, at
   [3 * (base.(v) + j)] for the [j]-th data predecessor of [v]. Keys
   compare by physical identity, as in [arrivals], so a hit is the value
   of the identical [Dist.add] call. Slots are written only with
   committed-state operands (see [update_node]), so they outlive the
   probe that filled them. *)
type edge_sums = {
  base : int array;
  sums : Dist.t array;
  mutable sum_hits : int;
  mutable sum_misses : int;
}

let edge_sums graph =
  let n = Dag.Graph.n_tasks graph in
  let base = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    base.(v + 1) <- base.(v) + Array.length (Dag.Graph.preds graph v)
  done;
  { base; sums = Array.make (3 * base.(n)) vacant; sum_hits = 0; sum_misses = 0 }

let sum_hits e = e.sum_hits
let sum_misses e = e.sum_misses

let forget_sums e graph ~changed ~seeds =
  for v = 0 to Array.length e.base - 2 do
    let seed = List.mem v seeds in
    Array.iteri
      (fun j (p, _) ->
        if seed || changed.(p) then Array.fill e.sums (3 * (e.base.(v) + j)) 3 vacant)
      (Dag.Graph.preds graph v)
  done

let clear_sums e = Array.fill e.sums 0 (Array.length e.sums) vacant

let update_node ~points ~dgraph ~task_dist ~comm_dist ~sums:e ~dirty ~seed sched completion v =
  let graph = sched.Sched.Schedule.graph in
  let proc_of = sched.Sched.Schedule.proc_of in
  (* Both pred arrays are sorted by task id and the data predecessors
     are a subset of the disjunctive ones, so one cursor [j] walks the
     data edges in step with the fold and names each one's slot. *)
  let data = Dag.Graph.preds graph v in
  let nd = Array.length data in
  let s = e.sums and j = ref 0 in
  let arrival (p, _) =
    if !j < nd && fst (Array.unsafe_get data !j) = p then begin
      let i = 3 * (e.base.(v) + !j) in
      let volume = snd (Array.unsafe_get data !j) in
      incr j;
      let c = completion.(p) in
      let comm = comm_dist ~volume ~src:proc_of.(p) ~dst:proc_of.(v) in
      if Array.unsafe_get s i == c && Array.unsafe_get s (i + 1) == comm then begin
        e.sum_hits <- e.sum_hits + 1;
        Array.unsafe_get s (i + 2)
      end
      else begin
        e.sum_misses <- e.sum_misses + 1;
        let sum = Dist.add ~points c comm in
        (* only committed operands: [p] outside the cone keeps its
           committed completion, and a seed's incoming comm is the
           probe's own *)
        if not (seed || dirty.(p)) then begin
          s.(i) <- c;
          s.(i + 1) <- comm;
          s.(i + 2) <- sum
        end;
        sum
      end
    end
    else completion.(p)
  in
  finish ~points ~dgraph ~task_dist ~proc:proc_of.(v) completion v arrival

let completion_dists_with ?arrivals ~points ~dgraph ~completion
    ~(task_dist : task:int -> proc:int -> Dist.t)
    ~(comm_dist : volume:float -> src:int -> dst:int -> Dist.t) sched =
  let sweep arrivals =
    Array.iter
      (node ~points ~dgraph ~task_dist ~comm_dist ~arrivals sched completion)
      (Dag.Graph.topo_order dgraph)
  in
  (match arrivals with
  | None -> sweep None
  | Some a ->
    let n = Dag.Graph.n_tasks dgraph in
    let len = 6 * n in
    if Array.length a.slots < len then begin
      a.slots <- Array.make len vacant;
      a.left <- Array.make n 0
    end;
    let graph = sched.Sched.Schedule.graph in
    for p = 0 to n - 1 do
      a.left.(p) <- Array.length (Dag.Graph.succs graph p)
    done;
    a.hits <- 0;
    a.misses <- 0;
    (* nothing outlives the sweep: the sums are dropped with it *)
    Fun.protect
      ~finally:(fun () -> Array.fill a.slots 0 len vacant)
      (fun () -> sweep arrivals));
  completion

let makespan_of_exits ~points dgraph completion =
  let exits = Dag.Graph.exits dgraph in
  if Array.length exits = 0 then invalid_arg "Classic.makespan_of_exits: no exit task";
  let acc = ref completion.(exits.(0)) in
  for i = 1 to Array.length exits - 1 do
    acc := Dist.max_indep ~points !acc completion.(exits.(i))
  done;
  !acc
