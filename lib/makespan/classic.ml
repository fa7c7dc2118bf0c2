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
   entry is released after its last use, so a kept sum survives no
   longer than it can be reused (a sum held across a minor collection
   is promoted to the major heap). A dirty-cone replay keeps its
   probe-only sums here too, with [left.(p)] counting [p]'s dirty data
   successors. *)
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

(* [p]'s entry first; a computed sum goes in front *)
let memo_sum ~points a p c comm =
  let s = a.slots and i = 6 * p in
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
    Array.blit s i s (i + 3) 3;
    s.(i) <- c;
    s.(i + 1) <- comm;
    s.(i + 2) <- sum;
    sum
  end

let with_arrivals a n f =
  let len = 6 * n in
  if Array.length a.slots < len then begin
    a.slots <- Array.make len vacant;
    a.left <- Array.make n 0
  end;
  a.hits <- 0;
  a.misses <- 0;
  (* nothing outlives the sweep: the sums are dropped with it *)
  Fun.protect ~finally:(fun () -> Array.fill a.slots 0 len vacant) f

let with_cone_arrivals a (dgraph : Sched.Disjunctive.t) ~dirty f =
  let n = Array.length dirty in
  with_arrivals a n (fun () ->
      Array.fill a.left 0 n 0;
      Array.iteri
        (fun v d ->
          if d then
            Array.iteri
              (fun k (p, _) -> if dgraph.data.(v).(k) >= 0 then a.left.(p) <- a.left.(p) + 1)
              (Dag.Graph.preds dgraph.graph v))
        dirty;
      f ())

(* after [v]: drop the sums of the predecessors it used last *)
let release_preds a preds data =
  for k = 0 to Array.length preds - 1 do
    if data.(k) >= 0 then begin
      let p = fst preds.(k) in
      let left = a.left.(p) - 1 in
      a.left.(p) <- left;
      if left = 0 then Array.fill a.slots (6 * p) 6 vacant
    end
  done

(* C(v) = max over [v]'s disjunctive predecessors of their arrivals,
   plus v's duration: a fused arrival/max loop, the same left fold as
   the historical [max_list] over a materialized arrival list
   (bit-identical results) without the per-node list. A
   processor-order predecessor arrives at its completion; [arrival p e
   volume] gives the arrival over data edge [e] (the predecessor's
   {!Sched.Disjunctive.t} record) of the given volume. *)
let arrive completion preds data arrival k =
  let p, volume = preds.(k) in
  let e = data.(k) in
  if e < 0 then completion.(p) else arrival p e volume

let finish ~points ~(dgraph : Sched.Disjunctive.t) ~task_dist ~proc completion v arrival =
  let preds = Dag.Graph.preds dgraph.graph v and data = dgraph.data.(v) in
  let np = Array.length preds in
  let ready =
    if np = 0 then Dist.const 0.
    else begin
      let acc = ref (arrive completion preds data arrival 0) in
      for k = 1 to np - 1 do
        acc := Dist.max_indep ~points !acc (arrive completion preds data arrival k)
      done;
      !acc
    end
  in
  completion.(v) <- Dist.add ~points ready (task_dist ~task:v ~proc)

let node ~points ~dgraph ~task_dist ~comm_dist ~arrivals sched completion v =
  let proc_of = sched.Sched.Schedule.proc_of in
  let arrival p _ volume =
    let comm = comm_dist ~volume ~src:proc_of.(p) ~dst:proc_of.(v) in
    match arrivals with
    | None -> Dist.add ~points completion.(p) comm
    | Some a -> memo_sum ~points a p completion.(p) comm
  in
  finish ~points ~dgraph ~task_dist ~proc:proc_of.(v) completion v arrival;
  match arrivals with
  | None -> ()
  | Some a -> release_preds a (Dag.Graph.preds dgraph.Sched.Disjunctive.graph v) dgraph.data.(v)

(* Per-session memo of arrival sums for dirty-cone replays: one slot of
   three, (C(p), comm, sum), per data edge of the case graph, at
   [3 * e] for its index [e] in [Dag.Graph.edges] order. Keys compare
   by physical identity, as in [arrivals], so a hit is the value of the
   identical [Dist.add] call. Slots are written only with
   committed-state operands (see [update_node]), so they outlive the
   probe that filled them. *)
type edge_sums = {
  sums : Dist.t array;
  mutable sum_hits : int;
  mutable sum_misses : int;
}

let edge_sums graph =
  { sums = Array.make (3 * Dag.Graph.n_edges graph) vacant; sum_hits = 0; sum_misses = 0 }

let sum_hits e = e.sum_hits
let sum_misses e = e.sum_misses

let forget_sums e graph ~changed ~seeds =
  let i = ref 0 in
  for u = 0 to Dag.Graph.n_tasks graph - 1 do
    Array.iter
      (fun (v, _) ->
        if changed.(u) || seeds.(v) then Array.fill e.sums (3 * !i) 3 vacant;
        incr i)
      (Dag.Graph.succs graph u)
  done

let clear_sums e = Array.fill e.sums 0 (Array.length e.sums) vacant

(* Per-session cache of committed running maxima for dirty-cone
   replays. [maxima.(v).(k)] is m_k = max(a_0 … a_k) over [v]'s first
   k + 1 disjunctive arrivals in the session's committed state, held
   for k < [len.(v)]. A replay fills it only below [v]'s first dirty
   predecessor, where every arrival is committed state: the predecessor
   keeps its committed completion and, since [v] is not fresh (its
   processor and its predecessor sequence are the committed ones), the
   same communication. A stored maximum is the value of the identical
   left fold over identical operands, so resuming from it keeps the
   bits. An accepted probe changes [v]'s arrivals from its first dirty
   predecessor on, so [truncate_prefixes] cuts the cache there, and at
   a fresh node it cuts it to nothing. *)
type prefixes = {
  maxima : Dist.t array array;
  len : int array;
  mutable fold_skips : int;
}

let prefixes n = { maxima = Array.make n [||]; len = Array.make n 0; fold_skips = 0 }
let fold_skips p = p.fold_skips

let truncate p v k =
  let len = p.len.(v) in
  if k < len then begin
    Array.fill p.maxima.(v) k (len - k) vacant;
    p.len.(v) <- k
  end

let first_dirty preds dirty =
  let np = Array.length preds in
  let rec go k = if k < np && not dirty.(fst preds.(k)) then go (k + 1) else k in
  go 0

let truncate_prefixes p (dgraph : Sched.Disjunctive.t) ~dirty ~fresh =
  Array.iteri
    (fun v d ->
      if d then
        truncate p v (if fresh.(v) then 0 else first_dirty (Dag.Graph.preds dgraph.graph v) dirty))
    dirty

let clear_prefixes p = Array.iteri (fun v _ -> truncate p v 0) p.len

let update_node ~points ~dgraph ~task_dist ~comm_dist ~sums ~arrivals ~prefixes ~dirty ~fresh
    ~seed sched completion v =
  let proc_of = sched.Sched.Schedule.proc_of in
  let s = sums.sums in
  let arrival p e volume =
    let i = 3 * e in
    let c = completion.(p) in
    let comm = comm_dist ~volume ~src:proc_of.(p) ~dst:proc_of.(v) in
    if Array.unsafe_get s i == c && Array.unsafe_get s (i + 1) == comm then begin
      sums.sum_hits <- sums.sum_hits + 1;
      Array.unsafe_get s (i + 2)
    end
    else if seed || dirty.(p) then
      (* the probe's own operands: [p]'s completion or the seed's
         incoming comm, kept while [p]'s other dirty successors may
         need the same sum *)
      memo_sum ~points arrivals p c comm
    else begin
      (* committed operands: [p] outside the cone keeps its committed
         completion, and [v] its processor *)
      sums.sum_misses <- sums.sum_misses + 1;
      let sum = Dist.add ~points c comm in
      s.(i) <- c;
      s.(i + 1) <- comm;
      s.(i + 2) <- sum;
      sum
    end
  in
  let preds = Dag.Graph.preds dgraph.Sched.Disjunctive.graph v and data = dgraph.data.(v) in
  let np = Array.length preds in
  let ready =
    if np = 0 then Dist.const 0.
    else begin
      (* arrivals [0, committed) are committed state; the fold resumes
         from the longest cached maximum among them *)
      let committed = if fresh then 0 else first_dirty preds dirty in
      let len = prefixes.len.(v) in
      let start = if committed < len then committed else len in
      let m =
        let m = prefixes.maxima.(v) in
        if Array.length m >= committed then m
        else begin
          (* [committed] < np at a dirty node that is not fresh *)
          let m' = Array.make (np - 1) vacant in
          Array.blit m 0 m' 0 len;
          prefixes.maxima.(v) <- m';
          m'
        end
      in
      let store k acc =
        if k >= len && k < committed then begin
          m.(k) <- acc;
          prefixes.len.(v) <- k + 1
        end
      in
      let acc =
        if start = 0 then begin
          let a = arrive completion preds data arrival 0 in
          store 0 a;
          ref a
        end
        else begin
          prefixes.fold_skips <- prefixes.fold_skips + start - 1;
          ref m.(start - 1)
        end
      in
      for k = max 1 start to np - 1 do
        acc := Dist.max_indep ~points !acc (arrive completion preds data arrival k);
        store k !acc
      done;
      !acc
    end
  in
  release_preds arrivals preds data;
  completion.(v) <- Dist.add ~points ready (task_dist ~task:v ~proc:proc_of.(v))

let completion_dists_with ?arrivals ~points ~dgraph ~completion
    ~(task_dist : task:int -> proc:int -> Dist.t)
    ~(comm_dist : volume:float -> src:int -> dst:int -> Dist.t) sched =
  let sweep arrivals =
    Array.iter
      (node ~points ~dgraph ~task_dist ~comm_dist ~arrivals sched completion)
      (Dag.Graph.topo_order dgraph.Sched.Disjunctive.graph)
  in
  (match arrivals with
  | None -> sweep None
  | Some a ->
    let n = Dag.Graph.n_tasks dgraph.Sched.Disjunctive.graph in
    with_arrivals a n (fun () ->
        let graph = sched.Sched.Schedule.graph in
        for p = 0 to n - 1 do
          a.left.(p) <- Array.length (Dag.Graph.succs graph p)
        done;
        sweep arrivals));
  completion

let makespan_of_exits ~points (dgraph : Sched.Disjunctive.t) completion =
  let exits = Dag.Graph.exits dgraph.graph in
  if Array.length exits = 0 then invalid_arg "Classic.makespan_of_exits: no exit task";
  let acc = ref completion.(exits.(0)) in
  for i = 1 to Array.length exits - 1 do
    acc := Dist.max_indep ~points !acc completion.(exits.(i))
  done;
  !acc
