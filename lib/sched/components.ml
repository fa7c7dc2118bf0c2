(* Building blocks of the parameterized list scheduler (DESIGN.md §13).

   A list scheduler is decomposed into three orthogonal components, after
   the taxonomy of "Parameterized Task Graph Scheduling Algorithm for
   Comparing Algorithmic Components" (arXiv 2403.07112):

   - a {b ranking} component assigning every task a static priority
     (plus auxiliary tables some selectors need: the BIL level matrix,
     the PEFT optimistic cost table, CPOP's critical path);
   - a {b processor-selection} component picking, at every step, which
     ready task to place and on which processor;
   - an {b insertion} policy deciding whether a task may fill an idle
     gap between already-placed tasks or only append after them, plus a
     deterministic tie-break rule so every composition stays
     bit-reproducible.

   HEFT, CPOP, DLS, BIL, PEFT, HEFT-LA and IHEFT are instances; see
   {!List_scheduler} for the driver and {!Registry} for the name table. *)

type collapse = [ `Mean | `Best | `Worst ]

let collapse_name = function `Mean -> "mean" | `Best -> "best" | `Worst -> "worst"

(* ------------------------------------------------------------------ *)
(* Averaged-cost machinery (shared by every ranking component)         *)
(* ------------------------------------------------------------------ *)

(* Task weight = the [rank]-collapsed ETC row; edge weight = mean
   latency + volume × mean τ (off-diagonal averages). *)
let average_weights ?(rank = `Mean) platform =
  let mean_tau = Platform.mean_tau platform in
  let mean_latency = Platform.mean_latency platform in
  let m = Platform.n_procs platform in
  let collapse v =
    let row = Array.init m (fun p -> Platform.etc platform ~task:v ~proc:p) in
    match rank with
    | `Mean -> Array.fold_left ( +. ) 0. row /. float_of_int m
    | `Best -> Array.fold_left Float.min row.(0) row
    | `Worst -> Array.fold_left Float.max row.(0) row
  in
  let edge _ _ volume = mean_latency +. (volume *. mean_tau) in
  { Dag.Levels.task = collapse; edge }

(* rank_u(t) = w̄(t) + max over succs (c̄(t,s) + rank_u(s)): the bottom
   levels under [average_weights]. *)
let upward_ranks ?rank graph platform =
  Dag.Levels.bottom_levels graph (average_weights ?rank platform)

let downward_ranks ?rank graph platform =
  Dag.Levels.top_levels graph (average_weights ?rank platform)

(* Static whole-graph priority order (HEFT's list): descending upward
   rank, ties to the lower task id. *)
let rank_order ?rank graph platform =
  let ranks = upward_ranks ?rank graph platform in
  let tasks = Array.init (Dag.Graph.n_tasks graph) (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare ranks.(b) ranks.(a) with 0 -> Int.compare a b | c -> c)
    tasks;
  tasks

let critical_path graph platform =
  Dag.Levels.critical_path graph (average_weights platform)

(* DLS static level: median execution cost, communication ignored
   (Sih & Lee 1993, DL1 characterization). *)
let median row =
  let a = Array.copy row in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let static_levels graph platform =
  let m = Platform.n_procs platform in
  let w =
    {
      Dag.Levels.task =
        (fun v -> median (Array.init m (fun p -> Platform.etc platform ~task:v ~proc:p)));
      edge = (fun _ _ _ -> 0.);
    }
  in
  Dag.Levels.bottom_levels graph w

(* BIL table: basic (task × proc) levels of Oh & Ha 1996.
   BIL(t, p) = w(t, p) + max over successors s of min over q of
   (BIL(s, q) + comm(p → q)). *)
let bil_table graph platform =
  let n = Dag.Graph.n_tasks graph in
  let m = Platform.n_procs platform in
  let levels = Array.make_matrix n m 0. in
  let topo = Dag.Graph.topo_order graph in
  for i = n - 1 downto 0 do
    let t = topo.(i) in
    for p = 0 to m - 1 do
      let tail = ref 0. in
      Array.iter
        (fun (s, volume) ->
          let best = ref infinity in
          for q = 0 to m - 1 do
            let via =
              levels.(s).(q) +. Platform.comm_time platform ~src:p ~dst:q ~volume
            in
            if via < !best then best := via
          done;
          if !best > !tail then tail := !best)
        (Dag.Graph.succs graph t);
      levels.(t).(p) <- Platform.etc platform ~task:t ~proc:p +. !tail
    done
  done;
  levels

(* PEFT optimistic cost table (Arabnejad & Barbosa 2014):
   OCT(t, p) = 0 for exit tasks, else
   OCT(t, p) = max over successors s of min over q of
     (OCT(s, q) + w(s, q) + [q ≠ p] · c̄(t, s))
   with c̄ the averaged communication cost of {!average_weights}. *)
let oct_table graph platform =
  let n = Dag.Graph.n_tasks graph in
  let m = Platform.n_procs platform in
  let mean_tau = Platform.mean_tau platform in
  let mean_latency = Platform.mean_latency platform in
  let oct = Array.make_matrix n m 0. in
  let topo = Dag.Graph.topo_order graph in
  for i = n - 1 downto 0 do
    let t = topo.(i) in
    for p = 0 to m - 1 do
      let worst = ref 0. in
      Array.iter
        (fun (s, volume) ->
          let cbar = mean_latency +. (volume *. mean_tau) in
          let best = ref infinity in
          for q = 0 to m - 1 do
            let via =
              oct.(s).(q)
              +. Platform.etc platform ~task:s ~proc:q
              +. (if q = p then 0. else cbar)
            in
            if via < !best then best := via
          done;
          if !best > !worst then worst := !best)
        (Dag.Graph.succs graph t);
      oct.(t).(p) <- !worst
    done
  done;
  oct

(* IHEFT heterogeneity-weighted upward rank: the task weight is the mean
   execution cost inflated by its coefficient of variation across
   processors, w'(t) = mean(t) · (1 + std(t)/mean(t)) — heterogeneous
   tasks rank higher so their placement is decided earlier. *)
let heterogeneity_weights platform =
  let m = Platform.n_procs platform in
  let mean = average_weights platform in
  let task v =
    let row = Array.init m (fun p -> Platform.etc platform ~task:v ~proc:p) in
    let mu = Array.fold_left ( +. ) 0. row /. float_of_int m in
    let var =
      Array.fold_left (fun acc x -> acc +. ((x -. mu) *. (x -. mu))) 0. row
      /. float_of_int m
    in
    if mu > 0. then mu +. Float.sqrt var else mu
  in
  { Dag.Levels.task; edge = mean.Dag.Levels.edge }

let heterogeneity_ranks graph platform =
  Dag.Levels.bottom_levels graph (heterogeneity_weights platform)

(* ------------------------------------------------------------------ *)
(* Placement state                                                     *)
(* ------------------------------------------------------------------ *)

(* Partial-schedule state shared by every composition. [eft] searches
   idle gaps (insertion policy), [append_finish] only considers the time
   after the last task of the processor (append policy); both build the
   same slot rows, so {!to_schedule} is policy-agnostic. *)
module State = struct
  type slot = { s_start : float; s_finish : float; s_task : int }

  type t = {
    graph : Dag.Graph.t;
    platform : Platform.t;
    slots : slot list array; (* per proc, sorted by start *)
    placed_proc : int array; (* -1 = not placed *)
    placed_finish : float array;
    avail : float array; (* per proc: finish of its last task *)
    mutable n_placed : int;
  }

  let create graph platform =
    let n = Dag.Graph.n_tasks graph in
    let m = Platform.n_procs platform in
    {
      graph;
      platform;
      slots = Array.make m [];
      placed_proc = Array.make n (-1);
      placed_finish = Array.make n 0.;
      avail = Array.make m 0.;
      n_placed = 0;
    }

  let n_placed t = t.n_placed
  let proc_of t v = t.placed_proc.(v)
  let finish_of t v = t.placed_finish.(v)

  let ready_time t ~task ~proc =
    let acc = ref 0. in
    Array.iter
      (fun (p, volume) ->
        if t.placed_proc.(p) = -1 then
          invalid_arg "Components.State: predecessor not placed yet";
        let arrival =
          t.placed_finish.(p)
          +. Platform.comm_time t.platform ~src:t.placed_proc.(p) ~dst:proc ~volume
        in
        if arrival > !acc then acc := arrival)
      (Dag.Graph.preds t.graph task);
    !acc

  (* Like [ready_time] but ignoring unplaced predecessors — the
     lookahead selector predicts child finish times one step ahead,
     where a child's other parents may still be unscheduled. *)
  let ready_time_partial t ~task ~proc =
    let acc = ref 0. in
    Array.iter
      (fun (p, volume) ->
        if t.placed_proc.(p) <> -1 then begin
          let arrival =
            t.placed_finish.(p)
            +. Platform.comm_time t.platform ~src:t.placed_proc.(p) ~dst:proc ~volume
          in
          if arrival > !acc then acc := arrival
        end)
      (Dag.Graph.preds t.graph task);
    !acc

  (* earliest gap of length [dur] starting no earlier than [ready] *)
  let find_slot slots ~ready ~dur =
    let rec scan candidate = function
      | [] -> candidate
      | { s_start; s_finish; _ } :: rest ->
        if candidate +. dur <= s_start then candidate
        else scan (Float.max candidate s_finish) rest
    in
    scan ready slots

  let eft ?(ready_time = ready_time) t ~task ~proc =
    let ready = ready_time t ~task ~proc in
    let dur = Platform.etc t.platform ~task ~proc in
    let start = find_slot t.slots.(proc) ~ready ~dur in
    (start, start +. dur)

  let append_finish ?(ready_time = ready_time) t ~task ~proc =
    let start = Float.max (ready_time t ~task ~proc) t.avail.(proc) in
    (start, start +. Platform.etc t.platform ~task ~proc)

  (* candidate (start, finish) under the given insertion policy *)
  let candidate t ~insert ~task ~proc =
    if insert then eft t ~task ~proc else append_finish t ~task ~proc

  let place t ~insert ~task ~proc =
    if t.placed_proc.(task) <> -1 then
      invalid_arg "Components.State: task already placed";
    let start, finish = candidate t ~insert ~task ~proc in
    t.placed_proc.(task) <- proc;
    t.placed_finish.(task) <- finish;
    t.n_placed <- t.n_placed + 1;
    if finish > t.avail.(proc) then t.avail.(proc) <- finish;
    let rec insert_slot = function
      | [] -> [ { s_start = start; s_finish = finish; s_task = task } ]
      | slot :: rest when slot.s_start < start -> slot :: insert_slot rest
      | slots -> { s_start = start; s_finish = finish; s_task = task } :: slots
    in
    t.slots.(proc) <- insert_slot t.slots.(proc)

  (* Tentative placement for lookahead scoring: place, evaluate, restore.
     Restoration is exact — the slot row is an immutable list and the
     scalar fields are saved — so a tentative never perturbs the state. *)
  let with_tentative t ~insert ~task ~proc f =
    let saved_slots = t.slots.(proc) and saved_avail = t.avail.(proc) in
    place t ~insert ~task ~proc;
    let r = f () in
    t.slots.(proc) <- saved_slots;
    t.avail.(proc) <- saved_avail;
    t.placed_proc.(task) <- -1;
    t.placed_finish.(task) <- 0.;
    t.n_placed <- t.n_placed - 1;
    r

  let to_schedule t =
    let n = Dag.Graph.n_tasks t.graph in
    for v = 0 to n - 1 do
      if t.placed_proc.(v) = -1 then
        invalid_arg (Printf.sprintf "Components.State.to_schedule: task %d not placed" v)
    done;
    let order =
      Array.map (fun slots -> Array.of_list (List.map (fun s -> s.s_task) slots)) t.slots
    in
    Schedule.make ~graph:t.graph ~n_procs:(Platform.n_procs t.platform)
      ~proc_of:(Array.copy t.placed_proc) ~order
end

(* ------------------------------------------------------------------ *)
(* Component descriptors                                               *)
(* ------------------------------------------------------------------ *)

type ranking =
  | Rank_upward of collapse (* HEFT upward rank *)
  | Rank_updown of collapse (* CPOP: upward + downward rank *)
  | Rank_static_level (* DLS median static level *)
  | Rank_bil (* BIL level table; priority = best-processor level *)
  | Rank_oct (* PEFT: average optimistic cost *)
  | Rank_het_upward (* IHEFT heterogeneity-weighted upward rank *)

type selection =
  | Select_eft (* earliest finish time *)
  | Select_cp_pin (* CPOP: critical path pinned, EFT elsewhere *)
  | Select_dl (* DLS: joint (task, proc) dynamic-level maximization *)
  | Select_bim (* BIL: BIM* row-quantile priority + minimization *)
  | Select_oeft (* PEFT: EFT + OCT minimization *)
  | Select_lookahead (* HEFT-LA: one-step child EFT sum *)
  | Select_crossover of int64 (* IHEFT: seeded EFT/local-fastest cross-over *)

type insertion = Insert | Append

(* Tie policy for the ready-task argmax: [Tie_id] resolves equal
   priorities to the lower task id (HEFT's static list order);
   [Tie_ready] keeps the earlier task in ready-list order (the classic
   event-driven formulation CPOP/DLS/BIL use); [Tie_seeded] shuffles
   equal-priority candidates with a deterministic per-task hash. *)
type tie = Tie_id | Tie_ready | Tie_seeded of int64

let ranking_name = function
  | Rank_upward c -> "upward:" ^ collapse_name c
  | Rank_updown c -> "updown:" ^ collapse_name c
  | Rank_static_level -> "static-level"
  | Rank_bil -> "bil"
  | Rank_oct -> "oct"
  | Rank_het_upward -> "het-upward"

let selection_name = function
  | Select_eft -> "eft"
  | Select_cp_pin -> "cp-pin"
  | Select_dl -> "dl"
  | Select_bim -> "bim"
  | Select_oeft -> "oeft"
  | Select_lookahead -> "lookahead"
  | Select_crossover seed -> Printf.sprintf "crossover:%Ld" seed

let insertion_name = function Insert -> "insertion" | Append -> "append"

let tie_name = function
  | Tie_id -> "id"
  | Tie_ready -> "ready"
  | Tie_seeded seed -> Printf.sprintf "seeded:%Ld" seed
