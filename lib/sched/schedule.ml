type t = {
  graph : Dag.Graph.t;
  n_procs : int;
  proc_of : int array;
  order : int array array;
  pos_in_proc : int array;
}

(* The eager execution exists iff DAG edges plus processor-order edges
   form a DAG; check with Kahn's algorithm over the union. *)
let check_acyclic graph order =
  let n = Dag.Graph.n_tasks graph in
  let extra_succ = Array.make n [] in
  let indeg = Array.init n (fun v -> Array.length (Dag.Graph.preds graph v)) in
  Array.iter
    (fun tasks ->
      for i = 0 to Array.length tasks - 2 do
        let u = tasks.(i) and v = tasks.(i + 1) in
        extra_succ.(u) <- v :: extra_succ.(u);
        indeg.(v) <- indeg.(v) + 1
      done)
    order;
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr seen;
    let release w =
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then Queue.add w queue
    in
    Array.iter (fun (w, _) -> release w) (Dag.Graph.succs graph v);
    List.iter release extra_succ.(v)
  done;
  if !seen <> n then
    invalid_arg "Schedule.make: processor orders conflict with precedence (deadlock)"

let make ~graph ~n_procs ~proc_of ~order =
  let n = Dag.Graph.n_tasks graph in
  if n_procs <= 0 then invalid_arg "Schedule.make: n_procs must be positive";
  if Array.length proc_of <> n then invalid_arg "Schedule.make: proc_of has wrong length";
  if Array.length order <> n_procs then
    invalid_arg "Schedule.make: order must have one row per processor";
  Array.iter
    (fun p -> if p < 0 || p >= n_procs then invalid_arg "Schedule.make: processor out of range")
    proc_of;
  let pos_in_proc = Array.make n (-1) in
  Array.iteri
    (fun p tasks ->
      Array.iteri
        (fun i v ->
          if v < 0 || v >= n then invalid_arg "Schedule.make: task out of range";
          if pos_in_proc.(v) <> -1 then invalid_arg "Schedule.make: task scheduled twice";
          if proc_of.(v) <> p then
            invalid_arg "Schedule.make: order row disagrees with proc_of";
          pos_in_proc.(v) <- i)
        tasks)
    order;
  Array.iteri
    (fun v pos -> if pos = -1 then invalid_arg (Printf.sprintf "Schedule.make: task %d unscheduled" v))
    pos_in_proc;
  check_acyclic graph order;
  { graph; n_procs; proc_of = Array.copy proc_of; order = Array.map Array.copy order; pos_in_proc }

let of_assignment_sequence ~graph ~n_procs picks =
  let n = Dag.Graph.n_tasks graph in
  let proc_of = Array.make n (-1) in
  let rev_orders = Array.make n_procs [] in
  List.iter
    (fun (task, proc) ->
      if task < 0 || task >= n then
        invalid_arg "Schedule.of_assignment_sequence: task out of range";
      if proc < 0 || proc >= n_procs then
        invalid_arg "Schedule.of_assignment_sequence: processor out of range";
      if proc_of.(task) <> -1 then
        invalid_arg "Schedule.of_assignment_sequence: task scheduled twice";
      proc_of.(task) <- proc;
      rev_orders.(proc) <- task :: rev_orders.(proc))
    picks;
  let order = Array.map (fun l -> Array.of_list (List.rev l)) rev_orders in
  make ~graph ~n_procs ~proc_of ~order

(* Re-check the representation invariants of an already-built value:
   every task assigned exactly once, each order row consistent with
   proc_of (per-processor exclusivity), and precedence respected (the
   eager execution exists). [make] enforces all of this at construction;
   [validate] guards against later internal mutation and gives test
   helpers a single oracle. *)
let validate t =
  try
    let n = Dag.Graph.n_tasks t.graph in
    if Array.length t.proc_of <> n then invalid_arg "Schedule.validate: proc_of length";
    if Array.length t.order <> t.n_procs then
      invalid_arg "Schedule.validate: order must have one row per processor";
    let seen = Array.make n false in
    Array.iteri
      (fun p tasks ->
        Array.iteri
          (fun i v ->
            if v < 0 || v >= n then invalid_arg "Schedule.validate: task out of range";
            if seen.(v) then invalid_arg "Schedule.validate: task scheduled twice";
            seen.(v) <- true;
            if t.proc_of.(v) <> p then
              invalid_arg "Schedule.validate: order row disagrees with proc_of";
            if t.pos_in_proc.(v) <> i then
              invalid_arg "Schedule.validate: stale position index")
          tasks)
      t.order;
    Array.iteri
      (fun v s ->
        if not s then invalid_arg (Printf.sprintf "Schedule.validate: task %d unscheduled" v))
      seen;
    check_acyclic t.graph t.order;
    Ok ()
  with Invalid_argument msg -> Error msg

(* A one-move neighbor: remove [task] from its processor's order row and
   insert it into [to_]'s row (at [at], default append). Only the two
   affected rows are rebuilt; all other rows, [graph], and the untouched
   prefix of the invariants are shared with the original value — this is
   the cheap patched constructor behind [Sched.Neighbor] and
   [Engine.reevaluate_any]. Acyclicity must still be re-checked (a move can
   create an order/precedence deadlock), which is O(V+E) scalar work. *)
let reassign ?at t ~task ~to_ =
  let n = Dag.Graph.n_tasks t.graph in
  if task < 0 || task >= n then invalid_arg "Schedule.reassign: task out of range";
  if to_ < 0 || to_ >= t.n_procs then
    invalid_arg "Schedule.reassign: processor out of range";
  let from = t.proc_of.(task) in
  let removed =
    let row = t.order.(from) in
    let out = Array.make (Array.length row - 1) 0 in
    let j = ref 0 in
    Array.iter
      (fun v ->
        if v <> task then begin
          out.(!j) <- v;
          incr j
        end)
      row;
    out
  in
  let insert row =
    let len = Array.length row in
    let pos =
      match at with
      | None -> len
      | Some p ->
        if p < 0 || p > len then invalid_arg "Schedule.reassign: position out of range";
        p
    in
    let out = Array.make (len + 1) task in
    Array.blit row 0 out 0 pos;
    Array.blit row pos out (pos + 1) (len - pos);
    out
  in
  let order = Array.copy t.order in
  order.(from) <- removed;
  (* same-proc moves insert into the already-shrunk row, so [at] always
     indexes the row without [task] in it *)
  order.(to_) <- insert order.(to_);
  let proc_of = Array.copy t.proc_of in
  proc_of.(task) <- to_;
  let pos_in_proc = Array.copy t.pos_in_proc in
  Array.iteri (fun i v -> pos_in_proc.(v) <- i) order.(from);
  Array.iteri (fun i v -> pos_in_proc.(v) <- i) order.(to_);
  check_acyclic t.graph order;
  { t with proc_of; order; pos_in_proc }

(* Exchange two tasks' (processor, position) slots. Like [reassign] this
   rebuilds only the affected order rows (one row when the tasks share a
   processor, two otherwise) and re-checks acyclicity — a swap can
   deadlock the eager execution just like a reassign can. *)
let swap t ~a ~b =
  let n = Dag.Graph.n_tasks t.graph in
  if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Schedule.swap: task out of range";
  if a = b then invalid_arg "Schedule.swap: tasks must differ";
  let pa = t.proc_of.(a) and pb = t.proc_of.(b) in
  let order = Array.copy t.order in
  if pa = pb then begin
    let row = Array.copy t.order.(pa) in
    row.(t.pos_in_proc.(a)) <- b;
    row.(t.pos_in_proc.(b)) <- a;
    order.(pa) <- row
  end
  else begin
    order.(pa) <- Array.map (fun v -> if v = a then b else v) t.order.(pa);
    order.(pb) <- Array.map (fun v -> if v = b then a else v) t.order.(pb)
  end;
  let proc_of = Array.copy t.proc_of in
  proc_of.(a) <- pb;
  proc_of.(b) <- pa;
  let pos_in_proc = Array.copy t.pos_in_proc in
  pos_in_proc.(a) <- t.pos_in_proc.(b);
  pos_in_proc.(b) <- t.pos_in_proc.(a);
  check_acyclic t.graph order;
  { t with proc_of; order; pos_in_proc }

let proc_pred t v =
  let pos = t.pos_in_proc.(v) in
  if pos = 0 then None else Some t.order.(t.proc_of.(v)).(pos - 1)

let proc_succ t v =
  let row = t.order.(t.proc_of.(v)) in
  let pos = t.pos_in_proc.(v) in
  if pos + 1 >= Array.length row then None else Some row.(pos + 1)

let n_tasks t = Dag.Graph.n_tasks t.graph

let to_string t =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun p tasks ->
      Buffer.add_string buf (Printf.sprintf "p%d:" p);
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) tasks;
      Buffer.add_char buf '\n')
    t.order;
  Buffer.contents buf
