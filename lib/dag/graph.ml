type task = int

type t = {
  n : int;
  succs : (task * float) array array;
  preds : (task * float) array array;
  topo : task array;
  n_edges : int;
}

let compute_topo ~n ~succs ~preds =
  (* Kahn's algorithm; raises on cycles. *)
  let indeg = Array.map Array.length preds in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!filled) <- v;
    incr filled;
    Array.iter
      (fun (w, _) ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      succs.(v)
  done;
  if !filled <> n then invalid_arg "Dag.Graph: graph has a cycle";
  order

let of_adjacency ~succs ~preds =
  let n = Array.length succs in
  let topo = compute_topo ~n ~succs ~preds in
  let n_edges = Array.fold_left (fun acc row -> acc + Array.length row) 0 succs in
  { n; succs; preds; topo; n_edges }

let make ~n ~edges =
  if n <= 0 then invalid_arg "Dag.Graph.make: need at least one task";
  let succ_lists = Array.make n [] and pred_lists = Array.make n [] in
  let seen = Hashtbl.create (List.length edges) in
  List.iter
    (fun (src, dst, vol) ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "Dag.Graph.make: edge endpoint out of range";
      if src = dst then invalid_arg "Dag.Graph.make: self-loop";
      if vol < 0. || not (Float.is_finite vol) then
        invalid_arg "Dag.Graph.make: communication volume must be finite and >= 0";
      if Hashtbl.mem seen (src, dst) then invalid_arg "Dag.Graph.make: duplicate edge";
      Hashtbl.add seen (src, dst) ();
      succ_lists.(src) <- (dst, vol) :: succ_lists.(src);
      pred_lists.(dst) <- (src, vol) :: pred_lists.(dst))
    edges;
  let by_task (a, _) (b, _) = Int.compare a b in
  let to_sorted_array l =
    let a = Array.of_list l in
    Array.sort by_task a;
    a
  in
  of_adjacency ~succs:(Array.map to_sorted_array succ_lists)
    ~preds:(Array.map to_sorted_array pred_lists)

let n_tasks t = t.n
let n_edges t = t.n_edges
let succs t v = t.succs.(v)
let preds t v = t.preds.(v)

let volume t ~src ~dst =
  let arr = t.succs.(src) in
  let rec find i =
    if i >= Array.length arr then None
    else
      let v, vol = arr.(i) in
      if v = dst then Some vol else find (i + 1)
  in
  find 0

let has_edge t ~src ~dst = Option.is_some (volume t ~src ~dst)

let edges t =
  let out = Array.make t.n_edges (0, 0, 0.) in
  let k = ref 0 in
  for src = 0 to t.n - 1 do
    Array.iter
      (fun (dst, vol) ->
        out.(!k) <- (src, dst, vol);
        incr k)
      t.succs.(src)
  done;
  out

let entries t =
  let l = ref [] in
  for v = t.n - 1 downto 0 do
    if Array.length t.preds.(v) = 0 then l := v :: !l
  done;
  Array.of_list !l

let exits t =
  let l = ref [] in
  for v = t.n - 1 downto 0 do
    if Array.length t.succs.(v) = 0 then l := v :: !l
  done;
  Array.of_list !l

let topo_order t = t.topo
