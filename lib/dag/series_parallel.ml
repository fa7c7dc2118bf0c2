type 'w algebra = {
  series : 'w -> 'w -> 'w;
  parallel : 'w -> 'w -> 'w;
}

(* Mutable multigraph: per-node association lists of (neighbour, weight).
   Networks here are small (a few hundred nodes), so list scans are
   cheap next to the distribution arithmetic carried in 'w. *)
type 'w network = {
  n : int;
  source : int;
  sink : int;
  out_edges : (int * 'w) list array;
  in_edges : (int * 'w) list array;
  alive : bool array;
}

let check_validity net =
  (* acyclicity + every node on a source→sink path *)
  let reach_from_source = Array.make net.n false in
  let rec dfs_fwd v =
    if not reach_from_source.(v) then begin
      reach_from_source.(v) <- true;
      List.iter (fun (w, _) -> dfs_fwd w) net.out_edges.(v)
    end
  in
  dfs_fwd net.source;
  let reach_to_sink = Array.make net.n false in
  let rec dfs_bwd v =
    if not reach_to_sink.(v) then begin
      reach_to_sink.(v) <- true;
      List.iter (fun (w, _) -> dfs_bwd w) net.in_edges.(v)
    end
  in
  dfs_bwd net.sink;
  for v = 0 to net.n - 1 do
    if net.alive.(v) && not (reach_from_source.(v) && reach_to_sink.(v)) then
      invalid_arg "Series_parallel: node not on any source-sink path"
  done;
  (* Kahn over alive nodes detects cycles *)
  let indeg = Array.make net.n 0 in
  let alive_count = ref 0 in
  for v = 0 to net.n - 1 do
    if net.alive.(v) then begin
      incr alive_count;
      indeg.(v) <- List.length net.in_edges.(v)
    end
  done;
  let queue = Queue.create () in
  for v = 0 to net.n - 1 do
    if net.alive.(v) && indeg.(v) = 0 then Queue.add v queue
  done;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr seen;
    List.iter
      (fun (w, _) ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      net.out_edges.(v)
  done;
  if !seen <> !alive_count then invalid_arg "Series_parallel: network has a cycle"

let of_edges ~n ~source ~sink edges =
  if n <= 0 then invalid_arg "Series_parallel.of_edges: empty network";
  if source = sink then invalid_arg "Series_parallel.of_edges: source = sink";
  if source < 0 || source >= n || sink < 0 || sink >= n then
    invalid_arg "Series_parallel.of_edges: terminal out of range";
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Series_parallel.of_edges: endpoint out of range";
      if u = v then invalid_arg "Series_parallel.of_edges: self-loop";
      out_edges.(u) <- (v, w) :: out_edges.(u);
      in_edges.(v) <- (u, w) :: in_edges.(v))
    edges;
  let net = { n; source; sink; out_edges; in_edges; alive = Array.make n true } in
  check_validity net;
  net

let of_task_dag g ~task ~edge ~zero =
  let nt = Graph.n_tasks g in
  let start_of v = 2 * v and end_of v = (2 * v) + 1 in
  let source = 2 * nt and sink = (2 * nt) + 1 in
  let edges = ref [] in
  for v = 0 to nt - 1 do
    edges := (start_of v, end_of v, task v) :: !edges
  done;
  (* preds are sorted, so each node's adjacency lists come out in
     (source, destination) order, which the reduction order rests on *)
  for v = 0 to nt - 1 do
    Array.iteri
      (fun k (u, _) -> edges := (end_of u, start_of v, edge v k) :: !edges)
      (Graph.preds g v)
  done;
  Array.iter (fun e -> edges := (source, start_of e, zero) :: !edges) (Graph.entries g);
  Array.iter (fun e -> edges := (end_of e, sink, zero) :: !edges) (Graph.exits g);
  of_edges ~n:((2 * nt) + 2) ~source ~sink !edges

type 'w result = { weight : 'w; duplications : int }

let remove_edge lst node =
  (* remove the first edge to/from [node] *)
  let rec go acc = function
    | [] -> invalid_arg "Series_parallel: internal — edge not found"
    | (x, _) :: rest when x = node -> List.rev_append acc rest
    | e :: rest -> go (e :: acc) rest
  in
  go [] lst

let add_edge net u v w =
  net.out_edges.(u) <- (v, w) :: net.out_edges.(u);
  net.in_edges.(v) <- (u, w) :: net.in_edges.(v)

(* merge all parallel out-edges of [u]; returns true if anything merged *)
let parallel_merge_node alg net u =
  let by_dst = Hashtbl.create 8 in
  let changed = ref false in
  List.iter
    (fun (v, w) ->
      match Hashtbl.find_opt by_dst v with
      | None -> Hashtbl.add by_dst v w
      | Some w0 ->
        changed := true;
        Hashtbl.replace by_dst v (alg.parallel w0 w))
    net.out_edges.(u);
  if !changed then begin
    let merged = Hashtbl.fold (fun v w acc -> (v, w) :: acc) by_dst [] in
    (* rebuild u's out list and each destination's in list *)
    List.iter
      (fun (v, _) ->
        net.in_edges.(v) <- List.filter (fun (x, _) -> x <> u) net.in_edges.(v))
      net.out_edges.(u);
    net.out_edges.(u) <- [];
    List.iter (fun (v, w) -> add_edge net u v w) merged
  end;
  !changed

let series_merge_node alg net v =
  match (net.in_edges.(v), net.out_edges.(v)) with
  | [ (u, win) ], [ (x, wout) ] when v <> net.source && v <> net.sink ->
    net.out_edges.(u) <- remove_edge net.out_edges.(u) v;
    net.in_edges.(x) <- remove_edge net.in_edges.(x) v;
    net.in_edges.(v) <- [];
    net.out_edges.(v) <- [];
    net.alive.(v) <- false;
    add_edge net u x (alg.series win wout);
    true
  | _ -> false

let fixpoint alg net =
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to net.n - 1 do
      if net.alive.(v) then begin
        if parallel_merge_node alg net v then changed := true;
        if series_merge_node alg net v then changed := true
      end
    done
  done

let reduced net =
  match net.out_edges.(net.source) with
  | [ (v, w) ] when v = net.sink ->
    let interior_alive = ref false in
    for u = 0 to net.n - 1 do
      if net.alive.(u) && u <> net.source && u <> net.sink then interior_alive := true
    done;
    if !interior_alive then None else Some w
  | _ -> None

(* topologically first alive interior node (all alive predecessors already
   popped means its preds can only be the source once parallel merging has
   collapsed multi-edges) *)
let first_interior net =
  let indeg = Array.make net.n 0 in
  for v = 0 to net.n - 1 do
    if net.alive.(v) then indeg.(v) <- List.length net.in_edges.(v)
  done;
  let queue = Queue.create () in
  for v = 0 to net.n - 1 do
    if net.alive.(v) && indeg.(v) = 0 then Queue.add v queue
  done;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if v <> net.source && v <> net.sink then found := Some v
    else
      List.iter
        (fun (w, _) ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then Queue.add w queue)
        net.out_edges.(v)
  done;
  !found

let duplicate_node alg net v =
  match net.in_edges.(v) with
  | [ (u, win) ] ->
    let outs = net.out_edges.(v) in
    net.out_edges.(u) <- remove_edge net.out_edges.(u) v;
    List.iter
      (fun (x, _) -> net.in_edges.(x) <- List.filter (fun (y, _) -> y <> v) net.in_edges.(x))
      outs;
    net.in_edges.(v) <- [];
    net.out_edges.(v) <- [];
    net.alive.(v) <- false;
    List.iter (fun (x, wout) -> add_edge net u x (alg.series win wout)) outs
  | ins ->
    invalid_arg
      (Printf.sprintf "Series_parallel: duplication needs in-degree 1, got %d"
         (List.length ins))

let reduce alg net =
  let duplications = ref 0 in
  let rec loop () =
    fixpoint alg net;
    match reduced net with
    | Some w -> { weight = w; duplications = !duplications }
    | None -> (
      match first_interior net with
      | Some v ->
        duplicate_node alg net v;
        incr duplications;
        loop ()
      | None -> invalid_arg "Series_parallel.reduce: irreducible network")
  in
  loop ()

let is_series_parallel net =
  let alg = { series = (fun () () -> ()); parallel = (fun () () -> ()) } in
  (* strip weights so reduction is cheap *)
  let unit_net =
    {
      n = net.n;
      source = net.source;
      sink = net.sink;
      out_edges = Array.map (List.map (fun (v, _) -> (v, ()))) net.out_edges;
      in_edges = Array.map (List.map (fun (v, _) -> (v, ()))) net.in_edges;
      alive = Array.copy net.alive;
    }
  in
  fixpoint alg unit_net;
  Option.is_some (reduced unit_net)
