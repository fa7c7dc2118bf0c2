type weights = {
  task : Graph.task -> float;
  edge : Graph.task -> Graph.task -> float -> float;
}

let top_levels g w =
  let n = Graph.n_tasks g in
  let tl = Array.make n 0. in
  Array.iter
    (fun v ->
      let best = ref 0. in
      Array.iter
        (fun (p, volume) ->
          let via = tl.(p) +. w.task p +. w.edge p v volume in
          if via > !best then best := via)
        (Graph.preds g v);
      tl.(v) <- !best)
    (Graph.topo_order g);
  tl

let bottom_levels g w =
  let n = Graph.n_tasks g in
  let bl = Array.make n 0. in
  let topo = Graph.topo_order g in
  for i = n - 1 downto 0 do
    let v = topo.(i) in
    let best = ref 0. in
    Array.iter
      (fun (s, volume) ->
        let via = w.edge v s volume +. bl.(s) in
        if via > !best then best := via)
      (Graph.succs g v);
    bl.(v) <- w.task v +. !best
  done;
  bl

let makespan g w =
  let bl = bottom_levels g w in
  Array.fold_left (fun acc e -> Float.max acc bl.(e)) 0. (Graph.entries g)

let slacks g w =
  let tl = top_levels g w in
  let bl = bottom_levels g w in
  let m = Array.fold_left (fun acc e -> Float.max acc bl.(e)) 0. (Graph.entries g) in
  Array.init (Graph.n_tasks g) (fun i -> Float.max 0. (m -. bl.(i) -. tl.(i)))

let critical_path g w =
  let bl = bottom_levels g w in
  let start =
    let entries = Graph.entries g in
    let best = ref entries.(0) in
    Array.iter (fun e -> if bl.(e) > bl.(!best) then best := e) entries;
    !best
  in
  (* follow, from [start], the successor that realizes the bottom level *)
  let rec walk v acc =
    let acc = v :: acc in
    let next = ref None in
    Array.iter
      (fun (s, volume) ->
        let via = w.task v +. w.edge v s volume +. bl.(s) in
        if Float.abs (via -. bl.(v)) <= 1e-9 *. Float.max 1. (Float.abs bl.(v)) then
          match !next with
          | Some best when bl.(s) <= bl.(best) -> ()
          | _ -> next := Some s)
      (Graph.succs g v);
    match !next with None -> List.rev acc | Some s -> walk s acc
  in
  walk start []
