type kind =
  | Pivot of int
  | Update of int * int

let check n = if n < 2 then invalid_arg "Gauss_elim: n must be >= 2"

let n_tasks ~n =
  check n;
  (n - 1) + (n * (n - 1) / 2)

(* canonical order: step by step, pivot first then updates left to right *)
let kinds ~n =
  check n;
  let acc = ref [] in
  for k = n - 1 downto 1 do
    let step = ref [ Pivot k ] in
    for j = k + 1 to n do
      step := !step @ [ Update (k, j) ]
    done;
    acc := !step @ !acc
  done;
  !acc

let index_table ~n =
  let table = Hashtbl.create 64 in
  List.iteri (fun i k -> Hashtbl.add table k i) (kinds ~n);
  table

let generate ~n ?(volume = 20.0) () =
  check n;
  if volume < 0. then invalid_arg "Gauss_elim.generate: volume must be >= 0";
  let table = index_table ~n in
  let id k = Hashtbl.find table k in
  let edges = ref [] in
  let add src dst = edges := (id src, id dst, volume) :: !edges in
  for k = 1 to n - 1 do
    for j = k + 1 to n do
      (* the pivot feeds every update of its step *)
      add (Pivot k) (Update (k, j));
      (* each updated column flows to the next step *)
      if k < n - 1 then
        if j = k + 1 then add (Update (k, j)) (Pivot (k + 1))
        else add (Update (k, j)) (Update (k + 1, j))
    done
  done;
  Dag.Graph.make ~n:(n_tasks ~n) ~edges:!edges
