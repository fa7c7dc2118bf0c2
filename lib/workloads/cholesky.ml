type kind =
  | Potrf of int
  | Trsm of int * int
  | Update of int * int * int

let check_tiles tiles =
  if tiles <= 0 then invalid_arg "Cholesky: tiles must be positive"

(* all tasks, in a canonical order: per step k, factor then panel then
   trailing update *)
let kinds ~tiles =
  check_tiles tiles;
  let acc = ref [] in
  let push x = acc := x :: !acc in
  for k = 0 to tiles - 1 do
    push (Potrf k);
    for i = k + 1 to tiles - 1 do
      push (Trsm (k, i))
    done;
    for i = k + 1 to tiles - 1 do
      for j = k + 1 to i do
        push (Update (k, i, j))
      done
    done
  done;
  List.rev !acc

(* Step k of a b-tile factorization holds m(m+1)/2 tasks for m = b − k
   (1 factor, m − 1 panel solves, m(m − 1)/2 updates); summed over the
   steps this is the tetrahedral number b(b+1)(b+2)/6. *)
let n_tasks ~tiles =
  check_tiles tiles;
  tiles * (tiles + 1) * (tiles + 2) / 6

let index_table ~tiles =
  let table = Hashtbl.create 64 in
  List.iteri (fun i k -> Hashtbl.add table k i) (kinds ~tiles);
  table

let generate ~tiles ?(volume = 20.0) () =
  check_tiles tiles;
  if volume < 0. then invalid_arg "Cholesky.generate: volume must be >= 0";
  let table = index_table ~tiles in
  let id k = Hashtbl.find table k in
  let edges = ref [] in
  let add src dst = edges := (id src, id dst, volume) :: !edges in
  for k = 0 to tiles - 1 do
    for i = k + 1 to tiles - 1 do
      (* factored diagonal tile feeds the panel solves *)
      add (Potrf k) (Trsm (k, i));
      for j = k + 1 to i do
        (* panel tiles feed the trailing update of tile (i, j) *)
        add (Trsm (k, i)) (Update (k, i, j));
        if j <> i then add (Trsm (k, j)) (Update (k, i, j))
      done
    done;
    (* each updated tile is consumed at step k+1 *)
    for i = k + 1 to tiles - 1 do
      for j = k + 1 to i do
        if i = k + 1 && j = k + 1 then add (Update (k, i, j)) (Potrf (k + 1))
        else if j = k + 1 then add (Update (k, i, j)) (Trsm (k + 1, i))
        else add (Update (k, i, j)) (Update (k + 1, i, j))
      done
    done
  done;
  Dag.Graph.make ~n:(n_tasks ~tiles) ~edges:!edges
