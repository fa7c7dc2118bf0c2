let default_fmt v = if Float.is_nan v then "  n/a " else Printf.sprintf "%+.3f" v

let check_square labels m =
  let k = Array.length labels in
  if Array.length m <> k then invalid_arg "Matrix_render: size mismatch";
  Array.iter
    (fun row -> if Array.length row <> k then invalid_arg "Matrix_render: ragged matrix")
    m;
  k

let pad width s =
  let n = String.length s in
  if n >= width then s else String.make (width - n) ' ' ^ s

let render_cells ~labels cells =
  let k = Array.length labels in
  let width =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun acc c -> Int.max acc (String.length c)) acc row)
      (Array.fold_left (fun acc l -> Int.max acc (String.length l)) 0 labels)
      cells
  in
  let buf = Buffer.create ((k + 1) * (k + 1) * (width + 2)) in
  Buffer.add_string buf (String.make (width + 2) ' ');
  Array.iter
    (fun l ->
      Buffer.add_string buf (pad width l);
      Buffer.add_string buf "  ")
    labels;
  Buffer.add_char buf '\n';
  for i = 0 to k - 1 do
    Buffer.add_string buf (pad width labels.(i));
    Buffer.add_string buf "  ";
    for j = 0 to k - 1 do
      Buffer.add_string buf (pad width cells.(i).(j));
      Buffer.add_string buf "  "
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let render ~labels m =
  let _k = check_square labels m in
  render_cells ~labels (Array.map (Array.map default_fmt) m)

let render_mean_std ~labels mean std =
  let k = check_square labels mean in
  ignore (check_square labels std);
  let cells =
    Array.init k (fun i ->
        Array.init k (fun j ->
            if i = j then Printf.sprintf "[%s]" labels.(i)
            else if i < j then default_fmt mean.(i).(j)
            else default_fmt std.(i).(j)))
  in
  render_cells ~labels cells

let to_csv ~labels m =
  let k = check_square labels m in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("," ^ String.concat "," (Array.to_list labels) ^ "\n");
  for i = 0 to k - 1 do
    Buffer.add_string buf labels.(i);
    for j = 0 to k - 1 do
      Buffer.add_string buf (Printf.sprintf ",%.6f" m.(i).(j))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
