let to_dot ?(name = "dag") ?task_label g =
  let task_label = Option.value task_label ~default:(Printf.sprintf "t%d") in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for v = 0 to Graph.n_tasks g - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v (task_label v))
  done;
  Array.iter
    (fun (u, v, vol) ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [label=\"%g\"];\n" u v vol))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
