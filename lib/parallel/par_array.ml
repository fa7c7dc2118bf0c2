let init ?pool ?(chunk_size = 64) n f =
  if n < 0 then invalid_arg "Par_array.init: negative size";
  if chunk_size <= 0 then invalid_arg "Par_array.init: chunk_size must be positive";
  if n = 0 then [||]
  else begin
    (* each chunk builds its own slice: one shared output array would need
       a seed value, i.e. an index evaluated before the fan-out *)
    let chunks = (n + chunk_size - 1) / chunk_size in
    let parts = Array.make chunks [||] in
    Pool.run ?pool ~chunks (fun c ->
        let lo = c * chunk_size in
        parts.(c) <- Array.init (Int.min n (lo + chunk_size) - lo) (fun j -> f (lo + j)));
    Array.concat (Array.to_list parts)
  end
