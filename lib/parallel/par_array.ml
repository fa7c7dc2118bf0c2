let init ?pool ?(chunk_size = 64) n f =
  if n < 0 then invalid_arg "Par_array.init: negative size";
  if chunk_size <= 0 then invalid_arg "Par_array.init: chunk_size must be positive";
  if n = 0 then [||]
  else begin
    let first = f 0 in
    let out = Array.make n first in
    let chunks = (n + chunk_size - 1) / chunk_size in
    Pool.run ?pool ~chunks (fun c ->
        let lo = c * chunk_size in
        let hi = Int.min n (lo + chunk_size) in
        let lo = if c = 0 then 1 else lo (* index 0 already computed *) in
        for i = lo to hi - 1 do
          out.(i) <- f i
        done);
    out
  end

let map ?pool ?chunk_size f a =
  init ?pool ?chunk_size (Array.length a) (fun i -> f a.(i))
