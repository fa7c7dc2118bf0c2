(* The four state words s0..s3 live unboxed in 32 bytes: a record of
   mutable int64 fields would box a fresh int64 on every write. *)
type t = Bytes.t

let get t i = Bytes.get_int64_ne t (8 * i)
let set t i x = Bytes.set_int64_ne t (8 * i) x

let of_splitmix sm =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (Splitmix.next sm)
  done;
  (* An all-zero state is the single forbidden point of xoshiro; SplitMix64
     cannot emit four consecutive zeros, but guard anyway. *)
  if Bytes.for_all (fun c -> c = '\000') t then set t 0 1L;
  t

let create seed = of_splitmix (Splitmix.create seed)

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 1 (Int64.logxor s1 s2);
  set t 2 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let next_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. 0x1p-53

let rec next_float_pos t =
  let u = next_float t in
  if u > 0. then u else next_float_pos t

let int t bound =
  if bound <= 0 then invalid_arg "Xoshiro.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (next t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.sub r v > Int64.sub Int64.max_int (Int64.sub bound64 1L) then draw ()
    else Int64.to_int v
  in
  draw ()

let jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            set acc i (Int64.logxor (get acc i) (get t i))
          done;
        ignore (next t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32

let split t =
  let child = Bytes.copy t in
  jump t;
  child
