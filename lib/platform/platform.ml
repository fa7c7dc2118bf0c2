type proc = int

type t = {
  etc : float array array; (* n × m *)
  tau : float array array; (* m × m, zero diagonal *)
  latency : float array array; (* m × m, zero diagonal *)
}

let check_square name m a =
  if Array.length a <> m then invalid_arg ("Platform.make: " ^ name ^ " must be m x m");
  Array.iteri
    (fun i row ->
      if Array.length row <> m then invalid_arg ("Platform.make: " ^ name ^ " must be m x m");
      if row.(i) <> 0. then invalid_arg ("Platform.make: " ^ name ^ " diagonal must be 0");
      Array.iter
        (fun v ->
          if v < 0. || not (Float.is_finite v) then
            invalid_arg ("Platform.make: " ^ name ^ " entries must be finite and >= 0"))
        row)
    a

let make ~etc ~tau ~latency =
  let n = Array.length etc in
  if n = 0 then invalid_arg "Platform.make: ETC matrix has no tasks";
  let m = Array.length etc.(0) in
  if m = 0 then invalid_arg "Platform.make: ETC matrix has no processors";
  Array.iter
    (fun row ->
      if Array.length row <> m then invalid_arg "Platform.make: ragged ETC matrix";
      Array.iter
        (fun v ->
          if v <= 0. || not (Float.is_finite v) then
            invalid_arg "Platform.make: computation times must be finite and > 0")
        row)
    etc;
  check_square "tau" m tau;
  check_square "latency" m latency;
  { etc; tau; latency }

let n_procs t = Array.length t.tau
let n_tasks t = Array.length t.etc

let etc t ~task ~proc = t.etc.(task).(proc)

let comm_time t ~src ~dst ~volume =
  if src = dst then 0. else t.latency.(src).(dst) +. (volume *. t.tau.(src).(dst))

let tau t ~src ~dst = t.tau.(src).(dst)
let latency t ~src ~dst = t.latency.(src).(dst)

let mean_etc t ~task =
  let row = t.etc.(task) in
  Array.fold_left ( +. ) 0. row /. float_of_int (Array.length row)

let mean_offdiag a =
  let m = Array.length a in
  if m <= 1 then 0.
  else begin
    let s = ref 0. in
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        if i <> j then s := !s +. a.(i).(j)
      done
    done;
    !s /. float_of_int (m * (m - 1))
  end

let mean_tau t = mean_offdiag t.tau
let mean_latency t = mean_offdiag t.latency

let best_proc t ~task =
  let row = t.etc.(task) in
  let best = ref 0 in
  for p = 1 to Array.length row - 1 do
    if row.(p) < row.(!best) then best := p
  done;
  !best

module Gen = struct
  let homogeneous_matrix ~m ~value =
    Array.init m (fun i -> Array.init m (fun j -> if i = j then 0. else value))

  let check_counts n_tasks n_procs =
    if n_tasks <= 0 then invalid_arg "Platform.Gen: n_tasks must be positive";
    if n_procs <= 0 then invalid_arg "Platform.Gen: n_procs must be positive"

  let cvb ~rng ~n_tasks ~n_procs ~mu_task ~v_task ~v_mach ?(tau = 1.0) ?(latency = 0.) () =
    check_counts n_tasks n_procs;
    if mu_task <= 0. then invalid_arg "Platform.Gen.cvb: mu_task must be positive";
    if v_task < 0. || v_mach < 0. then invalid_arg "Platform.Gen.cvb: negative cv";
    let etc =
      Array.init n_tasks (fun _ ->
          let q = Prng.Sampler.gamma_mean_cv rng ~mean:mu_task ~cv:v_task in
          (* Gamma can produce values arbitrarily close to 0; floor them
             so computation times stay strictly positive. *)
          let q = Float.max (mu_task /. 1000.) q in
          Array.init n_procs (fun _ ->
              Float.max (mu_task /. 1000.)
                (Prng.Sampler.gamma_mean_cv rng ~mean:q ~cv:v_mach)))
    in
    make ~etc
      ~tau:(homogeneous_matrix ~m:n_procs ~value:tau)
      ~latency:(homogeneous_matrix ~m:n_procs ~value:latency)

  let uniform_minval ~rng ~n_tasks ~n_procs ?(minval_lo = 10.) ?(minval_hi = 30.)
      ?(tau = 1.0) ?(latency = 0.) () =
    check_counts n_tasks n_procs;
    if minval_lo <= 0. || minval_hi < minval_lo then
      invalid_arg "Platform.Gen.uniform_minval: need 0 < minval_lo <= minval_hi";
    let etc =
      Array.init n_tasks (fun _ ->
          let minval = Prng.Sampler.uniform rng ~lo:minval_lo ~hi:minval_hi in
          Array.init n_procs (fun _ ->
              Prng.Sampler.uniform rng ~lo:minval ~hi:(2. *. minval)))
    in
    make ~etc
      ~tau:(homogeneous_matrix ~m:n_procs ~value:tau)
      ~latency:(homogeneous_matrix ~m:n_procs ~value:latency)

  let heterogeneous_network ~rng ~tau_lo ~tau_hi p =
    if tau_lo < 0. || tau_hi < tau_lo then
      invalid_arg "Platform.Gen.heterogeneous_network: need 0 <= tau_lo <= tau_hi";
    let m = n_procs p in
    let draw lo hi = if hi > lo then Prng.Sampler.uniform rng ~lo ~hi else lo in
    let tau =
      Array.init m (fun i ->
          Array.init m (fun j -> if i = j then 0. else draw tau_lo tau_hi))
    in
    let n = n_tasks p in
    let etc = Array.init n (fun i -> Array.init m (fun j -> etc p ~task:i ~proc:j)) in
    make ~etc ~tau ~latency:(homogeneous_matrix ~m ~value:0.)
end
