type graph_kind =
  | Random_graph
  | Cholesky
  | Gauss_elim

type t = {
  id : string;
  kind : graph_kind;
  n_target : int;
  n_procs : int;
  ul : float;
  seed : int64;
  paper_schedules : int;
}

let kind_name = function
  | Random_graph -> "random"
  | Cholesky -> "cholesky"
  | Gauss_elim -> "gauss-elim"

let default_procs n = if n < 20 then 3 else if n < 100 then 8 else 16

let max_ul = 100.
let ul_in_range ul = ul >= 1. && ul <= max_ul

let make ?id ?(seed = 1L) ?n_procs ?paper_schedules ~kind ~n_target ~ul () =
  if n_target <= 0 then invalid_arg "Case.make: n_target must be positive";
  if not (Float.is_finite ul && ul >= 1.) then
    invalid_arg "Case.make: UL must be finite and >= 1";
  let n_procs = Option.value n_procs ~default:(default_procs n_target) in
  if n_procs <= 0 then invalid_arg "Case.make: n_procs must be positive";
  let paper_schedules =
    Option.value paper_schedules ~default:(if n_target >= 100 then 2000 else 10000)
  in
  let id =
    Option.value id
      ~default:
        (Printf.sprintf "%s-n%d-p%d-ul%g-s%Ld" (kind_name kind) n_target n_procs ul seed)
  in
  { id; kind; n_target; n_procs; ul; seed; paper_schedules }

(* closest realizable size for the structured graphs *)
let closest_param ~target ~count lo hi =
  let best = ref lo and best_diff = ref max_int in
  for p = lo to hi do
    let d = abs (count p - target) in
    if d < !best_diff then begin
      best := p;
      best_diff := d
    end
  done;
  !best

type instance = {
  case : t;
  graph : Dag.Graph.t;
  platform : Platform.t;
  model : Workloads.Stochastify.t;
}

let build_graph case rng =
  match case.kind with
  | Random_graph ->
    (* §V's generator is quadratically dense; cap the out-degree on very
       large graphs (n = 1000 is "indication only" in the paper) *)
    let max_out_degree = if case.n_target > 300 then Some 16 else None in
    Workloads.Random_dag.generate ~rng ~n:case.n_target ?max_out_degree ()
  | Cholesky ->
    let tiles =
      closest_param ~target:case.n_target
        ~count:(fun b -> Workloads.Cholesky.n_tasks ~tiles:b)
        1 40
    in
    Workloads.Cholesky.generate ~tiles ()
  | Gauss_elim ->
    let n =
      closest_param ~target:case.n_target
        ~count:(fun n -> Workloads.Gauss_elim.n_tasks ~n)
        2 60
    in
    Workloads.Gauss_elim.generate ~n ()

let instantiate case =
  let rng = Prng.Xoshiro.create case.seed in
  let graph = build_graph case rng in
  let n_tasks = Dag.Graph.n_tasks graph in
  let platform =
    match case.kind with
    | Random_graph ->
      Platform.Gen.cvb ~rng ~n_tasks ~n_procs:case.n_procs ~mu_task:20. ~v_task:0.5
        ~v_mach:0.5 ()
    | Cholesky | Gauss_elim ->
      Platform.Gen.uniform_minval ~rng ~n_tasks ~n_procs:case.n_procs ()
  in
  let model = Workloads.Stochastify.make ~ul:case.ul () in
  { case; graph; platform; model }

let paper_cases () =
  let base =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun n_target ->
            List.map (fun ul -> make ~kind ~n_target ~ul ()) [ 1.01; 1.1 ])
          [ 10; 30; 100 ])
      [ Random_graph; Cholesky; Gauss_elim ]
  in
  (* six extra random-graph seeds, as the paper generated several random
     graphs per size *)
  let extras =
    List.concat_map
      (fun n_target ->
        List.map
          (fun seed -> make ~kind:Random_graph ~n_target ~ul:1.1 ~seed ())
          [ 2L; 3L ])
      [ 10; 30; 100 ]
  in
  base @ extras
