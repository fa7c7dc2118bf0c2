(* Shared helpers for the test suites. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Float.abs (expected -. actual) <= eps *. Float.max 1. (Float.abs expected)) then
    Alcotest.failf "%s: expected %.10g, got %.10g (eps %.1e)" msg expected actual eps

let check_close_abs ?(eps = 1e-9) msg expected actual =
  if not (Float.abs (expected -. actual) <= eps) then
    Alcotest.failf "%s: expected %.10g, got %.10g (abs eps %.1e)" msg expected actual eps

(* Every property draws its cases from one fixed seed, so each run
   checks the same cases; QCHECK_SEED, when set, picks another. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 1

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qcheck_seed |])
    (QCheck2.Test.make ~count ~name gen prop)

let rng_of_seed seed = Prng.Xoshiro.create (Int64.of_int seed)

(* Single validity oracle for schedules produced in tests. *)
let check_valid ?(msg = "schedule") sched =
  match Sched.Schedule.validate sched with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid schedule: %s" msg e

(* A random DAG generator for property tests: edge (i, j) with i < j
   present with probability [p]. *)
let random_dag_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 12 in
  let* p = float_range 0.1 0.6 in
  let* seed = int_range 0 10000 in
  let rng = rng_of_seed seed in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.Xoshiro.next_float rng < p then begin
        let volume = Prng.Sampler.uniform rng ~lo:0. ~hi:5. in
        edges := (i, j, volume) :: !edges
      end
    done
  done;
  return (Dag.Graph.make ~n ~edges:!edges)

(* A random (graph, platform, schedule) triple. *)
let random_scheduled_gen =
  let open QCheck2.Gen in
  let* graph = random_dag_gen in
  let* n_procs = int_range 1 4 in
  let* seed = int_range 0 10000 in
  let rng = rng_of_seed (seed + 31337) in
  let platform =
    Platform.Gen.uniform_minval ~rng ~n_tasks:(Dag.Graph.n_tasks graph) ~n_procs ()
  in
  let sched = Sched.Random_sched.generate ~rng ~graph ~n_procs in
  check_valid ~msg:"random_scheduled_gen" sched;
  return (graph, platform, sched)

(* --- Makespan evaluation --- *)

(* One schedule through a fresh engine: the production path. *)
let eval ?backend sched platform model =
  Makespan.Engine.eval ?backend
    (Makespan.Engine.create ~graph:sched.Sched.Schedule.graph ~platform ~model)
    sched

(* The uncached reference the engine is checked against: the backend
   cores fed straight from the uncertainty model, with fresh scratch
   arrays and no memo tables. *)
module Reference = struct
  module S = Workloads.Stochastify
  module Np = Distribution.Normal_pair

  let classical sched platform model =
    let points = model.S.points and dgraph = Sched.Disjunctive.graph_of sched in
    let completion =
      Array.make (Sched.Schedule.n_tasks sched) (Distribution.Dist.const 0.)
    in
    Makespan.Classic.makespan_of_exits ~points dgraph
      (Makespan.Classic.completion_dists_with ~points ~dgraph ~completion
         ~task_dist:(S.task_dist model platform) ~comm_dist:(S.comm_dist model platform)
         sched)

  let dodin sched platform model =
    Makespan.Dodin.evaluate_with ~points:model.S.points
      ~dgraph:(Sched.Disjunctive.graph_of sched) ~task_dist:(S.task_dist model platform)
      ~comm_dist:(S.comm_dist model platform) sched

  let spelde_moments sched platform model =
    let dgraph = Sched.Disjunctive.graph_of sched in
    Makespan.Spelde.moments_with ~dgraph
      ~completion:(Array.make (Sched.Schedule.n_tasks sched) (Np.const 0.))
      ~task_moments:(fun ~task ~proc ->
        Np.make ~mean:(S.task_mean model platform ~task ~proc)
          ~std:(S.task_std model platform ~task ~proc))
      ~comm_moments:(fun ~volume ~src ~dst ->
        Np.make ~mean:(S.comm_mean model platform ~volume ~src ~dst)
          ~std:(S.comm_std model platform ~volume ~src ~dst))
      sched

  let eval backend sched platform model =
    match backend with
    | Makespan.Engine.Classical -> classical sched platform model
    | Dodin -> (dodin sched platform model).Makespan.Dodin.dist
    | Spelde -> Np.to_normal ~points:model.S.points (spelde_moments sched platform model)
    | Montecarlo _ -> invalid_arg "Tutil.Reference.eval: analytic backends only"
end

(* [f] on a fresh pool of [domains] domains, shut down afterwards. *)
let with_pool domains f =
  let pool = Parallel.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

(* Frozen fixtures: dune runtest runs with cwd = test/, dune exec from
   the root. *)
let golden_dir () =
  if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s
