(** Experimental cases: a (graph kind × size × platform × uncertainty
    level) combination, reproducibly derived from a seed (§V). *)

type graph_kind =
  | Random_graph
  | Cholesky
  | Gauss_elim

type t = {
  id : string;
  kind : graph_kind;
  n_target : int;  (** requested task count (structured graphs hit the closest realizable size) *)
  n_procs : int;
  ul : float;
  seed : int64;
  paper_schedules : int;  (** random schedules at paper scale *)
}

val max_ul : float
(** Largest uncertainty level the CLI and the service accept (100). *)

val ul_in_range : float -> bool
(** [ul_in_range ul] holds iff [1 ≤ ul ≤ max_ul] (false for NaN). *)

val make :
  ?id:string ->
  ?seed:int64 ->
  ?n_procs:int ->
  ?paper_schedules:int ->
  kind:graph_kind ->
  n_target:int ->
  ul:float ->
  unit ->
  t
(** Defaults follow the paper: processors 3/8/16 for ≈10/30/≥100 tasks;
    10 000 random schedules (2 000 when n ≥ 100); id derived from the
    parameters. Raises [Invalid_argument] unless [n_target] and
    [n_procs] are positive and [ul] is finite and [>= 1]. *)

type instance = {
  case : t;
  graph : Dag.Graph.t;
  platform : Platform.t;
  model : Workloads.Stochastify.t;
}

val instantiate : t -> instance
(** Materialize the DAG, platform and uncertainty model from the case
    seed. Random graphs use the §V parameters (CCR 0.1, μ_task 20,
    V_task = V_mach = 0.5, CVB platform); Cholesky/Gaussian-elimination
    graphs use the uniform-minval platform of the real-application setup. *)

val paper_cases : unit -> t list
(** The 24 cases behind Fig. 6: {random, Cholesky, GE} × n ∈ {10, 30,
    100} × UL ∈ {1.01, 1.1}, plus six extra random-graph seeds. *)

val kind_name : graph_kind -> string
