(** Heterogeneous target platforms (§II of the paper).

    A platform is a set of [m] processors with
    - an {e ETC matrix} [etc.(task).(proc)] giving each task's minimum
      computation time on each processor (the unrelated-machines model),
    - per-pair transfer times [τ.(p).(q)] (time per data element) and
      latencies [l.(p).(q)], both zero on the diagonal so co-located tasks
      communicate for free. *)

type proc = int

type t

val make :
  etc:float array array ->
  tau:float array array ->
  latency:float array array ->
  t
(** [make ~etc ~tau ~latency] validates shapes ([etc] is n×m, [tau] and
    [latency] are m×m with zero diagonals) and positivity. *)

val n_procs : t -> int
val n_tasks : t -> int

val etc : t -> task:int -> proc:proc -> float
(** Minimum computation time of [task] on [proc]. *)

val comm_time : t -> src:proc -> dst:proc -> volume:float -> float
(** [latency + volume·τ]; exactly 0 when [src = dst]. *)

val tau : t -> src:proc -> dst:proc -> float
val latency : t -> src:proc -> dst:proc -> float

val mean_etc : t -> task:int -> float
(** Average of a task's row — the averaged cost used by HEFT ranks. *)

val mean_tau : t -> float
(** Average off-diagonal τ (0 when [m = 1]). *)

val mean_latency : t -> float
(** Average off-diagonal latency (0 when [m = 1]). *)

val best_proc : t -> task:int -> proc
(** Processor minimizing the task's ETC (ties to the lowest index). *)

(** Random platform generators.

    Two ETC generators cover the paper's two experimental regimes:
    - {!Gen.cvb}: the coefficient-of-variation-based (CVB) method of Ali
      et al. (2000) with Gamma-distributed weights — the paper's
      random-graph setup (μ_task = 20, V_task = V_mach = 0.5);
    - {!Gen.uniform_minval}: each task draws a random minimum processing
      time [minVal] and per-processor times uniform in
      [\[minVal, 2·minVal\]] — the paper's real-application setup.

    Both produce a low degree of unrelatedness (the paper notes this is
    why the heuristics behave consistently). *)
module Gen : sig
  val cvb :
    rng:Prng.Xoshiro.t ->
    n_tasks:int ->
    n_procs:int ->
    mu_task:float ->
    v_task:float ->
    v_mach:float ->
    ?tau:float ->
    ?latency:float ->
    unit ->
    t
  (** CVB: task weight [q_i ~ Gamma(mean = μ_task, cv = V_task)]; then
      [etc.(i).(j) ~ Gamma(mean = q_i, cv = V_mach)]. The network is
      homogeneous with off-diagonal transfer time [tau] (default 1.0) and
      [latency] (default 0, as the paper dropped latency). *)

  val uniform_minval :
    rng:Prng.Xoshiro.t ->
    n_tasks:int ->
    n_procs:int ->
    ?minval_lo:float ->
    ?minval_hi:float ->
    ?tau:float ->
    ?latency:float ->
    unit ->
    t
  (** Per task, [minVal ~ U(minval_lo, minval_hi)] (defaults 10, 30) and
      [etc.(i).(j) ~ U(minVal, 2·minVal)]. Homogeneous network. *)

  val heterogeneous_network :
    rng:Prng.Xoshiro.t ->
    tau_lo:float ->
    tau_hi:float ->
    t ->
    t
  (** Replace the network of a platform by per-pair uniform draws
      [τ_{pq} ~ U(tau_lo, tau_hi)], keeping the zero diagonal, and zero
      latencies. *)
end
