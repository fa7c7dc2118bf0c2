(* One evaluation context per (graph × platform × model) case.

   Everything that is invariant across the thousands of schedules of a
   case is computed once and cached here:
   - the (task × proc) duration-distribution table (filled lazily: a
     single-schedule evaluation touches only n of the n×m cells, a sweep
     eventually fills the table);
   - communication distributions, memoized by their deterministic weight
     [latency + volume·τ] — the distribution of a perturbed weight
     depends only on that scalar, so this key subsumes
     (volume, src_proc, dst_proc) and collapses homogeneous-network
     pairs into one entry;
   - exact (mean, std) moment tables for Spelde and the slack levels.

   Mutable caches are guarded by one mutex (lookups are cheap next to a
   64-point grid construction; distribution builds happen outside the
   lock, a benign duplicated build under a race). Scratch buffers —
   completion arrays and the arrival-sum memo for the classical sweep,
   moment arrays for Spelde — live in domain-local storage under one
   module-level key, so parallel sweeps neither race nor allocate per
   schedule, and dropping an engine leaves nothing of it behind. *)

type backend =
  | Classical
  | Dodin
  | Spelde
  | Montecarlo of { count : int; seed : int64 }

let analytic_backends = [ Classical; Dodin; Spelde ]

let backend_name = function
  | Classical -> "classical"
  | Dodin -> "dodin"
  | Spelde -> "spelde"
  | Montecarlo _ -> "montecarlo"

let backend_of_name ?(mc_count = 10_000) ?(mc_seed = 0L) name =
  match String.lowercase_ascii name with
  | "classical" -> Some Classical
  | "dodin" -> Some Dodin
  | "spelde" -> Some Spelde
  | "montecarlo" | "mc" -> Some (Montecarlo { count = mc_count; seed = mc_seed })
  | _ -> None

type stats = {
  task_hits : int;
  task_misses : int;  (** filled (task, proc) duration cells *)
  comm_hits : int;
  comm_misses : int;  (** distinct communication weights built *)
  arrival_hits : int;
  arrival_misses : int;  (** arrival sums reused / computed by full classical sweeps *)
  evals : int;
  evals_classical : int;
  evals_dodin : int;
  evals_spelde : int;
  evals_montecarlo : int;
  reevals : int;
  reeval_incremental : int;
  reeval_full : int;  (** all full-sweep fallbacks = [reeval_full_cone + reeval_full_backend] *)
  reeval_full_cone : int;  (** fallbacks where the dirty cone exceeded [max_cone] *)
  reeval_full_backend : int;  (** fallbacks on non-incremental backends (Dodin, Monte Carlo) *)
  reeval_cone_nodes : int;
  reeval_max_cone : int;
  reeval_sum_hits : int;  (** arrival sums a dirty-cone replay took from its session's memo *)
  reeval_sum_misses : int;  (** arrival sums dirty-cone replays computed *)
  reeval_fold_skips : int;  (** [max_indep] calls replays took from their session's maxima *)
}

(* Every engine counter has one cell in its engine's [counts] table
   and a process-wide Obs mirror that every engine feeds, so `repro
   --metrics` and the service's /metrics see the whole sweep, dropped
   engines included, without holding on to engines. The mirrors are
   no-ops (one atomic load) unless metrics are enabled. [stats] derives
   [evals], [reevals] and [reeval_full] from these cells. *)
type counter =
  | Task_hits
  | Task_misses
  | Comm_hits
  | Comm_misses
  | Arrival_hits
  | Arrival_misses
  | Evals_classical
  | Evals_dodin
  | Evals_spelde
  | Evals_montecarlo
  | Reeval_incremental
  | Reeval_full_cone
  | Reeval_full_backend
  | Reeval_cone_nodes
  | Reeval_sum_hits
  | Reeval_sum_misses
  | Reeval_fold_skips
  | Reeval_max_cone

let slot = function
  | Task_hits -> 0
  | Task_misses -> 1
  | Comm_hits -> 2
  | Comm_misses -> 3
  | Arrival_hits -> 4
  | Arrival_misses -> 5
  | Evals_classical -> 6
  | Evals_dodin -> 7
  | Evals_spelde -> 8
  | Evals_montecarlo -> 9
  | Reeval_incremental -> 10
  | Reeval_full_cone -> 11
  | Reeval_full_backend -> 12
  | Reeval_cone_nodes -> 13
  | Reeval_sum_hits -> 14
  | Reeval_sum_misses -> 15
  | Reeval_fold_skips -> 16
  | Reeval_max_cone -> 17

(* The Obs families each slot adds to, registered in slot order: both
   fallback kinds also add to [engine.reeval_full]; the largest cone is
   a maximum, not a sum, and has no mirror. *)
let mirrors =
  Array.map
    (List.map (fun name -> Obs.Metrics.counter ("engine." ^ name)))
    [|
      [ "task_hits" ];
      [ "task_misses" ];
      [ "comm_hits" ];
      [ "comm_misses" ];
      [ "arrival_hits" ];
      [ "arrival_misses" ];
      [ "evals.classical" ];
      [ "evals.dodin" ];
      [ "evals.spelde" ];
      [ "evals.montecarlo" ];
      [ "reeval_incremental" ];
      [ "reeval_full"; "reeval_full_cone" ];
      [ "reeval_full"; "reeval_full_backend" ];
      [ "reeval_cone_nodes" ];
      [ "reeval_sum_hits" ];
      [ "reeval_sum_misses" ];
      [ "reeval_fold_skips" ];
      [];
    |]

let span_name = function
  | Classical -> "engine.eval.classical"
  | Dodin -> "engine.eval.dodin"
  | Spelde -> "engine.eval.spelde"
  | Montecarlo _ -> "engine.eval.montecarlo"

type scratch = {
  mutable dists : Distribution.Dist.t array;
  mutable pairs : Distribution.Normal_pair.t array;
  arrivals : Classic.arrivals;
}

(* One key for every engine: OCaml never frees a DLS slot, so a key per
   engine would keep each dropped engine's last completion array alive
   for the life of every domain that evaluated on it. Sized to the
   largest case seen on the domain. *)
let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { dists = [||]; pairs = [||]; arrivals = Classic.arrivals () })

type t = {
  graph : Dag.Graph.t;
  platform : Platform.t;
  model : Workloads.Stochastify.t;
  points : int;
  n_tasks : int;
  n_procs : int;
  task_means : float array array;
  task_stds : float array array;
  task_tbl : Distribution.Dist.t option array array;
  comm_tbl : (float, Distribution.Dist.t) Hashtbl.t;
  lock : Mutex.t;
  counts : int Atomic.t array;  (* by [slot] *)
}

let create ~graph ~platform ~model =
  let n_tasks = Dag.Graph.n_tasks graph in
  if Platform.n_tasks platform <> n_tasks then
    invalid_arg "Engine.create: platform/graph task-count mismatch";
  let n_procs = Platform.n_procs platform in
  {
    graph;
    platform;
    model;
    points = model.Workloads.Stochastify.points;
    n_tasks;
    n_procs;
    task_means =
      Array.init n_tasks (fun task ->
          Array.init n_procs (fun proc ->
              Workloads.Stochastify.task_mean model platform ~task ~proc));
    task_stds =
      Array.init n_tasks (fun task ->
          Array.init n_procs (fun proc ->
              Workloads.Stochastify.task_std model platform ~task ~proc));
    task_tbl = Array.init n_tasks (fun _ -> Array.make n_procs None);
    comm_tbl = Hashtbl.create 64;
    lock = Mutex.create ();
    counts = Array.init (Array.length mirrors) (fun _ -> Atomic.make 0);
  }

let graph t = t.graph
let platform t = t.platform

(* a plain recursion: [List.iter] would build a closure over [k] on
   every bump *)
let rec add_all k = function
  | [] -> ()
  | m :: rest ->
    Obs.Metrics.add m k;
    add_all k rest

let bump t c k =
  let i = slot c in
  ignore (Atomic.fetch_and_add t.counts.(i) k : int);
  add_all k mirrors.(i)

let rec raise_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then raise_max a v

let stats t =
  let get c = Atomic.get t.counts.(slot c) in
  let evals_classical = get Evals_classical
  and evals_dodin = get Evals_dodin
  and evals_spelde = get Evals_spelde
  and evals_montecarlo = get Evals_montecarlo in
  let reeval_incremental = get Reeval_incremental
  and reeval_full_cone = get Reeval_full_cone
  and reeval_full_backend = get Reeval_full_backend in
  let reeval_full = reeval_full_cone + reeval_full_backend in
  {
    task_hits = get Task_hits;
    task_misses = get Task_misses;
    comm_hits = get Comm_hits;
    comm_misses = get Comm_misses;
    arrival_hits = get Arrival_hits;
    arrival_misses = get Arrival_misses;
    evals = evals_classical + evals_dodin + evals_spelde + evals_montecarlo;
    evals_classical;
    evals_dodin;
    evals_spelde;
    evals_montecarlo;
    reevals = reeval_incremental + reeval_full;
    reeval_incremental;
    reeval_full;
    reeval_full_cone;
    reeval_full_backend;
    reeval_cone_nodes = get Reeval_cone_nodes;
    reeval_max_cone = get Reeval_max_cone;
    reeval_sum_hits = get Reeval_sum_hits;
    reeval_sum_misses = get Reeval_sum_misses;
    reeval_fold_skips = get Reeval_fold_skips;
  }

(* ------------------------------------------------------------------ *)
(* Cached distribution views                                           *)
(* ------------------------------------------------------------------ *)

let task_dist t ~task ~proc =
  let cell = Mutex.protect t.lock (fun () -> t.task_tbl.(task).(proc)) in
  match cell with
  | Some d ->
    bump t Task_hits 1;
    d
  | None ->
    bump t Task_misses 1;
    let d = Workloads.Stochastify.task_dist t.model t.platform ~task ~proc in
    Mutex.protect t.lock (fun () ->
        match t.task_tbl.(task).(proc) with
        | Some d' -> d' (* another domain won the race; keep its value *)
        | None ->
          t.task_tbl.(task).(proc) <- Some d;
          d)

(* one shared value for every zero-weight edge, so the classical sweep's
   arrival memo sees same-processor arrivals as one key *)
let zero = Distribution.Dist.const 0.

let comm_dist t ~volume ~src ~dst =
  let w = Platform.comm_time t.platform ~src ~dst ~volume in
  if w = 0. then zero
  else
    let cached = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.comm_tbl w) in
    match cached with
    | Some d ->
      bump t Comm_hits 1;
      d
    | None ->
      bump t Comm_misses 1;
      let d = Workloads.Stochastify.dist t.model w in
      Mutex.protect t.lock (fun () ->
          match Hashtbl.find_opt t.comm_tbl w with
          | Some d' -> d'
          | None ->
            Hashtbl.add t.comm_tbl w d;
            d)

let task_mean t ~task ~proc = t.task_means.(task).(proc)
let task_std t ~task ~proc = t.task_stds.(task).(proc)

let comm_mean t ~volume ~src ~dst =
  Workloads.Stochastify.comm_mean t.model t.platform ~volume ~src ~dst

let comm_std t ~volume ~src ~dst =
  Workloads.Stochastify.comm_std t.model t.platform ~volume ~src ~dst

(* a processor-order edge (volume 0, one processor) weighs 0 like any
   co-located communication *)
let mean_weights t sched =
  let proc_of = sched.Sched.Schedule.proc_of in
  {
    Dag.Levels.task = (fun v -> t.task_means.(v).(proc_of.(v)));
    edge = (fun u v volume -> comm_mean t ~volume ~src:proc_of.(u) ~dst:proc_of.(v));
  }

(* ------------------------------------------------------------------ *)
(* Scratch buffers                                                     *)
(* ------------------------------------------------------------------ *)

let scratch_dists n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.dists < n then s.dists <- Array.make n (Distribution.Dist.const 0.);
  s.dists

let scratch_pairs n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.pairs < n then
    s.pairs <- Array.make n (Distribution.Normal_pair.const 0.);
  s.pairs

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let check_schedule t sched =
  if Dag.Graph.n_tasks sched.Sched.Schedule.graph <> t.n_tasks then
    invalid_arg "Engine: schedule belongs to a different case (task-count mismatch)"

let task_moments t ~task ~proc =
  Distribution.Normal_pair.make ~mean:(task_mean t ~task ~proc)
    ~std:(task_std t ~task ~proc)

let comm_moments t ~volume ~src ~dst =
  Distribution.Normal_pair.make ~mean:(comm_mean t ~volume ~src ~dst)
    ~std:(comm_std t ~volume ~src ~dst)

(* The one full sweep. Classical and Spelde write their per-node state
   into [completion] and [moments] respectively (the other array is
   unused): [analyze] passes the engine's domain-local scratch, a session
   its own arrays, so both run the same bits. Every classical full sweep
   reuses repeated arrival sums through the domain-local memo, which it
   empties on return; dirty-cone replays use their session's memo of
   committed-state sums instead (see [probe]). *)
let sweep t backend ~dgraph ~completion ~moments sched =
  match backend with
  | Classical ->
    let arrivals = (Domain.DLS.get scratch_key).arrivals in
    let completion =
      Classic.completion_dists_with ~arrivals ~points:t.points ~dgraph ~completion
        ~task_dist:(task_dist t) ~comm_dist:(comm_dist t) sched
    in
    bump t Arrival_hits (Classic.arrival_hits arrivals);
    bump t Arrival_misses (Classic.arrival_misses arrivals);
    Classic.makespan_of_exits ~points:t.points dgraph completion
  | Dodin ->
    (Dodin.evaluate_with ~points:t.points ~dgraph ~task_dist:(task_dist t)
       ~comm_dist:(comm_dist t) sched)
      .Dodin.dist
  | Spelde ->
    Distribution.Normal_pair.to_normal ~points:t.points
      (Spelde.moments_with ~dgraph ~completion:moments ~task_moments:(task_moments t)
         ~comm_moments:(comm_moments t) sched)
  | Montecarlo { count; seed } ->
    let rng = Prng.Xoshiro.create seed in
    Distribution.Empirical.to_dist ~points:t.points
      (Montecarlo.run ~rng ~count sched t.platform t.model)

let sweep_scratch t backend ~dgraph sched =
  let n = t.n_tasks in
  let completion = match backend with Classical -> scratch_dists n | _ -> [||] in
  let moments = match backend with Spelde -> scratch_pairs n | _ -> [||] in
  sweep t backend ~dgraph ~completion ~moments sched

let count_eval t backend =
  bump t
    (match backend with
    | Classical -> Evals_classical
    | Dodin -> Evals_dodin
    | Spelde -> Evals_spelde
    | Montecarlo _ -> Evals_montecarlo)
    1

let eval_dist t backend sched =
  sweep_scratch t backend ~dgraph:(Sched.Disjunctive.graph_of sched) sched

let eval ?(backend = Classical) t sched =
  check_schedule t sched;
  count_eval t backend;
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:(span_name backend) (fun () -> eval_dist t backend sched)
  else eval_dist t backend sched

type evaluation = {
  makespan : Distribution.Dist.t;
  slack : Sched.Slack.summary;
}

let slack_of t slack_mode ~dgraph sched =
  let slack () =
    match slack_mode with
    | `Disjunctive ->
      Sched.Slack.of_weighted_graph dgraph.Sched.Disjunctive.graph (mean_weights t sched)
    | `Precedence -> Sched.Slack.compute ~mode:`Precedence sched t.platform t.model
  in
  if Obs.Span.enabled () then Obs.Span.with_ ~name:"engine.slack" slack else slack ()

let analyze_parts t backend slack_mode sched =
  let dgraph = Sched.Disjunctive.graph_of sched in
  let makespan = sweep_scratch t backend ~dgraph sched in
  let slack = slack_of t slack_mode ~dgraph sched in
  { makespan; slack }

let analyze ?(backend = Classical) ?(slack_mode = `Disjunctive) t sched =
  check_schedule t sched;
  count_eval t backend;
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:(span_name backend) (fun () ->
        analyze_parts t backend slack_mode sched)
  else analyze_parts t backend slack_mode sched

(* ------------------------------------------------------------------ *)
(* Incremental re-evaluation                                           *)
(* ------------------------------------------------------------------ *)

(* A session pins one schedule of the case and keeps its per-node
   completion state (distributions for Classical, moments for Spelde)
   alive between evaluations, so a one-task move only recomputes the
   dirty downstream cone. Sessions own their arrays (only a fallback
   probe sweeps through the domain-local scratch, as [analyze] does, and
   copies its n results out) and are NOT thread-safe: use one session
   per domain.

   Dirty cone, for any schedule S' of the case probed against the
   session's schedule S, with disjunctive graphs G and G':
     seeds  = { v | proc_S'(v) ≠ proc_S(v) } ∪ the move's tasks
     fresh  = seeds ∪ { v | preds_G'(v) ≠ preds_G(v) as task sequences }
     dirty  = downward closure of fresh under G' successors
   Fresh nodes cover every input change of the classical recursion: a
   seed's duration and incoming-comm processors change at the seed
   itself; outgoing-comm source-processor changes surface at the seed's
   successors, which the closure marks dirty because the seed is; and
   any node whose disjunctive predecessor list grew, shrank, or
   reordered is fresh by the sequence comparison (pred arrays are
   sorted by task id, so the comparison — and the downstream fold order
   — is deterministic). A reassign's seed is the moved task, a swap's
   the two exchanged ones, even within one processor, and a schedule's
   ([reevaluate_schedule], say a priority rebuild) every task it moved
   to another processor. Everything else sees bitwise-identical inputs
   and keeps its stored value, which is why a re-evaluation agrees
   bitwise with a fresh [analyze] of the patched schedule.

   A re-evaluation is a probe: it replays the cone in the session's
   arrays, puts the committed values back, and keeps the probe's own
   values aside in [p_completion]/[p_moments] (at the dirty nodes, or
   all n for a fallback) with its schedule, graph and evaluation.
   [accept] installs exactly those values, so an accepted move is never
   replayed; the next re-evaluation drops a probe nobody accepted.

   Arrival-sum memo ([sums], Classical only): a replay reads the sum
   C(p) + comm(p→v) of every data edge from the session's memo and
   writes back only sums of committed state — [p] outside the cone, [v]
   not a seed (a task the probe moved, whose incoming communications
   may be the probe's own). Those sums stay valid until an accepted
   probe changes C(p) or v's processor, so [accept] empties the slots
   out of the cone and into the seeds (a fallback empties them all).
   The memo is never filled by [start_session]: a 30-task session would
   hold every edge's grid, where probes touch a few.

   Committed prefix maxima ([prefixes], Classical only): at a dirty node
   that is not fresh, the arrivals before its first dirty predecessor
   are committed state, so a replay resumes the node's max fold from
   the longest committed running maximum the session holds there, and
   stores the ones it computes below that predecessor. [accept] cuts
   each installed node's maxima at its first dirty predecessor (a fresh
   node's to nothing; a fallback empties them all). Like the memo, the
   cache is filled only by replays, never by [start_session]. *)

(* The last probe of a session, until the next re-evaluation. *)
type probe = {
  p_sched : Sched.Schedule.t;
  p_dgraph : Sched.Disjunctive.t;
  p_eval : evaluation;
  p_cone : bool;  (* values kept at the dirty nodes only, else all n *)
}

type session = {
  engine : t;
  backend : backend;
  slack_mode : Sched.Slack.graph_mode;
  mutable sched : Sched.Schedule.t;
  mutable dgraph : Sched.Disjunctive.t;
  s_completion : Distribution.Dist.t array;  (* Classical; [||] otherwise *)
  s_moments : Distribution.Normal_pair.t array;  (* Spelde; [||] otherwise *)
  p_completion : Distribution.Dist.t array;  (* the probe's values, same shapes *)
  p_moments : Distribution.Normal_pair.t array;
  sums : Classic.edge_sums;
  prefixes : Classic.prefixes;
  (* the last probe's node sets, read by [accept] *)
  seeds : bool array;
  fresh : bool array;
  dirty : bool array;
  mutable pending : probe option;
  mutable last : evaluation;
}

let vacant_dist = Distribution.Dist.const 0.
let vacant_pair = Distribution.Normal_pair.const 0.

let start_session ?(backend = Classical) ?(slack_mode = `Disjunctive) t sched =
  check_schedule t sched;
  count_eval t backend;
  let n = t.n_tasks in
  let dgraph = Sched.Disjunctive.graph_of sched in
  let dists () = match backend with Classical -> Array.make n vacant_dist | _ -> [||] in
  let pairs () = match backend with Spelde -> Array.make n vacant_pair | _ -> [||] in
  let s_completion = dists () and s_moments = pairs () in
  let makespan =
    sweep t backend ~dgraph ~completion:s_completion ~moments:s_moments sched
  in
  let slack = slack_of t slack_mode ~dgraph sched in
  {
    engine = t;
    backend;
    slack_mode;
    sched;
    dgraph;
    s_completion;
    s_moments;
    p_completion = dists ();
    p_moments = pairs ();
    sums = Classic.edge_sums t.graph;
    prefixes = Classic.prefixes (match backend with Classical -> n | _ -> 0);
    seeds = Array.make n false;
    fresh = Array.make n false;
    dirty = Array.make n false;
    pending = None;
    last = { makespan; slack };
  }

let session_schedule s = s.sched
let session_evaluation s = s.last
let same_pred_seq a b =
  Array.length a = Array.length b
  &&
  let n = Array.length a in
  let rec eq i = i >= n || (fst a.(i) = fst b.(i) && eq (i + 1)) in
  eq 0

(* Mark the seeds, fresh and dirty nodes of a probe of [sched'] in the
   session's arrays; returns the cone size. [moved] are the tasks a move
   names, seeds even where their processor stays. *)
let mark_dirty_cone session ~moved sched' ~dgraph' =
  let g = session.dgraph.Sched.Disjunctive.graph and g' = dgraph'.Sched.Disjunctive.graph in
  let proc_of = session.sched.Sched.Schedule.proc_of
  and proc_of' = sched'.Sched.Schedule.proc_of in
  let { seeds; fresh; dirty; _ } = session in
  for v = 0 to Array.length dirty - 1 do
    seeds.(v) <- proc_of.(v) <> proc_of'.(v) || List.mem v moved;
    fresh.(v) <-
      seeds.(v) || not (same_pred_seq (Dag.Graph.preds g v) (Dag.Graph.preds g' v));
    dirty.(v) <- fresh.(v)
  done;
  let cone = ref 0 in
  Array.iter
    (fun v ->
      if not dirty.(v) then begin
        if Array.exists (fun (p, _) -> dirty.(p)) (Dag.Graph.preds g' v) then
          dirty.(v) <- true
      end;
      if dirty.(v) then incr cone)
    (Dag.Graph.topo_order g');
  !cone

(* Replay the dirty nodes of [state] in topological order with
   [update], then swap: [state] gets its committed values back and
   [aside] the probe's. A raising [update] leaves [state] committed. *)
let replay_cone dirty order ~state ~aside update result =
  let n = Array.length dirty in
  for v = 0 to n - 1 do
    if dirty.(v) then aside.(v) <- state.(v)
  done;
  let restore () =
    for v = 0 to n - 1 do
      if dirty.(v) then begin
        let x = state.(v) in
        state.(v) <- aside.(v);
        aside.(v) <- x
      end
    done
  in
  match
    Array.iter (fun v -> if dirty.(v) then update v) order;
    result state
  with
  | r ->
    restore ();
    r
  | exception e ->
    restore ();
    raise e

(* Shared probe core: [sched'] is a feasible schedule of the session's
   case, [moved] the tasks of the move that built it, if any. The entry
   points build it *before* this runs, so an infeasible move raises
   [Invalid_argument] without touching the session's schedule or
   state. *)
let probe ~max_cone ~moved session sched' =
  let t = session.engine in
  let n = t.n_tasks in
  let max_cone = match max_cone with Some c -> c | None -> max 1 (n / 2) in
  let dgraph' = Sched.Disjunctive.graph_of sched' in
  count_eval t session.backend;
  Array.fill session.p_completion 0 (Array.length session.p_completion) vacant_dist;
  Array.fill session.p_moments 0 (Array.length session.p_moments) vacant_pair;
  let incremental_backend =
    match session.backend with Classical | Spelde -> true | Dodin | Montecarlo _ -> false
  in
  let cone = if incremental_backend then mark_dirty_cone session ~moved sched' ~dgraph' else n in
  let incremental = incremental_backend && cone <= max_cone in
  if incremental then begin
    bump t Reeval_incremental 1;
    bump t Reeval_cone_nodes cone;
    raise_max t.counts.(slot Reeval_max_cone) cone
  end
  else bump t (if incremental_backend then Reeval_full_cone else Reeval_full_backend) 1;
  let order = Dag.Graph.topo_order dgraph'.Sched.Disjunctive.graph in
  let makespan =
    if incremental then begin
      let dirty = session.dirty in
      match session.backend with
      | Classical ->
        let sums = session.sums and prefixes = session.prefixes in
        let arrivals = (Domain.DLS.get scratch_key).arrivals in
        let hits0 = Classic.sum_hits sums and misses0 = Classic.sum_misses sums in
        let skips0 = Classic.fold_skips prefixes in
        let makespan =
          Classic.with_cone_arrivals arrivals dgraph' ~dirty (fun () ->
              replay_cone dirty order ~state:session.s_completion ~aside:session.p_completion
                (fun v ->
                  Classic.update_node ~points:t.points ~dgraph:dgraph' ~task_dist:(task_dist t)
                    ~comm_dist:(comm_dist t) ~sums ~arrivals ~prefixes ~dirty
                    ~fresh:session.fresh.(v) ~seed:session.seeds.(v) sched' session.s_completion v)
                (Classic.makespan_of_exits ~points:t.points dgraph'))
        in
        bump t Reeval_sum_hits (Classic.sum_hits sums - hits0 + Classic.arrival_hits arrivals);
        bump t Reeval_sum_misses
          (Classic.sum_misses sums - misses0 + Classic.arrival_misses arrivals);
        bump t Reeval_fold_skips (Classic.fold_skips prefixes - skips0);
        makespan
      | Spelde ->
        replay_cone dirty order ~state:session.s_moments ~aside:session.p_moments
          (fun v ->
            Spelde.update_node ~dgraph:dgraph' ~task_moments:(task_moments t)
              ~comm_moments:(comm_moments t) sched' session.s_moments v)
          (fun moments ->
            Distribution.Normal_pair.to_normal ~points:t.points
              (Spelde.moments_of_exits ~dgraph:dgraph' moments))
      | Dodin | Montecarlo _ -> assert false
    end
    else begin
      (* keep the session arrays intact: run the fallback through the
         engine's domain-local scratch, exactly like [analyze], and keep
         a copy of its per-node state for [accept] *)
      let makespan = sweep_scratch t session.backend ~dgraph:dgraph' sched' in
      (match session.backend with
      | Classical -> Array.blit (scratch_dists n) 0 session.p_completion 0 n
      | Spelde -> Array.blit (scratch_pairs n) 0 session.p_moments 0 n
      | Dodin | Montecarlo _ -> ());
      makespan
    end
  in
  let slack = slack_of t session.slack_mode ~dgraph:dgraph' sched' in
  let ev = { makespan; slack } in
  session.pending <-
    Some { p_sched = sched'; p_dgraph = dgraph'; p_eval = ev; p_cone = incremental };
  ev

let accept session =
  match session.pending with
  | None -> invalid_arg "Engine.accept: no probe since the last re-evaluation or accept"
  | Some p ->
    session.pending <- None;
    let install state aside =
      if p.p_cone then
        Array.iteri (fun v d -> if d then state.(v) <- aside.(v)) session.dirty
      else Array.blit aside 0 state 0 (Array.length state)
    in
    (match session.backend with
    | Classical ->
      install session.s_completion session.p_completion;
      if p.p_cone then begin
        Classic.forget_sums session.sums session.engine.graph ~changed:session.dirty
          ~seeds:session.seeds;
        Classic.truncate_prefixes session.prefixes p.p_dgraph ~dirty:session.dirty
          ~fresh:session.fresh
      end
      else begin
        Classic.clear_sums session.sums;
        Classic.clear_prefixes session.prefixes
      end
    | Spelde -> install session.s_moments session.p_moments
    | Dodin | Montecarlo _ -> ());
    session.sched <- p.p_sched;
    session.dgraph <- p.p_dgraph;
    session.last <- p.p_eval

(* The neighbor is built, and a deadlocking move raises, after the last
   probe has been dropped and before [probe] touches the session: a move
   that raises leaves nothing to accept. *)
let reevaluate_any ?(commit = true) ?max_cone session (m : Sched.Neighbor.any) =
  session.pending <- None;
  let sched' = Sched.Neighbor.apply_any session.sched m in
  let moved =
    match m with
    | Sched.Neighbor.Reassign { task; _ } -> [ task ]
    | Sched.Neighbor.Swap { a; b } -> [ a; b ]
  in
  let ev = probe ~max_cone ~moved session sched' in
  if commit then accept session;
  ev

let reevaluate_schedule ?max_cone session sched' =
  session.pending <- None;
  check_schedule session.engine sched';
  probe ~max_cone ~moved:[] session sched'
