(* Cumulative sampling telemetry: counters feed `--metrics`, the gauge
   holds the cumulative samples/sec over every run so far. The atomics
   back the gauge so the rate survives without reading the registry. *)
let m_samples = Obs.Metrics.counter "montecarlo.samples"
let m_elapsed_us = Obs.Metrics.counter "montecarlo.elapsed_us"
let g_rate = Obs.Metrics.gauge "montecarlo.samples_per_sec"
let total_samples = Atomic.make 0
let total_us = Atomic.make 0

let realizations ?pool ?(chunk_size = 256) ?(antithetic = false) ~rng ~count sched
    platform model =
  if count <= 0 then invalid_arg "Montecarlo: count must be positive";
  if chunk_size <= 0 then invalid_arg "Montecarlo: chunk_size must be positive";
  let instrumented = Obs.Metrics.enabled () in
  let t_start = if instrumented then Unix.gettimeofday () else 0. in
  let count = if antithetic && count mod 2 = 1 then count + 1 else count in
  let chunk_size = if antithetic && chunk_size mod 2 = 1 then chunk_size + 1 else chunk_size in
  let dg = Sched.Disjunctive.graph_of sched in
  let graph = sched.Sched.Schedule.graph in
  let proc_of = sched.Sched.Schedule.proc_of in
  let n = Dag.Graph.n_tasks graph in
  let edges = Dag.Graph.edges graph in
  let n_edges = Array.length edges in
  let chunks = (count + chunk_size - 1) / chunk_size in
  (* one deterministic stream per chunk, independent of the domain count *)
  let streams = Array.init chunks (fun _ -> Prng.Xoshiro.split rng) in
  let out = Array.make count 0. in
  let run_chunks () =
    Parallel.Pool.run ?pool ~chunks (fun c ->
      let chunk_rng = streams.(c) in
      let lo = c * chunk_size in
      let hi = Int.min count (lo + chunk_size) in
      (* per-realization durations and times, reused across the chunk *)
      let task_dur = Array.make n 0. and comm_dur = Array.make n_edges 0. in
      let start = Array.make n 0. and finish = Array.make n 0. in
      let replay () = Sched.Simulator.replay dg ~task_dur ~comm_dur ~start ~finish in
      if antithetic then begin
        (* negatively correlated pairs through the quantile map: draw every
           u first, then fill the durations from u and from 1 - u *)
        let task_u = Array.make n 0. and comm_u = Array.make n_edges 0. in
        let fill_from_u flip =
          for v = 0 to n - 1 do
            let u = if flip then 1. -. task_u.(v) else task_u.(v) in
            task_dur.(v) <-
              Workloads.Stochastify.task_sample_quantile model ~u platform ~task:v
                ~proc:proc_of.(v)
          done;
          for i = 0 to n_edges - 1 do
            let src, dst, volume = edges.(i) in
            let u = if flip then 1. -. comm_u.(i) else comm_u.(i) in
            comm_dur.(i) <-
              Workloads.Stochastify.comm_sample_quantile model ~u platform ~volume
                ~src:proc_of.(src) ~dst:proc_of.(dst)
          done
        in
        let r = ref lo in
        while !r < hi do
          for v = 0 to n - 1 do
            task_u.(v) <- Prng.Xoshiro.next_float chunk_rng
          done;
          for i = 0 to n_edges - 1 do
            comm_u.(i) <- Prng.Xoshiro.next_float chunk_rng
          done;
          fill_from_u false;
          out.(!r) <- replay ();
          if !r + 1 < hi then begin
            fill_from_u true;
            out.(!r + 1) <- replay ()
          end;
          r := !r + 2
        done
      end
      else
        for r = lo to hi - 1 do
          for v = 0 to n - 1 do
            task_dur.(v) <-
              Workloads.Stochastify.task_sample model chunk_rng platform ~task:v
                ~proc:proc_of.(v)
          done;
          for i = 0 to n_edges - 1 do
            let src, dst, volume = edges.(i) in
            comm_dur.(i) <-
              Workloads.Stochastify.comm_sample model chunk_rng platform ~volume
                ~src:proc_of.(src) ~dst:proc_of.(dst)
          done;
          out.(r) <- replay ()
        done)
  in
  if Obs.Span.enabled () then Obs.Span.with_ ~name:"montecarlo.run" run_chunks
  else run_chunks ();
  if instrumented then begin
    let us = (Unix.gettimeofday () -. t_start) *. 1e6 in
    Obs.Metrics.add m_samples count;
    Obs.Metrics.add m_elapsed_us (int_of_float us);
    let samples = Atomic.fetch_and_add total_samples count + count in
    let elapsed = Atomic.fetch_and_add total_us (int_of_float us) + int_of_float us in
    if elapsed > 0 then
      Obs.Metrics.set g_rate (float_of_int samples /. (float_of_int elapsed /. 1e6))
  end;
  out

let run ?pool ?chunk_size ?antithetic ~rng ~count sched platform model =
  Distribution.Empirical.of_samples
    (realizations ?pool ?chunk_size ?antithetic ~rng ~count sched platform model)
