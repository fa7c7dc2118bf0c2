type case_result = {
  case : Case.t;
  rows : float array array;
  sources : Runner.source array;
  from_checkpoint : bool;
}

type failure = {
  failed_case : Case.t;
  attempts : int;
  error : string;
}

type t = {
  dir : string;
  results : case_result list;
  failures : failure list;
  mean : float array array;
  std : float array array;
}

exception Interrupted

(* Cooperative stop: handlers may only set flags (they run between
   allocations, anywhere), so the campaign loop polls at case boundaries
   — the in-flight case always finishes its checkpoint and manifest
   update before [Interrupted] is raised. Signal routing lives in the
   shared {!Stop} scopes so a campaign composes with other consumers of
   SIGINT/SIGTERM (nested campaigns, the evaluation service's drain
   handler) instead of clobbering their handlers; [pending] additionally
   lets tests request a stop before [run] has opened its scope. *)
let pending = Atomic.make false

let request_stop () =
  Atomic.set pending true;
  Stop.request ()

let parse_source s =
  if String.length s > 7 && String.sub s 0 7 = "random-" then
    match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
    | Some k -> Runner.Random k
    | None -> invalid_arg "Campaign.load_rows: malformed source"
  else Runner.Heuristic s

let load_rows path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let acc = ref [] in
        (try
           while true do
             acc := input_line ic :: !acc
           done
         with End_of_file -> ());
        List.rev !acc)
  in
  match lines with
  | [] -> invalid_arg "Campaign.load_rows: empty file"
  | header :: rows ->
    let expected = "source," ^ String.concat "," (Array.to_list Metrics.Robustness.labels) in
    if header <> expected then invalid_arg "Campaign.load_rows: unexpected header";
    rows
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match String.split_on_char ',' line with
           | source :: values when List.length values = Metrics.Robustness.n_metrics ->
             let row =
               Array.of_list
                 (List.map
                    (fun v ->
                      match float_of_string_opt v with
                      | Some f -> f
                      | None -> invalid_arg "Campaign.load_rows: malformed number")
                    values)
             in
             (parse_source source, row)
           | _ -> invalid_arg "Campaign.load_rows: malformed row")
    |> Array.of_list

let random_count sources =
  Array.fold_left
    (fun acc s -> match s with Runner.Random _ -> acc + 1 | _ -> acc)
    0 sources

(* Worth a retry: injected faults and I/O-shaped errors are treated as
   transient; programming errors (Invalid_argument, Assert_failure, …)
   fail the case immediately. *)
let transient = function
  | Fault.Injected _ | Unix.Unix_error _ | Sys_error _ -> true
  | _ -> false

let run ?pool ?(scale = Scale.of_env ()) ?slack_mode ?(attempts = 3)
    ?(backoff = 0.5) ?schedulers ~dir ?cases () =
  if attempts < 1 then invalid_arg "Campaign.run: attempts must be >= 1";
  if backoff < 0. then invalid_arg "Campaign.run: backoff must be >= 0";
  (* resolve scheduler names up front so a typo fails before any sweep *)
  let heuristics = Option.map (List.map Runner.scheduler) schedulers in
  let wanted_names = List.map fst (Option.value heuristics ~default:Runner.heuristics) in
  let cases = match cases with Some c -> c | None -> Case.paper_cases () in
  Export.mkdir_p dir;
  let slack_name = Manifest.slack_mode_name slack_mode in
  (* Provenance gate: only a manifest from the same scale and slack mode
     can vouch for checkpoints. Anything else (missing, unparseable,
     foreign) means every CSV present is recomputed, with a warning. *)
  let old_manifest =
    match Manifest.load ~dir with
    | Some m when m.Manifest.scale = scale.Scale.name && m.Manifest.slack_mode = slack_name
      -> Some m
    | Some m ->
      Elog.warn
        "campaign: manifest provenance mismatch (scale %s vs %s, slack %s vs %s); \
         invalidating all checkpoints in %s"
        m.Manifest.scale scale.Scale.name m.Manifest.slack_mode slack_name dir;
      None
    | None -> None
  in
  let entries : (string, Manifest.entry) Hashtbl.t = Hashtbl.create 31 in
  (match old_manifest with
  | Some m -> List.iter (fun e -> Hashtbl.replace entries e.Manifest.id e) m.Manifest.entries
  | None -> ());
  let save_manifest () =
    let listed =
      List.filter_map (fun c -> Hashtbl.find_opt entries c.Case.id) cases
    in
    Manifest.save ~dir
      { Manifest.scale = scale.Scale.name; slack_mode = slack_name; entries = listed }
  in
  let checkpoint_of case ~wanted ~path =
    match Hashtbl.find_opt entries case.Case.id with
    | Some { Manifest.seed; schedules; status = Manifest.Done _; _ }
      when seed = case.Case.seed && schedules = wanted && Sys.file_exists path -> (
      let covers pairs =
        List.for_all
          (fun n ->
            Array.exists
              (function Runner.Heuristic h, _ -> h = n | _ -> false)
              pairs)
          wanted_names
      in
      match load_rows path with
      | pairs when random_count (Array.map fst pairs) >= wanted && covers pairs ->
        Some pairs
      | _ ->
        Elog.warn
          "campaign: %s checkpoint has too few rows or misses a scheduler; recomputing"
          case.Case.id;
        None
      | exception Invalid_argument msg ->
        Elog.warn "campaign: %s checkpoint rejected (%s); recomputing" case.Case.id msg;
        None)
    | Some { Manifest.status = Manifest.Failed _; _ } -> None
    | Some _ ->
      if Sys.file_exists path then
        Elog.warn
          "campaign: %s checkpoint provenance mismatch (seed or scale changed); \
           recomputing"
          case.Case.id;
      None
    | None ->
      if Sys.file_exists path then
        Elog.warn "campaign: %s.csv present but not in the manifest; recomputing"
          case.Case.id;
      None
  in
  let progress = Obs.Progress.create ~total:(List.length cases) "campaign" in
  let results = ref [] and failures = ref [] in
  let n_cases = List.length cases in
  Stop.with_scope (fun scope ->
      let stop_requested () = Atomic.get pending || Stop.requested scope in
      let consume_stop () =
        Atomic.set pending false;
        Stop.clear scope
      in
      Obs.Progress.phase "campaign" (fun () ->
          List.iteri
            (fun idx case ->
              let path = Filename.concat dir (case.Case.id ^ ".csv") in
              let wanted = Scale.schedules scale case.Case.paper_schedules in
              (match checkpoint_of case ~wanted ~path with
              | Some pairs ->
                Elog.info "campaign: %s loaded from checkpoint (%d rows)" case.Case.id
                  (Array.length pairs);
                results :=
                  {
                    case;
                    rows = Array.map snd pairs;
                    sources = Array.map fst pairs;
                    from_checkpoint = true;
                  }
                  :: !results
              | None ->
                Elog.debug "campaign: %s has no usable checkpoint, sweeping" case.Case.id;
                (* evaluation and checkpoint write retry as one unit: a
                   crash-during-write recomputes, the old file survives *)
                let rec attempt k =
                  match
                    let r = Runner.run ?pool ~scale ?slack_mode ?heuristics case in
                    ignore
                      (Export.write_file ~dir ~name:(case.Case.id ^ ".csv")
                         (Export.schedules_csv r));
                    r
                  with
                  | r -> Ok (r, k)
                  | exception exn ->
                    let msg = Printexc.to_string exn in
                    if k < attempts && transient exn then begin
                      let delay = backoff *. (2. ** float_of_int (k - 1)) in
                      Elog.warn "campaign: %s attempt %d/%d failed (%s); retrying in %.2gs"
                        case.Case.id k attempts msg delay;
                      if delay > 0. then Unix.sleepf delay;
                      attempt (k + 1)
                    end
                    else Error (k, msg)
                in
                (match attempt 1 with
                | Ok (r, k) ->
                  Hashtbl.replace entries case.Case.id
                    {
                      Manifest.id = case.Case.id;
                      seed = case.Case.seed;
                      schedules = wanted;
                      status =
                        Manifest.Done { rows = Array.length r.Runner.rows; attempts = k };
                    };
                  save_manifest ();
                  results :=
                    {
                      case;
                      rows = r.Runner.rows;
                      sources = r.Runner.sources;
                      from_checkpoint = false;
                    }
                    :: !results
                | Error (k, msg) ->
                  Elog.warn "campaign: %s FAILED after %d attempt(s): %s" case.Case.id k
                    msg;
                  Hashtbl.replace entries case.Case.id
                    {
                      Manifest.id = case.Case.id;
                      seed = case.Case.seed;
                      schedules = wanted;
                      status = Manifest.Failed { attempts = k; error = msg };
                    };
                  save_manifest ();
                  failures := { failed_case = case; attempts = k; error = msg }
                              :: !failures));
              Obs.Progress.tick progress;
              if stop_requested () && idx < n_cases - 1 then begin
                consume_stop ();
                save_manifest ();
                Elog.warn
                  "campaign: stop requested; %d/%d cases done, manifest saved — rerun to \
                   resume"
                  (idx + 1) n_cases;
                raise Interrupted
              end)
            cases);
      consume_stop ());
  Obs.Progress.finish progress;
  save_manifest ();
  let results = List.rev !results and failures = List.rev !failures in
  let matrices =
    List.map
      (fun r -> Correlate.matrix (Runner.random_rows_of ~sources:r.sources ~rows:r.rows))
      results
  in
  let mean, std =
    match matrices with
    | [] ->
      let k = Metrics.Robustness.n_metrics in
      (Array.make_matrix k k Float.nan, Array.make_matrix k k Float.nan)
    | ms -> Correlate.mean_std ms
  in
  { dir; results; failures; mean; std }

let render t =
  let loaded = List.length (List.filter (fun r -> r.from_checkpoint) t.results) in
  let failure_report =
    match t.failures with
    | [] -> ""
    | fs ->
      Printf.sprintf "\n%d case(s) FAILED (results above exclude them):\n%s"
        (List.length fs)
        (String.concat ""
           (List.map
              (fun f ->
                Printf.sprintf "  %s: %d attempt(s): %s\n" f.failed_case.Case.id
                  f.attempts f.error)
              fs))
  in
  Printf.sprintf
    "Campaign over %d cases in %s (%d loaded from checkpoints%s)\n\
     Pearson coefficients (upper: mean, lower: std dev):\n\n%s%s"
    (List.length t.results) t.dir loaded
    (match t.failures with
    | [] -> ""
    | fs -> Printf.sprintf ", %d failed" (List.length fs))
    (Stats.Matrix_render.render_mean_std ~labels:Metrics.Robustness.labels t.mean t.std)
    failure_report
