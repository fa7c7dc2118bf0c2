(* Fault-injection and crash-safety suites: probe/spec semantics, atomic
   checkpoint publication, campaign fault isolation with bounded retry,
   stop/resume determinism, poisoned pool chunks. *)

module E = Experiments

let tiny_scale =
  { E.Scale.name = "tiny"; schedule_divisor = 1000; mc_divisor = 1000;
    include_n1000 = false }

let with_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) name in
  rm_rf d;
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let injected point = Fault.Injected point

let check_injected name point f =
  Alcotest.check_raises name (injected point) f

let case_a =
  E.Case.make ~kind:E.Case.Cholesky ~n_target:10 ~ul:1.1 ()

let case_b =
  E.Case.make ~kind:E.Case.Random_graph ~n_target:10 ~ul:1.1 ()

(* --- spec parsing & probe semantics --- *)

let spec_rejects_garbage () =
  let bad spec =
    Alcotest.(check bool)
      (Printf.sprintf "%S rejected" spec)
      true
      (match Fault.configure ~spec with
      | () -> false
      | exception Invalid_argument _ -> true)
  in
  with_faults (fun () ->
      List.iter bad
        [ ""; " ; "; "point"; "point:"; "point:launch"; "point:fail@0"; "point:fail@x";
          "point:fail:count=0"; "point:fail:p=1.5"; "point:fail:ms"; "point:fail:wat=1" ])

let probe_disabled_is_noop () =
  Fault.reset ();
  Fault.cut "anything";
  Alcotest.(check int) "no hits recorded" 0 (Fault.hits "anything");
  Alcotest.(check bool) "disabled" false (Fault.enabled ())

let probe_fires_on_nth_hit () =
  with_faults (fun () ->
      Fault.configure ~spec:"x:fail@3";
      Fault.cut "x";
      Fault.cut "x";
      check_injected "third hit fires" "x" (fun () -> Fault.cut "x");
      (* default count=1: exhausted after one firing *)
      Fault.cut "x";
      Alcotest.(check int) "hits counted" 4 (Fault.hits "x"))

let probe_count_bounds_firings () =
  with_faults (fun () ->
      Fault.configure ~spec:"x:fail:count=2";
      check_injected "first" "x" (fun () -> Fault.cut "x");
      check_injected "second" "x" (fun () -> Fault.cut "x");
      Fault.cut "x")

let probe_ignores_other_points () =
  with_faults (fun () ->
      Fault.configure ~spec:"x:fail";
      Fault.cut "y";
      Alcotest.(check int) "y hit counted" 1 (Fault.hits "y"))

let probe_delay_returns () =
  with_faults (fun () ->
      Fault.configure ~spec:"x:delay:ms=1";
      Fault.cut "x";
      Fault.cut "x")

let seeded_probability_is_deterministic () =
  let pattern () =
    Fault.configure ~spec:"x:fail:p=0.5:seed=42:count=1000000";
    List.init 100 (fun _ ->
        match Fault.cut "x" with () -> false | exception Fault.Injected _ -> true)
  in
  with_faults (fun () ->
      let a = pattern () in
      let b = pattern () in
      Alcotest.(check (list bool)) "same firing pattern" a b;
      let fires = List.length (List.filter Fun.id a) in
      Alcotest.(check bool) "plausible rate" true (fires > 20 && fires < 80))

(* --- atomic checkpoint writes --- *)

let atomic_write_preserves_old_checkpoint () =
  let dir = fresh_dir "repro-fault-atomic" in
  with_faults (fun () ->
      let path = E.Export.write_file ~dir ~name:"t.csv" "old,content\n1,2\n" in
      Fault.configure ~spec:"campaign.write:fail@1";
      check_injected "write killed mid-stream" "campaign.write" (fun () ->
          ignore (E.Export.write_file ~dir ~name:"t.csv" "new,content\n3,4\n"));
      Alcotest.(check string) "old checkpoint intact" "old,content\n1,2\n"
        (read_file path);
      let contains_tmp f =
        let needle = ".tmp." in
        let nl = String.length needle and fl = String.length f in
        let rec go i = i + nl <= fl && (String.sub f i nl = needle || go (i + 1)) in
        go 0
      in
      Array.iter
        (fun f ->
          Alcotest.(check bool) ("no temp leftover: " ^ f) false (contains_tmp f))
        (Sys.readdir dir);
      Fault.reset ();
      ignore (E.Export.write_file ~dir ~name:"t.csv" "new,content\n3,4\n");
      Alcotest.(check string) "replaced after recovery" "new,content\n3,4\n"
        (read_file path));
  rm_rf dir

let mkdir_p_nested_and_idempotent () =
  let root = fresh_dir "repro-fault-mkdirp" in
  let nested = Filename.concat (Filename.concat root "a") "b" in
  E.Export.mkdir_p nested;
  Alcotest.(check bool) "created" true (Sys.is_directory nested);
  E.Export.mkdir_p nested;
  ignore (E.Export.write_file ~dir:nested ~name:"x.csv" "a\n");
  rm_rf root

let mkdir_p_concurrent_race () =
  (* two domains race to create the same fresh tree: EEXIST must be
     tolerated, as for two campaigns sharing a checkpoint dir *)
  let root = fresh_dir "repro-fault-mkdirp-race" in
  let nested = Filename.concat (Filename.concat root "shared") "deep" in
  let worker () =
    Domain.spawn (fun () ->
        match E.Export.mkdir_p nested with
        | () -> true
        | exception _ -> false)
  in
  let a = worker () and b = worker () in
  let ok_a = Domain.join a and ok_b = Domain.join b in
  Alcotest.(check bool) "both creators succeed" true (ok_a && ok_b);
  Alcotest.(check bool) "dir exists" true (Sys.is_directory nested);
  rm_rf root

(* --- manifest --- *)

let manifest_roundtrip () =
  let dir = fresh_dir "repro-fault-manifest" in
  let m =
    {
      E.Manifest.scale = "tiny";
      slack_mode = "disjunctive";
      entries =
        [
          { E.Manifest.id = "case-one"; seed = 1L; schedules = 30;
            status = E.Manifest.Done { rows = 33; attempts = 1 } };
          { E.Manifest.id = "case-two"; seed = -7L; schedules = 30;
            status =
              E.Manifest.Failed
                { attempts = 3; error = "quote \" backslash \\ newline \n tab \t" } };
        ];
    }
  in
  E.Manifest.save ~dir m;
  (match E.Manifest.load ~dir with
  | None -> Alcotest.fail "manifest did not load back"
  | Some m' -> Alcotest.(check bool) "roundtrip equal" true (m = m'));
  rm_rf dir

let manifest_rejects_garbage () =
  let dir = fresh_dir "repro-fault-manifest-bad" in
  ignore (E.Export.write_file ~dir ~name:E.Manifest.file_name "not json at all {");
  Alcotest.(check bool) "unparseable manifest is None" true
    (E.Manifest.load ~dir = None);
  ignore (E.Export.write_file ~dir ~name:E.Manifest.file_name
            "{ \"version\": 99, \"scale\": \"x\", \"slack_mode\": \"y\", \"cases\": [] }");
  Alcotest.(check bool) "foreign version is None" true (E.Manifest.load ~dir = None);
  rm_rf dir

(* --- campaign fault isolation, retry, provenance, resume --- *)

let run_campaign ?attempts ~dir cases =
  E.Campaign.run ~scale:tiny_scale ?attempts ~backoff:0. ~dir ~cases ()

let campaign_retry_recovers_transient () =
  let dir = fresh_dir "repro-fault-retry" in
  with_faults (fun () ->
      Fault.configure ~spec:"runner.eval:fail@1";
      let t = run_campaign ~dir [ case_a ] in
      Alcotest.(check int) "no failures" 0 (List.length t.E.Campaign.failures);
      Alcotest.(check int) "one result" 1 (List.length t.E.Campaign.results);
      match E.Manifest.load ~dir with
      | Some { E.Manifest.entries = [ { status = E.Manifest.Done { attempts; _ }; _ } ]; _ }
        -> Alcotest.(check int) "second attempt succeeded" 2 attempts
      | _ -> Alcotest.fail "expected one done entry");
  rm_rf dir

let campaign_isolates_exhausted_case () =
  let dir = fresh_dir "repro-fault-isolate" in
  with_faults (fun () ->
      (* case A burns all 3 attempts (hits 1-3); case B's eval is hit 4,
         past the firing budget, and must be unaffected *)
      Fault.configure ~spec:"runner.eval:fail:count=3";
      let t = run_campaign ~attempts:3 ~dir [ case_a; case_b ] in
      (match t.E.Campaign.failures with
      | [ f ] ->
        Alcotest.(check string) "failed case" case_a.E.Case.id
          f.E.Campaign.failed_case.E.Case.id;
        Alcotest.(check int) "attempts exhausted" 3 f.E.Campaign.attempts
      | fs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d" (List.length fs)));
      (match t.E.Campaign.results with
      | [ r ] ->
        Alcotest.(check string) "surviving case" case_b.E.Case.id r.E.Campaign.case.E.Case.id;
        Alcotest.(check bool) "computed fresh" false r.E.Campaign.from_checkpoint
      | _ -> Alcotest.fail "expected exactly one result");
      Alcotest.(check bool) "mean populated from surviving case" false
        (Float.is_nan t.E.Campaign.mean.(1).(2));
      Alcotest.(check bool) "render reports failure" true
        (let s = E.Campaign.render t in
         let rec contains i =
           i + 6 <= String.length s && (String.sub s i 6 = "FAILED" || contains (i + 1))
         in
         contains 0);
      (* recovery run: A recomputed (failed entries are not checkpoints),
         B loaded from its checkpoint *)
      Fault.reset ();
      let t2 = run_campaign ~dir [ case_a; case_b ] in
      Alcotest.(check int) "all recovered" 2 (List.length t2.E.Campaign.results);
      Alcotest.(check int) "no failures left" 0 (List.length t2.E.Campaign.failures);
      List.iter
        (fun r ->
          let expect_loaded = r.E.Campaign.case.E.Case.id = case_b.E.Case.id in
          Alcotest.(check bool)
            (r.E.Campaign.case.E.Case.id ^ " checkpoint reuse")
            expect_loaded r.E.Campaign.from_checkpoint)
        t2.E.Campaign.results);
  rm_rf dir

let campaign_recomputes_truncated_checkpoint () =
  let dir = fresh_dir "repro-fault-truncated" in
  let t = run_campaign ~dir [ case_a ] in
  let rows_ref = (List.hd t.E.Campaign.results).E.Campaign.rows in
  let path = Filename.concat dir (case_a.E.Case.id ^ ".csv") in
  let full = read_file path in
  (* simulate the pre-atomic-write failure mode: an in-place write cut
     off mid-stream, leaving a valid header and a torn row *)
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  let t2 = run_campaign ~dir [ case_a ] in
  (match t2.E.Campaign.results with
  | [ r ] ->
    Alcotest.(check bool) "recomputed, not trusted" false r.E.Campaign.from_checkpoint;
    Alcotest.(check int) "same row count as reference" (Array.length rows_ref)
      (Array.length r.E.Campaign.rows);
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j v -> Tutil.check_close ~eps:1e-9 "row value" v r.E.Campaign.rows.(i).(j))
          row)
      rows_ref
  | _ -> Alcotest.fail "expected one result");
  Alcotest.(check string) "checkpoint healed on disk" full (read_file path);
  rm_rf dir

let campaign_invalidates_foreign_provenance () =
  let dir = fresh_dir "repro-fault-provenance" in
  ignore (run_campaign ~dir [ case_a ]);
  (* (1) seed tampering: same file, manifest claims another seed *)
  (match E.Manifest.load ~dir with
  | Some m ->
    E.Manifest.save ~dir
      {
        m with
        E.Manifest.entries =
          List.map (fun e -> { e with E.Manifest.seed = 999L }) m.E.Manifest.entries;
      }
  | None -> Alcotest.fail "manifest missing after campaign");
  let t = run_campaign ~dir [ case_a ] in
  Alcotest.(check bool) "foreign seed recomputed" false
    (List.hd t.E.Campaign.results).E.Campaign.from_checkpoint;
  (* (2) no manifest at all: CSV alone is never trusted *)
  Sys.remove (Filename.concat dir E.Manifest.file_name);
  let t2 = run_campaign ~dir [ case_a ] in
  Alcotest.(check bool) "manifest-less CSV recomputed" false
    (List.hd t2.E.Campaign.results).E.Campaign.from_checkpoint;
  (* (3) scale renamed: stale-scale checkpoints are invalidated *)
  let other_scale = { tiny_scale with E.Scale.name = "tiny2" } in
  let t3 = E.Campaign.run ~scale:other_scale ~backoff:0. ~dir ~cases:[ case_a ] () in
  Alcotest.(check bool) "foreign scale recomputed" false
    (List.hd t3.E.Campaign.results).E.Campaign.from_checkpoint;
  (* (4) matching provenance after all that: reused *)
  let t4 = E.Campaign.run ~scale:other_scale ~backoff:0. ~dir ~cases:[ case_a ] () in
  Alcotest.(check bool) "matching provenance loads" true
    (List.hd t4.E.Campaign.results).E.Campaign.from_checkpoint;
  rm_rf dir

let campaign_stop_then_resume_byte_identical () =
  let dir_ref = fresh_dir "repro-fault-resume-ref" in
  let dir = fresh_dir "repro-fault-resume" in
  let cases = [ case_a; case_b ] in
  ignore (run_campaign ~dir:dir_ref cases);
  (* stop requested while case A is "in flight": A finishes and
     checkpoints, then the campaign raises instead of starting B *)
  E.Campaign.request_stop ();
  (match run_campaign ~dir cases with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception E.Campaign.Interrupted -> ());
  Alcotest.(check bool) "in-flight checkpoint written" true
    (Sys.file_exists (Filename.concat dir (case_a.E.Case.id ^ ".csv")));
  Alcotest.(check bool) "pending case not started" false
    (Sys.file_exists (Filename.concat dir (case_b.E.Case.id ^ ".csv")));
  (match E.Manifest.load ~dir with
  | Some m ->
    Alcotest.(check int) "manifest records the finished case" 1
      (List.length m.E.Manifest.entries)
  | None -> Alcotest.fail "manifest missing after interrupt");
  (* resume: A loads, B computes; final CSVs byte-identical to the
     uninterrupted reference *)
  let t = run_campaign ~dir cases in
  List.iter
    (fun r ->
      let expect_loaded = r.E.Campaign.case.E.Case.id = case_a.E.Case.id in
      Alcotest.(check bool)
        (r.E.Campaign.case.E.Case.id ^ " resume source")
        expect_loaded r.E.Campaign.from_checkpoint)
    t.E.Campaign.results;
  List.iter
    (fun c ->
      let name = c.E.Case.id ^ ".csv" in
      Alcotest.(check string)
        (name ^ " byte-identical to uninterrupted run")
        (read_file (Filename.concat dir_ref name))
        (read_file (Filename.concat dir name)))
    cases;
  rm_rf dir_ref;
  rm_rf dir

(* --- pool --- *)

let pool_survives_poisoned_chunk () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      with_faults (fun () ->
          Fault.configure ~spec:"pool.chunk:fail@2";
          check_injected "poisoned chunk surfaces" "pool.chunk" (fun () ->
              Parallel.Pool.run ~pool ~chunks:8 (fun _ -> ()));
          Fault.reset ();
          (* parked domains must not be wedged: the next job runs fully *)
          let seen = Array.make 8 false in
          Parallel.Pool.run ~pool ~chunks:8 (fun c -> seen.(c) <- true);
          Alcotest.(check bool) "all chunks ran after poisoning" true
            (Array.for_all Fun.id seen)))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "fault"
    [
      ( "spec",
        [
          tc "rejects garbage" `Quick spec_rejects_garbage;
          tc "disabled noop" `Quick probe_disabled_is_noop;
          tc "fires on nth hit" `Quick probe_fires_on_nth_hit;
          tc "count bounds firings" `Quick probe_count_bounds_firings;
          tc "other points unaffected" `Quick probe_ignores_other_points;
          tc "delay returns" `Quick probe_delay_returns;
          tc "seeded prob deterministic" `Quick seeded_probability_is_deterministic;
        ] );
      ( "atomic-write",
        [
          tc "old checkpoint survives kill" `Quick atomic_write_preserves_old_checkpoint;
          tc "mkdir-p nested" `Quick mkdir_p_nested_and_idempotent;
          tc "mkdir-p race" `Quick mkdir_p_concurrent_race;
        ] );
      ( "manifest",
        [
          tc "roundtrip" `Quick manifest_roundtrip;
          tc "rejects garbage" `Quick manifest_rejects_garbage;
        ] );
      ( "campaign",
        [
          tc "retry recovers transient" `Quick campaign_retry_recovers_transient;
          tc "isolates exhausted case" `Quick campaign_isolates_exhausted_case;
          tc "recomputes truncated checkpoint" `Quick
            campaign_recomputes_truncated_checkpoint;
          tc "invalidates foreign provenance" `Quick
            campaign_invalidates_foreign_provenance;
          tc "stop/resume byte-identical" `Quick campaign_stop_then_resume_byte_identical;
        ] );
      ( "pool",
        [
          tc "persistent pool survives poison" `Quick pool_survives_poisoned_chunk;
        ] );
    ]
