(* The benchmark executable. perfbench/run.py builds it and runs

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   from the root of the checkout; the last line of standard output is
   the result document. [main.exe --write-reference] recomputes the
   stored reference outputs of the default and held-out seeds. *)

open Common

let workloads = [ "campaign_fig6"; "serve_mixed"; "anneal_search" ]

(* Set up [k] times (the median is setup_s), then run the timed or the
   traced measurement on the last environment. The short set-ups of the
   campaign and the search are repeated more often, so that the median
   does not move with the host's noise. *)
let run_workload name ~seed ~seconds ~trace =
  let go ~k ~setup ~dispose ~timed ~traced =
    let env, setup_s = setup_median ~dispose ~k (fun () -> setup seed) in
    let c, values, detail =
      Fun.protect
        ~finally:(fun () -> dispose env)
        (fun () -> if trace then traced ~seed ~seconds env else timed ~seed ~seconds env)
    in
    let values = ("setup_s", setup_s) :: ("peak_rss_mb", peak_rss_mb ()) :: values in
    {
      attempted = c.attempted;
      failed = c.failed;
      values;
      detail = ("failures", Experiments.Json.Arr (List.rev_map jstr c.notes)) :: detail;
    }
  in
  match name with
  | "campaign_fig6" ->
    go ~k:9 ~setup:Wl_campaign.setup
      ~dispose:(fun e -> Parallel.Pool.shutdown e.Wl_campaign.pool)
      ~timed:Wl_campaign.timed ~traced:Wl_campaign.traced
  | "serve_mixed" ->
    go ~k:5 ~setup:Wl_serve.setup ~dispose:Wl_serve.dispose ~timed:Wl_serve.timed
      ~traced:Wl_serve.traced
  | "anneal_search" ->
    go ~k:9 ~setup:Wl_anneal.setup ~dispose:ignore ~timed:Wl_anneal.timed
      ~traced:Wl_anneal.traced
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Reference outputs: the campaign, whose inputs do not depend on the
   seed, and the first search of each recorded seed. *)
let write_reference () =
  let open Experiments.Json in
  let campaign =
    let env = Wl_campaign.setup default_seed in
    let dir = fresh_dir "campaign-reference" in
    ignore (Wl_campaign.run_campaign ~pool:env.Wl_campaign.pool ~dir env.Wl_campaign.cases);
    Parallel.Pool.shutdown env.Wl_campaign.pool;
    let d = Wl_campaign.digests dir env.Wl_campaign.cases in
    Obj (List.map (fun (f, h) -> (f, Str h)) d)
  in
  let anneal seed =
    let env = Wl_anneal.setup seed in
    let out, _, _ = Wl_anneal.run_once env ~rep:0 in
    let b, f = Wl_anneal.signature out in
    Obj [ ("best_objective_bits", Str b); ("frontier_md5", Str f) ]
  in
  let seeds = [ default_seed; heldout_seed ] in
  let doc =
    Obj
      [
        ("campaign_fig6", campaign);
        ("anneal_search", Obj (List.map (fun s -> (string_of_int s, anneal s)) seeds));
      ]
  in
  rm_rf work_root;
  Out_channel.with_open_bin reference_file (fun oc ->
      output_string oc (to_string doc);
      output_char oc '\n')

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10 and trace = ref 0 in
  let write_ref = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced run");
      ("--write-reference", Arg.Set write_ref, " recompute perfbench/reference.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write_ref then write_reference ()
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end;
    let o = run_workload !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
    rm_rf work_root;
    print_endline
      (result_json ~workload:!workload ~seed:!seed ~trace:(!trace = 1) ~seconds:!seconds o)
  end
