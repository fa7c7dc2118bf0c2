type axis = [ `Sigma | `Slack ]

type point = {
  step : int;
  em : float;
  sigma : float;
  slack : float;
  objective : float;
  sched : Sched.Schedule.t;
}

type t = { axis : axis; mutable pts : point list (* sorted by increasing em *) }

let create ~axis = { axis; pts = [] }
let axis t = t.axis

let y t p = match t.axis with `Sigma -> p.sigma | `Slack -> -.p.slack

(* q dominates p when q is no worse on both coordinates and not exactly
   equal on both — so exact ties go to the incumbent and the frontier is
   insertion-order deterministic. *)
let dominates t q p =
  q.em <= p.em && y t q <= y t p && not (q.em = p.em && y t q = y t p)

let offer t p =
  if List.exists (fun q -> dominates t q p || (q.em = p.em && y t q = y t p)) t.pts then
    false
  else begin
    let survivors = List.filter (fun q -> not (dominates t p q)) t.pts in
    let rec insert = function
      | [] -> [ p ]
      | q :: rest when q.em < p.em -> q :: insert rest
      | rest -> p :: rest
    in
    t.pts <- insert survivors;
    true
  end

let points t = t.pts
let size t = List.length t.pts

let csv_header = "index,step,expected_makespan,makespan_std,slack_total,objective,schedule"

let flat_sched sched =
  String.concat "|"
    (List.filter
       (fun l -> l <> "")
       (String.split_on_char '\n' (Sched.Schedule.to_string sched)))

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%.17g,%.17g,%.17g,%.17g,%s\n" i p.step p.em p.sigma
           p.slack p.objective (flat_sched p.sched)))
    t.pts;
  Buffer.contents buf

let to_json t =
  let num v = Obs.Json.Num (Obs.Json.float_lit v) in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("axis", Obs.Json.Str (match t.axis with `Sigma -> "sigma" | `Slack -> "slack"));
         ( "points",
           Obs.Json.Arr
             (List.map
                (fun p ->
                  Obs.Json.Obj
                    [
                      ("step", Obs.Json.Num (string_of_int p.step));
                      ("expected_makespan", num p.em);
                      ("makespan_std", num p.sigma);
                      ("slack_total", num p.slack);
                      ("objective", num p.objective);
                      ("schedule", Obs.Json.Str (flat_sched p.sched));
                    ])
                t.pts) );
       ])
