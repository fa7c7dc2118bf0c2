exception Injected of string

type action =
  | Fail
  | Delay of float (* seconds *)
  | Hold

type clause = {
  point : string;
  action : action;
  from_hit : int; (* first eligible hit, 1-based *)
  max_fires : int;
  prob : float;
  rng : Prng.Splitmix.t;
  mutable fired : int;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Guards [clauses] and [hit_counts]; only taken when the flag is on, so
   the disabled path stays a single atomic load. *)
let lock = Mutex.create ()
let clauses : clause list ref = ref []
let hit_counts : (string, int ref) Hashtbl.t = Hashtbl.create 8

(* Points released since the last configure or reset; held probes wait
   on [released_cond] under [lock]. *)
let released : (string, unit) Hashtbl.t = Hashtbl.create 4
let released_cond = Condition.create ()

let release point =
  Mutex.protect lock (fun () ->
      Hashtbl.replace released point ();
      Condition.broadcast released_cond)

let reset () =
  Atomic.set enabled_flag false;
  Mutex.protect lock (fun () ->
      clauses := [];
      Hashtbl.reset hit_counts;
      (* reset releases every hold: no probe outlives its spec *)
      Hashtbl.reset released;
      Condition.broadcast released_cond)

let bad fmt = Printf.ksprintf (fun m -> invalid_arg ("Fault.configure: " ^ m)) fmt

let parse_clause str =
  match String.split_on_char ':' (String.trim str) with
  | point :: action_s :: kvs when point <> "" && action_s <> "" ->
    let action_name, from_hit =
      match String.index_opt action_s '@' with
      | None -> (action_s, 1)
      | Some i ->
        let n = String.sub action_s (i + 1) (String.length action_s - i - 1) in
        (match int_of_string_opt n with
        | Some k when k >= 1 -> (String.sub action_s 0 i, k)
        | _ -> bad "bad hit index %S in %S" n str)
    in
    let count = ref 1 and prob = ref 1.0 and seed = ref 0L and ms = ref 10. in
    List.iter
      (fun kv ->
        match String.index_opt kv '=' with
        | None -> bad "malformed option %S in %S" kv str
        | Some i ->
          let k = String.sub kv 0 i
          and v = String.sub kv (i + 1) (String.length kv - i - 1) in
          (match k with
          | "count" -> (
            match int_of_string_opt v with
            | Some c when c >= 1 -> count := c
            | _ -> bad "count must be a positive int, got %S" v)
          | "p" -> (
            match float_of_string_opt v with
            | Some p when p >= 0. && p <= 1. -> prob := p
            | _ -> bad "p must be in [0,1], got %S" v)
          | "seed" -> (
            match Int64.of_string_opt v with
            | Some s -> seed := s
            | _ -> bad "seed must be an int, got %S" v)
          | "ms" -> (
            match float_of_string_opt v with
            | Some m when m >= 0. -> ms := m
            | _ -> bad "ms must be a nonnegative number, got %S" v)
          | other -> bad "unknown option %S" other))
      kvs;
    let action =
      match action_name with
      | "fail" -> Fail
      | "delay" -> Delay (!ms /. 1000.)
      | "hold" -> Hold
      | other -> bad "unknown action %S (fail|delay|hold)" other
    in
    {
      point;
      action;
      from_hit;
      max_fires = !count;
      prob = !prob;
      rng = Prng.Splitmix.create !seed;
      fired = 0;
    }
  | _ -> bad "malformed clause %S (want point:action[@N][:k=v]...)" str

let configure ~spec =
  let cs =
    String.split_on_char ';' spec
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map parse_clause
  in
  (match cs with [] -> bad "empty spec" | _ -> ());
  Mutex.protect lock (fun () ->
      clauses := cs;
      Hashtbl.reset hit_counts;
      Hashtbl.reset released;
      Condition.broadcast released_cond);
  Atomic.set enabled_flag true

let cut point =
  if Atomic.get enabled_flag then begin
    let firing =
      Mutex.protect lock (fun () ->
          let h =
            match Hashtbl.find_opt hit_counts point with
            | Some r ->
              incr r;
              !r
            | None ->
              Hashtbl.add hit_counts point (ref 1);
              1
          in
          let rec first = function
            | [] -> None
            | c :: rest ->
              if
                c.point = point && h >= c.from_hit && c.fired < c.max_fires
                && (c.prob >= 1. || Prng.Splitmix.next_float c.rng < c.prob)
              then begin
                c.fired <- c.fired + 1;
                Some c.action
              end
              else first rest
          in
          first !clauses)
    in
    (* act outside the lock so a delay never blocks other probes *)
    match firing with
    | None -> ()
    | Some Fail -> raise (Injected point)
    | Some (Delay s) -> if s > 0. then Unix.sleepf s
    | Some Hold ->
      let generation = !clauses in
      Mutex.protect lock (fun () ->
          while !clauses == generation && not (Hashtbl.mem released point) do
            Condition.wait released_cond lock
          done)
  end

let hits point =
  if not (Atomic.get enabled_flag) then 0
  else
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt hit_counts point with Some r -> !r | None -> 0)
