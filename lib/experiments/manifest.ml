type status =
  | Done of { rows : int; attempts : int }
  | Failed of { attempts : int; error : string }

type entry = {
  id : string;
  seed : int64;
  schedules : int;
  status : status;
}

type t = {
  scale : string;
  slack_mode : string;
  entries : entry list;
}

let version = 1
let file_name = "campaign.json"

let slack_mode_name = function
  | None | Some `Disjunctive -> "disjunctive"
  | Some `Precedence -> "precedence"

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let add_escaped = Obs.Json.escape_into

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\n  \"version\": %d,\n  \"scale\": " version);
  add_escaped buf t.scale;
  Buffer.add_string buf ",\n  \"slack_mode\": ";
  add_escaped buf t.slack_mode;
  Buffer.add_string buf ",\n  \"cases\": [";
  List.iteri
    (fun i e ->
      Buffer.add_string buf (if i = 0 then "\n    { " else ",\n    { ");
      Buffer.add_string buf "\"id\": ";
      add_escaped buf e.id;
      Buffer.add_string buf (Printf.sprintf ", \"seed\": \"%Ld\"" e.seed);
      Buffer.add_string buf (Printf.sprintf ", \"schedules\": %d" e.schedules);
      (match e.status with
      | Done { rows; attempts } ->
        Buffer.add_string buf
          (Printf.sprintf ", \"status\": \"done\", \"rows\": %d, \"attempts\": %d" rows
             attempts)
      | Failed { attempts; error } ->
        Buffer.add_string buf
          (Printf.sprintf ", \"status\": \"failed\", \"attempts\": %d, \"error\": "
             attempts);
        add_escaped buf error);
      Buffer.add_string buf " }")
    t.entries;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let save ~dir t = ignore (Export.write_file ~dir ~name:file_name (to_json t))

(* ------------------------------------------------------------------ *)
(* Reader: {!Obs.Json} (the shared bounded parser) plus schema checks. *)
(* Any shape mismatch is a [None] — callers treat that as "no          *)
(* provenance: recompute".                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Option.bind

let str_field k j = Option.bind (Obs.Json.mem k j) Obs.Json.str
let int_field k j = Option.bind (Obs.Json.mem k j) Obs.Json.to_int

let entry_of_json ej =
  let* id = str_field "id" ej in
  let* seed = Option.bind (Obs.Json.mem "seed" ej) Obs.Json.to_int64 in
  let* schedules = int_field "schedules" ej in
  let* status =
    match str_field "status" ej with
    | Some "done" ->
      let* rows = int_field "rows" ej in
      let* attempts = int_field "attempts" ej in
      Some (Done { rows; attempts })
    | Some "failed" ->
      let* attempts = int_field "attempts" ej in
      let* error = str_field "error" ej in
      Some (Failed { attempts; error })
    | _ -> None
  in
  Some { id; seed; schedules; status }

let of_json j =
  let* v = int_field "version" j in
  if v <> version then None
  else
    let* cases = Option.bind (Obs.Json.mem "cases" j) Obs.Json.list_ in
    let* entries =
      List.fold_right
        (fun ej acc ->
          let* acc = acc in
          let* e = entry_of_json ej in
          Some (e :: acc))
        cases (Some [])
    in
    let* scale = str_field "scale" j in
    let* slack_mode = str_field "slack_mode" j in
    Some { scale; slack_mode; entries }

let load ~dir =
  let path = Filename.concat dir file_name in
  if not (Sys.file_exists path) then None
  else
    let read () =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match read () with
    | exception (Sys_error _ | End_of_file) -> None
    | content -> (
      match Obs.Json.parse content with
      | Error _ -> None
      | Ok j -> of_json j)
