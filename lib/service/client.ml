module Json = Obs.Json

type t = {
  host : string;
  port : int;
  mutable conn : (Unix.file_descr * Http.reader) option;
}

let recv_timeout_s = 30.

let connect ?(host = "127.0.0.1") ~port () =
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  { host; port; conn = None }

let close t =
  match t.conn with
  | None -> ()
  | Some (fd, _) ->
    t.conn <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> raise Not_found
    | { Unix.h_addr_list; _ } -> h_addr_list.(0))

let dial t =
  match t.conn with
  | Some c -> c
  | None ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (resolve t.host, t.port));
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout_s
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    let c = (fd, Http.reader fd) in
    t.conn <- Some c;
    c

let once t ~headers ~meth ~path ~body =
  let fd, reader = dial t in
  match Http.write_request ~headers fd ~meth ~path ~body with
  | () -> Http.read_response reader
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> Error `Closed

let request t ~meth ~path ?(headers = []) ?(body = "") () =
  match once t ~headers ~meth ~path ~body with
  | Error `Closed ->
    (* stale keep-alive: redial once *)
    close t;
    once t ~headers ~meth ~path ~body
  | r -> r

let get t path = request t ~meth:"GET" ~path ()
let post t path body = request t ~meth:"POST" ~path ~body ()

(* ------------------------------------------------------------------ *)
(* Conveniences                                                        *)
(* ------------------------------------------------------------------ *)

let collapse what = function
  | Error e -> Error (what ^ ": " ^ Http.error_to_string e)
  | Ok (resp : Http.response) ->
    if resp.Http.status = 200 || resp.Http.status = 202 then Ok resp
    else
      Error
        (Printf.sprintf "%s: HTTP %d %s" what resp.Http.status
           (String.trim resp.Http.body))

let healthz t =
  match collapse "healthz" (get t "/healthz") with
  | Ok resp -> Ok resp.Http.body
  | Error _ as e -> e

let eval ?traceparent t job =
  let headers =
    match traceparent with None -> [] | Some tp -> [ ("traceparent", tp) ]
  in
  match
    collapse "eval" (request t ~meth:"POST" ~path:"/eval" ~headers
                       ~body:(Proto.job_to_json job) ())
  with
  | Ok resp -> Ok resp.Http.body
  | Error _ as e -> e

let submit t job =
  match collapse "submit" (post t "/jobs" (Proto.job_to_json job)) with
  | Error _ as e -> e
  | Ok resp -> (
    match Result.to_option (Json.parse resp.Http.body) with
    | Some j -> (
      match Option.bind (Json.mem "id" j) Json.str with
      | Some id -> Ok id
      | None -> Error "submit: response without a job id")
    | None -> Error "submit: unparsable response")

let job_status body =
  match Result.to_option (Json.parse body) with
  | Some j -> Option.bind (Json.mem "status" j) Json.str
  | None -> None

let wait ?(timeout_s = 60.) t id =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    match collapse "wait" (get t ("/jobs/" ^ id)) with
    | Error _ as e -> e
    | Ok resp -> (
      match job_status resp.Http.body with
      | Some ("queued" | "running") ->
        if Unix.gettimeofday () > deadline then Error ("wait: timed out on " ^ id)
        else begin
          Unix.sleepf 0.02;
          poll ()
        end
      | Some _ -> (
        match collapse "result" (get t ("/jobs/" ^ id ^ "/result")) with
        | Ok r when r.Http.status = 200 -> Ok r.Http.body
        | Ok r -> Error ("result: job " ^ id ^ " ended as " ^ String.trim r.Http.body)
        | Error _ as e -> e)
      | None -> Error "wait: unparsable status document")
  in
  poll ()
