type limits = {
  max_header_bytes : int;
  max_headers : int;
  max_body_bytes : int;
}

let default_limits =
  { max_header_bytes = 16 * 1024; max_headers = 100; max_body_bytes = 8 * 1024 * 1024 }

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
  http_1_1 : bool;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

type error =
  [ `Closed
  | `Timeout
  | `Bad_request of string
  | `Header_too_large
  | `Body_too_large ]

let error_to_string = function
  | `Closed -> "connection closed"
  | `Timeout -> "read timeout"
  | `Bad_request msg -> "bad request: " ^ msg
  | `Header_too_large -> "header too large"
  | `Body_too_large -> "body too large"

(* ------------------------------------------------------------------ *)
(* Buffered reading                                                    *)
(* ------------------------------------------------------------------ *)

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;  (* valid bytes in [buf] *)
}

let reader fd = { fd; buf = Bytes.create 4096; len = 0 }
let buffered r = r.len

exception Read_error of error

(* One [read] into the spare room of [buf]; grows the buffer as needed.
   Returns the number of fresh bytes (0 = EOF). *)
let fill r =
  if r.len = Bytes.length r.buf then begin
    let bigger = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 bigger 0 r.len;
    r.buf <- bigger
  end;
  let rec go () =
    match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
    | n ->
      r.len <- r.len + n;
      n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise (Read_error `Timeout)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      raise (Read_error `Closed)
  in
  go ()

let consume r n =
  Bytes.blit r.buf n r.buf 0 (r.len - n);
  r.len <- r.len - n

(* Index just past the first blank line ("\r\n\r\n" or "\n\n"), if the
   head is complete within the first [cap] bytes. *)
let head_end r =
  let limit = r.len in
  let rec scan i =
    if i >= limit then None
    else if Bytes.get r.buf i = '\n' then
      if i + 1 < limit && Bytes.get r.buf (i + 1) = '\n' then Some (i + 2)
      else if
        i + 2 < limit && Bytes.get r.buf (i + 1) = '\r' && Bytes.get r.buf (i + 2) = '\n'
      then Some (i + 3)
      else scan (i + 1)
    else scan (i + 1)
  in
  scan 0

(* Read a full message head into a string list of its lines. [`Closed]
   only when EOF arrives before the first byte — EOF mid-head is a
   protocol error. *)
let read_head limits r =
  let rec go () =
    match head_end r with
    | Some e when e > limits.max_header_bytes -> raise (Read_error `Header_too_large)
    | Some e ->
      let head = Bytes.sub_string r.buf 0 e in
      consume r e;
      head
    | None ->
      if r.len > limits.max_header_bytes then raise (Read_error `Header_too_large);
      let fresh = fill r in
      if fresh = 0 then
        raise (Read_error (if r.len = 0 then `Closed else `Bad_request "truncated head"));
      go ()
  in
  let head = go () in
  String.split_on_char '\n' head
  |> List.filter_map (fun line ->
         let line =
           if String.length line > 0 && line.[String.length line - 1] = '\r' then
             String.sub line 0 (String.length line - 1)
           else line
         in
         if line = "" then None else Some line)

let parse_headers limits lines =
  if List.length lines > limits.max_headers then raise (Read_error `Header_too_large);
  List.map
    (fun line ->
      match String.index_opt line ':' with
      | None -> raise (Read_error (`Bad_request "malformed header line"))
      | Some i ->
        let name = String.lowercase_ascii (String.sub line 0 i) in
        let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        if name = "" then raise (Read_error (`Bad_request "empty header name"));
        (name, value))
    lines

let header name headers = List.assoc_opt name headers

let read_body limits r headers =
  if header "transfer-encoding" headers <> None then
    raise (Read_error (`Bad_request "chunked transfer encoding unsupported"));
  match header "content-length" headers with
  | None -> ""
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | None -> raise (Read_error (`Bad_request "malformed content-length"))
    | Some n when n < 0 -> raise (Read_error (`Bad_request "negative content-length"))
    | Some n when n > limits.max_body_bytes -> raise (Read_error `Body_too_large)
    | Some n ->
      while r.len < n do
        if fill r = 0 then raise (Read_error (`Bad_request "truncated body"))
      done;
      let body = Bytes.sub_string r.buf 0 n in
      consume r n;
      body)

(* ------------------------------------------------------------------ *)
(* Request line / target                                               *)
(* ------------------------------------------------------------------ *)

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      match s.[i] with
      | '%' when i + 2 < n -> (
        match (hex_digit s.[i + 1], hex_digit s.[i + 2]) with
        | Some h, Some l ->
          Buffer.add_char buf (Char.chr ((h * 16) + l));
          go (i + 3)
        | _ -> raise (Read_error (`Bad_request "malformed percent escape")))
      | '%' -> raise (Read_error (`Bad_request "malformed percent escape"))
      | '+' ->
        Buffer.add_char buf ' ';
        go (i + 1)
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go 0;
  Buffer.contents buf

let parse_target target =
  let raw_path, raw_query =
    match String.index_opt target '?' with
    | None -> (target, "")
    | Some i ->
      (String.sub target 0 i, String.sub target (i + 1) (String.length target - i - 1))
  in
  let query =
    if raw_query = "" then []
    else
      String.split_on_char '&' raw_query
      |> List.filter_map (fun kv ->
             if kv = "" then None
             else
               match String.index_opt kv '=' with
               | None -> Some (percent_decode kv, "")
               | Some i ->
                 Some
                   ( percent_decode (String.sub kv 0 i),
                     percent_decode (String.sub kv (i + 1) (String.length kv - i - 1)) ))
  in
  (percent_decode raw_path, query)

let read_request ?(limits = default_limits) r =
  match
    let lines = read_head limits r in
    match lines with
    | [] -> raise (Read_error (`Bad_request "empty head"))
    | request_line :: header_lines ->
      let meth, target, version =
        match String.split_on_char ' ' request_line with
        | [ m; t; v ] -> (m, t, v)
        | _ -> raise (Read_error (`Bad_request "malformed request line"))
      in
      let http_1_1 =
        match version with
        | "HTTP/1.1" -> true
        | "HTTP/1.0" -> false
        | _ -> raise (Read_error (`Bad_request "unsupported HTTP version"))
      in
      if meth = "" then raise (Read_error (`Bad_request "empty method"));
      let headers = parse_headers limits header_lines in
      let body = read_body limits r headers in
      let path, query = parse_target target in
      { meth; path; query; headers; body; http_1_1 }
  with
  | req -> Ok req
  | exception Read_error e -> Error e

let read_response ?(limits = default_limits) r =
  match
    let lines = read_head limits r in
    match lines with
    | [] -> raise (Read_error (`Bad_request "empty head"))
    | status_line :: header_lines ->
      let status =
        match String.split_on_char ' ' status_line with
        | version :: code :: _
          when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
          match int_of_string_opt code with
          | Some c when c >= 100 && c <= 599 -> c
          | _ -> raise (Read_error (`Bad_request "malformed status code")))
        | _ -> raise (Read_error (`Bad_request "malformed status line"))
      in
      let headers = parse_headers limits header_lines in
      let body = read_body limits r headers in
      { status; headers; body }
  with
  | resp -> Ok resp
  | exception Read_error e -> Error e

let keep_alive req =
  req.http_1_1
  &&
  match header "connection" req.headers with
  | Some v -> String.lowercase_ascii v <> "close"
  | None -> true

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let status_reason = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Status"

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let write_response ?(headers = []) fd ~status body =
  let buf = Buffer.create (256 + String.length body) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_reason status));
  (* an explicit content-type in [headers] wins over the default *)
  if not (List.mem_assoc "content-type" headers) then
    Buffer.add_string buf "content-type: application/json\r\n";
  Buffer.add_string buf (Printf.sprintf "content-length: %d\r\n" (String.length body));
  List.iter
    (fun (name, value) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" name value))
    headers;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  write_all fd (Buffer.contents buf)

let write_request ?(headers = []) fd ~meth ~path ~body =
  let buf = Buffer.create (256 + String.length body) in
  Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" meth path);
  if not (List.mem_assoc "host" headers) then
    Buffer.add_string buf "host: localhost\r\n";
  Buffer.add_string buf (Printf.sprintf "content-length: %d\r\n" (String.length body));
  List.iter
    (fun (name, value) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" name value))
    headers;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  write_all fd (Buffer.contents buf)
