type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of string
  | Bool of bool
  | Null

type error = {
  offset : int;
  reason : string;
}

let error_to_string e = Printf.sprintf "byte %d: %s" e.offset e.reason

exception Fail of error

let fail offset reason = raise (Fail { offset; reason })

let parse ?(max_bytes = 8 * 1024 * 1024) ?(max_depth = 64) ?(max_nodes = 1_000_000) s =
  let n = String.length s in
  let pos = ref 0 in
  let nodes = ref 0 in
  let peek () = if !pos < n then s.[!pos] else fail !pos "unexpected end of input" in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then fail !pos (Printf.sprintf "expected %C" c) else advance ()
  in
  let node () =
    incr nodes;
    if !nodes > max_nodes then fail !pos "too many nodes"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char buf '"'; advance ()
        | '\\' -> Buffer.add_char buf '\\'; advance ()
        | '/' -> Buffer.add_char buf '/'; advance ()
        | 'n' -> Buffer.add_char buf '\n'; advance ()
        | 'r' -> Buffer.add_char buf '\r'; advance ()
        | 't' -> Buffer.add_char buf '\t'; advance ()
        | 'b' -> Buffer.add_char buf '\b'; advance ()
        | 'f' -> Buffer.add_char buf '\012'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail !pos "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail !pos "malformed \\u escape"
          in
          pos := !pos + 4;
          (* escapes we emit are all < 0x80; decode the rest as '?' *)
          Buffer.add_char buf (if code < 0x80 then Char.chr code else '?')
        | _ -> fail !pos "unknown escape");
        go ()
      | c when Char.code c < 0x20 -> fail !pos "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value depth =
    if depth > max_depth then fail !pos "nesting too deep";
    node ();
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          if peek () <> '"' then fail !pos "expected object key";
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((k, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail !pos "expected ',' or '}'"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements (v :: acc)
          | ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail !pos "expected ',' or ']'"
        in
        elements []
      end
    | '"' -> Str (parse_string ())
    | 't' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
        pos := !pos + 4;
        Bool true
      end
      else fail !pos "malformed literal"
    | 'f' ->
      if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
        pos := !pos + 5;
        Bool false
      end
      else fail !pos "malformed literal"
    | 'n' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
        pos := !pos + 4;
        Null
      end
      else fail !pos "malformed literal"
    | '-' | '0' .. '9' ->
      let start = !pos in
      let num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      let raw = String.sub s start (!pos - start) in
      (* a raw literal must at least convert as a float; rejects "-",
         "1e", "1.2.3" and friends *)
      if float_of_string_opt raw = None then fail start "malformed number";
      Num raw
    | _ -> fail !pos "unexpected character"
  in
  if n > max_bytes then Error { offset = 0; reason = "input too large" }
  else
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail !pos "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let mem k = function Obj fields -> List.assoc_opt k fields | _ -> None
let str = function Str s -> Some s | _ -> None
let list_ = function Arr l -> Some l | _ -> None
let to_int = function Num raw -> int_of_string_opt raw | _ -> None

let to_int64 = function
  | Num raw | Str raw -> Int64.of_string_opt raw
  | _ -> None

let to_float = function Num raw -> float_of_string_opt raw | _ -> None

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_lit ?(fmt : (float -> string, unit, string) format = "%.17g") v =
  if Float.is_finite v then Printf.sprintf fmt v else "null"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num raw -> Buffer.add_string buf raw
  | Str s -> escape_into buf s
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf
