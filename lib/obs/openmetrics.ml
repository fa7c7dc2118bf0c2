(* OpenMetrics 1.0 text exposition: encoder for the metrics registry
   (plus caller-supplied always-on counters) and a line-grammar
   validator shared by the tests, the CI smoke and `repro check-metrics`.

   Encoder subtleties worth naming:
   - registry histogram counts are per-bucket; exposition buckets are
     CUMULATIVE and must end with le="+Inf" equal to _count;
   - counter sample names carry the _total suffix, the family does not;
   - registry names embed labels ("family{k=\"v\"}") — split here so
     the per-stage histograms expose as one family with a stage label;
   - exemplars ride bucket lines as `# {trace_id="..."} value`. *)

type data =
  | Counter of float
  | Gauge of float
  | Histogram of {
      bounds : float array; (* finite upper bounds *)
      counts : int array; (* per bucket (not cumulative), length bounds+1 *)
      sum : float;
      exemplars : (string * float) option array; (* per bucket *)
    }

type metric = {
  family : string;
  labels : (string * string) list;
  help : string option;
  data : data;
}

(* ------------------------------------------------------------------ *)
(* Names, labels, values                                               *)
(* ------------------------------------------------------------------ *)

let is_name_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false
let is_name_char c = is_name_start c || match c with '0' .. '9' -> true | _ -> false

let sanitize_name name =
  let buf = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      if (if i = 0 then is_name_start c else is_name_char c) then Buffer.add_char buf c
      else Buffer.add_char buf '_')
    name;
  if Buffer.length buf = 0 then "_" else Buffer.contents buf

(* "family{k=\"v\",k2=\"v2\"}" -> ("family", [k,v; k2,v2]); names without
   braces pass through. Registry names are trusted (we wrote them), so
   the parse is permissive: on any mismatch the raw name is sanitized
   whole. *)
let split_name name =
  match String.index_opt name '{' with
  | None -> (name, [])
  | Some i when String.length name > i + 1 && name.[String.length name - 1] = '}' -> (
    let base = String.sub name 0 i in
    let inside = String.sub name (i + 1) (String.length name - i - 2) in
    let parse_pair kv =
      match String.index_opt kv '=' with
      | Some j
        when String.length kv >= j + 3
             && kv.[j + 1] = '"'
             && kv.[String.length kv - 1] = '"' ->
        Some (String.sub kv 0 j, String.sub kv (j + 2) (String.length kv - j - 3))
      | _ -> None
    in
    let pairs = List.map parse_pair (String.split_on_char ',' inside) in
    if List.exists Option.is_none pairs then (name, [])
    else (base, List.filter_map Fun.id pairs))
  | Some _ -> (name, [])

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labels_str labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize_name k) (escape_label_value v))
           labels)
    ^ "}"

let fmt_value v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* ------------------------------------------------------------------ *)
(* From a registry snapshot                                            *)
(* ------------------------------------------------------------------ *)

let of_snapshot (s : Metrics.snapshot) =
  let make name data =
    let base, labels = split_name name in
    { family = sanitize_name base; labels; help = None; data }
  in
  List.map (fun (name, v) -> make name (Counter (float_of_int v))) s.Metrics.counters
  @ List.map (fun (name, v) -> make name (Gauge v)) s.Metrics.gauges
  @ List.map
      (fun (name, (h : Metrics.hist_value)) ->
        make name
          (Histogram
             { bounds = h.bounds; counts = h.counts; sum = h.sum; exemplars = h.exemplars }))
      s.Metrics.histograms

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let render metrics =
  (* group by family, preserving first-seen order; all label sets of a
     family must be contiguous under one TYPE block *)
  let order = ref [] in
  let groups : (string, metric list ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun m ->
      match Hashtbl.find_opt groups m.family with
      | Some r -> r := m :: !r
      | None ->
        Hashtbl.add groups m.family (ref [ m ]);
        order := m.family :: !order)
    metrics;
  let buf = Buffer.create 8192 in
  let exemplar_str = function
    | None -> ""
    | Some (trace_id, v) ->
      Printf.sprintf " # {trace_id=\"%s\"} %s" (escape_label_value trace_id) (fmt_value v)
  in
  List.iter
    (fun family ->
      let ms = List.rev !(Hashtbl.find groups family) in
      let kind = kind_name (List.hd ms).data in
      List.iter
        (fun m ->
          if kind_name m.data <> kind then
            invalid_arg
              (Printf.sprintf "Obs.Openmetrics.render: family %s mixes %s and %s" family
                 kind (kind_name m.data)))
        ms;
      (match List.find_map (fun m -> m.help) ms with
      | Some h ->
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" family (escape_label_value h))
      | None -> ());
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" family kind);
      List.iter
        (fun m ->
          match m.data with
          | Counter v ->
            Buffer.add_string buf
              (Printf.sprintf "%s_total%s %s\n" family (labels_str m.labels) (fmt_value v))
          | Gauge v ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" family (labels_str m.labels) (fmt_value v))
          | Histogram { bounds; counts; sum; exemplars } ->
            let cum = ref 0 in
            Array.iteri
              (fun i b ->
                cum := !cum + counts.(i);
                let labels = m.labels @ [ ("le", fmt_value b) ] in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d%s\n" family (labels_str labels) !cum
                     (exemplar_str exemplars.(i))))
              bounds;
            let overflow = Array.length bounds in
            cum := !cum + counts.(overflow);
            let inf_labels = m.labels @ [ ("le", "+Inf") ] in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d%s\n" family (labels_str inf_labels) !cum
                 (exemplar_str exemplars.(overflow)));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" family (labels_str m.labels) !cum);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" family (labels_str m.labels) (fmt_value sum)))
        ms)
    (List.rev !order);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let known_types =
  [ "counter"; "gauge"; "histogram"; "gaugehistogram"; "summary"; "info"; "stateset";
    "unknown" ]

let parse_float_token tok =
  match tok with
  | "+Inf" | "Inf" -> Some Float.infinity
  | "-Inf" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | _ -> float_of_string_opt tok

(* name at [i]; returns (name, next index) *)
let scan_name line i =
  let n = String.length line in
  if i >= n || not (is_name_start line.[i]) then raise (Bad "expected a metric name");
  let j = ref (i + 1) in
  while !j < n && is_name_char line.[!j] do
    incr j
  done;
  (String.sub line i (!j - i), !j)

(* {k="v",...} at [i] (line.[i] = '{'); returns (labels, next index) *)
let scan_labels line i =
  let n = String.length line in
  let labels = ref [] in
  let i = ref (i + 1) in
  let rec pairs () =
    if !i < n && line.[!i] = '}' then incr i
    else begin
      let name, j = scan_name line !i in
      i := j;
      if !i >= n || line.[!i] <> '=' then raise (Bad "label: expected '='");
      incr i;
      if !i >= n || line.[!i] <> '"' then raise (Bad "label: expected '\"'");
      incr i;
      let buf = Buffer.create 16 in
      let rec value () =
        if !i >= n then raise (Bad "label: unterminated value");
        match line.[!i] with
        | '"' -> incr i
        | '\\' ->
          if !i + 1 >= n then raise (Bad "label: dangling escape");
          (match line.[!i + 1] with
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | 'n' -> Buffer.add_char buf '\n'
          | c -> raise (Bad (Printf.sprintf "label: invalid escape '\\%c'" c)));
          i := !i + 2;
          value ()
        | c ->
          Buffer.add_char buf c;
          incr i;
          value ()
      in
      value ();
      labels := (name, Buffer.contents buf) :: !labels;
      if !i < n && line.[!i] = ',' then begin
        incr i;
        pairs ()
      end
      else if !i < n && line.[!i] = '}' then incr i
      else raise (Bad "label: expected ',' or '}'")
    end
  in
  pairs ();
  (List.rev !labels, !i)

type vstate = {
  types : (string, string) Hashtbl.t;
  sampled : (string, unit) Hashtbl.t; (* families with ≥1 sample *)
  closed : (string, unit) Hashtbl.t; (* families we moved past *)
  mutable current : string option;
  (* histogram series key -> (le, value) list, and _count values *)
  buckets : (string, (float * float) list ref) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let enter st family =
  (match st.current with
  | Some g when g <> family -> Hashtbl.replace st.closed g ()
  | _ -> ());
  if Hashtbl.mem st.closed family then
    raise (Bad (Printf.sprintf "family %s interleaved with another family" family));
  st.current <- Some family

let series_key family labels =
  let ls =
    List.filter (fun (k, _) -> k <> "le") labels
    |> List.sort compare
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
  in
  family ^ "|" ^ String.concat "," ls

let check_sample st line =
  let name, i = scan_name line 0 in
  let labels, i =
    if i < String.length line && line.[i] = '{' then scan_labels line i else ([], i)
  in
  if i >= String.length line || line.[i] <> ' ' then
    raise (Bad "expected ' ' before the sample value");
  let rest = String.sub line (i + 1) (String.length line - i - 1) in
  let value_tok, exemplar =
    match String.index_opt rest '#' with
    | Some j when j >= 1 && rest.[j - 1] = ' ' ->
      ( String.trim (String.sub rest 0 (j - 1)),
        Some (String.trim (String.sub rest (j + 1) (String.length rest - j - 1))) )
    | _ -> (String.trim rest, None)
  in
  let value =
    match parse_float_token value_tok with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "unparsable sample value %S" value_tok))
  in
  (* resolve the family through the typed suffixes *)
  let ends_with suf = String.length name > String.length suf
    && String.sub name (String.length name - String.length suf) (String.length suf) = suf
  in
  let chop suf = String.sub name 0 (String.length name - String.length suf) in
  let typed f = Hashtbl.find_opt st.types f in
  let family, suffix =
    match typed name with
    | Some "counter" -> raise (Bad (Printf.sprintf "counter sample %s must use _total" name))
    | Some "histogram" ->
      raise (Bad (Printf.sprintf "histogram sample %s needs _bucket/_count/_sum" name))
    | Some _ -> (name, "")
    | None ->
      let candidates =
        [ ("_total", "counter"); ("_created", "counter"); ("_bucket", "histogram");
          ("_count", "histogram"); ("_sum", "histogram"); ("_created", "histogram") ]
      in
      let rec find = function
        | [] -> raise (Bad (Printf.sprintf "sample %s has no preceding # TYPE" name))
        | (suf, kind) :: rest ->
          if ends_with suf && typed (chop suf) = Some kind then (chop suf, suf)
          else find rest
      in
      find candidates
  in
  enter st family;
  Hashtbl.replace st.sampled family ();
  (* exemplars only on counter _total and histogram _bucket lines *)
  (match exemplar with
  | None -> ()
  | Some ex ->
    if suffix <> "_total" && suffix <> "_bucket" then
      raise (Bad (Printf.sprintf "exemplar on %s (only _total/_bucket may carry one)" name));
    if String.length ex = 0 || ex.[0] <> '{' then raise (Bad "exemplar: expected '{'");
    let _labels, j = scan_labels ex 0 in
    let v = String.trim (String.sub ex j (String.length ex - j)) in
    (match parse_float_token v with
    | Some _ -> ()
    | None -> raise (Bad (Printf.sprintf "exemplar: unparsable value %S" v))));
  match suffix with
  | "_bucket" -> (
    match List.assoc_opt "le" labels with
    | None -> raise (Bad (Printf.sprintf "%s without an le label" name))
    | Some le -> (
      match parse_float_token le with
      | None -> raise (Bad (Printf.sprintf "unparsable le %S" le))
      | Some le ->
        let key = series_key family labels in
        let r =
          match Hashtbl.find_opt st.buckets key with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add st.buckets key r;
            r
        in
        r := (le, value) :: !r))
  | "_count" -> Hashtbl.replace st.counts (series_key family labels) value
  | _ -> ()

let finish_histograms st =
  Hashtbl.iter
    (fun key r ->
      let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) !r in
      (match List.rev sorted with
      | (last_le, last_v) :: _ ->
        if last_le <> Float.infinity then
          raise (Bad (Printf.sprintf "%s: missing le=\"+Inf\" bucket" key));
        (match Hashtbl.find_opt st.counts key with
        | Some c when c <> last_v ->
          raise
            (Bad
               (Printf.sprintf "%s: _count %s disagrees with +Inf bucket %s" key
                  (fmt_value c) (fmt_value last_v)))
        | _ -> ())
      | [] -> ());
      ignore
        (List.fold_left
           (fun prev (_, v) ->
             if v < prev then
               raise (Bad (Printf.sprintf "%s: bucket counts decrease" key));
             v)
           0. sorted))
    st.buckets

let validate text =
  let st =
    {
      types = Hashtbl.create 32;
      sampled = Hashtbl.create 32;
      closed = Hashtbl.create 32;
      current = None;
      buckets = Hashtbl.create 32;
      counts = Hashtbl.create 32;
    }
  in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  if String.length text = 0 || text.[String.length text - 1] <> '\n' then
    Error "exposition must end with a newline"
  else begin
    let lines = String.split_on_char '\n' (String.sub text 0 (String.length text - 1)) in
    let n_lines = List.length lines in
    let rec go lineno = function
      | [] -> Error "missing terminal # EOF"
      | line :: rest -> (
        let last = lineno = n_lines in
        match line with
        | "# EOF" ->
          if not last then err lineno "content after # EOF"
          else ( try finish_histograms st; Ok () with Bad m -> err lineno m)
        | "" -> err lineno "empty line"
        | _ when String.length line > 2 && String.sub line 0 2 = "# " -> (
          let body = String.sub line 2 (String.length line - 2) in
          match String.split_on_char ' ' body with
          | "TYPE" :: name :: [ kind ] ->
            if not (List.mem kind known_types) then
              err lineno (Printf.sprintf "unknown metric type %S" kind)
            else if Hashtbl.mem st.types name then
              err lineno (Printf.sprintf "duplicate # TYPE for %s" name)
            else if Hashtbl.mem st.sampled name then
              err lineno (Printf.sprintf "# TYPE for %s after its samples" name)
            else begin
              Hashtbl.add st.types name kind;
              match (try enter st name; None with Bad m -> Some m) with
              | Some m -> err lineno m
              | None -> go (lineno + 1) rest
            end
          | "HELP" :: _ :: _ | "UNIT" :: _ :: _ -> go (lineno + 1) rest
          | _ -> err lineno "unknown comment (only HELP/TYPE/UNIT/EOF allowed)")
        | _ -> (
          match check_sample st line with
          | () -> go (lineno + 1) rest
          | exception Bad m -> err lineno m))
    in
    go 1 lines
  end
