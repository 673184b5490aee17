type cell =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Json of string

type column =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Strs of string array
  | Jsons of string array

type 'a col = string * ('a array -> column)

let int name f : 'a col = (name, fun rs -> Ints (Array.map f rs))
let float name f : 'a col = (name, fun rs -> Floats (Array.map f rs))
let bool name f : 'a col = (name, fun rs -> Bools (Array.map f rs))
let str name f : 'a col = (name, fun rs -> Strs (Array.map f rs))
let json name f : 'a col = (name, fun rs -> Jsons (Array.map f rs))

type t = {
  columns : (string * column) list;
  length : int;
  fields : (string * cell) list;
}

let make ?(fields = []) ?(n = max_int) (cols : 'a col list) (rows : 'a list) :
    t =
  let rows = Array.of_list (List.filteri (fun i _ -> i < n) rows) in
  {
    columns = List.map (fun (name, build) -> (name, build rows)) cols;
    length = Array.length rows;
    fields;
  }

let with_fields t fs = { t with fields = t.fields @ fs }
let columns t = t.columns

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let needs_json_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_json_escaped buf s =
  (* fast path: most payloads (ids, level names, SQL without quotes)
     need no escaping, so scan once before touching the buffer *)
  let n = String.length s in
  let clean = ref true in
  let i = ref 0 in
  while !clean && !i < n do
    if needs_json_escape (String.unsafe_get s !i) then clean := false;
    incr i
  done;
  if !clean then Buffer.add_string buf s
  else
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
      s

(* the primitive behind string_of_float, which beats Printf here *)
external format_float : string -> float -> string = "caml_format_float"

(* 15 significant digits keep a wall-clock timestamp to 10 us and never
   show binary noise *)
let digits f = format_float "%.15g" f

(* non-finite floats have no JSON literal: NaN becomes null, the
   infinities become strings, so every emitted document stays parseable.
   Whole numbers get the ".0" that marks them as floats *)
let float_json f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else
    let s = digits f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let add_cell buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_json f)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s ->
      Buffer.add_char buf '"';
      add_json_escaped buf s;
      Buffer.add_char buf '"'
  | Json "" -> Buffer.add_string buf "null"
  | Json j -> Buffer.add_string buf j

let cell (c : column) (i : int) : cell =
  match c with
  | Ints a -> Int a.(i)
  | Floats a -> Float a.(i)
  | Bools a -> Bool a.(i)
  | Strs a -> Str a.(i)
  | Jsons a -> Json a.(i)

(* ["k":v,"k":v] without the braces *)
let add_members buf (kvs : (string * cell) list) =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      add_json_escaped buf k;
      Buffer.add_string buf "\":";
      add_cell buf v)
    kvs

let add_row buf t i =
  Buffer.add_char buf '{';
  add_members buf (List.map (fun (k, c) -> (k, cell c i)) t.columns);
  Buffer.add_char buf '}'

let add_rows buf t =
  Buffer.add_char buf '[';
  for i = 0 to t.length - 1 do
    if i > 0 then Buffer.add_char buf ',';
    add_row buf t i
  done;
  Buffer.add_char buf ']'

let rendered f =
  let buf = Buffer.create 256 in
  f buf;
  Buffer.contents buf

let rows_json t = rendered (fun buf -> add_rows buf t)

let to_json ~rows_key t =
  rendered (fun buf ->
      Buffer.add_char buf '{';
      add_members buf (t.fields @ [ (rows_key, Json (rows_json t)) ]);
      Buffer.add_string buf "}\n")

let to_jsonl t =
  rendered (fun buf ->
      for i = 0 to t.length - 1 do
        add_row buf t i;
        Buffer.add_char buf '\n'
      done)

let cell_json c = rendered (fun buf -> add_cell buf c)

let obj kvs =
  rendered (fun buf ->
      Buffer.add_char buf '{';
      add_members buf kvs;
      Buffer.add_char buf '}')

let arr cells =
  rendered (fun buf ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf ',';
          add_cell buf c)
        cells;
      Buffer.add_char buf ']')

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

type sample = {
  p_family : string;
  p_type : string;
  p_help : string;
  p_suffix : string;
  p_labels : (string * string) list;
  p_value : float;
}

let sample_columns = [ "family"; "type"; "help"; "suffix"; "value" ]

(* label names in an order that agrees with every sample's own label
   order: a new name goes just before the next name of its sample that
   is already placed, or last *)
let label_names (ss : sample list) : string list =
  List.fold_left
    (fun names s ->
      fst
        (List.fold_right
           (fun (k, _) (names, anchor) ->
             if List.mem k names then (names, Some k)
             else
               let rec insert = function
                 | x :: rest when Some x <> anchor -> x :: insert rest
                 | rest -> k :: rest
               in
               (insert names, Some k))
           s.p_labels (names, None)))
    [] ss

let samples (ss : sample list) : t =
  let keys = label_names ss in
  make
    ([
       str "family" (fun s -> s.p_family);
       str "type" (fun s -> s.p_type);
       str "help" (fun s -> s.p_help);
       str "suffix" (fun s -> s.p_suffix);
     ]
    @ List.map
        (fun k ->
          str k (fun s ->
              Option.value (List.assoc_opt k s.p_labels) ~default:""))
        keys
    @ [ float "value" (fun s -> s.p_value) ])
    ss

(* Prometheus exposition escaping for label values: only backslash,
   double-quote and newline are special. OCaml's %S is close but wrong —
   it emits decimal escapes (\027) for control characters and escapes
   characters Prometheus treats as literal, producing lines scrapers
   reject once a fingerprint or detail label carries one *)
let escape_label_value s =
  if not (String.exists (fun c -> c = '\\' || c = '"' || c = '\n') s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let add_labels buf = function
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label_value v);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}'

let labels_text = function
  | [] -> ""
  | labels -> rendered (fun buf -> add_labels buf labels)

(* the JSON writer's digits, with the exposition's spellings of the
   non-finite values; whole numbers print without a decimal point *)
let prometheus_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else digits v

let to_prometheus t =
  let not_samples () = invalid_arg "Relation.to_prometheus: not samples" in
  let strs name =
    match List.assoc_opt name t.columns with
    | Some (Strs a) -> a
    | _ -> not_samples ()
  in
  let family = strs "family" and kind = strs "type" and help = strs "help" in
  let suffix = strs "suffix" in
  let value =
    match List.assoc_opt "value" t.columns with
    | Some (Floats a) -> a
    | _ -> not_samples ()
  in
  let labels =
    List.filter_map
      (fun (k, c) ->
        match c with
        | Strs a when not (List.mem k sample_columns) -> Some (k, a)
        | _ -> None)
      t.columns
  in
  (* a family's help is the first non-empty help among its samples, so
     labelled series registered without help (per-shard families) still
     document themselves when any sibling carries help *)
  let family_help = Hashtbl.create 16 in
  Array.iteri
    (fun i f ->
      if help.(i) <> "" && not (Hashtbl.mem family_help f) then
        Hashtbl.add family_help f help.(i))
    family;
  let seen = Hashtbl.create 16 in
  rendered (fun buf ->
      for i = 0 to t.length - 1 do
        let f = family.(i) in
        if not (Hashtbl.mem seen f) then begin
          Hashtbl.add seen f ();
          Option.iter
            (fun h -> Printf.bprintf buf "# HELP %s %s\n" f h)
            (Hashtbl.find_opt family_help f);
          Printf.bprintf buf "# TYPE %s %s\n" f kind.(i)
        end;
        Buffer.add_string buf f;
        Buffer.add_string buf suffix.(i);
        add_labels buf
          (List.filter_map
             (fun (k, a) -> if a.(i) = "" then None else Some (k, a.(i)))
             labels);
        Buffer.add_char buf ' ';
        Buffer.add_string buf (prometheus_float value.(i));
        Buffer.add_char buf '\n'
      done)
