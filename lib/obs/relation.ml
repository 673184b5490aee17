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

let add_cell buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Trace.float_json f)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s ->
      Buffer.add_char buf '"';
      Trace.add_json_escaped buf s;
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
      Trace.add_json_escaped buf k;
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
