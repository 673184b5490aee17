(** kdb+-style console rendering of Q values.

    Tables print as aligned columns under a dashed header rule, dictionaries
    as [key | value] pairs, vectors space-separated — close enough to the
    kdb+ console for the examples and the side-by-side diff output. *)

let atom_cell a = Atom.to_string a

let rec cell = function
  | Value.Atom a -> atom_cell a
  | Value.Vector (Qtype.Char, _) as s -> "\"" ^ Value.to_string_exn s ^ "\""
  | Value.Vector _ as v ->
      String.concat " " (Array.to_list (Array.map atom_cell (Value.atoms_exn v)))
  | Value.List vs ->
      "(" ^ String.concat ";" (Array.to_list (Array.map cell vs)) ^ ")"
  | Value.Dict _ -> "<dict>"
  | Value.Table _ -> "<table>"
  | Value.KTable _ -> "<ktable>"

let table_to_lines (t : Value.table) : string list =
  let ncols = Array.length t.cols in
  let nrows = Value.table_length t in
  let cells =
    Array.init nrows (fun r ->
        Array.init ncols (fun c -> cell (Value.index t.data.(c) r)))
  in
  let width c =
    Array.fold_left
      (fun acc row -> Stdlib.max acc (String.length row.(c)))
      (String.length t.cols.(c))
      cells
  in
  let widths = Array.init ncols width in
  let pad s w = s ^ String.make (Stdlib.max 0 (w - String.length s)) ' ' in
  let header =
    String.concat " " (List.init ncols (fun c -> pad t.cols.(c) widths.(c)))
  in
  let rule = String.make (String.length header) '-' in
  let rows =
    List.init nrows (fun r ->
        String.concat " "
          (List.init ncols (fun c -> pad cells.(r).(c) widths.(c))))
  in
  header :: rule :: rows

let rec to_string (v : Value.t) : string =
  match v with
  | Value.Atom a -> Atom.to_string a
  | Value.Vector (Qtype.Char, _) -> "\"" ^ Value.to_string_exn v ^ "\""
  | Value.Vector (Qtype.Sym, _) ->
      String.concat "" (Array.to_list (Array.map Atom.to_string (Value.atoms_exn v)))
  | Value.Vector _ ->
      if Value.length v = 0 then "()"
      else
        String.concat " "
          (Array.to_list (Array.map Atom.to_string (Value.atoms_exn v)))
  | Value.List vs ->
      "(" ^ String.concat ";" (Array.to_list (Array.map to_string vs)) ^ ")"
  | Value.Dict (k, v) ->
      let ks = Value.elements k and vs = Value.elements v in
      let pair i = cell ks.(i) ^ "| " ^ cell vs.(i) in
      String.concat "\n" (List.init (Array.length ks) pair)
  | Value.Table t -> String.concat "\n" (table_to_lines t)
  | Value.KTable (k, v) ->
      let kl = table_to_lines k and vl = table_to_lines v in
      let rec zip a b =
        match (a, b) with
        | x :: xs, y :: ys -> (x ^ "| " ^ y) :: zip xs ys
        | x :: xs, [] -> (x ^ "| ") :: zip xs []
        | [], y :: ys -> ("| " ^ y) :: zip [] ys
        | [], [] -> []
      in
      String.concat "\n" (zip kl vl)

let pp ppf v = Format.pp_print_string ppf (to_string v)
let print v = print_endline (to_string v)
