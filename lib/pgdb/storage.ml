(** Table storage for the pgdb backend: a table is its definition and
    its typed columns ({!Batch}), held once. A mutation swaps in a new
    batch. *)

type table = { def : Catalog.Schema.table_def; mutable batch : Batch.t }

let create def batch = { def; batch }
let row_count t = t.batch.Batch.nrows

let column_index (t : table) name =
  let cols = t.def.Catalog.Schema.tbl_columns in
  let rec go i = function
    | [] -> None
    | c :: rest ->
        if
          String.lowercase_ascii c.Catalog.Schema.col_name
          = String.lowercase_ascii name
        then Some i
        else go (i + 1) rest
  in
  go 0 cols
