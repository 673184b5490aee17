(* Test-side row views of what pgdb keeps as typed columns: its stored
   tables and its results. The row view the reference interpreter scans,
   and the tests that shuffle, count or compare rows read, is built here
   from the columns; so is the comparable outcome of one SELECT. *)

module Batch = Pgdb.Batch

(* the table's rows, boxed from its columns *)
let rows (tbl : Pgdb.Storage.table) : Pgdb.Value.t array array =
  let b = tbl.Pgdb.Storage.batch in
  Array.init b.Batch.nrows (fun i ->
      Array.map (fun c -> Batch.value_at c i) b.Batch.cols)

(* a result's rows, boxed from its columns: the one row view of a
   columnar result the tests compare and count *)
let result_rows (res : Pgdb.Exec.result) : Pgdb.Value.t array array =
  Array.init res.Pgdb.Exec.res_nrows (fun i ->
      Array.map (fun c -> Batch.value_at c i) res.Pgdb.Exec.res_columns)

(* every table of [db] still holds the identity selection its batch was
   built with: no kernel sorted or wrote a selection in place. A
   replicated table's batch is shared by every shard database, so a
   write on one shard's domain would race with every other shard. *)
let check_identity_selections (db : Pgdb.Db.t) =
  Hashtbl.iter
    (fun name (tbl : Pgdb.Storage.table) ->
      let b = tbl.Pgdb.Storage.batch in
      if b.Batch.all <> Array.init b.Batch.nrows Fun.id then
        Alcotest.failf "identity selection of %s was written to" name)
    db.Pgdb.Db.tables

(* one SELECT to a comparable value: result payload or an error tag;
   Vexec and the reference must land on the same constructor with equal
   data *)
let outcome (f : unit -> Pgdb.Exec.result) =
  match f () with
  | res -> Ok (res.Pgdb.Exec.res_cols, result_rows res)
  | exception Pgdb.Errors.Sql_error { code; message } ->
      Error (code ^ ":" ^ message)

(* [sql] through Vexec *)
let run sess sql =
  outcome (fun () ->
      match Pgdb.Db.exec sess sql with
      | Pgdb.Db.Rows (res, _) -> res
      | Pgdb.Db.Complete tag -> Alcotest.failf "%s: not a SELECT (%s)" sql tag)

(* an outcome with each float as its bit pattern: polymorphic compare
   calls -0.0 and 0.0 equal *)
let bits r =
  Result.map
    (fun (cols, rows) ->
      ( cols,
        Array.map
          (Array.map (function
            | Pgdb.Value.Float f -> Pgdb.Value.Int (Int64.bits_of_float f)
            | v -> v))
          rows ))
    r
