(** The backend abstraction Hyper-Q talks to.

    The Gateway plugin (paper Figure 1) ultimately speaks the PG v3 wire
    protocol; this interface is what the query translator sees: send SQL
    text, get back a typed result set or a command tag. Two implementations
    exist — a direct in-process pgdb session, and the wire-level gateway in
    {!Platform} that round-trips every request through real PG v3 bytes. *)

type result = {
  cols : (string * Catalog.Sqltype.t) list;
  rows : Pgdb.Value.t array array;
      (** row-major cells, one array of [List.length cols] values per
          row. On the wire path these are the decoded PG v3 DataRows;
          the engine's Q pivot walks them once per column. *)
}

type reply = Result_set of result | Command_ok of string

type t = {
  name : string;
  exec : string -> (reply, string) Stdlib.result;
      (** execute one SQL statement *)
  sql_log : string list ref;  (** every statement sent, newest first *)
  sql_count : int ref;  (** length of [sql_log], maintained so callers
                            can bookmark and slice the log without
                            walking it *)
  decorate : (string -> string) ref;
      (** statement rewrite applied before logging and dispatch — the
          Gateway installs the sqlcommenter [traceparent] comment here
          so the decorated text is what both [sql_log] and the backend
          see *)
  on_exec : (string -> unit) ref;
      (** observer called with every statement as it is dispatched —
          {!Mdi} chains a DDL watcher here so catalog-changing
          statements bump the catalog generation *)
}

let exec (b : t) (sql : string) : (reply, string) Stdlib.result =
  let sql = !(b.decorate) sql in
  b.sql_log := sql :: !(b.sql_log);
  incr b.sql_count;
  !(b.on_exec) sql;
  b.exec sql

let log_mark (b : t) : int = !(b.sql_count)

let sql_since (b : t) (mark : int) : string list =
  let rec go acc n l =
    match l with x :: tl when n > 0 -> go (x :: acc) (n - 1) tl | _ -> acc
  in
  go [] (!(b.sql_count) - mark) !(b.sql_log)

let exec_exn (b : t) (sql : string) : reply =
  match exec b sql with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "backend error: %s" e)

let query_exn (b : t) (sql : string) : result =
  match exec_exn b sql with
  | Result_set r -> r
  | Command_ok tag -> failwith (Printf.sprintf "expected rows, got %s" tag)

(** Wrap a backend with a fixed per-statement latency, simulating the
    optimize-and-dispatch overhead of an MPP cluster (paper Section 2.1:
    "latency overhead in analytical databases, especially for
    short-running queries, is typically larger..."). Used by the
    benchmarks so execution times have the fixed floor a real Greenplum
    deployment exhibits; tests run without it. *)
let with_dispatch_latency (seconds : float) (b : t) : t =
  {
    b with
    name = b.name ^ "+dispatch";
    exec =
      (fun sql ->
        Unix.sleepf seconds;
        b.exec sql);
  }

(** Direct in-process backend over a pgdb session. *)
let of_pgdb_session (sess : Pgdb.Db.session) : t =
  let exec sql =
    match Pgdb.Db.exec sess sql with
    | Pgdb.Db.Rows (res, tag) ->
        ignore tag;
        Ok
          (Result_set
             { cols = res.Pgdb.Exec.res_cols; rows = res.Pgdb.Exec.res_rows })
    | Pgdb.Db.Complete tag -> Ok (Command_ok tag)
    | exception Pgdb.Errors.Sql_error { code; message } ->
        Error (Printf.sprintf "%s: %s" code message)
  in
  {
    name = "pgdb-direct";
    exec;
    sql_log = ref [];
    sql_count = ref 0;
    decorate = ref Fun.id;
    on_exec = ref ignore;
  }
