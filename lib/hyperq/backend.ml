(** The backend abstraction Hyper-Q talks to.

    The Gateway plugin (paper Figure 1) ultimately speaks the PG v3 wire
    protocol; this interface is what the query translator sees: send SQL
    text, get back a typed result set or a command tag. Two implementations
    exist — a direct in-process pgdb session, and the wire-level gateway in
    {!Platform} that round-trips every request through real PG v3 bytes. *)

(** A result set: pgdb's own column-major result. On the wire path the
    client rebuilds its typed columns from the PG v3 DataRows; the
    engine's Q pivot reads each column once. *)
type result = Pgdb.Exec.result = {
  res_cols : (string * Catalog.Sqltype.t) list;
  res_nrows : int;
  res_columns : Pgdb.Batch.column array;
}

type reply = Result_set of result | Command_ok of string

type t = {
  name : string;
  exec : string -> (reply, string) Stdlib.result;
      (** execute one SQL statement *)
  sql_count : int ref;
      (** statements sent since the backend was created — the bookmark
          {!log_mark} hands out *)
  request_sql : string list ref;
      (** the statements of the current request only, newest first;
          {!begin_request} empties it, so the backend holds no history
          that grows with the number of requests *)
  decorate : (string -> string) ref;
      (** statement rewrite applied before logging and dispatch — the
          Gateway installs the sqlcommenter [traceparent] comment here
          so the decorated text is what both [request_sql] and the
          backend see *)
  on_exec : (string -> unit) ref;
      (** observer called with every statement as it is dispatched —
          {!Mdi} chains a DDL watcher here so catalog-changing
          statements bump the catalog generation; a caller that wants
          every statement ever sent chains a recorder here too *)
}

let exec (b : t) (sql : string) : (reply, string) Stdlib.result =
  let sql = !(b.decorate) sql in
  b.request_sql := sql :: !(b.request_sql);
  incr b.sql_count;
  !(b.on_exec) sql;
  b.exec sql

let begin_request (b : t) : unit = b.request_sql := []
let log_mark (b : t) : int = !(b.sql_count)

let sql_since (b : t) (mark : int) : string list =
  let rec go acc n l =
    match l with x :: tl when n > 0 -> go (x :: acc) (n - 1) tl | _ -> acc
  in
  go [] (!(b.sql_count) - mark) !(b.request_sql)

(** Direct in-process backend over a pgdb session. *)
let of_pgdb_session (sess : Pgdb.Db.session) : t =
  let exec sql =
    match Pgdb.Db.exec sess sql with
    | Pgdb.Db.Rows (res, _) -> Ok (Result_set res)
    | Pgdb.Db.Complete tag -> Ok (Command_ok tag)
    | exception Pgdb.Errors.Sql_error { code; message } ->
        Error (Printf.sprintf "%s: %s" code message)
  in
  {
    name = "pgdb-direct";
    exec;
    sql_count = ref 0;
    request_sql = ref [];
    decorate = ref Fun.id;
    on_exec = ref ignore;
  }

type statement =
  | Create of { temp : bool; table : string option; as_query : bool }
  | Drop of string option
  | Alter of string option
  | Insert of string
  | Mutate of string
  | Other

(* Reads words until it knows the kind and the name: a word is a run of
   characters up to whitespace or one of ( ) ; , and is lower-cased. A
   statement that starts with no DDL or DML keyword costs one word. *)
let classify (sql : string) : statement =
  let n = String.length sql in
  let rec word_at i =
    if i < n && sql.[i] <= ' ' then word_at (i + 1)
    else
      let j = ref i in
      while !j < n && sql.[!j] > ' ' && not (String.contains "();," sql.[!j]) do
        incr j
      done;
      (String.lowercase_ascii (String.sub sql i (!j - i)), !j)
  in
  (* up to [k] words from [i] *)
  let rec words i k =
    if k = 0 then []
    else match word_at i with "", _ -> [] | w, j -> w :: words j (k - 1)
  in
  (* the relation a statement names after its object keyword *)
  let named = function
    | "if" :: "not" :: "exists" :: name :: rest
    | "if" :: "exists" :: name :: rest
    | name :: rest ->
        (Some name, rest)
    | [] -> (None, [])
  in
  let first, j = word_at 0 in
  match
    if
      List.mem first
        [ "create"; "drop"; "alter"; "insert"; "update"; "delete"; "truncate" ]
    then first :: words j 7
    else []
  with
  | "create" :: rest -> (
      let temp, rest =
        match rest with
        | ("temp" | "temporary") :: rest -> (true, rest)
        | rest -> (false, rest)
      in
      match rest with
      | "table" :: rest ->
          let table, rest = named rest in
          let as_query = match rest with "as" :: _ -> true | _ -> false in
          Create { temp; table; as_query }
      | _ -> Create { temp; table = None; as_query = false })
  | "drop" :: "table" :: rest -> Drop (fst (named rest))
  | "drop" :: _ -> Drop None
  | "alter" :: "table" :: rest -> Alter (fst (named rest))
  | "alter" :: _ -> Alter None
  | "insert" :: "into" :: name :: _ -> Insert name
  | "update" :: name :: _
  | "delete" :: "from" :: name :: _
  | "truncate" :: "table" :: name :: _
  | "truncate" :: name :: _ ->
      Mutate name
  | _ -> Other
