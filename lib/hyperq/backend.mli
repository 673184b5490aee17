(** The backend abstraction the query translator talks to (the Gateway's
    inward-facing contract, paper Figure 1).

    Implementations: {!of_pgdb_session} (direct, in-process) and
    [Platform.Gateway.wire_backend] (through real PG v3 bytes). *)

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

(** Execute a statement: apply [decorate], count it, record the
    decorated text in [request_sql], dispatch it. *)
val exec : t -> string -> (reply, string) Stdlib.result

(** Start a new request: forget the previous request's statements. The
    engine calls this at the start of every program; a shard cluster
    calls it before each dispatch to a shard backend. *)
val begin_request : t -> unit

(** Statements sent so far (O(1)) — a bookmark for {!sql_since}. Counts
    across requests, so the difference of two marks is the number of
    statements sent between them. *)
val log_mark : t -> int

(** Statements sent since [mark] within the current request, oldest
    first. Walks only the entries added after the mark. *)
val sql_since : t -> int -> string list

(** A direct in-process backend over a pgdb session. *)
val of_pgdb_session : Pgdb.Db.session -> t

(** What a statement does to the catalog or to a table's rows, as the
    backend's observers ([on_exec]) need it. Names are lower-cased. *)
type statement =
  | Create of { temp : bool; table : string option; as_query : bool }
      (** CREATE [TEMP|TEMPORARY] ...: [table] is the name of a CREATE
          TABLE [IF NOT EXISTS], [as_query] whether AS follows it *)
  | Drop of string option
      (** DROP ...: the name of a DROP TABLE [IF EXISTS] *)
  | Alter of string option
      (** ALTER ...: the name of an ALTER TABLE [IF EXISTS] *)
  | Insert of string  (** INSERT INTO name *)
  | Mutate of string
      (** UPDATE name, DELETE FROM name, TRUNCATE [TABLE] name *)
  | Other  (** anything else, SELECT included *)

(** The statement's kind, read from its leading keywords and the
    relation they name; the rest of the text is never read. *)
val classify : string -> statement
