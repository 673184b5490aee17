(** The backend abstraction the query translator talks to (the Gateway's
    inward-facing contract, paper Figure 1).

    Implementations: {!of_pgdb_session} (direct, in-process) and
    [Platform.Gateway.wire_backend] (through real PG v3 bytes). *)

type result = {
  cols : (string * Catalog.Sqltype.t) list;
  rows : Pgdb.Value.t array array;
      (** row-major cells, one array of [List.length cols] values per
          row — the only result representation; the engine's Q pivot
          walks it once per column *)
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

val exec_exn : t -> string -> reply
val query_exn : t -> string -> result

(** Wrap a backend with a fixed per-statement latency, simulating an MPP
    cluster's optimize-and-dispatch floor (paper Section 2.1). Used by the
    benchmarks; tests run without it. *)
val with_dispatch_latency : float -> t -> t

(** A direct in-process backend over a pgdb session. *)
val of_pgdb_session : Pgdb.Db.session -> t
