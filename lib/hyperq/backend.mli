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

(** Execute a statement: apply [decorate], record the decorated text in
    [sql_log], dispatch it. *)
val exec : t -> string -> (reply, string) Stdlib.result

(** Statements logged so far (O(1)) — a bookmark for {!sql_since}. *)
val log_mark : t -> int

(** Statements logged since [mark], oldest first. Walks only the entries
    added after the mark, never the whole log. *)
val sql_since : t -> int -> string list

val exec_exn : t -> string -> reply
val query_exn : t -> string -> result

(** Wrap a backend with a fixed per-statement latency, simulating an MPP
    cluster's optimize-and-dispatch floor (paper Section 2.1). Used by the
    benchmarks; tests run without it. *)
val with_dispatch_latency : float -> t -> t

(** A direct in-process backend over a pgdb session. *)
val of_pgdb_session : Pgdb.Db.session -> t
