(** The Hyper-Q engine: one client session's full translation pipeline
    (paper Figure 1).

    Parse → algebrize (binder + MDI) → optimize (Xformer) → serialize →
    execute on the backend → pivot the result's typed columns into the
    column-oriented Q value the application expects. Assignments trigger eager materialization
    (Section 4.3), either logical (definitions inlined at use sites) or
    physical ([CREATE TEMPORARY TABLE HQ_TEMP_n AS ...]). *)

exception Hq_error of { category : string; message : string }

type t

(** Hook for a sharded executor (see [Shard.Cluster]): after the Xformer
    runs, [sh_route] inspects the optimized XTRA tree and either claims
    the statement — returning a thunk that fans out to the shard
    backends and gathers — or declines with [None], in which case the
    statement serializes and executes on the coordinator backend.
    [sh_generation] returns the shard-map generation, mixed into
    plan-cache keys so cached single-backend templates can never serve a
    statement whose route changed. *)
type sharder = {
  sh_route : Xtra.Ir.rel -> (unit -> (Backend.result, string) result) option;
  sh_generation : unit -> int;
}

(** Create a session over a backend. [materialization] picks how an
    assignment materializes (default [`Logical]; [`Physical] is the
    paper's Section 4.3 Example 3 strategy); [server_scope] shares global
    variables across sessions (as on one kdb+ server); [plan_cache] is
    the translation plan cache, possibly shared across sessions (none:
    every query is translated in full); [sharder] routes statements to a
    shard cluster when present; [obs] is the observability context the
    pipeline stages are recorded into (per-stage latency histograms, and
    trace spans when a query trace is open) — defaults to a private
    context so standalone engines stay fully instrumented. *)
val create :
  ?materialization:[ `Logical | `Physical ] ->
  ?server_scope:Scopes.server ->
  ?plan_cache:Plancache.t ->
  ?sharder:sharder ->
  ?obs:Obs.Ctx.t ->
  Backend.t ->
  t

(** Destroy the session, promoting session variables to the server scope
    (paper Section 3.2.3). *)
val close_session : t -> unit

type run_result = {
  value : Qvalue.Value.t option;  (** [None] for definitions/assignments *)
  sqls : string list;  (** SQL statements sent for this Q statement *)
}

(** Execute one parsed Q statement. *)
val run_statement : t -> Qlang.Ast.expr -> run_result

(** Parse and execute an analyzed Q program (the request's one lexing,
    {!Qlang.Fingerprint.analyze}); returns the last statement's result.
    Raises on errors — prefer {!try_run} at API boundaries. *)
val run_program : t -> Qlang.Fingerprint.analysis -> run_result

(** Translate a single Q query to SQL without executing it (the REPL's \\sql,
    examples, debugging). *)
val translate : t -> string -> string

(** {!run_program} with every Hyper-Q failure mode collected into a
    categorised error string. A text the lexer rejected fails as
    [[parse] <lexer message>]. *)
val try_run : t -> Qlang.Fingerprint.analysis -> (run_result, string) result

(** A backend result's columns as the Q table the application gets, its
    internal [hq_] columns dropped: the result pivot. *)
val table_of_result : Backend.result -> Qvalue.Value.table

(** The session's stage timer (reset it between measured queries). *)
val timer : t -> Stage_timer.t

(** The session's observability context. *)
val obs : t -> Obs.Ctx.t

(** The session's metadata interface (cache statistics, invalidation). *)
val mdi : t -> Mdi.t

(** The session's plan cache, when it has one (possibly shared). *)
val plan_cache : t -> Plancache.t option

(** How the last [run_program] moved through the Q→XTRA→SQL pipeline:
    the plan-cache outcome ([hit]/[miss]/[bypass]/[off]), whether a
    sharded scatter/gather path executed, and how many SQL statements
    the program produced. Feeds the [.hq.explain] pipeline annotation. *)
type pipeline_note = {
  pn_cache : string;
  pn_sharded : bool;
  pn_statements : int;
}

val last_note : t -> pipeline_note option

(** The most recent failures as [(query, categorised error)] pairs, newest
    first (bounded) — the paper's Section 5 notes that verbose,
    attributable error reporting is a place where Hyper-Q improves on
    kdb+. *)
val recent_errors : t -> (string * string) list
