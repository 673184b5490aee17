(** Bounded ring of analyzed query plans (the EXPLAIN/ANALYZE plane).

    Every query that runs with operator-stats collection on — via
    [.hq.explain], or tail-sampled with [--analyze-sample N] — deposits
    its {!Query.t} here: the record carries the coordinator→shard
    operator tree (pre-rendered JSON, so this module stays independent
    of the executor and router libraries that produce it) and headline
    numbers (route class, plan-cache outcome, rows scanned, hottest
    operator, worst q-error) in its [analysis].

    Read via [GET /explain.json] or assembled in-band by [.hq.explain].
    Lock-guarded like the trace-export ring: the coordinator writes,
    the admin thread reads. *)

(** One analyzed query: its record and that record's analysis. *)
type plan = { q : Query.t; a : Query.analysis }

type t

val default_capacity : int

(** [create ?capacity ()] — the ring holds the last [capacity] analyzed
    plans (default {!default_capacity}); new entries overwrite the
    oldest. *)
val create : ?capacity:int -> unit -> t

(** Keep the query if it was analyzed; a record without an analysis is
    dropped. *)
val offer : t -> Query.t -> unit

(** The newest [n] analyzed plans, newest first. *)
val recent : t -> int -> plan list

val capacity : t -> int

(** Plans currently held; never exceeds {!capacity}. *)
val size : t -> int

(** Plans offered since creation / last {!reset}. *)
val analyzed_total : t -> int

(** Drop all held plans and counters. *)
val reset : t -> unit

(** The newest [n] (default: all held) plans, newest first, as the
    relation behind bare [.hq.explain] and [GET /explain.json]; [plan]
    is the pre-rendered document. *)
val relation : ?n:int -> t -> Relation.t
