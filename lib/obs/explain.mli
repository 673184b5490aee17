(** Bounded ring of analyzed query plans (the EXPLAIN/ANALYZE plane).

    Every query that runs with operator-stats collection on — via
    [.hq.explain], or tail-sampled with [--analyze-sample N] — deposits
    one entry here: the coordinator→shard operator tree (pre-rendered
    JSON, so this module stays independent of the executor and router
    libraries that produce it) plus headline numbers (route class,
    plan-cache outcome, rows scanned, hottest operator, worst q-error).

    Read via [GET /explain.json] or assembled in-band by [.hq.explain].
    Lock-guarded like the trace-export ring: the coordinator writes,
    the admin thread reads. *)

type plan = {
  p_ts : float;  (** wall clock at query finish (correlation only) *)
  p_trace_id : string;
  p_fingerprint : string;
  p_query : string;
  p_duration_s : float;
  p_route : string;  (** route class: single/merge/concat/partial_agg/coordinator *)
  p_cache : string;  (** plan-cache outcome: hit/miss/bypass/off *)
  p_shards : int;  (** number of shard-local operator trees attached *)
  p_rows_scanned : int;
  p_rows_out : int;
  p_top_operator : string;
  p_worst_qerror : float;
  p_tree : string;  (** pre-rendered JSON document for this analyzed plan *)
}

type t

val default_capacity : int

(** [create ?capacity ()] — the ring holds the last [capacity] analyzed
    plans (default {!default_capacity}); new entries overwrite the
    oldest. *)
val create : ?capacity:int -> unit -> t

val offer : t -> plan -> unit

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
