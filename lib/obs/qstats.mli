(** Per-fingerprint workload statistics (pg_stat_statements for the
    proxy).

    A bounded, LRU-evicting table keyed by query fingerprint — the
    stable hash of a query's {e shape} (literals stripped, whitespace
    collapsed; see [Qlang.Fingerprint]). Each entry accumulates calls,
    errors by class, rows and bytes in/out, per-stage latency sums, and
    a latency histogram of the registry's kind ({!Metrics.new_histogram}),
    so the proxy can answer "which query shapes hurt" across millions of
    queries in O(capacity) memory.

    Read in-band via the [.hq.top[n]] admin query, over HTTP via
    [GET /stats.json], and merged into the Prometheus exposition as
    [hq_fingerprint_*_total{fingerprint="..."}] for the top-K. *)

type entry = {
  e_fingerprint : string;
  e_query : string;  (** normalized query text (shape, literals stripped) *)
  mutable e_calls : int;
  mutable e_errors : int;
  mutable e_error_classes : (string * int) list;  (** per error class *)
  mutable e_rows_out : int;
  mutable e_bytes_in : int;
  mutable e_bytes_out : int;
  mutable e_stages : (string * float) list;  (** per-stage latency sums *)
  e_hist : Metrics.histogram;
      (** latency in seconds; its sum is the entry's total time, its max
          the slowest call *)
  mutable e_last_use : int;  (** logical tick, for LRU eviction *)
  (* allocation attribution: coordinator-side Gc deltas per call *)
  mutable e_alloc_bytes : float;  (** total bytes allocated, all calls *)
  mutable e_minor_gcs : int;  (** total minor collections, all calls *)
}

type t

val default_capacity : int

(** [create ?capacity ()] — at most [capacity] distinct fingerprints are
    tracked (default {!default_capacity}); inserting beyond that evicts
    the least-recently-used entry. *)
val create : ?capacity:int -> unit -> t

(** Fold one completed query into its fingerprint's entry: a call, its
    error class, rows, bytes, duration, stage seconds and the
    coordinator-side allocation and minor-GC deltas. *)
val record : t -> Query.t -> unit

(** The [n] entries with the largest total time, descending. *)
val top : t -> int -> entry list

val find : t -> string -> entry option
val size : t -> int
val capacity : t -> int

(** LRU evictions performed since creation / last {!reset}. *)
val evictions : t -> int

(** Drop every entry (for [.hq.stats.reset] / bracketing bench runs). *)
val reset : t -> unit

(** Seconds over all calls. *)
val total_s : entry -> float

val entry_avg_s : entry -> float

(** The top-[n] entries (default: all) by total time as the relation
    behind [.hq.top] and [GET /top.json]: calls, errors (with a
    per-class [error_classes] object), rows and bytes, total/avg/max/p95
    milliseconds ([p95_ms] by {!Metrics.percentile}), per-stage
    [stages_ms], and the allocation columns. *)
val relation : ?n:int -> t -> Relation.t

(** The top-[k] (default 10) entries as Prometheus samples:
    [hq_fingerprint_{calls,errors,seconds,rows,alloc_bytes,minor_gcs}_total]
    counters with a [fingerprint] label. *)
val exposition : ?k:int -> t -> Relation.t
