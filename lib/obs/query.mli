(** One completed query, described once.

    The endpoint builds this record after the reply is encoded, and
    {!Ctx.record_query} hands the same value to every per-query plane:
    the fingerprint store ({!Qstats}), the flight recorder
    ({!Recorder}), the analyzed-plan ring ({!Explain}), the JSONL query
    event and the "query completed" log line. A plane reads the fields
    it shows and works out none of its own, so the planes agree: [ts]
    is one wall-clock read, [stages] one walk of the span tree,
    [query_sha] one digest.

    The JSONL query event ({!event}), all fields always present:
    {v
    { "ts": <unix seconds, wall clock — for correlation only>,
      "query_sha": "<16 hex chars of MD5 of the query text>",
      "query_bytes": <int>,
      "status": "ok" | "error",
      "error_class": "<category>" | "",
      "duration_ms": <float>,
      "stages_us": {"parse": .., "algebrize": .., "optimize": ..,
                    "serialize": .., "execute": .., "pivot": ..},
      "rows_out": <int>,
      "qipc_bytes_in": <int>, "qipc_bytes_out": <int>,
      "sql_statements": <int> }
    v} *)

(** A failed query's error, as the proxy categorises it (paper §5). *)
type error = {
  error_class : string;  (** the [category] of ["[category] message"] *)
  message : string;  (** the error text the client received *)
}

(** What an ANALYZE run adds: the operator trees and their headline
    numbers. *)
type analysis = {
  doc : string;
      (** the explain document as JSON: query, route, pipeline,
          coordinator and shard operator trees *)
  top_operator : string;  (** operator with the most self-time, [""] *)
  route : string;
      (** route class: single/merge/concat/partial_agg/coordinator *)
  cache : string;  (** plan-cache outcome: hit/miss/bypass/off *)
  shards : int;  (** shard-local operator trees attached *)
  rows_scanned : int;
  plan_rows_out : int;
      (** rows leaving the plan: the coordinator root, else the sum of
          the shard roots before the gather merges them *)
  worst_qerror : float;
}

type t = {
  ts : float;  (** wall clock at query finish (correlation only) *)
  trace_id : string;
  fingerprint : string;
  query : string;  (** normalized text: literals stripped *)
  query_sha : string;  (** {!Events.query_sha} of the text as received *)
  query_bytes : int;  (** length of the text as received *)
  duration_s : float;
  error : error option;  (** [None] when the query succeeded *)
  rows_out : int;  (** rows in the reply value *)
  bytes_in : int;  (** QIPC bytes of the request *)
  bytes_out : int;  (** QIPC bytes of the reply *)
  alloc_bytes : float;
      (** bytes the coordinator domain allocated while the query ran;
          shard-side allocation lands on the shard counters *)
  minor_gcs : int;  (** minor collections while the query ran *)
  stages : (string * float) list;  (** seconds per pipeline stage *)
  sql : string list;  (** the request's SQL statements, oldest first *)
  sql_statements : int;  (** statements the backend's log mark counted *)
  span : Trace.span;  (** finished root span of the query's trace *)
  analysis : analysis option;  (** [Some] when ANALYZE ran *)
}

(** Categorise an error text: ["[binder] nope"] has class ["binder"];
    text without a leading [[category]] has class ["other"]. *)
val categorise : string -> error

(** ["ok"] or ["error"]. *)
val status : t -> string

(** The JSONL query event, in the key order of the schema above. *)
val event : t -> (string * Relation.cell) list

(** The fields of the "query completed" log line after its correlation
    fields: fingerprint, status and duration. *)
val log_fields : t -> (string * Relation.cell) list
