(** Slow-query flight recorder.

    A fixed-size ring buffer capturing the forensic detail the
    aggregate metrics throw away: the full span tree, the generated SQL,
    and the categorised error of any query that ran longer than a
    configurable threshold — plus an optional 1-in-N tail sample of fast
    queries so the recorder also shows what {e normal} looks like.

    The ring never exceeds its capacity: new captures overwrite the
    oldest. Read in-band via [.hq.slow[n]] or dump as JSONL via
    [GET /slow.json]. *)

type record = {
  r_ts : float;  (** wall-clock capture time (correlation only) *)
  r_trace_id : string;  (** id of the query's trace, [""] when unknown *)
  r_fingerprint : string;
  r_query : string;
  r_duration_s : float;
  r_status : string;  (** ["ok"] or ["error"] *)
  r_error : string;  (** categorised error text, [""] when ok *)
  r_sql : string list;  (** generated SQL statements, oldest first *)
  r_span : Trace.span;  (** finished root span of the query's trace *)
  r_kind : string;  (** ["slow"] or ["sample"] *)
  r_ops : string;
      (** operator-stats tree as pre-rendered JSON, [""] when the query
          did not run with ANALYZE collection on *)
  r_top_operator : string;  (** operator with the most self-time, [""] *)
  r_alloc_bytes : float;
      (** coordinator-side bytes allocated while the query ran, 0 when
          not measured — separates GC-victim slow queries from ones
          that are genuinely expensive *)
  r_minor_gcs : int;  (** minor collections during the query, 0 = none *)
}

type t

val default_capacity : int
val default_threshold_s : float

(** [create ?capacity ?threshold_s ?sample_every ()]. [sample_every = 0]
    (the default) disables tail sampling. *)
val create :
  ?capacity:int -> ?threshold_s:float -> ?sample_every:int -> unit -> t

(** Offer one completed query; captured when [duration_s >= threshold],
    or as every [sample_every]-th fast query. Returns whether kept.
    [ops] is the pre-rendered operator-stats tree JSON and
    [top_operator] its hottest operator, both [""] when the query was
    not analyzed. [alloc_bytes] / [minor_gcs] are the coordinator-side
    Gc deltas measured around the query (0 = not measured). *)
val observe :
  t ->
  ts:float ->
  ?trace_id:string ->
  ?ops:string ->
  ?top_operator:string ->
  ?alloc_bytes:float ->
  ?minor_gcs:int ->
  fingerprint:string ->
  query:string ->
  duration_s:float ->
  status:string ->
  error:string ->
  sql:string list ->
  Trace.span ->
  bool

(** The newest [n] captured records, newest first. *)
val recent : t -> int -> record list

val set_threshold : t -> float -> unit
val threshold : t -> float
val set_sample_every : t -> int -> unit
val sample_every : t -> int

val capacity : t -> int

(** Records currently held; never exceeds {!capacity}. *)
val size : t -> int

(** Queries offered since creation / last {!reset}. *)
val seen : t -> int

val captured_slow : t -> int
val captured_sampled : t -> int

(** Drop all captured records and counters. *)
val reset : t -> unit

(** The newest [n] (default: all held) records, newest first, as the
    relation behind [.hq.slow] and [GET /slow.json] (one JSON line per
    record). [sql] is a JSON array of statements; [ops] and [trace] are
    the operator-stats and span trees as JSON. *)
val relation : ?n:int -> t -> Relation.t
