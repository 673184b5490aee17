(** Observability context: one registry + one event sink + the
    per-fingerprint workload statistics store + the slow-query flight
    recorder + the session registry + the structured logger + the
    trace-export ring + the trace of the query currently in flight, and
    the one entry point ({!record_query}) through which a completed
    query's record reaches every per-query plane.

    A context is shared by every layer serving one proxy instance
    (Endpoint, XC, Engine, Gateway); each layer records into whatever is
    active without knowing who opened it. Components that are used
    standalone (an Engine in a benchmark, say) default to a private
    context, so instrumentation never needs to be conditional. *)

type t = {
  registry : Metrics.t;
  events : Events.sink;
  qstats : Qstats.t;  (** per-fingerprint workload statistics *)
  recorder : Recorder.t;  (** slow-query flight recorder *)
  sessions : Sessions.t;  (** connection registry ([.hq.activity]) *)
  log : Log.t;  (** structured leveled logger *)
  export : Export.t;  (** bounded ring of finished traces *)
  timeseries : Timeseries.t;  (** periodic registry snapshots *)
  slo : Slo.t;  (** burn-rate monitor over the time-series ring *)
  explain : Explain.t;  (** bounded ring of analyzed query plans *)
  runtime : Runtime.t;  (** GC/heap sampler + process identity *)
  mutable trace : Trace.t option;  (** trace of the in-flight query *)
  mutable last_trace : Trace.span option;
      (** most recently finished query trace (introspection, tests) *)
}

val create :
  ?registry:Metrics.t ->
  ?events:Events.sink ->
  ?qstats:Qstats.t ->
  ?recorder:Recorder.t ->
  ?sessions:Sessions.t ->
  ?log:Log.t ->
  ?export:Export.t ->
  ?timeseries:Timeseries.t ->
  ?slo:Slo.t ->
  ?explain:Explain.t ->
  ?runtime:Runtime.t ->
  unit ->
  t

(** Run [f] inside a child span of the in-flight trace; just [f ()]
    when no trace is open. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** Attribute on the innermost open span of the in-flight trace, if
    any. *)
val add_attr : t -> string -> Relation.cell -> unit

(** The in-flight trace's id, [""] when none is open. *)
val trace_id : t -> string

(** [(trace_id, innermost open span id)] of the in-flight trace — what
    the Gateway renders into the SQL [traceparent] comment. *)
val trace_ids : t -> (string * string) option

(** Open a fresh root trace for a query. Any previous in-flight trace
    is abandoned. *)
val start_trace : t -> string -> Trace.t

(** Finish the in-flight trace (if [tr] is still it), remember it as
    {!field-last_trace} and offer it to the export ring stamped [ts]
    (default: the wall clock now); returns the finished root span. *)
val finish_trace : ?ts:float -> t -> Trace.t -> Trace.span

(** Hand one completed query's record to every per-query plane: fold it
    into the fingerprint store, offer it to the flight recorder and, when
    it was analyzed, to the explain ring, emit its JSONL event (rendered
    only when the event sink has a writer), log "query completed" under
    [conn_id], and pace the time-series ring. *)
val record_query : t -> conn_id:int -> Query.t -> unit
