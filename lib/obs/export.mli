(** Bounded ring of finished traces, exported in an OTLP/Jaeger-style
    flat-span JSON shape.

    Every query trace the {!Ctx} finishes is offered here; the ring
    never exceeds its capacity (new traces overwrite the oldest). Read
    via [GET /traces.json] on the admin endpoint or in-band as
    [.hq.traces[n]], and join against structured log lines, the
    slow-query flight recorder and the backend's [traceparent] SQL
    comments by trace id. *)

type exported = {
  x_ts : float;  (** wall clock at trace finish (correlation only) *)
  x_trace_id : string;
  x_root : Trace.span;  (** finished root span *)
}

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t

(** Add one finished trace, overwriting the oldest when full. *)
val offer : t -> ts:float -> trace_id:string -> Trace.span -> unit

(** The newest [n] exported traces, newest first. *)
val recent : t -> int -> exported list

(** Look an exported trace up by trace id (newest match wins). *)
val find : t -> string -> exported option

val capacity : t -> int

(** Traces currently held; never exceeds {!capacity}. *)
val size : t -> int

(** Traces offered since creation / last {!reset}. *)
val exported_total : t -> int

val reset : t -> unit

(** The newest [n] (default: all held) traces, newest first, as the
    relation behind [.hq.traces] and [GET /traces.json], in the shape
    any OTLP/Jaeger ingester expects: [traceID], [ts], [durationMs],
    [spanCount] and [spans], the flat span list as JSON. Every span
    carries the trace id, its own span id, its parent's span id, the
    start offset into the trace (us) and its duration (us). *)
val relation : ?n:int -> t -> Relation.t
