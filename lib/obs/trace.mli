(** Per-query trace spans.

    A trace is a tree of named, monotonic-clocked spans carried through
    the proxy's hot path: the Endpoint opens a root ["query"] span, the
    engine nests one child per pipeline stage (parse → algebrize →
    optimize → serialize → execute → pivot), and the Gateway attaches
    wire-level byte counts as attributes of whichever span is open while
    the backend round trip is in flight.

    Every trace carries a W3C-style 16-byte hex trace id and every span
    an 8-byte hex span id, so one request can be followed across the
    QIPC endpoint, the cross compiler, the SQL the backend saw (via the
    sqlcommenter-style [traceparent] comment the Gateway appends) and
    the exported span ring ({!Export}).

    Span attributes are {!Relation.cell}s, written by that module's JSON
    writer like every other JSON value of the proxy. *)

type span

type t
(** An in-flight trace: the root span plus the stack of open spans. *)

(** Fresh 8-byte (16 hex chars) span id. *)
val gen_span_id : unit -> string

(** Fresh 16-byte (32 hex chars) trace id. *)
val gen_trace_id : unit -> string

(** [traceparent ~trace_id ~span_id] renders the W3C trace-context
    header value ["00-<trace_id>-<span_id>-01"]. *)
val traceparent : trace_id:string -> span_id:string -> string

(** Start a trace whose root span is open, under a fresh trace id. *)
val start : string -> t

(** The trace's 16-byte hex id. *)
val trace_id : t -> string

(** The innermost open span (the root when the stack is empty). *)
val current : t -> span

(** Open a child span of the innermost open span. *)
val enter : t -> string -> unit

(** Close the innermost open span. No-op on the root (use {!finish}). *)
val exit_span : t -> unit

(** [with_span t name f] runs [f] inside a child span, closing it on
    both return and raise. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** {1 Cross-domain propagation}

    The span stack of a {!t} is single-domain mutable state, so fan-out
    over worker domains never shares it. Instead the coordinator calls
    {!open_child} (appending a child to its innermost open span while
    it alone owns the trace), hands the span to the worker — explicit
    context passing, no TLS — and the worker wraps it in {!attach} to
    get a private handle whose stack is rooted at that child. The
    worker closes the span with {!close_span}; the pool's completion
    latch orders those writes before the coordinator reads the tree. *)

(** Create a child of the innermost open span WITHOUT opening it on the
    stack — the caller hands it to another domain to close. *)
val open_child : t -> string -> span

(** Close a span handed out by {!open_child} (sets its end timestamp). *)
val close_span : span -> unit

(** A private trace handle rooted at [span] under an existing trace id —
    spans entered through it nest under [span], and {!current} is
    [span] itself, so a shard gateway's [traceparent] stamp carries the
    per-shard child span id. *)
val attach : trace_id:string -> span -> t

(** Attach an attribute to the innermost open span. *)
val add_attr : t -> string -> Relation.cell -> unit

(** Attach an attribute to the root span. *)
val add_root_attr : t -> string -> Relation.cell -> unit

(** Attach an attribute to a span directly (e.g. to a finished root,
    once the reply size it describes is known). *)
val set_span_attr : span -> string -> Relation.cell -> unit

(** Close every open span (root included) and return the root. *)
val finish : t -> span

(** A finished span from its parts: attributes and children in
    recording order. For rebuilding a recorded trace, and for tests that
    need fixed ids and timestamps. *)
val finished :
  name:string ->
  span_id:string ->
  start_ns:int64 ->
  end_ns:int64 ->
  (string * Relation.cell) list ->
  span list ->
  span

(** {1 Reading a finished trace} *)

val name : span -> string

(** The span's 8-byte hex id. *)
val span_id : span -> string

(** Monotonic start timestamp (ns) — subtract the root's to get the
    span's offset into the trace. *)
val start_ns : span -> int64

(** Children in recording order. *)
val children : span -> span list

(** Attributes in recording order. *)
val attrs : span -> (string * Relation.cell) list

val duration_ns : span -> int64
val duration_s : span -> float

(** Depth-first search by span name. *)
val find : span -> string -> span option

(** [(name, seconds)] for each of [names], in order: the sum of
    [duration_s] over all spans so named in the tree, in one walk. *)
val totals : span -> string list -> (string * float) list

(** The span tree as one JSON object: [name], [us] (duration in
    microseconds, one decimal), [attrs] when the span has any and
    [spans], its children, when it has any — the [.hq.slow] [trace]
    column. *)
val to_json : span -> string
