(** Structured JSONL event sink.

    One line of JSON per completed query ({!Query.event} has the
    schema) and per structured log line, with a pluggable writer so the
    server can stream to a file descriptor while tests capture events in
    memory. A sink created without a writer drops every line, and
    {!active} lets a caller skip rendering one, making instrumentation
    free to leave enabled everywhere.

    An event is a list of {!Relation.cell} fields, rendered by that
    module's JSON writer: a nested object is a [Json] cell. *)

type sink

(** A sink writing each event line through [write] (no trailing newline
    is passed; the writer adds its own framing). Without [write] the
    sink drops every line. *)
val create : ?write:(string -> unit) -> unit -> sink

(** Whether the sink has a writer: a line emitted without one is
    dropped, so a caller may skip rendering it. *)
val active : sink -> bool

(** In-memory sink for tests: returns the sink and a function reading
    the captured lines in emission order. *)
val memory : unit -> sink * (unit -> string list)

(** Replace the writer (e.g. redirect the server's sink at startup). *)
val set_writer : sink -> (string -> unit) -> unit

(** Emit one event object as a single JSON line. *)
val emit : sink -> (string * Relation.cell) list -> unit

(** Write one pre-rendered line through the sink (the structured logger
    renders its own lines so it can also keep them in its tail ring). *)
val write : sink -> string -> unit

(** Stable 16-hex-char digest of a query text, so logs can aggregate by
    query shape without retaining the (possibly sensitive) text. *)
val query_sha : string -> string
