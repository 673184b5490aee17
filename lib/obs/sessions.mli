(** Session registry: who is connected and what is in flight right now
    — the proxy-side analog of [pg_stat_activity].

    The platform registers a session per QIPC connection; the endpoint
    marks queries started/finished and stamps the trace id, so the
    in-band [.hq.activity] query and [GET /activity.json] show every
    connection's user, state, completed-query count, and — while a
    query runs — its text, fingerprint, trace id and elapsed time. *)

type state = Idle | Active

type session = {
  s_conn : int;
  mutable s_user : string;
  s_connected_ts : float;  (** wall clock at registration *)
  mutable s_queries : int;  (** completed queries *)
  mutable s_state : state;
  mutable s_query : string;  (** current (active) or last (idle) query *)
  mutable s_fingerprint : string;
  mutable s_trace_id : string;  (** current or last query's trace id *)
  mutable s_started_ns : int64;  (** monotonic start of the current query *)
}

type t

val create : unit -> t

(** Register a connection; assigns the next connection id. *)
val register : ?user:string -> t -> session

(** Record the authenticated user once the handshake names one. *)
val set_user : session -> string -> unit

(** Mark a query in flight (state becomes [Active], the elapsed clock
    starts). *)
val query_started : session -> query:string -> fingerprint:string -> unit

(** Stamp the in-flight query's trace id (known once the trace opens). *)
val set_trace : session -> string -> unit

(** Mark the in-flight query done (state returns to [Idle]; the query
    text, fingerprint and trace id remain visible as "last"). *)
val query_finished : session -> unit

(** Nanoseconds the current query has been running; [0L] when idle. *)
val elapsed_ns : session -> int64

(** Remove a closed connection from the registry. *)
val unregister : t -> session -> unit

val find : t -> int -> session option

(** Every registered session, ordered by connection id. *)
val list : t -> session list

(** Sessions with a query in flight right now. *)
val active : t -> session list

(** Registered sessions (connections currently open). *)
val size : t -> int

val connects_total : t -> int
val disconnects_total : t -> int

(** The first [n] (default: all) sessions by connection id as the
    relation behind [.hq.activity] and [GET /activity.json]. *)
val relation : ?n:int -> t -> Relation.t
