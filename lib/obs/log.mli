(** Leveled structured logger.

    One JSON line per event onto the shared {!Events} sink (so query
    events and log lines interleave in one stream), with mandatory
    [trace_id] / [conn_id] correlation fields, per-level counters in
    the metrics registry ([hq_log_lines_total{level="..."}]), and a
    bounded in-memory tail served as [GET /logs.json]. The tail is a
    lock-guarded {!Ring}: shard worker domains log into the same [t] as
    the coordinator.

    Line schema (correlation fields always present):
    {v
    { "ts": <unix seconds>, "level": "debug|info|warn|error",
      "msg": "<event name>", "trace_id": "<32 hex or empty>",
      "conn_id": <int, 0 when unknown>, ...event-specific fields }
    v} *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

(** Parse ["debug"|"info"|"warn"|"warning"|"error"] (case-insensitive). *)
val level_of_string : string -> level option

type t

val default_tail_capacity : int

(** [create ?level ?tail_capacity ~sink reg]. Lines below [level]
    (default [Info]) are dropped before any rendering cost is paid. *)
val create : ?level:level -> ?tail_capacity:int -> sink:Events.sink -> Metrics.t -> t

val level : t -> level
val set_level : t -> level -> unit

(** Whether a line at [level] would be emitted — guard expensive field
    construction on the hot path with this. *)
val enabled : t -> level -> bool

(** [log t lvl ?ts ?trace_id ?conn_id msg fields] emits one line. [ts]
    defaults to the wall clock now; a caller that has already read it
    for the event passes it, so the line agrees with its other records. *)
val log :
  t ->
  level ->
  ?ts:float ->
  ?trace_id:string ->
  ?conn_id:int ->
  string ->
  (string * Relation.cell) list ->
  unit

val debug :
  t -> ?trace_id:string -> ?conn_id:int -> string -> (string * Relation.cell) list -> unit
val info :
  t -> ?ts:float -> ?trace_id:string -> ?conn_id:int -> string -> (string * Relation.cell) list -> unit
val warn :
  t -> ?trace_id:string -> ?conn_id:int -> string -> (string * Relation.cell) list -> unit
val error :
  t -> ?trace_id:string -> ?conn_id:int -> string -> (string * Relation.cell) list -> unit

(** Lines emitted at [level] since creation (from the per-level
    registry counters, so [.hq.stats.reset] zeroes them too). *)
val lines_logged : t -> level -> int

(** The newest [n] retained lines, newest first. *)
val recent : t -> int -> string list

(** The retained tail, oldest first, one JSON line per entry — what
    [GET /logs.json] serves. *)
val to_jsonl : t -> string

(** Drop the retained tail (counters are owned by the registry). *)
val reset : t -> unit
