(** Slow-query flight recorder.

    A fixed-size ring buffer capturing the forensic detail the
    aggregate metrics throw away: the full span tree, the generated SQL,
    and the categorised error of any query that ran longer than a
    configurable threshold — plus an optional 1-in-N tail sample of fast
    queries so the recorder also shows what {e normal} looks like.

    The ring never exceeds its capacity: new captures overwrite the
    oldest. Read in-band via [.hq.slow[n]] or dump as JSONL via
    [GET /slow.json]. *)

(** One captured query: its record and why it was kept. *)
type record = {
  q : Query.t;
  kind : string;  (** ["slow"] or ["sample"] *)
}

type t

val default_capacity : int
val default_threshold_s : float

(** [create ?capacity ?threshold_s ?sample_every ()]. [sample_every = 0]
    (the default) disables tail sampling. *)
val create :
  ?capacity:int -> ?threshold_s:float -> ?sample_every:int -> unit -> t

(** Offer one completed query; captured when its duration is at least
    the threshold, or as every [sample_every]-th fast query. Returns
    whether kept. *)
val observe : t -> Query.t -> bool

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
