(** Time-series ring: a lock-guarded fixed-size {!Ring} of periodic raw
    snapshots of the whole metrics registry, with per-window rates and
    latency percentiles derived from deltas of consecutive snapshots
    (counters and histogram buckets are cumulative, so two snapshots
    bracket a window by simple subtraction). Serves
    [GET /timeseries.json], the in-band [.hq.timeseries[n]] query and
    the SLO monitor's window aggregates. *)

type t

val default_capacity : int
val default_interval_s : float

(** [create registry] with the ring's [capacity] (>= 2, default 128)
    and the sampling [interval_s] honored by {!tick} (default 1s). *)
val create : ?interval_s:float -> ?capacity:int -> Metrics.t -> t

val capacity : t -> int

(** Snapshots currently held. *)
val size : t -> int

(** Snapshots taken since creation (monotonic, survives {!reset}). *)
val samples_total : t -> int

val interval_s : t -> float
val set_interval : t -> float -> unit

(** Register a hook run before every sample (refresh mirrored gauges —
    pool saturation, backend counters — so snapshots see live values).
    Hook exceptions are swallowed. *)
val on_sample : t -> (unit -> unit) -> unit

(** Take one snapshot now, unconditionally. *)
val sample : t -> unit

(** Snapshot only if [interval_s] elapsed since the last one (in-band
    pacing without a sampler thread); returns whether it sampled. *)
val tick : t -> bool

(** Empty the ring (registrations and hooks survive). *)
val reset : t -> unit

(** {1 Derived windows} *)

type window = {
  w_ts : float;  (** wall clock at the window's end *)
  w_dt_s : float;
  w_queries : int;
  w_qps : float;
  w_errors : int;
  w_error_rate : float;
  w_p50_s : float;  (** [nan] when the window saw no queries *)
  w_p95_s : float;
  w_p99_s : float;
  (* runtime plane (deltas of the [hq_gc_*] counters {!Runtime}
     maintains; 0 when no runtime sampler feeds the registry) *)
  w_alloc_bytes : int;
  w_alloc_bps : float;  (** allocation rate, bytes/s *)
  w_minor_gcs : int;
  w_major_gcs : int;
}

(** One window per consecutive snapshot pair, oldest first.
    [horizon_s] keeps only windows ending within that many monotonic
    seconds of the newest snapshot. *)
val windows : ?horizon_s:float -> t -> window list

type agg = {
  a_dt_s : float;
  a_queries : int;
  a_errors : int;
  a_latency : (float array * int array) option;
      (** (bounds, bucket deltas) of the query-latency histogram *)
}

(** Traffic between the oldest in-horizon snapshot and the newest —
    the SLO monitor's window view. [None] until two snapshots exist in
    the horizon. *)
val aggregate : t -> horizon_s:float -> agg option

(** {1 Delta-of-buckets estimators}

    A window's percentiles are {!Metrics.bucket_percentile} over its
    bucket deltas, with no lifetime range. *)

(** Fraction of a window's observations at or under [threshold]
    seconds (interpolated). [nan] on an empty window. *)
val frac_le : bounds:float array -> counts:int array -> float -> float

(** The newest [n] (default: all) of {!windows}, oldest first, as the
    relation behind [.hq.timeseries] and [GET /timeseries.json]: rates,
    latency percentiles in ms ([nan], JSON [null], for idle windows)
    and the allocation columns, with the ring's [interval_s],
    [capacity] and [samples] as document fields. [horizon_s] is the
    [?window=..] parameter. *)
val relation : ?n:int -> ?horizon_s:float -> t -> Relation.t
