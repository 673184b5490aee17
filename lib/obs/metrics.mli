(** Metrics registry: named counters, gauges and fixed-bucket latency
    histograms with percentile extraction, and the one histogram and
    percentile estimator of the observability layer.

    The registry is the single source every surface reads from: the
    in-band [.hq.stats] query renders its {!relation}, the Prometheus
    text ([GET /metrics], the server's [--stats] dump) its
    {!exposition}, and hqbench reads its per-layer metrics from its
    counters.
    Metric identity is the pair (name, labels); registering the same pair
    twice returns the existing instrument. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing value (events, bytes). *)

type gauge
(** Value that can go up and down (cache sizes, mirrored externals). *)

type histogram
(** Fixed-bucket distribution of observations (latencies, in seconds). *)

val create : unit -> t

(** {1 Registration}

    All three return the already-registered instrument when the
    (name, labels) pair exists; raise [Invalid_argument] if the pair is
    registered as a different kind. *)

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

(** [histogram reg name] with bucket upper bounds in ascending order
    (seconds for latency use). The default buckets span 100ns .. 10s on
    a 1-2.5-5 log scale. An implicit +Inf bucket is always appended. *)
val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  histogram

(** [log_buckets ~lo ~hi ()] generates ascending log-scale bucket
    boundaries: every [mantissa * 10^e] falling inside [lo, hi]
    (default mantissas 1-2.5-5, i.e. three buckets per decade). *)
val log_buckets :
  ?mantissas:float array -> lo:float -> hi:float -> unit -> float array

val default_buckets : float array

(** A histogram over {!default_buckets} (the array is shared, not
    copied) that belongs to no registry: the fingerprint store keeps one
    per entry. *)
val new_histogram : unit -> histogram

(** {1 Instrument operations} *)

val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit
val gauge_value : gauge -> float

(** Record one observation (for latency histograms: seconds). *)
val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float

(** The largest observation; [0.0] while empty. *)
val hist_max : histogram -> float

(** The one percentile estimator, over a bucket layout: [counts.(i)]
    observations fell in bucket [i], at or under [bounds.(i)] and above
    [bounds.(i-1)] (0 for the first); the last slot is the +Inf bucket.
    [p] (clamped to [0, 100]) sets the rank [p/100 * total], and the
    estimate interpolates linearly inside the bucket holding it. Two
    clamps: with [range = Some (min, max)], the lifetime extremes of the
    observations, the +Inf bucket reaches up to [max] and the estimate
    is clamped to [min, max]; with [None] (a window of bucket deltas,
    whose extremes are unknown) the +Inf bucket ends at the last finite
    bound, so the estimate stays finite. [nan] when every count is 0. *)
val bucket_percentile :
  range:(float * float) option ->
  bounds:float array ->
  counts:int array ->
  float ->
  float

(** [percentile h p] with [p] in [0, 100]: {!bucket_percentile} over
    the histogram's buckets, clamped to its observed [min, max] — so a
    single-sample histogram reports that exact sample for every
    percentile. An empty histogram reports [0.0]. *)
val percentile : histogram -> float -> float

(** Drop all recorded observations (testing / between bench runs). *)
val hist_reset : histogram -> unit

(** Zero every instrument in the registry — counters and gauges to 0,
    histograms emptied — keeping all registrations (names, labels,
    bucket layouts) intact. Backs the [.hq.stats.reset] admin query so
    benchmark runs can be bracketed without restarting the proxy. *)
val reset_all : t -> unit

(** {1 Exposition} *)

type sample = {
  s_name : string;  (** full name, label-suffixed for histogram facets *)
  s_kind : string;  (** ["counter"], ["gauge"], ["histogram"] *)
  s_value : float;
}

(** Flat view of the registry in registration order. Histograms expand
    into [_count], [_sum], [_p50], [_p95] and [_p99] samples. Labels are
    rendered into the name Prometheus-style: [name{k="v"}]. *)
val snapshot : t -> sample list

(** The first [n] (default: all) samples of {!snapshot} as the
    [(name, kind, value)] relation behind [.hq.stats] and
    [GET /stats.json]. *)
val relation : ?n:int -> t -> Relation.t

type raw =
  | Raw_counter of int
  | Raw_gauge of float
  | Raw_hist of float array * int array
      (** the bounds (shared) and a copy of the bucket counts, the last
          slot the +Inf bucket, read under the histogram's lock *)

(** Every instrument's raw value keyed by [name{labels}], in
    registration order — what the time-series ring ({!Timeseries})
    snapshots so per-window rates and percentiles can be derived from
    deltas of consecutive snapshots. *)
val raw_snapshot : t -> (string * raw) list

(** Every instrument as Prometheus samples, in registration order: a
    counter or gauge is one sample; a histogram is its cumulative
    [_bucket] samples (an [le] label after its own labels), [_sum] and
    [_count]. Rendered by {!Relation.to_prometheus}. *)
val exposition : t -> Relation.t
