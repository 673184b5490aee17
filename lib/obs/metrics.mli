(** Metrics registry: named counters, gauges and fixed-bucket latency
    histograms with percentile extraction and Prometheus-style text
    exposition.

    The registry is the single source every surface reads from: the
    in-band [.hq.stats] query, the [--stats] shutdown dump of the server
    binary and the HTTP admin endpoint render a {!snapshot} of the same
    registry, and hqbench reads its per-layer metrics from its counters.
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

(** [percentile h p] with [p] in [0, 100]. Estimated from the bucket
    counts by linear interpolation inside the bucket holding the rank,
    then clamped to the observed [min, max] — so a single-sample
    histogram reports that exact sample for every percentile. An empty
    histogram reports [0.0]. *)
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

(** Raw (delta-able) view of one histogram: shared bounds array, a
    copied bucket-count array (last slot is the +Inf bucket), total
    count and sum — all read consistently under the histogram's lock. *)
type hist_view = {
  hv_bounds : float array;
  hv_counts : int array;
  hv_count : int;
  hv_sum : float;
}

type raw =
  | Raw_counter of int
  | Raw_gauge of float
  | Raw_hist of hist_view

(** Every instrument's raw value keyed by [name{labels}], in
    registration order — what the time-series ring ({!Timeseries})
    snapshots so per-window rates and percentiles can be derived from
    deltas of consecutive snapshots. *)
val raw_snapshot : t -> (string * raw) list

(** Escape a label value for Prometheus text exposition: backslash,
    double-quote and newline get a backslash escape; everything else
    passes through literally (unlike OCaml's [%S]). Exposed so sibling
    exposers (e.g. {!Qstats.to_prometheus}) render labels the same way. *)
val escape_label_value : string -> string

(** Prometheus text exposition format (HELP/TYPE comments, cumulative
    [_bucket{le="..."}] series, [_sum] and [_count]). Each family's
    HELP line uses the first non-empty help text among its series, so
    labeled registrations without help (per-shard families) still
    document themselves when any sibling carries help. *)
val to_prometheus : t -> string
