(** Process/runtime telemetry: periodic [Gc.quick_stat] sampling folded
    into the metrics registry as monotone [hq_gc_*] counters (minor /
    major collections, compactions, allocated / promoted bytes) and
    [hq_heap_*] gauges (current and top major-heap size), plus process
    identity — an [hq_build_info{version,ocaml}] gauge and
    [hq_process_uptime_seconds].

    Counters advance by deltas between consecutive samples, so
    {!Metrics.reset_all} + {!reset} gives exact post-reset accounting
    without restarting the process. Minor-heap numbers are domain-local
    in OCaml 5: this sampler accounts the coordinator domain; shard
    worker domains are accounted per dispatch in [lib/shard]. *)

type t

(** Version string reported in [hq_build_info] and [/runtime.json]. *)
val version : string

(** Seconds since the process started (module initialization time). *)
val uptime_s : unit -> float

(** Current major-heap size in bytes (fresh [Gc.quick_stat] reading). *)
val heap_bytes : unit -> float

(** Minor collections since program start: the count
    [(Gc.quick_stat ()).minor_collections] reports, read with one atomic
    load instead of a walk over every domain's statistics (~1 us on
    OCaml 5.1), so the endpoint can afford a per-query delta. Minor
    collections stop every domain, so the count is process-wide. *)
external minor_collections : unit -> int = "hq_minor_collections"
[@@noalloc]

(** Bytes the calling domain has allocated since it started: minor
    words by [Gc.minor_words] plus the major words [Gc.counters] reports
    minus the promoted ones (counted in both), times the word size.
    [Gc.allocated_bytes] computes the same sum with the minor words
    [Gc.counters] reports, which on OCaml 5.1 see the words allocated
    since the last minor collection at an eighth of their number. *)
val allocated_bytes : unit -> float

val default_interval_s : float

(** [create reg] registers the gc/heap/build/uptime instruments in
    [reg] (get-or-create, so two runtimes over one registry share them —
    but only one should {!sample}, or deltas double-count) and baselines
    on the current [Gc.quick_stat] so the first sample reports only
    activity since creation. *)
val create : ?interval_s:float -> Metrics.t -> t

(** Take one sample now: advance the counters by the delta since the
    previous sample and refresh the heap/uptime gauges. Thread-safe. *)
val sample : t -> unit

(** Paced {!sample}: runs only when [interval_s] has elapsed since the
    last sample (or none was ever taken). Returns whether it sampled. *)
val tick : t -> bool

val set_interval : t -> float -> unit
val interval_s : t -> float

(** Samples applied since creation or the last {!reset}. *)
val samples_total : t -> int

(** Re-base the delta baseline on the current cumulative Gc readings and
    zero the sample count. Call together with {!Metrics.reset_all} so
    counters and baseline move atomically from the reader's view. *)
val reset : t -> unit

(** Refresh only the [hq_process_uptime_seconds] gauge (cheap; wired
    into the external-gauge refresh hook so [.hq.stats] stays current). *)
val refresh_uptime : t -> unit

(** {1 Heap watermark}

    An optional degradation signal for [/healthz]: when set and the
    major heap exceeds it, {!heap_alarm} turns true and the platform
    reports 503 degraded. *)

val set_heap_watermark : t -> float option -> unit
val heap_watermark : t -> float option
val heap_alarm : t -> bool

(** Fresh key/value view (samples first): uptime, sample count, gc
    counters, heap gauges, watermark and alarm — the [.hq.runtime]
    table body. *)
val stats : t -> (string * float) list

(** The first [n] (default: all) of {!stats} as [(stat, value)] rows —
    the relation behind [.hq.runtime] and [GET /runtime.json] — with
    [version] and [ocaml] as document fields. *)
val relation : ?n:int -> t -> Relation.t
