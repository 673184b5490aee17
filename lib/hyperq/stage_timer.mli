(** Per-stage timing of the translation pipeline (paper Figures 6 and 7).

    The engine records each pipeline stage run here; benchmarks read the
    per-stage totals to reproduce the paper's translation-overhead and
    stage-split figures. Durations come from the monotonic clock
    ({!Obs.Clock}), never from wall-clock time, so a stepping NTP clock
    cannot record negative durations.

    The timer keeps one running total per stage and nothing else, so it
    holds the same memory after a million queries as after one. The
    engine mirrors every recorded duration into the {!Obs.Metrics}
    per-stage histograms of its observability context, which add
    cross-session aggregation and percentiles, and into the query's
    trace, which keeps each stage run. *)

type stage = Parse | Algebrize | Optimize | Serialize | Execute | Pivot

val stage_name : stage -> string

(** All stages, pipeline order. *)
val all_stages : stage list

type t

val create : unit -> t

(** Zero every total (call between measured queries). *)
val reset : t -> unit

(** Add one stage run of [seconds]. A stage that runs several times per
    query (e.g. repeated algebrization of unrolled functions) sums up. *)
val record : t -> stage -> float -> unit

(** Total seconds recorded for one stage since the last {!reset}. *)
val total : t -> stage -> float

(** Sum of the four translation stages (parse + algebrize + optimize +
    serialize). *)
val translation_total : t -> float

(** Total backend execution time. *)
val execution_total : t -> float
