(** SLO / overload monitor: declarative latency and error-rate
    objectives evaluated over the {!Timeseries} ring with multi-window
    burn-rate alerting.

    An objective's error budget is the fraction of queries allowed to
    be bad (slower than a threshold, or erroring). A window's burn rate
    is [bad fraction / budget]. An objective *burns* only when both the
    fast window (quick reaction) and the slow window (blip filter)
    exceed the burn threshold; [GET /healthz] degrades to 503 with the
    burn report while any objective burns. *)

type objective =
  | Latency of { l_threshold_s : float; l_budget : float }
      (** at most [l_budget] fraction of queries over the threshold —
          ["p99<50ms"] parses to threshold 0.05, budget 0.01 *)
  | Error_rate of { e_budget : float }

type config = {
  objectives : (string * objective) list;  (** (spec label, objective) *)
  fast_s : float;
  slow_s : float;
  burn_threshold : float;
}

val default_fast_s : float
val default_slow_s : float
val default_burn_threshold : float

(** No objectives — never burns. *)
val default_config : config

(** One-line description of the spec grammar (for [--slo]'s usage). *)
val spec_syntax : string

(** Parse a duration like ["50ms"], ["2s"], ["250us"] or a bare number
    (seconds). Also what [/timeseries.json?window=..] accepts. *)
val parse_duration_s : string -> float option

(** Parse a spec like ["p99<50ms,err<1%,fast=5s,slow=60s,burn=2"]. *)
val parse_spec : string -> (config, string) result

type burn = {
  b_name : string;
  b_fast_burn : float;
  b_slow_burn : float;
  b_burning : bool;
}

type verdict = { v_healthy : bool; v_burns : burn list }

type t

val create : ?config:config -> Timeseries.t -> t
val config : t -> config
val configure : t -> config -> unit

(** Evaluations that came back unhealthy since creation (monotonic). *)
val degraded_total : t -> int

(** Evaluate every objective over the ring's fast and slow windows. *)
val evaluate : t -> verdict

(** A fresh verdict as the relation behind [.hq.slo] and [GET /slo.json]
    (and the 503 body of a burning [/healthz]): one row per objective
    (the first [n], default all) with its fast and slow burn rates, and
    [healthy] plus the config as document fields. *)
val relation : ?n:int -> t -> Relation.t
