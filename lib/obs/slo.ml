(** SLO / overload monitor: declarative latency and error-rate
    objectives evaluated over the time-series ring with multi-window
    burn-rate alerting.

    Each objective defines an error budget — the fraction of queries
    allowed to be "bad" (slower than a latency threshold, or errors).
    The burn rate of a window is [observed bad fraction / budget]: 1.0
    means the budget is being consumed exactly as fast as it accrues,
    higher means faster. An objective is *burning* only when both a
    fast window (reacts quickly) and a slow window (filters blips)
    exceed the burn threshold — the classic multi-window guard against
    alert flapping, with the 5m/1h production windows scaled down to
    bench/test time via {!config}. The platform's [GET /healthz]
    degrades to 503 with the burn report while any objective burns —
    the hook load-shedding builds on. *)

type objective =
  | Latency of { l_threshold_s : float; l_budget : float }
      (** at most [l_budget] fraction of queries slower than the
          threshold (["p99<50ms"] means threshold 50ms, budget 0.01) *)
  | Error_rate of { e_budget : float }
      (** at most [e_budget] fraction of queries erroring *)

type config = {
  objectives : (string * objective) list;  (** (spec label, objective) *)
  fast_s : float;  (** fast evaluation window, seconds *)
  slow_s : float;  (** slow evaluation window, seconds *)
  burn_threshold : float;  (** alert when BOTH windows burn >= this *)
}

let default_fast_s = 60.0
let default_slow_s = 300.0
let default_burn_threshold = 1.0

(** No objectives: never burns. *)
let default_config =
  {
    objectives = [];
    fast_s = default_fast_s;
    slow_s = default_slow_s;
    burn_threshold = default_burn_threshold;
  }

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

let spec_syntax =
  "comma-separated terms: pP<DURATION (latency, e.g. p99<50ms, p95<2s), \
   err<PCT% (error rate, e.g. err<1%), fast=DURATION, slow=DURATION, \
   burn=FACTOR"

(* most specific suffix first, so "50ms" never falls into the bare "s"
   branch; a bare number is seconds *)
let parse_duration_s (s : string) : float option =
  let strip suffix scale =
    let ls = String.length s and lx = String.length suffix in
    if ls > lx && String.sub s (ls - lx) lx = suffix then
      match float_of_string_opt (String.sub s 0 (ls - lx)) with
      | Some v when v >= 0.0 -> Some (v *. scale)
      | _ -> None
    else None
  in
  match strip "us" 1e-6 with
  | Some _ as r -> r
  | None -> (
      match strip "ms" 1e-3 with
      | Some _ as r -> r
      | None -> (
          match strip "s" 1.0 with
          | Some _ as r -> r
          | None -> (
              match float_of_string_opt s with
              | Some v when v >= 0.0 -> Some v
              | _ -> None)))

(** Parse an SLO spec string, e.g. ["p99<50ms,err<1%,fast=5s,slow=60s"].
    Latency percentiles turn into budgets: pN means at most (100-N)% of
    queries may exceed the threshold. *)
let parse_spec (spec : string) : (config, string) result =
  let terms =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go cfg = function
    | [] ->
        if cfg.objectives = [] then Error "spec declares no objectives"
        else Ok { cfg with objectives = List.rev cfg.objectives }
    | term :: rest -> (
        let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
        match String.index_opt term '<' with
        | Some i -> (
            let lhs = String.sub term 0 i in
            let rhs = String.sub term (i + 1) (String.length term - i - 1) in
            if lhs = "err" then
              let ls = String.length rhs in
              if ls > 1 && rhs.[ls - 1] = '%' then
                match float_of_string_opt (String.sub rhs 0 (ls - 1)) with
                | Some pct when pct > 0.0 && pct < 100.0 ->
                    go
                      {
                        cfg with
                        objectives =
                          (term, Error_rate { e_budget = pct /. 100.0 })
                          :: cfg.objectives;
                      }
                      rest
                | _ -> fail "bad error budget in %S (want e.g. err<1%%)" term
              else fail "bad error budget in %S (want e.g. err<1%%)" term
            else if String.length lhs > 1 && lhs.[0] = 'p' then
              match
                float_of_string_opt (String.sub lhs 1 (String.length lhs - 1))
              with
              | Some p when p > 0.0 && p < 100.0 -> (
                  match parse_duration_s rhs with
                  | Some thr when thr > 0.0 ->
                      go
                        {
                          cfg with
                          objectives =
                            ( term,
                              Latency
                                {
                                  l_threshold_s = thr;
                                  l_budget = (100.0 -. p) /. 100.0;
                                } )
                            :: cfg.objectives;
                        }
                        rest
                  | _ ->
                      fail "bad duration in %S (want e.g. p99<50ms)" term)
              | _ -> fail "bad percentile in %S (want e.g. p99<50ms)" term
            else fail "unknown objective %S (%s)" term spec_syntax)
        | None -> (
            match String.index_opt term '=' with
            | Some i -> (
                let k = String.sub term 0 i in
                let v =
                  String.sub term (i + 1) (String.length term - i - 1)
                in
                match k with
                | "fast" | "slow" -> (
                    match parse_duration_s v with
                    | Some s when s > 0.0 ->
                        go
                          (if k = "fast" then { cfg with fast_s = s }
                           else { cfg with slow_s = s })
                          rest
                    | _ -> fail "bad window duration in %S" term)
                | "burn" -> (
                    match float_of_string_opt v with
                    | Some b when b > 0.0 ->
                        go { cfg with burn_threshold = b } rest
                    | _ -> fail "bad burn factor in %S" term)
                | _ -> fail "unknown setting %S (%s)" term spec_syntax)
            | None -> fail "cannot parse term %S (%s)" term spec_syntax))
  in
  go { default_config with objectives = [] } terms

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type burn = {
  b_name : string;  (** the objective's spec label *)
  b_fast_burn : float;
  b_slow_burn : float;
  b_burning : bool;
}

type verdict = { v_healthy : bool; v_burns : burn list }

type t = {
  s_mu : Mutex.t;
  s_ts : Timeseries.t;
  mutable s_config : config;
  mutable s_degraded_total : int;
      (** evaluations that came back unhealthy (monotonic) *)
}

let create ?(config = default_config) (ts : Timeseries.t) : t =
  { s_mu = Mutex.create (); s_ts = ts; s_config = config; s_degraded_total = 0 }

let config t = Mutex.protect t.s_mu (fun () -> t.s_config)
let configure t cfg = Mutex.protect t.s_mu (fun () -> t.s_config <- cfg)
let degraded_total t = Mutex.protect t.s_mu (fun () -> t.s_degraded_total)

(* bad fraction of the traffic an aggregate saw; 0.0 when idle — an
   empty window consumes no budget *)
let bad_fraction (o : objective) (agg : Timeseries.agg) : float =
  match o with
  | Error_rate _ ->
      if agg.Timeseries.a_queries = 0 then 0.0
      else
        float_of_int agg.Timeseries.a_errors
        /. float_of_int agg.Timeseries.a_queries
  | Latency { l_threshold_s; _ } -> (
      match agg.Timeseries.a_latency with
      | None -> 0.0
      | Some (bounds, counts) ->
          let le = Timeseries.frac_le ~bounds ~counts l_threshold_s in
          if Float.is_nan le then 0.0 else 1.0 -. le)

let budget_of = function
  | Latency { l_budget; _ } -> l_budget
  | Error_rate { e_budget } -> e_budget

let burn_of (o : objective) (agg : Timeseries.agg option) : float =
  match agg with
  | None -> 0.0
  | Some agg -> bad_fraction o agg /. Float.max 1e-9 (budget_of o)

(** Evaluate every objective over the ring's fast and slow windows. *)
let evaluate (t : t) : verdict =
  let cfg = config t in
  let fast = Timeseries.aggregate t.s_ts ~horizon_s:cfg.fast_s in
  let slow = Timeseries.aggregate t.s_ts ~horizon_s:cfg.slow_s in
  let burns =
    List.map
      (fun (name, o) ->
        let bf = burn_of o fast and bs = burn_of o slow in
        {
          b_name = name;
          b_fast_burn = bf;
          b_slow_burn = bs;
          b_burning = bf >= cfg.burn_threshold && bs >= cfg.burn_threshold;
        })
      cfg.objectives
  in
  let healthy = not (List.exists (fun b -> b.b_burning) burns) in
  if not healthy then Mutex.protect t.s_mu (fun () ->
      t.s_degraded_total <- t.s_degraded_total + 1);
  { v_healthy = healthy; v_burns = burns }

let relation ?n (t : t) : Relation.t =
  let cfg = config t in
  let v = evaluate t in
  Relation.make ?n
    ~fields:
      [
        ("healthy", Bool v.v_healthy);
        ("fast_window_s", Float cfg.fast_s);
        ("slow_window_s", Float cfg.slow_s);
        ("burn_threshold", Float cfg.burn_threshold);
      ]
    Relation.
      [
        str "objective" (fun b -> b.b_name);
        float "fast_burn" (fun b -> b.b_fast_burn);
        float "slow_burn" (fun b -> b.b_slow_burn);
        bool "burning" (fun b -> b.b_burning);
      ]
    v.v_burns
