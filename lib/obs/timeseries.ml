(** Time-series ring: periodic raw snapshots of the whole metrics
    registry, plus per-window rates and percentiles derived from the
    deltas of consecutive snapshots.

    Counters and histogram buckets are cumulative, so any two snapshots
    bracket a window whose traffic is simply their difference. The
    latency percentiles come from the *bucket deltas* of the query
    histogram: subtract the older snapshot's bucket counts from the
    newer one's, then run the registry's one estimator
    ({!Metrics.bucket_percentile}) over the deltas — the estimate
    reflects only the queries that landed inside the window, which a
    cumulative histogram alone can never report. *)

type snap = {
  sn_ts : float;  (** wall clock (display / correlation) *)
  sn_mono : int64;  (** monotonic ns (window arithmetic) *)
  sn_values : (string * Metrics.raw) list;
}

type t = {
  ts_mu : Mutex.t;  (** guards the mutable fields below *)
  ts_registry : Metrics.t;
  ts_ring : snap Ring.t;
  mutable ts_interval_s : float;
  mutable ts_samples_total : int;
      (** survives {!reset}, which zeroes the ring's own count *)
  mutable ts_last_mono : int64;  (** 0 until the first sample *)
  mutable ts_hooks : (unit -> unit) list;  (** pre-sample refreshers *)
}

let default_capacity = 128
let default_interval_s = 1.0

(* the headline series every derived window reports *)
let queries_name = "hq_queries_total"
let errors_name = "hq_query_errors_total"
let latency_name = "hq_query_seconds"

(* runtime-plane series (Runtime registers these; windows report 0 for
   registries without a sampling runtime) *)
let alloc_name = "hq_gc_allocated_bytes_total"
let minor_name = "hq_gc_minor_collections_total"
let major_name = "hq_gc_major_collections_total"

let create ?(interval_s = default_interval_s) ?(capacity = default_capacity)
    (registry : Metrics.t) : t =
  if capacity < 2 then
    invalid_arg "Timeseries.create: capacity must be >= 2 (windows are deltas)";
  {
    ts_mu = Mutex.create ();
    ts_registry = registry;
    ts_ring = Ring.create capacity;
    ts_interval_s = interval_s;
    ts_samples_total = 0;
    ts_last_mono = 0L;
    ts_hooks = [];
  }

let capacity t = Ring.capacity t.ts_ring
let size t = Ring.size t.ts_ring
let samples_total t = Mutex.protect t.ts_mu (fun () -> t.ts_samples_total)
let interval_s t = Mutex.protect t.ts_mu (fun () -> t.ts_interval_s)
let set_interval t s = Mutex.protect t.ts_mu (fun () -> t.ts_interval_s <- s)

(** Register a hook run (outside the ring lock) before every sample —
    the platform uses this to refresh mirrored gauges (pool saturation,
    backend counters) so snapshots see current values. *)
let on_sample t hook =
  Mutex.protect t.ts_mu (fun () -> t.ts_hooks <- hook :: t.ts_hooks)

(** Take one snapshot now, unconditionally. *)
let sample t =
  let hooks = Mutex.protect t.ts_mu (fun () -> t.ts_hooks) in
  List.iter (fun h -> try h () with _ -> ()) hooks;
  let s =
    {
      sn_ts = Unix.gettimeofday ();
      sn_mono = Clock.now_ns ();
      sn_values = Metrics.raw_snapshot t.ts_registry;
    }
  in
  Ring.push t.ts_ring s;
  Mutex.protect t.ts_mu (fun () ->
      t.ts_samples_total <- t.ts_samples_total + 1;
      t.ts_last_mono <- s.sn_mono)

(** Sample only if at least the configured interval elapsed since the
    last snapshot (in-band pacing for callers without a sampler
    thread). Returns whether a snapshot was taken. *)
let tick t =
  let due =
    Mutex.protect t.ts_mu (fun () ->
        t.ts_last_mono = 0L
        || Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t.ts_last_mono)
           >= t.ts_interval_s)
  in
  if due then sample t;
  due

let reset t =
  Ring.clear t.ts_ring;
  Mutex.protect t.ts_mu (fun () -> t.ts_last_mono <- 0L)

(* oldest-first list of held snapshots *)
let snaps t : snap list = List.rev (Ring.recent t.ts_ring (capacity t))

(* ------------------------------------------------------------------ *)
(* Delta arithmetic                                                    *)
(* ------------------------------------------------------------------ *)

(* deltas clamp at zero: a cross-plane reset between two snapshots
   would otherwise produce negative traffic *)
let delta_int a b = Stdlib.max 0 (b - a)

let counter_of (s : snap) name =
  match List.assoc_opt name s.sn_values with
  | Some (Metrics.Raw_counter v) -> Some v
  | _ -> None

let hist_of (s : snap) name =
  match List.assoc_opt name s.sn_values with
  | Some (Metrics.Raw_hist (bounds, counts)) -> Some (bounds, counts)
  | _ -> None

(* bucket deltas between two snapshots of one histogram (same
   instrument, so the layouts match; anything else yields no delta) *)
let hist_delta (_, a) (bounds, b) : (float array * int array) option =
  if Array.length a <> Array.length b then None
  else Some (bounds, Array.map2 delta_int a b)

type window = {
  w_ts : float;  (** wall clock at the window's end *)
  w_dt_s : float;
  w_queries : int;
  w_qps : float;
  w_errors : int;
  w_error_rate : float;  (** errors / queries, 0 for an idle window *)
  w_p50_s : float;  (** [nan] when the window saw no queries *)
  w_p95_s : float;
  w_p99_s : float;
  (* runtime plane: allocation and GC activity inside the window *)
  w_alloc_bytes : int;
  w_alloc_bps : float;  (** allocation rate, bytes/s *)
  w_minor_gcs : int;
  w_major_gcs : int;
}

let window_of (a : snap) (b : snap) : window =
  let dt = Clock.ns_to_s (Int64.sub b.sn_mono a.sn_mono) in
  let dt = Float.max 1e-9 dt in
  let dcounter name =
    match (counter_of a name, counter_of b name) with
    | Some va, Some vb -> delta_int va vb
    | _ -> 0
  in
  let queries = dcounter queries_name in
  let errors = dcounter errors_name in
  let alloc_bytes = dcounter alloc_name in
  let minor_gcs = dcounter minor_name in
  let major_gcs = dcounter major_name in
  let p50, p95, p99 =
    match (hist_of a latency_name, hist_of b latency_name) with
    | Some ha, Some hb -> (
        match hist_delta ha hb with
        | Some (bounds, counts) ->
            let p = Metrics.bucket_percentile ~range:None ~bounds ~counts in
            (p 50.0, p 95.0, p 99.0)
        | None -> (Float.nan, Float.nan, Float.nan))
    | _ -> (Float.nan, Float.nan, Float.nan)
  in
  {
    w_ts = b.sn_ts;
    w_dt_s = dt;
    w_queries = queries;
    w_qps = float_of_int queries /. dt;
    w_errors = errors;
    w_error_rate =
      (if queries = 0 then 0.0
       else float_of_int errors /. float_of_int queries);
    w_p50_s = p50;
    w_p95_s = p95;
    w_p99_s = p99;
    w_alloc_bytes = alloc_bytes;
    w_alloc_bps = float_of_int alloc_bytes /. dt;
    w_minor_gcs = minor_gcs;
    w_major_gcs = major_gcs;
  }

(** Derived windows, oldest first — one per consecutive snapshot pair.
    [horizon_s] keeps only windows ending within that many (monotonic)
    seconds of the newest snapshot. *)
let windows ?horizon_s t : window list =
  let ss = snaps t in
  let newest_mono =
    match List.rev ss with s :: _ -> s.sn_mono | [] -> 0L
  in
  let keep (b : snap) =
    match horizon_s with
    | None -> true
    | Some h -> Clock.ns_to_s (Int64.sub newest_mono b.sn_mono) <= h
  in
  let rec pair = function
    | a :: (b :: _ as rest) ->
        if keep b then window_of a b :: pair rest else pair rest
    | _ -> []
  in
  pair ss

(* ------------------------------------------------------------------ *)
(* Aggregate over a horizon (the SLO monitor's view)                   *)
(* ------------------------------------------------------------------ *)

type agg = {
  a_dt_s : float;  (** span between the bracketing snapshots *)
  a_queries : int;
  a_errors : int;
  a_latency : (float array * int array) option;
      (** query-latency bucket deltas over the horizon *)
}

(** Traffic between the oldest snapshot within [horizon_s] of the
    newest and the newest itself; [None] until two snapshots exist in
    the horizon. Cumulative series make this a single subtraction — no
    per-window summing. *)
let aggregate t ~(horizon_s : float) : agg option =
  let ss = snaps t in
  match List.rev ss with
  | [] | [ _ ] -> None
  | newest :: older ->
      let inside =
        List.filter
          (fun s ->
            Clock.ns_to_s (Int64.sub newest.sn_mono s.sn_mono) <= horizon_s)
          older
      in
      (* [older] is newest-first, so the last survivor is the oldest *)
      (match List.rev inside with
      | [] -> None
      | oldest :: _ ->
          let dcounter name =
            match (counter_of oldest name, counter_of newest name) with
            | Some va, Some vb -> delta_int va vb
            | _ -> 0
          in
          Some
            {
              a_dt_s =
                Clock.ns_to_s (Int64.sub newest.sn_mono oldest.sn_mono);
              a_queries = dcounter queries_name;
              a_errors = dcounter errors_name;
              a_latency =
                (match
                   (hist_of oldest latency_name, hist_of newest latency_name)
                 with
                | Some ha, Some hb -> hist_delta ha hb
                | _ -> None);
            })

(** Fraction of a window's observations at or under [threshold]
    seconds, interpolated inside the bucket containing the threshold.
    [nan] on an empty window. *)
let frac_le ~(bounds : float array) ~(counts : int array) (threshold : float) :
    float =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Float.nan
  else begin
    let n = Array.length bounds in
    let acc = ref 0.0 in
    (try
       for i = 0 to n do
         let lo = if i = 0 then 0.0 else bounds.(i - 1) in
         let hi = if i = n then bounds.(n - 1) else bounds.(i) in
         if threshold >= hi then acc := !acc +. float_of_int counts.(i)
         else begin
           if threshold > lo && hi > lo then
             acc :=
               !acc
               +. (float_of_int counts.(i) *. (threshold -. lo) /. (hi -. lo));
           raise Exit
         end
       done
     with Exit -> ());
    !acc /. float_of_int total
  end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let relation ?(n = max_int) ?horizon_s t : Relation.t =
  let ws = windows ?horizon_s t in
  let drop = List.length ws - n in
  Relation.make
    ~fields:
      [
        ("interval_s", Float (interval_s t));
        ("capacity", Int (capacity t));
        ("samples", Int (size t));
      ]
    Relation.
      [
        float "ts" (fun w -> w.w_ts);
        float "dt_s" (fun w -> w.w_dt_s);
        int "queries" (fun w -> w.w_queries);
        float "qps" (fun w -> w.w_qps);
        int "errors" (fun w -> w.w_errors);
        float "error_rate" (fun w -> w.w_error_rate);
        float "p50_ms" (fun w -> w.w_p50_s *. 1e3);
        float "p95_ms" (fun w -> w.w_p95_s *. 1e3);
        float "p99_ms" (fun w -> w.w_p99_s *. 1e3);
        int "alloc_bytes" (fun w -> w.w_alloc_bytes);
        float "alloc_bps" (fun w -> w.w_alloc_bps);
        int "minor_gcs" (fun w -> w.w_minor_gcs);
        int "major_gcs" (fun w -> w.w_major_gcs);
      ]
    (List.filteri (fun i _ -> i >= drop) ws)
