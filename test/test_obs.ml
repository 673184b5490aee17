(* Observability layer tests: metrics registry math, per-query trace
   spans across a full wire-level round trip, the in-band .hq.stats
   query, the JSONL event sink, and the hardened QIPC handshake. *)

module M = Obs.Metrics
module Tr = Obs.Trace
module V = Pgdb.Value
module Db = Pgdb.Db
module S = Catalog.Schema
module Ty = Catalog.Sqltype
module QV = Qvalue.Value
module QA = Qvalue.Atom
module P = Platform.Hyperq_platform
module ST = Hyperq.Stage_timer

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tfloat = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_and_gauge () =
  let reg = M.create () in
  let c = M.counter reg "c_total" in
  M.inc c;
  M.add c 41;
  check tint "counter accumulates" 42 (M.counter_value c);
  (* get-or-create: same (name, labels) pair returns the same counter *)
  M.inc (M.counter reg "c_total");
  check tint "re-registration shares state" 43 (M.counter_value c);
  let g = M.gauge reg "g" in
  M.set g 1.5;
  M.gauge_add g 1.0;
  check tfloat "gauge" 2.5 (M.gauge_value g);
  (* same name as a different kind is rejected *)
  match M.gauge reg "c_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise"

let test_histogram_empty () =
  let reg = M.create () in
  let h = M.histogram reg "lat" in
  check tint "empty count" 0 (M.hist_count h);
  check tfloat "empty sum" 0.0 (M.hist_sum h);
  check tfloat "empty p50" 0.0 (M.percentile h 50.0);
  check tfloat "empty p99" 0.0 (M.percentile h 99.0)

let test_histogram_single_sample () =
  let reg = M.create () in
  let h = M.histogram reg "lat" in
  M.observe h 0.003;
  check tint "count" 1 (M.hist_count h);
  (* clamping to the observed range makes a single sample answer exactly
     itself at every percentile *)
  check tfloat "p50 is the sample" 0.003 (M.percentile h 50.0);
  check tfloat "p99 is the sample" 0.003 (M.percentile h 99.0);
  check tfloat "p0 is the sample" 0.003 (M.percentile h 0.0)

let test_histogram_percentiles () =
  let reg = M.create () in
  let buckets = Array.init 10 (fun i -> 0.01 *. float_of_int (i + 1)) in
  let h = M.histogram reg ~buckets "lat" in
  (* one sample in the middle of each bucket *)
  for i = 0 to 9 do
    M.observe h ((0.01 *. float_of_int i) +. 0.005)
  done;
  check tint "count" 10 (M.hist_count h);
  (* rank 5 lands at the upper edge of the 5th bucket *)
  check tfloat "p50" 0.05 (M.percentile h 50.0);
  (* rank 9.9 interpolates inside the last bucket, clamped to the max
     observed sample *)
  check tfloat "p99 clamped to max" 0.095 (M.percentile h 99.0);
  check tbool "sum" true (Float.abs (M.hist_sum h -. 0.5) < 1e-9);
  M.hist_reset h;
  check tint "reset drops samples" 0 (M.hist_count h)

let test_histogram_overflow_bucket () =
  let reg = M.create () in
  let h = M.histogram reg ~buckets:[| 0.1; 1.0 |] "lat" in
  M.observe h 5.0;
  (* above every bound: falls in the +Inf bucket, percentile reports the
     observed max rather than infinity *)
  check tfloat "overflow p50" 5.0 (M.percentile h 50.0)

let test_prometheus_exposition () =
  let reg = M.create () in
  M.add (M.counter reg ~help:"help text" "requests_total") 7;
  M.set (M.gauge reg "temperature") 21.5;
  let h = M.histogram reg ~buckets:[| 0.1; 1.0 |] ~labels:[ ("stage", "parse") ] "lat_seconds" in
  M.observe h 0.05;
  M.observe h 0.5;
  let text = M.to_prometheus reg in
  let contains needle =
    let re = Str.regexp_string needle in
    (try ignore (Str.search_forward re text 0); true with Not_found -> false)
  in
  check tbool "help line" true (contains "# HELP requests_total help text");
  check tbool "type line" true (contains "# TYPE requests_total counter");
  check tbool "counter sample" true (contains "requests_total 7");
  check tbool "gauge sample" true (contains "temperature 21.5");
  check tbool "bucket series is cumulative" true
    (contains "lat_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 2");
  check tbool "histogram count" true
    (contains "lat_seconds_count{stage=\"parse\"} 2")

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let make_db () =
  let db = Db.create () in
  Db.load_table db
    (S.table ~order_col:"hq_ord" "trades"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "Symbol" Ty.TVarchar;
         S.column "Price" Ty.TDouble;
         S.column "Size" Ty.TBigint;
       ])
    (List.mapi
       (fun i (sym, px, sz) ->
         [| V.Int (Int64.of_int i); V.Str sym; V.Float px; V.Int (Int64.of_int sz) |])
       [ ("A", 10.0, 100); ("B", 20.0, 200); ("A", 11.0, 150) ]);
  db

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "query failed: %s" e

let sample_value reg name =
  match
    List.find_opt (fun s -> s.M.s_name = name) (M.snapshot reg)
  with
  | Some s -> s.M.s_value
  | None -> Alcotest.failf "metric %s not in snapshot" name

(* ------------------------------------------------------------------ *)
(* Stage timer (per-stage running totals)                              *)
(* ------------------------------------------------------------------ *)

let test_stage_timer_totals_and_reset () =
  let t = ST.create () in
  ST.record t ST.Parse 0.001;
  ST.record t ST.Execute 0.01;
  ST.record t ST.Parse 0.002;
  ST.record t ST.Serialize 0.004;
  check tfloat "stage total sums its runs" 0.003 (ST.total t ST.Parse);
  check tfloat "other stages keep their own total" 0.01 (ST.total t ST.Execute);
  check tfloat "unrecorded stage is zero" 0.0 (ST.total t ST.Pivot);
  check tfloat "translation = parse..serialize" 0.007 (ST.translation_total t);
  check tfloat "execution" 0.01 (ST.execution_total t);
  ST.reset t;
  List.iter
    (fun s -> check tfloat ("reset zeroes " ^ ST.stage_name s) 0.0 (ST.total t s))
    ST.all_stages

let test_stage_timer_monotonic_nonnegative () =
  (* the engine records monotonic durations: no total can go negative *)
  let eng =
    Hyperq.Engine.create
      (Hyperq.Backend.of_pgdb_session (Db.open_session (make_db ())))
  in
  let t = Hyperq.Engine.timer eng in
  for i = 1 to 100 do
    ST.reset t;
    (match
       Hyperq.Engine.try_run eng
         (Printf.sprintf "select Price from trades where Size>%d" i)
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    List.iter
      (fun s -> check tbool "stage total is non-negative" true (ST.total t s >= 0.0))
      ST.all_stages;
    check tbool "execute was recorded" true (ST.execution_total t > 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Full round trip: spans, metrics, .hq.stats                          *)
(* ------------------------------------------------------------------ *)

let test_round_trip_span_tree () =
  let p = P.create (make_db ()) in
  let c = P.Client.connect p in
  ignore (ok (P.Client.query c "select Price from trades where Symbol=`A"));
  let root =
    match (P.obs p).Obs.Ctx.last_trace with
    | Some r -> r
    | None -> Alcotest.fail "no trace recorded"
  in
  check tbool "root is the query span" true (Tr.name root = "query");
  (* the pipeline stages appear as children, in pipeline order *)
  let child_names = List.map Tr.name (Tr.children root) in
  let expected = [ "parse"; "algebrize"; "optimize"; "serialize"; "execute"; "pivot" ] in
  let positions =
    List.map
      (fun stage ->
        let rec idx i = function
          | [] -> Alcotest.failf "stage %s missing from span tree" stage
          | n :: _ when n = stage -> i
          | _ :: rest -> idx (i + 1) rest
        in
        idx 0 child_names)
      expected
  in
  check tbool "stages in pipeline order" true
    (List.for_all2 ( <= ) positions (List.tl positions @ [ max_int ]));
  (* every span carries a non-negative monotonic duration *)
  let rec walk sp =
    check tbool "span duration >= 0" true (Tr.duration_s sp >= 0.0);
    List.iter walk (Tr.children sp)
  in
  walk root;
  (* QIPC byte counts ride on the root span *)
  let root_attrs = Tr.attrs root in
  check tbool "qipc_bytes_in attr" true (List.mem_assoc "qipc_bytes_in" root_attrs);
  check tbool "qipc_bytes_out attr" true (List.mem_assoc "qipc_bytes_out" root_attrs);
  check tbool "query_sha attr" true (List.mem_assoc "query_sha" root_attrs);
  (* PG-wire byte counts ride on the span open during the backend round
     trip (the execute span) *)
  let exec_span =
    match Tr.find root "execute" with
    | Some s -> s
    | None -> Alcotest.fail "no execute span"
  in
  let exec_attrs = Tr.attrs exec_span in
  check tbool "pg_bytes_out attr" true (List.mem_assoc "pg_bytes_out" exec_attrs);
  (match List.assoc "pg_bytes_in" exec_attrs with
  | Tr.Int n -> check tbool "pg bytes flowed" true (n > 0)
  | _ -> Alcotest.fail "pg_bytes_in must be an int");
  (* the trace renders as one JSON line *)
  let json = Tr.to_json root in
  check tbool "trace json mentions pivot" true
    (String.length json > 0
    &&
    let re = Str.regexp_string "\"pivot\"" in
    (try ignore (Str.search_forward re json 0); true with Not_found -> false))

let test_round_trip_metrics () =
  let p = P.create (make_db ()) in
  let reg = (P.obs p).Obs.Ctx.registry in
  let c = P.Client.connect p in
  for _ = 1 to 3 do
    ignore (ok (P.Client.query c "select Price from trades"))
  done;
  check tbool "queries_total" true (sample_value reg "hq_queries_total" >= 3.0);
  check tbool "qipc in" true (sample_value reg "hq_qipc_bytes_in" > 0.0);
  check tbool "qipc out" true (sample_value reg "hq_qipc_bytes_out" > 0.0);
  check tbool "pg wire in" true (sample_value reg "hq_pgwire_bytes_in" > 0.0);
  check tbool "pg wire out" true (sample_value reg "hq_pgwire_bytes_out" > 0.0);
  (* with the plan cache on (the platform default), the repeats are
     template hits that skip Parse entirely — only the first query
     walks the full pipeline, but Execute/Pivot still run per query *)
  check tbool "per-stage histogram counted" true
    (sample_value reg "hq_stage_seconds_count{stage=\"parse\"}" >= 1.0);
  check tbool "execute histogram counted" true
    (sample_value reg "hq_stage_seconds_count{stage=\"execute\"}" >= 3.0);
  check tbool "pivot histogram counted" true
    (sample_value reg "hq_stage_seconds_count{stage=\"pivot\"}" >= 3.0);
  check tbool "query latency histogram" true
    (sample_value reg "hq_query_seconds_count" >= 3.0);
  (* the same registry renders as Prometheus text *)
  let text = P.stats_text p in
  let contains needle =
    let re = Str.regexp_string needle in
    (try ignore (Str.search_forward re text 0); true with Not_found -> false)
  in
  check tbool "prometheus queries_total" true (contains "hq_queries_total 3");
  check tbool "prometheus stage buckets" true
    (contains "hq_stage_seconds_bucket{stage=\"parse\",le=");
  check tbool "prometheus backend gauge" true (contains "hq_backend_selects_run")

let test_hq_stats_over_qipc () =
  let p = P.create (make_db ()) in
  let c = P.Client.connect p in
  for _ = 1 to 2 do
    ignore (ok (P.Client.query c "select Price from trades"))
  done;
  (* .hq.stats is answered by the endpoint without a backend round trip *)
  let backend =
    (Hyperq.Engine.mdi (Platform.Xc.engine c.P.Client.conn.P.xc))
      .Hyperq.Mdi.backend
  in
  let statements_before = Hyperq.Backend.log_mark backend in
  let v = ok (P.Client.query c ".hq.stats") in
  check tint "no backend statements for .hq.stats" statements_before
    (Hyperq.Backend.log_mark backend);
  match v with
  | QV.Table tb ->
      let metric_col = QV.column_exn tb "metric" in
      let value_col = QV.column_exn tb "value" in
      let lookup name =
        let rec go i =
          if i >= QV.length metric_col then
            Alcotest.failf "metric %s not in .hq.stats" name
          else
            match QV.index metric_col i with
            | QV.Atom (QA.Sym s) when s = name -> (
                match QV.index value_col i with
                | QV.Atom (QA.Float f) -> f
                | _ -> Alcotest.fail "value column must be floats")
            | _ -> go (i + 1)
        in
        go 0
      in
      check tbool "queries_total over QIPC" true
        (lookup "hq_queries_total" >= 2.0);
      check tbool "stage histograms over QIPC" true
        (lookup "hq_stage_seconds_count{stage=\"serialize\"}" >= 2.0);
      check tbool "admin query counted separately" true
        (lookup "hq_admin_queries_total" >= 1.0)
  | v -> Alcotest.failf "expected a table, got %s" (Qvalue.Qprint.to_string v)

(* ------------------------------------------------------------------ *)
(* JSONL events                                                        *)
(* ------------------------------------------------------------------ *)

let test_jsonl_events () =
  let sink, read = Obs.Events.memory () in
  let ctx = Obs.Ctx.create ~events:sink () in
  let p = P.create ~obs:ctx (make_db ()) in
  let c = P.Client.connect p in
  ignore (ok (P.Client.query c "select Price from trades"));
  (match P.Client.query c "select nope from missing_table" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error");
  let contains line needle =
    let re = Str.regexp_string needle in
    (try ignore (Str.search_forward re line 0); true with Not_found -> false)
  in
  (* the sink now carries two interleaved record kinds: per-query events
     (keyed by query_sha) and structured log lines (keyed by level) *)
  let all = read () in
  let lines = List.filter (fun l -> contains l "\"query_sha\"") all in
  let logs = List.filter (fun l -> contains l "\"level\"") all in
  check tint "one event per query" 2 (List.length lines);
  check tbool "log lines interleave on the same sink" true (logs <> []);
  check tbool "a query-completion log line carries a trace id" true
    (List.exists
       (fun l ->
         contains l "\"msg\":\"query completed\""
         && (not (contains l "\"trace_id\":\"\""))
         && contains l "\"trace_id\":\"")
       logs);
  let first = List.nth lines 0 and second = List.nth lines 1 in
  check tbool "ok status" true (contains first "\"status\":\"ok\"");
  check tbool "row count" true (contains first "\"rows_out\":3");
  check tbool "stage durations present" true (contains first "\"parse\":");
  check tbool "pivot stage present" true (contains first "\"pivot\":");
  check tbool "qipc bytes in event" true (contains first "\"qipc_bytes_in\":");
  check tbool "sql statement count" true (contains first "\"sql_statements\":");
  check tbool "query sha present" true
    (contains first
       (Printf.sprintf "\"query_sha\":\"%s\""
          (Obs.Events.query_sha "select Price from trades")));
  check tbool "error status" true (contains second "\"status\":\"error\"");
  check tbool "error class non-empty" true
    (not (contains second "\"error_class\":\"\""))

(* ------------------------------------------------------------------ *)
(* JSON float rendering (non-finite values must stay parseable)        *)
(* ------------------------------------------------------------------ *)

let tstr = Alcotest.string

let test_json_floats_events () =
  let f v = Obs.Events.field_json (Obs.Events.Float v) in
  check tstr "NaN is null" "null" (f Float.nan);
  check tstr "+inf is a string" "\"inf\"" (f Float.infinity);
  check tstr "-inf is a string" "\"-inf\"" (f Float.neg_infinity);
  check tstr "integral floats keep a decimal point" "3.0" (f 3.0);
  check tstr "ordinary floats unchanged" "2.5" (f 2.5);
  (* nested in an object, the line stays valid JSON *)
  let obj =
    Obs.Events.field_json
      (Obs.Events.Obj [ ("a", Obs.Events.Float Float.nan) ])
  in
  check tstr "object with NaN field" "{\"a\":null}" obj

let test_json_floats_trace_attrs () =
  let f v = Tr.attr_json (Tr.Float v) in
  check tstr "NaN attr is null" "null" (f Float.nan);
  check tstr "+inf attr" "\"inf\"" (f Float.infinity);
  check tstr "-inf attr" "\"-inf\"" (f Float.neg_infinity);
  check tstr "finite attr unchanged" "1.5" (f 1.5);
  check tstr "int attr" "7" (Tr.attr_json (Tr.Int 7));
  check tstr "str attr quoted" "\"x\"" (Tr.attr_json (Tr.Str "x"))

(* ------------------------------------------------------------------ *)
(* Trace and span identifiers                                          *)
(* ------------------------------------------------------------------ *)

let is_hex s = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let test_trace_ids () =
  let tid = Tr.gen_trace_id () in
  let sid = Tr.gen_span_id () in
  check tint "trace id is 32 hex chars" 32 (String.length tid);
  check tint "span id is 16 hex chars" 16 (String.length sid);
  check tbool "trace id lowercase hex" true (is_hex tid);
  check tbool "span id lowercase hex" true (is_hex sid);
  check tbool "successive trace ids distinct" true (tid <> Tr.gen_trace_id ());
  check tstr "traceparent format"
    (Printf.sprintf "00-%s-%s-01" tid sid)
    (Tr.traceparent ~trace_id:tid ~span_id:sid);
  (* every trace gets its own id; every span in a trace its own id *)
  let tr = Tr.start "query" in
  check tint "started trace carries a 32-hex id" 32
    (String.length (Tr.trace_id tr));
  Tr.with_span tr "a" (fun () -> ());
  Tr.with_span tr "b" (fun () -> ());
  let root = Tr.finish tr in
  let ids = List.map Tr.span_id (root :: Tr.children root) in
  check tint "three spans" 3 (List.length ids);
  check tint "span ids distinct" 3
    (List.length (List.sort_uniq compare ids))

let test_trace_export_ring () =
  let ex = Obs.Export.create ~capacity:2 () in
  let mk name =
    let tr = Tr.start name in
    Tr.with_span tr "execute" (fun () -> ());
    let root = Tr.finish tr in
    Obs.Export.offer ex ~ts:1.0 ~trace_id:(Tr.trace_id tr) root;
    Tr.trace_id tr
  in
  let _t1 = mk "q1" in
  let t2 = mk "q2" in
  let t3 = mk "q3" in
  check tint "ring bounded" 2 (Obs.Export.size ex);
  check tint "offers counted" 3 (Obs.Export.exported_total ex);
  (match Obs.Export.recent ex 10 with
  | [ a; b ] ->
      check tstr "newest first" t3 a.Obs.Export.x_trace_id;
      check tstr "then previous" t2 b.Obs.Export.x_trace_id
  | l -> Alcotest.failf "expected 2 traces, got %d" (List.length l));
  check tbool "oldest evicted" true (Obs.Export.find ex _t1 = None);
  let json = Obs.Export.to_json ex in
  let contains needle =
    let re = Str.regexp_string needle in
    (try ignore (Str.search_forward re json 0); true with Not_found -> false)
  in
  check tbool "flat spans carry traceID" true
    (contains (Printf.sprintf "\"traceID\":\"%s\"" t3));
  check tbool "flat spans carry parent pointers" true
    (contains "\"parentSpanID\":");
  check tbool "span count present" true (contains "\"spanCount\":2")

(* ------------------------------------------------------------------ *)
(* Time-series ring                                                    *)
(* ------------------------------------------------------------------ *)

module TS = Obs.Timeseries

let has_sub hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let test_timeseries_windows () =
  let reg = M.create () in
  let q = M.counter reg "hq_queries_total" in
  let e = M.counter reg "hq_query_errors_total" in
  let h = M.histogram reg "hq_query_seconds" in
  (* interval 0: every tick/sample takes a snapshot — deterministic *)
  let ts = TS.create ~interval_s:0.0 ~capacity:8 reg in
  TS.sample ts;
  for _ = 1 to 100 do
    M.inc q;
    M.observe h 0.004
  done;
  M.inc e;
  TS.sample ts;
  (match TS.windows ts with
  | [ w ] ->
      check tint "queries delta" 100 w.TS.w_queries;
      check tint "errors delta" 1 w.TS.w_errors;
      check tbool "qps positive" true (w.TS.w_qps > 0.0);
      check tbool "error rate is errors/queries" true
        (Float.abs (w.TS.w_error_rate -. 0.01) < 1e-9);
      check tbool "p99 finite" true (Float.is_finite w.TS.w_p99_s);
      check tbool "p50 lands near the observations" true
        (w.TS.w_p50_s > 0.0 && w.TS.w_p50_s < 0.1)
  | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws));
  (* an idle window reports zero traffic and nan percentiles *)
  TS.sample ts;
  (match List.rev (TS.windows ts) with
  | idle :: _ ->
      check tint "idle window queries" 0 idle.TS.w_queries;
      check tbool "idle percentile is nan" true (Float.is_nan idle.TS.w_p99_s);
      check tfloat "idle error rate" 0.0 idle.TS.w_error_rate
  | [] -> Alcotest.fail "expected windows");
  (* nan percentiles must render as JSON null, not "nan" *)
  let js = TS.to_json ts in
  check tbool "json carries windows" true (has_sub js "\"windows\":[");
  check tbool "nan renders as null" true (has_sub js "\"p99_ms\":null");
  check tbool "json never prints bare nan" false (has_sub js ":nan")

let test_timeseries_ring_and_reset () =
  let reg = M.create () in
  let ts = TS.create ~interval_s:0.0 ~capacity:4 reg in
  for _ = 1 to 10 do
    TS.sample ts
  done;
  check tint "ring capped at capacity" 4 (TS.size ts);
  check tint "samples_total keeps counting" 10 (TS.samples_total ts);
  check tint "windows pair stored snapshots" 3 (List.length (TS.windows ts));
  TS.reset ts;
  check tint "reset empties the ring" 0 (TS.size ts);
  check tint "samples_total survives reset" 10 (TS.samples_total ts);
  (* a hook registered before reset still runs after it *)
  let fired = ref 0 in
  TS.on_sample ts (fun () -> incr fired);
  TS.sample ts;
  check tint "hooks survive reset" 1 !fired

let test_percentile_delta_math () =
  let bounds = [| 0.001; 0.01; 0.1 |] in
  (* 90 observations in (0.001, 0.01], 10 in the +Inf bucket *)
  let counts = [| 0; 90; 0; 10 |] in
  let p50 = TS.percentile_of_deltas ~bounds ~counts 50.0 in
  check tbool "p50 interpolates inside its bucket" true
    (p50 > 0.001 && p50 <= 0.01);
  let p99 = TS.percentile_of_deltas ~bounds ~counts 99.0 in
  check tfloat "overflow clamps to the top finite bound" 0.1 p99;
  check tbool "empty deltas give nan" true
    (Float.is_nan
       (TS.percentile_of_deltas ~bounds ~counts:[| 0; 0; 0; 0 |] 50.0));
  check tbool "frac_le at a bucket edge" true
    (Float.abs (TS.frac_le ~bounds ~counts 0.01 -. 0.9) < 1e-9);
  check tbool "frac_le above all bounds is 1" true
    (Float.abs (TS.frac_le ~bounds ~counts 1.0 -. 1.0) < 1e-9)

(* ------------------------------------------------------------------ *)
(* SLO monitor                                                         *)
(* ------------------------------------------------------------------ *)

let test_slo_spec_parsing () =
  (match Obs.Slo.parse_spec "p99<50ms,err<1%,fast=5s,slow=60s,burn=2" with
  | Ok cfg ->
      check tint "two objectives" 2 (List.length cfg.Obs.Slo.objectives);
      check tfloat "fast window" 5.0 cfg.Obs.Slo.fast_s;
      check tfloat "slow window" 60.0 cfg.Obs.Slo.slow_s;
      check tfloat "burn threshold" 2.0 cfg.Obs.Slo.burn_threshold;
      (match List.assoc "p99<50ms" cfg.Obs.Slo.objectives with
      | Obs.Slo.Latency { l_threshold_s; l_budget } ->
          check tbool "threshold is 50ms" true
            (Float.abs (l_threshold_s -. 0.05) < 1e-12);
          check tbool "p99 budget is 1%" true
            (Float.abs (l_budget -. 0.01) < 1e-12)
      | _ -> Alcotest.fail "p99 objective must be a latency objective");
      (match List.assoc "err<1%" cfg.Obs.Slo.objectives with
      | Obs.Slo.Error_rate { e_budget } ->
          check tbool "error budget is 1%" true
            (Float.abs (e_budget -. 0.01) < 1e-12)
      | _ -> Alcotest.fail "err objective must be an error-rate objective")
  | Error m -> Alcotest.failf "spec must parse: %s" m);
  (match Obs.Slo.parse_spec "fast=5s" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a spec with no objectives must be rejected");
  match Obs.Slo.parse_spec "p99<oops" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a bad duration must be rejected"

let test_slo_burn_and_recovery () =
  let reg = M.create () in
  let q = M.counter reg "hq_queries_total" in
  let h = M.histogram reg "hq_query_seconds" in
  let ts = TS.create ~interval_s:0.0 ~capacity:64 reg in
  let cfg =
    match Obs.Slo.parse_spec "p99<1ms,fast=50ms,slow=50ms" with
    | Ok c -> c
    | Error m -> Alcotest.failf "spec: %s" m
  in
  let slo = Obs.Slo.create ~config:cfg ts in
  TS.sample ts;
  check tbool "idle is healthy" true (Obs.Slo.evaluate slo).Obs.Slo.v_healthy;
  (* latency spike: every query lands far above the 1ms threshold *)
  for _ = 1 to 50 do
    M.inc q;
    M.observe h 0.05
  done;
  TS.sample ts;
  let v = Obs.Slo.evaluate slo in
  check tbool "spike burns both windows" false v.Obs.Slo.v_healthy;
  (match v.Obs.Slo.v_burns with
  | [ b ] ->
      check tbool "fast burn over threshold" true (b.Obs.Slo.b_fast_burn >= 1.0);
      check tbool "objective marked burning" true b.Obs.Slo.b_burning
  | bs -> Alcotest.failf "expected 1 burn entry, got %d" (List.length bs));
  check tbool "degradations counted" true (Obs.Slo.degraded_total slo >= 1);
  (* recovery: the spike ages out of the 50ms windows, and fresh fast
     traffic shows a healthy window *)
  Unix.sleepf 0.06;
  TS.sample ts;
  for _ = 1 to 50 do
    M.inc q;
    M.observe h 0.0001
  done;
  TS.sample ts;
  let v = Obs.Slo.evaluate slo in
  check tbool "recovers once the spike ages out" true v.Obs.Slo.v_healthy

(* ------------------------------------------------------------------ *)
(* Handshake hardening                                                 *)
(* ------------------------------------------------------------------ *)

let test_handshake_validation () =
  let v = P.Client.validate_handshake ~requested:3 in
  (match v "\003" with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "capability 3 must be accepted");
  (match v "\001" with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "downgrade to capability 1 must be accepted");
  (match v "" with
  | Error m -> check tbool "rejection message" true (m = "authentication rejected")
  | Ok _ -> Alcotest.fail "empty reply is a rejection");
  (match v "\009" with
  | Error m ->
      check tbool "capability error is distinct" true
        (m <> "authentication rejected")
  | Ok _ -> Alcotest.fail "capability above requested is malformed");
  match v "ab" with
  | Error m ->
      check tbool "length error is distinct" true (m <> "authentication rejected")
  | Ok _ -> Alcotest.fail "multi-byte reply is malformed"

let test_auth_failure_counted () =
  let p = P.create (make_db ()) in
  (match P.Client.connect ~user:"intruder" ~password:"guess" p with
  | exception P.Client.Client_error m ->
      check tbool "distinct rejection error" true (m = "authentication rejected")
  | _ -> Alcotest.fail "bad credentials must be rejected");
  let reg = (P.obs p).Obs.Ctx.registry in
  check tbool "auth failure counted" true
    (sample_value reg "hq_auth_failures_total" >= 1.0)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
          Alcotest.test_case "histogram: single sample" `Quick
            test_histogram_single_sample;
          Alcotest.test_case "histogram: percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "histogram: overflow bucket" `Quick
            test_histogram_overflow_bucket;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "stage-timer",
        [
          Alcotest.test_case "totals and reset" `Quick
            test_stage_timer_totals_and_reset;
          Alcotest.test_case "monotonic non-negative" `Quick
            test_stage_timer_monotonic_nonnegative;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "span tree over the wire" `Quick
            test_round_trip_span_tree;
          Alcotest.test_case "metrics over the wire" `Quick
            test_round_trip_metrics;
          Alcotest.test_case ".hq.stats over QIPC" `Quick
            test_hq_stats_over_qipc;
          Alcotest.test_case "JSONL events" `Quick test_jsonl_events;
        ] );
      ( "json-floats",
        [
          Alcotest.test_case "event fields" `Quick test_json_floats_events;
          Alcotest.test_case "trace attributes" `Quick
            test_json_floats_trace_attrs;
        ] );
      ( "trace-ids",
        [
          Alcotest.test_case "id generation and traceparent" `Quick
            test_trace_ids;
          Alcotest.test_case "export ring" `Quick test_trace_export_ring;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "windows from snapshot deltas" `Quick
            test_timeseries_windows;
          Alcotest.test_case "ring wrap and reset" `Quick
            test_timeseries_ring_and_reset;
          Alcotest.test_case "percentile-from-deltas math" `Quick
            test_percentile_delta_math;
        ] );
      ( "slo",
        [
          Alcotest.test_case "spec parsing" `Quick test_slo_spec_parsing;
          Alcotest.test_case "burn and recovery" `Quick
            test_slo_burn_and_recovery;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "reply validation" `Quick test_handshake_validation;
          Alcotest.test_case "auth failures counted" `Quick
            test_auth_failure_counted;
        ] );
    ]
