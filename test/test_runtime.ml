(* Runtime & resource observability tests: the GC/heap sampler (delta
   counters, build info, uptime, reset re-basing, heap watermark),
   Prometheus label-value escaping, per-domain utilization of a sharded
   platform, per-query allocation attribution (stable across plan-cache
   miss and hit), flight-recorder alloc deltas, allocation budgets of the
   per-query observability work, and the /runtime.json + .hq.runtime +
   /healthz surfaces. *)

module V = Pgdb.Value
module Db = Pgdb.Db
module S = Catalog.Schema
module Ty = Catalog.Sqltype
module QV = Qvalue.Value
module QA = Qvalue.Atom
module P = Platform.Hyperq_platform
module M = Obs.Metrics
module RT = Obs.Runtime
module H = Obs.Http

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

let contains hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "query failed: %s" e

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
         [|
           V.Int (Int64.of_int i); V.Str sym; V.Float px;
           V.Int (Int64.of_int sz);
         |])
       [ ("A", 10.0, 100); ("B", 20.0, 200); ("A", 11.0, 150) ]);
  db

let make_platform ?(shards = 1) () =
  let recorder = Obs.Recorder.create ~threshold_s:0.0 () in
  let obs = Obs.Ctx.create ~recorder () in
  P.create ~obs ~shards (make_db ())

(* ------------------------------------------------------------------ *)
(* Label-value escaping                                                *)
(* ------------------------------------------------------------------ *)

let test_label_escaping () =
  check tstr "backslash" "a\\\\b" (Obs.Relation.escape_label_value "a\\b");
  check tstr "double quote" "a\\\"b" (Obs.Relation.escape_label_value "a\"b");
  check tstr "newline" "a\\nb" (Obs.Relation.escape_label_value "a\nb");
  check tstr "plain untouched" "plain_value-1.2"
    (Obs.Relation.escape_label_value "plain_value-1.2");
  (* end to end: a hostile label value round-trips through the
     exposition without breaking the quoting *)
  let reg = M.create () in
  let c =
    M.counter reg ~labels:[ ("q", "say \"hi\"\nback\\slash") ] "hq_test_total"
  in
  M.inc c;
  let text = Obs.Relation.to_prometheus (M.exposition reg) in
  check tbool "escaped in exposition" true
    (contains text "q=\"say \\\"hi\\\"\\nback\\\\slash\"");
  check tbool "no raw newline inside value" false
    (contains text "say \"hi\"\nback")

(* ------------------------------------------------------------------ *)
(* The GC/heap sampler                                                 *)
(* ------------------------------------------------------------------ *)

let test_runtime_sampler () =
  let reg = M.create () in
  let rt = RT.create ~interval_s:1000.0 reg in
  (* allocate enough to move the minor counters between samples *)
  let junk = ref [] in
  for i = 0 to 50_000 do junk := (i, float_of_int i) :: !junk done;
  ignore (Sys.opaque_identity !junk);
  RT.sample rt;
  let stats = RT.stats rt in
  let v n = try List.assoc n stats with Not_found -> -1.0 in
  check tbool "allocation counted" true (v "gc_allocated_bytes_total" > 0.0);
  check tbool "heap gauge set" true (v "heap_bytes" > 0.0);
  check tbool "uptime advances" true (v "uptime_seconds" >= 0.0);
  (* stats itself samples, so the count is >= the explicit call *)
  check tbool "samples counted" true (RT.samples_total rt >= 1);
  (* counters are monotone across further samples *)
  let a1 = v "gc_allocated_bytes_total" in
  let junk2 = ref [] in
  for i = 0 to 10_000 do junk2 := string_of_int i :: !junk2 done;
  ignore (Sys.opaque_identity !junk2);
  RT.sample rt;
  let a2 = try List.assoc "gc_allocated_bytes_total" (RT.stats rt) with Not_found -> -1.0 in
  check tbool "allocation counter monotone" true (a2 >= a1);
  (* build info and uptime land in the registry exposition *)
  let text = Obs.Relation.to_prometheus (M.exposition reg) in
  check tbool "build info gauge" true
    (contains text ("hq_build_info{version=\"" ^ RT.version ^ "\""));
  check tbool "uptime metric" true (contains text "hq_process_uptime_seconds");
  check tbool "gc counters exported" true
    (contains text "hq_gc_minor_collections_total");
  (* reset re-bases: counters and sample count restart from zero *)
  M.reset_all reg;
  RT.reset rt;
  check tint "samples zeroed" 0 (RT.samples_total rt);
  RT.sample rt;
  let a3 = try List.assoc "gc_allocated_bytes_total" (RT.stats rt) with Not_found -> -1.0 in
  check tbool "post-reset counts only post-reset allocation" true
    (a3 >= 0.0 && a3 < a2)

(* 5,000 boxed int64s are 15,000 words, three each *)
let test_allocated_bytes_exact () =
  let cells = Array.make 5_000 0L in
  let a0 = RT.allocated_bytes () in
  for i = 0 to 4_999 do
    cells.(i) <- Sys.opaque_identity (Int64.of_int i)
  done;
  let bytes = RT.allocated_bytes () -. a0 in
  let words = bytes /. float_of_int (Sys.word_size / 8) in
  ignore (Sys.opaque_identity cells);
  check tbool
    (Printf.sprintf "at least 15,000 words seen (%.0f)" words)
    true (words >= 15_000.0)

let test_heap_watermark () =
  let reg = M.create () in
  let rt = RT.create reg in
  check tbool "no watermark, no alarm" false (RT.heap_alarm rt);
  RT.set_heap_watermark rt (Some 1.0);
  check tbool "tiny watermark alarms" true (RT.heap_alarm rt);
  RT.set_heap_watermark rt (Some 1e12);
  check tbool "huge watermark clears" false (RT.heap_alarm rt);
  RT.set_heap_watermark rt None;
  check tbool "cleared watermark clears" false (RT.heap_alarm rt)

(* ------------------------------------------------------------------ *)
(* Per-domain utilization on a sharded platform                        *)
(* ------------------------------------------------------------------ *)

let test_per_domain_utilization () =
  let p = make_platform ~shards:2 () in
  let c = P.Client.connect p in
  for _ = 1 to 10 do
    ignore (ok (P.Client.query c "select mx:max Price by Symbol from trades"))
  done;
  Option.iter Shard.Cluster.refresh_saturation (P.cluster p);
  let metric_total sub =
    List.fold_left
      (fun acc s ->
        if contains s.M.s_name sub then acc +. s.M.s_value else acc)
      0.0
      (M.snapshot (P.obs p).Obs.Ctx.registry)
  in
  let busy1 = metric_total "hq_domain_busy_seconds" in
  let jobs1 = metric_total "hq_domain_jobs_total" in
  let alloc1 = metric_total "hq_shard_alloc_bytes" in
  check tbool "domains did work" true (busy1 > 0.0);
  check tbool "jobs counted" true (jobs1 > 0.0);
  check tbool "shard dispatch allocation counted" true (alloc1 > 0.0);
  (* counters are monotone: more traffic can only grow them *)
  for _ = 1 to 10 do
    ignore (ok (P.Client.query c "select mx:max Price by Symbol from trades"))
  done;
  Option.iter Shard.Cluster.refresh_saturation (P.cluster p);
  check tbool "busy monotone" true
    (metric_total "hq_domain_busy_seconds" >= busy1);
  check tbool "jobs monotone" true
    (metric_total "hq_domain_jobs_total" >= jobs1);
  check tbool "alloc monotone" true
    (metric_total "hq_shard_alloc_bytes" >= alloc1);
  (* idle + busy is bounded by pool uptime per domain (gauge sanity) *)
  let idle = metric_total "hq_domain_idle_seconds" in
  check tbool "idle non-negative" true (idle >= 0.0);
  P.Client.close c;
  P.shutdown p

(* ------------------------------------------------------------------ *)
(* Per-query allocation attribution                                    *)
(* ------------------------------------------------------------------ *)

let test_alloc_attribution_cache_hit_miss () =
  let p = make_platform () in
  let c = P.Client.connect p in
  let qs = (P.obs p).Obs.Ctx.qstats in
  let q = "select sum Size by Symbol from trades" in
  let fp = (Qlang.Fingerprint.analyze q).Qlang.Fingerprint.a_fingerprint in
  (* cold: plan-cache miss, full translate *)
  ignore (ok (P.Client.query c q));
  let e1 = Option.get (Obs.Qstats.find qs fp) in
  let alloc1 = e1.Obs.Qstats.e_alloc_bytes in
  check tbool "miss records allocation" true (alloc1 > 0.0);
  (* warm: plan-cache hit skips translation but attribution still runs *)
  ignore (ok (P.Client.query c q));
  let e2 = Option.get (Obs.Qstats.find qs fp) in
  check tint "two calls" 2 e2.Obs.Qstats.e_calls;
  check tbool "hit also records allocation" true
    (e2.Obs.Qstats.e_alloc_bytes > alloc1);
  (* .hq.top's allocation columns surface the fingerprint's totals *)
  (match ok (P.Client.query c ".hq.top") with
  | QV.Table tb ->
      let col name i = QV.index (QV.column_exn tb name) i in
      let row =
        List.find
          (fun i -> col "fingerprint" i = QV.Atom (QA.Sym fp))
          (List.init (QV.table_length tb) Fun.id)
      in
      let float_at name =
        match col name row with
        | QV.Atom (QA.Float f) -> f
        | v -> Alcotest.failf "%s: %s" name (Qvalue.Qprint.to_string v)
      in
      check tbool "alloc_bytes column is the total" true
        (float_at "alloc_bytes" = e2.Obs.Qstats.e_alloc_bytes);
      check tbool "alloc_bytes_avg positive" true
        (float_at "alloc_bytes_avg" > 0.0)
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
  (* and the flight recorder (threshold 0 captures all) carries the
     per-query deltas, so .hq.slow can tell GC victims apart *)
  let recs = Obs.Recorder.recent (P.obs p).Obs.Ctx.recorder 10 in
  check tbool "recorder captured" true (recs <> []);
  check tbool "records carry alloc bytes" true
    (List.for_all (fun r -> r.Obs.Recorder.q.Obs.Query.alloc_bytes > 0.0) recs);
  check tbool "jsonl carries alloc" true
    (contains
       (Obs.Relation.to_jsonl (Obs.Recorder.relation (P.obs p).Obs.Ctx.recorder))
       "\"alloc_bytes\":");
  P.Client.close c;
  P.shutdown p

(* ------------------------------------------------------------------ *)
(* Surfaces: /runtime.json, .hq.runtime, /healthz, reset               *)
(* ------------------------------------------------------------------ *)

let test_runtime_surfaces () =
  let p = make_platform () in
  let c = P.Client.connect p in
  ignore (ok (P.Client.query c "select Price from trades"));
  let get path =
    H.handle (P.admin_handler p)
      (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path)
  in
  (* /runtime.json serves current telemetry with build identity *)
  let rj = get "/runtime.json" in
  check tbool "runtime.json 200" true (contains rj "HTTP/1.1 200");
  check tbool "runtime.json version" true
    (contains rj ("\"version\":\"" ^ RT.version ^ "\""));
  check tbool "runtime.json gc counters" true
    (contains rj "{\"stat\":\"gc_allocated_bytes_total\",\"value\":");
  check tbool "runtime.json uptime" true
    (contains rj "{\"stat\":\"uptime_seconds\",\"value\":");
  (* wrong method gets a 405 with Allow *)
  let post =
    H.handle (P.admin_handler p) "POST /runtime.json HTTP/1.1\r\nHost: t\r\n\r\n"
  in
  check tbool "405 on POST" true (contains post "HTTP/1.1 405");
  (* /healthz reports uptime and stays ok *)
  let hz = get "/healthz" in
  check tbool "healthz 200" true (contains hz "HTTP/1.1 200");
  check tbool "healthz ok" true (contains hz "ok");
  check tbool "healthz uptime" true (contains hz "uptime_s=");
  (* heap watermark degrades /healthz to 503, clearing restores it *)
  let rt = (P.obs p).Obs.Ctx.runtime in
  RT.set_heap_watermark rt (Some 1.0);
  let hz503 = get "/healthz" in
  check tbool "healthz degrades above watermark" true
    (contains hz503 "HTTP/1.1 503");
  check tbool "healthz names the heap" true
    (contains hz503 "heap above watermark");
  RT.set_heap_watermark rt None;
  check tbool "healthz recovers" true (contains (get "/healthz") "HTTP/1.1 200");
  (* .hq.runtime answers in-band as a key/value table *)
  (match ok (P.Client.query c ".hq.runtime") with
  | QV.Table tb ->
      let stat_col = QV.column_exn tb "stat" in
      let found = ref false in
      for i = 0 to QV.length stat_col - 1 do
        match QV.index stat_col i with
        | QV.Atom (QA.Sym "gc_allocated_bytes_total") -> found := true
        | _ -> ()
      done;
      check tbool ".hq.runtime has gc counters" true !found
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
  (* .hq.stats gains uptime via the mirrored gauge refresh *)
  let stats = get "/metrics" in
  check tbool "metrics exports uptime" true
    (contains stats "hq_process_uptime_seconds");
  (* reset clears runtime counters atomically with the registry *)
  RT.sample rt;
  check tbool "samples before reset" true (RT.samples_total rt >= 1);
  ignore (ok (P.Client.query c ".hq.stats.reset"));
  check tint "runtime samples reset" 0 (RT.samples_total rt);
  let post_reset =
    H.handle (P.admin_handler p) "POST /reset HTTP/1.1\r\nHost: t\r\n\r\n"
  in
  check tbool "POST /reset ok" true (contains post_reset "HTTP/1.1 200");
  check tint "runtime samples reset again" 0 (RT.samples_total rt);
  P.Client.close c;
  P.shutdown p

(* ------------------------------------------------------------------ *)
(* Timeseries windows derive GC rates                                  *)
(* ------------------------------------------------------------------ *)

let test_timeseries_gc_windows () =
  let p = make_platform () in
  let c = P.Client.connect p in
  let obs = P.obs p in
  Obs.Timeseries.set_interval obs.Obs.Ctx.timeseries 0.0;
  (* each query's in-band tick snapshots; the platform hook samples the
     runtime first, so windows see hq_gc_* counter movement *)
  for _ = 1 to 5 do
    ignore (ok (P.Client.query c "select sum Size by Symbol from trades"))
  done;
  let ws = Obs.Timeseries.windows obs.Obs.Ctx.timeseries in
  check tbool "windows exist" true (ws <> []);
  check tbool "some window saw allocation" true
    (List.exists (fun w -> w.Obs.Timeseries.w_alloc_bytes > 0) ws);
  check tbool "alloc rate derived" true
    (List.exists (fun w -> w.Obs.Timeseries.w_alloc_bps > 0.0) ws);
  check tbool "windows render alloc json" true
    (contains
       (Obs.Relation.to_json ~rows_key:"windows"
          (Obs.Timeseries.relation obs.Obs.Ctx.timeseries))
       "\"alloc_bytes\":");
  P.Client.close c;
  P.shutdown p

(* the endpoint's per-query minor-GC counter reads what Gc.quick_stat
   reports *)
let test_minor_collections_counter () =
  let q () = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.minor ();
  check tint "agrees with Gc.quick_stat" (q ()) (RT.minor_collections ());
  let before = RT.minor_collections () in
  Gc.minor ();
  Gc.minor ();
  check tint "counts collections" (before + 2) (RT.minor_collections ());
  check tint "still agrees" (q ()) (RT.minor_collections ())

(* ------------------------------------------------------------------ *)
(* Allocation budgets of the per-query observability work              *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words one call of [f] allocates, averaged over [iters]
   calls after [iters] warm-up calls (which fill every ring to its
   steady state). [Gc.minor_words] is domain-local and exact, so the
   figure does not depend on machine speed or load. Each budget sits a
   few words above the figure measured on OCaml 5.1 (376, 315.8 and 184
   words), so a regression the size of one [Gc.quick_stat] pair (48
   words) fails. *)
let words_per_call ?(iters = 2_000) (f : int -> unit) : float =
  for i = 1 to iters do f i done;
  let w0 = Gc.minor_words () in
  for i = 1 to iters do f i done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let check_budget name ~budget words =
  Printf.printf "%s: %.1f words per query (budget %d)\n" name words budget;
  if words > float_of_int budget then
    Alcotest.failf "%s allocates %.1f words per query, budget %d" name words
      budget

(* the correlation plane one query pays: trace id, session registry
   churn, traceparent decoration, export-ring offer, one log line *)
let test_correlation_budget () =
  let session = Obs.Sessions.register ~user:"budget" (Obs.Sessions.create ()) in
  let export = Obs.Export.create () in
  let log = Obs.Log.create ~sink:(Obs.Events.create ()) (M.create ()) in
  let sql = "SELECT \"Price\" FROM trades WHERE \"Symbol\" = 'S000'" in
  let cycle _ =
    let tr = Obs.Trace.start "query" in
    let trace_id = Obs.Trace.trace_id tr in
    Obs.Sessions.query_started session ~query:sql ~fingerprint:"fp";
    Obs.Sessions.set_trace session trace_id;
    let decorated =
      sql ^ " /* traceparent='"
      ^ Obs.Trace.traceparent ~trace_id
          ~span_id:(Obs.Trace.span_id (Obs.Trace.current tr))
      ^ "' */"
    in
    ignore (Sys.opaque_identity decorated);
    Obs.Trace.with_span tr "execute" (fun () -> ());
    let root = Obs.Trace.finish tr in
    Obs.Sessions.query_finished session;
    Obs.Export.offer export ~ts:(Unix.gettimeofday ()) ~trace_id root;
    Obs.Log.info log ~trace_id "query completed"
      [ ("duration_ms", Obs.Relation.Float 0.1) ]
  in
  check_budget "correlation cycle" ~budget:392 (words_per_call cycle)

(* what a 2-shard scatter adds: a child span, attach handle and
   traceparent per shard, the gather span, the latency observation, a
   time-series tick (a clock read between snapshots) and an SLO
   evaluation every 100 queries *)
let test_cluster_obs_budget () =
  let reg = M.create () in
  let h = M.histogram reg "hq_query_seconds" in
  let ts = Obs.Timeseries.create ~interval_s:3600.0 reg in
  let slo =
    match Obs.Slo.parse_spec "p99<1s,err<5%,fast=1s,slow=5s" with
    | Ok config -> Obs.Slo.create ~config ts
    | Error e -> Alcotest.fail e
  in
  let cycle i =
    let tr = Obs.Trace.start "query" in
    let trace_id = Obs.Trace.trace_id tr in
    for k = 0 to 1 do
      let sp = Obs.Trace.open_child tr "shard_exec" in
      Obs.Trace.set_span_attr sp "shard" (Obs.Relation.Int k);
      let handle = Obs.Trace.attach ~trace_id sp in
      let comment =
        " /* traceparent='"
        ^ Obs.Trace.traceparent ~trace_id
            ~span_id:(Obs.Trace.span_id (Obs.Trace.current handle))
        ^ "' */"
      in
      ignore (Sys.opaque_identity comment);
      Obs.Trace.close_span (Obs.Trace.current handle)
    done;
    Obs.Trace.with_span tr "gather" (fun () -> ());
    ignore (Obs.Trace.finish tr);
    M.observe h 0.0001;
    ignore (Obs.Timeseries.tick ts);
    if i mod 100 = 0 then ignore (Obs.Slo.evaluate slo)
  in
  check_budget "cluster-observability cycle" ~budget:330
    (words_per_call cycle)

(* the allocation attribution the endpoint and the engine read per
   query: one minor-collection pair per query plus one
   [RT.allocated_bytes] pair per query and per pipeline stage (6 on a
   plan-cache miss) *)
let test_attribution_budget () =
  let sink = ref 0.0 in
  let reads _ =
    let g0 = RT.minor_collections () in
    for _ = 0 to 6 do
      let a0 = RT.allocated_bytes () in
      let a1 = RT.allocated_bytes () in
      sink := !sink +. (a1 -. a0)
    done;
    let g1 = RT.minor_collections () in
    sink := !sink +. float_of_int (g1 - g0)
  in
  check_budget "attribution reads" ~budget:192 (words_per_call reads);
  ignore (Sys.opaque_identity !sink)

(* one completed query's record handed to every per-query plane, with
   the server default's writer-less event sink: the fingerprint-store
   fold, the recorder's threshold check, the "query completed" log line
   (rendered for the log tail) and a time-series tick between snapshots;
   the JSONL event is not rendered. Measured on OCaml 5.1: 355 words. *)
let test_record_fanout_budget () =
  let registry = M.create () in
  let timeseries = Obs.Timeseries.create ~interval_s:3600.0 registry in
  let obs = Obs.Ctx.create ~registry ~timeseries () in
  let root = Obs.Trace.finish (Obs.Trace.start "query") in
  let q =
    {
      Obs.Query.ts = Unix.gettimeofday ();
      trace_id = Obs.Trace.gen_trace_id ();
      fingerprint = "fp";
      query = "select Price from trades where Symbol = `?";
      query_sha = Obs.Events.query_sha "select Price from trades";
      query_bytes = 24;
      duration_s = 0.0001;
      error = None;
      rows_out = 3;
      bytes_in = 37;
      bytes_out = 162;
      alloc_bytes = 4096.0;
      minor_gcs = 0;
      stages =
        Obs.Trace.totals root
          (List.map Hyperq.Stage_timer.stage_name Hyperq.Stage_timer.all_stages);
      sql = [ "SELECT \"Price\" FROM trades" ];
      sql_statements = 1;
      span = root;
      analysis = None;
    }
  in
  let fan_out _ = Obs.Ctx.record_query obs ~conn_id:1 q in
  check_budget "query record fan-out" ~budget:368 (words_per_call fan_out)

let () =
  Alcotest.run "runtime"
    [
      ( "metrics",
        [
          Alcotest.test_case "label-value escaping" `Quick test_label_escaping;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "gc/heap deltas and reset" `Quick
            test_runtime_sampler;
          Alcotest.test_case "heap watermark" `Quick test_heap_watermark;
          Alcotest.test_case "minor-collection counter" `Quick
            test_minor_collections_counter;
          Alcotest.test_case "allocated bytes are exact" `Quick
            test_allocated_bytes_exact;
        ] );
      ( "domains",
        [
          Alcotest.test_case "per-domain utilization (sharded)" `Quick
            test_per_domain_utilization;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "plan-cache miss and hit both attribute" `Quick
            test_alloc_attribution_cache_hit_miss;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "correlation cycle" `Quick test_correlation_budget;
          Alcotest.test_case "cluster-observability cycle" `Quick
            test_cluster_obs_budget;
          Alcotest.test_case "attribution reads" `Quick test_attribution_budget;
          Alcotest.test_case "query record fan-out" `Quick
            test_record_fanout_budget;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "/runtime.json, .hq.runtime, healthz, reset"
            `Quick test_runtime_surfaces;
          Alcotest.test_case "timeseries gc windows" `Quick
            test_timeseries_gc_windows;
        ] );
    ]
