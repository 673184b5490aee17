(* Workload introspection plane tests: query fingerprint normalization,
   the LRU fingerprint statistics store, the slow-query flight recorder
   (trace-id stamped), the hand-rolled HTTP admin endpoint (hardened:
   414, Allow on 405, Content-Length everywhere), the in-band
   .hq.top / .hq.slow / .hq.stats.reset admin queries over a scripted
   workload, and every registered plane on both surfaces (same columns,
   same rows) with the allocation-free admin check. *)

module F = Qlang.Fingerprint
module M = Obs.Metrics
module QS = Obs.Qstats
module R = Obs.Recorder
module H = Obs.Http
module Tr = Obs.Trace
module QV = Qvalue.Value
module QA = Qvalue.Atom
module V = Pgdb.Value
module Db = Pgdb.Db
module S = Catalog.Schema
module Ty = Catalog.Sqltype
module P = Platform.Hyperq_platform

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

(* ------------------------------------------------------------------ *)
(* Fingerprint normalization                                           *)
(* ------------------------------------------------------------------ *)

let same a b =
  check tstr
    (Printf.sprintf "fingerprint(%s) = fingerprint(%s)" a b)
    (F.analyze a).F.a_fingerprint (F.analyze b).F.a_fingerprint

let differ a b =
  check tbool
    (Printf.sprintf "fingerprint(%s) <> fingerprint(%s)" a b)
    true
    ((F.analyze a).F.a_fingerprint <> (F.analyze b).F.a_fingerprint)

let test_fp_numeric_literals () =
  same "select Price from trades where Size>100"
    "select Price from trades where Size>999";
  same "x+1" "x+2.5";
  (* juxtaposed vector literals collapse to one placeholder *)
  same "sum 1 2 3" "sum 4 5";
  same "f[1;2;3]" "f[9;8;7]"

let test_fp_string_and_symbol_literals () =
  same "g \"abc\"" "g \"something much longer\"";
  same "select from trades where Symbol=`AAA"
    "select from trades where Symbol=`ZZZ";
  (* symbol vectors normalize like single symbols *)
  same "aj[`Symbol`Time; trades; quotes]" "aj[`Sym2`T2; trades; quotes]"
    |> ignore;
  (* but those two differ in nothing else, so they must share *)
  same "f `a`b`c" "f `x"

let test_fp_whitespace_and_comments () =
  same "select   Price    from trades" "select Price from trades";
  same "select Price from trades / trailing comment"
    "select Price from trades";
  same "select Price from trades\n" "select Price from trades";
  same "select Price from trades;" "select Price from trades"

let test_fp_lambda_bodies () =
  same "f:{x+1}" "f:{x+42}";
  same "{[a;b] a+b*2}" "{[a;b] a+b*7}";
  differ "f:{x+1}" "f:{x-1}"

let test_fp_shapes_differ () =
  differ "select Price from trades" "select Size from trades";
  differ "a+1" "a-1";
  differ "select Price from trades" "select Price from quotes";
  differ "sum x" "avg x"

let test_fp_lexer_fallback () =
  (* bytes the lexer rejects still fingerprint stably (via collapsed
     raw text) instead of raising *)
  let junk = "select \xc3\xa9 from trades \"unterminated" in
  check tstr "fallback is deterministic" (F.analyze junk).F.a_fingerprint
    (F.analyze junk).F.a_fingerprint;
  check tbool "fallback collapses whitespace" true
    ((F.analyze "a   @@\x01  b").F.a_fingerprint
    = (F.analyze "a @@\x01 b").F.a_fingerprint)

let test_fp_normalized_text () =
  check tstr "literals stripped" "select Price from trades where Size > ?"
    (F.analyze "select Price from trades where Size>100").F.a_norm;
  check tstr "symbols stripped" "f `?" (F.analyze "f `abc`def").F.a_norm;
  check tstr "strings stripped" "g ?" (F.analyze "g \"hello\"").F.a_norm

(* ------------------------------------------------------------------ *)
(* Fingerprint statistics store                                        *)
(* ------------------------------------------------------------------ *)

let span_of name =
  let tr = Tr.start name in
  Tr.finish tr

(* one completed query's record, as the endpoint would build it *)
let query ?(ts = 0.0) ?(trace_id = "") ?(fp = "fp") ?(query = "q")
    ?(dur = 0.01) ?error ?(rows = 1) ?(sql = []) () : Obs.Query.t =
  {
    Obs.Query.ts;
    trace_id;
    fingerprint = fp;
    query;
    query_sha = "";
    query_bytes = String.length query;
    duration_s = dur;
    error = Option.map Obs.Query.categorise error;
    rows_out = rows;
    bytes_in = 10;
    bytes_out = 20;
    alloc_bytes = 0.0;
    minor_gcs = 0;
    stages = [ ("parse", 0.001); ("execute", 0.005) ];
    sql;
    sql_statements = List.length sql;
    span = span_of "query";
    analysis = None;
  }

let record ?(fp = "fp") ?(dur = 0.01) ?(err = None) ?(rows = 1) qs =
  QS.record qs
    (query ~fp ~query:("q-" ^ fp) ~dur
       ?error:(Option.map (fun c -> "[" ^ c ^ "] failed") err)
       ~rows ())

let test_qstats_accumulation () =
  let qs = QS.create () in
  record qs ~fp:"a" ~dur:0.01;
  record qs ~fp:"a" ~dur:0.03 ~err:(Some "binder");
  record qs ~fp:"b" ~dur:0.002;
  check tint "two fingerprints" 2 (QS.size qs);
  let a = Option.get (QS.find qs "a") in
  check tint "calls" 2 a.QS.e_calls;
  check tint "errors" 1 a.QS.e_errors;
  check tint "error class counted" 1 (List.assoc "binder" a.QS.e_error_classes);
  check tbool "total accumulates" true
    (Float.abs (QS.total_s a -. 0.04) < 1e-9);
  check tbool "stage sums accumulate" true
    (Float.abs (List.assoc "parse" a.QS.e_stages -. 0.002) < 1e-9);
  check tint "rows accumulate" 2 a.QS.e_rows_out;
  check tint "bytes accumulate" 20 a.QS.e_bytes_in;
  (* top is sorted by total time *)
  match QS.top qs 10 with
  | [ first; second ] ->
      check tstr "heaviest first" "a" first.QS.e_fingerprint;
      check tstr "lightest second" "b" second.QS.e_fingerprint
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

let test_qstats_lru_eviction () =
  let qs = QS.create ~capacity:4 () in
  List.iter (fun fp -> record qs ~fp) [ "a"; "b"; "c"; "d" ];
  (* touch "a" so it is the most recently used *)
  record qs ~fp:"a";
  record qs ~fp:"e";
  (* capacity respected; "b" (least recently used) evicted *)
  check tint "size bounded" 4 (QS.size qs);
  check tint "one eviction" 1 (QS.evictions qs);
  check tbool "MRU survives" true (QS.find qs "a" <> None);
  check tbool "LRU evicted" true (QS.find qs "b" = None);
  (* hammering new fingerprints never exceeds capacity *)
  for i = 0 to 999 do
    record qs ~fp:(Printf.sprintf "fp%d" i)
  done;
  check tbool "still bounded" true (QS.size qs <= QS.capacity qs)

let test_qstats_percentile_and_reset () =
  let qs = QS.create () in
  for _ = 1 to 99 do
    record qs ~fp:"x" ~dur:0.0001 (* 100us *)
  done;
  record qs ~fp:"x" ~dur:0.5;
  let e = Option.get (QS.find qs "x") in
  let p50 = Obs.Metrics.percentile e.QS.e_hist 50.0 in
  let p99 = Obs.Metrics.percentile e.QS.e_hist 99.5 in
  check tbool "p50 near 100us (within 2x bucket)" true
    (p50 >= 0.0001 && p50 <= 0.0003);
  check tbool "tail hits the slow outlier" true (p99 >= 0.25);
  check tbool "avg between" true
    (QS.entry_avg_s e > 0.0001 && QS.entry_avg_s e < 0.5);
  QS.reset qs;
  check tint "reset empties" 0 (QS.size qs)

let test_qstats_prometheus_and_json () =
  let qs = QS.create () in
  record qs ~fp:"abc123";
  let prom = Obs.Relation.to_prometheus (QS.exposition ~k:5 qs) in
  check tbool "calls series" true
    (contains prom "hq_fingerprint_calls_total{fingerprint=\"abc123\"} 1");
  check tbool "seconds series" true
    (contains prom "hq_fingerprint_seconds_total{fingerprint=\"abc123\"}");
  check tbool "type comment" true
    (contains prom "# TYPE hq_fingerprint_calls_total counter");
  let j = Obs.Relation.rows_json (QS.relation qs) in
  check tbool "json has fingerprint" true (contains j "\"fingerprint\":\"abc123\"");
  check tbool "json has stages" true (contains j "\"stages_ms\"");
  check tbool "empty store renders empty exposition" true
    (Obs.Relation.to_prometheus (QS.exposition (QS.create ())) = "")

(* ------------------------------------------------------------------ *)
(* Slow-query flight recorder                                          *)
(* ------------------------------------------------------------------ *)

let observe ?(dur = 1.0) r i =
  R.observe r (query ~ts:(float_of_int i) ~dur ~sql:[ "SELECT 1" ] ())

let test_recorder_threshold_and_bound () =
  let r = R.create ~capacity:8 ~threshold_s:0.1 () in
  check tbool "fast query not captured" false (observe r 1 ~dur:0.001);
  check tbool "slow query captured" true (observe r 2 ~dur:0.2);
  check tint "one record" 1 (R.size r);
  (* a 10k-query burst never grows the ring past its capacity *)
  for i = 0 to 9_999 do
    ignore (observe r i ~dur:1.0)
  done;
  check tint "ring bounded at capacity" 8 (R.size r);
  check tint "all slow queries counted" 10_001 (R.captured_slow r);
  (* newest first, newest survive the wraparound *)
  (match R.recent r 3 with
  | a :: b :: _ ->
      check tbool "newest first" true (a.R.q.ts >= b.R.q.ts);
      check tbool "newest retained" true (a.R.q.ts = 9999.0)
  | _ -> Alcotest.fail "expected records");
  R.reset r;
  check tint "reset empties ring" 0 (R.size r)

let test_recorder_tail_sampling () =
  let r = R.create ~capacity:100 ~threshold_s:10.0 ~sample_every:10 () in
  let captured = ref 0 in
  for i = 1 to 100 do
    if observe r i ~dur:0.001 then incr captured
  done;
  check tint "1-in-10 fast queries sampled" 10 !captured;
  check tint "sampled counter" 10 (R.captured_sampled r);
  check tint "no slow captures" 0 (R.captured_slow r);
  match R.recent r 1 with
  | [ rec_ ] -> check tstr "kind is sample" "sample" rec_.R.kind
  | _ -> Alcotest.fail "expected one record"

let test_recorder_jsonl () =
  let r = R.create ~capacity:4 ~threshold_s:0.0 () in
  ignore
    (R.observe r
       (query ~ts:1.5 ~trace_id:"0123456789abcdef0123456789abcdef"
          ~fp:"deadbeef" ~query:"select ? from t" ~dur:0.25
          ~error:"[binder] nope"
          ~sql:[ "SELECT a FROM t"; "DROP TABLE tmp" ]
          ()));
  let jl = Obs.Relation.to_jsonl (R.relation r) in
  check tbool "fingerprint in jsonl" true (contains jl "\"fingerprint\":\"deadbeef\"");
  (* trace_id round-trips through the record and its JSONL rendering *)
  (match R.recent r 1 with
  | [ rec_ ] ->
      check tstr "trace_id stored" "0123456789abcdef0123456789abcdef"
        rec_.R.q.trace_id
  | _ -> Alcotest.fail "expected one record");
  check tbool "trace_id in jsonl" true
    (contains jl "\"trace_id\":\"0123456789abcdef0123456789abcdef\"");
  (* omitted trace_id renders as empty, still valid JSON *)
  ignore (R.observe r (query ~ts:2.0 ~fp:"f2" ~query:"q2" ~dur:0.1 ()));
  (match R.recent r 1 with
  | [ rec_ ] -> check tstr "default trace_id empty" "" rec_.R.q.trace_id
  | _ -> Alcotest.fail "expected one record");
  check tbool "sql array" true (contains jl "\"SELECT a FROM t\",\"DROP TABLE tmp\"");
  check tbool "error escaped in" true (contains jl "[binder] nope");
  check tbool "trace tree embedded" true (contains jl "\"trace\":{\"name\":\"query\"");
  check tbool "one line per record" true
    (String.length jl > 0 && jl.[String.length jl - 1] = '\n')

(* ------------------------------------------------------------------ *)
(* HTTP request parsing / rendering                                    *)
(* ------------------------------------------------------------------ *)

let test_http_parse () =
  (match H.parse_request "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" with
  | Ok req ->
      check tstr "method" "GET" req.H.meth;
      check tstr "path" "/metrics" req.H.path;
      check tstr "host header" "x" (List.assoc "host" req.H.headers)
  | Error _ -> Alcotest.fail "well-formed request must parse");
  (match H.parse_request "GET /stats.json?limit=5 HTTP/1.1\r\n\r\n" with
  | Ok req ->
      check tstr "query split off path" "/stats.json" req.H.path;
      check tstr "query string kept" "limit=5" req.H.query
  | Error _ -> Alcotest.fail "query-string request must parse");
  (match
     H.parse_request
       "POST /reset HTTP/1.1\r\nContent-Length: 4\r\n\r\nwipe"
   with
  | Ok req -> check tstr "body read to content-length" "wipe" req.H.body
  | Error _ -> Alcotest.fail "POST with body must parse");
  (match H.parse_request "GET /metrics HTTP/1.1\r\nHost: x\r\n" with
  | Error `Incomplete -> ()
  | _ -> Alcotest.fail "unterminated headers are incomplete");
  (match H.parse_request "POST /r HTTP/1.1\r\nContent-Length: 10\r\n\r\nab" with
  | Error `Incomplete -> ()
  | _ -> Alcotest.fail "short body is incomplete");
  match H.parse_request "NONSENSE\r\n\r\n" with
  | Error (`Malformed _) -> ()
  | _ -> Alcotest.fail "bad request line is malformed"

let test_http_render_and_handle () =
  let handler req =
    match req.H.path with
    | "/boom" -> failwith "kaboom"
    | p -> H.text 200 ("you asked for " ^ p ^ "\n")
  in
  let resp = H.handle handler "GET /hello HTTP/1.1\r\n\r\n" in
  check tbool "status line" true (contains resp "HTTP/1.1 200 OK");
  check tbool "content-length present" true (contains resp "Content-Length: 21");
  check tbool "body present" true (contains resp "you asked for /hello");
  check tbool "connection close" true (contains resp "Connection: close");
  let bad = H.handle handler "garbage" in
  check tbool "malformed -> 400" true (contains bad "HTTP/1.1 400");
  let boom = H.handle handler "GET /boom HTTP/1.1\r\n\r\n" in
  check tbool "raising handler -> 500" true (contains boom "HTTP/1.1 500")

let test_http_hardening () =
  let handler _ = H.text 200 "ok\n" in
  (* an oversized request line is rejected before parsing *)
  let long_path = String.make (H.max_request_line + 10) 'a' in
  let resp =
    H.handle handler (Printf.sprintf "GET /%s HTTP/1.1\r\n\r\n" long_path)
  in
  check tbool "oversized request line -> 414" true
    (contains resp "HTTP/1.1 414 URI Too Long");
  check tbool "414 carries content-length" true (contains resp "Content-Length:");
  (* long-but-legal headers are fine; only the request line is capped *)
  let ok_resp =
    H.handle handler
      (Printf.sprintf "GET /x HTTP/1.1\r\nX-Pad: %s\r\n\r\n"
         (String.make (H.max_request_line + 10) 'b'))
  in
  check tbool "long header still 200" true (contains ok_resp "HTTP/1.1 200");
  (* extra headers render between the fixed ones *)
  let rendered =
    H.render_response
      (H.text ~headers:[ ("Allow", "GET, POST") ] 405 "no\n")
  in
  check tbool "extra header rendered" true (contains rendered "Allow: GET, POST\r\n");
  check tbool "status rendered" true (contains rendered "HTTP/1.1 405 Method Not Allowed");
  check tbool "content-length on 405" true (contains rendered "Content-Length: 3")

(* ------------------------------------------------------------------ *)
(* End to end: scripted workload over QIPC + admin plane               *)
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

(* platform whose recorder captures everything (threshold 0) *)
let make_platform () =
  let recorder = R.create ~threshold_s:0.0 () in
  let obs = Obs.Ctx.create ~recorder () in
  P.create ~obs (make_db ())

let column_syms tb name =
  let col = QV.column_exn tb name in
  Array.init (QV.length col) (fun i ->
      match QV.index col i with
      | QV.Atom (QA.Sym s) -> s
      | v -> Alcotest.failf "expected sym, got %s" (Qvalue.Qprint.to_string v))

let column_longs tb name =
  let col = QV.column_exn tb name in
  Array.init (QV.length col) (fun i ->
      match QV.index col i with
      | QV.Atom (QA.Long n) -> Int64.to_int n
      | v -> Alcotest.failf "expected long, got %s" (Qvalue.Qprint.to_string v))

let test_hq_top_scripted_workload () =
  let p = make_platform () in
  let c = P.Client.connect p in
  (* shape 1: five calls across two literal variants (same fingerprint) *)
  for _ = 1 to 3 do
    ignore (ok (P.Client.query c "select Price from trades where Symbol=`A"))
  done;
  for _ = 1 to 2 do
    ignore (ok (P.Client.query c "select Price from trades where Symbol=`B"))
  done;
  (* shape 2: one call *)
  ignore (ok (P.Client.query c "select Size from trades"));
  let v = ok (P.Client.query c ".hq.top[5]") in
  match v with
  | QV.Table tb ->
      check tint "two fingerprints" 2 (QV.table_length tb);
      let fps = column_syms tb "fingerprint" in
      let queries = column_syms tb "query" in
      let calls = column_longs tb "calls" in
      let errors = column_longs tb "errors" in
      (* find the row for each shape by its normalized text *)
      let idx_of q =
        let rec go i =
          if i >= Array.length queries then
            Alcotest.failf "shape %s not in .hq.top" q
          else if queries.(i) = q then i
          else go (i + 1)
        in
        go 0
      in
      let shape1 = idx_of "select Price from trades where Symbol = `?" in
      let shape2 = idx_of "select Size from trades" in
      check tint "shape 1 counted exactly" 5 calls.(shape1);
      check tint "shape 2 counted exactly" 1 calls.(shape2);
      check tint "no errors" 0 errors.(shape1);
      check tstr "fingerprint matches the fingerprinter"
        (F.analyze "select Price from trades where Symbol=`XYZ").F.a_fingerprint
        fps.(shape1);
      (* .hq.top[1] truncates to the heaviest shape *)
      (match ok (P.Client.query c ".hq.top[1]") with
      | QV.Table tb1 -> check tint "top[1] rows" 1 (QV.table_length tb1)
      | _ -> Alcotest.fail "expected table");
      (* admin queries themselves are not fingerprinted *)
      let qs = (P.obs p).Obs.Ctx.qstats in
      check tint "admin queries not in the store" 2 (QS.size qs)
  | v -> Alcotest.failf "expected a table, got %s" (Qvalue.Qprint.to_string v)

(* a text the lexer rejects still gets a query record, keyed on the
   fingerprint of its whitespace-collapsed raw text *)
let test_lexer_rejected_record () =
  let p = make_platform () in
  let c = P.Client.connect p in
  let junk = "select  \xc3\xa9\tfrom\ntrades" in
  (match P.Client.query c junk with
  | Error e -> check tbool "parse error" true (contains e "[parse]")
  | Ok _ -> Alcotest.fail "lexer-rejected text must fail");
  let collapsed = "select \xc3\xa9 from trades" in
  let fp = String.sub (Digest.to_hex (Digest.string collapsed)) 0 16 in
  match QS.find (P.obs p).Obs.Ctx.qstats fp with
  | Some e ->
      check tstr "fallback normalization" collapsed e.QS.e_query;
      check tint "counted as an error" 1 e.QS.e_errors
  | None -> Alcotest.fail "no record under the fallback fingerprint"

let test_hq_slow_capture () =
  let p = make_platform () in
  let c = P.Client.connect p in
  ignore (ok (P.Client.query c "select Price from trades where Symbol=`A"));
  let v = ok (P.Client.query c ".hq.slow[]") in
  match v with
  | QV.Table tb ->
      check tint "one capture" 1 (QV.table_length tb);
      let sqls = column_syms tb "sql" in
      let traces = column_syms tb "trace" in
      let status = column_syms tb "status" in
      check tbool "generated SQL captured" true (contains sqls.(0) "SELECT");
      check tbool "span tree has the query root" true
        (contains traces.(0) "\"name\":\"query\"");
      check tbool "span tree has pipeline stages" true
        (contains traces.(0) "\"execute\""
        && contains traces.(0) "\"parse\""
        && contains traces.(0) "\"pivot\"");
      check tstr "status ok" "ok" status.(0);
      (* errors are captured with their categorised text *)
      (match P.Client.query c "select nope from missing_table" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected error");
      (match ok (P.Client.query c ".hq.slow[1]") with
      | QV.Table tb2 ->
          let st = column_syms tb2 "status" in
          check tstr "newest first is the error" "error" st.(0)
      | _ -> Alcotest.fail "expected table")
  | v -> Alcotest.failf "expected a table, got %s" (Qvalue.Qprint.to_string v)

let test_hq_stats_reset () =
  let p = make_platform () in
  let reg = (P.obs p).Obs.Ctx.registry in
  let c = P.Client.connect p in
  for _ = 1 to 4 do
    ignore (ok (P.Client.query c "select Price from trades"))
  done;
  let queries_total () =
    M.counter_value (M.counter reg "hq_queries_total")
  in
  check tint "counted before reset" 4 (queries_total ());
  check tbool "recorder holds captures before reset" true
    (Obs.Recorder.size (P.obs p).Obs.Ctx.recorder > 0);
  check tbool "export ring holds traces before reset" true
    (Obs.Export.size (P.obs p).Obs.Ctx.export > 0);
  check tbool "time-series ring sampled before reset" true
    (Obs.Timeseries.size (P.obs p).Obs.Ctx.timeseries > 0);
  (match ok (P.Client.query c ".hq.stats.reset") with
  | QV.Atom (QA.Sym "reset") -> ()
  | v -> Alcotest.failf "expected `reset, got %s" (Qvalue.Qprint.to_string v));
  check tint "counters zeroed" 0 (queries_total ());
  check tint "fingerprint store zeroed" 0 (QS.size (P.obs p).Obs.Ctx.qstats);
  check tbool "histograms zeroed" true
    (M.hist_count (M.histogram reg "hq_query_seconds") = 0);
  (* the reset is atomic across every plane: the flight-recorder ring,
     the trace-export ring and the time-series ring clear with it, so no
     plane reports pre-reset state next to another's post-reset state *)
  check tint "flight recorder cleared" 0
    (Obs.Recorder.size (P.obs p).Obs.Ctx.recorder);
  check tint "trace-export ring cleared" 0
    (Obs.Export.size (P.obs p).Obs.Ctx.export);
  check tint "time-series ring cleared" 0
    (Obs.Timeseries.size (P.obs p).Obs.Ctx.timeseries);
  (* the proxy keeps serving and counting after a reset *)
  ignore (ok (P.Client.query c "select Price from trades"));
  check tint "counting resumes from zero" 1 (queries_total ())

let test_admin_endpoint_routes () =
  let p = make_platform () in
  let c = P.Client.connect p in
  for _ = 1 to 3 do
    ignore (ok (P.Client.query c "select Price from trades"))
  done;
  let get path = H.handle (P.admin_handler p) (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path) in
  (* /healthz *)
  let hz = get "/healthz" in
  check tbool "healthz 200" true (contains hz "HTTP/1.1 200");
  check tbool "healthz body" true (contains hz "ok");
  (* /metrics serves the same registry .hq.stats reports *)
  let metrics = get "/metrics" in
  check tbool "metrics 200" true (contains metrics "HTTP/1.1 200");
  check tbool "metrics counted queries" true (contains metrics "hq_queries_total 3");
  check tbool "metrics has stage buckets" true
    (contains metrics "hq_stage_seconds_bucket{stage=\"parse\",le=");
  check tbool "metrics merges fingerprints" true
    (contains metrics "hq_fingerprint_calls_total{fingerprint=");
  (* the in-band table agrees with the scrape *)
  (match ok (P.Client.query c ".hq.stats") with
  | QV.Table tb ->
      let metric_col = QV.column_exn tb "name" in
      let value_col = QV.column_exn tb "value" in
      let rec lookup i =
        if i >= QV.length metric_col then Alcotest.fail "metric missing"
        else
          match (QV.index metric_col i, QV.index value_col i) with
          | QV.Atom (QA.Sym "hq_queries_total"), QV.Atom (QA.Float f) -> f
          | _ -> lookup (i + 1)
      in
      (* 3 workload queries; the .hq.stats call itself is admin-only *)
      check tbool "in-band and scrape agree" true (lookup 0 = 3.0)
  | _ -> Alcotest.fail "expected table");
  (* /stats.json *)
  let sj = get "/stats.json" in
  check tbool "stats.json 200" true (contains sj "HTTP/1.1 200");
  check tbool "stats.json metrics array" true (contains sj "\"metrics\":[");
  check tbool "stats.json fingerprints" true (contains sj "\"fingerprints\":[");
  check tbool "stats.json has calls" true (contains sj "\"calls\":3");
  (* /slow.json (threshold 0: everything captured) *)
  let slj = get "/slow.json" in
  check tbool "slow.json 200" true (contains slj "HTTP/1.1 200");
  check tbool "slow.json ndjson" true (contains slj "application/x-ndjson");
  check tbool "slow.json has traces" true (contains slj "\"trace\":{");
  (* POST /reset *)
  let reset =
    H.handle (P.admin_handler p) "POST /reset HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
  in
  check tbool "reset 200" true (contains reset "HTTP/1.1 200");
  check tbool "reset acknowledges" true (contains reset "\"status\":\"reset\"");
  let after = get "/metrics" in
  check tbool "counters zeroed over HTTP" true
    (contains after "hq_queries_total 0");
  (* routing edges *)
  let not_found = get "/nope" in
  check tbool "404 for unknown path" true (contains not_found "HTTP/1.1 404");
  check tbool "404 carries content-length" true
    (contains not_found "Content-Length:");
  let post_metrics =
    H.handle (P.admin_handler p) "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
  in
  check tbool "405 for POST /metrics" true (contains post_metrics "HTTP/1.1 405");
  check tbool "405 names the allowed method" true
    (contains post_metrics "Allow: GET");
  let post_traces =
    H.handle (P.admin_handler p)
      "POST /traces.json HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
  in
  check tbool "405 for POST /traces.json" true (contains post_traces "HTTP/1.1 405");
  check tbool "traces 405 allows GET" true (contains post_traces "Allow: GET");
  let get_reset = get "/reset" in
  check tbool "405 for GET /reset" true (contains get_reset "HTTP/1.1 405");
  check tbool "reset 405 allows POST" true (contains get_reset "Allow: POST")

(* the cluster observability plane over HTTP: hardened headers, HELP/
   TYPE on per-shard families, windowed time series, and the SLO-aware
   healthz degrading to 503 under a latency spike and recovering *)
let test_cluster_observability_http () =
  let obs = Obs.Ctx.create () in
  let p = P.create ~obs ~shards:2 (make_db ()) in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  let c = P.Client.connect p in
  (* interval 0: every query's in-band tick snapshots the ring, so 100
     queries produce plenty of windows *)
  Obs.Timeseries.set_interval obs.Obs.Ctx.timeseries 0.0;
  for _ = 1 to 100 do
    ignore (ok (P.Client.query c "select mx:max Price by Symbol from trades"))
  done;
  let get path =
    H.handle (P.admin_handler p)
      (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path)
  in
  (* every admin response carries the hardened headers *)
  let metrics = get "/metrics" in
  check tbool "Cache-Control: no-store" true
    (contains metrics "Cache-Control: no-store");
  check tbool "Server: hyperq" true (contains metrics "Server: hyperq");
  (* per-shard families carry HELP/TYPE headers even though the shard
     series are registered with labels (and some without help text) *)
  check tbool "# TYPE for the per-shard histogram family" true
    (contains metrics "# TYPE hq_shard_dispatch_seconds histogram");
  check tbool "# HELP for the per-shard histogram family" true
    (contains metrics "# HELP hq_shard_dispatch_seconds");
  check tbool "# TYPE for the shard wire counters" true
    (contains metrics "# TYPE hq_pgwire_bytes_in counter");
  check tbool "per-shard series labelled" true
    (contains metrics "hq_shard_dispatch_seconds_bucket{shard=\"0\"");
  check tbool "pool gauges exported" true
    (contains metrics "hq_shard_pool_workers");
  (* /timeseries.json: >= 2 windows, non-zero qps, finite p99 *)
  let ws = Obs.Timeseries.windows obs.Obs.Ctx.timeseries in
  let live =
    List.filter
      (fun w ->
        w.Obs.Timeseries.w_qps > 0.0
        && Float.is_finite w.Obs.Timeseries.w_p99_s)
      ws
  in
  check tbool "at least two live windows" true (List.length live >= 2);
  let tsj = get "/timeseries.json" in
  check tbool "timeseries.json 200" true (contains tsj "HTTP/1.1 200");
  check tbool "timeseries.json has windows" true (contains tsj "\"windows\":[");
  check tbool "timeseries.json reports queries" true
    (contains tsj "\"queries\":1");
  (* ?window= filters to the given horizon; a bogus value is ignored *)
  let narrow = get "/timeseries.json?window=30s" in
  check tbool "windowed query 200" true (contains narrow "HTTP/1.1 200");
  let bogus = get "/timeseries.json?window=bogus" in
  check tbool "bogus window ignored" true (contains bogus "HTTP/1.1 200");
  (* healthz: healthy without objectives... *)
  check tbool "healthz healthy" true (contains (get "/healthz") "HTTP/1.1 200");
  (* ...then a latency SLO no real query can meet: everything burns *)
  (match Obs.Slo.parse_spec "p99<1us,fast=50ms,slow=50ms" with
  | Ok cfg -> Obs.Slo.configure obs.Obs.Ctx.slo cfg
  | Error m -> Alcotest.failf "spec: %s" m);
  ignore (ok (P.Client.query c "select mx:max Price by Symbol from trades"));
  ignore (ok (P.Client.query c "select mx:max Price by Symbol from trades"));
  let hz = get "/healthz" in
  check tbool "healthz degrades to 503" true (contains hz "HTTP/1.1 503");
  check tbool "503 body carries the burn reason" true
    (contains hz "\"healthy\":false" && contains hz "\"burning\":true");
  check tbool "503 names the objective" true (contains hz "p99<1us");
  let sj = get "/slo.json" in
  check tbool "slo.json reports the burn" true
    (contains sj "\"healthy\":false");
  (* recovery: the spike ages out of the 50ms windows *)
  Unix.sleepf 0.06;
  ignore (Obs.Timeseries.tick obs.Obs.Ctx.timeseries);
  Unix.sleepf 0.06;
  let hz2 = get "/healthz" in
  check tbool "healthz recovers" true (contains hz2 "HTTP/1.1 200");
  (* in-band .hq.timeseries mirrors the HTTP plane *)
  (match ok (P.Client.query c ".hq.timeseries[5]") with
  | QV.Table tb ->
      check tbool "bracket arg bounds rows" true (QV.table_length tb <= 5);
      check tbool "has rows" true (QV.table_length tb > 0)
  | v -> Alcotest.failf "expected a table, got %s" (Qvalue.Qprint.to_string v));
  P.Client.close c

let test_default_buckets_log_scale () =
  let b = M.default_buckets in
  check tbool "ascending" true
    (Array.for_all (fun x -> x > 0.0) b
    &&
    let rec mono i = i >= Array.length b - 1 || (b.(i) < b.(i + 1) && mono (i + 1)) in
    mono 0);
  check tbool "sub-microsecond floor" true (b.(0) <= 1e-6);
  check tbool "spans to 10s" true (b.(Array.length b - 1) = 10.0);
  (* fast parse stages (1-10us) spread over several buckets *)
  let in_range = Array.to_list b |> List.filter (fun x -> x >= 1e-6 && x <= 1e-5) in
  check tbool "multiple buckets under 10us" true (List.length in_range >= 3);
  (* generator respects bounds *)
  let g = M.log_buckets ~lo:1e-3 ~hi:1.0 () in
  check tbool "generator bounds" true (g.(0) = 1e-3 && g.(Array.length g - 1) = 1.0)

(* ------------------------------------------------------------------ *)
(* Every plane, both surfaces                                          *)
(* ------------------------------------------------------------------ *)

module Planes = Platform.Planes

(* just enough JSON to read the admin port's documents back: objects
   keep their key order *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json (s : string) : json =
  let pos = ref 0 in
  let fail what = Alcotest.failf "json: %s at %d in %s" what !pos s in
  let ws () =
    while !pos < String.length s && String.contains " \t\r\n" s.[!pos] do
      incr pos
    done
  in
  let eat c =
    ws ();
    if !pos < String.length s && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let word w v =
    if !pos + String.length w <= String.length s
       && String.sub s !pos (String.length w) = w
    then (
      pos := !pos + String.length w;
      v)
    else fail ("expected " ^ w)
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    while s.[!pos] <> '"' do
      (match s.[!pos] with
      | '\\' ->
          incr pos;
          (match s.[!pos] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              Buffer.add_char b '?';
              pos := !pos + 4
          | c -> Buffer.add_char b c)
      | c -> Buffer.add_char b c);
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  (* the elements of a [open ... close] sequence *)
  let rec seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close elem ->
    ws ();
    if s.[!pos] = close then (
      incr pos;
      [])
    else
      let x = elem () in
      ws ();
      if s.[!pos] = ',' then (
        incr pos;
        x :: seq close elem)
      else (
        eat close;
        [ x ])
  and value () =
    ws ();
    match s.[!pos] with
    | '{' ->
        incr pos;
        Obj
          (seq '}' (fun () ->
               let k = str () in
               eat ':';
               (k, value ())))
    | '[' ->
        incr pos;
        Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ ->
        let start = !pos in
        while !pos < String.length s && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "expected a value")
  in
  let v = value () in
  ws ();
  if !pos <> String.length s then fail "trailing bytes";
  v

let http_body (reply : string) : string =
  match Str.bounded_split_delim (Str.regexp_string "\r\n\r\n") reply 2 with
  | [ _; body ] -> body
  | _ -> Alcotest.failf "no body in %s" reply

(* a 2-shard platform with the plan cache on and something in every
   plane: two query shapes, two analyzed plans, two SLO objectives *)
let populated_platform () =
  let recorder = R.create ~threshold_s:0.0 () in
  let obs = Obs.Ctx.create ~recorder () in
  Obs.Timeseries.set_interval obs.Obs.Ctx.timeseries 0.0;
  (match Obs.Slo.parse_spec "p99<50ms,err<1%" with
  | Ok cfg -> Obs.Slo.configure obs.Obs.Ctx.slo cfg
  | Error m -> Alcotest.failf "spec: %s" m);
  let db = make_db () in
  (* a replicated table: reads of it run on the coordinator, so the plan
     cache keeps their templates *)
  Db.load_table db
    (S.table ~order_col:"hq_ord" "venues"
       [ S.column "hq_ord" Ty.TBigint; S.column "Venue" Ty.TVarchar; S.column "Fee" Ty.TDouble ])
    [ [| V.Int 0L; V.Str "X"; V.Float 0.5 |]; [| V.Int 1L; V.Str "Y"; V.Float 0.7 |] ];
  let p = P.create ~obs ~shards:2 db in
  let c = P.Client.connect p in
  List.iter
    (fun q -> ignore (ok (P.Client.query c q)))
    [
      "select Fee from venues where Venue=`X";
      "select Venue from venues where Fee>0.6";
      "select Price from trades where Symbol=`A";
      "select Price from trades where Symbol=`B";
      "select mx:max Price by Symbol from trades";
      ".hq.explain select Size from trades";
      ".hq.explain select mx:max Price by Symbol from trades";
    ];
  (p, c)

let admin_request (p : P.t) (meth : string) (path : string) : string =
  H.handle (P.admin_handler p)
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
       meth path)

let test_every_plane_answers () =
  let p, c = populated_platform () in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  check tint "eleven planes" 11 (List.length Planes.all);
  List.iter
    (fun (pl : Planes.plane) ->
      let path = Planes.path pl in
      check tbool ("GET " ^ path ^ " 200") true
        (contains (admin_request p "GET" path) "HTTP/1.1 200");
      let post = admin_request p "POST" path in
      check tbool ("POST " ^ path ^ " 405") true (contains post "HTTP/1.1 405");
      check tbool ("POST " ^ path ^ " allows GET") true
        (contains post "Allow: GET\r\n");
      match P.Client.query c (Planes.query pl) with
      | Ok (QV.Table _) -> ()
      | Ok v ->
          Alcotest.failf "%s: expected a table, got %s" (Planes.query pl)
            (Qvalue.Qprint.to_string v)
      | Error e -> Alcotest.failf "%s: %s" (Planes.query pl) e)
    Planes.all;
  P.Client.close c

(* the coherence check: for the same n, the Q table's columns are the
   keys of every JSON row object, in order, and the row counts agree *)
let test_surfaces_agree () =
  let p, c = populated_platform () in
  Fun.protect ~finally:(fun () -> P.shutdown p) @@ fun () ->
  let n = 2 in
  List.iter
    (fun (pl : Planes.plane) ->
      let name = pl.Planes.name in
      let cols, q_rows =
        match ok (P.Client.query c (Printf.sprintf "%s[%d]" (Planes.query pl) n)) with
        | QV.Table tb -> (Array.to_list tb.QV.cols, QV.table_length tb)
        | v -> Alcotest.failf "%s: expected a table, got %s" name (Qvalue.Qprint.to_string v)
      in
      let body =
        http_body (admin_request p "GET" (Printf.sprintf "%s?n=%d" (Planes.path pl) n))
      in
      let rows =
        match pl.Planes.layout with
        | Planes.Lines ->
            String.split_on_char '\n' body
            |> List.filter (fun l -> l <> "")
            |> List.map parse_json
        | Planes.Document key -> (
            match parse_json body with
            | Obj kvs -> (
                match List.assoc_opt key kvs with
                | Some (Arr rows) -> rows
                | _ -> Alcotest.failf "%s: no %S array" name key)
            | _ -> Alcotest.failf "%s: not a JSON object" name)
      in
      check tint (name ^ ": row counts agree") q_rows (List.length rows);
      check tbool (name ^ ": has rows") true (q_rows > 0);
      List.iter
        (function
          | Obj kvs ->
              check (Alcotest.list tstr) (name ^ ": row keys are the columns")
                cols (List.map fst kvs)
          | _ -> Alcotest.failf "%s: row is not an object" name)
        rows)
    Planes.all;
  P.Client.close c

(* an ordinary query pays one prefix check for the admin plane and
   allocates nothing *)
let test_admin_check_allocates_nothing () =
  let p = make_platform () in
  let c = P.Client.connect p in
  let ep = c.P.Client.conn.P.endpoint in
  List.iter
    (fun q ->
      ignore (Platform.Endpoint.admin_reply ep q);
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Platform.Endpoint.admin_reply ep q))
      done;
      let words = Gc.minor_words () -. w0 in
      check (Alcotest.float 0.0) ("no allocation: " ^ q) 0.0 words)
    [
      "select Price from trades where Symbol=`A";
      "  \tselect Size from trades";
      ".z.p";
      ".hq";
      "";
    ];
  check tbool "an admin query still answers" true
    (Platform.Endpoint.admin_reply ep " .hq.top[1] " <> None);
  P.Client.close c

(* shard worker domains log into the coordinator's logger: four domains
   fill one small tail while the main domain keeps reading it *)
let test_log_tail_shared_by_domains () =
  let reg = Obs.Metrics.create () in
  let log =
    Obs.Log.create ~tail_capacity:256 ~sink:(Obs.Events.create ()) reg
  in
  let finished = Atomic.make 0 in
  let writers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 5_000 do
              Obs.Log.warn log ~conn_id:d "tail race"
                [ ("i", Obs.Relation.Int i) ]
            done;
            Atomic.incr finished))
  in
  while Atomic.get finished < 4 do
    let lines = Obs.Log.recent log 256 in
    if List.length lines > 256 then Alcotest.fail "tail read past capacity"
  done;
  List.iter Domain.join writers;
  let lines = Obs.Log.recent log 256 in
  check tint "a full tail" 256 (List.length lines);
  List.iter
    (fun l ->
      match parse_json l with
      | Obj _ -> ()
      | _ -> Alcotest.failf "not a JSON object: %s" l)
    lines;
  check tint "every warn line counted" 20_000
    (Obs.Metrics.counter_value
       (Obs.Metrics.counter reg ~labels:[ ("level", "warn") ]
          "hq_log_lines_total"))

let () =
  Alcotest.run "introspection"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "numeric literals" `Quick test_fp_numeric_literals;
          Alcotest.test_case "string/symbol literals" `Quick
            test_fp_string_and_symbol_literals;
          Alcotest.test_case "whitespace and comments" `Quick
            test_fp_whitespace_and_comments;
          Alcotest.test_case "lambda bodies" `Quick test_fp_lambda_bodies;
          Alcotest.test_case "different shapes differ" `Quick
            test_fp_shapes_differ;
          Alcotest.test_case "lexer fallback" `Quick test_fp_lexer_fallback;
          Alcotest.test_case "normalized text" `Quick test_fp_normalized_text;
        ] );
      ( "qstats",
        [
          Alcotest.test_case "accumulation" `Quick test_qstats_accumulation;
          Alcotest.test_case "LRU eviction" `Quick test_qstats_lru_eviction;
          Alcotest.test_case "percentiles and reset" `Quick
            test_qstats_percentile_and_reset;
          Alcotest.test_case "prometheus and json" `Quick
            test_qstats_prometheus_and_json;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "threshold and ring bound" `Quick
            test_recorder_threshold_and_bound;
          Alcotest.test_case "tail sampling" `Quick test_recorder_tail_sampling;
          Alcotest.test_case "jsonl dump" `Quick test_recorder_jsonl;
        ] );
      ( "http",
        [
          Alcotest.test_case "request parsing" `Quick test_http_parse;
          Alcotest.test_case "render and handle" `Quick
            test_http_render_and_handle;
          Alcotest.test_case "hardening (414, Allow, lengths)" `Quick
            test_http_hardening;
        ] );
      ( "admin-plane",
        [
          Alcotest.test_case ".hq.top scripted workload" `Quick
            test_hq_top_scripted_workload;
          Alcotest.test_case ".hq.slow capture" `Quick test_hq_slow_capture;
          Alcotest.test_case "lexer-rejected text record" `Quick
            test_lexer_rejected_record;
          Alcotest.test_case ".hq.stats.reset" `Quick test_hq_stats_reset;
          Alcotest.test_case "HTTP admin endpoint routes" `Quick
            test_admin_endpoint_routes;
          Alcotest.test_case "cluster observability plane" `Quick
            test_cluster_observability_http;
          Alcotest.test_case "log-scale default buckets" `Quick
            test_default_buckets_log_scale;
        ] );
      ( "planes",
        [
          Alcotest.test_case "every plane answers on both surfaces" `Quick
            test_every_plane_answers;
          Alcotest.test_case "Q table columns are JSON row keys" `Quick
            test_surfaces_agree;
          Alcotest.test_case "admin check allocates nothing" `Quick
            test_admin_check_allocates_nothing;
          Alcotest.test_case "log tail shared by domains" `Quick
            test_log_tail_shared_by_domains;
        ] );
    ]
