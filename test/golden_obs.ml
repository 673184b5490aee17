(* Prints the bytes of the observability outputs a scraper or a log
   shipper parses, built from fixed inputs: the whole Prometheus text of
   a platform (one counter, one gauge, one labelled histogram, two
   recorded fingerprints), one JSONL query event, one "query completed"
   log line, one .hq.slow row with its trace tree and one /traces.json
   document of a hand-built span tree. test/dune diffs the output
   against golden_obs.expected, so any change to these bytes shows up
   as a reviewed diff; `dune promote` accepts it. *)

module M = Obs.Metrics
module Tr = Obs.Trace
module R = Obs.Relation
module P = Platform.Hyperq_platform

let section name = Printf.printf "== %s\n" name

(* a query trace with fixed ids and clocks: a root with an int, a float
   and a string attribute, and two stage children *)
let span =
  let child name id start_ns end_ns attrs =
    Tr.finished ~name ~span_id:id ~start_ns ~end_ns attrs []
  in
  Tr.finished ~name:"query" ~span_id:"00f067aa0ba902b7"
    ~start_ns:1_000_000_000L ~end_ns:1_012_345_678L
    [
      ("qipc_bytes_in", R.Int 37);
      ("ratio", R.Float 0.123456789012345);
      ("query_sha", R.Str "3f2a\"b\\c");
    ]
    [
      child "parse" "a1b2c3d4e5f60718" 1_000_100_000L 1_000_115_049L
        [ ("alloc_bytes", R.Int 4096) ];
      child "execute" "1122334455667788" 1_000_200_000L 1_011_000_000L
        [ ("pg_bytes_out", R.Int 120); ("nan", R.Float Float.nan) ];
    ]

let trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"

let query ~fingerprint ~duration_s ~stages : Obs.Query.t =
  {
    Obs.Query.ts = 1760000000.123456;
    trace_id;
    fingerprint;
    query = "select Price from trades where Symbol=`?";
    query_sha = "0123456789abcdef";
    query_bytes = 42;
    duration_s;
    error = None;
    rows_out = 3;
    bytes_in = 37;
    bytes_out = 162;
    alloc_bytes = 8192.0;
    minor_gcs = 1;
    stages;
    sql = [ "SELECT \"Price\" FROM trades WHERE \"Symbol\" = 'A'" ];
    sql_statements = 1;
    span;
    analysis = None;
  }

let q =
  query ~fingerprint:"9c1185a5c5e9fc54" ~duration_s:0.0123456789
    ~stages:[ ("parse", 1.5049e-05); ("execute", 0.0108); ("pivot", 0.0) ]

let metrics () =
  let registry = M.create () in
  (* the GC sampler reads clocks and heap sizes: keep it off this
     registry so every value below is fixed *)
  let runtime = Obs.Runtime.create (M.create ()) in
  let obs = Obs.Ctx.create ~registry ~runtime () in
  let p = P.create ~obs (Pgdb.Db.create ()) in
  M.add (M.counter registry ~help:"Requests served" "golden_requests_total") 7;
  M.set (M.gauge registry ~help:"A gauge" "golden_temperature") 1234.56789;
  let h =
    M.histogram registry ~help:"Stage latency"
      ~labels:[ ("stage", "parse") ]
      "golden_latency_seconds"
  in
  List.iter (M.observe h) [ 0.00005; 0.003; 0.003; 0.25; 2.0; 123.456789 ];
  Obs.Qstats.record obs.Obs.Ctx.qstats q;
  Obs.Qstats.record obs.Obs.Ctx.qstats
    (query ~fingerprint:"odd \"fp\"\\\n" ~duration_s:0.5 ~stages:[]);
  Obs.Qstats.record obs.Obs.Ctx.qstats q;
  print_string (P.stats_text p)

let lines () =
  let sink, read = Obs.Events.memory () in
  Obs.Events.emit sink (Obs.Query.event q);
  let log = Obs.Log.create ~sink (M.create ()) in
  Obs.Log.info log ~ts:q.Obs.Query.ts ~trace_id ~conn_id:3 "query completed"
    (Obs.Query.log_fields q);
  List.iter print_endline (read ())

let traces () =
  let recorder = Obs.Recorder.create ~threshold_s:0.0 () in
  ignore (Obs.Recorder.observe recorder q);
  print_string (R.to_jsonl (Obs.Recorder.relation recorder));
  let export = Obs.Export.create () in
  Obs.Export.offer export ~ts:q.Obs.Query.ts ~trace_id span;
  print_string
    (R.to_json ~rows_key:"traces" (Obs.Export.relation export))

let () =
  section "metrics";
  metrics ();
  section "query event and log line";
  lines ();
  section "slow row and traces document";
  traces ()
