(* Correlated tracing tests: one trace id visible end-to-end — in the
   exported trace ring (/traces.json, .hq.traces), in structured log
   lines, in the flight recorder's capture, and inside the traceparent
   comment the Gateway appends to every dispatched SQL statement — plus
   the live .hq.activity session plane, observed mid-query. *)

module M = Obs.Metrics
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

let is_hex s =
  String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let backend_of (c : P.Client.client) : Hyperq.Backend.t =
  (Hyperq.Engine.mdi (Platform.Xc.engine c.P.Client.conn.P.xc))
    .Hyperq.Mdi.backend

(* every statement [b] dispatches from now on, decorated, newest first:
   an observer chained onto the backend's [on_exec] hook *)
let record_sql (b : Hyperq.Backend.t) : string list ref =
  let log = ref [] in
  let prev = !(b.Hyperq.Backend.on_exec) in
  (b.Hyperq.Backend.on_exec :=
     fun sql ->
       prev sql;
       log := sql :: !log);
  log

let column_syms tb name =
  let col = QV.column_exn tb name in
  Array.init (QV.length col) (fun i ->
      match QV.index col i with
      | QV.Atom (QA.Sym s) -> s
      | v -> Alcotest.failf "expected sym, got %s" (Qvalue.Qprint.to_string v))

(* ------------------------------------------------------------------ *)
(* One trace id, four surfaces                                         *)
(* ------------------------------------------------------------------ *)

let test_one_trace_id_everywhere () =
  let sink, read = Obs.Events.memory () in
  let recorder = R.create ~threshold_s:0.0 () in
  let db = make_db () in
  let obs = Obs.Ctx.create ~events:sink ~recorder () in
  let p = P.create ~obs db in
  let c = P.Client.connect p in
  let backend = backend_of c in
  let sent = record_sql backend in
  ignore (ok (P.Client.query c "select Price from trades where Symbol=`A"));
  (* (c) the flight recorder's capture carries the trace id *)
  let trace_id =
    match R.recent recorder 1 with
    | [ r ] -> r.R.r_trace_id
    | _ -> Alcotest.fail "expected one recorder capture"
  in
  check tint "trace id is 32 hex chars" 32 (String.length trace_id);
  check tbool "trace id is lowercase hex" true (is_hex trace_id);
  (* (a) the export ring serves the same id over GET /traces.json *)
  let traces =
    H.handle (P.admin_handler p) "GET /traces.json HTTP/1.1\r\n\r\n"
  in
  check tbool "traces.json 200" true (contains traces "HTTP/1.1 200");
  check tbool "traces.json carries the trace id" true
    (contains traces (Printf.sprintf "\"traceID\":\"%s\"" trace_id));
  check tbool "traces.json has pipeline span names" true
    (contains traces "\"operationName\":\"execute\"");
  (* (b) a structured log line carries the same id *)
  let logs = List.filter (fun l -> contains l "\"level\"") (read ()) in
  check tbool "a log line carries the trace id" true
    (List.exists
       (fun l ->
         contains l "\"msg\":\"query completed\""
         && contains l (Printf.sprintf "\"trace_id\":\"%s\"" trace_id))
       logs);
  (* ...and /logs.json serves the retained tail with the same id *)
  let logs_http =
    H.handle (P.admin_handler p) "GET /logs.json HTTP/1.1\r\n\r\n"
  in
  check tbool "logs.json 200" true (contains logs_http "HTTP/1.1 200");
  check tbool "logs.json carries the trace id" true
    (contains logs_http trace_id);
  (* (d) the dispatched SQL carries the traceparent comment, as the
     backend's [on_exec] observers see it *)
  let decorated =
    match List.find_opt (fun sql -> contains sql "traceparent") !sent with
    | Some sql -> sql
    | None -> Alcotest.fail "no dispatched SQL carries a traceparent comment"
  in
  let expected_prefix =
    Printf.sprintf "/* traceparent='00-%s-" trace_id
  in
  check tbool "dispatched comment names this trace" true
    (contains decorated expected_prefix);
  check tbool "comment is W3C-shaped" true (contains decorated "-01' */");
  (* the commented statement still executes identically on pgdb: the SQL
     lexer treats the trailing block comment as whitespace *)
  let sess = Db.open_session db in
  let plain =
    match String.index_opt decorated '/' with
    | Some i -> String.trim (String.sub decorated 0 (i - 1))
    | None -> Alcotest.fail "expected a comment in the decorated SQL"
  in
  let rows_of sql =
    match Db.exec sess sql with
    | Db.Rows (res, _) -> res.Pgdb.Exec.res_rows
    | Db.Complete _ -> Alcotest.failf "expected rows from %s" sql
  in
  check tbool "decorated and plain SQL agree" true
    (rows_of decorated = rows_of plain);
  (* per-level counters moved *)
  check tbool "info lines counted" true
    (Obs.Log.lines_logged obs.Obs.Ctx.log Obs.Log.Info > 0);
  P.Client.close c

(* ------------------------------------------------------------------ *)
(* .hq.activity: live session plane                                    *)
(* ------------------------------------------------------------------ *)

let test_activity_in_flight_and_disconnect () =
  let db = make_db () in
  (* observe the session registry mid-query: the Gateway logs a Debug
     "backend dispatch" line while the statement is in flight, so a
     writer hooked to the shared sink can snapshot .hq.activity at that
     exact moment *)
  let snapshot = ref None in
  let obs_ref = ref None in
  let sink =
    Obs.Events.create
      ~write:(fun line ->
        if contains line "backend dispatch" && !snapshot = None then
          match !obs_ref with
          | Some ctx -> (
              match Obs.Sessions.active ctx.Obs.Ctx.sessions with
              | s :: _ ->
                  snapshot :=
                    Some
                      ( s.Obs.Sessions.s_fingerprint,
                        s.Obs.Sessions.s_trace_id,
                        Obs.Sessions.elapsed_ns s )
              | [] -> ())
          | None -> ())
      ()
  in
  let obs = Obs.Ctx.create ~events:sink () in
  Obs.Log.set_level obs.Obs.Ctx.log Obs.Log.Debug;
  obs_ref := Some obs;
  let p = P.create ~obs db in
  let c = P.Client.connect p in
  check tint "one session registered" 1 (Obs.Sessions.size obs.Obs.Ctx.sessions);
  ignore (ok (P.Client.query c "select Price from trades where Symbol=`A"));
  (match !snapshot with
  | Some (fp, trace_id, elapsed) ->
      check tbool "in-flight fingerprint visible" true (fp <> "");
      check tint "in-flight trace id visible" 32 (String.length trace_id);
      check tbool "elapsed clock running" true (elapsed >= 0L)
  | None -> Alcotest.fail "no mid-query .hq.activity snapshot captured");
  (* after the query: back to idle, query counted, user recorded *)
  (match ok (P.Client.query c ".hq.activity") with
  | QV.Table tb ->
      check tint "one session row" 1 (QV.table_length tb);
      check tstr "authenticated user" "trader" (column_syms tb "user").(0);
      check tstr "idle after completion" "idle" (column_syms tb "state").(0);
      let queries = QV.column_exn tb "queries" in
      (match QV.index queries 0 with
      | QV.Atom (QA.Long n) ->
          check tbool "completed queries counted" true (Int64.to_int n >= 1)
      | _ -> Alcotest.fail "queries must be longs")
  | v -> Alcotest.failf "expected a table, got %s" (Qvalue.Qprint.to_string v));
  (* GET /activity.json serves the same registry *)
  let aj = H.handle (P.admin_handler p) "GET /activity.json HTTP/1.1\r\n\r\n" in
  check tbool "activity.json 200" true (contains aj "HTTP/1.1 200");
  check tbool "activity.json names the user" true
    (contains aj "\"user\":\"trader\"");
  (* disconnect removes the session *)
  P.Client.close c;
  check tint "session unregistered on disconnect" 0
    (Obs.Sessions.size obs.Obs.Ctx.sessions);
  let after = H.handle (P.admin_handler p) "GET /activity.json HTTP/1.1\r\n\r\n" in
  check tbool "activity.json empty after disconnect" true
    (contains after "\"sessions\":[]")

(* ------------------------------------------------------------------ *)
(* .hq.traces: in-band export ring                                     *)
(* ------------------------------------------------------------------ *)

let test_hq_traces_in_band () =
  let p = P.create (make_db ()) in
  let c = P.Client.connect p in
  for _ = 1 to 3 do
    ignore (ok (P.Client.query c "select Price from trades"))
  done;
  (match ok (P.Client.query c ".hq.traces[2]") with
  | QV.Table tb ->
      check tint "bracket arg bounds rows" 2 (QV.table_length tb);
      let ids = column_syms tb "trace_id" in
      Array.iter
        (fun id -> check tint "each row a full trace id" 32 (String.length id))
        ids;
      check tbool "distinct traces" true (ids.(0) <> ids.(1));
      let traces = column_syms tb "trace" in
      check tbool "flat spans embedded" true
        (contains traces.(0) "\"parentSpanID\":")
  | v -> Alcotest.failf "expected a table, got %s" (Qvalue.Qprint.to_string v));
  (* admin traffic does not open traces of its own *)
  (match ok (P.Client.query c ".hq.traces[]") with
  | QV.Table tb -> check tint "only real queries traced" 3 (QV.table_length tb)
  | _ -> Alcotest.fail "expected table");
  (* sized by the export ring: a shared registry counter moved *)
  let reg = (P.obs p).Obs.Ctx.registry in
  ignore reg;
  check tint "export ring holds them" 3
    (Obs.Export.size (P.obs p).Obs.Ctx.export);
  P.Client.close c

(* ------------------------------------------------------------------ *)
(* Cross-shard trace propagation                                       *)
(* ------------------------------------------------------------------ *)

let rec collect_named name (sp : Tr.span) acc =
  let acc = if Tr.name sp = name then sp :: acc else acc in
  List.fold_left (fun a c -> collect_named name c a) acc (Tr.children sp)

let shard_attr (sp : Tr.span) : int =
  match List.assoc_opt "shard" (Tr.attrs sp) with
  | Some (Tr.Int i) -> i
  | _ -> Alcotest.fail "shard_exec span must carry a shard attribute"

let test_cross_shard_trace () =
  let shards = 4 in
  let sink, read = Obs.Events.memory () in
  let obs = Obs.Ctx.create ~events:sink () in
  Obs.Log.set_level obs.Obs.Ctx.log Obs.Log.Debug;
  let p = P.create ~obs ~shards (make_db ()) in
  let c = P.Client.connect p in
  let backends =
    match P.cluster p with
    | Some cl -> Shard.Cluster.backends cl
    | None -> Alcotest.fail "platform must be sharded"
  in
  let sent = Array.map record_sql backends in
  (* a grouped aggregate is shard-safe and scatters to every shard *)
  ignore (ok (P.Client.query c "select mx:max Price by Symbol from trades"));
  let exported =
    match Obs.Export.recent obs.Obs.Ctx.export 1 with
    | [ e ] -> e
    | es -> Alcotest.failf "expected one exported trace, got %d" (List.length es)
  in
  let trace_id = exported.Obs.Export.x_trace_id in
  let root = exported.Obs.Export.x_root in
  (* (a) the coordinator's span tree holds one shard_exec child per
     shard, under the execute stage, each tagged with its shard index *)
  let shard_spans = collect_named "shard_exec" root [] in
  check tint "one shard_exec span per shard" shards (List.length shard_spans);
  let by_shard =
    List.sort compare (List.map (fun sp -> (shard_attr sp, Tr.span_id sp)) shard_spans)
  in
  check tbool "every shard index appears once" true
    (List.map fst by_shard = List.init shards Fun.id);
  List.iter
    (fun sp ->
      check tbool "worker closed the span" true (Tr.duration_ns sp >= 0L);
      check tint "span id is 16 hex chars" 16 (String.length (Tr.span_id sp));
      check tbool "span id is hex" true (is_hex (Tr.span_id sp)))
    shard_spans;
  (* gather/merge got its own span under the same trace *)
  check tbool "gather span recorded" true (collect_named "gather" root [] <> []);
  (* (b) each shard's dispatched SQL carries a traceparent naming the
     trace AND that shard's own child span id *)
  List.iter
    (fun (shard, span_id) ->
      let expected =
        Printf.sprintf "/* traceparent='00-%s-%s-01' */" trace_id span_id
      in
      check tbool
        (Printf.sprintf "shard %d SQL names its own shard_exec span" shard)
        true
        (List.exists (fun sql -> contains sql expected) !(sent.(shard))))
    by_shard;
  (* (c) shard-side structured logs correlate on the same trace id: the
     gateway's Debug dispatch line is emitted on the worker domain
     through the attached per-shard trace handle *)
  let dispatch_logs =
    List.filter (fun l -> contains l "backend dispatch") (read ())
  in
  check tbool "shard dispatch logs carry the coordinator's trace id" true
    (List.exists
       (fun l -> contains l (Printf.sprintf "\"trace_id\":\"%s\"" trace_id))
       dispatch_logs);
  (* (d) /traces.json renders the full coordinator -> shard tree *)
  let tj = H.handle (P.admin_handler p) "GET /traces.json HTTP/1.1\r\n\r\n" in
  check tbool "traces.json 200" true (contains tj "HTTP/1.1 200");
  check tbool "traces.json names the trace" true
    (contains tj (Printf.sprintf "\"traceID\":\"%s\"" trace_id));
  check tbool "traces.json has the shard spans" true
    (contains tj "\"operationName\":\"shard_exec\"");
  List.iter
    (fun (_, span_id) ->
      check tbool "traces.json lists each shard span id" true
        (contains tj (Printf.sprintf "\"spanID\":\"%s\"" span_id)))
    by_shard;
  (* (e) .hq.traces serves the same tree in band *)
  (match ok (P.Client.query c ".hq.traces[1]") with
  | QV.Table tb ->
      let traces = column_syms tb "trace" in
      check tbool ".hq.traces embeds shard_exec spans" true
        (contains traces.(0) "shard_exec")
  | v -> Alcotest.failf "expected a table, got %s" (Qvalue.Qprint.to_string v));
  P.Client.close c;
  P.shutdown p

(* ------------------------------------------------------------------ *)
(* Backend latency histogram                                           *)
(* ------------------------------------------------------------------ *)

let test_backend_exec_histogram () =
  let p = P.create (make_db ()) in
  let c = P.Client.connect p in
  ignore (ok (P.Client.query c "select Price from trades"));
  let reg = (P.obs p).Obs.Ctx.registry in
  let h = M.histogram reg "hq_backend_exec_seconds" in
  check tbool "backend round trips observed" true (M.hist_count h >= 1);
  check tbool "latency sum positive" true (M.hist_sum h > 0.0);
  let text = P.stats_text p in
  check tbool "histogram in the exposition" true
    (contains text "hq_backend_exec_seconds_bucket");
  P.Client.close c

let () =
  Alcotest.run "correlation"
    [
      ( "trace-id",
        [
          Alcotest.test_case "one id across all four surfaces" `Quick
            test_one_trace_id_everywhere;
        ] );
      ( "activity",
        [
          Alcotest.test_case "in-flight view and disconnect" `Quick
            test_activity_in_flight_and_disconnect;
        ] );
      ( "traces",
        [
          Alcotest.test_case ".hq.traces in band" `Quick test_hq_traces_in_band;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "scatter/gather under one trace" `Quick
            test_cross_shard_trace;
        ] );
      ( "gateway",
        [
          Alcotest.test_case "backend exec histogram" `Quick
            test_backend_exec_histogram;
        ] );
    ]
