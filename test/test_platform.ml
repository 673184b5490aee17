(* Full-platform integration tests: QIPC bytes in -> Hyper-Q -> PG v3 bytes
   -> pgdb -> pivoted QIPC bytes out (paper Figure 1, end to end). *)

module V = Pgdb.Value
module Db = Pgdb.Db
module S = Catalog.Schema
module Ty = Catalog.Sqltype
module QV = Qvalue.Value
module QA = Qvalue.Atom
module P = Platform.Hyperq_platform

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let make_db () =
  let db = Db.create () in
  Db.load_table db
    (S.table ~order_col:"hq_ord" "trades"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "Symbol" Ty.TVarchar;
         S.column "Time" Ty.TTime;
         S.column "Price" Ty.TDouble;
         S.column "Size" Ty.TBigint;
       ])
    (List.mapi
       (fun i (sym, time, px, sz) ->
         [|
           V.Int (Int64.of_int i); V.Str sym; V.Time time; V.Float px;
           V.Int (Int64.of_int sz);
         |])
       [
         ("A", 1000, 10.0, 100);
         ("B", 2000, 20.0, 200);
         ("A", 3000, 11.0, 150);
       ]);
  db

let platform () = P.create (make_db ())

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "query failed: %s" e

let test_end_to_end_select () =
  let p = platform () in
  let c = P.Client.connect p in
  match ok (P.Client.query c "select Price from trades where Symbol=`A") with
  | QV.Table t ->
      check tint "2 rows" 2 (QV.table_length t);
      check tbool "values" true
        (QV.equal (QV.column_exn t "Price") (QV.floats [| 10.0; 11.0 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_end_to_end_aggregate () =
  let p = platform () in
  let c = P.Client.connect p in
  match ok (P.Client.query c "select mx:max Price by Symbol from trades") with
  | QV.KTable (_, v) ->
      check tbool "grouped max" true
        (QV.equal (QV.column_exn v "mx") (QV.floats [| 11.0; 20.0 |]))
  | v -> Alcotest.failf "expected keyed table, got %s" (Qvalue.Qprint.to_string v)

let test_error_travels_as_qipc () =
  let p = platform () in
  let c = P.Client.connect p in
  match P.Client.query c "select nope from missing_table" with
  | Error e -> check tbool "error is informative" true (String.length e > 10)
  | Ok _ -> Alcotest.fail "expected an error"

let test_bad_credentials_rejected () =
  let p = platform () in
  match P.Client.connect ~user:"intruder" ~password:"guess" p with
  | exception P.Client.Client_error _ -> ()
  | _ -> Alcotest.fail "bad credentials must be rejected"

let test_globals_shared_across_connections () =
  (* server-scope variables (::) are immediately visible to other clients,
     as on a shared kdb+ server *)
  let p = platform () in
  let c1 = P.Client.connect p in
  let c2 = P.Client.connect p in
  ignore (ok (P.Client.query c1 "lim::12.5"));
  match ok (P.Client.query c2 "select Price from trades where Price<lim") with
  | QV.Table t -> check tint "filtered by shared global" 2 (QV.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_session_promotion_on_disconnect () =
  let p = platform () in
  let c1 = P.Client.connect p in
  ignore (ok (P.Client.query c1 "threshold:15.0"));
  P.Client.close c1;
  let c2 = P.Client.connect p in
  match ok (P.Client.query c2 "select Price from trades where Price>threshold")
  with
  | QV.Table t -> check tint "promoted variable visible" 1 (QV.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_fsm_transitions () =
  (* the XC walks its documented states for every query *)
  let p = platform () in
  let conn = P.connect p in
  (match Platform.Xc.process conn.P.xc "select Price from trades" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let ts = Platform.Xc.transitions conn.P.xc in
  let expect_contains name =
    check tbool (name ^ " visited") true (List.mem name ts)
  in
  expect_contains "parsing_request";
  expect_contains "awaiting_translation";
  expect_contains "awaiting_backend";
  expect_contains "translating_results";
  expect_contains "responding"

let test_function_definition_and_call_over_wire () =
  let p = platform () in
  let c = P.Client.connect p in
  ignore
    (ok
       (P.Client.query c
          "f:{[s] dt: select Price from trades where Symbol=s; :select max \
           Price from dt}"));
  match ok (P.Client.query c "f[`A]") with
  | QV.Table t ->
      check tbool "max A" true
        (QV.equal (QV.column_exn t "Price") (QV.floats [| 11.0 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_fragmented_qipc_delivery () =
  (* bytes arriving one at a time must reassemble into whole messages *)
  let p = platform () in
  let conn = P.connect p in
  let feed_bytes s =
    let out = Buffer.create 64 in
    String.iter
      (fun c ->
        Buffer.add_string out
          (Platform.Endpoint.feed conn.P.endpoint (String.make 1 c)))
      s;
    Buffer.contents out
  in
  let hello = Qipc.Codec.encode_handshake ~user:"trader" ~password:"pwd" ~version:3 in
  let ack = feed_bytes hello in
  check tint "handshake ack" 1 (String.length ack);
  let msg =
    Qipc.Codec.encode_message
      { mt = Qipc.Codec.Sync; body = Qipc.Codec.Query "select Price from trades" }
  in
  let reply = feed_bytes msg in
  (match Qipc.Codec.decode_message reply with
  | { Qipc.Codec.body = Qipc.Codec.Value (QV.Table t); _ }, _ ->
      check tint "3 rows" 3 (QV.table_length t)
  | _ -> Alcotest.fail "expected a table reply")

(* A malformed frame gets one QIPC error reply and closes the
   connection: no hang, no escaping exception, no later query runs. *)
let expect_malformed_closes name patch =
  let p = platform () in
  let conn = P.connect p in
  let ep = conn.P.endpoint in
  let hello =
    Qipc.Codec.encode_handshake ~user:"trader" ~password:"pwd" ~version:3
  in
  ignore (Platform.Endpoint.feed ep hello);
  let query () =
    Qipc.Codec.encode_message
      { mt = Qipc.Codec.Sync; body = Qipc.Codec.Query "select Price from trades" }
  in
  let frame = Bytes.of_string (query ()) in
  patch frame;
  let reply = Platform.Endpoint.feed ep (Bytes.to_string frame) in
  (match Qipc.Codec.decode_message reply with
  | { Qipc.Codec.body = Qipc.Codec.Error _; _ }, n ->
      check tint (name ^ ": one error reply") (String.length reply) n
  | _ -> Alcotest.failf "%s: expected a QIPC error reply" name);
  check tbool (name ^ ": closed") true (Platform.Endpoint.is_closed ep);
  check tint (name ^ ": later queries get no reply") 0
    (String.length (Platform.Endpoint.feed ep (query ())))

let test_hostile_length_below_header () =
  (* a frame of length 0 consumes no bytes: accepted, [feed] would decode
     and run the same query forever *)
  expect_malformed_closes "length 0" (fun b -> Bytes.set_int32_le b 4 0l)

let test_hostile_endianness () =
  expect_malformed_closes "endianness byte 0" (fun b -> Bytes.set b 0 '\000')

let test_hostile_message_type () =
  expect_malformed_closes "message type 7" (fun b -> Bytes.set b 1 '\007')

let test_hostile_negative_compressed_length () =
  expect_malformed_closes "negative compressed length" (fun b ->
      Bytes.set b 2 '\001';
      Bytes.set_int32_le b 4 (-5l))

let test_hostile_negative_count () =
  expect_malformed_closes "negative element count" (fun b ->
      Bytes.set_int32_le b 10 (-1l))

(* Every select crosses the PG v3 wire, whether the vectorized executor
   gathered plain columns or evaluated an expression, so a nanosecond
   timestamp comes back at PG's microsecond precision on every path. *)
let test_timestamp_precision_same_on_every_path () =
  let db = Db.create () in
  Db.load_table db
    (S.table ~order_col:"hq_ord" "t"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "ts" Ty.TTimestamp;
         S.column "px" Ty.TDouble;
       ])
    [
      [| V.Int 0L; V.Timestamp 1_000_000_001L; V.Float 1.5 |];
      [| V.Int 1L; V.Timestamp 2_500_000_999L; V.Float 2.5 |];
    ];
  let c = P.Client.connect (P.create db) in
  let ts q =
    match ok (P.Client.query c q) with
    | QV.Table t -> QV.column_exn t "ts"
    | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)
  in
  let micros =
    QV.vector_of_atoms
      [| QA.Timestamp 1_000_000_000L; QA.Timestamp 2_500_000_000L |]
  in
  List.iter
    (fun q -> check tbool q true (QV.equal (ts q) micros))
    [ "select ts from t"; "select ts, px from t"; "select ts, y:px*1 from t" ]

let test_temp_tables_released_on_disconnect () =
  (* physical materialization creates session temp tables; disconnect must
     release them in the backend *)
  let db = make_db () in
  let config = Hyperq.Engine.default_config () in
  config.Hyperq.Engine.materialization <- `Physical;
  let p = P.create ~engine_config:(fun () -> config) db in
  ignore config;
  let c = P.Client.connect p in
  ignore (ok (P.Client.query c "dt: select Price from trades where Symbol=`A"));
  P.Client.close c;
  (* a later session must not see hq_temp_1 *)
  let sess = Db.open_session db in
  match Db.exec sess "SELECT * FROM hq_temp_1" with
  | exception Pgdb.Errors.Sql_error { code = "42P01"; _ } -> ()
  | _ -> Alcotest.fail "temp table leaked across sessions"

let test_large_result_compressed_end_to_end () =
  (* a workload-sized result crosses the 2000-byte QIPC threshold, so the
     response travels compressed and must decode transparently *)
  let d = Workload.Marketdata.generate Workload.Marketdata.small_scale in
  let db = Db.create () in
  Workload.Marketdata.load_pg db d;
  let p = P.create db in
  let c = P.Client.connect p in
  match ok (P.Client.query c "select Symbol, Time, Price, Size from trades") with
  | QV.Table t ->
      check tint "all rows across the wire" (Array.length d.Workload.Marketdata.trades)
        (QV.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_async_messages_get_no_reply () =
  (* async QIPC messages execute but produce no response bytes *)
  let p = platform () in
  let conn = P.connect p in
  let hello = Qipc.Codec.encode_handshake ~user:"trader" ~password:"pwd" ~version:3 in
  ignore (Platform.Endpoint.feed conn.P.endpoint hello);
  let async_set =
    Qipc.Codec.encode_message
      { mt = Qipc.Codec.Async; body = Qipc.Codec.Query "lim:10.5" }
  in
  let reply = Platform.Endpoint.feed conn.P.endpoint async_set in
  check tint "no reply to async" 0 (String.length reply);
  (* but its side effect is visible to the next sync query *)
  let sync =
    Qipc.Codec.encode_message
      { mt = Qipc.Codec.Sync;
        body = Qipc.Codec.Query "select Price from trades where Price>lim" }
  in
  let reply = Platform.Endpoint.feed conn.P.endpoint sync in
  match Qipc.Codec.decode_message reply with
  | { Qipc.Codec.body = Qipc.Codec.Value (QV.Table t); _ }, _ ->
      check tint "filtered by async-set variable" 2 (QV.table_length t)
  | _ -> Alcotest.fail "expected table"

let test_multiple_queries_one_connection () =
  let p = platform () in
  let c = P.Client.connect p in
  for i = 1 to 10 do
    match ok (P.Client.query c "select Price from trades") with
    | QV.Table t -> check tint (Printf.sprintf "round %d" i) 3 (QV.table_length t)
    | _ -> Alcotest.fail "expected table"
  done

let () =
  Alcotest.run "platform"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "select over QIPC+PGv3 bytes" `Quick
            test_end_to_end_select;
          Alcotest.test_case "aggregate over wire" `Quick
            test_end_to_end_aggregate;
          Alcotest.test_case "errors travel as QIPC" `Quick
            test_error_travels_as_qipc;
          Alcotest.test_case "auth rejection" `Quick
            test_bad_credentials_rejected;
          Alcotest.test_case "shared globals" `Quick
            test_globals_shared_across_connections;
          Alcotest.test_case "session promotion" `Quick
            test_session_promotion_on_disconnect;
          Alcotest.test_case "XC FSM transitions" `Quick test_fsm_transitions;
          Alcotest.test_case "function over wire" `Quick
            test_function_definition_and_call_over_wire;
          Alcotest.test_case "fragmented QIPC delivery" `Quick
            test_fragmented_qipc_delivery;
          Alcotest.test_case "QIPC length below header closes" `Quick
            test_hostile_length_below_header;
          Alcotest.test_case "QIPC bad endianness closes" `Quick
            test_hostile_endianness;
          Alcotest.test_case "QIPC unknown message type closes" `Quick
            test_hostile_message_type;
          Alcotest.test_case "QIPC negative compressed length closes" `Quick
            test_hostile_negative_compressed_length;
          Alcotest.test_case "QIPC negative element count closes" `Quick
            test_hostile_negative_count;
          Alcotest.test_case "timestamp precision same on every path" `Quick
            test_timestamp_precision_same_on_every_path;
          Alcotest.test_case "temp tables released on disconnect" `Quick
            test_temp_tables_released_on_disconnect;
          Alcotest.test_case "large result compressed end-to-end" `Quick
            test_large_result_compressed_end_to_end;
          Alcotest.test_case "async messages" `Quick
            test_async_messages_get_no_reply;
          Alcotest.test_case "many queries per connection" `Quick
            test_multiple_queries_one_connection;
        ] );
    ]
