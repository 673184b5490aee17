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
  expect_contains "responding";
  (* the XC keeps only the request in flight: a second request replaces
     the first one's states instead of appending to them *)
  let again () =
    (match Platform.Xc.process conn.P.xc "select Size from trades" with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    Platform.Xc.transitions conn.P.xc
  in
  let ts2 = again () in
  let ts' = again () in
  check tint "one request's states" (List.length ts2) (List.length ts');
  check tint "parsed once" 1
    (List.length (List.filter (( = ) "parsing_request") ts'))

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

let hello () =
  Qipc.Codec.encode_handshake ~user:"trader" ~password:"pwd" ~version:3

(* one-byte strings made up front, so a byte-at-a-time feed loop
   allocates nothing of its own *)
let single_bytes = Array.init 256 (fun i -> String.make 1 (Char.chr i))

let feed_one_at_a_time ep (s : string) : string =
  let out = Buffer.create 64 in
  String.iter
    (fun ch ->
      Buffer.add_string out
        (Platform.Endpoint.feed ep single_bytes.(Char.code ch)))
    s;
  Buffer.contents out

(* a ~20 KB frame fed one byte per call: the endpoint keeps the partial
   frame in a growing buffer and reads its header once, so the whole
   delivery allocates a small multiple of the frame (the decoded vector
   of 2,500 boxed longs is most of it), not a copy of the pending bytes
   per call *)
let test_one_byte_feed_allocation () =
  let p = platform () in
  let ep = (P.connect p).P.endpoint in
  check tint "handshake ack" 1 (String.length (Platform.Endpoint.feed ep (hello ())));
  let rng = Random.State.make [| 11 |] in
  let frame =
    Qipc.Codec.encode_message
      {
        mt = Qipc.Codec.Sync;
        body =
          Qipc.Codec.Value
            (QV.vector_of_atoms
               (Array.init 2500 (fun _ ->
                    QA.Long (Random.State.int64 rng Int64.max_int))));
      }
  in
  check tbool "incompressible: sent uncompressed" true (frame.[2] = '\000');
  let a0 = Gc.allocated_bytes () in
  let reply = feed_one_at_a_time ep frame in
  let allocated = Gc.allocated_bytes () -. a0 in
  (match Qipc.Codec.decode_message reply with
  | { Qipc.Codec.body = Qipc.Codec.Error e; _ }, n ->
      check tint "one reply" (String.length reply) n;
      check tbool "the endpoint wants queries" true
        (e = "endpoint expects query messages")
  | _ -> Alcotest.fail "expected an error reply");
  check tbool "connection stays open" false (Platform.Endpoint.is_closed ep);
  let bound = 32 * String.length frame in
  if allocated > float_of_int bound then
    Alcotest.failf "%.0f bytes allocated for a %d-byte frame (bound %d)"
      allocated (String.length frame) bound

(* 20,000 handshake bytes with no NUL: the endpoint closes once the
   handshake passes its bound, without a reply and without buffering
   the rest *)
let test_unterminated_handshake_closes () =
  let p = platform () in
  let ep = (P.connect p).P.endpoint in
  let junk = String.make 20_000 'a' in
  let a0 = Gc.allocated_bytes () in
  let reply = feed_one_at_a_time ep junk in
  let allocated = Gc.allocated_bytes () -. a0 in
  check tint "no reply" 0 (String.length reply);
  check tbool "closed" true (Platform.Endpoint.is_closed ep);
  let ep' = (P.connect p).P.endpoint in
  let cut = String.sub junk 0 (Platform.Endpoint.max_handshake_bytes - 1) in
  ignore (Platform.Endpoint.feed ep' cut);
  check tbool "open below the bound" false (Platform.Endpoint.is_closed ep');
  ignore (Platform.Endpoint.feed ep' "a");
  check tbool "closed at the bound" true (Platform.Endpoint.is_closed ep');
  check tint "a later handshake gets no reply" 0
    (String.length (Platform.Endpoint.feed ep (hello ())));
  if allocated > float_of_int (2 * String.length junk) then
    Alcotest.failf "%.0f bytes allocated for %d handshake bytes" allocated
      (String.length junk)

(* Mutation fuzz of the QIPC input path: valid handshake + query streams
   (one of them long enough to travel compressed) with bit flips,
   truncation, edits to a frame's length field and compressed flag, fed
   in random chunks. Every feed returns whole reply messages; a
   protocol error is exactly one "malformed message" reply, after which
   the connection is closed and stays silent. No exception escapes, and
   an unmutated stream gets every reply. *)
let fuzz_queries =
  [|
    "select Price from trades where Symbol=`A";
    "select mx:max Price by Symbol from trades";
    "select from trades where Size>150";
    "select Price from trades where Symbol in "
    ^ String.concat "" (List.init 700 (fun i -> if i mod 2 = 0 then "`A" else "`B"));
  |]

type mutation =
  | Flip of int * int  (** byte position (mod length), bit *)
  | Truncate of int  (** keep this many bytes (mod length) *)
  | Length of int * int32  (** frame index, new length field *)
  | Compressed of int  (** frame index: toggle the compressed flag *)

let fuzz_gen =
  let open QCheck.Gen in
  let mutation =
    frequency
      [
        (4, map2 (fun p b -> Flip (p, b)) nat (int_bound 7));
        (1, map (fun n -> Truncate n) nat);
        (2, map2 (fun f l -> Length (f, l)) (int_bound 3) (map Int32.of_int (int_range (-20) 4000)));
        (1, map2 (fun f l -> Length (f, l)) (int_bound 3) int32);
        (2, map (fun f -> Compressed f) (int_bound 3));
      ]
  in
  triple
    (list_size (int_range 1 4) (int_bound (Array.length fuzz_queries - 1)))
    (list_size (int_range 0 3) mutation)
    (list_size (return 64) (int_range 1 97))

let fuzz_print (qs, ms, _) =
  Printf.sprintf "queries %s; mutations %s"
    (String.concat "," (List.map string_of_int qs))
    (String.concat ","
       (List.map
          (function
            | Flip (p, b) -> Printf.sprintf "flip(%d,%d)" p b
            | Truncate n -> Printf.sprintf "truncate(%d)" n
            | Length (f, l) -> Printf.sprintf "length(%d,%ld)" f l
            | Compressed f -> Printf.sprintf "compressed(%d)" f)
          ms))

let fuzz_platform = lazy (platform ())

let fuzz_stream (qs, ms, _) : string =
  let hs = hello () in
  let frames =
    List.map
      (fun i ->
        Qipc.Codec.encode_message
          { mt = Qipc.Codec.Sync; body = Qipc.Codec.Query fuzz_queries.(i) })
      qs
  in
  let starts =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) f -> (off + String.length f, off :: acc))
            (String.length hs, []) frames))
  in
  let b = Bytes.of_string (String.concat "" (hs :: frames)) in
  let frame_at f = List.nth starts (f mod List.length starts) in
  let len = ref (Bytes.length b) in
  List.iter
    (function
      | Flip (p, bit) ->
          if !len > 0 then begin
            let p = p mod !len in
            Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)))
          end
      | Truncate n -> len := n mod (!len + 1)
      | Length (f, l) ->
          let o = frame_at f + 4 in
          if o + 4 <= !len then Bytes.set_int32_le b o l
      | Compressed f ->
          let o = frame_at f + 2 in
          if o < !len then
            Bytes.set b o (if Bytes.get b o = '\000' then '\001' else '\000'))
    ms;
  Bytes.sub_string b 0 !len

let is_malformed = function
  | Qipc.Codec.Error e ->
      String.length e >= 17 && String.sub e 0 17 = "malformed message"
  | _ -> false

let fuzz_property ((queries, mutations, chunks) as case) =
  let conn = P.connect (Lazy.force fuzz_platform) in
  let ep = conn.P.endpoint in
  let stream = fuzz_stream case in
  let connected = ref false and closed = ref false and replies = ref 0 in
  let rec feed_chunks off = function
    | _ when off >= String.length stream -> ()
    | [] -> feed_chunks off [ String.length stream ]
    | n :: rest ->
        let n = min n (String.length stream - off) in
        let reply =
          match Platform.Endpoint.feed ep (String.sub stream off n) with
          | r -> r
          | exception e ->
              QCheck.Test.fail_reportf "feed raised %s" (Printexc.to_string e)
        in
        let is_closed = Platform.Endpoint.is_closed ep in
        if !closed && reply <> "" then
          QCheck.Test.fail_report "a closed connection replied";
        (* the handshake acceptance is one byte, before any message *)
        let body =
          if (not !connected) && reply <> "" then begin
            connected := true;
            String.sub reply 1 (String.length reply - 1)
          end
          else reply
        in
        let rec messages pos acc =
          if pos >= String.length body then List.rev acc
          else
            match Qipc.Codec.decode_frame body pos with
            | m, used -> messages (pos + used) (m.Qipc.Codec.body :: acc)
            | exception _ -> QCheck.Test.fail_report "a reply is not whole QIPC"
        in
        let ms = messages 0 [] in
        replies := !replies + List.length ms;
        let malformed = List.filter is_malformed ms in
        (match (is_closed, List.rev ms) with
        | false, _ when malformed <> [] ->
            QCheck.Test.fail_report "a malformed-message reply left the connection open"
        | true, last :: _ when not (is_malformed last) && not !closed ->
            QCheck.Test.fail_report "closed without a malformed-message reply last"
        | _ -> ());
        if List.length malformed > 1 then
          QCheck.Test.fail_report "more than one malformed-message reply";
        closed := is_closed;
        feed_chunks (off + n) rest
  in
  feed_chunks 0 chunks;
  (* an unmutated stream, however it is chunked, gets one reply per
     query, the handshake's chunk included *)
  if mutations = [] && (!closed || !replies <> List.length queries) then
    QCheck.Test.fail_reportf "unmutated stream: %d replies to %d queries%s"
      !replies (List.length queries)
      (if !closed then ", closed" else "");
  P.disconnect conn;
  true

let test_qipc_mutation_fuzz =
  QCheck.Test.make ~count:500 ~name:"QIPC mutation fuzz of Endpoint.feed"
    (QCheck.make ~print:fuzz_print fuzz_gen)
    fuzz_property

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

(* ------------------------------------------------------------------ *)
(* Bounded per-request state                                           *)
(* ------------------------------------------------------------------ *)

module MD = Workload.Marketdata

(* A long-lived proxy must not keep anything per request it served:
   after a warm-up that fills every bounded cache (plan cache 512,
   fingerprint store 512, pgdb statement cache 256, selectivity store
   1,024), 10,000 more requests of one traffic mix leave the platform
   and its connection holding less than one more live word per
   request. The time-series ring is held still (its interval never
   elapses): it fills with wall-clock time, not with requests. *)
let live_words_per_request ~shards (mix : Random.State.t -> string) : float =
  let d = MD.generate MD.small_scale in
  let db = Db.create () in
  MD.load_pg db d;
  let registry = Obs.Metrics.create () in
  let obs =
    Obs.Ctx.create ~registry
      ~timeseries:(Obs.Timeseries.create ~interval_s:1e9 registry)
      ()
  in
  let p = P.create ~obs ~shards db in
  Fun.protect
    ~finally:(fun () -> P.shutdown p)
    (fun () ->
      let c = P.Client.connect p in
      let rng = Random.State.make [| 7 |] in
      let run n =
        for _ = 1 to n do
          ignore (ok (P.Client.query c (mix rng)))
        done
      in
      let live () =
        Gc.full_major ();
        Obj.reachable_words (Obj.repr (p, c))
      in
      let requests = 10_000 in
      run 4_000;
      let before = live () in
      run requests;
      let after = live () in
      float_of_int (after - before) /. float_of_int requests)

let mix_of (d : MD.dataset) (shapes : (Random.State.t -> MD.dataset -> string) array) rng =
  shapes.(Random.State.int rng (Array.length shapes)) rng d

let pick rng (a : 'a array) = a.(Random.State.int rng (Array.length a))
let sym rng (d : MD.dataset) = pick rng d.MD.syms

(* the dashboard mix: repeated parameterized shapes, plan-cache hits *)
let dashboard_shapes =
  [|
    (fun rng d -> Printf.sprintf "select from trades where Symbol=`%s" (sym rng d));
    (fun rng _ ->
      Printf.sprintf "select s:sum Size from trades where Price>%d"
        (Random.State.int rng 200));
    (fun rng d ->
      Printf.sprintf "select last Price by Symbol from trades where Symbol in `%s`%s"
        (sym rng d) (sym rng d));
    (fun rng _ ->
      Printf.sprintf "select lo:min Price, hi:max Price by Exch from trades where Size>%d"
        (100 * Random.State.int rng 40));
  |]

(* the session mix: assignments, function definitions and calls, and
   literal-table joins, every one a plan-cache miss *)
let session_shapes =
  [|
    (fun rng d -> Printf.sprintf "t:select from trades where Symbol=`%s" (sym rng d));
    (fun _ _ -> "select qty:sum Size, px:avg Price, n:count Price from t");
    (fun rng d ->
      Printf.sprintf
        "f:{[s;k] select n:count Price, hi:max Price from trades where \
         Symbol=s, Size>k}; f[`%s;%d]"
        (sym rng d) (100 * Random.State.int rng 40));
    (fun rng d ->
      let a = sym rng d and b = sym rng d in
      Printf.sprintf
        "select Symbol, Time, Price, w from (trades lj ([Symbol:`%s`%s] \
         w:%d.5 %d.5)) where Symbol in `%s`%s"
        a b (Random.State.int rng 9) (Random.State.int rng 9) a b);
  |]

(* the sharded mix: partial aggregates scattered to both shards *)
let scatter_shapes =
  [|
    (fun rng _ ->
      Printf.sprintf
        "select n:count Price, qty:sum Size, hi:max Price by Symbol from \
         trades where Price>%d"
        (Random.State.int rng 200));
    (fun rng _ ->
      Printf.sprintf "select n:count Price, px:avg Price from trades where Size>%d"
        (100 * Random.State.int rng 45));
    (fun rng d ->
      Printf.sprintf
        "select n:count Price, lo:min Price by Symbol from trades where \
         Symbol in `%s`%s"
        (sym rng d) (sym rng d));
  |]

let test_live_words_bounded () =
  let d = MD.generate MD.small_scale in
  List.iter
    (fun (name, shards, shapes) ->
      let w = live_words_per_request ~shards (mix_of d shapes) in
      Printf.printf "%s: %.3f live words per request\n%!" name w;
      if w >= 1.0 then
        Alcotest.failf "%s: %.2f live words kept per request (bound 1)" name w)
    [
      ("dashboard", 1, dashboard_shapes);
      ("session", 1, session_shapes);
      ("2-shard scatter", 2, scatter_shapes);
    ]

let () =
  Alcotest.run "platform"
    [
      ( "memory",
        [
          Alcotest.test_case "live words per request bounded" `Slow
            test_live_words_bounded;
        ] );
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
          Alcotest.test_case "QIPC one-byte feed allocates linearly" `Quick
            test_one_byte_feed_allocation;
          Alcotest.test_case "QIPC unterminated handshake closes" `Quick
            test_unterminated_handshake_closes;
          QCheck_alcotest.to_alcotest test_qipc_mutation_fuzz;
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
