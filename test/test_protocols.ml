(* Byte-level tests for the QIPC and PG v3 wire protocol codecs. *)

open Qvalue
module QC = Qipc.Codec
module PC = Pgwire.Codec

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

(* ------------------------------------------------------------------ *)
(* QIPC                                                                *)
(* ------------------------------------------------------------------ *)

let roundtrip_value v =
  let msg = QC.encode_message { QC.mt = QC.Response; body = QC.Value v } in
  match QC.decode_message msg with
  | { QC.body = QC.Value v'; _ }, consumed ->
      check tint "consumed everything" (String.length msg) consumed;
      if not (Value.equal v v') then
        Alcotest.failf "roundtrip mismatch: %s vs %s" (Qprint.to_string v)
          (Qprint.to_string v')
  | _ -> Alcotest.fail "expected a value body"

let test_qipc_atoms () =
  List.iter roundtrip_value
    [
      Value.int 42;
      Value.int (-1);
      Value.float 3.5;
      Value.bool true;
      Value.sym "GOOG";
      Value.null Qtype.Long;
      Value.null Qtype.Float;
      Value.null Qtype.Sym;
      Value.date 6021;
      Value.time 34200000;
      Value.timestamp 1234567890123456789L;
    ]

let test_qipc_vectors () =
  List.iter roundtrip_value
    [
      Value.longs [| 1; 2; 3 |];
      Value.floats [| 1.5; 2.5 |];
      Value.syms [| "a"; "b"; "c" |];
      Value.bools [| true; false; true |];
      Value.string_ "hello world";
      Value.vector Qtype.Long [| Atom.Long 1L; Atom.Null Qtype.Long |];
      Value.List [| Value.int 1; Value.sym "mixed"; Value.string_ "list" |];
    ]

let test_qipc_tables () =
  roundtrip_value
    (Value.Table
       (Value.table
          [
            ("sym", Value.syms [| "a"; "b" |]);
            ("px", Value.floats [| 1.0; 2.0 |]);
            ("qty", Value.longs [| 10; 20 |]);
          ]));
  roundtrip_value
    (Value.Dict (Value.syms [| "k1"; "k2" |], Value.longs [| 1; 2 |]));
  roundtrip_value
    (Value.xkey [ "s" ]
       (Value.table
          [ ("s", Value.syms [| "a" |]); ("v", Value.longs [| 7 |]) ]))

let test_qipc_column_orientation () =
  (* Figure 5: QIPC sends a table as column vectors — the bytes for column
     c1 (both rows) precede the bytes for column c2 *)
  let t =
    Value.Table
      (Value.table
         [ ("c1", Value.longs [| 1; 2 |]); ("c2", Value.longs [| 1; 2 |]) ])
  in
  let msg = QC.encode_message { QC.mt = QC.Response; body = QC.Value t } in
  (* body: ... `c1`c2 then list of two long-vectors; each long vector holds
     1 then 2 contiguously *)
  let payload = String.sub msg 8 (String.length msg - 8) in
  let find_sub hay needle from =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      if i + n > h then -1
      else if String.sub hay i n = needle then i
      else go (i + 1)
    in
    go from
  in
  let one_two =
    (* 1L then 2L little-endian back to back *)
    "\001\000\000\000\000\000\000\000\002\000\000\000\000\000\000\000"
  in
  let first = find_sub payload one_two 0 in
  check tbool "column 1 contiguous" true (first >= 0);
  let second = find_sub payload one_two (first + 1) in
  check tbool "column 2 contiguous after column 1" true (second > first)

let test_qipc_error_roundtrip () =
  let msg =
    QC.encode_message { QC.mt = QC.Response; body = QC.Error "type" }
  in
  match QC.decode_message msg with
  | { QC.body = QC.Error e; _ }, _ -> check tstr "error text" "type" e
  | _ -> Alcotest.fail "expected an error body"

let test_qipc_query_roundtrip () =
  let msg =
    QC.encode_message
      { QC.mt = QC.Sync; body = QC.Query "select from trades" }
  in
  match QC.decode_message msg with
  | { QC.mt = QC.Sync; body = QC.Query q }, _ ->
      check tstr "query text" "select from trades" q
  | _ -> Alcotest.fail "expected a query body"

let test_qipc_handshake () =
  let hello = QC.encode_handshake ~user:"trader" ~password:"pwd" ~version:3 in
  let h = QC.decode_handshake hello in
  check tstr "user" "trader" h.QC.user;
  check tstr "password" "pwd" h.QC.password;
  check tint "version" 3 h.QC.version

let test_qipc_truncated () =
  let msg = QC.encode_message { QC.mt = QC.Sync; body = QC.Query "x" } in
  let cut = String.sub msg 0 (String.length msg - 2) in
  match QC.decode_message cut with
  | exception QC.Decode_error _ -> ()
  | _ -> Alcotest.fail "truncated message must not decode"

let query_frame q = QC.encode_message { QC.mt = QC.Sync; body = QC.Query q }

(* ------------------------------------------------------------------ *)
(* QIPC compression                                                    *)
(* ------------------------------------------------------------------ *)

let big_table n =
  Value.Table
    (Value.table
       [
         ("sym", Value.syms (Array.init n (fun i -> Printf.sprintf "S%02d" (i mod 20))));
         ("px", Value.floats (Array.init n (fun i -> float_of_int (i mod 100) /. 4.0)));
         ("qty", Value.longs (Array.init n (fun i -> (i mod 7) * 100)));
       ])

let test_compression_kicks_in () =
  let v = big_table 5000 in
  let plain =
    QC.encode_message ~compress:false { QC.mt = QC.Response; body = QC.Value v }
  in
  let packed =
    QC.encode_message { QC.mt = QC.Response; body = QC.Value v }
  in
  check tbool "over the 2000-byte threshold" true (String.length plain > 2000);
  check tbool "compressed flag set" true (packed.[2] = '\001');
  check tbool "actually smaller" true
    (String.length packed < String.length plain);
  (* transparently decodes back to the same value *)
  match QC.decode_message packed with
  | { QC.body = QC.Value v'; _ }, consumed ->
      check tint "consumed the compressed length" (String.length packed)
        consumed;
      check tbool "roundtrip" true (Value.equal v v')
  | _ -> Alcotest.fail "expected a value body"

let test_small_messages_stay_plain () =
  let msg = QC.encode_message { QC.mt = QC.Sync; body = QC.Query "1+1" } in
  check tbool "uncompressed flag" true (msg.[2] = '\000')

(* kdb+ compresses messages over 2000 bytes: a char vector of n bytes
   is a 14 + n byte message *)
let test_compression_threshold () =
  let msg n =
    QC.encode_message
      { QC.mt = QC.Response; body = QC.Value (Value.string_ (String.make n 'x')) }
  in
  let at = msg 1986 and over = msg 1987 in
  check tint "2000-byte message" 2000 (String.length at);
  check tbool "2000 bytes stay plain" true (at.[2] = '\000');
  check tbool "2001 bytes compress" true (over.[2] = '\001');
  check tbool "and shrink" true (String.length over < 2001)

let test_corrupt_compressed_rejected () =
  let v = big_table 5000 in
  let packed = QC.encode_message { QC.mt = QC.Response; body = QC.Value v } in
  (* flip a byte in the compressed stream *)
  let bad = Bytes.of_string packed in
  Bytes.set bad (String.length packed / 2) '\255';
  match QC.decode_message (Bytes.to_string bad) with
  | exception QC.Decode_error _ -> ()
  | { QC.body = QC.Value v'; _ }, _ ->
      (* a flipped byte may still decode structurally; it must at least not
         reproduce the original value *)
      check tbool "corruption detected or value changed" false
        (Value.equal v v')
  | _ -> ()

let test_qipc_frame_incomplete () =
  (* every proper prefix is Incomplete, never malformed; back-to-back
     frames decode at their offsets *)
  let a = query_frame "select from trades" and b = query_frame "1+1" in
  let packed =
    QC.encode_message
      { QC.mt = QC.Response; body = QC.Value (big_table 5000) }
  in
  check tbool "compressed frame" true (packed.[2] = '\001');
  List.iter
    (fun m ->
      for n = 0 to String.length m - 1 do
        match QC.decode_frame (String.sub m 0 n) 0 with
        | exception QC.Incomplete -> ()
        | exception QC.Decode_error e ->
            Alcotest.failf "prefix of %d bytes called malformed: %s" n e
        | _ -> Alcotest.failf "prefix of %d bytes decoded" n
      done)
    [ a; packed ];
  let both = a ^ b in
  let _, n = QC.decode_frame both 0 in
  check tint "first frame length" (String.length a) n;
  match QC.decode_frame both n with
  | { QC.body = QC.Query q; _ }, m ->
      check tstr "second frame" "1+1" q;
      check tint "second frame length" (String.length b) m
  | _ -> Alcotest.fail "expected the second query"

let expect_malformed name data =
  match QC.decode_frame data 0 with
  | exception QC.Decode_error _ -> ()
  | exception QC.Incomplete -> Alcotest.failf "%s: waits for more bytes" name
  | _ -> Alcotest.failf "%s: decoded" name

(* the endpoint tests in test_platform.ml cover the malformed headers;
   these are the body reads the frame must bound *)
let test_qipc_frame_malformed () =
  let patch f =
    let b = Bytes.of_string (query_frame "select from trades") in
    f b;
    Bytes.to_string b
  in
  (* a count the frame cannot hold is rejected before any allocation *)
  expect_malformed "element count past the frame"
    (patch (fun b -> Bytes.set_int32_le b 10 0x7fffffffl));
  (* a frame that claims fewer bytes than its body must not read the
     next frame's bytes *)
  let short = patch (fun b -> Bytes.set_int32_le b 4 20l) in
  expect_malformed "body past its frame" (short ^ query_frame "1+1")

let test_decompress_rejects_inflated_claim () =
  (* a 13-byte compressed message claiming a 100 MB original cannot be
     honest: one flags byte and nothing else expands to 8 bytes at most *)
  let b = Bytes.make 13 '\000' in
  Bytes.set b 0 '\001';
  Bytes.set b 2 '\001';
  Bytes.set_int32_le b 4 13l;
  Bytes.set_int32_le b 8 100_000_000l;
  match Qipc.Compress.decompress (Bytes.to_string b) with
  | exception Qipc.Compress.Corrupt _ -> ()
  | _ -> Alcotest.fail "inflated length claim must be rejected"

(* A message of [body] under an 8-byte response header, as the
   compressor sees a frame *)
let raw_message body =
  let hdr = Bytes.create 8 in
  Bytes.set hdr 0 '\001';
  Bytes.set hdr 1 '\002';
  Bytes.set hdr 2 '\000';
  Bytes.set hdr 3 '\000';
  Bytes.set_int32_le hdr 4 (Int32.of_int (8 + String.length body));
  Bytes.to_string hdr ^ body

(* [k] bytes whose adjacent pairs are all distinct (k <= 256): the
   compressor finds no match in them, so each is one literal *)
let literal_tail k = String.init k (fun i -> Char.chr i)

(* A run of [r] bytes then a [k]-byte literal tail; a run byte other
   than 0 and 255 neither runs on into the tail nor pairs with it. The
   run is two literals and one match (r <= 259), so the compressed
   frame is 12 + 4 + k + ceil((k + 3) / 8) bytes. With
   r = 8 + ceil((k + 3) / 8) that is exactly the message's length, the
   largest frame the
   [> t - 14] give-up rule lets the compressor finish, which the final
   size check then refuses; one byte more of run makes it one byte
   shorter than the message, the smallest saving that is taken. *)
let cutoff_message ?(run = 'a') ~under k =
  let r = 8 + ((k + 3 + 7) / 8) + if under then 1 else 0 in
  raw_message (String.make r run ^ literal_tail k)

(* Compressed frames as the byte-at-a-time compressor produced them,
   pinned as length and MD5: a faster compressor must write the same
   bytes. [None] is a message that stays plain. *)
let golden_frames =
  [
    ( "big_table 5000",
      QC.encode_message ~compress:false
        { QC.mt = QC.Response; body = QC.Value (big_table 5000) },
      Some (19913, "80528fcc6878cbc739c1274893d5ff84") );
    ( "600-byte run",
      raw_message (String.make 600 'a' ^ "end"),
      Some (24, "b9ff034cfb944274543736d900e337f3") );
    ( "cutoff, one byte under",
      cutoff_message ~under:true 200,
      Some (242, "50c2bca2ca97fb96f391f7d40debf6db") );
    ("cutoff exactly", cutoff_message ~under:false 200, None);
  ]

let test_golden_compressed_frames () =
  List.iter
    (fun (name, msg, want) ->
      let got =
        Option.map
          (fun c -> (String.length c, Digest.to_hex (Digest.string c)))
          (Qipc.Compress.compress msg)
      in
      check
        Alcotest.(option (pair int string))
        (name ^ " compressed frame") want got)
    golden_frames;
  (* the run's first match starts at the third byte and references the
     first: it overlaps itself and runs the full 257 bytes, hash 'a' xor
     'a' and length byte 257 - 2 *)
  let _, run, _ = List.nth golden_frames 1 in
  match Qipc.Compress.compress run with
  | Some c ->
      check tstr "first match item" "\000\255" (String.sub c 15 2);
      check tstr "round trip" run (Bytes.to_string (Qipc.Compress.decompress c))
  | None -> Alcotest.fail "a run must compress"

let compress_roundtrips msg =
  match Qipc.Compress.compress msg with
  | None -> true (* incompressible is a legal outcome *)
  | Some packed -> Bytes.to_string (Qipc.Compress.decompress packed) = msg

let prop_compress_roundtrip =
  QCheck.Test.make ~count:200 ~name:"compress . decompress = id"
    QCheck.(
      pair (int_range 0 3)
        (list_of_size (Gen.int_range 0 600) (int_range 0 255)))
    (fun (variant, bytes) ->
      (* synthesize message-like strings: header + semi-repetitive body *)
      let body =
        match variant with
        | 0 -> String.concat "" (List.map (fun b -> String.make 1 (Char.chr b)) bytes)
        | 1 -> String.concat "" (List.map (fun b -> String.make 4 (Char.chr (b land 0x0f))) bytes)
        | 2 -> String.make (List.length bytes * 3) 'x'
        | _ ->
            String.concat ""
              (List.map (fun b -> Printf.sprintf "row%d|" (b mod 10)) bytes)
      in
      compress_roundtrips (raw_message body))

(* Messages over 64 KiB: table positions past 16 bits, matches that
   reach back further than any short message can *)
let prop_compress_roundtrip_large =
  QCheck.Test.make ~count:10 ~name:"compress . decompress = id past 64 KiB"
    QCheck.(pair (int_range 0 20_000) int)
    (fun (extra, seed) ->
      let rng = Random.State.make [| seed |] in
      let n = 65_536 + extra in
      let body = Bytes.create n in
      let i = ref 0 in
      while !i < n do
        let len = min (n - !i) (1 + Random.State.int rng 300) in
        (if !i > 0 && Random.State.bool rng then
           (* repeat earlier bytes, possibly overlapping the copy *)
           let from = Random.State.int rng !i in
           for k = 0 to len - 1 do
             Bytes.set body (!i + k) (Bytes.get body (from + k))
           done
         else
           for k = 0 to len - 1 do
             Bytes.set body (!i + k) (Char.chr (Random.State.int rng 16))
           done);
        i := !i + len
      done;
      compress_roundtrips (raw_message (Bytes.to_string body)))

(* Bodies at the give-up cutoff (see [cutoff_message]): exactly there
   the message stays plain; one byte under, it compresses to one byte
   less than the message and round-trips *)
let prop_compress_cutoff =
  QCheck.Test.make ~count:200 ~name:"compress at the give-up cutoff"
    QCheck.(triple (int_range 1 254) (int_range 0 256) bool)
    (fun (run, k, under) ->
      let msg = cutoff_message ~run:(Char.chr run) ~under k in
      match Qipc.Compress.compress msg with
      | None -> not under
      | Some packed ->
          under
          && String.length packed = String.length msg - 1
          && Bytes.to_string (Qipc.Compress.decompress packed) = msg)

let test_decompress_at_offset () =
  let packed =
    QC.encode_message { QC.mt = QC.Response; body = QC.Value (big_table 500) }
  in
  check tbool "compressed frame" true (packed.[2] = '\001');
  let prefix = query_frame "select from trades" in
  let data = prefix ^ packed ^ query_frame "1+1" in
  check tbool "same message in place" true
    (Bytes.equal
       (Qipc.Compress.decompress ~off:(String.length prefix) data)
       (Qipc.Compress.decompress packed));
  match QC.decode_frame data (String.length prefix) with
  | { QC.body = QC.Value v; _ }, n ->
      check tint "frame length" (String.length packed) n;
      check tbool "value" true (Value.equal v (big_table 500))
  | _ -> Alcotest.fail "expected a value body"

(* ------------------------------------------------------------------ *)
(* PG v3                                                               *)
(* ------------------------------------------------------------------ *)

let backend_roundtrip m =
  let bytes = PC.encode_backend m in
  let m', consumed = PC.decode_backend bytes in
  check tint "consumed" (String.length bytes) consumed;
  if m <> m' then Alcotest.fail "backend roundtrip mismatch"

let test_pg_backend_messages () =
  backend_roundtrip PC.AuthenticationOk;
  backend_roundtrip PC.AuthenticationCleartextPassword;
  backend_roundtrip (PC.AuthenticationMD5Password "s@lt");
  backend_roundtrip (PC.ParameterStatus ("server_version", "9.2"));
  backend_roundtrip (PC.ReadyForQuery 'I');
  backend_roundtrip
    (PC.RowDescription
       [
         { PC.fd_name = "sym"; fd_type_oid = 1043; fd_format = PC.Text };
         { PC.fd_name = "px"; fd_type_oid = 701; fd_format = PC.Binary };
       ]);
  backend_roundtrip (PC.DataRow [ Some "GOOG"; Some "99.5"; None ]);
  backend_roundtrip (PC.CommandComplete "SELECT 5");
  backend_roundtrip (PC.ErrorResponse { code = "42P01"; message = "missing" });
  backend_roundtrip PC.ParseComplete;
  backend_roundtrip PC.BindComplete;
  backend_roundtrip PC.NoData;
  (* a format code per field: the last Int16 of each field *)
  let rd =
    PC.encode_backend
      (PC.RowDescription
         [ { PC.fd_name = "a"; fd_type_oid = 20; fd_format = PC.Binary } ])
  in
  check tstr "binary format code" "\000\001" (String.sub rd (String.length rd - 2) 2)

let frontend_roundtrip m =
  let bytes = PC.encode_frontend m in
  let m', consumed = PC.decode_frontend bytes in
  check tint "consumed" (String.length bytes) consumed;
  if m <> m' then Alcotest.fail "frontend roundtrip mismatch"

let test_pg_frontend_messages () =
  let q = PC.encode_frontend (PC.Query "SELECT 1") in
  (match PC.decode_frontend q with
  | PC.Query "SELECT 1", consumed -> check tint "consumed" (String.length q) consumed
  | _ -> Alcotest.fail "query roundtrip");
  List.iter frontend_roundtrip
    [
      PC.Parse { stmt = ""; query = "SELECT 1"; param_types = [] };
      PC.Parse { stmt = "s1"; query = "SELECT $1"; param_types = [ 20 ] };
      PC.Bind
        {
          portal = "";
          stmt = "";
          param_formats = [];
          params = [];
          result_formats = [ PC.Binary ];
        };
      PC.Bind
        {
          portal = "p";
          stmt = "s1";
          param_formats = [ PC.Text; PC.Binary ];
          params = [ Some "42"; None ];
          result_formats = [ PC.Text; PC.Binary ];
        };
      PC.Describe (PC.Portal, "");
      PC.Describe (PC.Statement, "s1");
      PC.Execute { portal = ""; max_rows = 0 };
      PC.Execute { portal = "p"; max_rows = 10 };
      PC.Sync;
      PC.Terminate;
    ];
  let s =
    PC.encode_frontend (PC.Startup [ ("user", "app"); ("database", "hq") ])
  in
  match PC.decode_frontend ~in_startup:true s with
  | PC.Startup params, _ ->
      check tstr "user param" "app" (List.assoc "user" params)
  | _ -> Alcotest.fail "startup roundtrip"

let test_pg_row_streaming_shape () =
  (* Figure 5: PG sends row-oriented messages, one per row *)
  let rows =
    [ PC.DataRow [ Some "1"; Some "1" ]; PC.DataRow [ Some "2"; Some "2" ] ]
  in
  let bytes = String.concat "" (List.map PC.encode_backend rows) in
  let m1, c1 = PC.decode_backend bytes in
  let rest = String.sub bytes c1 (String.length bytes - c1) in
  let m2, _ = PC.decode_backend rest in
  (match (m1, m2) with
  | PC.DataRow [ Some "1"; Some "1" ], PC.DataRow [ Some "2"; Some "2" ] -> ()
  | _ -> Alcotest.fail "row stream decode")

(* Figure 5's size contrast: the same 100-row, 3-column result as one
   column-oriented QIPC message and as the PG v3 row stream the Gateway
   reads (RowDescription plus one binary DataRow per row) *)
let test_result_format_bytes () =
  let n = 100 in
  let sym i = Printf.sprintf "S%03d" (i mod 500) in
  let px i = float_of_int i *. 0.01 in
  let qipc =
    QC.encode_message
      {
        QC.mt = QC.Response;
        body =
          QC.Value
            (Value.Table
               (Value.table
                  [
                    ("sym", Value.syms (Array.init n sym));
                    ("px", Value.floats (Array.init n px));
                    ("qty", Value.longs (Array.init n Fun.id));
                  ]));
      }
  in
  let result =
    {
      Pgdb.Exec.res_cols =
        Catalog.Sqltype.[ ("sym", TVarchar); ("px", TDouble); ("qty", TBigint) ];
      res_nrows = n;
      res_columns =
        [|
          Pgdb.Batch.column_init n (fun i -> Pgdb.Value.Str (sym i));
          Pgdb.Batch.column_init n (fun i -> Pgdb.Value.Float (px i));
          Pgdb.Batch.column_init n (fun i -> Pgdb.Value.Int (Int64.of_int i));
        |];
    }
  in
  let buf = Buffer.create 4096 in
  let binary = Array.make 3 PC.Binary in
  PC.add_backend buf (Pgwire.Server.row_description result binary);
  Pgwire.Server.data_rows buf result binary;
  check tint "QIPC message bytes" 1471 (String.length qipc);
  check tint "PG v3 row stream bytes" 3972 (Buffer.length buf)

(* ------------------------------------------------------------------ *)
(* Wire server + client                                                *)
(* ------------------------------------------------------------------ *)

let wire_fixture ?auth ?users () =
  let db = Pgdb.Db.create () in
  Pgdb.Db.load_table db
    (Catalog.Schema.table "t"
       [
         Catalog.Schema.column "a" Catalog.Sqltype.TBigint;
         Catalog.Schema.column "b" Catalog.Sqltype.TVarchar;
       ])
    [
      [| Pgdb.Value.Int 1L; Pgdb.Value.Str "x" |];
      [| Pgdb.Value.Int 2L; Pgdb.Value.Str "y" |];
    ];
  let session = Pgdb.Db.open_session db in
  Pgwire.Server.create ?users ?auth session

(* a wire query's rows, boxed from the columns the client rebuilt *)
let wire_rows (r : Pgwire.Client.query_result) =
  Stored.result_rows r.Pgwire.Client.result

let test_wire_query () =
  let server = wire_fixture () in
  let transport bytes = Pgwire.Server.feed server bytes in
  let client = Pgwire.Client.connect transport in
  match Pgwire.Client.query client "SELECT a, b FROM t ORDER BY a ASC" with
  | Ok ({ Pgwire.Client.tag; _ } as r) ->
      let rows = wire_rows r and columns = r.Pgwire.Client.result.Pgdb.Exec.res_cols in
      check tint "2 rows" 2 r.Pgwire.Client.result.Pgdb.Exec.res_nrows;
      check tint "2 cols" 2 (List.length columns);
      check tstr "tag" "SELECT 2" tag;
      (match rows.(0).(0) with
      | Pgdb.Value.Int 1L -> ()
      | _ -> Alcotest.fail "typed decode of bigint");
      (match rows.(1).(1) with
      | Pgdb.Value.Str "y" -> ()
      | _ -> Alcotest.fail "typed decode of varchar")
  | Error e -> Alcotest.fail e

let test_wire_error () =
  let server = wire_fixture () in
  let transport bytes = Pgwire.Server.feed server bytes in
  let client = Pgwire.Client.connect transport in
  (match Pgwire.Client.query client "SELECT * FROM missing" with
  | Error e ->
      check tbool "carries sqlstate" true
        (String.length e >= 5 && String.sub e 0 5 = "42P01")
  | Ok _ -> Alcotest.fail "expected error");
  (* connection survives errors *)
  match Pgwire.Client.query client "SELECT a FROM t" with
  | Ok r -> check tint "recovered" 2 r.Pgwire.Client.result.Pgdb.Exec.res_nrows
  | Error e -> Alcotest.fail e

let test_wire_md5_auth () =
  let server =
    wire_fixture ~auth:Pgwire.Server.Md5 ~users:[ ("alice", "wonder") ] ()
  in
  let transport bytes = Pgwire.Server.feed server bytes in
  let client = Pgwire.Client.connect ~user:"alice" ~password:"wonder" transport in
  (match Pgwire.Client.query client "SELECT 1 + 1" with
  | Ok r -> check tint "1 row" 1 r.Pgwire.Client.result.Pgdb.Exec.res_nrows
  | Error e -> Alcotest.fail e);
  (* wrong password is rejected *)
  let server2 =
    wire_fixture ~auth:Pgwire.Server.Md5 ~users:[ ("alice", "wonder") ] ()
  in
  let transport2 bytes = Pgwire.Server.feed server2 bytes in
  match Pgwire.Client.connect ~user:"alice" ~password:"nope" transport2 with
  | exception Pgwire.Client.Protocol_error _ -> ()
  | _ -> Alcotest.fail "bad password must be rejected"

let test_wire_cleartext_auth () =
  let server =
    wire_fixture ~auth:Pgwire.Server.Cleartext ~users:[ ("bob", "pw") ] ()
  in
  let transport bytes = Pgwire.Server.feed server bytes in
  let client = Pgwire.Client.connect ~user:"bob" ~password:"pw" transport in
  match Pgwire.Client.query client "SELECT 2 * 21" with
  | Ok r -> (
      match (wire_rows r).(0).(0) with
      | Pgdb.Value.Int 42L -> ()
      | v -> Alcotest.failf "expected 42, got %s" (Pgdb.Value.to_display v))
  | Error e -> Alcotest.fail e

let test_wire_fragmented_delivery () =
  (* byte-at-a-time delivery exercises message reassembly *)
  let server = wire_fixture () in
  let transport bytes =
    let out = Buffer.create 64 in
    String.iter
      (fun c ->
        Buffer.add_string out (Pgwire.Server.feed server (String.make 1 c)))
      bytes;
    if bytes = "" then Buffer.add_string out (Pgwire.Server.feed server "");
    Buffer.contents out
  in
  let client = Pgwire.Client.connect transport in
  match Pgwire.Client.query client "SELECT COUNT(*) FROM t" with
  | Ok r -> (
      match (wire_rows r).(0).(0) with
      | Pgdb.Value.Int 2L -> ()
      | v -> Alcotest.failf "expected 2, got %s" (Pgdb.Value.to_display v))
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Extended protocol                                                   *)
(* ------------------------------------------------------------------ *)

(* a server past its startup handshake *)
let ready_server () =
  let server = wire_fixture () in
  ignore
    (Pgwire.Server.feed server
       (PC.encode_frontend (PC.Startup [ ("user", "app") ])));
  server

(* every backend message of a reply, in order *)
let backend_messages reply =
  let rec go off acc =
    if off >= String.length reply then List.rev acc
    else
      let m, n = PC.decode_backend ~off reply in
      go (off + n) (m :: acc)
  in
  go 0 []

let frontend ms =
  let out = Buffer.create 64 in
  List.iter (PC.add_frontend out) ms;
  Buffer.contents out

let unnamed_batch ?(stmt = "") ?(param_types = []) ?(params = [])
    ?(max_rows = 0) sql =
  frontend
    [
      PC.Parse { stmt; query = sql; param_types };
      PC.Bind
        {
          portal = "";
          stmt = "";
          param_formats = [];
          params;
          result_formats = [ PC.Binary ];
        };
      PC.Describe (PC.Portal, "");
      PC.Execute { portal = ""; max_rows };
      PC.Sync;
    ]

(* the tags of a reply's messages, with each error's SQLSTATE *)
let shape reply =
  String.concat " "
    (List.map
       (function
         | PC.ErrorResponse { code; _ } -> "E" ^ code
         | m -> String.make 1 (PC.encode_backend m).[0])
       (backend_messages reply))

let test_extended_batch_reply () =
  let server = ready_server () in
  check tstr "rows" "1 2 T D D C Z"
    (shape (Pgwire.Server.feed server (Pgwire.Client.batch "SELECT a, b FROM t")));
  check tstr "no rows: NoData" "1 2 n C Z"
    (shape
       (Pgwire.Server.feed server
          (Pgwire.Client.batch "CREATE TEMPORARY TABLE u AS SELECT a FROM t")));
  check tstr "empty query" "1 2 n I Z"
    (shape (Pgwire.Server.feed server (Pgwire.Client.batch "")));
  (* the statement cache serves Parse with exec_script's key and counters *)
  let hits, misses, _ = Pgdb.Db.stmt_cache_stats () in
  ignore (Pgwire.Server.feed server (Pgwire.Client.batch "SELECT a FROM t"));
  ignore
    (Pgwire.Server.feed server
       (Pgwire.Client.batch "SELECT a FROM t /* traceparent='00-1-2-01' */"));
  let hits', misses', _ = Pgdb.Db.stmt_cache_stats () in
  check tint "one miss" 1 (misses' - misses);
  check tint "one hit" 1 (hits' - hits)

let test_extended_error_until_sync () =
  let server = ready_server () in
  (* an error at Parse discards Bind, Describe and Execute; Sync ends the
     skip with one ReadyForQuery *)
  check tstr "parse error" "E42601 Z"
    (shape (Pgwire.Server.feed server (Pgwire.Client.batch "SELEC 1")));
  check tstr "execution error" "1 2 E42P01 Z"
    (shape (Pgwire.Server.feed server (Pgwire.Client.batch "SELECT * FROM missing")));
  (* two batches in one write: the second runs after the first's Sync *)
  check tstr "skip stops at Sync" "E42601 Z 1 2 T D D C Z"
    (shape
       (Pgwire.Server.feed server
          (Pgwire.Client.batch "SELEC 1" ^ Pgwire.Client.batch "SELECT a FROM t")));
  (* a statement pgdb does not accept is refused at Parse, and after Sync
     the connection answers a SELECT *)
  check tstr "refused statement" "E42601 Z"
    (shape
       (Pgwire.Server.feed server
          (Pgwire.Client.batch "INSERT INTO t VALUES (3, 'z')")));
  check tstr "select after it" "1 2 T D D C Z"
    (shape (Pgwire.Server.feed server (Pgwire.Client.batch "SELECT a FROM t")));
  check tstr "two statements in one Parse" "E42601 Z"
    (shape
       (Pgwire.Server.feed server
          (Pgwire.Client.batch "SELECT a FROM t; SELECT b FROM t")));
  (* a result the binary format cannot carry: the rows already written
     are taken back, and one error replaces them *)
  check tstr "unencodable cell" "1 2 T E22008 Z"
    (shape
       (Pgwire.Server.feed server
          (Pgwire.Client.batch
             "SELECT d FROM (SELECT CAST(a AS DATE) AS d FROM t UNION ALL \
              SELECT CAST(4000000000 AS DATE) AS d FROM t) AS u")));
  (* the next statement on the same connection succeeds *)
  let client = Pgwire.Client.connect (Pgwire.Server.feed (wire_fixture ())) in
  (match Pgwire.Client.query client "SELEC 1" with
  | Error e -> check tstr "sqlstate" "42601" (String.sub e 0 5)
  | Ok _ -> Alcotest.fail "expected a syntax error");
  match Pgwire.Client.query client "SELECT a FROM t ORDER BY a" with
  | Ok r -> check tint "recovered" 2 r.Pgwire.Client.result.Pgdb.Exec.res_nrows
  | Error e -> Alcotest.fail e

let test_extended_unsupported () =
  let server = ready_server () in
  let expect name want bytes =
    check tstr name want (shape (Pgwire.Server.feed server bytes))
  in
  expect "named statement" "E0A000 Z" (unnamed_batch ~stmt:"s1" "SELECT a FROM t");
  expect "parameter types" "E0A000 Z"
    (unnamed_batch ~param_types:[ 20 ] "SELECT a FROM t");
  expect "bind parameters" "1 E0A000 Z"
    (unnamed_batch ~params:[ Some "1" ] "SELECT a FROM t");
  expect "row limit" "1 2 T E0A000 Z" (unnamed_batch ~max_rows:1 "SELECT a FROM t");
  expect "describe statement" "1 E0A000 Z"
    (frontend
       [
         PC.Parse { stmt = ""; query = "SELECT a FROM t"; param_types = [] };
         PC.Describe (PC.Statement, "");
         PC.Sync;
       ]);
  expect "named portal" "E0A000 Z"
    (frontend [ PC.Execute { portal = "p"; max_rows = 0 }; PC.Sync ]);
  expect "no portal" "E34000 Z"
    (frontend [ PC.Execute { portal = ""; max_rows = 0 }; PC.Sync ]);
  let bind_text =
    PC.Bind
      { portal = ""; stmt = ""; param_formats = []; params = []; result_formats = [] }
  in
  (* Sync drops the portal; the unnamed statement stays until a Query *)
  expect "statement kept" "2 D D C Z"
    (frontend
       [
         bind_text;
         PC.Execute { portal = ""; max_rows = 0 };
         PC.Sync;
       ]);
  ignore (Pgwire.Server.feed server (PC.encode_frontend (PC.Query "SELECT 1")));
  expect "no statement after a Query" "E26000 Z"
    (frontend
       [
         bind_text;
         PC.Sync;
       ]);
  (* the connection still serves simple queries in text *)
  match backend_messages (Pgwire.Server.feed server (PC.encode_frontend (PC.Query "SELECT 7"))) with
  | [ PC.RowDescription [ { PC.fd_format = PC.Text; _ } ]; PC.DataRow [ Some "7" ];
      PC.CommandComplete _; PC.ReadyForQuery 'I' ] -> ()
  | _ -> Alcotest.fail "simple Query must answer in text"

let test_extended_fragmented_batch () =
  (* a whole batch delivered one byte per feed gets the reply it gets in
     one piece *)
  let batch = Pgwire.Client.batch "SELECT a, b FROM t ORDER BY a" in
  let whole = Pgwire.Server.feed (ready_server ()) batch in
  let server = ready_server () in
  let out = Buffer.create 64 in
  String.iter
    (fun c -> Buffer.add_string out (Pgwire.Server.feed server (String.make 1 c)))
    batch;
  check tstr "byte at a time" whole (Buffer.contents out);
  check tstr "shape" "1 2 T D D C Z" (shape whole)

(* ------------------------------------------------------------------ *)
(* Hostile frames                                                      *)
(* ------------------------------------------------------------------ *)

(* A backend that completes the handshake, then answers the first query
   with [reply]. Asking for more bytes after that reads as a closed
   connection; [asks] counts those requests. *)
let scripted_backend reply =
  let asks = ref 0 and queried = ref false in
  let transport bytes =
    if bytes = "" then begin
      incr asks;
      ""
    end
    else if bytes.[0] = 'P' && not !queried then begin
      queried := true;
      reply
    end
    else
      PC.encode_backend PC.AuthenticationOk
      ^ PC.encode_backend (PC.ReadyForQuery 'I')
  in
  (Pgwire.Client.connect transport, asks)

let expect_protocol_error ?(asks_expected = 0) name reply =
  let client, asks = scripted_backend reply in
  (match Pgwire.Client.query client "SELECT 1" with
  | exception Pgwire.Client.Protocol_error _ -> ()
  | Ok _ | Error _ -> Alcotest.failf "%s: expected a protocol error" name);
  check tint (name ^ ": requests for more bytes") asks_expected !asks

let test_hostile_short_length () =
  (* a length prefix below 4 used to be consumed as 0 bytes, forever *)
  expect_protocol_error "length -1" "C\xff\xff\xff\xffOK\000";
  expect_protocol_error "length 3" "Z\000\000\000\003I";
  expect_protocol_error "length 0" "D\000\000\000\000";
  match PC.decode_backend "C\xff\xff\xff\xffOK\000" with
  | exception PC.Decode_error _ -> ()
  | _ -> Alcotest.fail "length below 4 must be malformed"

let test_hostile_field_overruns_frame () =
  (* "OK" has no terminator inside its frame; the zero byte after it
     belongs to the next message and must not be borrowed *)
  let cc = "C\000\000\000\006OK" ^ PC.encode_backend (PC.ReadyForQuery 'I') in
  expect_protocol_error "unterminated tag" cc;
  (* a DataRow cell length past the frame end *)
  let rd =
    PC.encode_backend
      (PC.RowDescription
         [ { PC.fd_name = "a"; fd_type_oid = 25; fd_format = PC.Binary } ])
  in
  let bad_cell = "D\000\000\000\014\000\001\000\000\000\100abcd" in
  expect_protocol_error "cell overruns frame"
    (rd ^ bad_cell ^ String.make 200 'x');
  (* a negative cell count *)
  expect_protocol_error "negative count" (rd ^ "D\000\000\000\006\255\255");
  (* more or fewer cells than the described columns *)
  expect_protocol_error "extra cell"
    (rd ^ PC.encode_backend (PC.DataRow [ Some "a"; Some "b" ]));
  expect_protocol_error "missing cell" (rd ^ PC.encode_backend (PC.DataRow []));
  match PC.decode_backend (bad_cell ^ String.make 200 'x') with
  | exception PC.Decode_error _ -> ()
  | _ -> Alcotest.fail "cell past its frame must be malformed"

(* a binary cell of a width its column's type does not have, in each
   type the client decodes into an int payload, a float or text: every
   one but text is a malformed binary cell, never a misread *)
let test_wrong_width_cells () =
  let module Ty = Catalog.Sqltype in
  List.iter
    (fun (ty, cell) ->
      let rd =
        PC.encode_backend
          (PC.RowDescription
             [ { PC.fd_name = "a"; fd_type_oid = PC.oid_of_type ty; fd_format = PC.Binary } ])
      in
      let reply =
        PC.encode_backend PC.ParseComplete
        ^ PC.encode_backend PC.BindComplete
        ^ rd
        ^ PC.encode_backend (PC.DataRow [ Some cell ])
        ^ PC.encode_backend (PC.CommandComplete "SELECT 1")
        ^ PC.encode_backend (PC.ReadyForQuery 'I')
      in
      let client, _ = scripted_backend reply in
      match Pgwire.Client.query client "SELECT 1" with
      | exception Pgwire.Client.Protocol_error e ->
          let p = "malformed binary cell" in
          if String.length e < String.length p || String.sub e 0 (String.length p) <> p
          then Alcotest.failf "%s: %s" (Ty.name ty) e
      | Ok _ | Error _ -> Alcotest.failf "%s: a %d-byte cell was read" (Ty.name ty)
            (String.length cell))
    Ty.
      [
        (TBigint, "\000\001");
        (TDouble, "\000\000\000\000");
        (TDate, "\000\000\000\000\000\000\000\001");
        (TDate, "\001");
        (TTime, "\000\000\000\001");
        (TTimestamp, "\000\000\000\000\000\000\000\000\000");
        (TBool, "");
        (TBool, "\000\001");
      ]

let test_truncated_frame_waits () =
  (* a frame cut short is not malformed: the decoder asks for more bytes,
     and only a closed connection turns it into an error *)
  let frame = PC.encode_backend (PC.CommandComplete "SELECT 0") in
  let head = String.sub frame 0 7 in
  (match PC.decode_backend head with
  | exception PC.Incomplete -> ()
  | _ -> Alcotest.fail "partial frame must be incomplete");
  (match PC.decode_backend "C\000" with
  | exception PC.Incomplete -> ()
  | _ -> Alcotest.fail "partial header must be incomplete");
  expect_protocol_error ~asks_expected:1 "closed mid-frame" head

let test_server_rejects_malformed () =
  let server = wire_fixture () in
  ignore
    (Pgwire.Server.feed server
       (PC.encode_frontend (PC.Startup [ ("user", "app") ])));
  let reply = Pgwire.Server.feed server "Q\000\000\000\001" in
  (match PC.decode_backend reply with
  | PC.ErrorResponse { code; _ }, _ -> check tstr "sqlstate" "08P01" code
  | _ -> Alcotest.fail "expected an ErrorResponse");
  check tstr "closed: later bytes ignored" ""
    (Pgwire.Server.feed server (PC.encode_frontend (PC.Query "SELECT 1")));
  (* a startup packet shorter than its own header *)
  let server = wire_fixture () in
  match PC.decode_backend (Pgwire.Server.feed server "\000\000\000\004") with
  | PC.ErrorResponse _, _ -> ()
  | _ -> Alcotest.fail "short startup must be rejected"

(* A count the frame cannot hold is malformed, and is refused before
   anything is sized by it: a 32767-element list would allocate ~800 KB. *)
let test_oversized_counts () =
  let frame tag body =
    let b = Buffer.create 16 in
    Buffer.add_char b tag;
    Buffer.add_int32_be b (Int32.of_int (4 + String.length body));
    Buffer.add_string b body;
    Buffer.contents b
  in
  let huge = "\x7f\xff" in
  let expect name decode bytes =
    let before = Gc.minor_words () in
    (match decode bytes with
    | exception PC.Decode_error _ -> ()
    | exception PC.Incomplete -> Alcotest.failf "%s: waits for more bytes" name
    | _ -> Alcotest.failf "%s: decoded" name);
    let words = Gc.minor_words () -. before in
    (* the error message is most of it *)
    if words > 4096. then Alcotest.failf "%s: allocated %.0f words" name words
  in
  let frontend bytes = PC.decode_frontend bytes in
  let backend bytes = PC.decode_backend bytes in
  expect "Parse parameter types" frontend (frame 'P' ("\000\000" ^ huge));
  expect "Bind parameter formats" frontend (frame 'B' ("\000\000" ^ huge));
  expect "Bind parameters" frontend (frame 'B' ("\000\000\000\000" ^ huge));
  expect "Bind result formats" frontend
    (frame 'B' ("\000\000\000\000\000\000" ^ huge));
  expect "Bind parameter past its frame" frontend
    (frame 'B' "\000\000\000\000\000\001\000\000\001\000");
  expect "unknown format code" frontend
    (frame 'B' "\000\000\000\001\000\007\000\000\000\000");
  expect "unknown Describe target" frontend (frame 'D' "X\000");
  expect "RowDescription fields" backend (frame 'T' huge);
  expect "DataRow cells" backend (frame 'D' huge)

(* Mutations of a valid message stream: cut short, bytes overwritten,
   a 0x7fff count planted, garbage appended, or garbage alone. *)
let gen_mutated (bases : string list) : string QCheck.Gen.t =
  QCheck.Gen.(
    oneofl bases >>= fun base ->
    let n = String.length base in
    let overwrite edits =
      let b = Bytes.of_string base in
      List.iter (fun (i, c) -> Bytes.set b (i mod n) (Char.chr c)) edits;
      Bytes.to_string b
    in
    frequency
      [
        (2, map (fun k -> String.sub base 0 k) (int_bound n));
        (3, map overwrite (list_size (int_range 1 6) (pair nat (int_bound 255))));
        (2, map (fun i -> overwrite [ (i, 0x7f); (i + 1, 0xff) ]) nat);
        (1, map (fun g -> base ^ g) (string_size (int_bound 64)));
        (1, string_size (int_bound 64));
      ])

(* decode every message of [bytes]; only [Incomplete] or [Decode_error]
   may stop it *)
let decodes_cleanly decode bytes =
  let rec go off =
    off >= String.length bytes
    ||
    match decode ~off bytes with
    | _, n -> go (off + n)
    | exception (PC.Incomplete | PC.Decode_error _) -> true
  in
  go 0

let frontend_bases =
  [
    Pgwire.Client.batch "SELECT a, b FROM t ORDER BY a";
    unnamed_batch ~params:[ Some "1"; None ] ~param_types:[ 20; 25 ] "SELECT $1";
    PC.encode_frontend (PC.Query "SELECT 1") ^ PC.encode_frontend PC.Terminate;
  ]

let prop_fuzz_frontend =
  QCheck.Test.make ~count:1000 ~name:"fuzzed frontend frames decode cleanly"
    (QCheck.make ~print:String.escaped (gen_mutated frontend_bases))
    (fun bytes ->
      decodes_cleanly (fun ~off b -> PC.decode_frontend ~off b) bytes
      && (ignore (Pgwire.Server.feed (ready_server ()) bytes);
          true))

let prop_fuzz_backend =
  let reply = Pgwire.Server.feed (ready_server ()) (Pgwire.Client.batch "SELECT a, b FROM t") in
  QCheck.Test.make ~count:1000 ~name:"fuzzed backend frames decode cleanly"
    (QCheck.make ~print:String.escaped (gen_mutated [ reply ]))
    (fun bytes ->
      decodes_cleanly (fun ~off b -> PC.decode_backend ~off b) bytes
      &&
      let client, _ = scripted_backend bytes in
      match Pgwire.Client.query client "SELECT 1" with
      | Ok _ | Error _ | (exception Pgwire.Client.Protocol_error _) -> true)

(* ------------------------------------------------------------------ *)
(* Large results                                                       *)
(* ------------------------------------------------------------------ *)

module PV = Pgdb.Value

let big_rows = 20_000

(* a session over [big_rows] rows of every wire type, with NULLs *)
let big_session () =
  let db = Pgdb.Db.create () in
  let col = Catalog.Schema.column in
  Pgdb.Db.load_table db
    (Catalog.Schema.table "big"
       Catalog.Sqltype.
         [
           col "id" TBigint;
           col "px" TDouble;
           col "sym" TVarchar;
           col "d" TDate;
           col "ts" TTimestamp;
           col "ok" TBool;
         ])
    (List.init big_rows (fun i ->
         [|
           PV.Int (Int64.of_int (i - 7_000));
           (if i mod 11 = 0 then PV.Null else PV.Float (float_of_int i /. 7.));
           PV.Str (if i mod 13 = 0 then "" else Printf.sprintf "S%d" (i mod 97));
           PV.Date ((i mod 4000) - 2000);
           PV.Timestamp (Int64.mul (Int64.of_int ((i * 7919) - 70_000_000)) 1_000_000L);
           (if i mod 5 = 0 then PV.Null else PV.Bool (i mod 2 = 0));
         |]));
  Pgdb.Db.open_session db

let big_sql = "SELECT id, px, sym, d, ts, ok FROM big"

let test_chunked_large_result () =
  let session = big_session () in
  let server = Pgwire.Server.create session in
  (* the reply travels in pseudo-random 1-97 byte chunks, one per call *)
  let rng = Random.State.make [| 13 |] in
  let queued = Buffer.create 4096 and pos = ref 0 in
  let transport bytes =
    Buffer.add_string queued (Pgwire.Server.feed server bytes);
    let left = Buffer.length queued - !pos in
    let n = min left (1 + Random.State.int rng 97) in
    let chunk = Buffer.sub queued !pos n in
    pos := !pos + n;
    chunk
  in
  let client = Pgwire.Client.connect transport in
  let wire =
    match Pgwire.Client.query client big_sql with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  check tint "all bytes consumed" (Buffer.length queued) !pos;
  match Pgdb.Db.exec session big_sql with
  | Pgdb.Db.Rows (res, tag) ->
      let rows = wire_rows wire in
      check tint "rows" big_rows (Array.length rows);
      check tstr "tag" tag wire.Pgwire.Client.tag;
      check tbool "columns" true
        (res.Pgdb.Exec.res_cols = wire.Pgwire.Client.result.Pgdb.Exec.res_cols);
      Array.iteri
        (fun i row ->
          if row <> rows.(i) then
            Alcotest.failf "row %d differs: %s vs %s" i
              (String.concat "," (Array.to_list (Array.map PV.to_display row)))
              (String.concat "," (Array.to_list (Array.map PV.to_display rows.(i)))))
        (Stored.result_rows res)
  | Pgdb.Db.Complete _ -> Alcotest.fail "expected rows"

let test_decode_allocation_is_linear () =
  (* the whole extended-protocol reply arrives in one piece, as from the
     in-process gateway; decoding it may allocate a small constant times
     its size (a column slot per cell, a string per new text). Copying
     the undecoded tail after every message allocates quadratically,
     about 10,000x, and fails. *)
  let server = Pgwire.Server.create (big_session ()) in
  let replay = ref None in
  let transport bytes =
    match !replay with
    | Some reply -> if bytes = "" then "" else reply
    | None -> Pgwire.Server.feed server bytes
  in
  let client = Pgwire.Client.connect transport in
  let reply = Pgwire.Server.feed server (Pgwire.Client.batch big_sql) in
  replay := Some reply;
  let before = Obs.Runtime.allocated_bytes () in
  (match Pgwire.Client.query client big_sql with
  | Ok r -> check tint "rows" big_rows r.Pgwire.Client.result.Pgdb.Exec.res_nrows
  | Error e -> Alcotest.fail e);
  let allocated = Obs.Runtime.allocated_bytes () -. before in
  let ratio = allocated /. float_of_int (String.length reply) in
  if ratio > 20. then
    Alcotest.failf "decode allocated %.1fx the %d reply bytes" ratio
      (String.length reply)

(* A 40,000-row result of an int, a float and a text column, as pgdb
   hands it to the wire server: the columns the Gateway's extracts
   carry, where boxing per cell would show *)
let wide_rows = 40_000

let wide_sql = "SELECT id, px, sym FROM w"

let wide_session () =
  let db = Pgdb.Db.create () in
  Pgdb.Db.load_table db
    (Catalog.Schema.table "w"
       Catalog.Sqltype.
         [
           Catalog.Schema.column "id" TBigint;
           Catalog.Schema.column "px" TDouble;
           Catalog.Schema.column "sym" TVarchar;
         ])
    (List.init wide_rows (fun i ->
         [|
           PV.Int (Int64.of_int i);
           (if i mod 9 = 0 then PV.Null else PV.Float (float_of_int i /. 3.));
           PV.Str (Printf.sprintf "S%d" (i mod 50));
         |]));
  Pgdb.Db.open_session db

(* the fewest words [f] allocated over three runs *)
let least_words f =
  let best = ref Float.infinity in
  for _ = 1 to 3 do
    let a0 = Obs.Runtime.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Obs.Runtime.allocated_bytes () -. a0)
  done;
  !best /. float_of_int (Sys.word_size / 8)

(* The server writes DataRows straight from the typed columns, sized
   first and then written in place into its domain's reused row-stream
   bytes: beyond the output buffer it allocates a few hundred words for
   the whole result (a cell writer per column), never a word per cell;
   0.001 words a cell measured on OCaml 5.1. Writing from boxed rows
   allocated closures per row, 2.20 words a cell, on top of the 7.2
   words a cell pgdb spent building those rows. The budget is 0.01
   words a cell. *)
let test_encode_allocation () =
  let session = wide_session () in
  let res =
    match Pgdb.Db.exec session wide_sql with
    | Pgdb.Db.Rows (res, _) -> res
    | Pgdb.Db.Complete _ -> Alcotest.fail "expected rows"
  in
  let out = Buffer.create (64 * wide_rows) in
  List.iter
    (fun format ->
      let formats = Array.make 3 format in
      let words =
        least_words (fun () ->
            Buffer.clear out;
            Pgwire.Server.data_rows out res formats)
      in
      let per_cell = words /. float_of_int (3 * wide_rows) in
      if per_cell > 0.01 then
        Alcotest.failf "%s encode: %.3f words a cell, budget 0.01"
          (match format with PC.Binary -> "binary" | PC.Text -> "text")
          per_cell)
    [ PC.Binary ]

(* The client decodes binary cells in place into per-column payloads:
   an int cell costs its 8 payload bytes, a float its slot in a float
   array and a text cell its dictionary code, one word each (a repeated
   string is found in the dictionary in place), and a DataRow frame is
   walked without a reader: 1.01 words a cell measured on OCaml 5.1.
   With an int64 array and a 4-word reader per frame it measured 3.35
   (an int cell cost its slot and its box, 4 words), and decoding into
   boxed rows 10.3 (a Value.t and its payload per cell, a substring per
   text cell, an array and a list cell per row). The budget is 1.1
   words a cell. *)
let test_decode_allocation () =
  let server = Pgwire.Server.create (wide_session ()) in
  let replay = ref None in
  let transport bytes =
    match !replay with
    | Some reply -> if bytes = "" then "" else reply
    | None -> Pgwire.Server.feed server bytes
  in
  let client = Pgwire.Client.connect transport in
  replay := Some (Pgwire.Server.feed server (Pgwire.Client.batch wide_sql));
  let words =
    least_words (fun () ->
        match Pgwire.Client.query client wide_sql with
        | Ok r -> r
        | Error e -> Alcotest.fail e)
  in
  let per_cell = words /. float_of_int (3 * wide_rows) in
  if per_cell > 1.1 then
    Alcotest.failf "decode: %.2f words a cell, budget 1.1" per_cell

(* Decoding the encoded big_table 5000 reply (three 5,000-element
   column vectors, compressed) from an emptied minor heap. Each vector's
   payload is read straight into its typed column: the long and float
   payloads are copied whole into arrays too big for the minor heap, so
   a numeric cell costs no minor words, and a symbol costs its string
   (2 words for "S00"). Measured on OCaml 5.1: 0 minor collections and
   0.69 minor words a cell, against 4.36 when every cell was decoded
   into an atom. The budget is one collection and 0.75 words a cell:
   the symbols' strings (0.67 a cell) and a little slack. Words are
   counted with [Gc.minor_words]: on OCaml 5.1 [Gc.quick_stat] and
   [Gc.counters] lag the minor heap until its next collection. *)
let test_qipc_decode_collections () =
  let cells = 3 * 5000 in
  let msg =
    QC.encode_message { QC.mt = QC.Response; body = QC.Value (big_table 5000) }
  in
  let decode () = ignore (Sys.opaque_identity (QC.decode_message msg)) in
  decode ();
  Gc.minor ();
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  let w0 = Gc.minor_words () in
  decode ();
  let per_cell = (Gc.minor_words () -. w0) /. float_of_int cells in
  let collections = (Gc.quick_stat ()).Gc.minor_collections - c0 in
  if collections > 1 then
    Alcotest.failf "decode ran %d minor collections, budget 1" collections;
  if per_cell > 0.75 then
    Alcotest.failf "decode: %.2f minor words a cell, budget 0.75" per_cell

let test_one_write_per_statement () =
  (* the Gateway's fixed cost: one transport write per statement, however
     many reads its reply takes *)
  let server = Pgwire.Server.create (big_session ()) in
  let writes = ref 0 and queued = Buffer.create 4096 and pos = ref 0 in
  let transport bytes =
    if bytes <> "" then incr writes;
    Buffer.add_string queued (Pgwire.Server.feed server bytes);
    let n = min (Buffer.length queued - !pos) 4096 in
    let chunk = Buffer.sub queued !pos n in
    pos := !pos + n;
    chunk
  in
  let client = Pgwire.Client.connect transport in
  List.iter
    (fun sql ->
      writes := 0;
      ignore (Pgwire.Client.query client sql);
      check tint sql 1 !writes)
    [ big_sql; "SELECT * FROM missing";
      "CREATE TEMPORARY TABLE w AS SELECT 1 AS x"; "" ]

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

(* The Printf specification the PG text writer must match byte for
   byte. *)
let reference_text = function
  | PV.Null -> None
  | PV.Bool b -> Some (if b then "t" else "f")
  | PV.Int i -> Some (Printf.sprintf "%Ld" i)
  | PV.Float f ->
      Some
        (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
         else Printf.sprintf "%.17g" f)
  | PV.Str s -> Some s
  | PV.Date d ->
      let y, m, dd = PV.ymd_of_days d in
      Some (Printf.sprintf "%04d-%02d-%02d" y m dd)
  | PV.Time t ->
      let s = t / 1000 in
      Some
        (Printf.sprintf "%02d:%02d:%02d.%03d" (s / 3600) (s / 60 mod 60)
           (s mod 60) (t mod 1000))
  | PV.Timestamp n ->
      let day = Int64.to_int (Int64.div n PV.ns_per_day) in
      let rem = Int64.rem n PV.ns_per_day in
      let day, rem =
        if Int64.compare rem 0L < 0 then (day - 1, Int64.add rem PV.ns_per_day)
        else (day, rem)
      in
      let y, m, dd = PV.ymd_of_days day in
      let us = Int64.to_int (Int64.div (Int64.rem rem 1_000_000_000L) 1000L) in
      let s = Int64.to_int (Int64.div rem 1_000_000_000L) in
      Some
        (Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d.%06d" y m dd (s / 3600)
           (s / 60 mod 60) (s mod 60) us)

let text_edge_cases =
  let day y m d = PV.days_of_ymd y m d in
  let ts y m d ns =
    PV.Timestamp (Int64.add (Int64.mul (Int64.of_int (day y m d)) PV.ns_per_day) ns)
  in
  [
    PV.Null; PV.Bool true; PV.Bool false; PV.Str ""; PV.Str "a\000b";
    PV.Int 0L; PV.Int (-1L); PV.Int 9L; PV.Int (-10L);
    PV.Int Int64.min_int; PV.Int Int64.max_int;
    PV.Float 0.0; PV.Float (-0.0); PV.Float nan; PV.Float (-.nan);
    PV.Float infinity; PV.Float neg_infinity; PV.Float 1e15; PV.Float (-1e15);
    PV.Float 999999999999999.0; PV.Float (-999999999999999.0);
    PV.Float (Float.pred 1e15);
    PV.Float 0.1; PV.Float (-2.5); PV.Float 5e-324; PV.Float (-5e-324);
    PV.Float 2.2250738585072009e-308; PV.Float max_float; PV.Float min_float;
    PV.Date 0; PV.Date (day 0 1 1); PV.Date (day 9999 12 31); PV.Date (day 1 1 1);
    PV.Date (day 1969 12 31); PV.Date (-1_000_000); PV.Date 5_000_000;
    PV.Time 0; PV.Time 86_399_999; PV.Time 86_400_000; PV.Time 360_000_000_000;
    PV.Time (-1); PV.Time (-1500); PV.Time (-86_400_000); PV.Time max_int;
    PV.Time min_int;
    ts 1969 12 31 999_999_000L; ts 1900 1 1 0L; ts 1970 1 1 1_000L;
    ts 2000 1 1 0L; ts 2016 6 30 34_200_123_456_000L; ts 9999 12 31 86_399_999_999_999L;
    PV.Timestamp (-1L); PV.Timestamp Int64.min_int; PV.Timestamp Int64.max_int;
  ]

let test_text_edge_cases () =
  List.iter
    (fun v ->
      let want = reference_text v in
      if PV.to_text v <> want then
        Alcotest.failf "%s: got %S, want %S" (PV.to_debug v)
          (Option.value ~default:"NULL" (PV.to_text v))
          (Option.value ~default:"NULL" want))
    text_edge_cases

let gen_pg_value : PV.t QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun b -> PV.Bool b) bool);
        (3, map (fun i -> PV.Int i) int64);
        (1, map (fun i -> PV.Int (Int64.of_int i)) (int_range (-1000) 1000));
        (3, map (fun f -> PV.Float f) float);
        (1, map (fun i -> PV.Float (float_of_int i)) int);
        (1, map (fun i -> PV.Float (float_of_int i /. 8.)) (int_range (-100000) 100000));
        (1, map (fun s -> PV.Str s) string_printable);
        (2, map (fun d -> PV.Date d) (int_range (-800_000) 3_000_000));
        (2, map (fun t -> PV.Time t) (int_range (-200_000_000) 200_000_000));
        (3, map (fun n -> PV.Timestamp n) int64);
        (1, oneofl text_edge_cases);
      ])

let prop_text_writer_matches_printf =
  QCheck.Test.make ~count:2000 ~name:"PG text writer = Printf spec"
    (QCheck.make ~print:(fun v -> PV.to_debug v) gen_pg_value)
    (fun v -> PV.to_text v = reference_text v)

let test_datarow_golden () =
  check tstr "DataRow frame"
    "D\000\000\000\020\000\003\000\000\000\002AB\255\255\255\255\000\000\000\000"
    (PC.encode_backend (PC.DataRow [ Some "AB"; None; Some "" ]));
  (* the server's streamed result is the message-level encoding, byte
     for byte *)
  let session = big_session () in
  let server = Pgwire.Server.create session in
  ignore
    (Pgwire.Server.feed server
       (PC.encode_frontend (PC.Startup [ ("user", "app") ])));
  let sql = "SELECT id, px, sym, d, ts, ok FROM big WHERE id < -6990" in
  let got = Pgwire.Server.feed server (PC.encode_frontend (PC.Query sql)) in
  match Pgdb.Db.exec session sql with
  | Pgdb.Db.Rows (res, tag) ->
      let fields =
        List.map
          (fun (n, ty) ->
            { PC.fd_name = n; fd_type_oid = PC.oid_of_type ty; fd_format = PC.Text })
          res.Pgdb.Exec.res_cols
      in
      let want =
        String.concat ""
          ((PC.encode_backend (PC.RowDescription fields)
           :: List.map
                (fun row ->
                  PC.encode_backend
                    (PC.DataRow (Array.to_list (Array.map reference_text row))))
                (Array.to_list (Stored.result_rows res)))
          @ [
              PC.encode_backend (PC.CommandComplete tag);
              PC.encode_backend (PC.ReadyForQuery 'I');
            ])
      in
      check tint "10 rows" 10 res.Pgdb.Exec.res_nrows;
      check tstr "reply bytes" want got
  | Pgdb.Db.Complete _ -> Alcotest.fail "expected rows"

(* µs-aligned timestamps, including pre-1970 and pre-2000 ones, survive
   the text round trip exactly across the int64 ns range (about 1708 to
   2292); so do dates and times at their edges *)
let test_text_roundtrip_edges () =
  let roundtrip ty v =
    match PV.to_text v with
    | Some s ->
        let v' = PV.of_text ty s in
        if v' <> v then Alcotest.failf "%S parsed back as %s" s (PV.to_display v')
    | None -> Alcotest.fail "unexpected NULL"
  in
  let day y m d = PV.days_of_ymd y m d in
  List.iter
    (fun (y, m, d, us) ->
      roundtrip Catalog.Sqltype.TTimestamp
        (PV.Timestamp
           (Int64.add
              (Int64.mul (Int64.of_int (day y m d)) PV.ns_per_day)
              (Int64.mul us 1000L))))
    [
      (1969, 12, 31, 86_399_999_999L); (1969, 12, 31, 1L); (1900, 2, 28, 123_456L);
      (1970, 1, 1, 0L); (1999, 12, 31, 86_399_999_999L); (2000, 1, 1, 1L);
      (2016, 6, 30, 34_200_000_001L); (1710, 1, 1, 500_000L);
      (2290, 12, 31, 86_399_999_999L);
    ];
  List.iter
    (fun d -> roundtrip Catalog.Sqltype.TDate (PV.Date d))
    [ day 0 1 1; day 1 1 1; day 1969 12 31; 0; -1; day 2000 2 29; day 9999 12 31 ];
  List.iter
    (fun t -> roundtrip Catalog.Sqltype.TTime (PV.Time t))
    [ 0; 1; 999; 86_399_999; 86_400_000; 360_000_000_001 ]

let prop_timestamp_us_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"µs timestamp text roundtrip"
    QCheck.(int_range (-3_000_000_000_000_000) 3_000_000_000_000_000)
    (fun ns ->
      let v = PV.Timestamp (Int64.mul (Int64.of_int (ns / 1000)) 1000L) in
      match PV.to_text v with
      | Some s -> PV.of_text Catalog.Sqltype.TTimestamp s = v
      | None -> false)

(* every day of years -4800..9999 is the successor of the day before,
   and the two date conversions invert each other on it *)
let test_civil_successor_days () =
  let leap y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 in
  let month_len y = function
    | 2 -> if leap y then 29 else 28
    | 4 | 6 | 9 | 11 -> 30
    | _ -> 31
  in
  check tint "epoch" 0 (PV.days_of_ymd 2000 1 1);
  let y = ref (-4800) and m = ref 1 and d = ref 1 in
  for day = PV.days_of_ymd (-4800) 1 1 to PV.days_of_ymd 9999 12 31 do
    let y', m', d' = PV.ymd_of_days day in
    if y' <> !y || m' <> !m || d' <> !d || PV.days_of_ymd !y !m !d <> day then
      Alcotest.failf "day %d: %d-%d-%d, want %d-%d-%d" day y' m' d' !y !m !d;
    if !d < month_len !y !m then incr d
    else begin
      d := 1;
      if !m < 12 then incr m
      else begin
        m := 1;
        incr y
      end
    end
  done;
  check tint "walked to 10000-01-01" 10000 !y

(* row 0's binary cell of a column of type [ty], decoded as the client
   decodes it *)
let decode_binary_cell ty data off len =
  let b = Pgwire.Client.column_builder ty in
  Pgdb.Batch.reserve b 1;
  Pgwire.Client.decode_cell b ty 0 data off len;
  Pgdb.Batch.value_at (Pgdb.Batch.finish b 1) 0

(* [v] through the binary format and back: written by the wire server
   from a one-row column, read by the client's cell decoder *)
let binary_roundtrip ty v =
  let out = Buffer.create 32 in
  Pgwire.Server.data_rows out
    {
      Pgdb.Exec.res_cols = [ ("v", ty) ];
      res_nrows = 1;
      res_columns = [| Pgdb.Batch.column_of_values [| v |] |];
    }
    [| PC.Binary |];
  let row = Buffer.contents out in
  (* tag, length, cell count, then the cell's length and bytes *)
  let len = Int32.to_int (String.get_int32_be row 7) in
  if len < 0 then PV.Null else decode_binary_cell ty row 11 len

(* The binary round trip is the identity wherever the text round trip
   is, NaN included. The one exception is a time whose microseconds
   overflow PG's int64 (beyond about ±292,000 years), which the binary
   format refuses with 22008 rather than wrap. *)
let binary_agrees_with_text v =
  match (PV.type_of v, PV.to_text v) with
  | Some ty, Some text -> (
      match PV.of_text ty text with
      | exception _ -> true
      | v' when compare v v' <> 0 -> true
      | _ -> (
          match binary_roundtrip ty v with
          | v'' -> compare v v'' = 0
          | exception Pgdb.Errors.Sql_error { code = "22008"; _ } -> (
              match v with
              | PV.Time t ->
                  let max_ms = Int64.to_int (Int64.div Int64.max_int 1000L) in
                  t > max_ms || t < -max_ms
              | _ -> false)))
  | _ -> true

let test_binary_edge_cases () =
  List.iter
    (fun v ->
      if not (binary_agrees_with_text v) then
        Alcotest.failf "%s %s: binary round trip differs from text"
          (PV.to_debug v) (PV.to_display v))
    text_edge_cases;
  (* the timestamp's microseconds are floored, as the text writer does *)
  check tbool "floor of ns/1000" true
    (binary_roundtrip Catalog.Sqltype.TTimestamp (PV.Timestamp (-1L))
    = PV.Timestamp (-1000L));
  (* a cell of the wrong width is refused, not misread *)
  match decode_binary_cell Catalog.Sqltype.TBigint "\000\001" 0 2 with
  | exception Pgdb.Errors.Sql_error _ -> ()
  | _ -> Alcotest.fail "a 2-byte int8 cell must be refused"

let prop_binary_matches_text =
  QCheck.Test.make ~count:2000 ~name:"binary round trip = text round trip"
    (QCheck.make ~print:PV.to_display gen_pg_value)
    binary_agrees_with_text

(* ------------------------------------------------------------------ *)
(* Binary vs text over real statements                                 *)
(* ------------------------------------------------------------------ *)

module MD = Workload.Marketdata
module AW = Workload.Analytical

(* The reply to a simple Query, decoded the way the client read text
   results: every cell through [Value.of_text]. *)
let text_query server sql =
  let reply = Pgwire.Server.feed server (PC.encode_frontend (PC.Query sql)) in
  let cols = ref [] and rows = ref [] and error = ref None in
  let rec go off =
    if off < String.length reply then
      let m, n = PC.decode_backend ~off reply in
      (match m with
      | PC.DataRow cells ->
          let row =
            List.map2
              (fun (_, ty) -> function
                | None -> PV.Null
                | Some s -> PV.of_text ty s)
              !cols cells
          in
          rows := Array.of_list row :: !rows
      | PC.RowDescription fields ->
          cols :=
            List.map
              (fun f ->
                ( f.PC.fd_name,
                  Option.value ~default:Catalog.Sqltype.TText
                    (PC.type_of_oid f.PC.fd_type_oid) ))
              fields
      | PC.ErrorResponse { code; message } -> error := Some (code ^ ": " ^ message)
      | _ -> ());
      go (off + n)
  in
  go 0;
  match !error with
  | Some e -> Error e
  | None -> Ok (!cols, Array.of_list (List.rev !rows))

let same_rows a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun r r' ->
         Array.length r = Array.length r'
         && Array.for_all2 (fun v v' -> compare v v' = 0) r r')
       a b

(* The SQL the translator sends for the paper's 25 analytical queries and
   the four tick_extract shapes, each run over simple Query (text cells
   through [of_text]) and over the client's extended batch (binary cells):
   the decoded rows are equal. *)
let test_binary_matches_text_statements () =
  let d =
    MD.generate
      { MD.symbols = 4; trades_per_symbol = 60; quotes_per_symbol = 120;
        wide_columns = 40 }
  in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  (* every statement sent, newest first *)
  let sent = ref [] in
  let backend =
    let b = Hyperq.Backend.of_pgdb_session (Pgdb.Db.open_session db) in
    {
      b with
      Hyperq.Backend.exec =
        (fun sql ->
          sent := sql :: !sent;
          b.Hyperq.Backend.exec sql);
    }
  in
  let eng = Hyperq.Engine.create backend in
  let run q =
    match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze q) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" q e
  in
  let sym = d.MD.syms.(1) in
  List.iter
    (fun q ->
      List.iter run q.AW.setup;
      run q.AW.text)
    (AW.queries d);
  List.iter run
    [
      Printf.sprintf "select from trades where Symbol=`%s" sym;
      Printf.sprintf
        "select Time, Bid, Ask, BSize, ASize from quotes where Symbol=`%s, \
         Time within 09:30:00.000 12:30:00.000"
        sym;
      Printf.sprintf "select from trades where Symbol=`%s, Size>500" sym;
      "select Symbol, Time, Price from trades where Price within 90.0 110.0";
    ];
  let sqls = List.rev !sent in
  let text_server = Pgwire.Server.create (Pgdb.Db.open_session db) in
  ignore
    (Pgwire.Server.feed text_server
       (PC.encode_frontend (PC.Startup [ ("user", "app") ])));
  let client =
    Pgwire.Client.connect
      (Pgwire.Server.feed (Pgwire.Server.create (Pgdb.Db.open_session db)))
  in
  let with_rows = ref 0 in
  List.iter
    (fun sql ->
      match (text_query text_server sql, Pgwire.Client.query client sql) with
      | Ok (cols, rows), Ok r ->
          if cols <> r.Pgwire.Client.result.Pgdb.Exec.res_cols then
            Alcotest.failf "%s: columns" sql;
          if not (same_rows rows (wire_rows r)) then
            Alcotest.failf "%s: rows differ" sql;
          if rows <> [||] then incr with_rows
      | Error e, Error e' -> check tstr sql e e'
      | _ -> Alcotest.failf "%s: one path failed" sql)
    sqls;
  check tbool "rows compared" true (!with_rows >= 29)

(* ------------------------------------------------------------------ *)
(* Typed results across the wire                                       *)
(* ------------------------------------------------------------------ *)

module Ty = Catalog.Sqltype

(* A generated result column: its SQL type, its cells, and whether it is
   stored boxed ([DVal], as a mixed column is) rather than typed *)
type gen_col = { g_ty : Ty.t; g_cells : PV.t array; g_boxed : bool }

(* one non-NULL cell of [ty], favouring the values a codec gets wrong:
   int64 extremes, NaN, -0.0 and infinities, empty and repeated strings,
   µs-aligned timestamps (both formats floor to microseconds) *)
let gen_cell (ty : Ty.t) : PV.t QCheck.Gen.t =
  let open QCheck.Gen in
  match ty with
  | Ty.TBigint ->
      map
        (fun i -> PV.Int i)
        (oneof
           [ oneofl [ Int64.min_int; Int64.max_int; 0L; -1L ]; int64;
             map Int64.of_int (int_range (-50) 50) ])
  | Ty.TDouble ->
      map
        (fun f -> PV.Float f)
        (oneof
           [ oneofl [ Float.nan; -0.0; 0.0; infinity; neg_infinity; 1e15 ];
             float; map (fun i -> float_of_int i /. 8.) (int_range (-800) 800) ])
  | Ty.TText | Ty.TVarchar ->
      map
        (fun s -> PV.Str s)
        (oneof [ oneofl [ ""; "a"; "IBM"; "IBM"; "x y" ]; string_printable ])
  | Ty.TBool -> map (fun b -> PV.Bool b) bool
  | Ty.TDate -> map (fun d -> PV.Date d) (int_range (-800_000) 3_000_000)
  | Ty.TTime ->
      (* a negative time's text ("-0:-0:-0.-25") reads back as another:
         the text writer's Printf form is ambiguous there *)
      map (fun t -> PV.Time t) (int_range 0 200_000_000)
  | Ty.TTimestamp ->
      map
        (fun ns -> PV.Timestamp (Int64.mul (Int64.of_int (ns / 1000)) 1000L))
        (int_range (-3_000_000_000_000_000) 3_000_000_000_000_000)

let gen_col (n : int) : gen_col QCheck.Gen.t =
  let open QCheck.Gen in
  oneofl Ty.[ TBigint; TDouble; TText; TVarchar; TBool; TDate; TTime; TTimestamp ]
  >>= fun ty ->
  frequency [ (1, return 0); (1, return 5); (6, return 1) ] >>= fun null_pct ->
  (* 0: every cell NULL; 5: one in five; 1: none *)
  let cell =
    match null_pct with
    | 0 -> return PV.Null
    | 5 -> frequency [ (1, return PV.Null); (4, gen_cell ty) ]
    | _ -> gen_cell ty
  in
  map2
    (fun cells g_boxed -> { g_ty = ty; g_cells = Array.of_list cells; g_boxed })
    (list_repeat n cell) bool

(* a result of 1-5 columns and [min_rows]-24 rows *)
let gen_result ?(min_rows = 0) () : gen_col list QCheck.Gen.t =
  let open QCheck.Gen in
  pair (int_range min_rows 24) (int_range 1 5) >>= fun (n, width) ->
  list_repeat width (gen_col n)

let print_result cols =
  String.concat "\n"
    (List.map
       (fun c ->
         Printf.sprintf "%s%s: %s" (Ty.name c.g_ty)
           (if c.g_boxed then " (boxed)" else "")
           (String.concat ", " (Array.to_list (Array.map PV.to_display c.g_cells))))
       cols)

(* a session over table g holding [cols] as stored columns, in the
   representation each asks for, and the SELECT that reads them back *)
let result_session (cols : gen_col list) =
  let n = match cols with c :: _ -> Array.length c.g_cells | [] -> 0 in
  let column c =
    let typed = Pgdb.Batch.column_of_values c.g_cells in
    if c.g_boxed then { typed with Pgdb.Batch.data = Pgdb.Batch.DVal c.g_cells }
    else typed
  in
  let names = List.mapi (fun i _ -> Printf.sprintf "c%d" i) cols in
  let db = Pgdb.Db.create () in
  Pgdb.Db.add_table db
    (Catalog.Schema.table "g"
       (List.map2 (fun name c -> Catalog.Schema.column name c.g_ty) names cols))
    (Pgdb.Batch.of_columns n (Array.of_list (List.map column cols)));
  (Pgdb.Db.open_session db, "SELECT " ^ String.concat ", " names ^ " FROM g")

(* a server over [session] past its startup handshake, and a client
   connected to another *)
let started_server session =
  let s = Pgwire.Server.create session in
  ignore (Pgwire.Server.feed s (PC.encode_frontend (PC.Startup [ ("user", "app") ])));
  s

let wire_client session =
  Pgwire.Client.connect (Pgwire.Server.feed (Pgwire.Server.create session))

(* equal cells; a float by its bits, so -0.0 is not 0.0, and any NaN is
   NaN (text carries no payload) *)
let same_cell a b =
  match (a, b) with
  | PV.Float x, PV.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      || (Float.is_nan x && Float.is_nan y)
  | a, b -> compare a b = 0

(* The server encodes a generated result from its columns, typed or
   boxed, and the client rebuilds the same cells: in binary through
   Client.query, in text through a simple Query *)
let wire_roundtrip cols =
  let session, sql = result_session cols in
  let want = Array.of_list (List.map (fun c -> c.g_cells) cols) in
  let types = List.map (fun c -> c.g_ty) cols in
  let agrees format (cols', rows) =
    if List.map snd cols' <> types then
      QCheck.Test.fail_reportf "%s: column types" format;
    if Array.length rows <> Array.length want.(0) then
      QCheck.Test.fail_reportf "%s: %d rows" format (Array.length rows);
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j v ->
            if not (same_cell v want.(j).(i)) then
              QCheck.Test.fail_reportf "%s: row %d column %d: %s, want %s"
                format i j (PV.to_display v) (PV.to_display want.(j).(i)))
          row)
      rows;
    true
  in
  (match Pgwire.Client.query (wire_client session) sql with
  | Ok r -> agrees "binary" (r.Pgwire.Client.result.Pgdb.Exec.res_cols, wire_rows r)
  | Error e -> QCheck.Test.fail_reportf "binary: %s" e)
  &&
  match text_query (started_server session) sql with
  | Ok r -> agrees "text" r
  | Error e -> QCheck.Test.fail_reportf "text: %s" e

let prop_wire_roundtrip =
  QCheck.Test.make ~count:300 ~name:"typed result wire round trip"
    (QCheck.make ~print:print_result (gen_result ()))
    wire_roundtrip

(* the round trip's edge cases, whatever the generator draws: zero rows
   of every type, and an all-NULL text column beside typed and boxed
   extremes *)
let test_wire_roundtrip_edges () =
  let col ?(boxed = false) g_ty g_cells = { g_ty; g_cells; g_boxed = boxed } in
  List.iter
    (fun cols -> check tbool (print_result cols) true (wire_roundtrip cols))
    [
      List.map
        (fun ty -> col ty [||])
        Ty.[ TBigint; TDouble; TText; TVarchar; TBool; TDate; TTime; TTimestamp ];
      [
        col Ty.TText [| PV.Null; PV.Null; PV.Null |];
        col Ty.TBigint [| PV.Int Int64.min_int; PV.Null; PV.Int Int64.max_int |];
        col ~boxed:true Ty.TDouble
          [| PV.Float Float.nan; PV.Float (-0.0); PV.Float neg_infinity |];
        col ~boxed:true Ty.TVarchar [| PV.Str ""; PV.Null; PV.Str "" |];
      ];
    ]

(* A date or time the binary format cannot hold, anywhere in a generated
   result, in a stored typed column or a boxed one, answers one 22008
   ErrorResponse and no DataRow *)
let prop_wire_overflow =
  QCheck.Test.make ~count:100 ~name:"unencodable cell: one 22008, no rows"
    (QCheck.make ~print:print_result
       QCheck.Gen.(
         gen_result ~min_rows:1 () >>= fun cols ->
         let n = Array.length (List.hd cols).g_cells in
         map3
           (fun row bad g_boxed ->
             let cells = Array.make n PV.Null in
             cells.(row) <- bad;
             let g_ty = match bad with PV.Date _ -> Ty.TDate | _ -> Ty.TTime in
             cols @ [ { g_ty; g_cells = cells; g_boxed } ])
           (int_range 0 (n - 1))
           (oneofl
              [
                PV.Date 0x8000_0000;
                PV.Date (-0x8000_0001);
                PV.Time max_int;
                PV.Time (PV.max_binary_time + 1);
                PV.Time (-PV.max_binary_time - 1);
              ])
           bool))
    (fun cols ->
      let session, sql = result_session cols in
      shape (Pgwire.Server.feed (started_server session) (Pgwire.Client.batch sql))
      = "1 2 T E22008 Z"
      &&
      match Pgwire.Client.query (wire_client session) sql with
      | Error e -> String.sub e 0 5 = "22008"
      | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_atom : Atom.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> Atom.Bool b) bool;
        map (fun i -> Atom.Long (Int64.of_int i)) (int_range (-10000) 10000);
        map (fun f -> Atom.Float f) (float_bound_exclusive 1e6);
        map (fun s -> Atom.Sym s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        return (Atom.Null Qtype.Long);
        return (Atom.Null Qtype.Float);
        map (fun d -> Atom.Date d) (int_range (-3000) 9000);
        map (fun t -> Atom.Time t) (int_range 0 86399999);
      ])

let gen_value : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> Value.Atom a) gen_atom;
        map
          (fun atoms -> Value.vector_of_atoms (Array.of_list atoms))
          (list_size (int_range 0 20) gen_atom);
        map
          (fun (names, len) ->
            let names = List.sort_uniq String.compare names in
            let names = if names = [] then [ "c" ] else names in
            Value.Table
              (Value.table
                 (List.map
                    (fun n ->
                      (n, Value.longs (Array.init len (fun i -> i))))
                    names)))
          (pair
             (list_size (int_range 1 4)
                (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)))
             (int_range 0 10));
      ])

let prop_qipc_roundtrip =
  QCheck.Test.make ~count:300 ~name:"QIPC decode . encode = id"
    (QCheck.make gen_value) (fun v ->
      let msg = QC.encode_message { QC.mt = QC.Response; body = QC.Value v } in
      match QC.decode_message msg with
      | { QC.body = QC.Value v'; _ }, consumed ->
          consumed = String.length msg && Value.equal v v'
      | _ -> false)

let prop_pg_datarow_roundtrip =
  QCheck.Test.make ~count:300 ~name:"PGv3 DataRow roundtrip"
    QCheck.(list_of_size (Gen.int_range 0 10) (option (string_small_of (Gen.char_range 'a' 'z'))))
    (fun cells ->
      let bytes = PC.encode_backend (PC.DataRow cells) in
      match PC.decode_backend bytes with
      | PC.DataRow cells', consumed ->
          cells = cells' && consumed = String.length bytes
      | _ -> false)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_qipc_roundtrip;
      prop_pg_datarow_roundtrip;
      prop_compress_roundtrip;
      prop_compress_roundtrip_large;
      prop_compress_cutoff;
      prop_text_writer_matches_printf;
      prop_timestamp_us_roundtrip;
      prop_binary_matches_text;
      prop_fuzz_frontend;
      prop_fuzz_backend;
      prop_wire_roundtrip;
      prop_wire_overflow;
    ]

let () =
  Alcotest.run "protocols"
    [
      ( "qipc",
        [
          Alcotest.test_case "atoms" `Quick test_qipc_atoms;
          Alcotest.test_case "vectors" `Quick test_qipc_vectors;
          Alcotest.test_case "tables and dicts" `Quick test_qipc_tables;
          Alcotest.test_case "column orientation (Fig 5)" `Quick
            test_qipc_column_orientation;
          Alcotest.test_case "error body" `Quick test_qipc_error_roundtrip;
          Alcotest.test_case "query body" `Quick test_qipc_query_roundtrip;
          Alcotest.test_case "handshake" `Quick test_qipc_handshake;
          Alcotest.test_case "truncated input" `Quick test_qipc_truncated;
          Alcotest.test_case "incomplete frames wait" `Quick
            test_qipc_frame_incomplete;
          Alcotest.test_case "malformed frames rejected" `Quick
            test_qipc_frame_malformed;
          Alcotest.test_case "decode collection budget" `Quick
            test_qipc_decode_collections;
        ] );
      ( "compression",
        [
          Alcotest.test_case "large messages compress" `Quick
            test_compression_kicks_in;
          Alcotest.test_case "small messages stay plain" `Quick
            test_small_messages_stay_plain;
          Alcotest.test_case "2000-byte threshold" `Quick
            test_compression_threshold;
          Alcotest.test_case "decompress in place at an offset" `Quick
            test_decompress_at_offset;
          Alcotest.test_case "corruption rejected" `Quick
            test_corrupt_compressed_rejected;
          Alcotest.test_case "inflated length claim rejected" `Quick
            test_decompress_rejects_inflated_claim;
          Alcotest.test_case "golden compressed frames" `Quick
            test_golden_compressed_frames;
        ] );
      ( "pgv3",
        [
          Alcotest.test_case "backend messages" `Quick
            test_pg_backend_messages;
          Alcotest.test_case "frontend messages" `Quick
            test_pg_frontend_messages;
          Alcotest.test_case "row streaming (Fig 5)" `Quick
            test_pg_row_streaming_shape;
          Alcotest.test_case "result bytes against QIPC (Fig 5)" `Quick
            test_result_format_bytes;
        ] );
      ( "wire",
        [
          Alcotest.test_case "query over wire" `Quick test_wire_query;
          Alcotest.test_case "error over wire" `Quick test_wire_error;
          Alcotest.test_case "md5 auth" `Quick test_wire_md5_auth;
          Alcotest.test_case "cleartext auth" `Quick test_wire_cleartext_auth;
          Alcotest.test_case "fragmented delivery" `Quick
            test_wire_fragmented_delivery;
          Alcotest.test_case "chunked 20k-row result" `Quick
            test_chunked_large_result;
          Alcotest.test_case "decode allocation is linear" `Quick
            test_decode_allocation_is_linear;
          Alcotest.test_case "one write per statement" `Quick
            test_one_write_per_statement;
          Alcotest.test_case "encode allocation budget" `Quick
            test_encode_allocation;
          Alcotest.test_case "decode allocation budget" `Quick
            test_decode_allocation;
          Alcotest.test_case "typed result round trip edges" `Quick
            test_wire_roundtrip_edges;
        ] );
      ( "extended protocol",
        [
          Alcotest.test_case "batch reply" `Quick test_extended_batch_reply;
          Alcotest.test_case "error until Sync" `Quick
            test_extended_error_until_sync;
          Alcotest.test_case "unsupported is 0A000" `Quick
            test_extended_unsupported;
          Alcotest.test_case "byte-at-a-time batch" `Quick
            test_extended_fragmented_batch;
        ] );
      ( "hostile frames",
        [
          Alcotest.test_case "length below 4" `Quick test_hostile_short_length;
          Alcotest.test_case "field overruns frame" `Quick
            test_hostile_field_overruns_frame;
          Alcotest.test_case "truncated frame waits" `Quick
            test_truncated_frame_waits;
          Alcotest.test_case "wrong-width typed cells" `Quick
            test_wrong_width_cells;
          Alcotest.test_case "server rejects malformed" `Quick
            test_server_rejects_malformed;
          Alcotest.test_case "oversized counts" `Quick test_oversized_counts;
        ] );
      ( "text format",
        [
          Alcotest.test_case "Printf edge cases" `Quick test_text_edge_cases;
          Alcotest.test_case "DataRow golden frames" `Quick test_datarow_golden;
          Alcotest.test_case "round trip at the edges" `Quick
            test_text_roundtrip_edges;
          Alcotest.test_case "civil dates: successor days" `Quick
            test_civil_successor_days;
        ] );
      ( "binary format",
        [
          Alcotest.test_case "edge cases match text" `Quick
            test_binary_edge_cases;
          Alcotest.test_case "statements: binary = text" `Quick
            test_binary_matches_text_statements;
        ] );
      ("properties", props);
    ]
