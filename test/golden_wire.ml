(* Prints the binary PG v3 reply bytes the wire server sends for a fixed
   set of statements: every statement the four tick_extract shapes send
   (seed 1, a small dataset), then a table of edge cells (NULLs, int64
   extremes, date, time, timestamp and bool edges). Each statement is
   the Gateway's extended-protocol batch, every result column in binary.
   A reply prints one message a line, tag then hex; a run of DataRows
   prints its count, byte length and MD5, and the first rows in hex
   (all of them for the edge table). test/dune diffs the output against
   golden_wire.expected, so any change to the bytes on the wire shows
   up as a reviewed diff. *)

module MD = Workload.Marketdata
module W = Hqsuite.Workloads
module E = Hyperq.Engine
module B = Hyperq.Backend
module PC = Pgwire.Codec
module V = Pgdb.Value
module Ty = Catalog.Sqltype
module S = Catalog.Schema

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* the reply's messages, each its tag and its whole frame *)
let frames (reply : string) : (char * string) list =
  let rec go pos acc =
    if pos >= String.length reply then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_be reply (pos + 1)) in
      go (pos + 1 + len) ((reply.[pos], String.sub reply pos (1 + len)) :: acc)
  in
  go 0 []

(* print [sql]'s reply; [rows] DataRows in full, the rest hashed *)
let print_reply ~rows (db : Pgdb.Db.t) (sql : string) =
  let server = Pgwire.Server.create (Pgdb.Db.open_session db) in
  ignore
    (Pgwire.Server.feed server
       (PC.encode_frontend (PC.Startup [ ("user", "app"); ("database", "hyperq") ])));
  let reply = Pgwire.Server.feed server (Pgwire.Client.batch sql) in
  Printf.printf "-- sql) %s\n" sql;
  let data = Buffer.create 4096 and count = ref 0 in
  let flush () =
    if !count > 0 then
      Printf.printf "D* %d rows, %d bytes, md5 %s\n" !count (Buffer.length data)
        (Digest.to_hex (Digest.string (Buffer.contents data)));
    Buffer.clear data;
    count := 0
  in
  List.iter
    (fun (tag, frame) ->
      if tag = 'D' then begin
        if !count < rows then Printf.printf "D %s\n" (hex frame);
        Buffer.add_string data frame;
        incr count
      end
      else begin
        flush ();
        Printf.printf "%c %s\n" tag (hex frame)
      end)
    (frames reply);
  flush ();
  print_newline ()

let tick_scale =
  (* enough trades for the price band shape's ~1,000-row window *)
  {
    MD.symbols = 2;
    trades_per_symbol = 520;
    quotes_per_symbol = 120;
    wide_columns = 1;
  }

let print_tick_extract () =
  let w = W.tick_extract in
  let d = MD.generate ~seed:1 tick_scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let eng = E.create (B.of_pgdb_session (Pgdb.Db.open_session db)) in
  let reqs = w.W.cycle d (Random.State.make [| 1 |]) in
  Array.iteri
    (fun i (r : W.request) ->
      Printf.printf "-- %s / %s\n-- q) %s\n" w.W.name w.W.shape_names.(i) r.W.text;
      match E.try_run eng (Qlang.Fingerprint.analyze r.W.text) with
      | Ok run -> List.iter (print_reply ~rows:3 db) run.E.sqls
      | Error e -> failwith (Printf.sprintf "%s: %s" r.W.text e))
    reqs

let print_edges () =
  let db = Pgdb.Db.create () in
  Pgdb.Db.load_table db
    (S.table "edges"
       [
         S.column "k" Ty.TBigint;
         S.column "b" Ty.TBigint;
         S.column "d" Ty.TDate;
         S.column "t" Ty.TTime;
         S.column "ts" Ty.TTimestamp;
         S.column "f" Ty.TBool;
         S.column "x" Ty.TDouble;
         S.column "s" Ty.TText;
       ])
    [
      [| V.Int 0L; V.Int Int64.min_int; V.Date (-0x8000_0000); V.Time (-V.max_binary_time);
         V.Timestamp Int64.min_int; V.Bool false; V.Float Float.neg_infinity; V.Str "" |];
      [| V.Int 1L; V.Int Int64.max_int; V.Date 0x7fff_ffff; V.Time V.max_binary_time;
         V.Timestamp Int64.max_int; V.Bool true; V.Float Float.nan; V.Str "a" |];
      [| V.Int 2L; V.Null; V.Null; V.Null; V.Null; V.Null; V.Null; V.Null |];
      [| V.Int 3L; V.Int (-1L); V.Date (-1); V.Time 86_399_999; V.Timestamp (-1L);
         V.Bool true; V.Float (-0.0); V.Str "\000x" |];
      [| V.Int 4L; V.Int 0L; V.Date 0; V.Time 0; V.Timestamp (-1001L); V.Bool false;
         V.Float 1e300; V.Str "é" |];
      [| V.Int 5L; V.Int 1L; V.Date 6021; V.Time 45_296_789; V.Timestamp 520_000_123_456_789L;
         V.Null; V.Float 0.5; V.Null |];
    ];
  print_endline "-- edge cells";
  List.iter (print_reply ~rows:max_int db)
    [
      "SELECT k, b, d, t, ts, f, x, s FROM edges ORDER BY k";
      "SELECT k, d, t FROM edges WHERE f ORDER BY k DESC";
      (* computed columns: mixed cells, and calendar values *)
      "SELECT k, CASE WHEN k < 2 THEN b ELSE x END AS m, \
       CASE WHEN k > 1 THEN d + 1 END AS d1, \
       CASE WHEN k = 1 THEN d ELSE NULL END AS dn FROM edges ORDER BY k";
    ]

let () =
  print_tick_extract ();
  print_edges ()
