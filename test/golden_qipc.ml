(* Prints the QIPC reply bytes the platform sends for a fixed set of Q
   requests, end to end: QIPC request in at the endpoint, translation,
   the PG v3 leg to pgdb, the pivot and the QIPC encode. First every
   tick_extract shape (seed 1, a small dataset), then a table of edge
   cells: each Q type's null, the int64 extremes, +0.0 and -0.0, NaN,
   an all-NULL column, one-byte text that pivots to chars, text mixing
   one-byte and longer strings (a general list), and the same table with
   no rows.

   A reply prints its length and MD5 as sent, then, when it was sent
   compressed, the same for its uncompressed frame. The uncompressed
   frame is then walked by its type codes: every vector prints its path,
   type code, count, payload length and MD5, and its payload in hex
   (the first 64 bytes of a long one). test/dune diffs the output
   against golden_qipc.expected, so any change to the bytes on the QIPC
   wire shows up as a reviewed diff. *)

module MD = Workload.Marketdata
module W = Hqsuite.Workloads
module P = Platform.Hyperq_platform
module V = Pgdb.Value
module Ty = Catalog.Sqltype
module S = Catalog.Schema

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let md5 s = Digest.to_hex (Digest.string s)

(* the payload width of a vector type code; 0 for symbols *)
let width = function
  | 1 | 4 | 10 -> 1
  | 5 -> 2
  | 6 | 8 | 13 | 14 | 17 | 18 | 19 -> 4
  | 7 | 9 | 12 | 15 | 16 -> 8
  | 11 -> 0
  | c -> failwith (Printf.sprintf "type code %d" c)

let i32 f pos = Int32.to_int (String.get_int32_le f pos)

(* print the value at [pos] of frame [f] under [path]; the position
   after it *)
let rec walk f path pos =
  let code = Char.code f.[pos] in
  let code = if code > 127 then code - 256 else code in
  match code with
  | 98 ->
      Printf.printf "%s table\n" path;
      let pos = walk f (path ^ ".cols") (pos + 3) in
      walk f (path ^ ".data") pos
  | 99 ->
      Printf.printf "%s dict\n" path;
      let pos = walk f (path ^ ".k") (pos + 1) in
      walk f (path ^ ".v") pos
  | 0 ->
      let n = i32 f (pos + 2) in
      Printf.printf "%s list %d\n" path n;
      let p = ref (pos + 6) in
      for i = 0 to n - 1 do
        p := walk f (Printf.sprintf "%s.%d" path i) !p
      done;
      !p
  | -128 ->
      let z = String.index_from f (pos + 1) '\000' in
      Printf.printf "%s error %s\n" path (String.sub f (pos + 1) (z - pos - 1));
      z + 1
  | c when c < 0 ->
      let w = width (-c) in
      let len =
        if w > 0 then w else String.index_from f (pos + 1) '\000' - pos
      in
      Printf.printf "%s atom %d %s\n" path c (hex (String.sub f (pos + 1) len));
      pos + 1 + len
  | c ->
      let n = i32 f (pos + 2) in
      let start = pos + 6 in
      let stop =
        match width c with
        | 0 ->
            let p = ref start in
            for _ = 1 to n do
              p := String.index_from f !p '\000' + 1
            done;
            !p
        | w -> start + (w * n)
      in
      let payload = String.sub f start (stop - start) in
      Printf.printf "%s vector %d count %d, %d bytes, md5 %s\n" path c n
        (String.length payload) (md5 payload);
      if payload <> "" then
        Printf.printf "  %s%s\n"
          (hex (String.sub payload 0 (min 64 (String.length payload))))
          (if String.length payload > 64 then " ..." else "");
      stop

let print_reply (reply : string) =
  Printf.printf "sent %d bytes, md5 %s\n" (String.length reply) (md5 reply);
  let plain =
    if reply.[2] = '\000' then reply
    else
      let plain = Bytes.to_string (Qipc.Compress.decompress reply) in
      Printf.printf "uncompressed %d bytes, md5 %s\n" (String.length plain)
        (md5 plain);
      plain
  in
  Printf.printf "header %s\n" (hex (String.sub plain 0 8));
  let stop = walk plain "r" 8 in
  assert (stop = String.length plain)

let run (c : P.Client.client) (text : string) =
  Printf.printf "-- q) %s\n" text;
  print_reply
    (Platform.Endpoint.feed c.P.Client.conn.P.endpoint
       (Qipc.Codec.encode_message
          { mt = Qipc.Codec.Sync; body = Qipc.Codec.Query text }));
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
  let c = P.Client.connect (P.create db) in
  let reqs = w.W.cycle d (Random.State.make [| 1 |]) in
  Array.iteri
    (fun i (r : W.request) ->
      Printf.printf "-- %s / %s\n" w.W.name w.W.shape_names.(i);
      run c r.W.text)
    reqs

let print_edges () =
  let db = Pgdb.Db.create () in
  Pgdb.Db.load_table db
    (S.table ~order_col:"hq_ord" "edges"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "L" Ty.TBigint;
         S.column "F" Ty.TDouble;
         S.column "D" Ty.TDate;
         S.column "T" Ty.TTime;
         S.column "P" Ty.TTimestamp;
         S.column "B" Ty.TBool;
         S.column "S" Ty.TVarchar;
         S.column "C" Ty.TText;
         S.column "N" Ty.TDouble;
         S.column "M" Ty.TText;
       ])
    (List.mapi
       (fun i r -> Array.append [| V.Int (Int64.of_int i) |] r)
       [
         [| V.Int Int64.min_int; V.Float 0.0; V.Date 0; V.Time 0; V.Timestamp 0L;
            V.Bool false; V.Str ""; V.Str "a"; V.Null; V.Str "a" |];
         [| V.Int Int64.max_int; V.Float (-0.0); V.Date (-1); V.Time 86_399_999;
            V.Timestamp (-1L); V.Bool true; V.Str "x"; V.Str "b"; V.Null; V.Str "bc" |];
         [| V.Null; V.Null; V.Null; V.Null; V.Null; V.Null; V.Null; V.Null; V.Null; V.Null |];
         [| V.Int (-1L); V.Float Float.nan; V.Date 6021; V.Time 45_296_789;
            V.Timestamp 520_000_123_456_789L; V.Bool true; V.Str "sym"; V.Str " ";
            V.Null; V.Str "" |];
         [| V.Int (Int64.succ Int64.min_int); V.Float Float.infinity; V.Date (-36524);
            V.Time 1; V.Timestamp Int64.max_int; V.Bool false; V.Str "é"; V.Str "z";
            V.Null; V.Str "d" |];
       ]);
  let c = P.Client.connect (P.create db) in
  print_endline "-- edge cells";
  List.iter (run c)
    [
      "select from edges";
      "select from edges where L>0";
      "select from edges where L=42";
      "select L, S, C from edges where L<0";
      "exec F from edges";
      "exec C from edges";
      "select N by B from edges";
    ]

let () =
  print_tick_extract ();
  print_edges ()
