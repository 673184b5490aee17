(* Tests for the vectorized columnar executor (lib/pgdb: Batch + Vexec).

   The load-bearing property is byte-identical results: every query pgdb
   answers must produce exactly the result the row-at-a-time reference
   interpreter (Row_reference) produces, including column types, row
   order, NULL placement and error codes. test_sidebyside's one
   differential runs the SQL of every generated case through both. Here,
   the constructs the translator does not emit (a join of a join, plain
   <>, NULL in an IN list), differentials over window functions, nested
   derived tables, equi + residual joins, the translator's as-of join
   SQL, no FROM, UNION ALL, cross and theta joins, the rank-limit cut
   (and the shapes it must leave alone) and the rejected shapes' errors,
   the 25 analytical queries, plus targeted unit tests (3VL filters,
   selection-vector compaction, empty batches, all-null columns,
   explain nodes, tables on either side of a chunk boundary) pin that
   down.

   Every hash operator (GROUP BY, a DISTINCT aggregate, PARTITION BY,
   the hash join) classes keys by one equivalence, Exec.gkey_of's. The
   "key
   classes" group holds both executors to it on keys that mix text,
   ints and doubles, NaN, signed zeros and ints beyond 2^53, and holds a
   join to the same predicate written in WHERE, but for the two pairs
   where they differ: text against a number matches nothing in a join
   and raises 42804 under [=], and an int beyond 2^53 stays apart from
   the double it rounds to.

   Every sort, min/max and greatest/least order keys by one comparator,
   Exec.compare_key, which orders gkey_of's classes. The reference
   shares it, so the "key order" group checks sorts, windows, extremes
   and DISTINCT aggregates against hand-computed rows on such keys, and
   the "sort kernel" group checks the kernel against a key-list
   reference. *)

module V = Pgdb.Value
module Db = Pgdb.Db
module Batch = Pgdb.Batch
module Vexec = Pgdb.Vexec
module Op = Pgdb.Opstats
module S = Catalog.Schema
module Ty = Catalog.Sqltype

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

(* trades-like fixture with NULLs in both a float and a string column,
   so filters and aggregates cross the 3VL paths *)
let fixture () : Db.t =
  let db = Db.create () in
  Db.load_table db
    (S.table "trades"
       [
         S.column "sym" Ty.TVarchar;
         S.column "t" Ty.TBigint;
         S.column "price" Ty.TDouble;
         S.column "size" Ty.TBigint;
         S.column "note" Ty.TVarchar;
       ])
    [
      [| V.Str "AAPL"; V.Int 1000L; V.Float 10.0; V.Int 100L; V.Str "x" |];
      [| V.Str "MSFT"; V.Int 2000L; V.Float 20.0; V.Int 200L; V.Null |];
      [| V.Str "AAPL"; V.Int 3000L; V.Float 11.0; V.Int 150L; V.Str "y" |];
      [| V.Str "IBM"; V.Int 4000L; V.Null; V.Int 250L; V.Null |];
      [| V.Str "AAPL"; V.Int 5000L; V.Float 12.0; V.Int 300L; V.Str "x" |];
      [| V.Str "MSFT"; V.Int 6000L; V.Float 21.5; V.Int 50L; V.Str "z" |];
      [| V.Str "IBM"; V.Int 7000L; V.Float 95.25; V.Int 75L; V.Null |];
      [| V.Str "GOOG"; V.Int 8000L; V.Null; V.Int 125L; V.Str "yy" |];
      [| V.Str "MSFT"; V.Int 9000L; V.Float 19.5; V.Int 400L; V.Str "x" |];
      [| V.Str "GOOG"; V.Int 10000L; V.Float 140.0; V.Int 10L; V.Str "q" |];
    ];
  db

let session db = Db.open_session db

let run = Stored.run
let reference = Row_reference.outcome

let check_same sql a b =
  if Stdlib.compare a b <> 0 then
    Alcotest.failf "vector/reference divergence on: %s" sql

let bits = Stored.bits

(* every query must succeed and agree with the reference bit for bit *)
let bit_differential sess sqls =
  List.iter
    (fun sql ->
      let a = run sess sql in
      (match a with Error e -> Alcotest.failf "%s: %s" sql e | Ok _ -> ());
      check_same sql (bits a) (bits (reference sess sql)))
    sqls

let differential db sqls =
  let sess = session db in
  List.iter (fun sql -> check_same sql (run sess sql) (reference sess sql)) sqls

(* every query must succeed, agree with the reference and be answered
   by Vexec: the vector counter moves once per query *)
let vector_differential sess sqls =
  List.iter
    (fun sql ->
      let v0 = Atomic.get Vexec.stats_vector in
      let a = run sess sql in
      (match a with
      | Error e -> Alcotest.failf "%s: %s" sql e
      | Ok _ -> ());
      check tint ("vector path served: " ^ sql) 1
        (Atomic.get Vexec.stats_vector - v0);
      check_same sql a (reference sess sql))
    sqls

(* ------------------------------------------------------------------ *)
(* Constructs the translator does not emit                             *)
(* ------------------------------------------------------------------ *)

(* pgdb still parses three constructs the translator never emits:
   a join whose left side is a join, plain [<>] (Q's [<>] lowers to IS
   DISTINCT FROM), and an IN list holding NULL (a null member lowers to
   OR ... IS NULL). test_sidebyside's differential reaches the rest of
   the SELECT surface; these run here against the reference *)
let test_untranslated_constructs () =
  bit_differential (session (fixture ()))
    [
      "SELECT a.sym, b.t, c.size FROM trades a JOIN trades b ON a.sym = \
       b.sym LEFT JOIN trades c ON b.note = c.note";
      "SELECT count(*) AS n, sum(a.size) AS sz FROM trades a LEFT JOIN \
       trades b ON a.note IS NOT DISTINCT FROM b.note JOIN trades c ON \
       b.sym = c.sym WHERE c.price > 10";
      "SELECT sym, size FROM trades WHERE size <> 250";
      "SELECT sym, price FROM trades WHERE price <> 12.0 AND note <> 'x'";
      "SELECT sym, t FROM trades WHERE note IN ('x', NULL)";
      "SELECT sym, t FROM trades WHERE size IN (100, NULL, 75)";
      "SELECT sym, t FROM trades WHERE NOT (note IN ('y', NULL))";
    ]

(* ------------------------------------------------------------------ *)
(* Edge values                                                         *)
(* ------------------------------------------------------------------ *)

(* NaN, signed zeros, infinities, NULL and int64s beyond 2^53, in int
   and float columns with NULLs (i, x) and without (j, y), under every
   comparison, IN and BETWEEN against int and float literals, either
   operand order, and the grouped and scalar aggregates over them.
   Group b holds -0.0 then 0.0, so min and max of its zeros tie. *)
let edge_fixture () : Db.t =
  let db = Db.create () in
  let big = 9007199254740992L (* 2^53 *) in
  let i = V.Int (Int64.succ big) and f = V.Float 9007199254740992.0 in
  Db.load_table db
    (S.table "edge"
       [
         S.column "k" Ty.TVarchar;
         S.column "i" Ty.TBigint;
         S.column "j" Ty.TBigint;
         S.column "x" Ty.TDouble;
         S.column "y" Ty.TDouble;
       ])
    [
      [| V.Str "a"; V.Int 0L; V.Int 0L; V.Float Float.nan; V.Float Float.nan |];
      [| V.Str "b"; V.Int 1L; V.Int 1L; V.Float (-0.0); V.Float (-0.0) |];
      [| V.Str "b"; V.Int (-1L); V.Int (-1L); V.Float 0.0; V.Float 0.0 |];
      [| V.Str "c"; V.Int big; V.Int big; V.Float Float.infinity;
         V.Float Float.infinity |];
      [| V.Str "b"; i; i; V.Float Float.neg_infinity;
         V.Float Float.neg_infinity |];
      [| V.Str "a"; V.Int (Int64.neg (Int64.succ big));
         V.Int (Int64.neg (Int64.succ big)); V.Float 1.5; V.Float 1.5 |];
      [| V.Str "c"; V.Int Int64.max_int; V.Int Int64.max_int; V.Null; f |];
      [| V.Str "b"; V.Int Int64.min_int; V.Int Int64.min_int; V.Float (-1.0);
         V.Float (-1.0) |];
      [| V.Str "a"; V.Null; V.Int 42L; V.Null; V.Float Float.nan |];
      [| V.Str "c"; V.Int 42L; V.Int (Int64.add big 3L); f; V.Float 1e300 |];
    ];
  db

let test_edge_values () =
  let db = edge_fixture () in
  let cols = [ "i"; "j"; "x"; "y" ] in
  (* positive literals reach the typed kernels; a minus sign makes the
     literal an expression, which takes the generic path *)
  let lits =
    [ "0"; "1"; "42"; "9007199254740992"; "9007199254740993";
      "9223372036854775807"; "0.0"; "0.5"; "1.5"; "9007199254740992.0";
      "9007199254740993.0"; "9223372036854775808.0"; "1e300"; "1e400";
      "-1"; "-0.0"; "-1e400"; "-9223372036854775808" ]
  in
  let ops = [ "="; "<>"; "<"; "<="; ">"; ">="; "IS NOT DISTINCT FROM" ] in
  let select where = "SELECT k, i, j, x, y FROM edge WHERE " ^ where in
  let filters =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun op ->
            List.concat_map
              (fun l ->
                [ Printf.sprintf "%s %s %s" c op l;
                  Printf.sprintf "%s %s %s" l op c ])
              lits)
          ops
        @ List.map
            (fun l -> Printf.sprintf "%s IN (%s)" c l)
            [ "0, 42"; "1.5, 1e400"; "9007199254740992.0, NULL";
              "9007199254740993, 0.0"; "NULL" ]
        @ List.map
            (fun (lo, hi) -> Printf.sprintf "%s BETWEEN %s AND %s" c lo hi)
            [ ("0", "42"); ("0.0", "1e400"); ("9007199254740992.0", "1e300");
              ("1.5", "0.5"); ("NULL", "1"); ("0", "9223372036854775807") ])
      cols
  in
  let aggs =
    List.concat_map
      (fun c ->
        let a =
          Printf.sprintf
            "min(%s) AS lo, max(%s) AS hi, sum(%s) AS s, avg(%s) AS m, \
             count(%s) AS n"
            c c c c c
        in
        let e = Printf.sprintf "%s * 1" c in
        let b =
          Printf.sprintf
            "min(%s) AS lo, max(%s) AS hi, sum(%s) AS s, avg(%s) AS m" e e e e
        in
        [ Printf.sprintf "SELECT k, %s FROM edge GROUP BY k ORDER BY k" a;
          Printf.sprintf "SELECT k, %s FROM edge WHERE %s = 0 GROUP BY k" a c;
          Printf.sprintf "SELECT k, %s FROM edge WHERE j <> 1 GROUP BY k" a;
          Printf.sprintf "SELECT k, %s FROM edge GROUP BY k" b;
          Printf.sprintf "SELECT %s FROM edge" a;
          Printf.sprintf "SELECT %s FROM edge WHERE k = 'b'" b ])
      cols
  in
  let sess = session db in
  List.iter
    (fun sql ->
      check_same sql (bits (run sess sql)) (bits (reference sess sql)))
    (List.map select filters @ aggs)

(* Stored date, time, timestamp and bool columns hold unboxed payloads
   of their kind. Against the row reference: comparisons with CAST
   literal bounds (the typed kernels' folded bounds, NULL and a literal
   the cast rejects among them), comparisons across kinds (the generic
   path), extremes and the other aggregates, grouping, joins and sorts
   on each column, with NULLs and the binary format's edges
   among the values. *)
let calendar_db () =
  let db = Db.create () in
  let row k d tm ts f = [| V.Int k; d; tm; ts; f |] in
  Db.load_table db
    (S.table "cal"
       [
         S.column "k" Ty.TBigint;
         S.column "d" Ty.TDate;
         S.column "tm" Ty.TTime;
         S.column "ts" Ty.TTimestamp;
         S.column "f" Ty.TBool;
       ])
    [
      row 0L (V.Date 6021) (V.Time 36_000_000)
        (V.Timestamp 520_236_000_000_000_000L) (V.Bool true);
      row 1L (V.Date 6022) (V.Time 46_800_000) (V.Timestamp (-1L)) (V.Bool false);
      row 2L V.Null V.Null V.Null V.Null;
      row 3L (V.Date (-0x8000_0000)) (V.Time 0)
        (V.Timestamp Int64.min_int) (V.Bool true);
      row 4L (V.Date 0x7fff_ffff) (V.Time 86_399_999)
        (V.Timestamp Int64.max_int) (V.Bool false);
      row 5L (V.Date 6021) (V.Time 45_000_000)
        (V.Timestamp 520_236_000_000_000_001L) V.Null;
      row 6L (V.Date 0) (V.Time 36_000_000) (V.Timestamp 0L) (V.Bool true);
    ];
  db

let test_calendar_payloads () =
  let db = calendar_db () in
  let batch = (Hashtbl.find db.Db.tables "cal").Pgdb.Storage.batch in
  List.iteri
    (fun j want ->
      match batch.Batch.cols.(j).Batch.data with
      | Batch.DInt { kind; _ } when kind = want -> ()
      | _ -> Alcotest.failf "column %d is not an unboxed payload of its kind" j)
    Batch.[ Bigint; Date; Time; Timestamp; Bool ];
  let bounds =
    [
      ("d", [ "CAST('2016-06-26' AS date)"; "CAST('2000-01-01' AS date)";
              "CAST(NULL AS date)"; "CAST('2016-13-01' AS date)"; "6021";
              "CAST(6021 AS bigint)" ]);
      ("tm", [ "CAST('10:00:00.000' AS time)"; "CAST('13:00' AS time)";
               "CAST('23:59:59.999' AS time)"; "CAST('10:xx' AS time)"; "0";
               "CAST('2016-06-26' AS date)" ]);
      ("ts", [ "CAST('2016-06-26 10:00:00' AS timestamp)";
               "CAST('2000-01-01' AS timestamp)"; "CAST(NULL AS timestamp)";
               "0" ]);
      ("f", [ "CAST('t' AS boolean)"; "CAST('f' AS boolean)"; "true" ]);
    ]
  in
  let ops = [ "="; "<>"; "<"; "<="; ">"; ">=" ] in
  let filters =
    List.concat_map
      (fun (c, bs) ->
        List.concat_map
          (fun op ->
            List.concat_map
              (fun b ->
                [ Printf.sprintf "%s %s %s" c op b; Printf.sprintf "%s %s %s" b op c ])
              bs)
          ops
        @ List.concat_map
            (fun lo -> List.map (Printf.sprintf "%s BETWEEN %s AND %s" c lo) bs)
            bs)
      bounds
  in
  let cols = [ "d"; "tm"; "ts"; "f" ] in
  let others =
    List.concat_map
      (fun c ->
        [
          Printf.sprintf
            "SELECT min(%s) AS lo, max(%s) AS hi, count(%s) AS n FROM cal" c c c;
          Printf.sprintf "SELECT f, min(%s) AS lo, max(%s) AS hi FROM cal GROUP BY f" c c;
          Printf.sprintf "SELECT sum(%s) AS s FROM cal WHERE k > 2" c;
          Printf.sprintf "SELECT %s, count(*) AS n FROM cal GROUP BY %s ORDER BY %s" c c c;
          Printf.sprintf "SELECT %s FROM cal GROUP BY %s ORDER BY %s DESC" c c c;
          Printf.sprintf "SELECT k, %s FROM cal ORDER BY %s, k" c c;
          Printf.sprintf
            "SELECT a.k, b.k AS k2 FROM cal a JOIN cal b ON a.%s = b.%s \
             ORDER BY a.k, k2"
            c c;
          Printf.sprintf
            "SELECT a.k, b.k AS k2 FROM cal a JOIN cal b ON a.%s = b.k \
             ORDER BY a.k, k2"
            c;
        ])
      cols
    @ [
        "SELECT k FROM cal WHERE tm < ts";
        "SELECT k FROM cal WHERE d <= ts";
        "SELECT k FROM cal WHERE ts > d";
        "SELECT k FROM cal WHERE d = k";
        "SELECT k, tm + 1 AS t1, d + 1 AS d1, ts - ts AS z FROM cal WHERE k <> 4";
      ]
  in
  let sess = session db in
  List.iter
    (fun sql -> check_same sql (run sess sql) (reference sess sql))
    (List.map (fun w -> "SELECT k FROM cal WHERE " ^ w) filters @ others);
  (* a literal the cast rejects raises only when a row reaches it *)
  List.iter
    (fun sql ->
      match run sess sql with
      | Ok (_, [||]) -> ()
      | _ -> Alcotest.failf "%s: expected no rows and no error" sql)
    [
      "SELECT k FROM cal WHERE k > 100 AND tm > CAST('10:xx' AS time)";
      "SELECT k FROM cal WHERE k > 100 AND d BETWEEN CAST('2016-13-01' AS date) \
       AND CAST('2016-06-26' AS date)";
    ]

(* ------------------------------------------------------------------ *)
(* One key equivalence                                                 *)
(* ------------------------------------------------------------------ *)

(* Two tables whose keys hold what the hash operators must class alike
   or apart: ints against doubles (3 and 3.0), -0.0 and 0.0, NaN, the
   int 2^53 + 1 and the double 2^53 it rounds to, text holding a number
   or the word NULL, SQL NULL, and a column [m] mixing ints, doubles
   and text. Columns: id, n bigint, d double, s text, m mixed. *)
let key_rows =
  let i x = V.Int x and f x = V.Float x and s x = V.Str x in
  let big = i 9007199254740993L and rounded = f 9007199254740992.0 in
  [
    ( "l",
      [
        [| i 1L; i 3L; f 3.0; s "3"; i 3L |];
        [| i 2L; i 0L; f (-0.0); V.Null; f 3.0 |];
        [| i 3L; V.Null; f 0.0; s "NULL"; s "x" |];
        [| i 4L; big; f Float.nan; s "1"; V.Null |];
        [| i 5L; i 1L; rounded; s "x"; f (-0.0) |];
        [| i 6L; i 3L; V.Null; s "3"; big |];
      ] );
    ( "r",
      [
        [| i 10L; i 1L; f 0.0; s "NULL"; f 0.0 |];
        [| i 11L; i 3L; f Float.nan; V.Null; big |];
        [| i 12L; V.Null; f 3.0; s "1"; s "3" |];
        [| i 13L; i 0L; f (-0.0); s "x"; f 3.0 |];
        [| i 14L; big; rounded; s "3"; V.Null |];
        [| i 15L; i 0L; V.Null; s "NULL"; i 0L |];
        [| i 16L; i 0L; f 0.0; V.Null; s "x" |];
      ] );
  ]

let key_cols = [ "n"; "d"; "s"; "m" ]

let key_fixture () : Db.t =
  let db = Db.create () in
  List.iter
    (fun (name, rows) ->
      Db.load_table db
        (S.table name
           [
             S.column "id" Ty.TBigint;
             S.column "n" Ty.TBigint;
             S.column "d" Ty.TDouble;
             S.column "s" Ty.TVarchar;
             S.column "m" Ty.TVarchar;
           ])
        rows)
    key_rows;
  db

let big_rows = 40_000

(* a 40,000-row fact table whose bigint and date keys take 16 values
   each, beside a bigint that takes 20,000 (two rows each, int64
   extremes among them), and a 16-row dimension on the bigint key *)
let keyed_session () =
  let db = Db.create () in
  Db.load_table db
    (S.table "facts"
       [
         S.column "k" Ty.TBigint;
         S.column "d" Ty.TDate;
         S.column "f" Ty.TDouble;
         S.column "id" Ty.TBigint;
       ])
    (List.init big_rows (fun i ->
         [|
           V.Int (Int64.of_int (1_000_000 * (i mod 16)));
           V.Date (9_000 + (i mod 16));
           V.Float (float_of_int i);
           V.Int
             (match i mod 20_000 with
             | 0 -> Int64.min_int
             | 1 -> Int64.max_int
             | j -> Int64.of_int (j * 7919));
         |]));
  Db.load_table db
    (S.table "dim" [ S.column "k" Ty.TBigint; S.column "name" Ty.TVarchar ])
    (List.init 16 (fun i ->
         [| V.Int (Int64.of_int (1_000_000 * i)); V.Str (Printf.sprintf "N%d" i) |]));
  session db

(* a DISTINCT aggregate, PARTITION BY and GROUP BY (Q's distinct among
   its uses) class keys as gkey_of does, on keys that mix text with
   numbers (which no sort can order), ints with doubles, NaN, signed
   zeros and an int beyond 2^53 *)
let test_key_classes () =
  let sess = session (key_fixture ()) in
  let keys =
    key_cols
    @ [
        "CASE WHEN id > 2 THEN s ELSE n END";
        "CASE WHEN id > 3 THEN d ELSE n END";
        "CASE WHEN id > 3 THEN m ELSE d END";
      ]
  in
  bit_differential sess
    (List.concat_map
       (fun e ->
         [
           Printf.sprintf "SELECT count(DISTINCT %s) AS c FROM l" e;
           Printf.sprintf
             "SELECT q.x, q.y FROM (SELECT %s AS x, id > 3 AS y FROM l) AS q \
              GROUP BY q.x, q.y"
             e;
           Printf.sprintf
             "SELECT id, count(*) OVER (PARTITION BY %s) AS c FROM l" e;
           Printf.sprintf
             "SELECT id, row_number() OVER (PARTITION BY %s, id > 3 ORDER BY \
              id DESC) AS rn FROM l"
             e;
           Printf.sprintf
             "SELECT * FROM (SELECT id, row_number() OVER (PARTITION BY %s \
              ORDER BY id DESC) AS rn FROM l) AS q WHERE q.rn = 1"
             e;
           Printf.sprintf
             "SELECT x, count(*) AS c FROM (SELECT %s AS x FROM l) AS q GROUP \
              BY x"
             e;
         ])
       keys);
  (* the classes themselves, first occurrences kept in row order *)
  let rows sql =
    match bits (run sess sql) with
    | Ok (_, rows) -> Array.map (fun r -> r.(0)) rows
    | Error e -> Alcotest.failf "%s: %s" sql e
  in
  let f x = V.Int (Int64.bits_of_float x) in
  List.iter
    (fun (sql, expect) ->
      if rows sql <> Array.of_list expect then
        Alcotest.failf "%s: not one class per gkey" sql)
    [
      ( "SELECT d FROM l GROUP BY d",
        [ f 3.0; f (-0.0); f Float.nan; f 9007199254740992.0; V.Null ] );
      ( "SELECT x FROM (SELECT n AS x FROM l UNION ALL SELECT d AS x FROM l) \
         AS u GROUP BY x",
        [ V.Int 3L; V.Int 0L; V.Null; V.Int 9007199254740993L; V.Int 1L;
          f Float.nan; f 9007199254740992.0 ] );
      ( "SELECT m FROM l GROUP BY m",
        [ V.Int 3L; V.Str "x"; V.Null; f (-0.0); V.Int 9007199254740993L ] );
      ( "SELECT x FROM (SELECT CASE WHEN id > 2 THEN s ELSE n END AS x FROM l) \
         AS q GROUP BY x",
        [ V.Int 3L; V.Int 0L; V.Str "NULL"; V.Str "1"; V.Str "x"; V.Str "3" ]
      );
    ];
  (* a bigint key of 20,000 values, int64 extremes among them: GROUP BY,
     Q's distinct, a unique PARTITION BY (the rank-limit cut's one-row
     partitions, many times the size its payload set starts at) and the
     hash join *)
  let keyed = keyed_session () in
  List.iter
    (fun sql -> check_same sql (run keyed sql) (reference keyed sql))
    [
      "SELECT id, count(*) AS n, min(f) AS lo FROM facts GROUP BY id";
      "SELECT count(*) AS n FROM (SELECT id FROM facts GROUP BY id) AS q";
      "SELECT * FROM (SELECT id, f, row_number() OVER (PARTITION BY id \
       ORDER BY f) AS rn FROM facts WHERE f < 20000) AS q WHERE rn = 1";
      "SELECT a.id, a.f, b.f AS g FROM facts AS a JOIN facts AS b \
       ON a.id = b.id WHERE a.f < 100";
    ]

(* a key pair the join and [=] decide differently: text against a
   number, where [=] raises 42804 and the join matches nothing, and an
   int beyond 2^53 against the double it rounds to, which [=] calls
   equal and the join keeps apart, as GROUP BY does *)
let documented (a : V.t) (b : V.t) =
  match (a, b) with
  | V.Null, _ | _, V.Null | V.Str _, V.Str _ -> false
  | V.Str _, _ | _, V.Str _ -> true
  | V.Int x, V.Float f | V.Float f, V.Int x ->
      Int64.to_float x = f && Int64.compare (Int64.abs x) 9007199254740992L > 0
  | _ -> false

(* the join conditions: every column pair under [=] and IS NOT DISTINCT
   FROM, and two-key conditions over typed, mixed and NULL-against-'NULL'
   pairs *)
let join_keys : (string * string * string) list list =
  let ops = [ "="; "IS NOT DISTINCT FROM" ] in
  List.concat_map
    (fun x ->
      List.concat_map
        (fun y -> List.map (fun op -> [ (x, op, y) ]) ops)
        key_cols)
    key_cols
  @ List.concat_map
      (fun ((x, y), (x', y')) ->
        List.concat_map
          (fun op -> List.map (fun op' -> [ (x, op, y); (x', op', y') ]) ops)
          ops)
      [
        (("n", "n"), ("s", "s"));
        (("d", "n"), ("m", "m"));
        (("s", "s"), ("m", "d"));
        (("d", "d"), ("n", "m"));
      ]

let on_clause keys =
  String.concat " AND "
    (List.map (fun (x, op, y) -> Printf.sprintf "l.%s %s r.%s" x op y) keys)

(* single- and two-key joins over every kind, inner and left outer,
   against the reference *)
let test_key_joins () =
  bit_differential
    (session (key_fixture ()))
    (List.concat_map
       (fun keys ->
         List.map
           (fun kind ->
             Printf.sprintf
               "SELECT l.id, r.id AS rid, l.d, r.d AS rd FROM l %s r ON %s" kind
               (on_clause keys))
           [ "JOIN"; "LEFT JOIN" ])
       join_keys)

(* [a JOIN b ON keys] returns the rows of [FROM a, b WHERE keys] but for
   the documented pairs, which the WHERE skips before comparing and the
   join must not return *)
let test_join_matches_where () =
  let sess = session (key_fixture ()) in
  let lrows = List.assoc "l" key_rows and rrows = List.assoc "r" key_rows in
  let col c = 1 + Option.get (List.find_index (( = ) c) key_cols) in
  let pairs sql =
    match run sess sql with
    | Ok (_, rows) -> Array.to_list (Array.map (fun r -> (r.(0), r.(1))) rows)
    | Error e -> Alcotest.failf "%s: %s" sql e
  in
  List.iter
    (fun keys ->
      let skipped =
        List.concat_map
          (fun (lr : V.t array) ->
            List.filter_map
              (fun (rr : V.t array) ->
                if
                  List.exists
                    (fun (x, _, y) -> documented lr.(col x) rr.(col y))
                    keys
                then Some (lr.(0), rr.(0))
                else None)
              rrows)
          lrows
      in
      let id = function V.Int i -> Int64.to_string i | _ -> assert false in
      let skip =
        match skipped with
        | [] -> ""
        | ps ->
            Printf.sprintf "NOT (%s) AND "
              (String.concat " OR "
                 (List.map
                    (fun (a, b) ->
                      Printf.sprintf "(l.id = %s AND r.id = %s)" (id a) (id b))
                    ps))
      in
      let join =
        Printf.sprintf "SELECT l.id, r.id AS rid FROM l JOIN r ON %s ORDER BY \
                        1, 2" (on_clause keys)
      and where =
        Printf.sprintf "SELECT l.id, r.id AS rid FROM l, r WHERE %s%s ORDER BY \
                        1, 2" skip (on_clause keys)
      in
      let joined = pairs join in
      if joined <> pairs where then
        Alcotest.failf "%s: not the rows of %s" join where;
      if List.exists (fun p -> List.mem p skipped) joined then
        Alcotest.failf "%s: a documented pair matched" join)
    join_keys

(* ------------------------------------------------------------------ *)
(* Errors in grouped aggregates                                        *)
(* ------------------------------------------------------------------ *)

(* [10 / a] raises division by zero where a is 0 and [t + 1] a type
   error where t is text. Group g1 raises only in the addition, g2 only
   in the division, g3 in both, the addition on an earlier row; m mixes
   text and numbers, so min(m) raises when it compares them. *)
let error_fixture () : Db.t =
  let db = Db.create () in
  Db.load_table db
    (S.table "e"
       [
         S.column "g" Ty.TVarchar;
         S.column "a" Ty.TBigint;
         S.column "t" Ty.TVarchar;
         S.column "m" Ty.TVarchar;
       ])
    [
      [| V.Str "g1"; V.Int 1L; V.Null; V.Str "x" |];
      [| V.Str "g2"; V.Int 0L; V.Null; V.Int 1L |];
      [| V.Str "g1"; V.Int 2L; V.Str "x"; V.Int 2L |];
      [| V.Str "g3"; V.Int 4L; V.Str "z"; V.Str "y" |];
      [| V.Str "g2"; V.Int 3L; V.Null; V.Int 3L |];
      [| V.Str "g3"; V.Int 0L; V.Null; V.Int 4L |];
      [| V.Str "g1"; V.Int 5L; V.Null; V.Str "w" |];
    ];
  db

(* every statement raises, or for groups WHERE drops does not, the
   reference's error: projections row-major, then the ORDER BY keys,
   each aggregate's first error in row order, and an argument's error
   before its fold's *)
(* GROUP BY keeps int and timestamp keys beyond 2^53 apart, as
   DISTINCT and PARTITION BY do: 2^53 and 2^53 + 1 are one double, and
   so are two nanosecond timestamps of 2026 one nanosecond apart. A
   plain BIGINT key takes the typed path; a timestamp key, and two keys,
   the generic one. *)
let test_group_big_keys () =
  let db = Db.create () in
  let sess = session db in
  ignore (Db.exec sess "CREATE TABLE big_keys (x BIGINT, ts TIMESTAMP)");
  ignore
    (Db.exec sess
       "INSERT INTO big_keys VALUES (9007199254740993, '2026-10-17 \
        12:00:00.000000001'), (9007199254740992, '2026-10-17 \
        12:00:00.000000002'), (9007199254740993, '2026-10-17 \
        12:00:00.000000001')");
  let x k = V.Int (Int64.add 9007199254740992L k) in
  let ts k =
    V.of_text Ty.TTimestamp (Printf.sprintf "2026-10-17 12:00:00.00000000%d" k)
  in
  List.iter
    (fun (sql, expect) ->
      List.iter
        (fun (path, r) ->
          match r with
          | Ok (_, rows) when rows = expect -> ()
          | Ok (_, rows) ->
              Alcotest.failf "%s (%s): %d groups" sql path (Array.length rows)
          | Error e -> Alcotest.failf "%s (%s): %s" sql path e)
        [ ("vector", run sess sql); ("reference", reference sess sql) ])
    [
      ( "SELECT x, count(*) AS n FROM big_keys GROUP BY x ORDER BY x",
        [| [| x 0L; V.Int 1L |]; [| x 1L; V.Int 2L |] |] );
      ( "SELECT ts, count(*) AS n FROM big_keys GROUP BY ts ORDER BY ts",
        [| [| ts 1; V.Int 2L |]; [| ts 2; V.Int 1L |] |] );
      ( "SELECT x, ts, count(*) AS n FROM big_keys GROUP BY x, ts ORDER BY x",
        [| [| x 0L; ts 2; V.Int 1L |]; [| x 1L; ts 1; V.Int 2L |] |] );
    ]

(* ------------------------------------------------------------------ *)
(* Chunk boundaries                                                    *)
(* ------------------------------------------------------------------ *)

(* [n] rows with a NULL pattern in every typed column. [k] numbers each
   half chunk, so its groups first appear in later chunks; [g]'s five
   groups span every chunk; [z] holds only zeros of both signs, so its
   min and max are ties that keep the group's earliest value. *)
let chunk_fixture (n : int) : Db.t =
  let c = Vexec.chunk_rows in
  let db = Db.create () in
  let syms = [| "a"; "b"; "c"; "d"; "e" |] in
  Db.load_table db
    (S.table "ch"
       [
         S.column "i" Ty.TBigint;
         S.column "g" Ty.TVarchar;
         S.column "k" Ty.TBigint;
         S.column "v" Ty.TBigint;
         S.column "f" Ty.TDouble;
         S.column "z" Ty.TDouble;
         S.column "d" Ty.TDate;
         S.column "b" Ty.TBool;
       ])
    (List.init n (fun i ->
         let null_if p x = if p then V.Null else x in
         [|
           V.Int (Int64.of_int i);
           null_if (i mod 11 = 4) (V.Str syms.(i / 3 mod 5));
           null_if (i mod 13 = 6) (V.Int (Int64.of_int (i / (c / 2))));
           null_if (i mod 7 = 2) (V.Int (Int64.of_int ((i * 37 mod 101) - 50)));
           null_if (i mod 5 = 1)
             (V.Float (float_of_int ((i * 17 mod 89) - 44) /. 4.));
           null_if (i mod 3 = 0) (V.Float (if i / 5 mod 2 = 0 then 0.0 else -0.0));
           null_if (i mod 6 = 3) (V.Date (i * 7 mod 400));
           null_if (i mod 4 = 0) (V.Bool (i mod 3 = 0));
         |]))
    ;
  db

(* tables of 0, 1, C - 1, C, C + 1 and 3C + 7 rows, C the chunk size:
   filters that keep every row, none and some, each with the scalar
   aggregates, grouped ones (groups in first-encounter order, some
   first met in a later chunk) and projections, against the reference
   bit for bit; and a conjunct, a group key and an aggregate argument
   that raise in the last chunk, against the reference's SQLSTATE *)
let test_chunk_boundaries () =
  let c = Vexec.chunk_rows in
  let aggs =
    "count(*) AS n, count(v) AS cv, sum(v) AS sv, avg(v) AS av, min(v) AS \
     lv, max(v) AS hv, sum(f) AS sf, avg(f) AS af, min(f) AS lf, max(f) AS \
     hf, min(z) AS lz, max(z) AS hz, min(d) AS ld, max(d) AS hd, min(b) AS \
     lb, max(b) AS hb, sum(v - 1) AS sv1, avg(f * 2) AS af2, count(DISTINCT \
     g) AS dg, median(v) AS mv"
  in
  let filters =
    [
      "";
      "WHERE i >= 0";
      "WHERE i < 0";
      "WHERE v > 17";
      "WHERE f <= 3.5 AND g <> 'c'";
      "WHERE i * 2 > 3 * v AND d IS NOT NULL";
    ]
  in
  let code = function
    | Ok _ -> "ok"
    | Error e -> List.hd (String.split_on_char ':' e)
  in
  List.iter
    (fun n ->
      let sess = session (chunk_fixture n) in
      bit_differential sess
        (List.concat_map
           (fun w ->
             [
               Printf.sprintf "SELECT %s FROM ch %s" aggs w;
               Printf.sprintf "SELECT g, %s FROM ch %s GROUP BY g" aggs w;
               Printf.sprintf "SELECT k, %s FROM ch %s GROUP BY k" aggs w;
               Printf.sprintf
                 "SELECT g, k, count(*) AS n, max(z) AS hz FROM ch %s GROUP BY \
                  g, k"
                 w;
               Printf.sprintf "SELECT i, g, v, f, z FROM ch %s" w;
               Printf.sprintf
                 "SELECT i, v FROM ch %s ORDER BY v DESC, i ASC LIMIT 5" w;
             ])
           filters);
      (* raising in the last chunk, at row n - 2 *)
      let x = n - 2 in
      List.iter
        (fun sql ->
          let a = run sess sql and r = reference sess sql in
          check Alcotest.string
            (Printf.sprintf "%d rows: %s" n sql)
            (code r) (code a);
          if n >= 2 then
            check Alcotest.string (Printf.sprintf "%d rows raises: %s" n sql)
              "22012" (code a))
        [
          Printf.sprintf "SELECT count(*) AS n FROM ch WHERE 100 / (i - %d) > 0" x;
          Printf.sprintf
            "SELECT count(*) AS n FROM ch WHERE i >= 0 AND 100 / (i - %d) > \
             -1000"
            x;
          Printf.sprintf
            "SELECT 10 / (i - %d) AS q, count(*) AS n FROM ch GROUP BY 10 / (i \
             - %d)"
            x x;
          Printf.sprintf "SELECT g, sum(10 / (i - %d)) AS s FROM ch GROUP BY g" x;
          Printf.sprintf "SELECT sum(10 / (i - %d)) AS s FROM ch WHERE i >= 0" x;
        ])
    [ 0; 1; c - 1; c; c + 1; (3 * c) + 7 ];
  (* the earliest raising stage wins, wherever its row lies: the first
     conjunct raises in the last chunk, the second in the first, and
     the first's error surfaces, as one pass of each conjunct over the
     whole table raises it *)
  let n = (3 * c) + 7 in
  let sess = session (chunk_fixture n) in
  check Alcotest.string "earliest stage raises" "22012"
    (code
       (run sess
          (Printf.sprintf
             "SELECT count(*) AS n FROM ch WHERE (CASE WHEN i = %d THEN 1 / 0 \
              ELSE 1 END) = 1 AND (CASE WHEN i = 1 THEN upper(i) ELSE 'a' END) \
              = 'a'"
             (n - 2))))

let test_group_error_order () =
  let sess = session (error_fixture ()) in
  let p = "sum(10 / a)" and q = "sum(t + 1)" in
  List.iter
    (fun (sql, raises) ->
      let a = run sess sql in
      (match (a, raises) with
      | Error _, true | Ok _, false -> ()
      | Error e, false -> Alcotest.failf "%s: raised %s" sql e
      | Ok _, true -> Alcotest.failf "%s: expected an error" sql);
      check_same sql a (reference sess sql))
    [
      (* g1 raises in its second projection before g2 in its first *)
      (Printf.sprintf "SELECT g, %s AS p, %s AS q FROM e GROUP BY g" p q, true);
      (Printf.sprintf "SELECT g, %s AS q, %s AS p FROM e GROUP BY g" q p, true);
      (* within g3, the addition's row comes first *)
      ( "SELECT g, sum(t + 1 + 10 / a) AS r FROM e WHERE g = 'g3' GROUP BY g",
        true );
      (* g2 raises division by zero before g3 a type error *)
      ( "SELECT g, sum(CASE WHEN g = 'g1' THEN 1 ELSE 10 / a + m END) AS r \
         FROM e GROUP BY g",
        true );
      (* projections before ORDER BY keys *)
      (Printf.sprintf "SELECT g, %s AS q FROM e GROUP BY g ORDER BY %s" q p,
       true);
      (Printf.sprintf "SELECT g, count(*) AS n FROM e GROUP BY g ORDER BY %s" p,
       true);
      (* operators over a raising aggregate raise when read *)
      ( Printf.sprintf
          "SELECT g, coalesce(%s, 0) + count(*) AS r FROM e GROUP BY g" p,
        true );
      (* groups WHERE drops raise nothing *)
      ( Printf.sprintf "SELECT g, %s AS p FROM e WHERE g = 'g1' GROUP BY g" p,
        false );
      (* the scalar aggregate *)
      (Printf.sprintf "SELECT %s AS q, %s AS p FROM e" q p, true);
      (* comparing text with numbers raises in min's fold, on g1's
         second row; an argument that raises on its third row raises
         first, as the reference evaluates every argument before
         folding *)
      ("SELECT g, min(m) AS lo FROM e GROUP BY g", true);
      ( "SELECT g, min(CASE WHEN a > 4 THEN 10 / 0 ELSE m END) AS lo FROM e \
         GROUP BY g",
        true );
      ("SELECT g, min(m) AS lo FROM e WHERE g = 'g2' GROUP BY g", false);
    ]

(* ------------------------------------------------------------------ *)
(* 3VL null semantics                                                  *)
(* ------------------------------------------------------------------ *)

let test_null_filter_survival () =
  let db = fixture () in
  let sess = session db in
  (* price has 2 NULLs among 10 rows: neither > nor <= keeps them *)
  let count sql =
    match run sess sql with
    | Ok (_, [| [| V.Int n |] |]) -> Int64.to_int n
    | _ -> Alcotest.failf "expected one count from %s" sql
  in
  let gt = count "SELECT count(*) AS n FROM trades WHERE price > 15" in
  let le = count "SELECT count(*) AS n FROM trades WHERE price <= 15" in
  check tint "NULLs survive neither side of a comparison" 8 (gt + le);
  check tint "IS NULL keeps exactly the nulls" 2
    (count "SELECT count(*) AS n FROM trades WHERE price IS NULL");
  check tint "IS NOT NULL keeps the rest" 8
    (count "SELECT count(*) AS n FROM trades WHERE price IS NOT NULL");
  (* NULL never equals anything, including via IN *)
  check tint "IN drops nulls" 0
    (count
       "SELECT count(*) AS n FROM trades WHERE price IS NULL AND price IN \
        (10, 20)");
  (* NOT, OR and IS [NOT] NULL over typed comparisons, a float
     expression against an int column, and LIKE on text with NULLs: the
     per-row closure's 3VL *)
  differential db
    [
      "SELECT sym, price FROM trades WHERE price > 15 ORDER BY sym";
      "SELECT sym FROM trades WHERE note IS NULL";
      "SELECT count(note) AS n, count(*) AS all_rows FROM trades";
      "SELECT sym, t FROM trades WHERE NOT (price > 15)";
      "SELECT sym, t FROM trades WHERE price > 15 OR size < 100";
      "SELECT sym, t FROM trades WHERE NOT (price > 15 OR note IS NULL)";
      "SELECT sym, t FROM trades WHERE (price * 2 > size) IS NULL";
      "SELECT sym, t FROM trades WHERE (note = 'x') IS NOT NULL AND NOT \
       (t = size)";
      "SELECT count(*) AS n FROM trades WHERE size < 300 AND price * 10 > size";
      "SELECT sym, note FROM trades WHERE note LIKE 'y%'";
      "SELECT sym, note FROM trades WHERE note LIKE '_' AND sym LIKE '%S%'";
    ]

(* ------------------------------------------------------------------ *)
(* Batch layer units                                                   *)
(* ------------------------------------------------------------------ *)

let test_selection_compaction () =
  let col =
    Batch.column_of_values [| V.Int 1L; V.Null; V.Int 3L; V.Int 4L |]
  in
  check tbool "bitmap marks the null" true (Batch.is_null col 1);
  check tbool "non-null stays clear" false (Batch.is_null col 2);
  let packed = Batch.compact col [| 0; 2 |] in
  check tbool "compacted column drops the null" false
    (Batch.is_null packed 0 || Batch.is_null packed 1);
  Alcotest.(check (list string))
    "compacted values in selection order"
    [ "1"; "3" ]
    (Array.to_list
       (Array.map
          (fun v -> match v with V.Int i -> Int64.to_string i | _ -> "?")
          (Batch.values packed (Batch.all_rows 2))));
  let with_null = Batch.compact col [| 1; 3 |] in
  check tbool "null survives compaction when selected" true
    (Batch.is_null with_null 0);
  check tbool "and the kept row stays non-null" false
    (Batch.is_null with_null 1)

(* text is dictionary-coded: one code per row into the column's
   distinct strings; compaction and gathering move codes and share the
   dictionary, and a NULL stays a bitmap bit over a dummy code *)
let test_text_codes () =
  let col =
    Batch.column_of_values
      [| V.Str "b"; V.Null; V.Str "a"; V.Str "b"; V.Str "a" |]
  in
  let shown c n =
    Array.to_list
      (Array.map V.to_display (Batch.values c (Array.init n Fun.id)))
  in
  (match col.Batch.data with
  | Batch.DStr { codes; dict } ->
      Alcotest.(check (array string)) "distinct strings, first seen first"
        [| "b"; "a" |] dict;
      check tint "one code per row" 5 (Array.length codes);
      check tbool "repeats share a code" true (codes.(0) = codes.(3))
  | _ -> Alcotest.fail "text column is not dictionary-coded");
  check tbool "null bit set" true (Batch.is_null col 1);
  let shares_dict (c : Batch.column) =
    match (c.Batch.data, col.Batch.data) with
    | Batch.DStr { dict; _ }, Batch.DStr { dict = d0; _ } -> dict == d0
    | _ -> false
  in
  let packed = Batch.compact col [| 1; 2; 3 |] in
  check tbool "compact shares the dictionary" true (shares_dict packed);
  Alcotest.(check (list string)) "compacted text" [ "NULL"; "a"; "b" ]
    (shown packed 3);
  check tbool "compacted null" true (Batch.is_null packed 0);
  let g = Batch.gather col [| 4; -1; 0; 0 |] in
  check tbool "gather shares the dictionary" true (shares_dict g);
  Alcotest.(check (list string)) "gathered text" [ "a"; "NULL"; "b"; "b" ]
    (shown g 4);
  check tbool "a -1 slot gathers NULL" true (Batch.is_null g 1)

(* a 40,000-row table: 16 symbols, an int and a float column *)

let big_session () =
  let db = Db.create () in
  let syms = Array.init 16 (fun k -> Printf.sprintf "S%02d" k) in
  Db.load_table db
    (S.table "big"
       [
         S.column "sym" Ty.TVarchar;
         S.column "v" Ty.TBigint;
         S.column "f" Ty.TDouble;
       ])
    (List.init big_rows (fun i ->
         [|
           V.Str syms.(i mod 16);
           V.Int (Int64.of_int i);
           V.Float (float_of_int i /. 7.);
         |]));
  session db

(* the result of [sql] and the fewest words one run of it allocated,
   over [runs] runs after a first, which caches the statement, counted
   exactly by [Obs.Runtime.allocated_bytes] (minor words plus major
   minus promoted). A single run can read a few hundred words more when
   a GC lands on it. *)
let allocated_words ?(runs = 1) sess sql =
  let r = ref (run sess sql) and best = ref Float.infinity in
  for _ = 1 to runs do
    let a0 = Obs.Runtime.allocated_bytes () in
    r := run sess sql;
    best := Float.min !best (Obs.Runtime.allocated_bytes () -. a0)
  done;
  (!r, !best /. float_of_int (Sys.word_size / 8))

(* a stored table is its typed columns and nothing else: after a scan,
   everything reachable from the big table measures 1.33 words a cell
   on OCaml 5.1 (per row: a text code, an unboxed int payload, an
   unboxed float and a word of the identity selection). An int64 array
   (a pointer and a 3-word box a cell) measured 2.33, and a row-major
   copy kept beside the columns 6.67. The budget is 1.4. *)
let test_table_held_once () =
  let sess = big_session () in
  ignore (run sess "SELECT count(*) AS n FROM big WHERE v >= 0");
  let tbl = Hashtbl.find sess.Db.db.Db.tables "big" in
  let per_cell =
    float_of_int (Obj.reachable_words (Obj.repr tbl))
    /. float_of_int (big_rows * 3)
  in
  if per_cell > 1.4 then
    Alcotest.failf "the big table holds %.2f words a cell, budget 1.4" per_cell

(* The chunk model: a WHERE's conjuncts narrow one chunk's selection in
   place, in a buffer the domain keeps, and a fold reads it there, so a
   scan allocates its statement's plan, folders and result and nothing
   per chunk or per row. Over the big table (20 chunks) these counts
   measure 519 to 653 words on OCaml 5.1, counted exactly. The budget
   is 800 words: an array as long as the table is 40,000, and 8 words a
   chunk more would be 160. *)
let test_scan_allocation () =
  let n = big_rows in
  let sess = big_session () in
  List.iter
    (fun (sql, expect) ->
      let r, w = allocated_words ~runs:3 sess sql in
      (match r with
      | Ok (_, [| [| V.Int k |] |]) -> check tint sql expect (Int64.to_int k)
      | _ -> Alcotest.failf "%s: expected one count" sql);
      if w > 800. then
        Alcotest.failf "%s: %.0f words allocated over %d rows, budget 800" sql
          w n)
    [
      ("SELECT count(*) AS n FROM big", n);
      ("SELECT count(*) AS n FROM big WHERE sym = 'NOPE'", 0);
      ("SELECT count(*) AS n FROM big WHERE sym IS NOT DISTINCT FROM 'NOPE'", 0);
      ("SELECT count(*) AS n FROM big WHERE v >= 0", n);
    ]

(* The chunk model for grouped folds: each chunk's group ids go to the
   domain's chunk buffer, and the folds' accumulators are per group and
   live across chunks, so what grows with the table is only an
   expression argument's vectors, each at most one chunk long: [f - f]
   loads [f] twice and writes the difference, 3 x 2,048 words. The
   plain-column statement measures 0.069 words a row and the expression
   one 0.222 on OCaml 5.1, counted exactly; the budgets are 0.1 and 0.25
   (whole-table group ids were 1 word a row, and 3 for the expression). *)
let test_grouped_allocation () =
  let sess = big_session () in
  List.iter
    (fun (sql, budget) ->
      let r, w = allocated_words ~runs:3 sess sql in
      check_same sql r (reference sess sql);
      let per_row = w /. float_of_int big_rows in
      if per_row > budget then
        Alcotest.failf "%s: %.3f words a row, budget %.2f" sql per_row budget)
    [
      ( "SELECT sym, count(*) AS n, coalesce(sum(v), 0) AS s, max(f) AS hi \
         FROM big GROUP BY sym",
        0.1 );
      ( "SELECT sym, sum(f - f) AS s, count(f - f) AS c FROM big GROUP BY sym",
        0.25 );
    ]

let test_empty_batch () =
  let db = Db.create () in
  Db.load_table db
    (S.table "empty_t"
       [ S.column "a" Ty.TBigint; S.column "b" Ty.TVarchar ])
    [];
  differential db
    [
      "SELECT a, b FROM empty_t";
      "SELECT a FROM empty_t WHERE a > 5 ORDER BY a DESC LIMIT 3";
      "SELECT count(*) AS n, sum(a) AS s, min(a) AS lo FROM empty_t";
      "SELECT b, count(*) AS n FROM empty_t GROUP BY b";
    ];
  let b = Batch.of_rows ~width:2 [||] in
  check tint "zero-row batch" 0 b.Batch.nrows

let test_all_null_column () =
  let db = Db.create () in
  Db.load_table db
    (S.table "nulls_t" [ S.column "k" Ty.TVarchar; S.column "v" Ty.TDouble ])
    [
      [| V.Str "a"; V.Null |];
      [| V.Str "b"; V.Null |];
      [| V.Str "a"; V.Null |];
    ];
  differential db
    [
      "SELECT sum(v) AS s, min(v) AS lo, max(v) AS hi, avg(v) AS m, \
       count(v) AS n FROM nulls_t";
      "SELECT k, sum(v) AS s FROM nulls_t GROUP BY k ORDER BY k";
      "SELECT k FROM nulls_t WHERE v > 0";
      "SELECT k, v FROM nulls_t WHERE v IS NULL";
    ];
  let sess = session db in
  match run sess "SELECT sum(v) AS s, count(v) AS n FROM nulls_t" with
  | Ok (_, [| [| V.Null; V.Int 0L |] |]) -> ()
  | _ -> Alcotest.fail "all-null aggregate should be (NULL, 0)"

(* ------------------------------------------------------------------ *)
(* Explain, counters, feedback                                        *)
(* ------------------------------------------------------------------ *)

let test_explain_vector_nodes () =
  let db = fixture () in
  let sess = session db in
  Db.set_analyze sess true;
  ignore
    (run sess
       "SELECT sym, count(*) AS n FROM trades WHERE price > 10 AND size < \
        350 GROUP BY sym ORDER BY sym LIMIT 3");
  match Db.last_plan sess with
  | None -> Alcotest.fail "analyzed vectorized query produced no plan"
  | Some root ->
      let ops = List.map (fun (_, n) -> n.Op.op) (Op.flatten root) in
      let has op = List.mem op ops in
      check tbool "vector_scan node" true (has "vector_scan");
      check tbool "vector_filter node" true (has "vector_filter");
      check tbool "vector_hash_agg node" true (has "vector_hash_agg");
      check tbool "vector_sort node" true (has "vector_sort");
      check tbool "vector_limit node" true (has "vector_limit");
      let scan =
        List.find (fun (_, n) -> n.Op.op = "vector_scan") (Op.flatten root)
        |> snd
      in
      check tint "scan est = table rows" 10 scan.Op.est_rows;
      check tint "scan actual = table rows" 10 scan.Op.rows_out;
      check tint "plan-wide rows_scanned counts vector scans" 10
        (Op.rows_scanned root)

let test_path_counters () =
  let db = fixture () in
  let sess = session db in
  let v0 = Atomic.get Vexec.stats_vector in
  ignore (run sess "SELECT sym FROM trades WHERE size > 100");
  check tint "vector counter" 1 (Atomic.get Vexec.stats_vector - v0);
  (* a comma join, once a row-path shape, is a vector nested loop *)
  ignore
    (run sess
       "SELECT t.sym FROM trades t, trades u WHERE t.sym = u.sym LIMIT 1");
  check tint "comma join on the vector path" 2
    (Atomic.get Vexec.stats_vector - v0)

(* AND conjuncts run in the order they are written, in every run and
   every session: a guard conjunct protects the one after it, as in
   kdb's where-clause, where each constraint sees only the rows the
   previous one kept. An order learned from earlier runs would let
   [10 / x > 1] see the zero and raise division by zero. *)
let test_conjuncts_run_in_written_order () =
  let db = Db.create () in
  Db.load_table db
    (S.table "t" [ S.column "x" Ty.TBigint ])
    (List.init 10 (fun i -> [| V.Int (Int64.of_int i) |]));
  let sql = "SELECT x FROM t WHERE x <> 0 AND 10 / x > 1" in
  let expected =
    List.map (fun i -> [| V.Int (Int64.of_int i) |]) [ 1; 2; 3; 4; 5 ]
  in
  let same label = function
    | Ok (_, rows) ->
        check tbool (label ^ ": the 5 guarded rows") true
          (Array.to_list rows = expected)
    | Error e -> Alcotest.failf "%s: %s" label e
  in
  let sess = session db in
  for i = 1 to 3 do
    same (Printf.sprintf "run %d" i) (run sess sql)
  done;
  same "second session" (run (session db) sql);
  (* the analyzed plan shows the filters in written order, each
     estimated to keep a third of its input *)
  Db.set_analyze sess true;
  same "analyzed run" (run sess sql);
  match Db.last_plan sess with
  | None -> Alcotest.fail "analyzed query produced no plan"
  | Some root ->
      (* pre-order lists the later filter (the parent) first *)
      let filters =
        List.rev
          (List.filter_map
             (fun (_, n) -> if n.Op.op = "vector_filter" then Some n else None)
             (Op.flatten root))
      in
      check (Alcotest.list Alcotest.string) "filters in written order"
        [ "(x <> 0)"; "((10 / x) > 1)" ]
        (List.map (fun n -> n.Op.detail) filters);
      check (Alcotest.list tint) "rows in, filter by filter" [ 10; 9 ]
        (List.map (fun n -> n.Op.rows_in) filters);
      List.iter
        (fun n ->
          check tint
            (n.Op.detail ^ ": est = a third of rows in")
            (Stdlib.max 1 (n.Op.rows_in / 3))
            n.Op.est_rows)
        filters

(* temp tables scan their session's batch on the vector path, alone
   and joined with the base table they were made from *)
let test_temp_tables () =
  let db = fixture () in
  let setup = session db in
  ignore
    (Db.exec setup
       "CREATE TEMP TABLE scratch AS SELECT sym, size FROM trades WHERE size \
        > 100");
  vector_differential setup
    [
      "SELECT sym, size FROM scratch ORDER BY size DESC LIMIT 3";
      "SELECT sym, sum(size) AS s FROM scratch GROUP BY sym ORDER BY sym";
      "SELECT s.sym, t.t FROM scratch s JOIN trades t ON s.size = t.size \
       ORDER BY t.t";
    ]

(* a table written after a scan reads back the same on both paths: an
   INSERT builds the columns again, a float INSERTed into a BIGINT
   column turns that column boxed, and CREATE TABLE AS stores its
   result's columns *)
let test_writes_after_scan () =
  let db = fixture () in
  let sess = session db in
  let scan = "SELECT sym, t, price, size, note FROM trades ORDER BY t" in
  vector_differential sess [ scan ];
  let before = run sess scan in
  ignore
    (Db.exec sess "INSERT INTO trades VALUES ('ZZZ', 11000, 1.25, 7, NULL)");
  ignore
    (Db.exec sess
       "INSERT INTO trades (sym, size, t) VALUES ('AAPL', 2.5, 12000)");
  let tbl = Hashtbl.find db.Db.tables "trades" in
  check tint "rows after the inserts" 12 (Pgdb.Storage.row_count tbl);
  (match (before, run sess scan) with
  | Ok (_, old), Ok (_, now) ->
      check tbool "the old rows read back unchanged" true
        (Array.sub now 0 10 = old);
      check tbool "the inserted rows read back" true
        (Array.sub now 10 2
        = [|
            [| V.Str "ZZZ"; V.Int 11000L; V.Float 1.25; V.Int 7L; V.Null |];
            [| V.Str "AAPL"; V.Int 12000L; V.Null; V.Float 2.5; V.Null |];
          |])
  | _ -> Alcotest.fail "the scan failed");
  (match tbl.Pgdb.Storage.batch.Batch.cols.(3).Batch.data with
  | Batch.DVal _ -> ()
  | _ -> Alcotest.fail "size holds a float: its column should be boxed");
  ignore
    (Db.exec sess
       "CREATE TABLE by_sym AS SELECT sym, sum(size) AS s, count(note) AS n \
        FROM trades GROUP BY sym");
  ignore
    (Db.exec sess
       "CREATE TEMP TABLE late AS SELECT t, size FROM trades WHERE t > 9000");
  vector_differential sess
    [
      scan;
      "SELECT size, count(*) AS n FROM trades GROUP BY size ORDER BY size";
      "SELECT sym, size FROM trades WHERE size < 10 ORDER BY size";
      "SELECT sym, s, n FROM by_sym ORDER BY sym";
      "SELECT t, size FROM late ORDER BY t";
    ]

(* ------------------------------------------------------------------ *)
(* Windows, derived tables, residual joins                             *)
(* ------------------------------------------------------------------ *)


(* partition keys with NULLs, order keys with NULLs and ties, and a
   float column with NULLs for the aggregates and lag/lead values *)
let window_fixture () : Db.t =
  let db = Db.create () in
  Db.load_table db
    (S.table "w"
       [
         S.column "g" Ty.TVarchar;
         S.column "k" Ty.TBigint;
         S.column "t" Ty.TBigint;
         S.column "v" Ty.TDouble;
       ])
    [
      [| V.Str "a"; V.Int 3L; V.Int 10L; V.Float 1.5 |];
      [| V.Str "b"; V.Int 1L; V.Int 20L; V.Float 2.0 |];
      [| V.Str "a"; V.Int 3L; V.Int 30L; V.Null |];
      [| V.Null; V.Int 2L; V.Int 40L; V.Float 4.0 |];
      [| V.Str "b"; V.Null; V.Int 50L; V.Float 2.0 |];
      [| V.Str "a"; V.Int 1L; V.Int 60L; V.Float (-1.0) |];
      [| V.Null; V.Int 5L; V.Int 70L; V.Null |];
      [| V.Str "c"; V.Int 4L; V.Int 80L; V.Float 8.25 |];
      [| V.Str "a"; V.Int 3L; V.Int 90L; V.Float 0.5 |];
      [| V.Str "b"; V.Int 2L; V.Int 100L; V.Float 3.0 |];
    ];
  db

(* the ANALYZE node [op] of [sql] over the window fixture *)
let analyzed_node sql op : Op.node =
  let sess = session (window_fixture ()) in
  Db.set_analyze sess true;
  (match run sess sql with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" sql e);
  match Db.last_plan sess with
  | None -> Alcotest.failf "%s: no plan" sql
  | Some root -> (
      match List.find_opt (fun (_, n) -> n.Op.op = op) (Op.flatten root) with
      | Some (_, n) -> n
      | None -> Alcotest.failf "%s: no %s node" sql op)

let test_explain_values () =
  let n = analyzed_node "SELECT (1 + 2) AS value" "vector_values" in
  check tint "est rows" 1 n.Op.est_rows;
  check tint "rows in" 1 n.Op.rows_in;
  check tint "rows out" 1 n.Op.rows_out;
  check tint "a leaf" 0 (List.length n.Op.children)

let test_explain_union () =
  let n =
    analyzed_node
      "SELECT u.z FROM (SELECT k AS z FROM w UNION ALL SELECT t AS z FROM w \
       WHERE t > 50) AS u"
      "vector_union"
  in
  check tint "one child per branch" 2 (List.length n.Op.children);
  check tint "est is the branches' sum"
    (List.fold_left (fun a c -> a + c.Op.est_rows) 0 n.Op.children)
    n.Op.est_rows;
  check tint "rows in" 15 n.Op.rows_in;
  check tint "rows out" 15 n.Op.rows_out

let test_explain_nested_loop () =
  let cross =
    analyzed_node "SELECT a.t FROM w a CROSS JOIN w b" "vector_nested_loop"
  in
  check tint "est is the cross product" 100 cross.Op.est_rows;
  check tint "rows in" 20 cross.Op.rows_in;
  check tint "rows out" 100 cross.Op.rows_out;
  let theta =
    analyzed_node "SELECT a.t FROM w a JOIN w b ON a.t < b.t"
      "vector_nested_loop"
  in
  check tint "theta est" 100 theta.Op.est_rows;
  check tint "theta rows in" 20 theta.Op.rows_in;
  check tint "theta rows out" 45 theta.Op.rows_out;
  check tbool "detail names the kind and residual" true
    (String.length theta.Op.detail > 6
    && String.sub theta.Op.detail 0 6 = "inner "
    && Str.string_match (Str.regexp ".*residual=") theta.Op.detail 0)

let test_window_functions () =
  let over part order frame =
    Printf.sprintf "OVER (%s%s%s)"
      (if part then "PARTITION BY g " else "")
      order frame
  in
  let shapes =
    (* (partition?, order, frame): the translator's frames (msum's k
       rows back, sums' running frame) and none, whose default is the
       whole partition, or with an ORDER BY its rows up to the current
       one *)
    [
      (true, "ORDER BY k", "");
      (false, "ORDER BY k DESC, t", "");
      (true, "", "");
      (false, "", "");
      (true, "ORDER BY t", " ROWS BETWEEN 1 PRECEDING AND CURRENT ROW");
      (false, "ORDER BY v", " ROWS BETWEEN 2 PRECEDING AND CURRENT ROW");
      (true, "ORDER BY k", " ROWS BETWEEN 0 PRECEDING AND CURRENT ROW");
      (false, "ORDER BY t", " ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW");
    ]
  in
  (* every window function and aggregate the translator emits *)
  let fns =
    [
      "row_number()"; "lag(v)"; "lead(k)"; "sum(v)"; "sum(k)"; "avg(v)";
      "min(v)"; "max(k)"; "count(v)"; "count(*)"; "count()"; "median(v)";
      "median(k)"; "stddev_pop(v)"; "var_pop(k)"; "first(v)"; "last(v)";
      "bool_and(v > 1)"; "bool_or(k > 2)";
    ]
  in
  let sqls =
    List.concat_map
      (fun (part, order, frame) ->
        List.map
          (fun fn ->
            Printf.sprintf "SELECT g, k, t, %s %s AS w FROM w" fn
              (over part order frame))
          fns)
      shapes
  in
  vector_differential (session (window_fixture ()))
    (sqls
    @ [
        (* a window nested in a scalar expression (the deltas shape) *)
        "SELECT t, coalesce(v - lag(v) OVER (ORDER BY t), v) AS d FROM w";
        (* windows see the rows WHERE kept; ORDER BY reads a window *)
        "SELECT g, t, row_number() OVER (PARTITION BY g ORDER BY t DESC) AS \
         rn FROM w WHERE v IS NOT NULL";
        "SELECT g, t, sum(v) OVER (PARTITION BY g ORDER BY t) AS rs FROM w \
         ORDER BY rs DESC, t LIMIT 4";
        (* two windows sharing one partition, an expression partition key *)
        "SELECT t, min(v) OVER (PARTITION BY g) AS lo, max(v) OVER \
         (PARTITION BY g) AS hi FROM w";
        "SELECT t, count(*) OVER (PARTITION BY k % 2 ORDER BY t) AS c FROM w";
        (* a small LIMIT selects its prefix without a full sort: ties
           and NULL keys must still come out in stable order *)
        "SELECT g, k, t FROM w ORDER BY k LIMIT 1";
        "SELECT g, t FROM w ORDER BY v DESC LIMIT 1";
        "SELECT g, t FROM w ORDER BY g DESC LIMIT 1";
      ]);
  (* keys mixing kinds: partitions class text and numbers apart and ints
     with equal floats together, as GROUP BY does; an order key of text
     against a number raises 42804. Vexec and the reference must agree
     on the partitions and on the error *)
  differential (window_fixture ())
    [
      "SELECT t, row_number() OVER (PARTITION BY CASE WHEN k > 2 THEN g \
       ELSE k END ORDER BY t) AS r FROM w";
      "SELECT t, count(*) OVER (PARTITION BY CASE WHEN k > 2 THEN v ELSE k \
       END) AS c FROM w";
      "SELECT t, row_number() OVER (ORDER BY CASE WHEN k > 2 THEN g ELSE k \
       END) AS r FROM w";
      "SELECT t, sum(v) OVER (PARTITION BY g ORDER BY CASE WHEN k > 2 THEN v \
       ELSE k END) AS r FROM w";
      "SELECT t FROM w ORDER BY CASE WHEN k > 2 THEN g ELSE k END";
      "SELECT t FROM w ORDER BY CASE WHEN k > 2 THEN v ELSE k END, t LIMIT 1";
    ]

(* the window fixture plus [d]: date and time order keys, with ties and
   NULLs, which the cut compares on their int payloads *)
let cut_fixture () : Db.t =
  let db = window_fixture () in
  Db.load_table db
    (S.table "d"
       [
         S.column "g" Ty.TVarchar;
         S.column "day" Ty.TDate;
         S.column "tm" Ty.TTime;
       ])
    [
      [| V.Str "a"; V.Date 5; V.Time 3000 |];
      [| V.Str "a"; V.Date 7; V.Null |];
      [| V.Str "b"; V.Null; V.Time 1000 |];
      [| V.Str "a"; V.Date 7; V.Time 3000 |];
      [| V.Str "b"; V.Date 2; V.Time 2000 |];
      [| V.Null; V.Date 1; V.Time 500 |];
      [| V.Str "b"; V.Date 9; V.Time 2000 |];
    ];
  db

(* the rank-limit cut: [row_number() <= k] outside a derived table keeps
   each partition's first k rows inside the window stage; results must
   be the reference's, which numbers every row and filters after *)
let test_rank_limit_cut () =
  let sess = session (cut_fixture ()) in
  let cut ?(extra = "") over where =
    Printf.sprintf
      "SELECT * FROM (SELECT g, k, t, v%s, row_number() OVER (%s) AS rn FROM \
       w) AS q WHERE %s"
      extra over where
  in
  let overs =
    [
      (* ties in k; NULL k first under DESC; NULL partition *)
      "PARTITION BY g ORDER BY k DESC";
      "PARTITION BY g ORDER BY k";
      (* NULL and tied float keys *)
      "PARTITION BY g ORDER BY v DESC";
      "PARTITION BY g ORDER BY v, t DESC";
      "ORDER BY v DESC";
      "ORDER BY g DESC, k";
      "PARTITION BY k ORDER BY t DESC";
      "PARTITION BY g";
      (* expression keys and mixed kinds take the reference sort *)
      "PARTITION BY g ORDER BY k * 2 DESC";
      "PARTITION BY g ORDER BY CASE WHEN k > 2 THEN v ELSE k END";
      "PARTITION BY CASE WHEN k > 2 THEN v ELSE k END ORDER BY t DESC";
    ]
  in
  let wheres =
    [
      "q.rn = 1"; "rn = 1"; "1 = q.rn"; "q.rn <= 3"; "3 >= q.rn"; "q.rn < 2";
      "2 > q.rn"; "q.rn = 2"; "q.rn <= 0"; "q.rn < 1"; "q.rn <= -1";
      "q.rn = -2"; "q.rn <= 2 AND q.t > 20"; "q.t > 20 AND q.rn = 1";
    ]
  in
  vector_differential sess
    (List.concat_map (fun o -> List.map (cut o) wheres) overs
    @ [
        (* a second window in the same SELECT sees every row *)
        cut
          ~extra:
            ", sum(v) OVER (PARTITION BY g) AS sv, count(*) OVER () AS n, \
             lag(t) OVER (ORDER BY t) AS pt"
          "PARTITION BY g ORDER BY t DESC" "q.rn = 1";
        cut ~extra:", count(*) OVER (PARTITION BY g ORDER BY k) AS rk"
          "PARTITION BY g ORDER BY k" "q.rn <= 2";
        (* the kept row's lag and every row of an empty cut are NULL: the
           columns are typed from all the rows the windows saw *)
        cut ~extra:", lag(t) OVER (ORDER BY t) AS pt" "ORDER BY t" "q.rn = 1";
        cut ~extra:", lag(t) OVER (ORDER BY t) AS pt" "ORDER BY t" "q.rn < 1";
        (* the inner SELECT's own WHERE *)
        "SELECT q.t, q.rn FROM (SELECT t, row_number() OVER (PARTITION BY g \
         ORDER BY v DESC) AS rn FROM w WHERE t > 10) AS q WHERE q.rn = 1";
        (* partitions of 40 rows: k = 1 takes the one-pass selection, k = 2
           and 3 the full window cut afterwards *)
        "SELECT * FROM (SELECT a.g, a.t, b.t AS bt, row_number() OVER \
         (PARTITION BY a.g ORDER BY b.v DESC, b.k) AS rn FROM w a CROSS JOIN \
         w b) AS q WHERE q.rn = 1";
        "SELECT * FROM (SELECT a.g, a.t, b.t AS bt, row_number() OVER \
         (PARTITION BY a.g ORDER BY b.v DESC, b.k) AS rn FROM w a CROSS JOIN \
         w b) AS q WHERE q.rn <= 2";
        "SELECT * FROM (SELECT a.t, b.t AS bt, row_number() OVER (PARTITION \
         BY a.k ORDER BY b.g, b.k DESC) AS rn FROM w a CROSS JOIN w b) AS q \
         WHERE q.rn < 4";
        (* date and time keys *)
        "SELECT * FROM (SELECT g, day, tm, row_number() OVER (PARTITION BY g \
         ORDER BY day DESC) AS rn FROM d) AS q WHERE q.rn = 1";
        "SELECT * FROM (SELECT g, day, tm, row_number() OVER (PARTITION BY g \
         ORDER BY tm, day DESC) AS rn FROM d) AS q WHERE q.rn <= 2";
        "SELECT * FROM (SELECT g, day, tm, row_number() OVER (ORDER BY tm \
         DESC) AS rn FROM d) AS q WHERE q.rn < 3";
        (* a plain order column holding ints and floats *)
        "SELECT * FROM (SELECT x.g, x.m, row_number() OVER (PARTITION BY x.g \
         ORDER BY x.m DESC) AS rn FROM (SELECT g, CASE WHEN k > 2 THEN v \
         ELSE k END AS m FROM w) AS x) AS q WHERE q.rn = 1";
      ]);
  (* text against a number in the order keys raises, and the cut raises
     the reference's error; in the partition keys it classes apart *)
  differential (cut_fixture ())
    [
      cut "PARTITION BY g ORDER BY CASE WHEN k > 2 THEN g ELSE k END"
        "q.rn = 1";
      cut "PARTITION BY CASE WHEN k > 2 THEN g ELSE k END ORDER BY t"
        "q.rn = 1";
      "SELECT * FROM (SELECT x.t, row_number() OVER (ORDER BY x.m) AS rn \
       FROM (SELECT t, CASE WHEN k > 2 THEN g ELSE k END AS m FROM w) AS x) \
       AS q WHERE q.rn = 1";
    ];
  (* the cut is the window node: every row in, the kept rows out *)
  let n =
    analyzed_node (cut "PARTITION BY g ORDER BY t DESC" "q.rn = 1")
      "vector_window"
  in
  check Alcotest.string "cut detail" "row_number top 1" n.Op.detail;
  check tint "cut rows in" 10 n.Op.rows_in;
  check tint "cut rows out: one per partition" 4 n.Op.rows_out;
  let n =
    analyzed_node (cut "PARTITION BY g ORDER BY t DESC" "q.rn <= 2")
      "vector_window"
  in
  check Alcotest.string "top 2 detail" "row_number top 2" n.Op.detail;
  check tint "top 2 rows out" 7 n.Op.rows_out;
  (* shapes that must not be cut: every window node keeps all its rows *)
  let uncut =
    [
      cut "PARTITION BY g ORDER BY t" "q.rn = 1 OR q.t > 80";
      cut "PARTITION BY g ORDER BY t" "q.rn > 1";
      cut "PARTITION BY g ORDER BY t" "q.t = 1";
      "SELECT * FROM (SELECT g, t, row_number() OVER (PARTITION BY g ORDER \
       BY t) AS rn FROM w ORDER BY t LIMIT 6) AS q WHERE q.rn = 1";
      "SELECT * FROM (SELECT g, t, count(*) OVER (PARTITION BY g ORDER BY k) \
       AS rn FROM w) AS q WHERE q.rn = 1";
      "SELECT * FROM (SELECT g, t, row_number() OVER (PARTITION BY g ORDER \
       BY t) + 0 AS rn FROM w) AS q WHERE q.rn = 1";
      "SELECT q.g, w.t FROM (SELECT g, t, row_number() OVER (PARTITION BY g \
       ORDER BY t) AS rn FROM w) AS q JOIN w ON q.t = w.t WHERE q.rn = 1";
      (* the inner ORDER BY and computed columns are typed from the
         output rows, so these keep every row *)
      "SELECT * FROM (SELECT g, t, row_number() OVER (PARTITION BY g ORDER \
       BY t) AS rn FROM w ORDER BY t DESC) AS q WHERE q.rn = 1";
      "SELECT * FROM (SELECT g, t * 2 AS t2, row_number() OVER (PARTITION \
       BY g ORDER BY t) AS rn FROM w) AS q WHERE q.rn = 1";
    ]
  in
  vector_differential sess uncut;
  List.iter
    (fun sql ->
      let n = analyzed_node sql "vector_window" in
      check tbool ("no cut: " ^ sql) false
        (Str.string_match (Str.regexp ".*top") n.Op.detail 0);
      check tint ("window keeps every row: " ^ sql) n.Op.rows_in n.Op.rows_out)
    uncut

let test_derived_tables () =
  vector_differential (session (window_fixture ()))
    [
      "SELECT x.g, x.k FROM (SELECT g, k FROM w WHERE k > 1 ORDER BY k \
       DESC, t LIMIT 4) AS x";
      "SELECT y.g, y.s2 FROM (SELECT x.g, x.k * 2 AS s2 FROM (SELECT g, k, \
       t FROM w ORDER BY t DESC) AS x WHERE x.k IS NOT NULL) AS y ORDER BY \
       y.s2, y.g";
      "SELECT z.g, count(*) AS n, sum(z.v) AS sv FROM (SELECT y.g, y.v FROM \
       (SELECT x.g, x.v FROM (SELECT g, v FROM w ORDER BY v DESC LIMIT 6) \
       AS x) AS y) AS z GROUP BY z.g ORDER BY z.g";
      "SELECT * FROM (SELECT g, t FROM w ORDER BY t LIMIT 3) AS q";
      "SELECT q.g, q.n FROM (SELECT g, count(*) AS n FROM w GROUP BY g) AS \
       q WHERE q.n > 1 ORDER BY q.g";
      "SELECT q.k FROM (SELECT k FROM w WHERE k > 1000) AS q";
      (* a window over a derived table, filtered outside (the fby shape) *)
      "SELECT q.t FROM (SELECT t, v, max(v) OVER (PARTITION BY g) AS mx \
       FROM w) AS q WHERE q.v IS NOT DISTINCT FROM q.mx ORDER BY q.t";
      "SELECT q.g, w.t FROM (SELECT g, max(t) AS mt FROM w GROUP BY g) AS q \
       JOIN w ON q.g = w.g AND w.t < q.mt";
    ]

let residual_fixture () : Db.t =
  let db = Db.create () in
  Db.load_table db
    (S.table "a"
       [
         S.column "id" Ty.TBigint;
         S.column "g" Ty.TVarchar;
         S.column "t" Ty.TBigint;
         S.column "x" Ty.TDouble;
       ])
    [
      [| V.Int 1L; V.Str "p"; V.Int 50L; V.Float 1.0 |];
      [| V.Int 2L; V.Str "q"; V.Int 5L; V.Float 3.0 |];
      (* every candidate of row 3 fails b.t <= a.t *)
      [| V.Int 3L; V.Str "p"; V.Int 1L; V.Float 2.5 |];
      [| V.Int 4L; V.Null; V.Int 60L; V.Float 0.0 |];
      [| V.Int 5L; V.Str "r"; V.Int 70L; V.Null |];
      [| V.Int 6L; V.Str "q"; V.Int 40L; V.Float 4.0 |];
      [| V.Int 7L; V.Str "p"; V.Int 25L; V.Float 5.0 |];
    ];
  Db.load_table db
    (S.table "b"
       [ S.column "g" Ty.TVarchar; S.column "t" Ty.TBigint; S.column "y" Ty.TDouble ])
    [
      [| V.Str "p"; V.Int 10L; V.Float 1.0 |];
      [| V.Str "q"; V.Int 10L; V.Float 2.0 |];
      [| V.Str "p"; V.Int 30L; V.Null |];
      [| V.Null; V.Int 0L; V.Float 9.0 |];
      [| V.Str "p"; V.Int 20L; V.Float 3.0 |];
      [| V.Str "q"; V.Int 45L; V.Float 1.5 |];
    ];
  db

let test_residual_joins () =
  let shapes =
    [
      "b.t <= a.t";
      "a.x > 2";
      "(b.t <= a.t OR b.y IS NULL)";
      "b.y > 1.5 AND b.t < a.t";
      "b.y * 2 > a.x";
    ]
  in
  let sqls =
    List.concat_map
      (fun res ->
        List.concat_map
          (fun (kind, eq) ->
            [
              Printf.sprintf
                "SELECT a.id, b.t, b.y FROM a %s JOIN b ON a.g %s b.g AND %s"
                kind eq res;
              Printf.sprintf
                "SELECT a.g, count(b.t) AS n, sum(b.y) AS s FROM a %s JOIN b \
                 ON %s AND a.g %s b.g GROUP BY a.g ORDER BY a.g"
                kind res eq;
            ])
          [ ("", "="); ("LEFT", "="); ("LEFT", "IS NOT DISTINCT FROM") ])
      shapes
  in
  vector_differential (session (residual_fixture ())) sqls

(* the serializer's own as-of join SQL, taken from the translator *)
let test_aj_sql () =
  let d = Workload.Marketdata.generate Workload.Marketdata.small_scale in
  let db = Db.create () in
  Workload.Marketdata.load_pg db d;
  let eng =
    Hyperq.Engine.create
      (Hyperq.Backend.of_pgdb_session (Db.open_session db))
  in
  let sqls =
    List.map (Hyperq.Engine.translate eng)
      [
        "aj[`Symbol`Time; select Symbol, Time, Price from trades; select \
         Symbol, Time, Bid, Ask from quotes]";
        "select slip:avg Price-Bid by Symbol from aj[`Symbol`Time; select \
         Symbol, Time, Price from trades; select Symbol, Time, Bid from \
         quotes] lj secmaster_w";
      ]
  in
  check tbool "aj lowers to a window over a left join" true
    (List.for_all
       (fun sql ->
         let has sub = Str.string_match (Str.regexp (".*" ^ sub)) sql 0 in
         has "row_number() OVER" && has "LEFT OUTER JOIN")
       sqls);
  vector_differential (session db) sqls

(* the as-of join fixture: trades-like [a] (a unique id, a duplicated
   partition key [dup]) against quotes-like [b], with NULL and tied
   range values, NULL equality keys on both sides, an empty bucket
   (g = 'r'), a left row whose every candidate fails the range, a NULL
   bound, and ties on the second order key [k] *)
let asof_fixture () : Db.t =
  let db = Db.create () in
  Db.load_table db
    (S.table "a"
       [
         S.column "id" Ty.TBigint;
         S.column "g" Ty.TVarchar;
         S.column "t" Ty.TBigint;
         S.column "dup" Ty.TBigint;
         S.column "tm" Ty.TTime;
       ])
    (List.map
       (fun (id, g, t, dup, tm) ->
         [|
           V.Int id;
           (match g with Some g -> V.Str g | None -> V.Null);
           (match t with Some t -> V.Int t | None -> V.Null);
           V.Int dup;
           (match tm with Some tm -> V.Time tm | None -> V.Null);
         |])
       [
         (1L, Some "p", Some 50L, 1L, Some 5000);
         (2L, Some "q", Some 5L, 1L, Some 500);
         (3L, Some "p", Some 1L, 2L, Some 100);
         (4L, None, Some 60L, 2L, Some 6000);
         (5L, Some "r", Some 70L, 3L, Some 7000);
         (6L, Some "q", None, 3L, None);
         (7L, Some "p", Some 20L, 4L, Some 2000);
         (8L, Some "p", Some 30L, 4L, Some 3000);
         (9L, None, Some 10L, 5L, Some 1000);
       ]);
  Db.load_table db
    (S.table "b"
       [
         S.column "o" Ty.TBigint;
         S.column "g" Ty.TVarchar;
         S.column "t" Ty.TBigint;
         S.column "k" Ty.TBigint;
         S.column "y" Ty.TDouble;
         S.column "tm" Ty.TTime;
       ])
    (List.map
       (fun (o, g, t, k, y) ->
         [|
           V.Int o;
           (match g with Some g -> V.Str g | None -> V.Null);
           (match t with Some t -> V.Int t | None -> V.Null);
           (match k with Some k -> V.Int k | None -> V.Null);
           V.Float y;
           (match t with
           | Some t -> V.Time (Int64.to_int t * 100)
           | None -> V.Null);
         |])
       [
         (0L, Some "p", Some 10L, Some 1L, 1.0);
         (1L, Some "q", Some 10L, Some 2L, 2.0);
         (2L, Some "p", Some 30L, None, 3.0);
         (3L, None, Some 0L, Some 1L, 9.0);
         (4L, Some "p", Some 20L, Some 2L, 4.0);
         (5L, Some "p", Some 20L, Some 1L, 5.0);
         (6L, Some "p", Some 20L, Some 2L, 6.0);
         (7L, Some "q", Some 45L, Some 1L, 1.5);
         (8L, Some "p", None, Some 3L, 7.0);
         (9L, None, Some 5L, Some 2L, 8.0);
         (10L, Some "q", Some 5L, None, 2.5);
       ]);
  db

(* the as-of lowering ([row_number() OVER (PARTITION BY <left> ORDER BY
   r.x DESC, <right>...)] over a join on key equalities plus
   [r.x <= l.y], cut at rn = 1) runs as one vector_asof_join; every
   variation must give the reference's result, which pairs, numbers and
   filters every candidate *)
let test_asof_join () =
  let db = asof_fixture () in
  let sess = session db in
  let aj ?(kind = "LEFT") ?(on = "a.g = b.g AND b.t <= a.t")
      ?(part = "PARTITION BY a.id") ?(order = "b.t DESC") ?(where = "q.rn = 1")
      () =
    Printf.sprintf
      "SELECT * FROM (SELECT a.id, a.t, b.t AS bt, b.k, b.y, row_number() \
       OVER (%s ORDER BY %s) AS rn FROM a %s JOIN b ON %s) AS q WHERE %s"
      part order kind on where
  in
  let fused =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun on ->
            List.concat_map
              (fun part ->
                List.map
                  (fun order -> aj ~kind ~on ~part ~order ())
                  [
                    "b.t DESC"; "b.t DESC, b.k DESC"; "b.t DESC, b.k";
                    "b.t DESC, b.k, b.o DESC";
                  ])
              (* a unique partition key skips the window; a duplicated
                 one, a text one and none take it *)
              [
                "PARTITION BY a.id"; "PARTITION BY a.dup"; "PARTITION BY a.g";
                "";
              ])
          [
            "a.g = b.g AND b.t <= a.t";
            "a.g IS NOT DISTINCT FROM b.g AND b.t <= a.t";
            (* the range written with its operands swapped *)
            "a.t >= b.t AND b.g = a.g";
            "b.g IS NOT DISTINCT FROM a.g AND a.t >= b.t";
            (* no equality key: one bucket *)
            "b.t <= a.t";
          ])
      [ "LEFT"; "" ]
    @ [
        (* time-typed range columns *)
        aj ~on:"a.g = b.g AND b.tm <= a.tm" ~order:"b.tm DESC, b.o DESC" ();
        aj ~kind:"" ~on:"a.g IS NOT DISTINCT FROM b.g AND b.tm <= a.tm"
          ~part:"PARTITION BY a.dup" ~order:"b.tm DESC" ();
        (* the cut written the other ways *)
        aj ~where:"q.rn <= 1" ();
        aj ~where:"2 > q.rn" ~part:"PARTITION BY a.dup" ();
        (* the translator's two-level shape: a projection over the cut *)
        "SELECT q.id, q.y FROM (SELECT a.id, b.y, row_number() OVER \
         (PARTITION BY a.id ORDER BY b.t DESC, b.o DESC) AS hq_rn FROM a \
         LEFT OUTER JOIN b ON ((a.g IS NOT DISTINCT FROM b.g) AND (b.t <= \
         a.t))) AS q WHERE (hq_rn = 1) ORDER BY q.id DESC";
      ]
  in
  vector_differential sess fused;
  let plan sql =
    Db.set_analyze sess true;
    ignore (run sess sql);
    let nodes =
      match Db.last_plan sess with
      | Some root -> List.map snd (Op.flatten root)
      | None -> Alcotest.failf "%s: no plan" sql
    in
    Db.set_analyze sess false;
    nodes
  in
  let has op sql = List.exists (fun n -> n.Op.op = op) (plan sql) in
  List.iter
    (fun sql -> check tbool ("fused: " ^ sql) true (has "vector_asof_join" sql))
    fused;
  (* one pair per left row for a LEFT join, the window skipped on a
     unique partition key *)
  let nodes = plan (aj ()) in
  let node op = List.find (fun n -> n.Op.op = op) nodes in
  check tint "asof join: one row per left row" 9
    (node "vector_asof_join").Op.rows_out;
  check tint "window keeps every fused row" 9 (node "vector_window").Op.rows_out;
  (* shapes outside the pattern keep the candidate-pair join *)
  let unfused =
    [
      aj ~order:"b.t" ();
      aj ~order:"a.t DESC" ();
      aj ~order:"b.k DESC, b.t DESC" ();
      aj ~order:"b.t DESC, a.t" ();
      aj ~order:"b.t * 2 DESC" ();
      aj ~part:"PARTITION BY b.g" ();
      aj ~on:"a.g = b.g AND b.t < a.t" ();
      aj ~on:"a.g = b.g AND b.k <= a.t" ();
      aj ~on:"a.g = b.g AND b.t <= a.t AND b.y > 1" ();
      aj ~where:"q.rn <= 2" ();
      aj ~where:"q.rn = 1 OR q.t > 40" ();
      "SELECT * FROM (SELECT a.id, b.y, row_number() OVER (PARTITION BY a.id \
       ORDER BY b.t DESC) AS rn FROM a LEFT JOIN b ON a.g = b.g AND b.t <= \
       a.t WHERE a.id > 2) AS q WHERE q.rn = 1";
      "SELECT * FROM (SELECT a.id, b.y, row_number() OVER (PARTITION BY a.id \
       ORDER BY b.t DESC) AS rn, count(*) OVER (PARTITION BY a.g) AS n FROM \
       a LEFT JOIN b ON a.g = b.g AND b.t <= a.t) AS q WHERE q.rn = 1";
    ]
  in
  vector_differential sess unfused;
  List.iter
    (fun sql ->
      check tbool ("not fused: " ^ sql) false (has "vector_asof_join" sql))
    unfused;
  (* a range or order column mixing kinds keeps today's residual path:
     ints against floats compare as numbers, text against a number
     raises the reference's error *)
  let mixed m =
    Printf.sprintf
      "SELECT * FROM (SELECT a.id, m.y, row_number() OVER (PARTITION BY a.id \
       ORDER BY m.x DESC, m.z) AS rn FROM a LEFT JOIN (SELECT g, y, %s FROM \
       b) AS m ON a.g = m.g AND m.x <= a.t) AS q WHERE q.rn = 1"
      m
  in
  let numeric = mixed "CASE WHEN k > 1 THEN t ELSE y END AS x, k AS z" in
  (* range columns boxed on both sides, every value NULL *)
  let boxed =
    "SELECT * FROM (SELECT l.id, m.y, row_number() OVER (PARTITION BY l.id \
     ORDER BY m.x DESC, m.k) AS rn FROM (SELECT id, g, CASE WHEN t > 100 \
     THEN t END AS t FROM a) AS l LEFT JOIN (SELECT g, y, k, CASE WHEN t > \
     100 THEN t END AS x FROM b) AS m ON l.g = m.g AND m.x <= l.t) AS q \
     WHERE q.rn = 1"
  in
  vector_differential sess [ numeric; boxed ];
  check tbool "mixed numeric range: residual path" false
    (has "vector_asof_join" numeric);
  let raising =
    [
      mixed "CASE WHEN k > 1 THEN t ELSE g END AS x, k AS z";
      mixed "t AS x, CASE WHEN k > 1 THEN k ELSE g END AS z";
    ]
  in
  differential db raising;
  List.iter
    (fun sql ->
      match run sess sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: expected the reference's error" sql)
    (List.tl raising @ [ List.hd raising ])

(* the shapes the row interpreter used to serve: no FROM, UNION ALL,
   derived tables, CROSS and comma joins, ON clauses without an
   equality, Q's distinct *)
let test_former_row_shapes () =
  let sess = session (window_fixture ()) in
  let wv = "(SELECT g, k FROM w) AS wv" in
  vector_differential sess
    [
      "SELECT (1 + 2) AS value";
      "SELECT 'x' AS s, 2.5 * 2 AS f, NULL AS n";
      "SELECT count(*) AS n, 1 AS one";
      "SELECT x.k FROM (SELECT g, k FROM w WHERE k > 1) AS x JOIN (SELECT \
       g FROM " ^ wv ^ " WHERE k > 2) AS y ON x.g = y.g";
      "SELECT wv.g, count(*) AS n FROM " ^ wv ^ " GROUP BY wv.g ORDER BY wv.g";
      "SELECT u.z FROM (SELECT k AS z FROM w WHERE k > 1 UNION ALL SELECT t \
       AS z FROM w WHERE t > 50) AS u";
      "SELECT u.g, sum(u.z) AS s FROM (SELECT g, k AS z FROM w UNION ALL \
       SELECT g, t AS z FROM w UNION ALL SELECT g, k FROM " ^ wv ^ ") AS u \
       GROUP BY u.g ORDER BY u.g";
      "SELECT x.k FROM (SELECT k FROM w WHERE k > 1) AS x CROSS JOIN w";
      "SELECT a.t, b.t FROM w a, w b WHERE a.k = b.k AND a.t < b.t";
      "SELECT x.k FROM (SELECT g, k FROM w WHERE k > 1) AS x JOIN w ON x.k \
       < w.k";
      "SELECT x.k, w.t FROM (SELECT g, k FROM w WHERE k > 3) AS x LEFT JOIN \
       w ON x.k < w.k ORDER BY x.k, w.t";
      "SELECT w.t FROM w LEFT JOIN (SELECT k FROM w WHERE k > 100) AS e ON \
       w.k < e.k";
      "SELECT x.g FROM (SELECT g FROM w WHERE k > 1) AS x GROUP BY x.g";
      "SELECT g, k FROM w GROUP BY g, k ORDER BY k DESC, g LIMIT 3";
      "SELECT v FROM w GROUP BY v ORDER BY v";
      (* a rejected shape over an empty input raises nothing *)
      "SELECT g, sum(k) AS s, row_number() OVER (ORDER BY g) AS rn FROM w \
       WHERE k > 100 GROUP BY g";
      "SELECT sum(k) AS s, row_number() OVER (ORDER BY g) AS rn FROM w WHERE \
       k > 100";
      "SELECT g, sum(k, t) AS s FROM w WHERE k > 100 GROUP BY g";
      "SELECT abs(*) AS x FROM w WHERE k > 100";
    ];
  (* rejected shapes and runtime errors: the reference's SQLSTATE and
     message *)
  List.iter
    (fun (code, sql) ->
      let a = run sess sql in
      (match a with
      | Error e when String.length e > 5 && String.sub e 0 5 = code -> ()
      | Error e -> Alcotest.failf "%s: expected %s, got %s" sql code e
      | Ok _ -> Alcotest.failf "%s: expected %s" sql code);
      check_same sql a (reference sess sql))
    [
      ( "42601",
        "SELECT u.a FROM (SELECT k AS a FROM w UNION ALL SELECT k, t FROM w) \
         AS u" );
      ("42P01", "SELECT k FROM nowhere");
      ("42P01", "SELECT x.k FROM w AS x JOIN nowhere AS y ON x.k = y.k");
      ("22012", "SELECT (1 / 0)");
      ( "0A000",
        "SELECT g, sum(k) AS s, row_number() OVER (ORDER BY g) AS rn FROM w \
         WHERE k > 1 GROUP BY g" );
      ("0A000", "SELECT g, sum(k, t) AS s FROM w GROUP BY g");
      ("0A000", "SELECT g, sum(k) IN (1, 2) AS x FROM w GROUP BY g");
      ("42883", "SELECT g, nosuch(k) OVER (PARTITION BY g) AS x FROM w");
      ("42601", "SELECT abs(*) AS x FROM w");
    ]

(* the paper's 25 analytical queries, translated by the engine and run
   on a pgdb session: each is answered by Vexec *)
let test_analytical_all_vector () =
  let module MD = Workload.Marketdata in
  let module AW = Workload.Analytical in
  let d =
    MD.generate
      { MD.symbols = 6; trades_per_symbol = 12; quotes_per_symbol = 20;
        wide_columns = 20 }
  in
  let db = Db.create () in
  MD.load_pg db d;
  let sess = Db.open_session db in
  let eng = Hyperq.Engine.create (Hyperq.Backend.of_pgdb_session sess) in
  let qs = AW.queries d in
  List.iter
    (fun q ->
      List.iter
        (fun st ->
          match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze st) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "setup Q%02d: %s" q.AW.id e)
        q.AW.setup)
    qs;
  let v0 = Atomic.get Vexec.stats_vector in
  List.iter
    (fun q ->
      match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze q.AW.text) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "Q%02d: %s" q.AW.id e)
    qs;
  check tbool "every query served by the vector path" true
    (Atomic.get Vexec.stats_vector - v0 >= List.length qs)

(* ------------------------------------------------------------------ *)
(* Sort kernel                                                         *)
(* ------------------------------------------------------------------ *)

module A = Sqlast.Ast

(* the kernel's oracle: each position's ORDER BY values as a list, a
   [(c IS NULL)] item evaluated to a Bool, compared item by item with
   Exec.compare_key (NULLs last, negated for DESC) under
   List.stable_sort. A comparison that raises is the outcome. *)
let reference_order (items : (A.expr * A.direction) list)
    (value : string -> int -> V.t) (n : int) : (int array, string) result =
  let rec eval e p =
    match e with
    | A.Col (_, c) -> value c p
    | A.IsNull e -> V.Bool (V.is_null (eval e p))
    | _ -> invalid_arg "reference_order"
  in
  let keys = Array.init n (fun p -> List.map (fun (e, _) -> eval e p) items) in
  let rec cmp k1 k2 items =
    match (k1, k2, items) with
    | x :: r1, y :: r2, (_, d) :: rest ->
        let c = Pgdb.Exec.compare_key x y in
        let c = match d with A.Asc -> c | A.Desc -> -c in
        if c <> 0 then c else cmp r1 r2 rest
    | _ -> 0
  in
  match
    List.stable_sort
      (fun a b -> cmp keys.(a) keys.(b) items)
      (List.init n Fun.id)
  with
  | l -> Ok (Array.of_list l)
  | exception Pgdb.Errors.Sql_error { message; _ } -> Error message

(* generated values of one kind each: int64 extremes, floats with NaN,
   signed zeros and infinities, text, calendar and bool values, and two
   mixes (ints with floats beyond 2^53, which compare by exact value;
   text with ints, which raise) *)
let sort_kinds : (string * V.t array) list =
  let big = 9007199254740992L in
  [
    ( "int",
      [| V.Int Int64.min_int; V.Int Int64.max_int; V.Int 0L; V.Int (-1L);
         V.Int big; V.Int (Int64.succ big); V.Int 7L |] );
    ( "float",
      [| V.Float Float.nan; V.Float (-0.0); V.Float 0.0; V.Float Float.infinity;
         V.Float Float.neg_infinity; V.Float 1.5; V.Float (-1e300) |] );
    ( "text",
      [| V.Str "zz"; V.Str "b"; V.Str ""; V.Str "ab"; V.Str "B"; V.Str "a";
         V.Str "a\000" |] );
    ("date", [| V.Date 9000; V.Date (-3); V.Date 0; V.Date 17 |]);
    ("time", [| V.Time 86_399_999; V.Time 0; V.Time 34_200_000 |]);
    ( "timestamp",
      [| V.Timestamp Int64.max_int; V.Timestamp (-5L); V.Timestamp 0L;
         V.Timestamp Int64.min_int |] );
    ("bool", [| V.Bool true; V.Bool false |]);
    ( "int+float",
      [| V.Int 3L; V.Float 2.5; V.Int (Int64.succ big);
         V.Float 9007199254740992.0; V.Int big; V.Float Float.nan;
         V.Float (-0.0); V.Int 0L |] );
    ("text+int", [| V.Str "x"; V.Int 1L; V.Str "a" |]);
  ]

(* the ORDER BY lists over column c: the serializer's four pre-keyed
   forms and both plain directions, each alone or with a tie-breaking
   second key on t *)
let sort_orders : (A.expr * A.direction) list list =
  let c = A.Col (None, "c") and dirs = [ A.Asc; A.Desc ] in
  let orders =
    List.concat_map
      (fun d1 -> List.map (fun d2 -> [ (A.IsNull c, d1); (c, d2) ]) dirs)
      dirs
    @ List.map (fun d -> [ (c, d) ]) dirs
  in
  orders @ List.map (fun o -> o @ [ (A.Col (None, "t"), A.Desc) ]) orders

let test_sort_kernel_differential () =
  let rng = Random.State.make [| 37 |] in
  let cases = ref 0 in
  let check_case kind n items pool vals =
    (* t ties often, so the second key decides *)
    let ties = Array.init n (fun p -> V.Int (Int64.of_int (p mod 3))) in
    let value c p = if c = "t" then ties.(p) else vals.(p) in
    let expect = reference_order items value n in
    (* column c stored with a junk row before each value, text first,
       so its dictionary is not in sorted order, and read through a
       map; or as a value array *)
    let stored =
      Batch.column_init (2 * n) (fun i ->
          if i mod 2 = 1 then vals.(i / 2)
          else pool.(Array.length pool - 1 - (i / 2 mod Array.length pool)))
    in
    let map = Array.init n (fun p -> (2 * p) + 1) in
    List.iter
      (fun (repr, src) ->
        let keys =
          List.map
            (fun (e, mk) ->
              match e with
              | A.Col (_, "t") -> mk (Vexec.Vals ties)
              | _ -> mk src)
            (Vexec.fold_order items)
        in
        List.iter
          (fun (first, count) ->
            incr cases;
            let what =
              Printf.sprintf "%s %s n=%d ORDER BY %s OFFSET %d LIMIT %d" kind
                repr n
                (String.concat ", "
                   (List.map
                      (fun (e, d) ->
                        A.expr_str e ^ if d = A.Asc then " ASC" else " DESC")
                      items))
                first count
            in
            let got =
              match Vexec.order_positions keys n (first + count) with
              | perm -> Ok (Array.sub perm first count)
              | exception Pgdb.Errors.Sql_error { message; _ } -> Error message
            in
            if got <> Result.map (fun p -> Array.sub p first count) expect then
              Alcotest.failf "kernel/reference divergence: %s" what)
          [ (0, n); (0, n / 10); (n / 20, n / 10); (n / 3, n - (n / 3)) ])
      [ ("column", Vexec.Rows (stored, Some map)); ("values", Vexec.Vals vals) ]
  in
  (* [vals] in the order the reference gives them, a failing sort
     leaving them as they are *)
  let sorted items vals =
    let n = Array.length vals in
    let ties p = V.Int (Int64.of_int (p mod 3)) in
    match
      reference_order items (fun c p -> if c = "t" then ties p else vals.(p)) n
    with
    | Ok perm -> Array.map (Array.get vals) perm
    | Error _ -> vals
  in
  List.iter
    (fun (kind, pool) ->
      List.iter
        (fun n ->
          List.iter
            (fun items ->
              let random =
                Array.init n (fun _ ->
                    if Random.State.int rng 6 = 0 then V.Null
                    else pool.(Random.State.int rng (Array.length pool)))
              in
              let presorted = sorted items random in
              let third = (n + 2) / 3 in
              let runs =
                Array.concat
                  (List.init 3 (fun r ->
                       let lo = Stdlib.min n (r * third) in
                       sorted items
                         (Array.sub random lo (Stdlib.min third (n - lo)))))
              in
              List.iter (check_case kind n items pool)
                [ random; presorted;
                  Array.of_list (List.rev (Array.to_list presorted)); runs;
                  Array.make n pool.(0) ])
            sort_orders)
        [ 0; 1; 2; 5; 40; 300 ])
    sort_kinds;
  check tbool "cases ran" true (!cases > 10_000)

(* the natural merge sort's comparison counts: n - 1 on input in order
   or strictly descending, at most n more per merge pass over k runs,
   and a stable order on ties *)
let test_sort_runs () =
  let n = 4096 in
  let sort keys =
    let count = ref 0 in
    let a = Array.init n Fun.id in
    Vexec.sort_ids
      (fun i j ->
        incr count;
        Int.compare keys.(i) keys.(j))
      a;
    let stable =
      List.stable_sort
        (fun i j -> Int.compare keys.(i) keys.(j))
        (List.init n Fun.id)
    in
    check tbool "the stable order" true (a = Array.of_list stable);
    !count
  in
  check tint "presorted: n - 1 comparisons" (n - 1)
    (sort (Array.init n Fun.id));
  check tint "descending: n - 1 comparisons" (n - 1)
    (sort (Array.init n (fun i -> n - i)));
  List.iter
    (fun k ->
      (* k ascending runs of n / k keys each, interleaved in value *)
      let m = n / k in
      let c = sort (Array.init n (fun i -> (i mod m * k) + (i / m))) in
      let passes = int_of_float (Float.ceil (Float.log2 (float_of_int k))) in
      let budget = n - 1 + (passes * n) in
      if c > budget then
        Alcotest.failf "%d runs: %d comparisons, budget %d" k c budget)
    [ 2; 4; 16 ];
  let rng = Random.State.make [| 5 |] in
  ignore (sort (Array.init n (fun _ -> Random.State.int rng 10)))

(* the serializer's pre-keyed ORDER BY against the row reference, over
   the edge table's NULLs, extremes, NaN and signed zeros: every fold
   form on every column, with LIMIT, over aggregate outputs,
   left-join pads and in a window *)
let test_sort_sql_shapes () =
  let db = edge_fixture () in
  let forms c =
    [ Printf.sprintf "(%s IS NULL) DESC, %s ASC" c c;
      Printf.sprintf "(%s IS NULL) ASC, %s DESC" c c;
      Printf.sprintf "(%s IS NULL) DESC, %s DESC" c c;
      Printf.sprintf "(%s IS NULL) ASC, %s ASC" c c;
      Printf.sprintf "%s ASC" c; Printf.sprintf "%s DESC" c ]
  in
  let sqls =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun o ->
            [ Printf.sprintf "SELECT k, i, j, x, y FROM edge ORDER BY %s" o;
              Printf.sprintf "SELECT k, %s FROM edge ORDER BY %s LIMIT 3" c o;
              Printf.sprintf
                "SELECT k, i FROM edge ORDER BY %s, i DESC LIMIT 4" o;
              Printf.sprintf
                "SELECT k, row_number() OVER (PARTITION BY k ORDER BY %s) AS r \
                 FROM edge" o ])
          (forms c))
      [ "k"; "i"; "j"; "x"; "y" ]
    @ List.concat_map
        (fun o ->
          [ Printf.sprintf
              "SELECT k, max(x) AS m FROM edge GROUP BY k ORDER BY %s" o;
            Printf.sprintf
              "SELECT a.k, b.x AS m FROM edge AS a LEFT OUTER JOIN edge AS b \
               ON a.i = b.j AND b.k = 'c' ORDER BY %s, a.i ASC" o;
            Printf.sprintf
              "SELECT x * 2 AS m, k FROM edge ORDER BY %s LIMIT 3" o ])
        (forms "m")
  in
  bit_differential (session db) sqls

(* A presorted ORDER BY costs one pass and its permutation, which is
   the result's row order as the unsorted scan's is. Over the big table,
   whose v ascends, the serializer's pre-keyed sort allocates 0.01 words
   a row more than the same scan unsorted (OCaml 5.1, counted with
   Obs.Runtime.allocated_bytes); the per-row key lists and stable sort
   the kernel replaced read 49.6. The budget is a quarter word. *)
let test_presorted_order_allocation () =
  let sess = big_session () in
  let words sql =
    ignore (run sess sql);
    let best = ref Float.infinity in
    for _ = 1 to 3 do
      let a0 = Obs.Runtime.allocated_bytes () in
      ignore (run sess sql);
      best := Float.min !best (Obs.Runtime.allocated_bytes () -. a0)
    done;
    !best /. float_of_int (Sys.word_size / 8)
  in
  let plain = "SELECT v, f FROM big" in
  let sorted = plain ^ " ORDER BY (v IS NULL) DESC, v ASC" in
  check_same sorted (run sess sorted) (run sess plain);
  let per_row = (words sorted -. words plain) /. float_of_int big_rows in
  if per_row > 0.25 then
    Alcotest.failf "presorted ORDER BY: %.2f words a row, budget 0.25" per_row

(* ------------------------------------------------------------------ *)
(* Key order                                                           *)
(* ------------------------------------------------------------------ *)

(* Table ko: a boxed key column n mixing ints beyond 2^53 with the
   doubles they round to or equal, NaN, -0.0 against 0, both
   infinities and NULL; and s, text against numbers. Every expectation
   below is computed by hand from Exec.compare_key's rules, not taken
   from the row reference, which orders with that same comparator. *)
let ko_rows : (int * V.t * V.t) list =
  let i x = V.Int x and f x = V.Float x and s x = V.Str x in
  let p53 = 9007199254740992L in
  [
    (1, i (Int64.add p53 1L), s "b");
    (2, i p53, i 1L);
    (3, i 5L, s "a");
    (4, f 9007199254740992.0, V.Null);
    (5, f 5.0, f 1.0);
    (6, f Float.nan, s "a");
    (7, f (-0.0), V.Null);
    (8, i 0L, V.Null);
    (9, V.Null, V.Null);
    (10, i (Int64.neg (Int64.add p53 1L)), V.Null);
    (11, f (-9007199254740992.0), V.Null);
    (12, i (Int64.add p53 2L), V.Null);
    (13, f 9007199254740994.0, V.Null);
    (14, f Float.infinity, V.Null);
    (15, i Int64.max_int, V.Null);
    (16, f 0x1p63, V.Null);
    (17, i Int64.min_int, V.Null);
    (18, f Float.neg_infinity, V.Null);
  ]

let ko_session () =
  let db = Db.create () in
  Db.load_table db
    (S.table "ko"
       [
         S.column "id" Ty.TBigint;
         S.column "n" Ty.TDouble;
         S.column "s" Ty.TVarchar;
       ])
    (List.map (fun (id, n, s) -> [| V.Int (Int64.of_int id); n; s |]) ko_rows);
  session db

(* n's value in row [id] *)
let ko_n id =
  let _, n, _ = List.find (fun (i, _, _) -> i = id) ko_rows in
  n

(* ORDER BY n: NaN lowest, then by exact value, an int after a double
   equal to it (12 after 13) and 15 (2^63 - 1) below 16 (2^63), ties
   (7 and 8, 3 and 5, 2 and 4) in row order, NULL last ascending and
   first descending *)
let ko_asc = [ 6; 18; 17; 10; 11; 7; 8; 3; 5; 2; 4; 1; 13; 12; 15; 16; 14; 9 ]
let ko_desc = [ 9; 14; 16; 15; 12; 13; 1; 2; 4; 3; 5; 7; 8; 11; 10; 17; 18; 6 ]

let test_key_order () =
  let sess = ko_session () in
  let int n = V.Int (Int64.of_int n) in
  (* [sql] answers [rows], and so does the row reference *)
  let expect sql (rows : V.t list list) =
    let show got =
      String.concat "; "
        (Array.to_list
           (Array.map
              (fun r ->
                String.concat ", " (Array.to_list (Array.map V.to_display r)))
              got))
    in
    let want = Array.of_list (List.map Array.of_list rows) in
    let answer = bits (run sess sql) in
    match answer with
    | Ok (_, got) when Ok ([], got) = bits (Ok ([], want)) ->
        check_same sql answer (bits (reference sess sql))
    | Ok (_, got) ->
        Alcotest.failf "%s: got %d rows [%s]" sql (Array.length got) (show got)
    | Error e -> Alcotest.failf "%s: %s" sql e
  in
  let ids l = List.map (fun id -> [ int id ]) l in
  let take k l = List.filteri (fun i _ -> i < k) l in
  expect "SELECT id FROM ko ORDER BY n" (ids ko_asc);
  expect "SELECT id FROM ko ORDER BY n DESC" (ids ko_desc);
  expect "SELECT id FROM ko ORDER BY (n IS NULL) DESC, n ASC"
    (ids (9 :: take 17 ko_asc));
  (* a short LIMIT selects its prefix without a full sort *)
  expect "SELECT id FROM ko ORDER BY n LIMIT 2" (ids (take 2 ko_asc));
  expect
    "SELECT id FROM ko WHERE id NOT IN (9, 14, 15, 16) ORDER BY n DESC LIMIT 1"
    (ids [ 12 ]);
  expect
    "SELECT id FROM ko WHERE id NOT IN (1, 9, 12, 13, 14, 15, 16) ORDER BY n \
     DESC LIMIT 1"
    (ids [ 2 ]);
  expect "SELECT id FROM ko WHERE id NOT IN (6, 9, 17, 18) ORDER BY n LIMIT 1"
    (ids [ 10 ]);
  (* a window numbers rows in ORDER BY's order *)
  List.iter
    (fun (dir, order) ->
      expect
        (Printf.sprintf
           "SELECT id, row_number() OVER (ORDER BY n %s) AS r FROM ko ORDER \
            BY r"
           dir)
        (List.mapi (fun r id -> [ int id; int (r + 1) ]) order))
    [ ("ASC", ko_asc); ("DESC", ko_desc) ];
  expect
    "SELECT id FROM (SELECT id, row_number() OVER (ORDER BY n) AS r FROM ko) \
     AS q WHERE q.r = 1"
    (ids [ 6 ]);
  (* min and max are the first and last non-NULL rows of ORDER BY; on a
     tie they keep the earlier row's value *)
  List.iter
    (fun (ws, lo, hi) ->
      let w = String.concat ", " (List.map string_of_int ws) in
      expect
        (Printf.sprintf
           "SELECT min(n) AS lo, max(n) AS hi FROM ko WHERE id IN (%s)" w)
        [ [ ko_n lo; ko_n hi ] ];
      let sorted =
        List.filter (fun id -> List.mem id ws && ko_n id <> V.Null) ko_asc
      in
      check tint (w ^ ": min is ORDER BY's first") 0
        (Pgdb.Exec.compare_key (ko_n lo) (ko_n (List.hd sorted)));
      check tint (w ^ ": max is ORDER BY's last") 0
        (Pgdb.Exec.compare_key (ko_n hi) (ko_n (List.hd (List.rev sorted)))))
    [
      (List.init 18 (fun i -> i + 1), 6, 14);
      ([ 1; 4 ], 4, 1);
      ([ 12; 13 ], 13, 12);
      ([ 10; 11 ], 10, 11);
      ([ 15; 16 ], 15, 16);
      ([ 3; 5 ], 3, 3);
      ([ 2; 4; 7; 8 ], 7, 2);
    ];
  expect
    "SELECT least(n, 9007199254740992.0) AS lo, greatest(n, \
     9007199254740992.0) AS hi FROM ko WHERE id = 1"
    [ [ V.Float 9007199254740992.0; ko_n 1 ] ];
  (* count(DISTINCT n) counts the classes Q's distinct (GROUP BY n)
     returns, NULL aside: every row's value but those of 4 (2's class),
     5 (3's) and 8 (7's) *)
  let classes = [ 1; 2; 3; 6; 7; 9; 10; 11; 12; 13; 14; 15; 16; 17; 18 ] in
  expect "SELECT n FROM ko GROUP BY n"
    (List.map (fun id -> [ ko_n id ]) classes);
  expect "SELECT count(DISTINCT n) AS c FROM ko"
    [ [ int (List.length classes - 1) ] ];
  expect "SELECT s FROM ko GROUP BY s"
    [ [ V.Str "b" ]; [ V.Int 1L ]; [ V.Str "a" ]; [ V.Null ] ];
  expect "SELECT count(DISTINCT s) AS c FROM ko" [ [ int 3 ] ];
  (* a window sorts each partition alone, so text in one partition and
     numbers in another order; the rank-limit cut answers as the full
     window does *)
  expect
    "SELECT id FROM (SELECT id, row_number() OVER (PARTITION BY id = 2 OR \
     id = 5 ORDER BY s) AS r FROM ko) AS q WHERE q.r = 1"
    (ids [ 2; 3 ]);
  (* a key of text against numbers: one error, whatever sorts or folds,
     and also where the first key decides every comparison *)
  List.iter
    (fun sql ->
      match run sess sql with
      | Error e ->
          check Alcotest.string sql
            "42804:cannot order text against a non-text value" e;
          check_same sql (run sess sql) (reference sess sql)
      | Ok _ -> Alcotest.failf "%s: answered" sql)
    [
      "SELECT id FROM ko ORDER BY s";
      "SELECT id FROM ko ORDER BY s DESC LIMIT 1";
      "SELECT id FROM ko ORDER BY id, s";
      "SELECT id, row_number() OVER (ORDER BY s) AS r FROM ko";
      "SELECT id, row_number() OVER (ORDER BY id, s) AS r FROM ko";
      "SELECT id, sum(id) OVER (PARTITION BY id > 3 ORDER BY s) AS r FROM ko";
      "SELECT min(s) AS m FROM ko";
    ]

let () =
  Alcotest.run "vexec"
    [
      ( "differential",
        [
          Alcotest.test_case "constructs the translator does not emit" `Quick
            test_untranslated_constructs;
        ] );
      ( "edges",
        [
          Alcotest.test_case "edge values against the row reference" `Quick
            test_edge_values;
          Alcotest.test_case "calendar and bool payloads" `Quick
            test_calendar_payloads;
          Alcotest.test_case "grouped aggregate error order" `Quick
            test_group_error_order;
          Alcotest.test_case "group keys beyond 2^53 stay apart" `Quick
            test_group_big_keys;
          Alcotest.test_case "chunk boundaries against the row reference"
            `Quick test_chunk_boundaries;
        ] );
      ( "key classes",
        [
          Alcotest.test_case "DISTINCT, PARTITION BY and GROUP BY classes"
            `Quick test_key_classes;
          Alcotest.test_case "single- and two-key joins" `Quick test_key_joins;
          Alcotest.test_case "JOIN ON returns the rows of WHERE" `Quick
            test_join_matches_where;
        ] );
      ( "nulls",
        [
          Alcotest.test_case "3VL filter survival" `Quick
            test_null_filter_survival;
          Alcotest.test_case "all-null column" `Quick test_all_null_column;
        ] );
      ( "batch",
        [
          Alcotest.test_case "selection-vector compaction" `Quick
            test_selection_compaction;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "dictionary-coded text" `Quick test_text_codes;
          Alcotest.test_case "a stored table is held once" `Quick
            test_table_held_once;
          Alcotest.test_case "scans allocate survivors only" `Quick
            test_scan_allocation;
          Alcotest.test_case "grouped folds allocate group ids only" `Quick
            test_grouped_allocation;
        ] );
      ( "integration",
        [
          Alcotest.test_case "explain shows vector nodes" `Quick
            test_explain_vector_nodes;
          Alcotest.test_case "path counters" `Quick test_path_counters;
          Alcotest.test_case "conjuncts run in written order" `Quick
            test_conjuncts_run_in_written_order;
          Alcotest.test_case "temp tables" `Quick test_temp_tables;
          Alcotest.test_case "writes after a scan" `Quick
            test_writes_after_scan;
        ] );
      ( "operators",
        [
          Alcotest.test_case "explain vector_values" `Quick test_explain_values;
          Alcotest.test_case "explain vector_union" `Quick test_explain_union;
          Alcotest.test_case "explain vector_nested_loop" `Quick
            test_explain_nested_loop;
        ] );
      ( "new shapes",
        [
          Alcotest.test_case "window functions" `Quick test_window_functions;
          Alcotest.test_case "rank-limit cut" `Quick test_rank_limit_cut;
          Alcotest.test_case "derived tables" `Quick test_derived_tables;
          Alcotest.test_case "equi + residual joins" `Quick
            test_residual_joins;
          Alcotest.test_case "serializer aj SQL" `Quick test_aj_sql;
          Alcotest.test_case "fused as-of join" `Quick test_asof_join;
          Alcotest.test_case "former row-path shapes" `Quick
            test_former_row_shapes;
          Alcotest.test_case "analytical workload all-vector" `Quick
            test_analytical_all_vector;
        ] );
      ( "sort kernel",
        [
          Alcotest.test_case "typed kernel against the reference sort" `Quick
            test_sort_kernel_differential;
          Alcotest.test_case "natural runs and their comparisons" `Quick
            test_sort_runs;
          Alcotest.test_case "pre-keyed ORDER BY against the row reference"
            `Quick test_sort_sql_shapes;
          Alcotest.test_case "presorted ORDER BY allocation budget" `Quick
            test_presorted_order_allocation;
        ] );
      ( "key order",
        [
          Alcotest.test_case "sorts, windows, extremes and DISTINCT agree"
            `Quick test_key_order;
        ] );
    ]
