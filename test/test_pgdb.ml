(* Tests for the PG-compatible SQL engine (lib/pgdb). *)

module V = Pgdb.Value
module Db = Pgdb.Db
module S = Catalog.Schema
module Ty = Catalog.Sqltype

let check = Alcotest.check
let tint = Alcotest.int
let tstr = Alcotest.string
let tbool = Alcotest.bool

(* fresh database with the trades/quotes fixture *)
let fixture () =
  let db = Db.create () in
  Db.load_table db
    (S.table "trades"
       [
         S.column "sym" Ty.TVarchar;
         S.column "t" Ty.TBigint;
         S.column "price" Ty.TDouble;
         S.column "size" Ty.TBigint;
       ])
    [
      [| V.Str "A"; V.Int 1000L; V.Float 10.0; V.Int 100L |];
      [| V.Str "B"; V.Int 2000L; V.Float 20.0; V.Int 200L |];
      [| V.Str "A"; V.Int 3000L; V.Float 11.0; V.Int 150L |];
      [| V.Str "B"; V.Int 4000L; V.Float 21.0; V.Int 250L |];
      [| V.Str "A"; V.Int 5000L; V.Float 12.0; V.Int 300L |];
    ];
  Db.load_table db
    (S.table "quotes"
       [
         S.column "sym" Ty.TVarchar;
         S.column "t" Ty.TBigint;
         S.column "bid" Ty.TDouble;
         S.column "ask" Ty.TDouble;
       ])
    [
      [| V.Str "A"; V.Int 500L; V.Float 9.9; V.Float 10.1 |];
      [| V.Str "B"; V.Int 1500L; V.Float 19.9; V.Float 20.1 |];
      [| V.Str "A"; V.Int 2500L; V.Float 10.9; V.Float 11.1 |];
      [| V.Str "B"; V.Int 3500L; V.Float 20.9; V.Float 21.1 |];
    ];
  Db.open_session db

let rows_of = function
  | Db.Rows (res, _) -> res
  | Db.Complete tag -> Alcotest.failf "expected rows, got %s" tag

let q sess sql = rows_of (Db.exec sess sql)

let cell res i j = (Stored.result_rows res).(i).(j)

(* ------------------------------------------------------------------ *)
(* Basic queries                                                       *)
(* ------------------------------------------------------------------ *)

(* name resolution: the first exact name match wins, then the first
   case-insensitive one; qualifiers always match case-insensitively *)
let test_find_binding () =
  let b q n = { Pgdb.Exec.b_qual = q; b_name = n; b_type = Catalog.Sqltype.TBigint } in
  let bs =
    [ b (Some "T") "Price"; b (Some "t") "price"; b (Some "u") "PRICE";
      b None "x" ]
  in
  let find q n = Pgdb.Exec.find_binding bs q n in
  check tint "exact match beats an earlier case-insensitive one" 1
    (find None "price");
  check tint "first exact match" 0 (find None "Price");
  check tint "else the first case-insensitive match" 0 (find None "pRiCe");
  check tint "qualifier matches case-insensitively" 0
    (find (Some "t") "PRICE");
  check tint "qualified exact match" 2 (find (Some "U") "PRICE");
  check tint "unqualified name finds an unqualified binding" 3
    (find None "X");
  let undefined q n =
    match find q n with
    | _ -> Alcotest.failf "%s resolved" n
    | exception Pgdb.Errors.Sql_error { code; _ } ->
        check tstr ("undefined column " ^ n) "42703" code
  in
  undefined (Some "t") "x";
  undefined None "nope";
  undefined (Some "v") "price"

let test_select_all () =
  let sess = fixture () in
  let res = q sess "SELECT * FROM trades" in
  check tint "5 rows" 5 res.Pgdb.Exec.res_nrows;
  check tint "4 cols" 4 (List.length res.Pgdb.Exec.res_cols)

let test_where_and_projection () =
  let sess = fixture () in
  let res = q sess "SELECT price FROM trades WHERE sym = 'A'" in
  check tint "3 rows" 3 res.Pgdb.Exec.res_nrows;
  match cell res 0 0 with
  | V.Float f -> check (Alcotest.float 1e-9) "first price" 10.0 f
  | v -> Alcotest.failf "expected float, got %s" (V.to_display v)

let test_expressions () =
  let sess = fixture () in
  let res =
    q sess "SELECT price * size AS notional FROM trades WHERE sym = 'B'"
  in
  (match cell res 0 0 with
  | V.Float f -> check (Alcotest.float 1e-9) "notional" 4000.0 f
  | v -> Alcotest.failf "expected float, got %s" (V.to_display v));
  check tstr "alias" "notional" (fst (List.hd res.Pgdb.Exec.res_cols))

let test_order_by_limit () =
  let sess = fixture () in
  let res = q sess "SELECT price FROM trades ORDER BY price DESC LIMIT 2" in
  check tint "2 rows" 2 res.Pgdb.Exec.res_nrows;
  match (cell res 0 0, cell res 1 0) with
  | V.Float a, V.Float b ->
      check (Alcotest.float 1e-9) "top" 21.0 a;
      check (Alcotest.float 1e-9) "second" 20.0 b
  | _ -> Alcotest.fail "bad types"

(* Q's distinct lowers to a GROUP BY over every column *)
let test_distinct () =
  let sess = fixture () in
  let res = q sess "SELECT sym FROM trades GROUP BY sym ORDER BY sym ASC" in
  check tint "2 rows" 2 res.Pgdb.Exec.res_nrows

(* ------------------------------------------------------------------ *)
(* Null semantics (3VL)                                                *)
(* ------------------------------------------------------------------ *)

let null_fixture () =
  let db = Db.create () in
  Db.load_table db
    (S.table "t" [ S.column "a" Ty.TBigint; S.column "b" Ty.TBigint ])
    [
      [| V.Int 1L; V.Int 1L |];
      [| V.Null; V.Int 2L |];
      [| V.Null; V.Null |];
    ];
  Db.open_session db

let test_null_equality_3vl () =
  let sess = null_fixture () in
  (* plain = never matches NULL *)
  let res = q sess "SELECT a FROM t WHERE a = a" in
  check tint "only non-null row" 1 res.Pgdb.Exec.res_nrows;
  (* IS NOT DISTINCT FROM matches nulls: the Hyper-Q 2VL rewrite target *)
  let res = q sess "SELECT a FROM t WHERE a IS NOT DISTINCT FROM a" in
  check tint "all rows" 3 res.Pgdb.Exec.res_nrows

let test_null_arith_propagates () =
  let sess = null_fixture () in
  let res = q sess "SELECT a + b FROM t" in
  check tbool "null + x is null" true (V.is_null (cell res 1 0));
  check tbool "1+1 not null" false (V.is_null (cell res 0 0))

let test_coalesce () =
  let sess = null_fixture () in
  let res = q sess "SELECT COALESCE(a, 0) FROM t" in
  check tbool "coalesce fills" true (cell res 1 0 = V.Int 0L)

let test_count_ignores_null () =
  let sess = null_fixture () in
  let res = q sess "SELECT COUNT(*) AS n, COUNT(a) AS na FROM t" in
  check tbool "count-star 3" true (cell res 0 0 = V.Int 3L);
  check tbool "count(a) 1" true (cell res 0 1 = V.Int 1L)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let test_group_by () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT sym, MAX(price) AS mx, COUNT(*) AS n FROM trades GROUP BY sym \
       ORDER BY sym ASC"
  in
  check tint "2 groups" 2 res.Pgdb.Exec.res_nrows;
  check tbool "A max" true (cell res 0 1 = V.Float 12.0);
  check tbool "B count" true (cell res 1 2 = V.Int 2L)

(* a filter on an aggregate, in the form Q's select over a grouped
   select lowers to: a WHERE over the grouped derived table *)
let test_having () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT q.sym FROM (SELECT sym, COUNT(*) AS n FROM trades GROUP BY sym) \
       AS q WHERE q.n > 2 ORDER BY q.sym ASC"
  in
  check tint "only A has 3" 1 res.Pgdb.Exec.res_nrows;
  check tbool "A" true (cell res 0 0 = V.Str "A")

let test_global_aggregate () =
  let sess = fixture () in
  let res = q sess "SELECT SUM(size) FROM trades" in
  check tbool "sum" true (cell res 0 0 = V.Int 1000L)

let test_avg_stddev () =
  let sess = fixture () in
  let res = q sess "SELECT AVG(price) FROM trades WHERE sym = 'A'" in
  match cell res 0 0 with
  | V.Float f -> check (Alcotest.float 1e-9) "avg" 11.0 f
  | v -> Alcotest.failf "expected float, got %s" (V.to_display v)

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

let test_inner_join () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT t.sym, t.price, q.bid FROM trades t INNER JOIN quotes q ON \
       t.sym = q.sym AND q.t <= t.t"
  in
  (* every trade matches all earlier quotes of its symbol *)
  check tint "8 pairs" 8 res.Pgdb.Exec.res_nrows

let test_left_join_null_padding () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT t.sym, q.bid FROM trades t LEFT OUTER JOIN quotes q ON t.sym = \
       q.sym AND q.t > 10000"
  in
  check tint "all trades kept" 5 res.Pgdb.Exec.res_nrows;
  check tbool "bid is null" true (V.is_null (cell res 0 1))

let test_asof_join_pattern () =
  (* the SQL shape Hyper-Q serializes for aj: window + rn = 1 filter *)
  let sess = fixture () in
  let res =
    q sess
      "SELECT sym, t, price, bid FROM (SELECT t.sym AS sym, t.t AS t, \
       t.price AS price, q.bid AS bid, ROW_NUMBER() OVER (PARTITION BY \
       t.sym, t.t ORDER BY q.t DESC) AS rn FROM trades t LEFT OUTER JOIN \
       quotes q ON t.sym = q.sym AND q.t <= t.t) x WHERE rn = 1 ORDER BY t \
       ASC"
  in
  check tint "one row per trade" 5 res.Pgdb.Exec.res_nrows;
  (* trade A@1000 gets quote A@500 *)
  check tbool "prevailing bid" true (cell res 0 3 = V.Float 9.9);
  (* trade A@5000 gets quote A@2500 *)
  check tbool "latest bid" true (cell res 4 3 = V.Float 10.9)

let test_hash_join_null_keys () =
  (* plain = never matches NULL keys; IS NOT DISTINCT FROM does *)
  let db = Db.create () in
  Db.load_table db
    (S.table "l" [ S.column "k" Ty.TVarchar; S.column "v" Ty.TBigint ])
    [ [| V.Str "a"; V.Int 1L |]; [| V.Null; V.Int 2L |] ];
  Db.load_table db
    (S.table "r" [ S.column "k" Ty.TVarchar; S.column "w" Ty.TBigint ])
    [ [| V.Str "a"; V.Int 10L |]; [| V.Null; V.Int 20L |] ];
  let sess = Db.open_session db in
  let eq = q sess "SELECT l.v, r.w FROM l INNER JOIN r ON l.k = r.k" in
  check tint "= skips nulls" 1 eq.Pgdb.Exec.res_nrows;
  let nsafe =
    q sess "SELECT l.v, r.w FROM l INNER JOIN r ON l.k IS NOT DISTINCT FROM r.k"
  in
  check tint "null-safe matches nulls" 2 nsafe.Pgdb.Exec.res_nrows

let test_union_all () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT s FROM (SELECT sym AS s FROM trades UNION ALL SELECT sym AS s \
       FROM quotes) u"
  in
  check tint "concatenated" 9 res.Pgdb.Exec.res_nrows;
  (* arity mismatch is an error *)
  match
    Db.exec sess
      "SELECT * FROM (SELECT sym FROM trades UNION ALL SELECT sym, t FROM \
       quotes) u"
  with
  | exception Pgdb.Errors.Sql_error _ -> ()
  | _ -> Alcotest.fail "arity mismatch must fail"

(* ------------------------------------------------------------------ *)
(* Window functions                                                    *)
(* ------------------------------------------------------------------ *)

let test_row_number () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT sym, ROW_NUMBER() OVER (PARTITION BY sym ORDER BY t ASC) AS rn \
       FROM trades ORDER BY t ASC"
  in
  check tbool "first A is 1" true (cell res 0 1 = V.Int 1L);
  check tbool "second A is 2" true (cell res 2 1 = V.Int 2L);
  check tbool "first B is 1" true (cell res 1 1 = V.Int 1L)

let test_window_running_sum () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT SUM(size) OVER (PARTITION BY sym ORDER BY t ASC) AS rs FROM \
       trades ORDER BY t ASC"
  in
  (* A: 100, 250, 550 ; B: 200, 450 *)
  check tbool "running 1" true (cell res 0 0 = V.Int 100L);
  check tbool "running 2" true (cell res 2 0 = V.Int 250L);
  check tbool "running 3" true (cell res 4 0 = V.Int 550L)

let test_lag () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT price - LAG(price) OVER (PARTITION BY sym ORDER BY t ASC) AS d \
       FROM trades ORDER BY t ASC"
  in
  check tbool "first delta null" true (V.is_null (cell res 0 0));
  check tbool "second A delta 1.0" true (cell res 2 0 = V.Float 1.0)

let test_moving_window_frame () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT AVG(price) OVER (PARTITION BY sym ORDER BY t ASC ROWS BETWEEN \
       1 PRECEDING AND CURRENT ROW) AS m FROM trades WHERE sym = 'A' ORDER \
       BY t ASC"
  in
  check tbool "m0 = 10" true (cell res 0 0 = V.Float 10.0);
  check tbool "m1 = 10.5" true (cell res 1 0 = V.Float 10.5);
  check tbool "m2 = 11.5" true (cell res 2 0 = V.Float 11.5)

(* ------------------------------------------------------------------ *)
(* Subqueries, temp tables, the catalog                                *)
(* ------------------------------------------------------------------ *)

let test_subquery () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT mx FROM (SELECT sym, MAX(price) AS mx FROM trades GROUP BY \
       sym) sub ORDER BY mx DESC"
  in
  check tbool "21 first" true (cell res 0 0 = V.Float 21.0)

let sqlstate sess sql =
  match Db.exec sess sql with
  | exception Pgdb.Errors.Sql_error { code; _ } -> code
  | _ -> "ok"

let test_temp_table_lifecycle () =
  let sess = fixture () in
  (match Db.exec sess "CREATE TEMPORARY TABLE tt AS SELECT * FROM trades WHERE sym = 'A'" with
  | Db.Complete tag -> check tstr "tag" "SELECT 3" tag
  | Db.Rows _ -> Alcotest.fail "expected Complete");
  let res = q sess "SELECT COUNT(*) FROM tt" in
  check tbool "3 rows" true (cell res 0 0 = V.Int 3L);
  (* temp and base tables share one namespace, and a refused CTAS runs
     nothing: the table it named stands *)
  check tstr "onto a temp table" "42P07"
    (sqlstate sess "CREATE TEMPORARY TABLE tt AS SELECT 1 / 0 AS x");
  check tstr "onto a base table" "42P07"
    (sqlstate sess "CREATE TEMPORARY TABLE TRADES AS SELECT 1 AS x");
  check tbool "tt stands" true
    (cell (q sess "SELECT COUNT(*) FROM tt") 0 0 = V.Int 3L);
  (* temp table is session-scoped *)
  let sess2 = Db.open_session (let s = sess in s.Db.db) in
  match Db.exec sess2 "SELECT * FROM tt" with
  | exception Pgdb.Errors.Sql_error { code = "42P01"; _ } -> ()
  | _ -> Alcotest.fail "temp table must not leak across sessions"

(* rows come in by Db.load_table and CREATE TEMPORARY TABLE ... AS: a
   CREATE TABLE with a column list and an INSERT are refused before they
   run, and create or add nothing *)
let test_create_insert () =
  let db = Db.create () in
  let sess = Db.open_session db in
  check tstr "CREATE TABLE refused" "42601"
    (sqlstate sess "CREATE TABLE kv (k varchar, v bigint)");
  check tstr "it created nothing" "42P01" (sqlstate sess "SELECT * FROM kv");
  Db.load_table db
    (S.table "kv" [ S.column "k" Ty.TVarchar; S.column "v" Ty.TBigint ])
    [ [| V.Str "a"; V.Int 1L |]; [| V.Str "b"; V.Int 2L |] ];
  check tstr "INSERT refused" "42601"
    (sqlstate sess "INSERT INTO kv VALUES ('c', 3)");
  check tint "it added nothing" 2 (q sess "SELECT k FROM kv").Pgdb.Exec.res_nrows;
  let res = q sess "SELECT v FROM kv WHERE k = 'b'" in
  check tbool "lookup" true (cell res 0 0 = V.Int 2L)

(* IF NOT EXISTS is refused from the parser in every CREATE: a missing
   table is not created and an existing relation of that name stands *)
let test_create_if_not_exists () =
  let sess = fixture () in
  List.iter
    (fun sql -> check tstr sql "42601" (sqlstate sess sql))
    [
      "CREATE TABLE IF NOT EXISTS t (a bigint)";
      "CREATE TEMPORARY TABLE IF NOT EXISTS t AS SELECT 1 AS a";
      "CREATE TABLE IF NOT EXISTS TRADES (a bigint)";
      "CREATE TEMPORARY TABLE IF NOT EXISTS trades AS SELECT 1 AS a";
    ];
  check tstr "no table t" "42P01" (sqlstate sess "SELECT * FROM t");
  check tint "trades stands" 5
    (q sess "SELECT sym, price FROM trades").Pgdb.Exec.res_nrows

(* CREATE TEMPORARY TABLE ... AS without IF NOT EXISTS: a missing table
   is created from the query; onto an existing one it raises 42P07
   before the query runs, and the table keeps its rows and columns *)
let test_create_as_if_not_exists () =
  let sess = fixture () in
  (match Db.exec sess "CREATE TEMPORARY TABLE t AS SELECT price FROM trades LIMIT 2" with
  | Db.Complete tag -> check tstr "missing table created" "SELECT 2" tag
  | Db.Rows _ -> Alcotest.fail "expected Complete");
  check tstr "existing table: 42P07" "42P07"
    (sqlstate sess "CREATE TEMPORARY TABLE t AS SELECT size, price FROM trades");
  check tstr "the query is not run" "42P07"
    (sqlstate sess "CREATE TEMPORARY TABLE t AS SELECT nope FROM missing");
  check tint "its rows and columns stand" 2
    (q sess "SELECT price + 1 FROM t").Pgdb.Exec.res_nrows;
  check tstr "printed back" "CREATE TEMPORARY TABLE t AS SELECT 1 AS a"
    (Sqlast.Ast.stmt_str
       (Pgdb.Sql_parser.parse "create temporary table t as select 1 as a"))

(* nothing drops a table but the end of its session: closing a session
   drops its temp tables and leaves the base tables *)
let test_drop () =
  let sess = fixture () in
  ignore (Db.exec sess "CREATE TEMPORARY TABLE tt AS SELECT * FROM trades");
  Db.close_session sess;
  check tstr "the temp table is gone" "42P01" (sqlstate sess "SELECT * FROM tt");
  check tint "the base table stands" 5
    (q sess "SELECT sym FROM trades").Pgdb.Exec.res_nrows

let test_catalog_queryable () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT column_name, type_name FROM pg_catalog_columns WHERE \
       table_name = 'trades' ORDER BY ordinal ASC"
  in
  check tint "4 columns" 4 res.Pgdb.Exec.res_nrows;
  check tbool "first is sym" true (cell res 0 0 = V.Str "sym")

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

let test_errors () =
  let sess = fixture () in
  (match Db.exec sess "SELECT * FROM missing" with
  | exception Pgdb.Errors.Sql_error { code = "42P01"; _ } -> ()
  | _ -> Alcotest.fail "undefined table should raise");
  (match Db.exec sess "SELECT nocol FROM trades" with
  | exception Pgdb.Errors.Sql_error { code = "42703"; _ } -> ()
  | _ -> Alcotest.fail "undefined column should raise");
  (match Db.exec sess "SELECT 1 +" with
  | exception Pgdb.Errors.Sql_error { code = "42601"; _ } -> ()
  | _ -> Alcotest.fail "syntax error should raise");
  (match Db.exec sess "SELECT 1/0" with
  | exception Pgdb.Errors.Sql_error { code = "22012"; _ } -> ()
  | _ -> Alcotest.fail "division by zero should raise");
  List.iter
    (fun (sql, message) ->
      match Db.exec sess sql with
      | exception Pgdb.Errors.Sql_error { code = "22P02"; message = m } ->
          check tstr sql message m
      | _ -> Alcotest.failf "%s should raise 22P02" sql)
    [
      ( "SELECT CAST('x' AS bigint)",
        "invalid input syntax for type bigint: \"x\"" );
      ( "SELECT CAST('1.5x' AS double precision)",
        "invalid input syntax for type double precision: \"1.5x\"" );
    ]

let test_case_and_cast () =
  let sess = fixture () in
  let res =
    q sess
      "SELECT CASE WHEN price > 15.0 THEN 'high' ELSE 'low' END AS lvl FROM \
       trades ORDER BY t ASC"
  in
  check tbool "low" true (cell res 0 0 = V.Str "low");
  check tbool "high" true (cell res 1 0 = V.Str "high");
  let res = q sess "SELECT CAST('42' AS bigint)" in
  check tbool "cast" true (cell res 0 0 = V.Int 42L);
  let res = q sess "SELECT '42'::bigint" in
  check tbool "pg cast" true (cell res 0 0 = V.Int 42L)

let test_date_values () =
  let db = Db.create () in
  let sess = Db.open_session db in
  let date sql =
    match cell (q sess sql) 0 0 with
    | V.Date days -> V.to_display (V.Date days)
    | v -> Alcotest.failf "expected date, got %s" (V.to_display v)
  in
  check tstr "render" "2016-06-26" (date "SELECT CAST('2016-06-26' AS date) AS d");
  (* a date and a bigint combine by the operator on the day count *)
  check tstr "d - 1" "2016-06-25"
    (date "SELECT CAST('2016-06-26' AS date) - 1 AS d");
  check tstr "d + 1" "2016-06-27"
    (date "SELECT CAST('2016-06-26' AS date) + 1 AS d")

(* ------------------------------------------------------------------ *)
(* The SQL surface                                                     *)
(* ------------------------------------------------------------------ *)

(* pgdb accepts the SQL Hyper-Q emits and refuses the rest: a syntax
   the translator never writes is 42601 from the parser, a function
   outside the closed set 42883 and a join without an equality between
   its sides 0A000 when the statement is planned. The statements are
   SELECT and the paper's CREATE TEMPORARY TABLE ... AS. Every refused
   SELECT reads [z], a derived table whose one row divides by zero, so a
   refusal that came after a source ran would read 22012. *)
let z = "(SELECT 1 / 0 AS x) AS z"

let test_surface_refused () =
  let sess = fixture () in
  List.iter
    (fun (sql, code, message) ->
      match Db.exec sess sql with
      | exception Pgdb.Errors.Sql_error e ->
          check tstr (sql ^ ": SQLSTATE") code e.code;
          check tstr (sql ^ ": message") message e.message
      | _ -> Alcotest.failf "%s: accepted" sql)
    [
      ( "SELECT DISTINCT x FROM " ^ z, "42601",
        "SELECT DISTINCT is not supported" );
      ( "SELECT x FROM " ^ z ^ " GROUP BY x HAVING count(*) > 1", "42601",
        "trailing input: having" );
      ("SELECT x FROM " ^ z ^ " OFFSET 1", "42601", "trailing input: offset");
      ( "SELECT x FROM " ^ z ^ " LIMIT 1 OFFSET 1", "42601",
        "trailing input: offset" );
      ( "CREATE VIEW v AS SELECT x FROM " ^ z, "42601",
        "expected temporary, found view" );
      ("DROP VIEW v", "42601", "unsupported statement starting with drop");
      (* statements besides SELECT and the temp CREATE TABLE AS *)
      ("CREATE TABLE v (a bigint)", "42601", "expected temporary, found table");
      ( "CREATE TEMPORARY TABLE v (a bigint)", "42601",
        "expected as, found (" );
      ( "CREATE TABLE v AS SELECT x FROM " ^ z, "42601",
        "expected temporary, found table" );
      ( "CREATE TEMP TABLE v AS SELECT x FROM " ^ z, "42601",
        "expected temporary, found temp" );
      ( "CREATE TEMPORARY TABLE IF NOT EXISTS v AS SELECT x FROM " ^ z,
        "42601", "expected as, found not" );
      ( "INSERT INTO trades VALUES ('C', 6000, 13.0, 10)", "42601",
        "unsupported statement starting with insert" );
      ("DROP TABLE trades", "42601", "unsupported statement starting with drop");
      ( "DROP TABLE IF EXISTS v", "42601",
        "unsupported statement starting with drop" );
      (* joins: one, with an equality between its sides *)
      ( "SELECT z.x FROM " ^ z ^ " CROSS JOIN trades", "42601",
        "trailing input: cross" );
      ("SELECT z.x FROM " ^ z ^ ", trades", "42601", "trailing input: ,");
      ( "SELECT z.x FROM " ^ z ^ " JOIN trades a ON z.x = a.size JOIN \
         trades b ON a.sym = b.sym",
        "42601", "trailing input: join" );
      ( "SELECT z.x FROM " ^ z ^ " JOIN trades a ON z.x < a.size", "0A000",
        "JOIN is only supported with an equality between the two sides' \
         columns" );
      ( "SELECT z.x FROM " ^ z ^ " LEFT JOIN trades a ON a.size = a.t",
        "0A000",
        "JOIN is only supported with an equality between the two sides' \
         columns" );
      (* <> and != (Q's <> lowers to IS DISTINCT FROM), and a NULL in an
         IN list (a null member lowers to OR ... IS NULL) *)
      ( "SELECT x FROM " ^ z ^ " WHERE x <> 1", "42601",
        "unexpected token > in expression" );
      ( "SELECT x FROM " ^ z ^ " WHERE x != 1", "42601",
        "unexpected character '!'" );
      ( "SELECT x FROM " ^ z ^ " WHERE x IN (1, NULL)", "42601",
        "NULL in an IN list" );
      ( "SELECT x FROM " ^ z ^ " WHERE NOT (x IN (NULL))", "42601",
        "NULL in an IN list" );
      ("SELECT 'a' || x FROM " ^ z, "42601", "unexpected character '|'");
      ( "SELECT sum(x) OVER (ORDER BY x RANGE BETWEEN UNBOUNDED PRECEDING AND \
         CURRENT ROW) AS s FROM " ^ z,
        "42601", "expected ), found range" );
      ( "SELECT sum(x) OVER (ORDER BY x ROWS BETWEEN 1 PRECEDING AND 1 \
         FOLLOWING) AS s FROM " ^ z,
        "42601", "expected current, found 1" );
      ( "SELECT sum(x) OVER (ORDER BY x ROWS BETWEEN UNBOUNDED PRECEDING AND \
         UNBOUNDED FOLLOWING) AS s FROM " ^ z,
        "42601", "expected current, found unbounded" );
      ( "SELECT sum(x) OVER (ORDER BY x ROWS BETWEEN CURRENT ROW AND CURRENT \
         ROW) AS s FROM " ^ z,
        "42601", "bad frame start current" );
      ( "SELECT sum(x) OVER (ORDER BY x ROWS 2 PRECEDING) AS s FROM " ^ z,
        "42601", "expected between, found 2" );
      ( "SELECT count(DISTINCT x) OVER () AS n FROM " ^ z, "42601",
        "DISTINCT is not implemented for window functions" );
      ( "SELECT abs(DISTINCT x) AS a FROM " ^ z, "42601",
        "DISTINCT specified, but abs is not an aggregate function" );
      (* scalar functions *)
      ( "SELECT ceiling(x) AS c FROM " ^ z, "42883",
        "function ceiling with 1 argument does not exist" );
      ( "SELECT concat(x, x) AS c FROM " ^ z, "42883",
        "function concat with 2 arguments does not exist" );
      ( "SELECT length(x) AS c FROM " ^ z, "42883",
        "function length with 1 argument does not exist" );
      ( "SELECT log(x) AS c FROM " ^ z, "42883",
        "function log with 1 argument does not exist" );
      ( "SELECT mod(x, 2) AS c FROM " ^ z, "42883",
        "function mod with 2 arguments does not exist" );
      ( "SELECT nullif(x, 1) AS c FROM " ^ z, "42883",
        "function nullif with 2 arguments does not exist" );
      ( "SELECT power(x, 2) AS c FROM " ^ z, "42883",
        "function power with 2 arguments does not exist" );
      ( "SELECT round(x) AS c FROM " ^ z, "42883",
        "function round with 1 argument does not exist" );
      ( "SELECT abs(x, x) AS c FROM " ^ z, "42883",
        "function abs with 2 arguments does not exist" );
      (* aggregates, in a grouped select and alone *)
      ( "SELECT stddev(x) AS s FROM " ^ z, "42883",
        "function stddev with 1 argument does not exist" );
      ( "SELECT x, variance(x) AS s FROM " ^ z ^ " GROUP BY x", "42883",
        "function variance with 1 argument does not exist" );
      ( "SELECT string_agg(x, ',') AS s FROM " ^ z, "42883",
        "function string_agg with 2 arguments does not exist" );
      (* window functions, and lag/lead's offset and default *)
      ( "SELECT rank() OVER (ORDER BY x) AS r FROM " ^ z, "42883",
        "function rank with 0 arguments does not exist" );
      ( "SELECT dense_rank() OVER (ORDER BY x) AS r FROM " ^ z, "42883",
        "function dense_rank with 0 arguments does not exist" );
      ( "SELECT ntile(2) OVER (ORDER BY x) AS r FROM " ^ z, "42883",
        "function ntile with 1 argument does not exist" );
      ( "SELECT first_value(x) OVER (ORDER BY x) AS r FROM " ^ z, "42883",
        "function first_value with 1 argument does not exist" );
      ( "SELECT last_value(x) OVER (ORDER BY x) AS r FROM " ^ z, "42883",
        "function last_value with 1 argument does not exist" );
      ( "SELECT lag(x, 2) OVER (ORDER BY x) AS r FROM " ^ z, "42883",
        "function lag with 2 arguments does not exist" );
      ( "SELECT lead(x, 1, 0) OVER (ORDER BY x) AS r FROM " ^ z, "42883",
        "function lead with 3 arguments does not exist" );
      ( "SELECT row_number(x) OVER (ORDER BY x) AS r FROM " ^ z, "42883",
        "function row_number with 1 argument does not exist" );
    ];
  check tstr "a refused CREATE creates nothing" "42P01"
    (sqlstate sess "SELECT * FROM v");
  check tint "a refused INSERT or DROP leaves trades as it was" 5
    (q sess "SELECT sym FROM trades").Pgdb.Exec.res_nrows;
  (* the source does run when nothing is refused *)
  check tstr "the divisor raises when read" "22012"
    (sqlstate sess ("SELECT abs(x) AS a FROM " ^ z))

(* what stays: each construct the translator emits parses and prints
   back as the serializer writes it, [x IS NOT NULL] as [NOT (x IS
   NULL)], and the translator's aggregates run over a window frame as
   in GROUP BY *)
let test_surface_kept () =
  List.iter
    (fun (sql, printed) ->
      check tstr sql printed (Sqlast.Ast.stmt_str (Pgdb.Sql_parser.parse sql)))
    [
      ( "SELECT a FROM t WHERE a IS NOT NULL",
        "SELECT a FROM t WHERE (NOT (a IS NULL))" );
      ( "SELECT sum(a) OVER (ORDER BY t ROWS BETWEEN UNBOUNDED PRECEDING AND \
         CURRENT ROW) AS s FROM t",
        "SELECT sum(a) OVER (ORDER BY t ASC ROWS BETWEEN UNBOUNDED PRECEDING \
         AND CURRENT ROW) AS s FROM t" );
      ( "SELECT avg(a) OVER (PARTITION BY g ORDER BY t ROWS BETWEEN 4 \
         PRECEDING AND CURRENT ROW) AS s FROM t",
        "SELECT avg(a) OVER (PARTITION BY g ORDER BY t ASC ROWS BETWEEN 4 \
         PRECEDING AND CURRENT ROW) AS s FROM t" );
      ( "SELECT count(DISTINCT a) AS n FROM t GROUP BY g ORDER BY g LIMIT 3",
        "SELECT count(DISTINCT a) AS n FROM t GROUP BY g ORDER BY g ASC LIMIT 3"
      );
    ];
  let sess = fixture () in
  let aggs =
    [ ("median(price)", "med"); ("stddev_pop(price)", "std");
      ("var_pop(price)", "var"); ("first(price)", "fir"); ("last(price)", "las");
      ("bool_and(price > 10.5)", "boo"); ("bool_or(price > 11.5)", "bo2") ]
  in
  let projs over =
    String.concat ", "
      (List.map (fun (a, n) -> Printf.sprintf "%s%s AS %s" a over n) aggs)
  in
  let res =
    q sess
      (Printf.sprintf "SELECT sym, %s FROM trades ORDER BY t"
         (projs " OVER (PARTITION BY sym)"))
  in
  let grouped =
    q sess (Printf.sprintf "SELECT sym, %s FROM trades GROUP BY sym" (projs ""))
  in
  (* rows 0 and 1 of the trades are the first of A and of B *)
  for j = 1 to 7 do
    check tbool (Printf.sprintf "A's aggregate %d" j) true
      (cell res 0 j = cell grouped 0 j);
    check tbool (Printf.sprintf "B's aggregate %d" j) true
      (cell res 1 j = cell grouped 1 j)
  done

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_order_by_sorts =
  QCheck.Test.make ~count:50 ~name:"ORDER BY produces sorted output"
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range (-1000) 1000))
    (fun xs ->
      let db = Db.create () in
      Db.load_table db
        (S.table "nums" [ S.column "n" Ty.TBigint ])
        (List.map (fun x -> [| V.Int (Int64.of_int x) |]) xs);
      let sess = Db.open_session db in
      let res = q sess "SELECT n FROM nums ORDER BY n ASC" in
      let prev = ref Int64.min_int in
      Array.for_all
        (fun row ->
          match row.(0) with
          | V.Int i ->
              let ok = Int64.compare !prev i <= 0 in
              prev := i;
              ok
          | _ -> false)
        (Stored.result_rows res))

(* Q's distinct, as the translator lowers it: GROUP BY every column *)
let prop_distinct_unique =
  QCheck.Test.make ~count:50 ~name:"DISTINCT removes duplicates"
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 5))
    (fun xs ->
      let db = Db.create () in
      Db.load_table db
        (S.table "nums" [ S.column "n" Ty.TBigint ])
        (List.map (fun x -> [| V.Int (Int64.of_int x) |]) xs);
      let sess = Db.open_session db in
      let res = q sess "SELECT n FROM nums GROUP BY n" in
      let seen = Hashtbl.create 8 in
      Array.for_all
        (fun row ->
          match row.(0) with
          | V.Int i ->
              if Hashtbl.mem seen i then false
              else begin
                Hashtbl.add seen i ();
                true
              end
          | _ -> false)
        (Stored.result_rows res))

let prop_sum_group_total =
  QCheck.Test.make ~count:50
    ~name:"sum of group sums equals global sum"
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_range 0 3) (int_range 0 100)))
    (fun pairs ->
      let db = Db.create () in
      Db.load_table db
        (S.table "g" [ S.column "k" Ty.TBigint; S.column "v" Ty.TBigint ])
        (List.map
           (fun (k, v) -> [| V.Int (Int64.of_int k); V.Int (Int64.of_int v) |])
           pairs);
      let sess = Db.open_session db in
      let grouped = q sess "SELECT k, SUM(v) AS s FROM g GROUP BY k" in
      let total = q sess "SELECT SUM(v) FROM g" in
      let group_total =
        Array.fold_left
          (fun acc row ->
            match row.(1) with V.Int i -> Int64.add acc i | _ -> acc)
          0L (Stored.result_rows grouped)
      in
      match (cell total 0 0, group_total) with
      | V.Int t, g -> Int64.equal t g
      | _ -> false)

let prop_sql_parser_never_crashes =
  QCheck.Test.make ~count:500 ~name:"SQL parser fails cleanly on garbage"
    QCheck.(string_gen_of_size (Gen.int_range 0 80) Gen.printable)
    (fun src ->
      match Pgdb.Sql_parser.parse src with
      | _ -> true
      | exception Pgdb.Errors.Sql_error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "unexpected exception %s on %S"
            (Printexc.to_string e) src)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_order_by_sorts; prop_distinct_unique; prop_sum_group_total;
      prop_sql_parser_never_crashes;
    ]

(* A column's type is fixed when its statement is planned, so the
   RowDescription sent before any DataRow holds it whatever the rows: an
   empty result's computed column, an all-NULL plain column, and first
   and max over varchar *)
let test_row_description () =
  let db = Db.create () in
  Db.load_table db
    (S.table "rd" [ S.column "s" Ty.TVarchar; S.column "d" Ty.TDate; S.column "n" Ty.TBigint ])
    [ [| V.Str "A"; V.Null; V.Int 1L |]; [| V.Str "B"; V.Null; V.Int 2L |] ];
  let sess = Db.open_session db in
  let described sql =
    let res = rows_of (Db.exec sess sql) in
    match
      Pgwire.Server.row_description res
        (Array.make (List.length res.Pgdb.Exec.res_cols) Pgwire.Codec.Binary)
    with
    | Pgwire.Codec.RowDescription fields ->
        List.map
          (fun f ->
            Ty.name (Option.get (Pgwire.Codec.type_of_oid f.Pgwire.Codec.fd_type_oid)))
          fields
    | _ -> Alcotest.fail "not a RowDescription"
  in
  let types = Alcotest.(list string) in
  check types "empty computed column" [ "bigint" ]
    (described "SELECT n + 1 AS c FROM rd WHERE n < 0");
  check types "all-NULL plain column" [ "date" ] (described "SELECT d FROM rd");
  check types "first and max over varchar" [ "varchar"; "varchar" ]
    (described "SELECT first(s) AS f, max(s) AS m FROM rd")

let () =
  Alcotest.run "pgdb"
    [
      ( "basic",
        [
          Alcotest.test_case "row description before any row" `Quick
            test_row_description;
          Alcotest.test_case "select all" `Quick test_select_all;
          Alcotest.test_case "where + projection" `Quick
            test_where_and_projection;
          Alcotest.test_case "expressions" `Quick test_expressions;
          Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "case and cast" `Quick test_case_and_cast;
          Alcotest.test_case "date values" `Quick test_date_values;
        ] );
      ( "nulls",
        [
          Alcotest.test_case "3VL equality" `Quick test_null_equality_3vl;
          Alcotest.test_case "null arithmetic" `Quick
            test_null_arith_propagates;
          Alcotest.test_case "coalesce" `Quick test_coalesce;
          Alcotest.test_case "count ignores null" `Quick
            test_count_ignores_null;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "having" `Quick test_having;
          Alcotest.test_case "global aggregate" `Quick test_global_aggregate;
          Alcotest.test_case "avg" `Quick test_avg_stddev;
        ] );
      ( "joins",
        [
          Alcotest.test_case "inner join" `Quick test_inner_join;
          Alcotest.test_case "left join null padding" `Quick
            test_left_join_null_padding;
          Alcotest.test_case "as-of join pattern" `Quick
            test_asof_join_pattern;
          Alcotest.test_case "hash join null keys" `Quick
            test_hash_join_null_keys;
          Alcotest.test_case "union all" `Quick test_union_all;
        ] );
      ( "windows",
        [
          Alcotest.test_case "row_number" `Quick test_row_number;
          Alcotest.test_case "running sum" `Quick test_window_running_sum;
          Alcotest.test_case "lag" `Quick test_lag;
          Alcotest.test_case "moving frame" `Quick test_moving_window_frame;
        ] );
      ( "ddl",
        [
          Alcotest.test_case "subquery" `Quick test_subquery;
          Alcotest.test_case "temp table lifecycle" `Quick
            test_temp_table_lifecycle;
          Alcotest.test_case "create + insert" `Quick test_create_insert;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "create table as if not exists" `Quick
            test_create_as_if_not_exists;
          Alcotest.test_case "create table if not exists" `Quick
            test_create_if_not_exists;
          Alcotest.test_case "catalog queryable" `Quick test_catalog_queryable;
        ] );
      ( "surface",
        [
          Alcotest.test_case "refused constructs, before any source runs"
            `Quick test_surface_refused;
          Alcotest.test_case "kept constructs" `Quick test_surface_kept;
        ] );
      ( "errors",
        [
          Alcotest.test_case "error codes" `Quick test_errors;
          Alcotest.test_case "find_binding rules" `Quick test_find_binding;
        ] );
      ("properties", props);
    ]
