(* End-to-end tests for the Hyper-Q translation pipeline (lib/hyperq):
   Q text in, SQL against pgdb, Q values out. *)

module V = Pgdb.Value
module Db = Pgdb.Db
module S = Catalog.Schema
module Ty = Catalog.Sqltype
module QV = Qvalue.Value
module QA = Qvalue.Atom

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

(* backend fixture: trades/quotes with implicit order columns, plus a keyed
   reference table *)
let make_db () =
  let db = Db.create () in
  Db.load_table db
    (S.table ~order_col:"hq_ord" "trades"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "Symbol" Ty.TVarchar;
         S.column "Date" Ty.TDate;
         S.column "Time" Ty.TTime;
         S.column "Price" Ty.TDouble;
         S.column "Size" Ty.TBigint;
       ])
    (List.mapi
       (fun i (sym, time, px, sz) ->
         [|
           V.Int (Int64.of_int i);
           V.Str sym;
           V.Date 6021 (* 2016.06.26 *);
           V.Time time;
           V.Float px;
           V.Int (Int64.of_int sz);
         |])
       [
         ("A", 1000, 10.0, 100);
         ("B", 2000, 20.0, 200);
         ("A", 3000, 11.0, 150);
         ("B", 4000, 21.0, 250);
         ("A", 5000, 12.0, 300);
       ]);
  Db.load_table db
    (S.table ~order_col:"hq_ord" "quotes"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "Symbol" Ty.TVarchar;
         S.column "Date" Ty.TDate;
         S.column "Time" Ty.TTime;
         S.column "Bid" Ty.TDouble;
         S.column "Ask" Ty.TDouble;
       ])
    (List.mapi
       (fun i (sym, time, bid, ask) ->
         [|
           V.Int (Int64.of_int i);
           V.Str sym;
           V.Date 6021;
           V.Time time;
           V.Float bid;
           V.Float ask;
         |])
       [
         ("A", 500, 9.9, 10.1);
         ("B", 1500, 19.9, 20.1);
         ("A", 2500, 10.9, 11.1);
         ("B", 3500, 20.9, 21.1);
       ]);
  Db.load_table db
    (S.table ~keys:[ "Symbol" ] "secmaster"
       [ S.column "Symbol" Ty.TVarchar; S.column "Sector" Ty.TVarchar ])
    [
      [| V.Str "A"; V.Str "tech" |];
      [| V.Str "B"; V.Str "energy" |];
    ];
  db

let make_engine ?materialization () =
  let db = make_db () in
  let sess = Db.open_session db in
  Hyperq.Engine.create ?materialization (Hyperq.Backend.of_pgdb_session sess)

let run eng src =
  match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze src) with
  | Ok { value = Some v; _ } -> v
  | Ok { value = None; _ } -> Alcotest.failf "no value for %s" src
  | Error e -> Alcotest.failf "%s failed: %s" src e

let run_unit eng src =
  match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze src) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s failed: %s" src e

let as_table v =
  match v with
  | QV.Table t -> t
  | QV.KTable _ -> ( match QV.unkey v with QV.Table t -> t | _ -> assert false)
  | v -> Alcotest.failf "expected a table, got %s" (Qvalue.Qprint.to_string v)

let float_col t name =
  QV.elements (QV.column_exn t name)
  |> Array.map (function
       | QV.Atom (QA.Float f) -> f
       | QV.Atom a when QA.is_null a -> Float.nan
       | v -> Alcotest.failf "expected float, got %s" (Qvalue.Qprint.to_string v))

(* ------------------------------------------------------------------ *)
(* Basic selects                                                       *)
(* ------------------------------------------------------------------ *)

let test_select_where () =
  let eng = make_engine () in
  let t = as_table (run eng "select Price from trades where Symbol=`A") in
  check tint "3 rows" 3 (QV.table_length t);
  check (Alcotest.array (Alcotest.float 1e-9)) "prices preserve Q order"
    [| 10.0; 11.0; 12.0 |] (float_col t "Price")

let test_generated_sql_uses_2vl () =
  let eng = make_engine () in
  let sql = Hyperq.Engine.translate eng "select Price from trades where Symbol=`A" in
  check tbool "uses IS NOT DISTINCT FROM" true
    (let re = Str.regexp_string "IS NOT DISTINCT FROM" in
     try ignore (Str.search_forward re sql 0); true with Not_found -> false)

let test_order_preserved () =
  (* Q tables are ordered: the output must follow the implicit order column *)
  let eng = make_engine () in
  let sql = Hyperq.Engine.translate eng "select Price from trades" in
  check tbool "ORDER BY injected" true
    (let re = Str.regexp_string "ORDER BY" in
     try ignore (Str.search_forward re sql 0); true with Not_found -> false)

let test_scalar_aggregate_elides_order () =
  (* paper Section 3.3: a scalar aggregation over a nested query lets the
     Xformer remove the inner ordering requirement *)
  let eng = make_engine () in
  let sql = Hyperq.Engine.translate eng "select max Price from trades" in
  check tbool "no ORDER BY under scalar agg" false
    (let re = Str.regexp_string "ORDER BY" in
     try ignore (Str.search_forward re sql 0); true with Not_found -> false)

let test_computed_columns () =
  let eng = make_engine () in
  let t =
    as_table (run eng "select notional:Price*Size from trades where Symbol=`B")
  in
  check (Alcotest.array (Alcotest.float 1e-9)) "notional"
    [| 4000.0; 5250.0 |] (float_col t "notional")

let test_sequential_where () =
  let eng = make_engine () in
  let t =
    as_table (run eng "select Price from trades where Symbol=`A, Price>10.5")
  in
  check tint "2 rows" 2 (QV.table_length t)

let test_select_by () =
  let eng = make_engine () in
  match run eng "select mx:max Price, n:count Price by Symbol from trades" with
  | QV.KTable (k, v) ->
      check tbool "keys" true
        (QV.equal (QV.column_exn k "Symbol") (QV.syms [| "A"; "B" |]));
      check tbool "max" true
        (QV.equal (QV.column_exn v "mx") (QV.floats [| 12.0; 21.0 |]));
      check tbool "count" true
        (QV.equal (QV.column_exn v "n") (QV.longs [| 3; 2 |]))
  | v -> Alcotest.failf "expected keyed table, got %s" (Qvalue.Qprint.to_string v)

let test_exec_vector () =
  let eng = make_engine () in
  match run eng "exec Price from trades where Symbol=`A" with
  | QV.Vector (Qvalue.Qtype.Float, _) as v ->
      check tbool "vector" true (QV.equal v (QV.floats [| 10.0; 11.0; 12.0 |]))
  | v -> Alcotest.failf "expected vector, got %s" (Qvalue.Qprint.to_string v)

let test_scalar_result () =
  let eng = make_engine () in
  match run eng "select max Price from trades" with
  | QV.Table t ->
      check tint "1 row" 1 (QV.table_length t);
      check (Alcotest.array (Alcotest.float 1e-9)) "max" [| 21.0 |]
        (float_col t "Price")
  | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v)

let test_in_filter () =
  let eng = make_engine () in
  run_unit eng "syms:`A`B";
  let t = as_table (run eng "select Price from trades where Symbol in syms") in
  check tint "all rows" 5 (QV.table_length t)

let test_update () =
  let eng = make_engine () in
  let t = as_table (run eng "update Price:2*Price from trades where Symbol=`A") in
  check (Alcotest.array (Alcotest.float 1e-9)) "doubled A prices"
    [| 20.0; 20.0; 22.0; 21.0; 24.0 |]
    (float_col t "Price")

let test_update_by_window () =
  let eng = make_engine () in
  let t = as_table (run eng "update mx:max Price by Symbol from trades") in
  check (Alcotest.array (Alcotest.float 1e-9)) "group max spread"
    [| 12.0; 21.0; 12.0; 21.0; 12.0 |]
    (float_col t "mx")

let test_delete_rows () =
  let eng = make_engine () in
  let t = as_table (run eng "delete from trades where Symbol=`A") in
  check tint "2 rows left" 2 (QV.table_length t)

let test_delete_cols () =
  let eng = make_engine () in
  let t = as_table (run eng "delete Size from trades") in
  check tbool "Size gone" false (QV.has_column t "Size")

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

let test_asof_join_example1 () =
  (* the paper's Example 1 / Example 2 query *)
  let eng = make_engine () in
  let t = as_table (run eng "aj[`Symbol`Time; trades; quotes]") in
  check tint "one row per trade" 5 (QV.table_length t);
  check (Alcotest.array (Alcotest.float 1e-9)) "prevailing bids"
    [| 9.9; 19.9; 10.9; 20.9; 10.9 |]
    (float_col t "Bid")

let test_asof_join_with_subqueries () =
  (* Example 1 verbatim: aj over two inner selects *)
  let eng = make_engine () in
  run_unit eng "SOMEDATE:2016.06.26";
  run_unit eng "SYMLIST:`A`B";
  let q =
    "aj[`Symbol`Time; select Symbol, Time, Price from trades where \
     Date=SOMEDATE, Symbol in SYMLIST; select Symbol, Time, Bid, Ask from \
     quotes where Date=SOMEDATE]"
  in
  let t = as_table (run eng q) in
  check tint "5 rows" 5 (QV.table_length t);
  check (Alcotest.array (Alcotest.float 1e-9)) "bids"
    [| 9.9; 19.9; 10.9; 20.9; 10.9 |]
    (float_col t "Bid")

let test_lj () =
  let eng = make_engine () in
  let t = as_table (run eng "trades lj secmaster") in
  check tint "5 rows" 5 (QV.table_length t);
  check tbool "sector joined" true
    (QV.equal
       (QV.column_exn t "Sector")
       (QV.syms [| "tech"; "energy"; "tech"; "energy"; "tech" |]))

let test_uj () =
  (* union join: concatenation with column-set union and null padding *)
  let eng = make_engine () in
  let t = as_table (run eng "trades uj quotes") in
  check tint "rows concatenate" 9 (QV.table_length t);
  check tbool "has trade cols" true (QV.has_column t "Price");
  check tbool "has quote cols" true (QV.has_column t "Bid");
  (* trade rows are null-padded on quote columns *)
  (match QV.index (QV.column_exn t "Bid") 0 with
  | QV.Atom a -> check tbool "trade row Bid is null" true (QA.is_null a)
  | _ -> Alcotest.fail "expected atom");
  (* quote rows follow all trade rows (concatenation order) *)
  match QV.index (QV.column_exn t "Bid") 5 with
  | QV.Atom a -> check tbool "quote row has Bid" false (QA.is_null a)
  | _ -> Alcotest.fail "expected atom"

let test_uj_agrees_with_kdb () =
  let d = Workload.Marketdata.generate Workload.Marketdata.small_scale in
  let h = Sidebyside.Framework.create d in
  match
    Sidebyside.Framework.compare_query h
      "select Symbol, Price, Bid from trades uj quotes"
  with
  | Sidebyside.Framework.Match -> ()
  | v -> Alcotest.fail (Sidebyside.Framework.verdict_str v)

let test_fby () =
  let eng = make_engine () in
  let t =
    as_table (run eng "select from trades where Price=(max;Price) fby Symbol")
  in
  check tint "2 rows" 2 (QV.table_length t);
  check (Alcotest.array (Alcotest.float 1e-9)) "max prices"
    [| 21.0; 12.0 |] (float_col t "Price")

(* ------------------------------------------------------------------ *)
(* Variables, functions, materialization (paper Example 3)             *)
(* ------------------------------------------------------------------ *)

let paper_example3 =
  "f:{[Sym] dt: select Price from trades where Symbol=Sym; :select max \
   Price from dt}"

let creates_temp_table sql =
  String.length sql >= 22 && String.sub sql 0 22 = "CREATE TEMPORARY TABLE"

(* Ablation D's structural claim: logical materialization inlines the
   local into one statement. The first call also fetches the catalog
   entry of trades, so the second call is the one counted. *)
let test_function_unrolling_logical () =
  let eng = make_engine () in
  run_unit eng paper_example3;
  run_unit eng "f[`A]";
  match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze "f[`A]") with
  | Ok { value = Some v; sqls } ->
      let t = as_table v in
      check (Alcotest.array (Alcotest.float 1e-9)) "max A price" [| 12.0 |]
        (float_col t "Price");
      check tint "one SQL statement" 1 (List.length sqls);
      check tbool "no CREATE TEMPORARY TABLE" false
        (List.exists creates_temp_table sqls)
  | Ok _ -> Alcotest.fail "no value"
  | Error e -> Alcotest.fail e

let test_function_unrolling_physical () =
  (* physical materialization: the paper's exact CREATE TEMPORARY TABLE
     strategy (Section 4.3) *)
  let eng = make_engine ~materialization:`Physical () in
  run_unit eng paper_example3;
  match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze "f[`A]") with
  | Ok { value = Some v; sqls } ->
      let t = as_table v in
      check (Alcotest.array (Alcotest.float 1e-9)) "max A price" [| 12.0 |]
        (float_col t "Price");
      check tbool "emitted CREATE TEMPORARY TABLE" true
        (List.exists creates_temp_table sqls)
  | Ok _ -> Alcotest.fail "no value"
  | Error e -> Alcotest.fail e

let test_local_shadows_global () =
  let eng = make_engine () in
  run_unit eng "x:1.5";
  run_unit eng "g:{[x] x+1}";
  (match run eng "g[10]" with
  | QV.Atom (QA.Long 11L) -> ()
  | v -> Alcotest.failf "expected 11, got %s" (Qvalue.Qprint.to_string v));
  (* the global x is untouched by the call *)
  match run eng "x" with
  | QV.Atom (QA.Float f) -> check (Alcotest.float 1e-9) "x intact" 1.5 f
  | v -> Alcotest.failf "expected 1.5, got %s" (Qvalue.Qprint.to_string v)

let test_session_promotion () =
  (* session variables become server-visible after session destruction *)
  let db = make_db () in
  let server = Hyperq.Scopes.create_server_frame () in
  let eng1 =
    Hyperq.Engine.create ~server_scope:server
      (Hyperq.Backend.of_pgdb_session (Db.open_session db))
  in
  run_unit eng1 "shared:42";
  (* before destruction, a second session does not see it *)
  let eng2 =
    Hyperq.Engine.create ~server_scope:server
      (Hyperq.Backend.of_pgdb_session (Db.open_session db))
  in
  (match Hyperq.Engine.try_run eng2 (Qlang.Fingerprint.analyze "shared") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "session variable leaked before promotion");
  Hyperq.Engine.close_session eng1;
  match run eng2 "shared" with
  | QV.Atom (QA.Long 42L) -> ()
  | v -> Alcotest.failf "expected 42, got %s" (Qvalue.Qprint.to_string v)

let test_scalar_expression () =
  let eng = make_engine () in
  match run eng "1+2" with
  | QV.Atom (QA.Long 3L) -> ()
  | v -> Alcotest.failf "expected 3, got %s" (Qvalue.Qprint.to_string v)

let test_table_literal () =
  let eng = make_engine () in
  let t = as_table (run eng "select v from ([] s:`x`y; v:1 2) where s=`y") in
  check tint "1 row" 1 (QV.table_length t)

(* ------------------------------------------------------------------ *)
(* Error behaviour (paper Section 5: verbose error messages)           *)
(* ------------------------------------------------------------------ *)

let test_multiday_asof () =
  (* multi-day data: the partition-wise rewrite kdb+ users do by hand
     (paper Section 2.2) is unnecessary — the date joins as an equality
     column *)
  let db = Db.create () in
  Db.load_table db
    (S.table ~order_col:"hq_ord" "t1"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "s" Ty.TVarchar;
         S.column "d" Ty.TDate;
         S.column "tm" Ty.TTime;
         S.column "px" Ty.TDouble;
       ])
    [
      [| V.Int 0L; V.Str "A"; V.Date 100; V.Time 1000; V.Float 1.0 |];
      [| V.Int 1L; V.Str "A"; V.Date 101; V.Time 1000; V.Float 2.0 |];
    ];
  Db.load_table db
    (S.table ~order_col:"hq_ord" "t2"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "s" Ty.TVarchar;
         S.column "d" Ty.TDate;
         S.column "tm" Ty.TTime;
         S.column "bid" Ty.TDouble;
       ])
    [
      [| V.Int 0L; V.Str "A"; V.Date 100; V.Time 500; V.Float 0.9 |];
      [| V.Int 1L; V.Str "A"; V.Date 101; V.Time 500; V.Float 1.9 |];
    ];
  let eng =
    Hyperq.Engine.create (Hyperq.Backend.of_pgdb_session (Db.open_session db))
  in
  let t = as_table (run eng "aj[`s`d`tm; t1; t2]") in
  check (Alcotest.array (Alcotest.float 1e-9))
    "each day matches its own quote" [| 0.9; 1.9 |] (float_col t "bid")

(* kdb's aj takes the last quote at or before each trade in the quote
   table's order, so of two quotes at one time the later one. The
   translated SQL must agree with kdb, and give the same rows run as the
   fused as-of join and, with a WHERE in its inner SELECT, as the join
   and window it replaces. *)
let test_asof_ties_against_kdb () =
  let module MD = Workload.Marketdata in
  let d = MD.with_tied_quotes (MD.generate MD.small_scale) in
  let q =
    "aj[`Symbol`Time; select Symbol, Time, Price from trades; select \
     Symbol, Time, Bid from quotes]"
  in
  let h = Sidebyside.Framework.create d in
  List.iter
    (fun q ->
      match Sidebyside.Framework.compare_query h q with
      | Sidebyside.Framework.Match -> ()
      | v -> Alcotest.failf "%s: %s" q (Sidebyside.Framework.verdict_str v))
    [
      q;
      (* right sides without an order column: rows are numbered in their
         output order, here the grouping's, to break the ties *)
      "aj[`Symbol`Time; select Symbol, Time, Price from trades; select \
       Bid:last Bid by Symbol, Time from quotes]";
      "aj[`Symbol`Time; select Symbol, Time, Price from trades; select n:count \
       Ask by Symbol, Time, Bid from quotes]";
      (* and a left side without one *)
      "aj[`Symbol`Time; select Price:last Price by Symbol, Time from \
       trades; select Symbol, Time, Bid from quotes]";
    ];
  let db = Db.create () in
  MD.load_pg db d;
  let sess = Db.open_session db in
  let eng = Hyperq.Engine.create (Hyperq.Backend.of_pgdb_session sess) in
  let fused = Hyperq.Engine.translate eng q in
  let windowed =
    Str.replace_first (Str.regexp_string ") AS hq_aj")
      " WHERE (1 = 1)) AS hq_aj" fused
  in
  let run_sql sql =
    Db.set_analyze sess true;
    let rows =
      match Db.exec sess sql with
      | Db.Rows (res, _) -> (Stored.result_rows res)
      | _ -> Alcotest.failf "expected rows from %s" sql
    in
    let ops =
      match Db.last_plan sess with
      | Some root ->
          List.map (fun (_, n) -> n.Pgdb.Opstats.op) (Pgdb.Opstats.flatten root)
      | None -> Alcotest.failf "no plan for %s" sql
    in
    Db.set_analyze sess false;
    (rows, ops)
  in
  let frows, fops = run_sql fused and wrows, wops = run_sql windowed in
  check tbool "fused path" true (List.mem "vector_asof_join" fops);
  check tbool "window path" false (List.mem "vector_asof_join" wops);
  check tint "one row per trade" (Array.length d.MD.trades) (Array.length frows);
  check tbool "same rows on both paths" true (Stdlib.compare frows wrows = 0)

let test_error_log () =
  let eng = make_engine () in
  (match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze "select X from missing1") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error");
  (match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze "while[1b;x]") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error");
  let log = Hyperq.Engine.recent_errors eng in
  check tint "two entries" 2 (List.length log);
  (* newest first, with query text attached *)
  match log with
  | (q1, e1) :: (q2, _) :: _ ->
      check tbool "newest first" true (q1 = "while[1b;x]");
      check tbool "categorised" true (String.length e1 > 0 && e1.[0] = '[');
      check tbool "query kept" true (q2 = "select X from missing1")
  | _ -> Alcotest.fail "bad log shape"

let test_unsupported_is_clean () =
  let eng = make_engine () in
  (match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze "while[1b;x:1]") with
  | Error e ->
      check tbool "mentions unsupported" true
        (let re = Str.regexp_string "unsupported" in
         try ignore (Str.search_forward re e 0); true with Not_found -> false)
  | Ok _ -> Alcotest.fail "while should be unsupported");
  match
    Hyperq.Engine.try_run eng
      (Qlang.Fingerprint.analyze "select Price from nonexistent_table")
  with
  | Error e ->
      check tbool "names the missing table" true
        (let re = Str.regexp_string "nonexistent_table" in
         try ignore (Str.search_forward re e 0); true with Not_found -> false)
  | Ok _ -> Alcotest.fail "missing table should error"

(* ------------------------------------------------------------------ *)
(* Metadata cache                                                      *)
(* ------------------------------------------------------------------ *)

let test_metadata_cache () =
  let db = make_db () in
  let backend = Hyperq.Backend.of_pgdb_session (Db.open_session db) in
  let eng = Hyperq.Engine.create backend in
  run_unit eng "select Price from trades where Symbol=`A";
  run_unit eng "select Price from trades where Symbol=`B";
  run_unit eng "select Price from trades where Symbol=`A";
  let lookups, misses = Hyperq.Mdi.stats (Hyperq.Engine.mdi eng) in
  check tbool "several lookups" true (lookups >= 3);
  check tint "single backend miss with caching" 1 misses

(* ------------------------------------------------------------------ *)
(* Xformer ablations, as absolute checks of the one pipeline           *)
(* ------------------------------------------------------------------ *)

(* Ablation B's structural claim: a query joining tables of more than 500
   columns serializes to SQL that names none of the columns it does not
   use *)
let test_pruning_shrinks_sql () =
  let scale = Workload.Marketdata.paper_scale in
  check tbool "wide tables have more than 500 columns" true
    (scale.Workload.Marketdata.wide_columns > 500);
  let db = Db.create () in
  Workload.Marketdata.load_pg db (Workload.Marketdata.generate scale);
  let eng =
    Hyperq.Engine.create (Hyperq.Backend.of_pgdb_session (Db.open_session db))
  in
  let sql =
    Hyperq.Engine.translate eng
      "select gross:sum Price*Size, wbeta:sum Beta*Size by Sector from \
       (trades lj secmaster_w) lj risk_w"
  in
  let named col =
    let re = Str.regexp_string col in
    try ignore (Str.search_forward re sql 0); true with Not_found -> false
  in
  check (Alcotest.list Alcotest.string) "unreferenced wide columns in the SQL"
    []
    (List.filter named
       (List.init scale.Workload.Marketdata.wide_columns
          Workload.Marketdata.wide_col))

(* The pivot re-tags a result's typed payloads as Q vectors: an int,
   float, time and bool result of 1,000 rows without a NULL shares its
   four payloads, so the table costs some words a column (the vector,
   its payload's block, the pivot's closures, the table's arrays and
   lists), not a word a cell. 244 words measured on OCaml 5.1, counted
   with [Obs.Runtime.allocated_bytes]; building one atom a cell cost
   17,241. The budget is 100 words a column. *)
let test_pivot_allocation () =
  let rows = 1_000 in
  let db = Db.create () in
  Db.load_table db
    (S.table "p"
       [
         S.column "i" Ty.TBigint;
         S.column "x" Ty.TDouble;
         S.column "t" Ty.TTime;
         S.column "b" Ty.TBool;
       ])
    (List.init rows (fun k ->
         [|
           V.Int (Int64.of_int (k * 7));
           V.Float (float_of_int k /. 4.);
           V.Time (k * 1000);
           V.Bool (k mod 3 = 0);
         |]));
  let res =
    match Db.exec (Db.open_session db) "SELECT i, x, t, b FROM p" with
    | Db.Rows (res, _) -> res
    | Db.Complete _ -> Alcotest.fail "expected rows"
  in
  let pivot () = Hyperq.Engine.table_of_result res in
  let tbl = pivot () in
  check (Alcotest.list Alcotest.int) "column types" [ 7; 9; 19; 1 ]
    (Array.to_list (Array.map QV.type_code tbl.QV.data));
  check tbool "row 999" true
    (QV.equal
       (QV.Atom (QV.atoms_exn tbl.QV.data.(2)).(999))
       (QV.time 999_000));
  let best = ref Float.infinity in
  for _ = 1 to 3 do
    let a0 = Obs.Runtime.allocated_bytes () in
    ignore (Sys.opaque_identity (pivot ()));
    best := Float.min !best (Obs.Runtime.allocated_bytes () -. a0)
  done;
  let words = !best /. float_of_int (Sys.word_size / 8) in
  if words > 400. then
    Alcotest.failf "pivot: %.0f words for 4 columns of %d rows, budget 400"
      words rows

(* Ablation C's structural claim: the scalar aggregations over nested
   queries emit no ORDER BY *)
let test_order_elision_ablation () =
  let eng = make_engine () in
  List.iter
    (fun q ->
      check tint (q ^ ": elided") 0
        (Sql_shape.order_bys (Hyperq.Engine.translate eng q)))
    Workload.Analytical.order_elision_queries

let () =
  Alcotest.run "hyperq"
    [
      ( "selects",
        [
          Alcotest.test_case "select where" `Quick test_select_where;
          Alcotest.test_case "2VL rewrite in SQL" `Quick
            test_generated_sql_uses_2vl;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "order elision under scalar agg" `Quick
            test_scalar_aggregate_elides_order;
          Alcotest.test_case "computed columns" `Quick test_computed_columns;
          Alcotest.test_case "sequential where" `Quick test_sequential_where;
          Alcotest.test_case "select by" `Quick test_select_by;
          Alcotest.test_case "exec vector" `Quick test_exec_vector;
          Alcotest.test_case "pivot allocation budget" `Quick
            test_pivot_allocation;
          Alcotest.test_case "scalar aggregate" `Quick test_scalar_result;
          Alcotest.test_case "in filter" `Quick test_in_filter;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "update by (window)" `Quick
            test_update_by_window;
          Alcotest.test_case "delete rows" `Quick test_delete_rows;
          Alcotest.test_case "delete columns" `Quick test_delete_cols;
        ] );
      ( "joins",
        [
          Alcotest.test_case "as-of join (Example 1)" `Quick
            test_asof_join_example1;
          Alcotest.test_case "as-of join over subqueries" `Quick
            test_asof_join_with_subqueries;
          Alcotest.test_case "lj" `Quick test_lj;
          Alcotest.test_case "multi-day as-of join" `Quick test_multiday_asof;
          Alcotest.test_case "as-of ties agree with kdb" `Quick
            test_asof_ties_against_kdb;
          Alcotest.test_case "uj" `Quick test_uj;
          Alcotest.test_case "uj agrees with kdb" `Quick
            test_uj_agrees_with_kdb;
          Alcotest.test_case "fby" `Quick test_fby;
        ] );
      ( "variables",
        [
          Alcotest.test_case "function unrolling (logical)" `Quick
            test_function_unrolling_logical;
          Alcotest.test_case "function unrolling (physical, Example 3)"
            `Quick test_function_unrolling_physical;
          Alcotest.test_case "local shadows global" `Quick
            test_local_shadows_global;
          Alcotest.test_case "session promotion" `Quick
            test_session_promotion;
          Alcotest.test_case "scalar expression" `Quick
            test_scalar_expression;
          Alcotest.test_case "table literal" `Quick test_table_literal;
        ] );
      ( "errors",
        [
          Alcotest.test_case "clean errors" `Quick test_unsupported_is_clean;
          Alcotest.test_case "error log (Section 5)" `Quick test_error_log;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "cache hit behaviour" `Quick test_metadata_cache;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "pruning shrinks SQL" `Quick
            test_pruning_shrinks_sql;
          Alcotest.test_case "order elision (ablation C)" `Quick
            test_order_elision_ablation;
        ] );
    ]
