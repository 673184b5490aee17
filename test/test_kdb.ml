(* Tests for the Q interpreter (lib/kdb) — the kdb+ reference substrate. *)

open Qvalue

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* evaluate a Q program in a fresh environment *)
let q src = Kdb.Interp.eval_string (Kdb.Interp.create ()) src

(* evaluate against an env preloaded with the trades/quotes fixture *)
let fixture () =
  let env = Kdb.Interp.create () in
  let trades =
    Value.table
      [
        ("Symbol", Value.syms [| "A"; "B"; "A"; "B"; "A" |]);
        ("Time", Value.vector Qtype.Time [| Atom.Time 1000; Atom.Time 2000; Atom.Time 3000; Atom.Time 4000; Atom.Time 5000 |]);
        ("Price", Value.floats [| 10.0; 20.0; 11.0; 21.0; 12.0 |]);
        ("Size", Value.longs [| 100; 200; 150; 250; 300 |]);
      ]
  in
  let quotes =
    Value.table
      [
        ("Symbol", Value.syms [| "A"; "B"; "A"; "B" |]);
        ("Time", Value.vector Qtype.Time [| Atom.Time 500; Atom.Time 1500; Atom.Time 2500; Atom.Time 3500 |]);
        ("Bid", Value.floats [| 9.9; 19.9; 10.9; 20.9 |]);
        ("Ask", Value.floats [| 10.1; 20.1; 11.1; 21.1 |]);
      ]
  in
  Kdb.Interp.set_global env "trades" (Kdb.Interp.V (Value.Table trades));
  Kdb.Interp.set_global env "quotes" (Kdb.Interp.V (Value.Table quotes));
  env

let qf env src = Kdb.Interp.eval_string env src

let expect_long src expected =
  match q src with
  | Value.Atom (Atom.Long i) -> check tint src expected (Int64.to_int i)
  | v -> Alcotest.failf "%s: expected long, got %s" src (Qprint.to_string v)

let expect_float src expected =
  match q src with
  | Value.Atom (Atom.Float f) -> check (Alcotest.float 1e-9) src expected f
  | v -> Alcotest.failf "%s: expected float, got %s" src (Qprint.to_string v)

let expect_value src expected =
  let v = q src in
  if not (Value.equal v expected) then
    Alcotest.failf "%s: got %s, expected %s" src (Qprint.to_string v)
      (Qprint.to_string expected)

(* ------------------------------------------------------------------ *)
(* Scalars and vectors                                                 *)
(* ------------------------------------------------------------------ *)

let test_arithmetic () =
  expect_long "1+2" 3;
  expect_long "2*3+4" 14 (* right-to-left: 2*(3+4) *);
  expect_float "3%2" 1.5;
  expect_long "7 mod 3" 1;
  expect_long "7 div 2" 3;
  expect_value "1 2 3+10" (Value.longs [| 11; 12; 13 |]);
  expect_value "1 2 3+10 20 30" (Value.longs [| 11; 22; 33 |]);
  expect_value "neg 1 2" (Value.longs [| -1; -2 |])

let test_comparison_2vl () =
  expect_value "1=1" (Value.bool true);
  expect_value "0N=0N" (Value.bool true) (* Q nulls compare equal *);
  expect_value "0n=0n" (Value.bool true);
  expect_value "1<2" (Value.bool true);
  expect_value "1 2 3=1 5 3" (Value.bools [| true; false; true |])

let test_list_verbs () =
  expect_long "count til 10" 10;
  expect_value "reverse 1 2 3" (Value.longs [| 3; 2; 1 |]);
  expect_value "distinct 1 2 1 3" (Value.longs [| 1; 2; 3 |]);
  expect_value "where 101b" (Value.longs [| 0; 2 |]);
  expect_value "2#til 5" (Value.longs [| 0; 1 |]);
  expect_value "2_til 5" (Value.longs [| 2; 3; 4 |]);
  expect_value "1 2,3 4" (Value.longs [| 1; 2; 3; 4 |]);
  expect_value "first 5 6 7" (Value.int 5);
  expect_value "last 5 6 7" (Value.int 7);
  expect_value "asc 3 1 2" (Value.longs [| 1; 2; 3 |]);
  expect_value "til 3" (Value.longs [| 0; 1; 2 |])

let test_aggregates () =
  expect_long "sum 1 2 3" 6;
  expect_float "avg 1 2 3 4" 2.5;
  expect_long "max 3 1 4" 4;
  expect_long "min 3 1 4" 1;
  expect_float "med 1 2 3 4 5" 3.0;
  (* nulls are skipped by aggregates *)
  expect_long "sum 1 0N 3" 4;
  expect_float "avg 2 0N 4" 3.0

let test_uniform_verbs () =
  expect_value "sums 1 2 3" (Value.longs [| 1; 3; 6 |]);
  expect_value "deltas 1 4 9" (Value.longs [| 1; 3; 5 |]);
  expect_value "maxs 1 3 2" (Value.longs [| 1; 3; 3 |]);
  expect_value "mins 3 1 2" (Value.longs [| 3; 1; 1 |]);
  expect_value "fills 1 0N 0N 2 0N" (Value.longs [| 1; 1; 1; 2; 2 |])

let test_shift_verbs () =
  expect_value "prev 1 2 3" (Value.vector_of_atoms [| Atom.Null Qtype.Long; Atom.Long 1L; Atom.Long 2L |]);
  expect_value "next 1 2 3" (Value.vector_of_atoms [| Atom.Long 2L; Atom.Long 3L; Atom.Null Qtype.Long |]);
  expect_value "differ 1 1 2 2 3" (Value.bools [| true; false; true; false; true |]);
  expect_value "rank 30 10 20" (Value.longs [| 2; 0; 1 |])

let test_sublist () =
  expect_value "3 sublist til 10" (Value.longs [| 0; 1; 2 |]);
  (* unlike take, sublist never cycles *)
  expect_value "5 sublist til 3" (Value.longs [| 0; 1; 2 |]);
  expect_value "-2 sublist til 5" (Value.longs [| 3; 4 |]);
  expect_value "(2;3) sublist til 10" (Value.longs [| 2; 3; 4 |])

let test_xcols () =
  let env = fixture () in
  match qf env "`Price`Symbol xcols trades" with
  | Value.Table t ->
      check tstr "first col" "Price" t.Value.cols.(0);
      check tstr "second col" "Symbol" t.Value.cols.(1)
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_membership () =
  expect_value "2 in 1 2 3" (Value.bool true);
  expect_value "5 in 1 2 3" (Value.bool false);
  expect_value "1 5 in 1 2 3" (Value.bools [| true; false |]);
  expect_value "3 within 1 5" (Value.bool true);
  expect_value "`abc like \"a*\"" (Value.bool true);
  expect_value "`abc like \"a?c\"" (Value.bool true);
  expect_value "`abc like \"b*\"" (Value.bool false)

let test_fill_and_null () =
  expect_value "0^1 0N 3" (Value.longs [| 1; 0; 3 |]);
  expect_value "null 1 0N 3" (Value.bools [| false; true; false |])

let test_cast () =
  expect_value "`float$1 2" (Value.floats [| 1.0; 2.0 |]);
  expect_value "`long$2.7" (Value.int 2);
  expect_value "`symbol$\"abc\"" (Value.sym "abc")

let test_dict () =
  expect_value "(`a`b!1 2)[`b]" (Value.int 2);
  (match q "`a`b!1 2" with
  | Value.Dict _ -> ()
  | v -> Alcotest.failf "expected dict, got %s" (Qprint.to_string v));
  expect_value "key `a`b!1 2" (Value.syms [| "a"; "b" |]);
  expect_value "value `a`b!1 2" (Value.longs [| 1; 2 |])

(* ------------------------------------------------------------------ *)
(* Functions, adverbs and control flow                                 *)
(* ------------------------------------------------------------------ *)

let test_lambda () =
  expect_long "{[a;b] a+b}[3;4]" 7;
  expect_long "f:{[a;b] a*b}; f[3;4]" 12;
  (* implicit parameters *)
  expect_long "{x+y}[3;4]" 7;
  (* return statement *)
  expect_long "{[x] :x+1; 99}[5]" 6

let test_locals_do_not_leak () =
  let env = Kdb.Interp.create () in
  ignore (qf env "f:{[x] loc:x+1; loc}");
  ignore (qf env "f[5]");
  (match Kdb.Interp.eval (Kdb.Interp.create ()) (Qlang.Parser.parse_expression "1") with
  | _ -> ());
  (* loc must not exist globally *)
  match qf env "loc" with
  | exception _ -> ()
  | v -> Alcotest.failf "local leaked: %s" (Qprint.to_string v)

let test_global_assign_in_function () =
  let env = Kdb.Interp.create () in
  ignore (qf env "f:{[x] g::x+1; x}");
  ignore (qf env "f[5]");
  match qf env "g" with
  | Value.Atom (Atom.Long 6L) -> ()
  | v -> Alcotest.failf "expected 6, got %s" (Qprint.to_string v)

let test_projections () =
  (* partial application with elided slots *)
  expect_long "g:+[;3]; g 4" 7;
  expect_long "h:{x-y}[10;]; h 3" 7;
  expect_long "{x+y+z}[1;;3][2]" 6;
  (* projections are values: pass them to adverbs *)
  expect_value "+[10;]'1 2 3" (Value.longs [| 11; 12; 13 |])

let test_adverbs () =
  expect_long "+/1 2 3 4" 10;
  expect_value "+\\1 2 3" (Value.longs [| 1; 3; 6 |]);
  expect_value "{x*x}'1 2 3" (Value.longs [| 1; 4; 9 |]);
  expect_value "1 2+'10 20" (Value.longs [| 11; 22 |]);
  expect_value "1 2+\\:10" (Value.longs [| 11; 12 |]);
  expect_value "1+/:10 20" (Value.longs [| 11; 21 |]);
  expect_value "-':1 3 6" (Value.longs [| 1; 2; 3 |]) (* each-prior = deltas *);
  expect_long "0+/1 2 3" 6 (* seeded fold *)

let test_cond () =
  expect_long "$[1b;10;20]" 10;
  expect_long "$[0b;10;20]" 20;
  expect_long "$[0b;10;1b;30;20]" 30

let test_control () =
  expect_long "s:0; do[5;s:s+1]; s" 5;
  expect_long "s:0; i:0; while[i<4;s:s+i;i:i+1]; s" 6;
  expect_long "x:1; if[x>0;x:42]; x" 42

let test_string_ops () =
  expect_value "string `abc" (Value.string_ "abc");
  expect_value "upper `abc" (Value.sym "ABC");
  expect_value "\",\" sv (\"a\";\"b\")" (Value.string_ "a,b")

let test_value_eval () =
  expect_long "value \"1+2\"" 3

let test_errors_are_clean () =
  (match q "1+`sym" with
  | exception Kdb.Error.Q_error _ -> ()
  | exception Atom.Type_error _ -> ()
  | v -> Alcotest.failf "expected type error, got %s" (Qprint.to_string v));
  match q "undefined_variable_xyz" with
  | exception Kdb.Error.Q_error { tag = "value"; _ } -> ()
  | exception _ -> Alcotest.fail "wrong error kind"
  | v -> Alcotest.failf "expected value error, got %s" (Qprint.to_string v)

(* a moving window of a negative size is a clean Q error through the
   server, for each of the four moving verbs *)
let test_negative_window () =
  let srv = Kdb.Server.create () in
  List.iter
    (fun verb ->
      let src = Printf.sprintf "-1 %s 1.0 2.0 3.0" verb in
      match Kdb.Server.query srv ~client:0 src with
      | Error e ->
          check tbool (src ^ ": " ^ e) true (String.starts_with ~prefix:"'domain" e)
      | Ok v -> Alcotest.failf "%s answered %s" src (Qprint.to_string v))
    [ "mavg"; "msum"; "mmax"; "mmin" ]

(* ------------------------------------------------------------------ *)
(* q-sql                                                               *)
(* ------------------------------------------------------------------ *)

let test_select_where () =
  let env = fixture () in
  match qf env "select Price from trades where Symbol=`A" with
  | Value.Table t ->
      check tint "3 A-trades" 3 (Value.table_length t);
      check tbool "prices" true
        (Value.equal
           (Value.column_exn t "Price")
           (Value.floats [| 10.0; 11.0; 12.0 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_select_computed_col () =
  let env = fixture () in
  match qf env "select notional:Price*Size from trades where Symbol=`B" with
  | Value.Table t ->
      check tbool "notional" true
        (Value.equal
           (Value.column_exn t "notional")
           (Value.floats [| 4000.0; 5250.0 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_select_by () =
  let env = fixture () in
  match qf env "select mx:max Price, n:count Price by Symbol from trades" with
  | Value.KTable (k, v) ->
      check tbool "keys sorted" true
        (Value.equal (Value.column_exn k "Symbol") (Value.syms [| "A"; "B" |]));
      check tbool "max per group" true
        (Value.equal (Value.column_exn v "mx") (Value.floats [| 12.0; 21.0 |]));
      check tbool "count per group" true
        (Value.equal (Value.column_exn v "n") (Value.longs [| 3; 2 |]))
  | v -> Alcotest.failf "expected keyed table, got %s" (Qprint.to_string v)

let test_exec () =
  let env = fixture () in
  (match qf env "exec Price from trades where Symbol=`A" with
  | Value.Vector (Qtype.Float, _) as v ->
      check tbool "exec vector" true
        (Value.equal v (Value.floats [| 10.0; 11.0; 12.0 |]))
  | v -> Alcotest.failf "expected vector, got %s" (Qprint.to_string v));
  match qf env "exec max Price by Symbol from trades" with
  | Value.Dict _ -> ()
  | v -> Alcotest.failf "expected dict, got %s" (Qprint.to_string v)

let test_sequential_where () =
  (* the second where clause sees only rows that pass the first *)
  let env = fixture () in
  match qf env "select Price from trades where Symbol=`A, Price>10.5" with
  | Value.Table t -> check tint "2 rows" 2 (Value.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_update_is_not_persistent () =
  let env = fixture () in
  (match qf env "update Price:2*Price from trades where Symbol=`A" with
  | Value.Table t ->
      check tbool "updated rows" true
        (Value.equal
           (Value.column_exn t "Price")
           (Value.floats [| 20.0; 20.0; 22.0; 21.0; 24.0 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v));
  (* the stored table is unchanged (paper Section 2.2) *)
  match qf env "exec Price from trades where Symbol=`A" with
  | v -> check tbool "original intact" true
      (Value.equal v (Value.floats [| 10.0; 11.0; 12.0 |]))

let test_update_by () =
  let env = fixture () in
  match qf env "update mx:max Price by Symbol from trades" with
  | Value.Table t ->
      check tbool "group max spread back" true
        (Value.equal
           (Value.column_exn t "mx")
           (Value.floats [| 12.0; 21.0; 12.0; 21.0; 12.0 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_delete_rows_and_cols () =
  let env = fixture () in
  (match qf env "delete from trades where Symbol=`A" with
  | Value.Table t -> check tint "2 rows left" 2 (Value.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v));
  match qf env "delete Size from trades" with
  | Value.Table t ->
      check tbool "Size gone" false (Value.has_column t "Size")
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_fby () =
  let env = fixture () in
  (* trades at the max price of their symbol *)
  match qf env "select from trades where Price=(max;Price) fby Symbol" with
  | Value.Table t ->
      check tint "one max per symbol" 2 (Value.table_length t);
      check tbool "max prices" true
        (Value.equal
           (Value.column_exn t "Price")
           (Value.floats [| 21.0; 12.0 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_insert_upsert () =
  let env = Kdb.Interp.create () in
  ignore (qf env "t:([] a:1 2; b:`x`y)");
  ignore (qf env "`t insert ([] a:3 4; b:`z`w)");
  (match qf env "count t" with
  | Value.Atom (Atom.Long 4L) -> ()
  | v -> Alcotest.failf "expected 4 rows, got %s" (Qprint.to_string v));
  match qf env "exec a from t" with
  | v ->
      check tbool "appended in order" true
        (Value.equal v (Value.longs [| 1; 2; 3; 4 |]))

let test_qprint_rendering () =
  let t =
    Value.Table
      (Value.table
         [ ("sym", Value.syms [| "a" |]); ("px", Value.floats [| 1.5 |]) ])
  in
  let s = Qprint.to_string t in
  check tbool "header present" true
    (let re = Str.regexp_string "sym px" in
     try ignore (Str.search_forward re s 0); true with Not_found -> false);
  check tbool "row present" true
    (let re = Str.regexp_string "`a" in
     try ignore (Str.search_forward re s 0); true with Not_found -> false);
  (* keyed tables render with the key bar *)
  let kt = Value.xkey [ "sym" ] (Value.table [ ("sym", Value.syms [| "a" |]); ("v", Value.longs [| 1 |]) ]) in
  check tbool "key separator" true
    (let re = Str.regexp_string "| " in
     try ignore (Str.search_forward re (Qprint.to_string kt) 0); true
     with Not_found -> false)

let test_table_literal_eval () =
  match q "([] a:1 2 3; b:`x`y`z)" with
  | Value.Table t ->
      check tint "3 rows" 3 (Value.table_length t);
      check (Alcotest.array tstr) "cols" [| "a"; "b" |] t.Value.cols
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

let test_aj_paper_example () =
  (* Example 2: aj[`Symbol`Time; trades; quotes] *)
  let env = fixture () in
  match qf env "aj[`Symbol`Time; trades; quotes]" with
  | Value.Table t ->
      check tint "row per trade" 5 (Value.table_length t);
      (* trade A@1000 sees quote A@500 (bid 9.9); A@3000 sees A@2500 (10.9);
         B@2000 sees B@1500 (19.9); B@4000 sees B@3500 (20.9) *)
      check tbool "prevailing bids" true
        (Value.equal
           (Value.column_exn t "Bid")
           (Value.floats [| 9.9; 19.9; 10.9; 20.9; 10.9 |]))
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_aj_no_match_is_null () =
  let env = Kdb.Interp.create () in
  Kdb.Interp.set_global env "t1"
    (Kdb.Interp.V
       (Value.Table
          (Value.table
             [
               ("s", Value.syms [| "X" |]);
               ("t", Value.longs [| 100 |]);
             ])));
  Kdb.Interp.set_global env "t2"
    (Kdb.Interp.V
       (Value.Table
          (Value.table
             [
               ("s", Value.syms [| "Y" |]);
               ("t", Value.longs [| 50 |]);
               ("v", Value.floats [| 1.0 |]);
             ])));
  match qf env "aj[`s`t; t1; t2]" with
  | Value.Table t -> (
      match Value.index (Value.column_exn t "v") 0 with
      | Value.Atom a -> check tbool "null when no match" true (Atom.is_null a)
      | v -> Alcotest.failf "expected atom, got %s" (Qprint.to_string v))
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_lj () =
  let env = Kdb.Interp.create () in
  ignore
    (qf env
       "ref:([s:`a`b] nm:`alpha`beta); t:([] s:`a`b`a; v:1 2 3); t lj ref");
  match qf env "t lj ref" with
  | Value.Table t ->
      check tbool "joined names" true
        (Value.equal
           (Value.column_exn t "nm")
           (Value.syms [| "alpha"; "beta"; "alpha" |]))
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_ij () =
  let env = Kdb.Interp.create () in
  ignore (qf env "ref:([s:`a] nm:`alpha); t:([] s:`a`b`a; v:1 2 3)");
  match qf env "t ij ref" with
  | Value.Table t -> check tint "only matching rows" 2 (Value.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_uj () =
  let env = Kdb.Interp.create () in
  ignore (qf env "t1:([] a:1 2); t2:([] a:3 4; b:`x`y)");
  match qf env "t1 uj t2" with
  | Value.Table t ->
      check tint "4 rows" 4 (Value.table_length t);
      check tbool "b null-padded" true
        (match Value.index (Value.column_exn t "b") 0 with
        | Value.Atom a -> Atom.is_null a
        | _ -> false)
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

let test_ej () =
  let env = Kdb.Interp.create () in
  ignore (qf env "t1:([] s:`a`b); t2:([] s:`a`a`b; v:1 2 3)");
  match qf env "ej[`s;t1;t2]" with
  | Value.Table t -> check tint "multiplicity preserved" 3 (Value.table_length t)
  | v -> Alcotest.failf "expected table, got %s" (Qprint.to_string v)

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)
(* ------------------------------------------------------------------ *)

let test_server_serial_execution () =
  let srv = Kdb.Server.create () in
  let order = ref [] in
  Kdb.Server.submit srv ~client:1 ~source:"x::1" ~callback:(fun _ ->
      order := 1 :: !order);
  Kdb.Server.submit srv ~client:2 ~source:"x::x+10" ~callback:(fun _ ->
      order := 2 :: !order);
  Kdb.Server.submit srv ~client:1 ~source:"x" ~callback:(fun r ->
      order := 3 :: !order;
      match r with
      | Ok (Value.Atom (Atom.Long 11L)) -> ()
      | Ok v -> Alcotest.failf "expected 11, got %s" (Qprint.to_string v)
      | Error e -> Alcotest.fail e);
  Kdb.Server.run_pending srv;
  check (Alcotest.list tint) "strict arrival order" [ 1; 2; 3 ]
    (List.rev !order);
  check tint "executed" 3 (Kdb.Server.executed_count srv)

let test_server_error_isolation () =
  let srv = Kdb.Server.create () in
  (match Kdb.Server.query srv ~client:1 "1+`oops" with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "expected error, got %s" (Qprint.to_string v));
  (* the server survives and keeps serving *)
  match Kdb.Server.query srv ~client:1 "2+2" with
  | Ok (Value.Atom (Atom.Long 4L)) -> ()
  | Ok v -> Alcotest.failf "expected 4, got %s" (Qprint.to_string v)
  | Error e -> Alcotest.fail e

let test_globals_shared_across_clients () =
  (* paper Section 3.2.3: globals can be redefined by other clients *)
  let srv = Kdb.Server.create () in
  ignore (Kdb.Server.query srv ~client:1 "f:{[x] x+1}");
  ignore (Kdb.Server.query srv ~client:2 "f:{[x] x+100}");
  match Kdb.Server.query srv ~client:1 "f[1]" with
  | Ok (Value.Atom (Atom.Long 101L)) -> ()
  | Ok v -> Alcotest.failf "expected 101, got %s" (Qprint.to_string v)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_sum_matches_fold =
  QCheck.Test.make ~count:200 ~name:"sum xs = +/xs"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range (-100) 100))
    (fun xs ->
      xs = []
      ||
      let src = String.concat " " (List.map string_of_int xs) in
      Value.equal (q ("sum " ^ src)) (q ("+/" ^ src)))

let prop_reverse_reverse =
  QCheck.Test.make ~count:100 ~name:"reverse reverse xs = xs"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 0 100))
    (fun xs ->
      xs = []
      ||
      let src = String.concat " " (List.map string_of_int xs) in
      Value.equal (q ("reverse reverse " ^ src)) (q src))

let prop_take_then_count =
  QCheck.Test.make ~count:100 ~name:"count n#xs = n"
    QCheck.(pair (int_range 1 50) (list_of_size (Gen.int_range 1 10) (int_range 0 9)))
    (fun (n, xs) ->
      n <= 0 || xs = []
      ||
      let src = String.concat " " (List.map string_of_int xs) in
      Value.equal (q (Printf.sprintf "count %d#%s" n src)) (Value.int n))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sum_matches_fold; prop_reverse_reverse; prop_take_then_count ]

let () =
  Alcotest.run "kdb"
    [
      ( "scalars",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparison 2VL" `Quick test_comparison_2vl;
          Alcotest.test_case "list verbs" `Quick test_list_verbs;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "uniform verbs" `Quick test_uniform_verbs;
          Alcotest.test_case "shift verbs" `Quick test_shift_verbs;
          Alcotest.test_case "sublist" `Quick test_sublist;
          Alcotest.test_case "xcols" `Quick test_xcols;
          Alcotest.test_case "membership" `Quick test_membership;
          Alcotest.test_case "fill and null" `Quick test_fill_and_null;
          Alcotest.test_case "cast" `Quick test_cast;
          Alcotest.test_case "dict" `Quick test_dict;
        ] );
      ( "functions",
        [
          Alcotest.test_case "lambda" `Quick test_lambda;
          Alcotest.test_case "locals don't leak" `Quick test_locals_do_not_leak;
          Alcotest.test_case "global assign in function" `Quick
            test_global_assign_in_function;
          Alcotest.test_case "projections" `Quick test_projections;
          Alcotest.test_case "adverbs" `Quick test_adverbs;
          Alcotest.test_case "cond" `Quick test_cond;
          Alcotest.test_case "control" `Quick test_control;
          Alcotest.test_case "string ops" `Quick test_string_ops;
          Alcotest.test_case "value/eval" `Quick test_value_eval;
          Alcotest.test_case "clean errors" `Quick test_errors_are_clean;
          Alcotest.test_case "negative moving window" `Quick test_negative_window;
        ] );
      ( "qsql",
        [
          Alcotest.test_case "select where" `Quick test_select_where;
          Alcotest.test_case "computed column" `Quick test_select_computed_col;
          Alcotest.test_case "select by" `Quick test_select_by;
          Alcotest.test_case "exec" `Quick test_exec;
          Alcotest.test_case "sequential where" `Quick test_sequential_where;
          Alcotest.test_case "update not persistent" `Quick
            test_update_is_not_persistent;
          Alcotest.test_case "update by" `Quick test_update_by;
          Alcotest.test_case "delete" `Quick test_delete_rows_and_cols;
          Alcotest.test_case "fby" `Quick test_fby;
          Alcotest.test_case "insert/upsert" `Quick test_insert_upsert;
          Alcotest.test_case "qprint rendering" `Quick test_qprint_rendering;
          Alcotest.test_case "table literal" `Quick test_table_literal_eval;
        ] );
      ( "joins",
        [
          Alcotest.test_case "aj (paper example 2)" `Quick
            test_aj_paper_example;
          Alcotest.test_case "aj no match" `Quick test_aj_no_match_is_null;
          Alcotest.test_case "lj" `Quick test_lj;
          Alcotest.test_case "ij" `Quick test_ij;
          Alcotest.test_case "uj" `Quick test_uj;
          Alcotest.test_case "ej" `Quick test_ej;
        ] );
      ( "server",
        [
          Alcotest.test_case "serial execution" `Quick
            test_server_serial_execution;
          Alcotest.test_case "error isolation" `Quick
            test_server_error_isolation;
          Alcotest.test_case "shared globals" `Quick
            test_globals_shared_across_clients;
        ] );
      ("properties", props);
    ]
