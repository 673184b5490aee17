(* Plan cache tests: collision regression (same fingerprint, different
   literal classes), versioned invalidation (DDL / variable reassignment
   / session promotion), deep-nested shapes against a cache-disabled
   engine (their hits must skip every translation stage), the pgdb
   statement cache, and the bounded engine error log. Random shapes,
   cached and uncached, are checked by test_sidebyside's one
   differential. *)

module V = Pgdb.Value
module Db = Pgdb.Db
module S = Catalog.Schema
module Ty = Catalog.Sqltype
module QV = Qvalue.Value
module E = Hyperq.Engine
module PC = Hyperq.Plancache

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
         S.column "Price" Ty.TDouble;
         S.column "Size" Ty.TBigint;
       ])
    (List.mapi
       (fun i (sym, px, sz) ->
         [| V.Int (Int64.of_int i); V.Str sym; V.Float px; V.Int (Int64.of_int sz) |])
       [
         ("A", 10.0, 100);
         ("B", 20.0, 200);
         ("A", 11.0, 150);
         ("B", 21.0, 250);
         ("A", 12.0, 300);
       ]);
  db

(* an engine with its own plan cache, or with none *)
let own_cache plan_cache = if plan_cache then Some (PC.create ()) else None

let make_engine ?server_scope ~plan_cache () =
  let backend = Hyperq.Backend.of_pgdb_session (Db.open_session (make_db ())) in
  (E.create ?plan_cache:(own_cache plan_cache) ?server_scope backend, backend)

let counter eng name =
  Obs.Metrics.counter_value
    (Obs.Metrics.counter (E.obs eng).Obs.Ctx.registry name)

let hits eng = counter eng "hq_plan_cache_hits_total"
let misses eng = counter eng "hq_plan_cache_misses_total"
let bypass eng = counter eng "hq_plan_cache_bypass_total"

let run eng q =
  match E.try_run eng (Qlang.Fingerprint.analyze q) with
  | Ok r -> r.E.value
  | Error e -> Alcotest.failf "query %S failed: %s" q e

let same_value a b = Stdlib.compare a b = 0

(* run [q] on the cached engine and an identically-loaded uncached
   engine; the values must agree *)
let check_vs_uncached ~cached ~uncached q =
  let cv = run cached q and uv = run uncached q in
  if not (same_value cv uv) then
    Alcotest.failf "cache changed the answer of %S" q

(* ------------------------------------------------------------------ *)
(* Reuse and collisions                                                *)
(* ------------------------------------------------------------------ *)

(* the very first query of a shape pays the MDI catalog fetch, which
   defers template installation — warm with two runs *)
let warm eng q =
  ignore (run eng q);
  ignore (run eng q)

let test_basic_reuse () =
  let eng, _ = make_engine ~plan_cache:true () in
  let uncached, _ = make_engine ~plan_cache:false () in
  warm eng "select Price from trades where Size>100";
  let h0 = hits eng in
  check_vs_uncached ~cached:eng ~uncached "select Price from trades where Size>100";
  check_vs_uncached ~cached:eng ~uncached "select Price from trades where Size>249";
  check tint "two hits with different literals" (h0 + 2) (hits eng);
  match E.plan_cache eng with
  | None -> Alcotest.fail "plan cache should be enabled"
  | Some pc -> check tint "one shared template entry" 1 (PC.size pc)

(* queries that differ only in literal type classes share a fingerprint
   but must not share an entry *)
let test_collision_literal_classes () =
  let eng, _ = make_engine ~plan_cache:true () in
  let uncached, _ = make_engine ~plan_cache:false () in
  let long_q = "select Price from trades where Size>100" in
  let float_q = "select Price from trades where Size>100.5" in
  let neg_q = "select Price from trades where Size>-100" in
  warm eng long_q;
  warm eng float_q;
  warm eng neg_q;
  let pc = Option.get (E.plan_cache eng) in
  check tint "three entries, one per literal class" 3 (PC.size pc);
  (* every shape is now a hit — and each must keep its own answer *)
  let h0 = hits eng in
  check_vs_uncached ~cached:eng ~uncached long_q;
  check_vs_uncached ~cached:eng ~uncached float_q;
  check_vs_uncached ~cached:eng ~uncached neg_q;
  check tint "all three hit their own entry" (h0 + 3) (hits eng)

(* literal value classes with bespoke binder behaviour must bypass *)
let test_bypass_classes () =
  let eng, _ = make_engine ~plan_cache:true () in
  let b0 = bypass eng in
  ignore (run eng "select Price from trades where Size>0");
  check tbool "zero literal bypasses" true (bypass eng > b0);
  let b1 = bypass eng in
  ignore (run eng "x:1; select Price from trades where Size>100");
  check tbool "multi-statement program bypasses" true (bypass eng > b1)

(* text the lexer rejects bypasses the cache and fails as a parse error
   carrying the lexer's own message *)
let test_lexer_rejected_text () =
  let eng, _ = make_engine ~plan_cache:true () in
  let junk = "select \xc3\xa9 from trades" in
  let lexer_msg =
    match Qlang.Lexer.tokenize junk with
    | exception Qlang.Lexer.Error m -> m
    | _ -> Alcotest.fail "the lexer must reject the text"
  in
  let b0 = bypass eng in
  (match E.try_run eng (Qlang.Fingerprint.analyze junk) with
  | Error e -> check Alcotest.string "parse error" ("[parse] " ^ lexer_msg) e
  | Ok _ -> Alcotest.fail "lexer-rejected text must fail");
  check tint "one bypass" (b0 + 1) (bypass eng)

(* ------------------------------------------------------------------ *)
(* Versioned invalidation                                              *)
(* ------------------------------------------------------------------ *)

let test_invalidate_ddl () =
  let eng, backend = make_engine ~plan_cache:true () in
  let uncached, _ = make_engine ~plan_cache:false () in
  let q = "select Price from trades where Size>100" in
  warm eng q;
  let h0 = hits eng in
  check_vs_uncached ~cached:eng ~uncached q;
  check tint "hit before DDL" (h0 + 1) (hits eng);
  (* DDL observed through Backend.exec bumps the catalog generation *)
  (match
     Hyperq.Backend.exec backend
       "CREATE TEMP TABLE IF NOT EXISTS t_gen (x BIGINT)"
   with
  | _ -> ());
  (match Hyperq.Backend.exec backend "DROP TABLE t_gen" with _ -> ());
  let h1 = hits eng and m1 = misses eng in
  check_vs_uncached ~cached:eng ~uncached q;
  check tint "miss after DDL" (m1 + 1) (misses eng);
  check tint "no hit after DDL" h1 (hits eng)

let test_invalidate_variable () =
  let eng, _ = make_engine ~plan_cache:true () in
  let uncached, _ = make_engine ~plan_cache:false () in
  ignore (run eng "threshold:100");
  ignore (run uncached "threshold:100");
  let q = "select Price from trades where Size>threshold" in
  warm eng q;
  let h0 = hits eng in
  check_vs_uncached ~cached:eng ~uncached q;
  check tint "hit with stable variable" (h0 + 1) (hits eng);
  (* reassigning bumps the session scope generation: the cached template
     embeds the old inlined value and must become unreachable *)
  ignore (run eng "threshold:249");
  ignore (run uncached "threshold:249");
  let h1 = hits eng and m1 = misses eng in
  check_vs_uncached ~cached:eng ~uncached q;
  check tint "miss after reassignment" (m1 + 1) (misses eng);
  check tint "no hit after reassignment" h1 (hits eng)

let test_invalidate_session_promotion () =
  let server = Hyperq.Scopes.create_server_frame () in
  let eng1, _ = make_engine ~server_scope:server ~plan_cache:true () in
  ignore (run eng1 "lvl:100");
  let q = "select Price from trades where Size>lvl" in
  warm eng1 q;
  (* closing the session promotes [lvl] to the server scope and bumps
     the server generation; a new session sharing the scope must
     re-translate, not reuse any surviving entry *)
  E.close_session eng1;
  let eng2, _ = make_engine ~server_scope:server ~plan_cache:true () in
  let uncached_server = Hyperq.Scopes.create_server_frame () in
  let uncached, _ =
    make_engine ~server_scope:uncached_server ~plan_cache:false ()
  in
  ignore (run uncached "lvl:100");
  let h0 = hits eng2 in
  check_vs_uncached ~cached:eng2 ~uncached q;
  check tint "promoted-variable query missed" h0 (hits eng2);
  check tbool "promoted-variable query translated" true (misses eng2 > 0)

(* ------------------------------------------------------------------ *)
(* Deep-nested shapes: cached vs uncached engines                      *)
(* ------------------------------------------------------------------ *)

(* Random shapes run cached and uncached in test_sidebyside's one
   differential, with scope churn between cases. *)
let test_deep_nested_differential () =
  let eng, _ = make_engine ~plan_cache:true () in
  let uncached, _ = make_engine ~plan_cache:false () in
  let syms = [| "A"; "B"; "C" |] in
  (* deep-nested shapes (40/32/28/16/12 levels) with varying literals of
     fixed classes: after two warm-up rounds every repeat must hit the
     cache, agree with the uncached engine and run no translation stage *)
  let nest levels i =
    let rec go k acc =
      if k = 0 then acc
      else
        go (k - 1)
          (Printf.sprintf "(select from %s where Size>%d)" acc
             (1 + ((k + i) mod 7)))
    in
    go levels "trades"
  in
  let deep agg levels i =
    Printf.sprintf "select %s Price by Symbol from %s" agg (nest levels i)
  in
  let shapes =
    [|
      deep "avg" 40;
      deep "max" 32;
      deep "sum" 28;
      (fun i ->
        Printf.sprintf
          "select vwap:(sum Price*Size)%%sum Size by Symbol from %s where \
           Price>%f"
          (nest 16 i)
          (float_of_int (i mod 13) +. 0.5));
      (fun i ->
        Printf.sprintf
          "select hi:max Price,lo:min Price,n:count Price by Symbol from %s \
           where Symbol=`%s"
          (nest 12 i)
          syms.(i mod Array.length syms));
    |]
  in
  let query_at i = shapes.(i mod Array.length shapes) i in
  for i = 0 to (2 * Array.length shapes) - 1 do
    ignore (run eng (query_at i))
  done;
  let looked_up () = hits eng + misses eng + bypass eng in
  let h0 = hits eng and l0 = looked_up () in
  let timer = E.timer eng in
  for i = 10 to 59 do
    let q = query_at i in
    let h = hits eng in
    Hyperq.Stage_timer.reset timer;
    let cv = run eng q in
    if hits eng > h then
      List.iter
        (fun s ->
          if Hyperq.Stage_timer.total timer s <> 0.0 then
            Alcotest.failf "hit on deep query %d ran %s" i
              (Hyperq.Stage_timer.stage_name s))
        Hyperq.Stage_timer.[ Parse; Algebrize; Optimize; Serialize ];
    if not (same_value cv (run uncached q)) then
      Alcotest.failf "cache changed the answer of deep query %d" i
  done;
  let ratio =
    float_of_int (hits eng - h0) /. float_of_int (looked_up () - l0)
  in
  if ratio < 0.95 then
    Alcotest.failf "deep shapes hit ratio %.3f < 0.95" ratio

(* ------------------------------------------------------------------ *)
(* Every analytical shape is cached                                    *)
(* ------------------------------------------------------------------ *)

module MD = Workload.Marketdata
module AW = Workload.Analytical

let market_engine d ~plan_cache =
  let db = Db.create () in
  MD.load_pg db d;
  E.create ?plan_cache:(own_cache plan_cache)
    (Hyperq.Backend.of_pgdb_session (Db.open_session db))

let run_full eng q =
  match E.try_run eng (Qlang.Fingerprint.analyze q) with
  | Ok r -> r
  | Error e -> Alcotest.failf "query %S failed: %s" q e

(* [q] must send the same SQL and return an agreeing value on both
   engines *)
let check_same_translation ~cached ~uncached q =
  let c = run_full cached q and u = run_full uncached q in
  check (Alcotest.list Alcotest.string) ("SQL of " ^ q) u.E.sqls c.E.sqls;
  match (c.E.value, u.E.value) with
  | Some cv, Some uv -> (
      match Sidebyside.Framework.values_agree cv uv with
      | None -> ()
      | Some d -> Alcotest.failf "cache changed the answer of %S: %s" q d)
  | _ -> Alcotest.failf "%S returned no value" q

let test_analytical_all_cached () =
  let d = MD.generate MD.small_scale in
  let eng = market_engine d ~plan_cache:true in
  let uncached = market_engine d ~plan_cache:false in
  let queries = AW.queries d in
  List.iter
    (fun q ->
      List.iter
        (fun s -> ignore (run_full eng s); ignore (run_full uncached s))
        q.AW.setup)
    queries;
  (* warm the cache-off engine's metadata cache too, so both send only
     the query's own SQL below *)
  List.iter (fun q -> ignore (run_full uncached q.AW.text)) queries;
  let b0 = bypass eng in
  for pass = 1 to 3 do
    List.iter
      (fun q ->
        let h = hits eng in
        ignore (run_full eng q.AW.text);
        if pass = 3 && hits eng <> h + 1 then
          Alcotest.failf "Q%02d missed the plan cache on the third pass" q.AW.id)
      queries
  done;
  check tint "no bypass" b0 (bypass eng);
  let pc = Option.get (E.plan_cache eng) in
  List.iter
    (fun (e : PC.entry) ->
      match e.PC.e_kind with
      | PC.Uncacheable reason ->
          Alcotest.failf "uncacheable entry %S: %s" e.PC.e_norm reason
      | PC.Template _ | PC.Structural _ -> ())
    (PC.entries pc);
  (* new literals: an integral-float slot (Q20), a structural window
     length (Q12) and a slot that surfaces as LIMIT (Q11) *)
  let q id = (List.find (fun q -> q.AW.id = id) queries).AW.text in
  let subst id a b =
    let t = q id in
    let i = Str.search_forward (Str.regexp_string a) t 0 in
    String.sub t 0 i ^ b ^ String.sub t (i + String.length a) (String.length t - i - String.length a)
  in
  let variants =
    [ subst 20 "Price>5.0" "Price>7.0"; subst 12 "5 mavg" "7 mavg"; subst 11 "3#" "4#" ]
  in
  List.iter
    (fun v ->
      (* the second run of each variant is a hit *)
      check_same_translation ~cached:eng ~uncached v;
      let h = hits eng in
      check_same_translation ~cached:eng ~uncached v;
      check tint ("variant hits: " ^ v) (h + 1) (hits eng))
    variants

(* the value classes the analytical shapes added to the key *)
let test_new_key_classes () =
  let eng, _ = make_engine ~plan_cache:true () in
  let uncached, _ = make_engine ~plan_cache:false () in
  let pc = Option.get (E.plan_cache eng) in
  let templates () =
    List.length
      (List.filter
         (fun (e : PC.entry) ->
           match e.PC.e_kind with PC.Template _ -> true | _ -> false)
         (PC.entries pc))
  in
  (* integral and fractional floats never share a template *)
  let integral = "select Price from trades where Price>11.0" in
  let fractional = "select Price from trades where Price>11.5" in
  warm eng integral;
  warm eng fractional;
  check tint "one template per float class" 2 (templates ());
  let h0 = hits eng in
  check_vs_uncached ~cached:eng ~uncached integral;
  check_vs_uncached ~cached:eng ~uncached fractional;
  check_vs_uncached ~cached:eng ~uncached "select Price from trades where Price>20.0";
  check tint "each float class hits its own template" (h0 + 3) (hits eng);
  (* 0.0 still bypasses *)
  let b0 = bypass eng in
  ignore (run eng "select Price from trades where Price>0.0");
  check tint "0.0 bypasses" (b0 + 1) (bypass eng);
  (* 3# and -3# never share an entry: the sign splits the class, and a
     take from the end is not translatable, so -3# must fail exactly as
     on the cache-off engine instead of reusing 3#'s template *)
  PC.clear pc;
  let take = "3#select Price from trades" and take_end = "-3#select Price from trades" in
  warm eng take;
  check_vs_uncached ~cached:eng ~uncached take;
  let h = hits eng in
  let error_of eng =
    match E.try_run eng (Qlang.Fingerprint.analyze take_end) with
    | Ok _ -> Alcotest.failf "%S should not translate" take_end
    | Error e -> e
  in
  check Alcotest.string "-3# fails as without the cache" (error_of uncached)
    (error_of eng);
  check tint "-3# served by no template" h (hits eng);
  check tint "only 3#'s template" 1 (templates ());
  (* 5 mavg and 6 mavg never share one: the window length is structure *)
  PC.clear pc;
  let m5 = "select m:5 mavg Price from trades" in
  let m6 = "select m:6 mavg Price from trades" in
  warm eng m5;
  warm eng m6;
  check tint "one template per window length" 2 (templates ());
  let h = hits eng in
  check_vs_uncached ~cached:eng ~uncached m5;
  check_vs_uncached ~cached:eng ~uncached m6;
  check tint "both window lengths hit" (h + 2) (hits eng)

let test_signature_integral_floats () =
  let sig_of q =
    PC.signature (Qlang.Fingerprint.analyze q)
  in
  match
    ( sig_of "select from trades where Price>10.0",
      sig_of "select from trades where Price>10.5",
      sig_of "select from trades where Price>-10.0",
      sig_of "select from trades where Price>0.0" )
  with
  | Some (i, _), Some (f, _), Some (n, _), None ->
      check tbool "integral and fractional floats differ" true (i <> f);
      check tbool "integral floats split by sign" true (i <> n)
  | _ -> Alcotest.fail "non-zero floats cache, 0.0 bypasses"

(* in-place search agrees with the obvious definition *)
let test_naive_find () =
  let hay = "SELECT 86240001 FROM t WHERE x > 86240001.5" in
  let reference needle from =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length hay then None
      else if String.sub hay i n = needle then Some i
      else go (i + 1)
    in
    if n = 0 then None else go from
  in
  List.iter
    (fun (needle, from) ->
      check (Alcotest.option tint) (Printf.sprintf "%S from %d" needle from)
        (reference needle from) (PC.naive_find hay needle from))
    [
      ("86240001", 0); ("86240001", 8); ("86240001.5", 0); ("t", 0);
      ("missing", 0); ("", 0); ("5", 40); (hay, 0); (hay ^ "x", 0);
    ]

(* ------------------------------------------------------------------ *)
(* pgdb statement cache (level 2)                                      *)
(* ------------------------------------------------------------------ *)

let test_stmt_cache_reuse () =
  let db = make_db () in
  let sess = Db.open_session db in
  let sql = "SELECT \"Price\" FROM trades" in
  let _, m0, _ = Db.stmt_cache_stats () in
  ignore (Db.exec sess sql);
  let h1, m1, _ = Db.stmt_cache_stats () in
  check tint "first exec parses" (m0 + 1) m1;
  ignore (Db.exec sess sql);
  let h2, m2, _ = Db.stmt_cache_stats () in
  check tint "repeat is a cache hit" (h1 + 1) h2;
  check tint "repeat does not parse" m1 m2

let test_stmt_cache_comment_keying () =
  let db = make_db () in
  let sess = Db.open_session db in
  let sql = "SELECT \"Size\" FROM trades" in
  ignore (Db.exec sess sql);
  let h0, m0, _ = Db.stmt_cache_stats () in
  (* per-query trace decoration must not defeat reuse *)
  ignore
    (Db.exec sess
       (sql ^ " /* traceparent='00-aaaa-bbbb-01' */"));
  ignore (Db.exec sess (sql ^ " /* traceparent='00-cccc-dddd-01' */"));
  let h1, m1, _ = Db.stmt_cache_stats () in
  check tint "decorated repeats hit" (h0 + 2) h1;
  check tint "decorated repeats do not parse" m0 m1;
  (* quotes inside the trailing comment (the traceparent is quoted) do
     not disable stripping *)
  (match Db.exec sess (sql ^ " /* it's quoted */") with
  | Db.Rows _ -> ()
  | Db.Complete _ -> Alcotest.fail "expected rows");
  let h2, m2, _ = Db.stmt_cache_stats () in
  check tint "quoted trailing comment still hits" (h1 + 1) h2;
  check tint "quoted trailing comment does not parse" m1 m2;
  (* a comment in the middle of the statement is part of the key *)
  ignore (Db.exec sess "SELECT /* mid */ \"Size\" FROM trades");
  let _, m3, _ = Db.stmt_cache_stats () in
  check tint "mid-statement comment is a distinct key" (m2 + 1) m3

(* ------------------------------------------------------------------ *)
(* Engine error log stays bounded (satellite: O(1) truncation)         *)
(* ------------------------------------------------------------------ *)

(* the engine runs the request's analysis: its tokens are what is parsed
   on a miss and what a hit's literals come from, so a text that is not
   Q at all beside them is never lexed *)
let test_engine_reads_analysis () =
  let eng, _ = make_engine ~plan_cache:true () in
  let uncached, _ = make_engine ~plan_cache:false () in
  let q = "select Price from trades where Size>120" in
  let an =
    { (Qlang.Fingerprint.analyze q) with Qlang.Fingerprint.a_src = "\"not q" }
  in
  let outcome () =
    match E.try_run eng an with
    | Ok r ->
        check tbool "same answer as the text" true
          (same_value r.E.value (run uncached q));
        (Option.get (E.last_note eng)).E.pn_cache
    | Error e -> Alcotest.failf "analysis failed: %s" e
  in
  let runs = List.init 3 (fun _ -> outcome ()) in
  check (Alcotest.list Alcotest.string) "miss path, then a hit"
    [ "miss"; "miss"; "hit" ] runs

let test_error_log_bounded () =
  let eng, _ = make_engine ~plan_cache:false () in
  for i = 0 to 249 do
    match
      E.try_run eng
        (Qlang.Fingerprint.analyze (Printf.sprintf "select Nope%d from trades" i))
    with
    | Ok _ -> Alcotest.fail "expected failure"
    | Error _ -> ()
  done;
  let errors = E.recent_errors eng in
  check tbool "bounded to the documented limit" true
    (List.length errors <= 100);
  match errors with
  | (q, _) :: _ ->
      check tbool "newest first" true
        (q = "select Nope249 from trades")
  | [] -> Alcotest.fail "expected recorded errors"

(* ------------------------------------------------------------------ *)
(* Plancache module units                                              *)
(* ------------------------------------------------------------------ *)

let test_signature_classes () =
  let sig_of q =
    PC.signature (Qlang.Fingerprint.analyze q)
  in
  (match sig_of "select Price from trades where Size>0" with
  | None -> ()
  | Some _ -> Alcotest.fail "zero must not be cacheable");
  (match
     ( sig_of "select Price from trades where Size>5",
       sig_of "select Price from trades where Size>5.5" )
   with
  | Some (a, _), Some (b, _) ->
      check tbool "long and float literals get distinct signatures" true
        (a <> b)
  | _ -> Alcotest.fail "both shapes should be cacheable");
  match
    ( sig_of "select from trades where Symbol like \"A*\"",
      sig_of "select from trades where Symbol like \"AB\"" )
  with
  | Some (a, _), Some (b, _) ->
      check tbool "glob and plain strings get distinct signatures" true
        (a <> b)
  | _ -> Alcotest.fail "both string shapes should be cacheable"

let test_lru_eviction () =
  let evicted = ref 0 in
  let pc = PC.create ~on_evict:(fun () -> incr evicted) ~capacity:2 () in
  let key fp =
    {
      PC.k_fingerprint = fp;
      k_signature = "j+";
      k_session = 1;
      k_session_gen = 0;
      k_server_gen = 0;
      k_catalog_gen = 0;
      k_shard_gen = 0;
      k_struct = "";
    }
  in
  PC.store pc (key "a") ~norm:"a" (PC.Uncacheable "test");
  PC.store pc (key "b") ~norm:"b" (PC.Uncacheable "test");
  ignore (PC.find pc (key "a"));
  (* touch a so b is the LRU victim *)
  PC.store pc (key "c") ~norm:"c" (PC.Uncacheable "test");
  check tint "capacity respected" 2 (PC.size pc);
  check tint "one eviction" 1 !evicted;
  check tbool "a survived (recently used)" true (PC.find pc (key "a") <> None);
  check tbool "b evicted" true (PC.find pc (key "b") = None)

let () =
  Alcotest.run "plancache"
    [
      ( "reuse",
        [
          Alcotest.test_case "basic reuse across literals" `Quick
            test_basic_reuse;
          Alcotest.test_case "literal-class collisions" `Quick
            test_collision_literal_classes;
          Alcotest.test_case "bespoke value classes bypass" `Quick
            test_bypass_classes;
          Alcotest.test_case "lexer-rejected text" `Quick
            test_lexer_rejected_text;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "DDL bumps catalog generation" `Quick
            test_invalidate_ddl;
          Alcotest.test_case "variable reassignment" `Quick
            test_invalidate_variable;
          Alcotest.test_case "session promotion" `Quick
            test_invalidate_session_promotion;
        ] );
      ( "analytical",
        [
          Alcotest.test_case "every analytical shape is cached" `Quick
            test_analytical_all_cached;
          Alcotest.test_case "new key classes never share entries" `Quick
            test_new_key_classes;
        ] );
      ( "differential",
        [
          Alcotest.test_case "deep-nested shapes vs uncached" `Quick
            test_deep_nested_differential;
        ] );
      ( "stmt-cache",
        [
          Alcotest.test_case "repeat statements skip the parser" `Quick
            test_stmt_cache_reuse;
          Alcotest.test_case "trailing comment keying" `Quick
            test_stmt_cache_comment_keying;
        ] );
      ( "engine",
        [
          Alcotest.test_case "error log stays bounded" `Quick
            test_error_log_bounded;
          Alcotest.test_case "runs the analysis, not the text" `Quick
            test_engine_reads_analysis;
        ] );
      ( "units",
        [
          Alcotest.test_case "signature classes" `Quick test_signature_classes;
          Alcotest.test_case "integral-float classes" `Quick
            test_signature_integral_floats;
          Alcotest.test_case "in-place sentinel search" `Quick test_naive_find;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
        ] );
    ]
