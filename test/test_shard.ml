(* Sharded execution tests: router classification over hand-built XTRA
   trees, cluster partitioning and DDL/DML mirroring, fan-out overlap
   (every shard inside its backend at once), the full platform
   at --shards 2 (the existing end-to-end suite re-run sharded),
   scatter pruning at 4 shards, the NULL symbol's pin, kdb
   differentials (vector shapes,
   literal tables, count of NULL-bearing columns), the partial-aggregate
   combine against pgdb over the whole table, the rendering of a
   coordinator-side pgdb error, and the plan-cache shard-generation
   regression. *)

module V = Pgdb.Value
module Db = Pgdb.Db
module S = Catalog.Schema
module Ty = Catalog.Sqltype
module QV = Qvalue.Value
module QA = Qvalue.Atom
module P = Platform.Hyperq_platform
module E = Hyperq.Engine
module PC = Hyperq.Plancache
module I = Xtra.Ir
module A = Sqlast.Ast
module SM = Shard.Shardmap
module R = Shard.Router
module C = Shard.Cluster
module MD = Workload.Marketdata
module M = Obs.Metrics

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "query failed: %s" e

(* ------------------------------------------------------------------ *)
(* Router classification                                               *)
(* ------------------------------------------------------------------ *)

let cr n t = { I.cr_name = n; I.cr_type = t }

let trades_cols =
  [
    cr "hq_ord" Ty.TBigint;
    cr "Symbol" Ty.TVarchar;
    cr "Price" Ty.TDouble;
    cr "Size" Ty.TBigint;
  ]

let trades_get =
  I.Get { table = "trades"; cols = trades_cols; ordcol = Some "hq_ord" }

let smap ?(shards = 4) () =
  let m = SM.create ~shards ~distributions:[ ("trades", "Symbol") ] in
  SM.add_replicated m "secmaster";
  m

let root_sort rel oc =
  I.Sort { input = rel; keys = [ { I.sk_expr = I.ColRef oc; sk_dir = `Asc } ] }

let test_route_merge () =
  match R.route (smap ()) (root_sort trades_get "hq_ord") with
  | R.Run (R.Merge (_, [ ("hq_ord", `Asc) ]), [ 0; 1; 2; 3 ]) -> ()
  | _ -> Alcotest.fail "order-column sort should scatter as merge"

let test_route_single () =
  let m = smap () in
  let filtered pred = I.Filter { input = trades_get; pred } in
  let eqs =
    [
      I.NullSafeEq (I.ColRef "Symbol", I.Const (A.Str "AAA", Ty.TVarchar));
      I.NullSafeEq (I.Const (A.Str "AAA", Ty.TVarchar), I.ColRef "Symbol");
    ]
  in
  List.iter
    (fun pred ->
      match R.route m (root_sort (filtered pred) "hq_ord") with
      | R.Run (R.Single (s, _), _) ->
          check tint "pinned to the hash shard"
            (SM.shard_of_value m (V.Str "AAA"))
            s
      | _ -> Alcotest.fail "distribution-key equality should pin one shard")
    eqs;
  (* a number beyond 2^53 equals values of other key classes, so it
     does not pin *)
  List.iter
    (fun (l, ty) ->
      match
        R.route m
          (root_sort
             (filtered (I.NullSafeEq (I.ColRef "Symbol", I.Const (l, ty))))
             "hq_ord")
      with
      | R.Run (R.Merge _, _) -> ()
      | _ -> Alcotest.fail "non-pinnable literal should fall back to scatter")
    [
      (A.Float 9007199254740994.0, Ty.TDouble);
      (A.Int 9007199254740993L, Ty.TBigint);
    ]

let test_route_partial_agg () =
  let agg =
    I.Aggregate
      {
        input = trades_get;
        keys = [ ("Symbol", I.ColRef "Symbol") ];
        aggs =
          [
            ("mx", I.AggFun { fn = "max"; distinct = false; args = [ I.ColRef "Price" ] });
            ("ap", I.AggFun { fn = "avg"; distinct = false; args = [ I.ColRef "Price" ] });
            (* the binder's Q-sum form: coalesce(SUM(x), 0) *)
            ( "sz",
              I.ScalarFun
                ( "coalesce",
                  [
                    I.AggFun
                      { fn = "sum"; distinct = false; args = [ I.ColRef "Size" ] };
                    I.Const (A.Int 0L, Ty.TBigint);
                  ] ) );
          ];
      }
  in
  match R.route (smap ()) (root_sort agg "Symbol") with
  | R.Run (R.PartialAgg plan, _) -> (
      check tbool "re-sorted on the group key" true
        (plan.R.a_sort = [ ("Symbol", `Asc) ]);
      match plan.R.a_cols with
      | [
       ("Symbol", R.CKey); ("mx", R.CMax); ("ap", R.CAvg (s, c)); ("sz", R.CSum);
      ] ->
          check tbool "hidden avg partials" true
            (s = "hq_ps_ap" && c = "hq_pc_ap")
      | _ -> Alcotest.fail "unexpected combine plan")
  | _ -> Alcotest.fail "decomposable aggregate should scatter as partial-agg"

(* an IN list on the distribution column whose members hash to a proper
   shard subset prunes the scatter to that subset; no workload feedback
   is consulted *)
let test_route_pruned_scatter () =
  let m = smap () in
  let shard_of s = SM.shard_of_value m (V.Str s) in
  (* two symbols on distinct shards, and one sharing the first's *)
  let syms = List.init 64 (fun i -> Printf.sprintf "S%d" i) in
  let a = List.hd syms in
  let b = List.find (fun s -> shard_of s <> shard_of a) syms in
  let in_pred members =
    I.Filter
      {
        input = trades_get;
        pred =
          I.InList
            ( I.ColRef "Symbol",
              List.map (fun s -> (A.Str s, Ty.TVarchar)) members );
      }
  in
  let expected = List.sort_uniq compare [ shard_of a; shard_of b ] in
  let route = R.route m (in_pred [ a; b ]) in
  (match route with
  | R.Run (R.Concat _, targets) ->
      check tbool "pruned to the members' shards" true (targets = expected)
  | _ -> Alcotest.fail "a proper-subset IN list should prune the scatter");
  let x = R.explain_route ~shards:4 route in
  check tbool "explain marks the prune" true x.R.x_pruned;
  check tbool "explain carries the subset" true (x.R.x_targets = expected);
  (* all members on one shard still pins *)
  let a' = List.find (fun s -> s <> a && shard_of s = shard_of a) syms in
  match R.route m (in_pred [ a; a' ]) with
  | R.Run (R.Single (s, _), _) ->
      check tint "same-shard IN list pins" (shard_of a) s
  | _ -> Alcotest.fail "single-shard IN list should pin"

let test_route_coordinator () =
  let m = smap () in
  let coordinator rel =
    match R.route m rel with
    | R.Coordinator _ -> true
    | R.Run _ -> false
  in
  check tbool "limit stays on the coordinator" true
    (coordinator (I.Limit { input = trades_get; n = 5 }));
  check tbool "unknown table stays on the coordinator" true
    (coordinator
       (I.Get { table = "hq_temp_1"; cols = trades_cols; ordcol = None }));
  check tbool "replicated-only statement stays on the coordinator" true
    (coordinator
       (I.Get
          { table = "secmaster"; cols = [ cr "Symbol" Ty.TVarchar ]; ordcol = None }));
  check tbool "distinct aggregate stays on the coordinator" true
    (coordinator
       (I.Aggregate
          {
            input = trades_get;
            keys = [];
            aggs =
              [
                ( "n",
                  I.AggFun
                    { fn = "count"; distinct = true; args = [ I.ColRef "Symbol" ] }
                );
              ];
          }))

(* ------------------------------------------------------------------ *)
(* Cluster: partitioning and DDL/DML mirroring                         *)
(* ------------------------------------------------------------------ *)

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
         [|
           V.Int (Int64.of_int i); V.Str sym; V.Float px;
           V.Int (Int64.of_int sz);
         |])
       [
         ("A", 10.0, 100);
         ("B", 20.0, 200);
         ("A", 11.0, 150);
         ("B", 21.0, 250);
         ("A", 12.0, 300);
       ]);
  db

let with_cluster ?(shards = 2) db f =
  let c = C.create ~shards db in
  Fun.protect ~finally:(fun () -> C.shutdown c) (fun () -> f c)

let test_cluster_partitions_rows () =
  with_cluster (make_db ()) (fun c ->
      let infos = C.shards_info c in
      check tint "two shards" 2 (List.length infos);
      let total =
        List.fold_left (fun n i -> n + i.C.si_rows) 0 infos
      in
      check tint "every trade lands on exactly one shard" 5 total;
      (* all of one symbol's rows share a shard *)
      let m = C.map c in
      check tbool "symbols hash consistently" true
        (SM.shard_of_value m (V.Str "A") <> SM.shard_of_value m (V.Str "B")
        || List.exists (fun i -> i.C.si_rows = 0) infos))

let test_cluster_mirrors_ddl () =
  let db = make_db () in
  with_cluster db (fun c ->
      let backend = Hyperq.Backend.of_pgdb_session (Db.open_session db) in
      C.watch_backend c backend;
      let gen0 = C.generation c in
      let exec sql =
        match Hyperq.Backend.exec backend sql with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s failed: %s" sql e
      in
      exec "CREATE TABLE refdata (k BIGINT, v TEXT)";
      check tbool "created table is replicated" true
        (SM.is_replicated (C.map c) "refdata");
      check tbool "layout change bumps the generation" true
        (C.generation c > gen0);
      exec "INSERT INTO refdata VALUES (1, 'x'), (2, 'y')";
      List.iter
        (fun i ->
          check tbool "replicated insert reaches every shard" true
            (List.mem "refdata" i.C.si_tables))
        (C.shards_info c);
      let rows_before =
        List.fold_left (fun n i -> n + i.C.si_rows) 0 (C.shards_info c)
      in
      (* 5 distributed trades + 2 refdata rows per shard *)
      check tint "rows after replicated insert" (5 + (2 * 2)) rows_before;
      exec
        "INSERT INTO trades (hq_ord, Symbol, Price, Size) VALUES (10, 'A', \
         13.0, 50)";
      let rows_after =
        List.fold_left (fun n i -> n + i.C.si_rows) 0 (C.shards_info c)
      in
      check tint "distributed insert lands on exactly one shard"
        (rows_before + 1) rows_after;
      (* a mutation the mirror cannot replay evicts the table *)
      let gen1 = C.generation c in
      ignore (Hyperq.Backend.exec backend "DELETE FROM trades");
      check tbool "unmirrorable mutation evicts the table" true
        (not (SM.known (C.map c) "trades"));
      check tbool "eviction bumps the generation" true (C.generation c > gen1))

(* CREATE TABLE IF NOT EXISTS and DROP TABLE IF EXISTS mirror under
   the table's own name, not under the IF keyword *)
let test_cluster_mirrors_if_exists () =
  let db = make_db () in
  with_cluster db (fun c ->
      let backend = Hyperq.Backend.of_pgdb_session (Db.open_session db) in
      C.watch_backend c backend;
      let exec sql =
        match Hyperq.Backend.exec backend sql with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s failed: %s" sql e
      in
      let on_shards name =
        List.filter (fun i -> List.mem name i.C.si_tables) (C.shards_info c)
        |> List.length
      in
      exec "CREATE TABLE IF NOT EXISTS refdata (k BIGINT)";
      check tbool "created table is replicated" true
        (SM.is_replicated (C.map c) "refdata");
      check tbool "no table named if" false (SM.known (C.map c) "if");
      check tint "every shard holds it" 2 (on_shards "refdata");
      exec "CREATE TABLE IF NOT EXISTS refdata (k BIGINT)";
      check tbool "a second create keeps it replicated" true
        (SM.is_replicated (C.map c) "refdata");
      exec "DROP TABLE IF EXISTS refdata";
      check tbool "dropped table evicted" false (SM.known (C.map c) "refdata");
      check tint "no shard holds it" 0 (on_shards "refdata"));
  List.iter
    (fun (sql, expect) ->
      check tbool sql true (Hyperq.Backend.classify sql = expect))
    Hyperq.Backend.
      [
        ( "CREATE TABLE IF NOT EXISTS T(a bigint)",
          Create { temp = false; table = Some "t"; as_query = false } );
        ( "create temp table x as select 1",
          Create { temp = true; table = Some "x"; as_query = true } );
        ( "CREATE VIEW v AS SELECT 1",
          Create { temp = false; table = None; as_query = false } );
        ("  DROP TABLE IF EXISTS t;", Drop (Some "t"));
        ("DROP VIEW v", Drop None);
        ("ALTER TABLE IF EXISTS t ADD c bigint", Alter (Some "t"));
        ("INSERT INTO t VALUES (1)", Insert "t");
        ("UPDATE t SET a = 1", Mutate "t");
        ("DELETE FROM t", Mutate "t");
        ("TRUNCATE TABLE t", Mutate "t");
        ("TRUNCATE t", Mutate "t");
        ("SELECT * FROM t /* create table */", Other);
        ("", Other);
      ]

(* Fan-out overlap. Each shard backend's [exec] waits on a cyclic
   N-party barrier, so a scatter completes only if every shard is
   inside [exec] at once. A pool that dispatched shards one at a time
   would leave the first shard waiting alone until the timeout, on any
   core count: the check needs no wall-clock ratio. *)
let test_fanout_overlaps () =
  let shards = 4 in
  let arrived = Atomic.make 0 and timed_out = Atomic.make false in
  let barrier () =
    let round = Atomic.fetch_and_add arrived 1 / shards in
    let start = Obs.Clock.now_ns () in
    while Atomic.get arrived < (round + 1) * shards && not (Atomic.get timed_out)
    do
      if Obs.Clock.seconds_since start > 5.0 then Atomic.set timed_out true
      else Unix.sleepf 0.0005
    done
  in
  let make_backend ~shard_id:_ ~obs:_ sess =
    let b = Hyperq.Backend.of_pgdb_session sess in
    { b with exec = (fun sql -> barrier (); b.exec sql) }
  in
  let db = make_db () in
  let obs = Obs.Ctx.create () in
  let c = C.create ~shards ~make_backend ~obs db in
  Fun.protect ~finally:(fun () -> C.shutdown c) (fun () ->
      let eng =
        E.create ~sharder:(C.sharder c) ~obs
          (Hyperq.Backend.of_pgdb_session (Db.open_session db))
      in
      for _ = 1 to 3 do
        match
          E.try_run eng
            (Qlang.Fingerprint.analyze "select mx:max Price by Symbol from trades")
        with
        | Ok { E.value = Some (QV.KTable (_, v)); _ } ->
            check tbool "grouped max across shards" true
              (QV.equal (QV.column_exn v "mx") (QV.floats [| 12.0; 21.0 |]))
        | Ok _ -> Alcotest.fail "expected a keyed table"
        | Error e -> Alcotest.failf "scatter failed: %s" e
      done;
      check tbool "every shard was inside exec at once" false
        (Atomic.get timed_out);
      check tint "one barrier round per scatter" (3 * shards)
        (Atomic.get arrived))

(* A pgdb error raised by the coordinator's combine reads like one a
   shard reports: here one shard's partial min is text and the other's a
   number, which pgdb's min cannot compare. *)
let test_coordinator_error () =
  let column v = Pgdb.Batch.column_of_values [| v |] in
  let make_backend ~shard_id ~obs:_ sess =
    let b = Hyperq.Backend.of_pgdb_session sess in
    let mn = if shard_id = 0 then V.Float 1.0 else V.Str "x" in
    let partial =
      {
        Pgdb.Exec.res_cols = [ ("Symbol", Ty.TVarchar); ("mn", Ty.TDouble) ];
        res_nrows = 1;
        res_columns = [| column (V.Str "A"); column mn |];
      }
    in
    { b with exec = (fun _ -> Ok (Hyperq.Backend.Result_set partial)) }
  in
  let c = C.create ~shards:2 ~make_backend (make_db ()) in
  Fun.protect ~finally:(fun () -> C.shutdown c) (fun () ->
      let min_price =
        I.AggFun { fn = "min"; distinct = false; args = [ I.ColRef "Price" ] }
      in
      let plan =
        {
          R.a_shard_rel =
            I.Aggregate
              {
                input = trades_get;
                keys = [ ("Symbol", I.ColRef "Symbol") ];
                aggs = [ ("mn", min_price) ];
              };
          a_cols = [ ("Symbol", R.CKey); ("mn", R.CMin) ];
          a_sort = [];
        }
      in
      match C.execute c (R.PartialAgg plan) ~targets:[ 0; 1 ] with
      | Ok _ -> Alcotest.fail "min over text and a number should fail"
      | Error e ->
          check Alcotest.string "rendered as a pgdb error"
            "ERROR 42804: cannot order text against a non-text value" e)

(* ------------------------------------------------------------------ *)
(* The platform end-to-end at --shards 2                               *)
(* ------------------------------------------------------------------ *)

let with_platform ?shards ?workers ?distributions db f =
  let p = P.create ?shards ?workers ?distributions db in
  Fun.protect ~finally:(fun () -> P.shutdown p) (fun () -> f p)

(* A row's shard is its key's class under Exec.gkey_of. Over a double
   distribution key holding 1.0 .. 20.0, the int literal k pins the
   shard of the row k.0, so every point query answers as the single
   backend does; text keys keep the shard of their string's hash. *)
let test_pins_by_key_class () =
  let db = Db.create () in
  Db.load_table db
    (S.table ~order_col:"hq_ord" "m"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "k" Ty.TDouble;
         S.column "v" Ty.TBigint;
       ])
    (List.init 20 (fun i ->
         [| V.Int (Int64.of_int i); V.Float (float_of_int (i + 1));
            V.Int (Int64.of_int (i + 1)) |]));
  with_platform ~shards:4 ~distributions:[ ("m", "k") ] db (fun p ->
      let c = P.Client.connect p in
      for k = 1 to 20 do
        let q = Printf.sprintf "select v from m where k=%d" k in
        match ok (P.Client.query c q) with
        | QV.Table t ->
            check tbool q true
              (QV.equal (QV.column_exn t "v") (QV.longs [| k |]))
        | v -> Alcotest.failf "%s: %s" q (Qvalue.Qprint.to_string v)
      done;
      P.Client.close c);
  let m = SM.create ~shards:4 ~distributions:[ ("m", "k") ] in
  for k = 1 to 20 do
    check tint
      (Printf.sprintf "literals %d and %d.0 pin row %d.0's shard" k k k)
      (SM.shard_of_value m (V.Float (float_of_int k)))
      (SM.shard_of_lit m (A.Int (Int64.of_int k)));
    check tint
      (Printf.sprintf "the float literal %d.0" k)
      (SM.shard_of_value m (V.Float (float_of_int k)))
      (SM.shard_of_lit m (A.Float (float_of_int k)))
  done;
  check tint "-0.0 and 0 share a shard"
    (SM.shard_of_value m (V.Int 0L))
    (SM.shard_of_value m (V.Float (-0.0)));
  (* FNV-1a of the string itself, as every earlier placement hashed
     text: the shards hold the same text keys as before *)
  List.iter
    (fun (s, shard) ->
      check tint ("text " ^ s) shard (SM.shard_of_value m (V.Str s));
      check tint ("text literal " ^ s) shard (SM.shard_of_lit m (A.Str s)))
    [ ("A", 0); ("B", 1); ("AAA", 2); ("MSFT", 3); ("5", 0); ("", 1) ]

(* The Q null symbol is SQL NULL: at 2 and 4 shards, Symbol=` pins the
   shard Cluster.shard_selections gave the NULL keys and answers their
   rows, and an in list holding it reaches that shard too *)
let test_null_symbol_pin () =
  let db = Db.create () in
  Db.load_table db
    (S.table ~order_col:"hq_ord" "trades"
       [
         S.column "hq_ord" Ty.TBigint; S.column "Symbol" Ty.TVarchar;
         S.column "Price" Ty.TDouble;
       ])
    (List.mapi
       (fun i sym ->
         [| V.Int (Int64.of_int i); sym; V.Float (float_of_int (i + 1)) |])
       [ V.Str "A"; V.Null; V.Str "B"; V.Null; V.Str "C"; V.Str "D" ]);
  let nulls = Hashtbl.find db.Db.tables "trades" in
  List.iter
    (fun shards ->
      with_platform ~shards db (fun p ->
          let cluster = Option.get (P.cluster p) in
          let sels =
            C.shard_selections (C.map cluster)
              nulls.Pgdb.Storage.batch.Pgdb.Batch.cols.(1) 6
          in
          let owner = List.find (fun k -> Array.mem 1 sels.(k)) (List.init shards Fun.id) in
          check tbool "both NULL keys on one shard" true (Array.mem 3 sels.(owner));
          let c = P.Client.connect p in
          List.iter
            (fun (q, prices) ->
              (match ok (P.Client.query c q) with
              | QV.Table t ->
                  check tbool q true
                    (QV.equal (QV.column_exn t "Price") (QV.floats prices))
              | v -> Alcotest.failf "%s: %s" q (Qvalue.Qprint.to_string v));
              match C.last_route cluster with
              | Some x ->
                  check (Alcotest.list tint)
                    (Printf.sprintf "%s at %d shards: targets" q shards)
                    [ owner ] x.R.x_targets
              | None -> Alcotest.failf "%s: no route recorded" q)
            [
              ("select Price from trades where Symbol=`", [| 2.0; 4.0 |]);
              ("select Price from trades where null Symbol", [| 2.0; 4.0 |]);
            ];
          P.Client.close c))
    [ 2; 4 ]

let test_sharded_platform_end_to_end () =
  with_platform ~shards:2 (make_db ()) (fun p ->
      let c = P.Client.connect p in
      (* router-able: distribution-key equality *)
      (match ok (P.Client.query c "select Price from trades where Symbol=`A") with
      | QV.Table t ->
          check tbool "pinned select values" true
            (QV.equal (QV.column_exn t "Price") (QV.floats [| 10.0; 11.0; 12.0 |]))
      | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
      (* scatter-gather: grouped aggregate with coordinator recombination *)
      (match ok (P.Client.query c "select mx:max Price by Symbol from trades") with
      | QV.KTable (_, v) ->
          check tbool "grouped max across shards" true
            (QV.equal (QV.column_exn v "mx") (QV.floats [| 12.0; 21.0 |]))
      | v -> Alcotest.failf "expected keyed table, got %s" (Qvalue.Qprint.to_string v));
      (* scatter-gather: ordered merge on the implicit order column *)
      (match ok (P.Client.query c "select Symbol from trades") with
      | QV.Table t ->
          check tbool "merge preserves global order" true
            (QV.equal (QV.column_exn t "Symbol")
               (QV.syms [| "A"; "B"; "A"; "B"; "A" |]))
      | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
      (* errors still travel as QIPC errors *)
      (match P.Client.query c "select nope from missing_table" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected an error");
      (* the route metrics saw both classes *)
      let reg = (P.obs p).Obs.Ctx.registry in
      let routed r =
        M.counter_value
          (M.counter reg ~labels:[ ("route", r) ] "hq_shard_queries_total")
      in
      check tbool "router route counted" true (routed "router" >= 1);
      check tbool "scatter route counted" true (routed "scatter" >= 1);
      (* .hq.shards answers in-band with per-shard dispatch counts *)
      (match ok (P.Client.query c ".hq.shards") with
      | QV.Table t ->
          check tint ".hq.shards rows" 2 (QV.table_length t);
          let statements =
            match QV.column_exn t "statements" with
            | QV.Vector _ as v ->
                Array.fold_left
                  (fun n x -> match x with QA.Long i -> n + Int64.to_int i | _ -> n)
                  0 (QV.atoms_exn v)
            | _ -> 0
          in
          check tbool "shards saw dispatches" true (statements > 0)
      | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
      P.Client.close c)

(* pruning through the full stack, 4 shards: an IN list on the
   distribution column dispatches every scatter class only to the shards
   its members hash to, and each answer equals the 1-node answer and
   kdb's *)
let test_pruned_dispatch_end_to_end () =
  let d = MD.generate MD.small_scale in
  let kdb = Kdb.Server.create () in
  List.iter (fun (name, v) -> Kdb.Server.load kdb name v) (MD.q_tables d);
  let load () =
    let db = Db.create () in
    MD.load_pg db d;
    db
  in
  let single_db = load () and db = load () in
  with_platform single_db (fun single ->
      with_platform ~shards:4 db (fun p ->
          let one = P.Client.connect single in
          let c = P.Client.connect p in
          let cluster = Option.get (P.cluster p) in
          let shard_of s = SM.shard_of_value (C.map cluster) (V.Str s) in
          (* the declared column types of a query's gathered result, and
             of the single backend's result for the same SQL: the pivot
             reads most cells by their layout, so a wrong declared type
             can hide behind equal Q values *)
          let gathered = ref None in
          let sharded =
            let sh = C.sharder cluster in
            E.create
              (Hyperq.Backend.of_pgdb_session (Db.open_session db))
              ~sharder:
                {
                  sh with
                  E.sh_route =
                    (fun rel ->
                      Option.map
                        (fun run () ->
                          let r = run () in
                          gathered := Result.to_option r;
                          r)
                        (sh.E.sh_route rel));
                }
          in
          let plain =
            E.create (Hyperq.Backend.of_pgdb_session (Db.open_session single_db))
          in
          let col_types q =
            let names cols = List.map (fun (n, ty) -> (n, Ty.name ty)) cols in
            gathered := None;
            ignore (ok (E.try_run sharded (Qlang.Fingerprint.analyze q)));
            let got =
              match !gathered with
              | Some r -> names r.Hyperq.Backend.res_cols
              | None -> Alcotest.failf "%s: the sharder did not gather" q
            in
            match Db.exec (Db.open_session single_db) (E.translate plain q) with
            | Db.Rows (res, _) -> (names res.Pgdb.Exec.res_cols, got)
            | Db.Complete tag -> Alcotest.failf "%s: no rows (%s)" q tag
          in
          let syms = Array.to_list d.MD.syms in
          let a = List.hd syms in
          let b = List.find (fun s -> shard_of s <> shard_of a) syms in
          let members = Printf.sprintf "`%s`%s" a b in
          let expected = List.sort_uniq compare [ shard_of a; shard_of b ] in
          let statements () =
            List.map (fun i -> i.C.si_statements) (C.shards_info cluster)
          in
          let pruned_total () =
            M.counter_value
              (M.counter (P.obs p).Obs.Ctx.registry
                 "hq_shard_pruned_scatters_total")
          in
          List.iter
            (fun (cls, q) ->
              let before = statements () and pruned = pruned_total () in
              let hq = ok (P.Client.query c q) in
              let hit =
                List.filteri
                  (fun i _ -> List.nth (statements ()) i > List.nth before i)
                  (List.init 4 Fun.id)
              in
              check (Alcotest.list tint) (q ^ ": only the members' shards")
                expected hit;
              (match C.last_route cluster with
              | Some x ->
                  check Alcotest.string (q ^ ": route class") cls
                    x.R.x_class;
                  check tbool (q ^ ": explain marks the prune") true
                    x.R.x_pruned
              | None -> Alcotest.failf "%s: no route recorded" q);
              check tbool (q ^ ": pruned scatter counted") true
                (pruned_total () = pruned + 1);
              (let one_node = ok (P.Client.query one q) in
               check (Alcotest.option Alcotest.string)
                 (q ^ ": equals the 1-node answer") None
                 (match Sidebyside.Framework.values_agree one_node hq with
                 | None -> Sidebyside.Framework.types_agree one_node hq
                 | d -> d));
              (let expected, got = col_types q in
               check
                 Alcotest.(list (pair string string))
                 (q ^ ": column types of the 1-node answer") expected got);
              match Kdb.Server.query kdb ~client:0 q with
              | Error e -> Alcotest.failf "kdb failed on %s: %s" q e
              | Ok k -> (
                  match Sidebyside.Framework.values_agree k hq with
                  | None -> ()
                  | Some why -> Alcotest.failf "%s differs from kdb: %s" q why))
            (List.map
               (fun (cls, q) -> (cls, Printf.sprintf q members))
               [
                 ("merge", "select from trades where Symbol in %s");
                 ( "partial_agg",
                   "select n:count Size, s:sum Size, a:avg Price, lo:min Price, \
                    hi:max Price by Symbol from trades where Symbol in %s" );
                 ( "partial_agg",
                   "select n:count Size, s:sum Size, a:avg Price, lo:min Price, \
                    hi:max Price from trades where Symbol in %s" );
                 ( "merge",
                   "select Symbol, Time, Price from trades where Symbol in %s, \
                    Size>0" );
               ]
            (* the lower of the two target shards returns no rows: its
               computed column comes back untyped, and the other shard's
               type must win in the coordinator's merge *)
            @ [
                ( "merge",
                  Printf.sprintf
                    "select Symbol, Time, v:Price*Size from trades where \
                     Symbol in %s, Symbol<>`%s"
                    members
                    (if shard_of a < shard_of b then a else b) );
              ]);
          P.Client.close c;
          P.Client.close one))

let marketdata_db () =
  let db = Db.create () in
  MD.load_pg db (MD.generate MD.small_scale);
  db

(* an unsorted scan scatters as concat, and its rows, as a multiset, are
   the single backend's *)
let test_route_concat () =
  (match R.route (smap ()) trades_get with
  | R.Run (R.Concat _, [ 0; 1; 2; 3 ]) -> ()
  | _ -> Alcotest.fail "bare distributed scan should scatter as concat");
  let db = marketdata_db () in
  let sess = Db.open_session db in
  with_cluster db (fun c ->
      List.iter
        (fun (name, rel) ->
          let single =
            match Db.exec sess (Hyperq.Serializer.serialize_to_sql rel) with
            | Db.Rows (res, _) -> res
            | Db.Complete tag -> Alcotest.failf "%s: no rows (%s)" name tag
          in
          let routed =
            match (C.sharder c).E.sh_route rel with
            | Some run -> ok (run ())
            | None -> Alcotest.failf "%s: the sharder declined" name
          in
          (match C.last_route c with
          | Some x -> check Alcotest.string (name ^ ": route") "concat" x.R.x_class
          | None -> Alcotest.failf "%s: no route recorded" name);
          let sorted res = List.sort compare (Array.to_list (Stored.result_rows res)) in
          check tbool (name ^ ": rows") true (sorted single <> []);
          check tbool (name ^ ": same rows as the single backend") true
            (sorted single = sorted routed))
        [
          ("scan", trades_get);
          ( "filter",
            I.Filter
              {
                input = trades_get;
                pred = I.Cmp (`Gt, I.ColRef "Price", I.Const (A.Float 100.0, Ty.TDouble));
              } );
        ])


(* trades with NULL prices and sizes, loaded alike into a pgdb database
   ([load] makes a fresh one) and the kdb interpreter *)
let nulls_fixture () =
  let n = 12 in
  let vec ty f = QV.vector ty (Array.init n f) in
  let trades =
    QV.Table
      (QV.table
         [
           ("Symbol", vec Qvalue.Qtype.Sym (fun i -> QA.Sym [| "A"; "B"; "C" |].(i mod 3)));
           ( "Price",
             vec Qvalue.Qtype.Float (fun i ->
                 if i mod 5 = 2 then QA.Null Qvalue.Qtype.Float
                 else QA.Float (100.0 +. float_of_int i)) );
           ( "Size",
             vec Qvalue.Qtype.Long (fun i ->
                 if i mod 4 = 1 then QA.Null Qvalue.Qtype.Long
                 else QA.Long (Int64.of_int (10 * i))) );
         ])
  in
  let kdb = Kdb.Server.create () in
  Kdb.Server.load kdb "trades" trades;
  ( (fun () ->
      let db = Db.create () in
      Qgen.load_pg db "trades" trades;
      db),
    kdb )

(* the market data, loaded alike *)
let marketdata_fixture (d : MD.dataset) =
  let kdb = Kdb.Server.create () in
  List.iter (fun (name, v) -> Kdb.Server.load kdb name v) (MD.q_tables d);
  ( (fun () ->
      let db = Db.create () in
      MD.load_pg db d;
      db),
    kdb )

(* each query's answer on one node and on 2 shards equals kdb's; on 2
   shards, when [route] is given, the statement takes that route class.
   [after] then runs on each platform's client *)
let against_kdb ?route ?(after = ignore) (load, kdb) queries =
  List.iter
    (fun shards ->
      with_platform ?shards (load ()) (fun p ->
          let c = P.Client.connect p in
          let where =
            match shards with
            | Some k -> Printf.sprintf " (%d shards)" k
            | None -> ""
          in
          List.iter
            (fun q ->
              let hq =
                match P.Client.query c q with
                | Ok v -> v
                | Error e -> Alcotest.failf "%s%s: %s" q where e
              in
              (match (P.cluster p, route) with
              | Some cluster, Some route -> (
                  match C.last_route cluster with
                  | Some x ->
                      check Alcotest.string (q ^ where ^ ": route") route
                        x.R.x_class
                  | None -> Alcotest.failf "%s%s: no route" q where)
              | _ -> ());
              match Kdb.Server.query kdb ~client:0 q with
              | Error e -> Alcotest.failf "kdb failed on %s: %s" q e
              | Ok k -> (
                  match Sidebyside.Framework.values_agree k hq with
                  | None -> ()
                  | Some why ->
                      Alcotest.failf "%s%s differs from kdb: %s" q where why))
            queries;
          after c;
          P.Client.close c))
    [ None; Some 2 ]

(* ------------------------------------------------------------------ *)
(* Q literal tables: inlined as a derived table, checked against kdb   *)
(* ------------------------------------------------------------------ *)

(* every column type the binder emits for a literal (symbol, long,
   float, bool, date, time, timestamp), with NULL cells, zero rows,
   used through lj, through ij and as a from source, and one ~1,000-row
   table keyed on Size *)
let literal_table_queries (d : MD.dataset) : string list =
  let sym i = d.MD.syms.(i mod Array.length d.MD.syms) in
  let all_types =
    "([] s:`a``c; l:1 0N 3; f:1.5 0n 2.5; b:101b; d:2016.06.26 0Nd \
     2016.06.28; t:09:30:00.000 0Nt 10:00:00.000; p:2016.06.26D09:30:00.000000000 \
     0Np 2016.06.27D10:00:00.000000000)"
  in
  let big =
    Printf.sprintf "([Size:%s] w:%s)"
      (String.concat " " (List.init 1000 (fun i -> string_of_int (100 * i))))
      (String.concat " " (List.init 1000 (fun i -> string_of_int (i mod 7))))
  in
  [
    Printf.sprintf
      "select Symbol, Time, Price, w from (trades lj ([Symbol:`%s`%s] \
       w:1.5 2.5)) where Symbol in `%s`%s`%s"
      (sym 0) (sym 1) (sym 0) (sym 1) (sym 2);
    Printf.sprintf
      "select Symbol, Time, Price, w, c from (trades lj ([Symbol:`%s`%s`%s] \
       w:1 0N 3; c:`x``z)) where Symbol in `%s`%s`%s"
      (sym 0) (sym 1) (sym 2) (sym 0) (sym 1) (sym 2);
    Printf.sprintf
      "select Symbol, Price, w from trades ij ([Symbol:`%s`%s] w:10 20)"
      (sym 1) (sym 3);
    Printf.sprintf
      "select n:count Price, c:count w, w:max w by Symbol from trades ij \
       ([Symbol:`%s`%s; Exch:`N`A] w:1.5 0n)"
      (sym 0) (sym 2);
    "select from " ^ all_types;
    "select s, d, t, p from " ^ all_types ^ " where l>1";
    "select n:count l, mx:max f, lo:min d from " ^ all_types;
    "select from ([] a:`x`y`z; b:1 0N 3)";
    "select from ([] a:(); b:())";
    "select Symbol, Price from trades ij ([Symbol:()] w:())";
    "select Symbol, Price, w from trades lj ([Symbol:()] w:())";
    "select n:count Price, s:sum w by Symbol from trades lj " ^ big;
    "select n:count w, s:sum w from " ^ big;
  ]

(* the coordinator's statements for one literal join: exactly one
   SELECT, so no session temp table is created or loaded *)
let check_one_select (c : P.Client.client) (q : string) =
  let backend =
    (E.mdi (Platform.Xc.engine c.P.Client.conn.P.xc)).Hyperq.Mdi.backend
  in
  ignore (ok (P.Client.query c q));
  let sent = ref [] in
  let prev = !(backend.Hyperq.Backend.on_exec) in
  (backend.Hyperq.Backend.on_exec :=
     fun sql ->
       prev sql;
       sent := sql :: !sent);
  let mark = Hyperq.Backend.log_mark backend in
  ignore (ok (P.Client.query c q));
  backend.Hyperq.Backend.on_exec := prev;
  check tint (q ^ ": one backend statement") 1
    (Hyperq.Backend.log_mark backend - mark);
  List.iter
    (fun sql ->
      check tbool (q ^ ": a SELECT") true
        (String.length sql > 7 && String.sub sql 0 7 = "SELECT "))
    !sent

let test_literal_tables_against_kdb () =
  let queries = literal_table_queries (MD.generate MD.small_scale) in
  against_kdb
    ~after:(fun c ->
      check_one_select c (List.hd queries);
      check_one_select c (List.nth queries 2))
    (marketdata_fixture (MD.generate MD.small_scale))
    queries

(* Q queries whose SQL needs the window operator, derived tables or a
   residual join: moving average and deltas (windows), fby (a window
   over a derived table), as-of join (left join + residual +
   row_number) and a chained lj (nested derived tables). Through a
   2-shard platform each must agree with the kdb interpreter. So must
   an atom on the right of in, which binds as a one-item list and so
   pins its symbol's shard. *)
let test_vector_shapes_against_kdb () =
  let d = MD.generate MD.small_scale in
  let sym i = d.MD.syms.(i mod Array.length d.MD.syms) in
  against_kdb (marketdata_fixture d)
    [
      Printf.sprintf "select Time, m:5 mavg Price from trades where Symbol=`%s"
        (sym 1);
      Printf.sprintf "select Time, x:deltas Price from trades where Symbol=`%s"
        (sym 2);
      "select from trades where Time<09:40:00.000, Price=(max;Price) fby \
       Symbol";
      Printf.sprintf
        "aj[`Symbol`Time; select Symbol, Time, Price from trades where \
         Symbol=`%s, Time<09:40:00.000; select Symbol, Time, Bid from quotes \
         where Symbol=`%s]"
        (sym 0) (sym 0);
      "select qty:sum Size by Sector from (trades lj secmaster_w) lj risk_w";
    ];
  against_kdb ~route:"single" (marketdata_fixture d)
    [
      Printf.sprintf "select from trades where Symbol in `%s" (sym 3);
      Printf.sprintf "select n:count Price by Exch from trades where \
                      Symbol in `%s" (sym 4);
    ]

(* Q's count counts every item, NULLs included; SQL's COUNT(x) skips
   them. Plain, by and (on 2 shards) through the partial-aggregate
   combine, each answer must equal kdb's. avg keeps skipping NULLs. *)
let test_count_with_nulls_against_kdb () =
  against_kdb ~route:"partial_agg" (nulls_fixture ())
    [
      "select n:count Size from trades";
      "select n:count Size, p:count Price, a:avg Size by Symbol from trades";
      "select n:count Price, a:avg Price from trades where Symbol in `A`B";
    ]

(* Q's count distinct counts NULL as one distinct value; SQL's
   COUNT(DISTINCT x) skips it. Plain and by, on one node and on 2
   shards, each answer must equal kdb's, with groups that hold a NULL
   and groups that do not. *)
let test_count_distinct_with_nulls_against_kdb () =
  against_kdb (nulls_fixture ())
    [
      "select n:count distinct Size from trades";
      "select n:count distinct Size, p:count distinct Price by Symbol from \
       trades";
      "select n:count distinct Price from trades where Symbol in `A`C";
      "select n:count distinct Size by Symbol from trades where Size > 50";
    ]

(* ------------------------------------------------------------------ *)
(* Partial-aggregate combine against pgdb over the whole table         *)
(* ------------------------------------------------------------------ *)

(* key and value columns of the combine fixture, each with its domain.
   The keys hold NULLs, NaN, -0.0 beside 0.0, ints past 2^53 that one
   float cannot tell apart, and a boxed column holding both 5 and 5.0,
   which pgdb's GROUP BY puts in one group. The float values are
   quarters, so every partial sum is exact in any association. *)
let combine_cols =
  let big = 9007199254740993L (* 2^53 + 1 *) in
  let ints l = List.map (fun i -> V.Int i) l
  and floats l = List.map (fun f -> V.Float f) l
  and strs l = List.map (fun s -> V.Str s) l in
  List.map
    (fun (name, ty, dom) -> (name, ty, Array.of_list (V.Null :: dom)))
    [
      ("ki", Ty.TBigint, ints [ 0L; 1L; -3L; big; Int64.succ big ]);
      ("kf", Ty.TDouble, floats [ 0.0; -0.0; Float.nan; 1.5 ]);
      ("kt", Ty.TText, strs [ "a"; "b"; "" ]);
      ("kb", Ty.TDouble, [ V.Int 5L; V.Float 5.0; V.Int 7L; V.Float 7.5 ]);
      ("vi", Ty.TBigint, ints [ 0L; 2L; -7L; 100L ]);
      ("vf", Ty.TDouble, floats [ 0.25; -1.5; 2.0; -0.0; Float.nan ]);
      ("vt", Ty.TText, strs [ "x"; "y"; "zz" ]);
    ]

let combine_table rows =
  let db = Db.create () in
  Db.load_table db
    (S.table "t" (List.map (fun (n, ty, _) -> S.column n ty) combine_cols))
    rows;
  db

let select_on db sql =
  let b = Hyperq.Backend.of_pgdb_session (Db.open_session db) in
  match Hyperq.Backend.exec b sql with
  | Ok (Hyperq.Backend.Result_set r) -> r
  | Ok (Hyperq.Backend.Command_ok tag) -> Alcotest.failf "%s: %s" sql tag
  | Error e -> Alcotest.failf "%s: %s" sql e

(* equal cells: NaN matches NaN and -0.0 matches 0.0; on the boxed key
   column a group's representative may be either of 5 and 5.0 *)
let same_cell ~boxed a b =
  match (a, b) with
  | V.Float x, V.Float y -> Float.equal x y
  | _ when boxed -> Pgdb.Exec.compare_key a b = 0
  | _ -> V.type_of a = V.type_of b && Pgdb.Exec.compare_key a b = 0

(* a random grouped (or, with no keys, scalar) aggregate over [t], its
   groups sorted on every key *)
let random_partial_agg rng =
  let input =
    I.Get
      {
        table = "t";
        cols = List.map (fun (n, ty, _) -> cr n ty) combine_cols;
        ordcol = None;
      }
  in
  let keys =
    List.filter (fun _ -> Random.State.bool rng) [ "ki"; "kf"; "kt"; "kb" ]
  in
  let agg fn c = I.AggFun { fn; distinct = false; args = [ I.ColRef c ] } in
  let choices =
    [|
      agg "sum" "vi"; agg "sum" "vf"; agg "count" "vi"; agg "count" "kt";
      agg "min" "vi"; agg "max" "vf"; agg "min" "vt"; agg "max" "vt";
      agg "avg" "vi"; agg "avg" "vf";
      (* the binder's Q-sum form *)
      I.ScalarFun
        ("coalesce", [ agg "sum" "vi"; I.Const (A.Int 0L, Ty.TBigint) ]);
    |]
  in
  let aggs =
    List.init
      (1 + Random.State.int rng 4)
      (fun i ->
        ( Printf.sprintf "a%d" i,
          choices.(Random.State.int rng (Array.length choices)) ))
  in
  let keyed = List.map (fun k -> (k, I.ColRef k)) keys in
  let rel = I.Aggregate { input; keys = keyed; aggs } in
  let dir () = if Random.State.bool rng then `Asc else `Desc in
  if keys = [] then rel
  else
    I.Sort
      {
        input = rel;
        keys =
          List.map (fun k -> { I.sk_expr = I.ColRef k; sk_dir = dir () }) keys;
      }

(* Each query's combine, over the shard partials of 2 and of 4 random
   partitions of the rows, returns the column types and values pgdb
   returns for the same aggregate over the whole table. *)
let test_combine_against_pgdb () =
  let rng = Random.State.make [| 31 |] in
  let map = SM.create ~shards:4 ~distributions:[ ("t", "ki") ] in
  let random_row () =
    Array.of_list
      (List.map
         (fun (_, _, dom) -> dom.(Random.State.int rng (Array.length dom)))
         combine_cols)
  in
  let cell (r : Pgdb.Exec.result) j i =
    Pgdb.Batch.value_at r.Pgdb.Exec.res_columns.(j) i
  in
  let show v = V.to_debug v ^ " " ^ V.to_display v in
  let types (r : Pgdb.Exec.result) =
    List.map (fun (n, ty) -> (n, Ty.name ty)) r.Pgdb.Exec.res_cols
  in
  for _ = 1 to 60 do
    let rows =
      List.init (1 + Random.State.int rng 40) (fun _ -> random_row ())
    in
    let whole = combine_table rows in
    for _ = 1 to 4 do
      let rel = random_partial_agg rng in
      let sql = Hyperq.Serializer.serialize_to_sql rel in
      let expected = select_on whole sql in
      let plan =
        match R.route map rel with
        | R.Run (R.PartialAgg plan, _) -> plan
        | _ -> Alcotest.failf "%s: expected a partial-aggregate route" sql
      in
      List.iter
        (fun parts ->
          let owner =
            List.map (fun r -> (Random.State.int rng parts, r)) rows
          in
          let partial p =
            let mine = List.filter (fun (q, _) -> q = p) owner in
            select_on
              (combine_table (List.map snd mine))
              (Hyperq.Serializer.serialize_to_sql plan.R.a_shard_rel)
          in
          let got = Shard.Gather.gather (R.PartialAgg plan) (List.init parts partial) in
          let where = Printf.sprintf "%s (%d partitions)" sql parts in
          check
            Alcotest.(list (pair string string))
            (where ^ ": columns") (types expected) (types got);
          check tint (where ^ ": rows") expected.Pgdb.Exec.res_nrows
            got.Pgdb.Exec.res_nrows;
          List.iteri
            (fun j (name, _) ->
              for i = 0 to expected.Pgdb.Exec.res_nrows - 1 do
                let e = cell expected j i and g = cell got j i in
                if not (same_cell ~boxed:(name = "kb") e g) then
                  Alcotest.failf "%s: row %d, %s: expected %s, got %s" where
                    i name (show e) (show g)
              done)
            expected.Pgdb.Exec.res_cols)
        [ 2; 4 ]
    done
  done

(* ------------------------------------------------------------------ *)
(* Plan cache: shard-map generation in the key                         *)
(* ------------------------------------------------------------------ *)

let test_plan_cache_shard_generation () =
  let pc = PC.create () in
  let q = "select Price from trades where Symbol=`A" in
  let engine ?sharder () =
    E.create ~plan_cache:pc ?sharder
      (Hyperq.Backend.of_pgdb_session (Db.open_session (make_db ())))
  in
  let run eng =
    match E.try_run eng (Qlang.Fingerprint.analyze q) with
    | Ok { E.value = Some v; _ } -> v
    | Ok _ -> Alcotest.failf "query %S returned no value" q
    | Error e -> Alcotest.failf "query failed: %s" e
  in
  (* unsharded engine installs a template under generation 0 *)
  let e0 = engine () in
  let v0 = run e0 in
  let v0' = run e0 in
  check tbool "unsharded reruns agree" true (QV.equal v0 v0');
  check tint "one cached template" 1 (PC.size pc);
  (* a sharded engine (generation 1) must not be served that template *)
  let gen = ref 1 in
  let sharder =
    {
      E.sh_route = (fun _ -> None);
      sh_generation = (fun () -> !gen);
    }
  in
  let e1 = engine ~sharder () in
  let v1 = run e1 in
  check tbool "sharded result still correct" true (QV.equal v0 v1);
  (* templates install on the second stable run (the first moves the
     fresh backend's catalog generation); what matters is that the
     sharded engine was never served the generation-0 template *)
  ignore (run e1);
  check tint "sharded route gets its own cache entry" 2 (PC.size pc);
  let gens =
    List.sort_uniq Stdlib.compare
      (List.map (fun e -> e.PC.e_key.PC.k_shard_gen) (PC.entries pc))
  in
  check tbool "entries keyed by distinct generations" true (gens = [ 0; 1 ]);
  (* bumping the shard-map generation (layout change) invalidates again:
     same engine, same session — only the generation differs *)
  gen := 2;
  ignore (run e1);
  ignore (run e1);
  check tint "generation bump re-keys the cache" 3 (PC.size pc)

(* a sharded platform with the plan cache on never installs templates
   for sharded routes, so reruns stay correct *)
let test_sharded_routes_not_cached () =
  with_platform ~shards:2 (make_db ()) (fun p ->
      let c = P.Client.connect p in
      let q = "select mx:max Price by Symbol from trades" in
      let v1 = ok (P.Client.query c q) in
      let v2 = ok (P.Client.query c q) in
      check tbool "sharded rerun identical" true (QV.equal v1 v2);
      let templates =
        List.length
          (List.filter
             (fun e -> match e.PC.e_kind with PC.Template _ -> true | _ -> false)
             (PC.entries (P.plan_cache p)))
      in
      check tint "no template installed for the sharded route" 0 templates;
      P.Client.close c)

(* ------------------------------------------------------------------ *)
(* Concurrent admin reads under a sharded workload                     *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

(* four domains hammer the scrape surfaces (Prometheus text, the
   time-series ring, healthz, raw registry snapshots) while the sharded
   workload runs and answers in-band admin queries: every response must
   be well-formed (no torn reads, no exceptions) and the headline
   counter must never move backwards *)
let test_concurrent_admin_reads () =
  with_platform ~shards:2 (make_db ()) (fun p ->
      let stop = Atomic.make false in
      let failures = Atomic.make 0 in
      let fail_mu = Mutex.create () in
      let fail_msg = ref "" in
      let record msg =
        Atomic.incr failures;
        Mutex.lock fail_mu;
        if !fail_msg = "" then fail_msg := msg;
        Mutex.unlock fail_mu
      in
      let http req () =
        while not (Atomic.get stop) do
          match Obs.Http.handle (P.admin_handler p) req with
          | out ->
              if not (contains out "HTTP/1.1 200") then
                record
                  ("non-200 reply: "
                  ^ String.sub out 0 (min 60 (String.length out)))
          | exception e -> record (Printexc.to_string e)
        done
      in
      let monotone () =
        let last = ref 0.0 in
        let reg = (P.obs p).Obs.Ctx.registry in
        while not (Atomic.get stop) do
          match
            List.find_opt
              (fun s -> s.M.s_name = "hq_queries_total")
              (M.snapshot reg)
          with
          | Some s ->
              if s.M.s_value < !last then record "hq_queries_total decreased";
              last := s.M.s_value
          | None -> ()
          | exception e -> record (Printexc.to_string e)
        done
      in
      let domains =
        List.map Domain.spawn
          [
            http "GET /metrics HTTP/1.1\r\n\r\n";
            http "GET /timeseries.json?window=30s HTTP/1.1\r\n\r\n";
            http "GET /healthz HTTP/1.1\r\n\r\n";
            monotone;
          ]
      in
      let c = P.Client.connect p in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          List.iter Domain.join domains;
          P.Client.close c)
        (fun () ->
          for i = 1 to 200 do
            ignore
              (ok (P.Client.query c "select mx:max Price by Symbol from trades"));
            if i mod 20 = 0 then begin
              ignore (ok (P.Client.query c ".hq.stats"));
              ignore (ok (P.Client.query c ".hq.timeseries[]"))
            end
          done);
      check tint
        (Printf.sprintf "no concurrent-read failures (%s)" !fail_msg)
        0 (Atomic.get failures))

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "concat" `Quick test_route_concat;
          Alcotest.test_case "merge" `Quick test_route_merge;
          Alcotest.test_case "single" `Quick test_route_single;
          Alcotest.test_case "pins by key class" `Quick test_pins_by_key_class;
          Alcotest.test_case "null symbol pins the NULL keys' shard" `Quick
            test_null_symbol_pin;
          Alcotest.test_case "partial-agg" `Quick test_route_partial_agg;
          Alcotest.test_case "pruned-scatter" `Quick test_route_pruned_scatter;
          Alcotest.test_case "coordinator" `Quick test_route_coordinator;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "partitions rows" `Quick test_cluster_partitions_rows;
          Alcotest.test_case "mirrors DDL/DML" `Quick test_cluster_mirrors_ddl;
          Alcotest.test_case "mirrors IF [NOT] EXISTS" `Quick
            test_cluster_mirrors_if_exists;
          Alcotest.test_case "fan-out overlaps shard dispatch" `Quick
            test_fanout_overlaps;
          Alcotest.test_case "coordinator error reads like a shard's" `Quick
            test_coordinator_error;
        ] );
      ( "platform --shards 2",
        [
          Alcotest.test_case "end to end" `Quick test_sharded_platform_end_to_end;
          Alcotest.test_case "pruned dispatch" `Quick
            test_pruned_dispatch_end_to_end;
        ] );
      ( "differential",
        [
          Alcotest.test_case "vector shapes against kdb, 2 shards" `Quick
            test_vector_shapes_against_kdb;
          Alcotest.test_case "literal tables against kdb, 1 node and 2 shards"
            `Quick test_literal_tables_against_kdb;
          Alcotest.test_case "count with NULLs against kdb, 1 node and 2 shards"
            `Quick test_count_with_nulls_against_kdb;
          Alcotest.test_case "count distinct with NULLs agrees with kdb"
            `Quick test_count_distinct_with_nulls_against_kdb;
          Alcotest.test_case "combine against pgdb over the whole table"
            `Quick test_combine_against_pgdb;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "shard generation key" `Quick
            test_plan_cache_shard_generation;
          Alcotest.test_case "sharded routes not cached" `Quick
            test_sharded_routes_not_cached;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "admin reads under sharded load" `Quick
            test_concurrent_admin_reads;
        ] );
    ]
