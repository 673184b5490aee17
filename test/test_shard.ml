(* Sharded execution tests: router classification over hand-built XTRA
   trees, cluster partitioning and DDL/DML mirroring, fan-out overlap
   (every shard inside its backend at once), the full platform
   at --shards 2 (the existing end-to-end suite re-run sharded), a
   200-query randomized differential against the single-backend engine,
   and the plan-cache shard-generation regression. *)

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

let test_route_concat () =
  match R.route (smap ()) trades_get with
  | R.Run (R.Concat _, [ 0; 1; 2; 3 ]) -> ()
  | _ -> Alcotest.fail "bare distributed scan should scatter as concat"

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
      I.Eq2 (I.Const (A.Str "AAA", Ty.TVarchar), I.ColRef "Symbol");
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
  (* a float literal's canonical text is not trusted for pinning *)
  match
    R.route m
      (root_sort
         (filtered
            (I.NullSafeEq (I.ColRef "Symbol", I.Const (A.Float 1.0, Ty.TDouble))))
         "hq_ord")
  with
  | R.Run (R.Merge _, _) -> ()
  | _ -> Alcotest.fail "non-pinnable literal should fall back to scatter"

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

(* selectivity feedback: an IN list on the distribution column whose
   members hash to a proper shard subset prunes the scatter — but only
   when workload feedback says the statement is selective *)
let test_route_pruned_scatter () =
  let m = smap () in
  let shard_of s = SM.shard_of_value m (V.Str s) in
  (* find two symbols on distinct shards and one sharing the first's *)
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
  (* no feedback: conservative full scatter *)
  (match R.route m (in_pred [ a; b ]) with
  | R.Run (R.Concat _, [ 0; 1; 2; 3 ]) -> ()
  | _ -> Alcotest.fail "without feedback the scatter must stay full");
  (* unselective feedback: still full *)
  (match R.route ~selectivity:0.9 m (in_pred [ a; b ]) with
  | R.Run (R.Concat _, [ 0; 1; 2; 3 ]) -> ()
  | _ -> Alcotest.fail "unselective fingerprints must not prune");
  (* selective feedback: scatter only where the members can live *)
  (match R.route ~selectivity:0.05 m (in_pred [ a; b ]) with
  | R.Run (R.Concat _, targets) ->
      check tbool "pruned to the members' shards" true (targets = expected);
      let x =
        R.explain_route ~shards:4 (R.route ~selectivity:0.05 m (in_pred [ a; b ]))
      in
      check tbool "explain marks the prune" true x.R.x_pruned;
      check tbool "explain carries the subset" true (x.R.x_targets = expected)
  | _ -> Alcotest.fail "selective IN list should prune the scatter");
  (* all members on one shard still pins, with or without feedback *)
  let a' = List.find (fun s -> s <> a && shard_of s = shard_of a) syms in
  match R.route ~selectivity:0.05 m (in_pred [ a; a' ]) with
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
        match E.try_run eng "select mx:max Price by Symbol from trades" with
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

(* ------------------------------------------------------------------ *)
(* The platform end-to-end at --shards 2                               *)
(* ------------------------------------------------------------------ *)

let with_platform ?shards ?workers ?engine_config db f =
  let p = P.create ?shards ?workers ?engine_config db in
  Fun.protect ~finally:(fun () -> P.shutdown p) (fun () -> f p)

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
            | QV.Vector (_, a) ->
                Array.fold_left
                  (fun n x -> match x with QA.Long i -> n + Int64.to_int i | _ -> n)
                  0 a
            | _ -> 0
          in
          check tbool "shards saw dispatches" true (statements > 0)
      | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
      P.Client.close c)

(* selectivity feedback through the full stack: with a selective
   fingerprint, an IN list on the distribution column dispatches only to
   the shards its members hash to — and the answer is unchanged *)
let test_pruned_dispatch_end_to_end () =
  with_platform ~shards:4 (make_db ()) (fun p ->
      let cluster = Option.get (P.cluster p) in
      let m = C.map cluster in
      let c = P.Client.connect p in
      (* a member sharing shard with no other: pick a symbol on a
         different shard than "A" so the pair spans a proper subset *)
      let shard_of s = SM.shard_of_value m (V.Str s) in
      let other =
        List.find
          (fun s -> shard_of s <> shard_of "A")
          (List.init 64 (fun i -> Printf.sprintf "S%d" i))
      in
      let q = Printf.sprintf "select from trades where Symbol in `A`%s" other in
      let statements () =
        List.map (fun i -> i.C.si_statements) (C.shards_info cluster)
      in
      let delta f =
        let before = statements () in
        let r = f () in
        (r, List.map2 ( - ) (statements ()) before)
      in
      (* without feedback: the scatter hits all four shards *)
      let v_full, d_full = delta (fun () -> ok (P.Client.query c q)) in
      check tint "conservative scatter hits every shard" 4
        (List.length (List.filter (fun d -> d > 0) d_full));
      (* selective feedback: only the members' shards are dispatched *)
      C.set_selectivity_source cluster (fun _ -> Some 0.05);
      let v_pruned, d_pruned = delta (fun () -> ok (P.Client.query c q)) in
      check tint "pruned scatter hits two shards" 2
        (List.length (List.filter (fun d -> d > 0) d_pruned));
      check tbool "pruned answer unchanged" true (QV.equal v_full v_pruned);
      let reg = (P.obs p).Obs.Ctx.registry in
      check tbool "pruned scatter counted" true
        (M.counter_value (M.counter reg "hq_shard_pruned_scatters_total") >= 1);
      P.Client.close c)

(* ------------------------------------------------------------------ *)
(* Randomized differential: sharded vs single-backend                  *)
(* ------------------------------------------------------------------ *)

(* float-tolerant value equality: partial-aggregate recombination sums
   floats in a different association order than the single pass *)
let feq a b =
  a = b
  || abs_float (a -. b)
     <= 1e-9 *. Float.max 1.0 (Float.max (abs_float a) (abs_float b))

let atom_eq (a : QA.t) (b : QA.t) =
  match (a, b) with
  | QA.Float x, QA.Float y -> feq x y
  | a, b -> QA.equal a b

let rec val_eq (a : QV.t) (b : QV.t) =
  match (a, b) with
  | QV.Atom x, QV.Atom y -> atom_eq x y
  | QV.Vector (tx, xs), QV.Vector (ty, ys) ->
      tx = ty
      && Array.length xs = Array.length ys
      && Array.for_all2 atom_eq xs ys
  | QV.List xs, QV.List ys ->
      Array.length xs = Array.length ys && Array.for_all2 val_eq xs ys
  | QV.Dict (ka, va), QV.Dict (kb, vb) -> val_eq ka kb && val_eq va vb
  | QV.Table ta, QV.Table tb -> table_eq ta tb
  | QV.KTable (ka, va), QV.KTable (kb, vb) -> table_eq ka kb && table_eq va vb
  | a, b -> QV.equal a b

and table_eq (ta : QV.table) (tb : QV.table) =
  ta.QV.cols = tb.QV.cols
  && Array.length ta.QV.data = Array.length tb.QV.data
  && Array.for_all2 val_eq ta.QV.data tb.QV.data

let marketdata_db () =
  let db = Db.create () in
  MD.load_pg db (MD.generate MD.small_scale);
  db

let random_query (d : MD.dataset) rng =
  let sym () = d.MD.syms.(Random.State.int rng (Array.length d.MD.syms)) in
  let px () = 95.0 +. Random.State.float rng 15.0 in
  match Random.State.int rng 8 with
  | 0 -> Printf.sprintf "select from trades where Symbol=`%s" (sym ())
  | 1 -> Printf.sprintf "select Price,Size from trades where Price>%.2f" (px ())
  | 2 -> "select s:sum Size, a:avg Price by Symbol from trades"
  | 3 -> "select mn:min Bid, mx:max Ask by Symbol from quotes"
  | 4 -> "select a:avg Price, s:sum Size by Exch from trades"
  | 5 -> "select t:sum Size from trades"
  | 6 -> Printf.sprintf "select from quotes where Symbol=`%s" (sym ())
  | _ ->
      Printf.sprintf "select c:count Size by Symbol from trades where Price>%.2f"
        (px ())

let differential ~engine_config ~shards ~queries ~compare_rows () =
  let d = MD.generate MD.small_scale in
  with_platform ~engine_config (marketdata_db ()) (fun plain ->
      with_platform ~engine_config ~shards (marketdata_db ()) (fun sharded ->
          let c1 = P.Client.connect plain in
          let c2 = P.Client.connect sharded in
          let rng = Random.State.make [| 20260807; shards |] in
          let divergences = ref [] in
          for _ = 1 to queries do
            let q = random_query d rng in
            match (P.Client.query c1 q, P.Client.query c2 q) with
            | Ok v1, Ok v2 ->
                if not (compare_rows v1 v2) then
                  divergences := (q, "values differ") :: !divergences
            | Error _, Error _ -> ()
            | Ok _, Error e ->
                divergences := (q, "sharded errored: " ^ e) :: !divergences
            | Error e, Ok _ ->
                divergences := (q, "single errored: " ^ e) :: !divergences
          done;
          P.Client.close c1;
          P.Client.close c2;
          match !divergences with
          | [] -> ()
          | (q, why) :: _ ->
              Alcotest.failf "%d divergent quer%s, first: %S (%s)"
                (List.length !divergences)
                (if List.length !divergences = 1 then "y" else "ies")
                q why))

let test_differential_200 () =
  differential
    ~engine_config:Hyperq.Engine.default_config
    ~shards:4 ~queries:200 ~compare_rows:val_eq ()

(* with implicit ordering disabled, scatter results concatenate in shard
   order — unordered SQL semantics, so compare as multisets *)
let multiset_eq (a : QV.t) (b : QV.t) =
  let rows_of = function
    | QV.Table t ->
        Some
          (List.init (QV.table_length t) (fun r ->
               Array.map
                 (function
                   | QV.Vector (_, xs) -> QV.Atom xs.(r)
                   | QV.List xs -> xs.(r)
                   | v -> v)
                 t.QV.data))
    | _ -> None
  in
  match (rows_of a, rows_of b) with
  | Some ra, Some rb ->
      List.length ra = List.length rb
      && Stdlib.compare
           (List.sort Stdlib.compare ra)
           (List.sort Stdlib.compare rb)
         = 0
  | _ -> val_eq a b

let test_differential_unordered () =
  let config () =
    let cfg = Hyperq.Engine.default_config () in
    cfg.E.xformer.Hyperq.Xformer.enable_order <- false;
    cfg
  in
  differential ~engine_config:config ~shards:2 ~queries:60
    ~compare_rows:multiset_eq ()

(* Q queries whose SQL needs the window operator, derived tables or a
   residual join: moving average and deltas (windows), fby (a window
   over a derived table), as-of join (left join + residual +
   row_number) and a chained lj (nested derived tables). Through a
   2-shard platform each must agree with the kdb interpreter. *)
let test_vector_shapes_against_kdb () =
  let d = MD.generate MD.small_scale in
  let sym i = d.MD.syms.(i mod Array.length d.MD.syms) in
  let queries =
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
    ]
  in
  let kdb = Kdb.Server.create () in
  List.iter (fun (name, v) -> Kdb.Server.load kdb name v) (MD.q_tables d);
  let db = Db.create () in
  MD.load_pg db d;
  with_platform ~shards:2 db (fun p ->
      let c = P.Client.connect p in
      List.iter
        (fun q ->
          let hq = ok (P.Client.query c q) in
          match Kdb.Server.query kdb ~client:0 q with
          | Error e -> Alcotest.failf "kdb failed on %s: %s" q e
          | Ok k -> (
              match Sidebyside.Framework.values_agree k hq with
              | None -> ()
              | Some why -> Alcotest.failf "%s differs from kdb: %s" q why))
        queries;
      P.Client.close c)

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
      "select n:count Price, w:max w by Symbol from trades ij \
       ([Symbol:`%s`%s; Exch:`N`A] w:1.5 0n)"
      (sym 0) (sym 2);
    "select from " ^ all_types;
    "select s, d, t, p from " ^ all_types ^ " where l>1";
    "select n:count b, mx:max f, lo:min d from " ^ all_types;
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
  let d = MD.generate MD.small_scale in
  let kdb = Kdb.Server.create () in
  List.iter (fun (name, v) -> Kdb.Server.load kdb name v) (MD.q_tables d);
  let queries = literal_table_queries d in
  List.iter
    (fun shards ->
      let db = Db.create () in
      MD.load_pg db d;
      with_platform ?shards db (fun p ->
          let c = P.Client.connect p in
          List.iter
            (fun q ->
              let where =
                match shards with Some n -> Printf.sprintf " (%d shards)" n | None -> ""
              in
              match (Kdb.Server.query kdb ~client:0 q, P.Client.query c q) with
              | Error e, _ -> Alcotest.failf "kdb failed on %s: %s" q e
              | Ok _, Error e -> Alcotest.failf "%s%s: %s" q where e
              | Ok k, Ok hq -> (
                  match Sidebyside.Framework.values_agree k hq with
                  | None -> ()
                  | Some why -> Alcotest.failf "%s%s differs from kdb: %s" q where why))
            queries;
          check_one_select c (List.hd queries);
          check_one_select c (List.nth queries 2);
          P.Client.close c))
    [ None; Some 2 ]

(* ------------------------------------------------------------------ *)
(* Plan cache: shard-map generation in the key                         *)
(* ------------------------------------------------------------------ *)

let test_plan_cache_shard_generation () =
  let pc = PC.create () in
  let q = "select Price from trades where Symbol=`A" in
  let engine ?sharder () =
    let cfg = E.default_config () in
    cfg.E.plan_cache <- true;
    E.create ~config:cfg ~plan_cache:pc ?sharder
      (Hyperq.Backend.of_pgdb_session (Db.open_session (make_db ())))
  in
  let run eng =
    match E.try_run eng q with
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
      E.sh_route = (fun ?fingerprint:_ _ -> None);
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
        match P.plan_cache p with
        | None -> 0
        | Some pc ->
            List.length
              (List.filter
                 (fun e ->
                   match e.PC.e_kind with PC.Template _ -> true | _ -> false)
                 (PC.entries pc))
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
          Alcotest.test_case "partial-agg" `Quick test_route_partial_agg;
          Alcotest.test_case "pruned-scatter" `Quick test_route_pruned_scatter;
          Alcotest.test_case "coordinator" `Quick test_route_coordinator;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "partitions rows" `Quick test_cluster_partitions_rows;
          Alcotest.test_case "mirrors DDL/DML" `Quick test_cluster_mirrors_ddl;
          Alcotest.test_case "fan-out overlaps shard dispatch" `Quick
            test_fanout_overlaps;
        ] );
      ( "platform --shards 2",
        [
          Alcotest.test_case "end to end" `Quick test_sharded_platform_end_to_end;
          Alcotest.test_case "pruned dispatch" `Quick
            test_pruned_dispatch_end_to_end;
        ] );
      ( "differential",
        [
          Alcotest.test_case "200 randomized queries" `Quick test_differential_200;
          Alcotest.test_case "unordered concat" `Quick test_differential_unordered;
          Alcotest.test_case "vector shapes against kdb, 2 shards" `Quick
            test_vector_shapes_against_kdb;
          Alcotest.test_case "literal tables against kdb, 1 node and 2 shards"
            `Quick test_literal_tables_against_kdb;
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
