(* EXPLAIN/ANALYZE plane tests: operator trees out of the instrumented
   pgdb executor (shapes, row counts, estimates), the .hq.explain admin
   query over the full 25-query analytical workload on a 2-shard
   platform (single-shard and scatter/gather routes included), the
   /explain.json admin endpoint, tree-shape stability across plan-cache
   hits, tail sampling, and the recorder and HTTP surfaces that carry
   analyzed trees. *)

module Db = Pgdb.Db
module Op = Pgdb.Opstats
module QV = Qvalue.Value
module P = Platform.Hyperq_platform
module MD = Workload.Marketdata
module AW = Workload.Analytical
module H = Obs.Http

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "query failed: %s" e

let marketdata_db () =
  let db = Db.create () in
  MD.load_pg db (MD.generate MD.small_scale);
  db

let with_platform ?shards ?analyze_sample db f =
  let p = P.create ?shards ?analyze_sample db in
  Fun.protect ~finally:(fun () -> P.shutdown p) (fun () -> f p)

(* ------------------------------------------------------------------ *)
(* Executor instrumentation (pgdb layer, no platform)                  *)
(* ------------------------------------------------------------------ *)

let analyzed_plan sess sql : Op.node =
  (match Db.exec sess sql with
  | Db.Rows _ -> ()
  | _ -> Alcotest.failf "expected rows from %s" sql);
  match Db.last_plan sess with
  | Some n -> n
  | None -> Alcotest.failf "no plan collected for %s" sql

let ops_of (n : Op.node) : string list =
  List.map (fun (_, m) -> m.Op.op) (Op.flatten n)

let test_exec_tree_shape () =
  let db = marketdata_db () in
  let sess = Db.open_session db in
  Db.set_analyze sess true;
  let n =
    analyzed_plan sess
      "SELECT \"Price\" FROM trades WHERE \"Price\" > 10.0 ORDER BY \
       \"Price\" DESC LIMIT 5"
  in
  check
    Alcotest.(list string)
    "operator chain"
    [ "vector_limit"; "vector_sort"; "vector_project"; "vector_filter";
      "vector_scan" ]
    (ops_of n);
  (* sane actuals: the scan reads the whole table, the limit caps at 5 *)
  let by op = List.find (fun (_, m) -> m.Op.op = op) (Op.flatten n) in
  let _, scan = by "vector_scan" in
  check tstr "scan names the table" "trades" scan.Op.detail;
  check tbool "scan read rows" true (scan.Op.rows_out > 0);
  let _, limit = by "vector_limit" in
  check tbool "limit caps output" true (limit.Op.rows_out <= 5);
  (* every node carries a positive estimate and non-negative self time *)
  List.iter
    (fun (_, m) ->
      check tbool (m.Op.op ^ " est positive") true (m.Op.est_rows >= 1);
      check tbool (m.Op.op ^ " self_ns >= 0") true (m.Op.self_ns >= 0L))
    (Op.flatten n)

let test_exec_aggregate_and_join () =
  let db = marketdata_db () in
  let sess = Db.open_session db in
  Db.set_analyze sess true;
  let agg =
    analyzed_plan sess
      "SELECT \"Symbol\", SUM(\"Size\") FROM trades GROUP BY \"Symbol\""
  in
  check tbool "aggregate at the root" true
    (List.mem "vector_hash_agg" (ops_of agg));
  let join =
    analyzed_plan sess
      "SELECT t.\"Price\", s.\"Sector\" FROM trades t JOIN secmaster_w s \
       ON t.\"Symbol\" = s.\"Symbol\""
  in
  let _, j =
    List.find
      (fun (_, m) ->
        m.Op.op = "vector_hash_join" || m.Op.op = "vector_nested_loop")
      (Op.flatten join)
  in
  check tint "join has two children" 2 (List.length j.Op.children);
  check tstr "equi join hashes" "vector_hash_join" j.Op.op;
  (* join input accounting: rows_in is the sum of both children *)
  check tint "join rows_in"
    (List.fold_left (fun a c -> a + c.Op.rows_out) 0 j.Op.children)
    j.Op.rows_in

(* the vectorized join: its operator node carries the join accounting
   contract — build/probe sizes in the detail, est vs actual
   cardinalities, and a computable q-error *)
(* a filter and an aggregate over a table of several chunks: each
   operator is one node whose rows in and out total every chunk's *)
let test_chunked_totals () =
  let n = (3 * Pgdb.Vexec.chunk_rows) + 7 in
  let v i = if i mod 7 = 2 then None else Some (i * 37 mod 101) in
  let g i = [| "a"; "b"; "c"; "d" |].(i / 5 mod 4) in
  let db = Db.create () in
  Db.load_table db
    (Catalog.Schema.table "chunky"
       [
         Catalog.Schema.column "i" Catalog.Sqltype.TBigint;
         Catalog.Schema.column "g" Catalog.Sqltype.TVarchar;
         Catalog.Schema.column "v" Catalog.Sqltype.TBigint;
       ])
    (List.init n (fun i ->
         [|
           Pgdb.Value.Int (Int64.of_int i);
           Pgdb.Value.Str (g i);
           (match v i with
           | Some x -> Pgdb.Value.Int (Int64.of_int x)
           | None -> Pgdb.Value.Null);
         |]));
  let sess = Db.open_session db in
  Db.set_analyze sess true;
  let plan =
    analyzed_plan sess
      "SELECT g, count(*) AS n, sum(v) AS s FROM chunky WHERE i % 3 <> 0 AND \
       v > 10 GROUP BY g"
  in
  let nodes op =
    List.filter_map
      (fun (_, m) -> if m.Op.op = op then Some m else None)
      (Op.flatten plan)
  in
  let rows = List.init n Fun.id in
  let first = List.filter (fun i -> i mod 3 <> 0) rows in
  let second =
    List.filter (fun i -> match v i with Some x -> x > 10 | None -> false) first
  in
  let groups = List.sort_uniq compare (List.map g second) in
  (* pre-order lists the later filter first *)
  (match List.rev (nodes "vector_filter") with
  | [ f1; f2 ] ->
      check tint "first filter rows in" n f1.Op.rows_in;
      check tint "first filter rows out" (List.length first) f1.Op.rows_out;
      check tint "second filter rows in" (List.length first) f2.Op.rows_in;
      check tint "second filter rows out" (List.length second) f2.Op.rows_out;
      check tint "estimate: a third of rows in" (List.length first / 3)
        f2.Op.est_rows
  | fs -> Alcotest.failf "%d filter nodes, expected 2" (List.length fs));
  match nodes "vector_hash_agg" with
  | [ a ] ->
      check tint "aggregate rows in" (List.length second) a.Op.rows_in;
      check tint "aggregate rows out" (List.length groups) a.Op.rows_out
  | a -> Alcotest.failf "%d aggregate nodes, expected 1" (List.length a)

let test_vector_hash_join_node () =
  let db = marketdata_db () in
  let sess = Db.open_session db in
  Db.set_analyze sess true;
  let plan =
    analyzed_plan sess
      "SELECT t.\"Price\", s.\"Sector\" FROM trades t JOIN secmaster_w s \
       ON t.\"Symbol\" = s.\"Symbol\""
  in
  let _, j =
    try List.find (fun (_, m) -> m.Op.op = "vector_hash_join") (Op.flatten plan)
    with Not_found ->
      Alcotest.failf "no vector_hash_join node; ops: %s"
        (String.concat "," (ops_of plan))
  in
  (* detail: "<kind> build=<rows> probe=<rows>" *)
  (match String.split_on_char ' ' j.Op.detail with
  | [ kind; b; p ] ->
      check tstr "inner join kind" "inner" kind;
      let num s pfx =
        check tbool (pfx ^ " prefixed") true
          (String.length s > String.length pfx
          && String.sub s 0 (String.length pfx) = pfx);
        int_of_string
          (String.sub s (String.length pfx)
             (String.length s - String.length pfx))
      in
      let build = num b "build=" and probe = num p "probe=" in
      check tbool "build side read" true (build > 0);
      check tbool "probe side read" true (probe > 0);
      check tint "rows_in is build+probe" (build + probe) j.Op.rows_in
  | _ -> Alcotest.failf "unexpected join detail %S" j.Op.detail);
  check tint "join has two children" 2 (List.length j.Op.children);
  check tbool "actual cardinality recorded" true (j.Op.rows_out > 0);
  check tbool "estimate present" true (j.Op.est_rows >= 1);
  (* est vs actual feed the q-error summary *)
  let q = Op.qerror ~est:j.Op.est_rows ~actual:j.Op.rows_out in
  check tbool "q-error computable" true (q >= 1.0 && Float.is_finite q);
  (* a left join renders its kind *)
  let lplan =
    analyzed_plan sess
      "SELECT t.\"Price\", s.\"Sector\" FROM trades t LEFT JOIN secmaster_w \
       s ON t.\"Symbol\" = s.\"Symbol\""
  in
  let _, lj =
    List.find (fun (_, m) -> m.Op.op = "vector_hash_join") (Op.flatten lplan)
  in
  check tbool "left join detail" true
    (String.length lj.Op.detail >= 5 && String.sub lj.Op.detail 0 5 = "left ")

(* the paper's as-of join, as the serializer writes it, analyzed on the
   vectorized executor: every operator is a vector operator, the window
   and derived-table nodes are there, the join runs as one
   vector_asof_join that names its range conjunct and emits one row per
   trade (no fan-out is left for the window to cut), and each node's
   rows_in is what its children produced *)
let test_aj_all_vector_tree () =
  let db = marketdata_db () in
  let sess = Db.open_session db in
  Db.set_analyze sess true;
  let eng = Hyperq.Engine.create (Hyperq.Backend.of_pgdb_session sess) in
  let sql =
    Hyperq.Engine.translate eng
      "aj[`Symbol`Time; select Symbol, Time, Price from trades; select \
       Symbol, Time, Bid, Ask from quotes]"
  in
  let plan = analyzed_plan sess sql in
  let nodes = List.map snd (Op.flatten plan) in
  List.iter
    (fun m ->
      check tbool (m.Op.op ^ " is a vector operator") true
        (String.length m.Op.op > 7 && String.sub m.Op.op 0 7 = "vector_"))
    nodes;
  let ops = ops_of plan in
  List.iter
    (fun op -> check tbool (op ^ " present") true (List.mem op ops))
    [ "vector_window"; "vector_subquery"; "vector_asof_join"; "vector_filter" ];
  check tbool "no candidate-pair hash join" false
    (List.mem "vector_hash_join" ops);
  let join = List.find (fun m -> m.Op.op = "vector_asof_join") nodes in
  check tbool "join detail names the range conjunct" true
    (Str.string_match
       (Str.regexp
          "left build=[0-9]+ probe=[0-9]+ range=(r[0-9]+\\.\"Time\" <= \
           l[0-9]+\\.\"Time\")$")
       join.Op.detail 0);
  List.iter
    (fun m ->
      check tbool (m.Op.op ^ " estimate present") true (m.Op.est_rows >= 1);
      match m.Op.children with
      | [] -> check tint (m.Op.op ^ " leaf rows_in") m.Op.rows_out m.Op.rows_in
      | cs ->
          check tint
            (m.Op.op ^ " rows_in = children's rows_out")
            (List.fold_left (fun a c -> a + c.Op.rows_out) 0 cs)
            m.Op.rows_in)
    nodes;
  let trades = Array.length (MD.generate MD.small_scale).MD.trades in
  check tint "join rows_out = one per trade" trades join.Op.rows_out;
  let window = List.find (fun m -> m.Op.op = "vector_window") nodes in
  check tint "window rows_out = one per trade" trades window.Op.rows_out;
  check tbool "window detail names the cut" true
    (Str.string_match (Str.regexp ".*top 1") window.Op.detail 0);
  check tint "one row per trade" trades plan.Op.rows_out

(* the analytical workload's as-of queries keep the fused plan: Q05, Q10
   and Q19 each run a vector_asof_join with no vector_sort beneath it,
   and no join in them emits more rows than its probe (left) side reads.
   Their one ORDER BY is the root's: the required-order pass drops the
   sides' sorts, which the as-of window cannot observe *)
let test_aj_queries_fused () =
  let d = MD.generate MD.small_scale in
  let db = Db.create () in
  MD.load_pg db d;
  let sess = Db.open_session db in
  Db.set_analyze sess true;
  let eng = Hyperq.Engine.create (Hyperq.Backend.of_pgdb_session sess) in
  List.iter
    (fun q ->
      if List.mem q.AW.id [ 5; 10; 19 ] then begin
        let name = Printf.sprintf "Q%02d" q.AW.id in
        let sql = Hyperq.Engine.translate eng q.AW.text in
        check tint (name ^ " has one ORDER BY") 1 (Sql_shape.order_bys sql);
        let nodes = List.map snd (Op.flatten (analyzed_plan sess sql)) in
        let asof = List.filter (fun m -> m.Op.op = "vector_asof_join") nodes in
        check tbool (name ^ " plans a vector_asof_join") true (asof <> []);
        List.iter
          (fun j ->
            check tbool
              (name ^ " sorts nothing beneath the as-of join")
              false
              (List.exists
                 (fun (_, m) -> m.Op.op = "vector_sort")
                 (Op.flatten j)))
          asof;
        List.iter
          (fun m ->
            let op = m.Op.op in
            if Filename.check_suffix op "_join" then
              match m.Op.children with
              | probe :: _ ->
                  check tbool
                    (Printf.sprintf "%s %s emits at most its probe side" name op)
                    true (m.Op.rows_out <= probe.Op.rows_out)
              | [] -> Alcotest.failf "%s: %s has no children" name op)
          nodes
      end)
    (AW.queries d)

(* tick_extract's one-symbol extract sorts on the serializer's pre-keyed
   hq_ord with the typed kernel: its vector_sort names the path and the
   one folded (hq_ord IS NULL) key. A key mixing ints with doubles
   takes the same kernel, ordered by Exec.compare_key. *)
let test_sort_path_named () =
  let d = MD.generate MD.small_scale in
  let db = Db.create () in
  MD.load_pg db d;
  let sess = Db.open_session db in
  Db.set_analyze sess true;
  let eng = Hyperq.Engine.create (Hyperq.Backend.of_pgdb_session sess) in
  let sql =
    Hyperq.Engine.translate eng
      (Printf.sprintf "select from trades where Symbol=`%s" d.MD.syms.(0))
  in
  let sort_detail sql =
    match
      List.find_opt
        (fun (_, m) -> m.Op.op = "vector_sort")
        (Op.flatten (analyzed_plan sess sql))
    with
    | Some (_, m) -> m.Op.detail
    | None -> Alcotest.failf "no vector_sort in %s" sql
  in
  check tstr "tick_extract sorts typed" "2 keys (1 folded), typed"
    (sort_detail sql);
  check tstr "an int/float mix sorts typed" "1 keys (0 folded), typed"
    (sort_detail
       "SELECT CASE WHEN \"Size\" > 1000 THEN \"Size\" ELSE 0.5 END AS v \
        FROM trades ORDER BY v DESC")

let test_exec_off_collects_nothing () =
  let db = marketdata_db () in
  let sess = Db.open_session db in
  (match Db.exec sess "SELECT \"Price\" FROM trades" with
  | Db.Rows _ -> ()
  | _ -> Alcotest.fail "expected rows");
  check tbool "no plan without analyze" true (Db.last_plan sess = None);
  Db.set_analyze sess true;
  ignore (analyzed_plan sess "SELECT \"Price\" FROM trades");
  Db.set_analyze sess false;
  check tbool "turning analyze off clears the plan" true
    (Db.last_plan sess = None)

let test_qerror_accounting () =
  check (Alcotest.float 1e-9) "perfect estimate" 1.0
    (Op.qerror ~est:100 ~actual:100);
  check (Alcotest.float 1e-9) "underestimate" 4.0
    (Op.qerror ~est:25 ~actual:100);
  check (Alcotest.float 1e-9) "empty actuals clamp" 25.0
    (Op.qerror ~est:25 ~actual:0)

(* ------------------------------------------------------------------ *)
(* .hq.explain over the analytical workload, sharded                   *)
(* ------------------------------------------------------------------ *)

let column_syms t name =
  match QV.column_exn t name with
  | QV.Vector _ as v ->
      Array.to_list (QV.atoms_exn v)
      |> List.map (function Qvalue.Atom.Sym s -> s | _ -> "?")
  | _ -> []

let test_workload_explains_sharded () =
  let d = MD.generate MD.small_scale in
  let db = Db.create () in
  MD.load_pg db d;
  with_platform ~shards:2 db (fun p ->
      let c = P.Client.connect p in
      let ex = (P.obs p).Obs.Ctx.explain in
      List.iter
        (fun (q : AW.query) ->
          List.iter (fun s -> ignore (ok (P.Client.query c s))) q.AW.setup;
          match ok (P.Client.query c (".hq.explain " ^ q.AW.text)) with
          | QV.Table t ->
              let rows = QV.table_length t in
              if rows = 0 then
                Alcotest.failf "Q%d: empty operator table" q.AW.id;
              (* every analyzed query lands in the explain ring with its
                 actual row counts *)
              (match Obs.Explain.recent ex 1 with
              | [ pl ] ->
                  check tbool
                    (Printf.sprintf "Q%d: rows scanned" q.AW.id)
                    true
                    (pl.Obs.Explain.a.Obs.Query.rows_scanned > 0)
              | _ -> Alcotest.failf "Q%d: no ring entry" q.AW.id);
              check tbool
                (Printf.sprintf "Q%d: ops named" q.AW.id)
                true
                (List.for_all (fun s -> s <> "") (column_syms t "op"))
          | v ->
              Alcotest.failf "Q%d: expected operator table, got %s" q.AW.id
                (Qvalue.Qprint.to_string v))
        (AW.queries d);
      check tint "all 25 queries analyzed" 25 (Obs.Explain.analyzed_total ex);
      P.Client.close c)

let test_route_explanations () =
  let d = MD.generate MD.small_scale in
  let db = Db.create () in
  MD.load_pg db d;
  with_platform ~shards:2 db (fun p ->
      let c = P.Client.connect p in
      let ex = (P.obs p).Obs.Ctx.explain in
      let s0 = d.MD.syms.(0) in
      (* distribution-key equality pins the query to one shard *)
      (match
         ok
           (P.Client.query c
              (Printf.sprintf ".hq.explain select from trades where \
                               Symbol=`%s" s0))
       with
      | QV.Table t ->
          check tbool "single route: shard operators attached" true
            (QV.table_length t > 0)
      | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
      (match Obs.Explain.recent ex 1 with
      | [ pl ] ->
          check tstr "single route class" "single" pl.Obs.Explain.a.Obs.Query.route;
          check tint "single route: one shard plan" 1
            pl.Obs.Explain.a.Obs.Query.shards
      | _ -> Alcotest.fail "no ring entry");
      (* a grouped aggregate scatters with partial-aggregate decomposition *)
      ignore
        (ok (P.Client.query c ".hq.explain select mx:max Price by Symbol \
                               from trades"));
      (match Obs.Explain.recent ex 1 with
      | [ pl ] ->
          check tstr "scatter route class" "partial_agg"
            pl.Obs.Explain.a.Obs.Query.route;
          check tint "scatter: both shard plans" 2 pl.Obs.Explain.a.Obs.Query.shards;
          (* the decomposition itself is in the rendered document *)
          let has s =
            Str.string_match
              (Str.regexp (".*" ^ Str.quote s))
              pl.Obs.Explain.a.Obs.Query.doc 0
          in
          check tbool "combine functions listed" true
            (has "\"combines\"" && has "\"max\"")
      | _ -> Alcotest.fail "no ring entry");
      P.Client.close c)

(* the route document the EXPLAIN plane splices in, byte for byte: a
   pruned merge and a partial aggregate with an avg decomposition; the
   merge key's quote and backslash pin the escaping *)
let test_route_json_bytes () =
  let module R = Shard.Router in
  let module I = Xtra.Ir in
  let get =
    I.Get
      {
        table = "trades";
        cols = [ { I.cr_name = "hq_ord"; cr_type = Catalog.Sqltype.TBigint } ];
        ordcol = Some "hq_ord";
      }
  in
  let json route = R.explain_json (R.explain_route ~shards:4 route) in
  check tstr "merge route"
    "{\"class\":\"merge\",\"targets\":[0,2],\"reason\":\"\",\
     \"merge_keys\":[[\"hq_ord\",\"asc\"],[\"we\\\"ird\\\\\",\"desc\"]],\
     \"combines\":{},\"pruned\":true}"
    (json
       (R.Run
          (R.Merge (get, [ ("hq_ord", `Asc); ("we\"ird\\", `Desc) ]), [ 0; 2 ])));
  let agg =
    {
      R.a_shard_rel = get;
      a_cols =
        [ ("Symbol", R.CKey); ("n", R.CCount); ("px", R.CAvg ("hq_ps_px", "hq_pc_px")) ];
      a_sort = [ ("Symbol", `Asc) ];
    }
  in
  check tstr "partial_agg route"
    "{\"class\":\"partial_agg\",\"targets\":[0,1,2,3],\"reason\":\"\",\
     \"merge_keys\":[[\"Symbol\",\"asc\"]],\
     \"combines\":{\"Symbol\":\"key\",\"n\":\"count\",\
     \"px\":\"avg(hq_ps_px/hq_pc_px)\"},\"pruned\":false}"
    (json (R.Run (R.PartialAgg agg, [ 0; 1; 2; 3 ])))

(* .hq.explain works unsharded too: the tree is coordinator-side *)
let test_explain_unsharded () =
  with_platform (marketdata_db ()) (fun p ->
      let c = P.Client.connect p in
      (match
         ok (P.Client.query c ".hq.explain q\"select s:sum Size by Symbol \
                               from trades\"")
       with
      | QV.Table t ->
          let shards =
            match QV.column_exn t "shard" with
            | QV.Vector _ as v ->
                Array.to_list (QV.atoms_exn v)
                |> List.map (function Qvalue.Atom.Long i -> Int64.to_int i | _ -> 0)
            | _ -> []
          in
          check tbool "coordinator rows marked -1" true
            (shards <> [] && List.for_all (fun s -> s = -1) shards)
      | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
      (match Obs.Explain.recent (P.obs p).Obs.Ctx.explain 1 with
      | [ pl ] ->
          check tstr "unsharded route class" "coordinator"
            pl.Obs.Explain.a.Obs.Query.route;
          check tbool "rows out recorded" true (pl.Obs.Explain.a.Obs.Query.plan_rows_out > 0)
      | _ -> Alcotest.fail "no ring entry");
      (* a broken query comes back as an atom, not a crash *)
      (match ok (P.Client.query c ".hq.explain select nope from missing") with
      | QV.Atom (Qvalue.Atom.Sym s) ->
          check tbool "error surfaces" true
            (String.length s > 0 && String.sub s 0 7 = "explain")
      | v -> Alcotest.failf "expected atom, got %s" (Qvalue.Qprint.to_string v));
      P.Client.close c)

(* the admin prefix must be followed by whitespace or end the text:
   [.hq.explaintrades] is an ordinary (undefined) Q name for the
   translator, not an ANALYZE of [trades] *)
let test_explain_prefix_is_a_word () =
  with_platform (marketdata_db ()) (fun p ->
      let c = P.Client.connect p in
      let admin () =
        Obs.Metrics.counter_value
          (Obs.Metrics.counter (P.obs p).Obs.Ctx.registry
             "hq_admin_queries_total")
      in
      let a0 = admin () in
      (match P.Client.query c ".hq.explaintrades" with
      | Error e ->
          check tbool "translator names the whole token" true
            (Str.string_match (Str.regexp ".*explaintrades") e 0)
      | Ok v ->
          Alcotest.failf "expected a translator error, got %s"
            (Qvalue.Qprint.to_string v));
      check tint "not answered as an admin query" a0 (admin ());
      check tint "nothing analyzed" 0
        (Obs.Explain.analyzed_total (P.obs p).Obs.Ctx.explain);
      (* whitespace after the prefix still selects the admin query *)
      ignore (ok (P.Client.query c ".hq.explain\tselect t:sum Size from trades"));
      check tint "tab-separated query analyzed" 1
        (Obs.Explain.analyzed_total (P.obs p).Obs.Ctx.explain);
      P.Client.close c)

(* ------------------------------------------------------------------ *)
(* Plan-cache hits must explain identically                            *)
(* ------------------------------------------------------------------ *)

let doc_ops (doc : string) : string list =
  let re = Str.regexp "\"op\":\"\\([a-z_]+\\)\"" in
  let rec go acc pos =
    match Str.search_forward re doc pos with
    | exception Not_found -> List.rev acc
    | p -> go (Str.matched_group 1 doc :: acc) (p + 1)
  in
  go [] 0

let test_plan_cache_hit_stability () =
  with_platform (marketdata_db ()) (fun p ->
      let c = P.Client.connect p in
      let ex = (P.obs p).Obs.Ctx.explain in
      (* the connection's very first statement bumps the scope
         generations the cache key includes, so warm up first *)
      ignore (ok (P.Client.query c "select t:sum Size from trades"));
      let q = ".hq.explain select Price from trades where Size>5" in
      ignore (ok (P.Client.query c q));
      let first =
        match Obs.Explain.recent ex 1 with
        | [ pl ] -> pl
        | _ -> Alcotest.fail "no first entry"
      in
      ignore (ok (P.Client.query c q));
      let second =
        match Obs.Explain.recent ex 1 with
        | [ pl ] -> pl
        | _ -> Alcotest.fail "no second entry"
      in
      check tstr "first run misses" "miss" first.Obs.Explain.a.Obs.Query.cache;
      check tstr "second run hits the template" "hit"
        second.Obs.Explain.a.Obs.Query.cache;
      (* the template path must execute the same plan: identical operator
         sequence, identical row counts *)
      check
        Alcotest.(list string)
        "tree shape stable across cache hit"
        (doc_ops first.Obs.Explain.a.Obs.Query.doc)
        (doc_ops second.Obs.Explain.a.Obs.Query.doc);
      check tint "row counts stable" first.Obs.Explain.a.Obs.Query.plan_rows_out
        second.Obs.Explain.a.Obs.Query.plan_rows_out;
      P.Client.close c)

(* ------------------------------------------------------------------ *)
(* Sampling, recorder and HTTP surfaces                               *)
(* ------------------------------------------------------------------ *)

let test_tail_sampling () =
  with_platform ~analyze_sample:3 (marketdata_db ()) (fun p ->
      let c = P.Client.connect p in
      for _ = 1 to 6 do
        ignore (ok (P.Client.query c "select t:sum Size from trades"))
      done;
      check tint "1-in-3 sampling analyzed 2 of 6" 2
        (Obs.Explain.analyzed_total (P.obs p).Obs.Ctx.explain);
      P.Client.close c)

let test_recorder_attaches_tree () =
  with_platform ~analyze_sample:1 (marketdata_db ()) (fun p ->
      Obs.Recorder.set_threshold (P.obs p).Obs.Ctx.recorder 0.0;
      let c = P.Client.connect p in
      ignore (ok (P.Client.query c "select t:sum Size from trades"));
      (match Obs.Recorder.recent (P.obs p).Obs.Ctx.recorder 1 with
      | [ r ] ->
          check tbool "slow entry carries the operator tree" true
            (String.length
               (Option.fold ~none:"" ~some:(fun a -> a.Obs.Query.doc)
                  r.Obs.Recorder.q.Obs.Query.analysis)
            > 0);
          check tbool "top operator identified" true
            (Option.fold ~none:"" ~some:(fun a -> a.Obs.Query.top_operator)
               r.Obs.Recorder.q.Obs.Query.analysis
            <> "")
      | _ -> Alcotest.fail "recorder captured nothing");
      (* surfaced as the .hq.slow top_operator column *)
      (match ok (P.Client.query c ".hq.slow[1]") with
      | QV.Table t ->
          check tbool "top_operator column" true
            (List.mem "top_operator" (Array.to_list t.QV.cols))
      | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
      P.Client.close c)

let http_get (p : P.t) (path : string) : string =
  H.handle (P.admin_handler p)
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path)

(* plain substring search: Str's [.] does not cross the newlines in an
   HTTP response *)
let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

let test_explain_json_endpoint () =
  let d = MD.generate MD.small_scale in
  let db = Db.create () in
  MD.load_pg db d;
  with_platform ~shards:2 db (fun p ->
      let c = P.Client.connect p in
      ignore
        (ok (P.Client.query c ".hq.explain select mx:max Price by Symbol \
                               from trades"));
      let body = http_get p "/explain.json" in
      check tbool "200" true (contains body "200");
      List.iter
        (fun k -> check tbool (k ^ " present") true (contains body k))
        [
          "\"plans\"";
          "\"route\":\"partial_agg\"";
          "\"pipeline\"";
          "\"statements\"";
          "\"rows_scanned\"";
          "\"top_operator\"";
        ];
      check tbool "scan node present" true
        (contains body "\"op\":\"vector_scan\"");
      (* ?n= limits the ring read: the newest plan routes single, the
         older partial_agg one must drop out *)
      ignore
        (ok
           (P.Client.query c
              (Printf.sprintf ".hq.explain select from trades where \
                               Symbol=`%s" d.MD.syms.(0))));
      let limited = http_get p "/explain.json?n=1" in
      check tbool "limited read skips older plans" true
        (not (contains limited "partial_agg"));
      (* reset clears the ring *)
      (match ok (P.Client.query c ".hq.stats.reset") with
      | QV.Atom (Qvalue.Atom.Sym "reset") -> ()
      | v -> Alcotest.failf "expected `reset, got %s" (Qvalue.Qprint.to_string v));
      check tint "ring empty after reset" 0
        (Obs.Explain.size (P.obs p).Obs.Ctx.explain);
      P.Client.close c)

(* a Q join (lj) analyzed through the platform renders the vectorized
   join operator — with its build/probe detail — in both the .hq.explain
   operator table and the /explain.json document *)
let test_vector_join_rendered () =
  let d = MD.generate MD.small_scale in
  let db = Db.create () in
  MD.load_pg db d;
  with_platform ~shards:2 db (fun p ->
      let c = P.Client.connect p in
      (match
         ok
           (P.Client.query c
              ".hq.explain select qty:sum Size by Sector from trades lj \
               secmaster_w")
       with
      | QV.Table t ->
          check tbool "vector_hash_join in the operator table" true
            (List.mem "vector_hash_join" (column_syms t "op"))
      | v -> Alcotest.failf "expected table, got %s" (Qvalue.Qprint.to_string v));
      let body = http_get p "/explain.json" in
      check tbool "join op rendered" true
        (contains body "\"op\":\"vector_hash_join\"");
      check tbool "build/probe detail rendered" true (contains body "build=");
      P.Client.close c)

let () =
  Alcotest.run "explain"
    [
      ( "executor",
        [
          Alcotest.test_case "tree shape" `Quick test_exec_tree_shape;
          Alcotest.test_case "vector hash join node" `Quick
            test_vector_hash_join_node;
          Alcotest.test_case "chunked totals" `Quick test_chunked_totals;
          Alcotest.test_case "aggregate and join" `Quick
            test_exec_aggregate_and_join;
          Alcotest.test_case "aj analyzes all-vector" `Quick
            test_aj_all_vector_tree;
          Alcotest.test_case "aj queries keep the fused join" `Quick
            test_aj_queries_fused;
          Alcotest.test_case "sort path named" `Quick test_sort_path_named;
          Alcotest.test_case "off collects nothing" `Quick
            test_exec_off_collects_nothing;
          Alcotest.test_case "q-error" `Quick test_qerror_accounting;
        ] );
      ( ".hq.explain",
        [
          Alcotest.test_case "25-query workload sharded" `Quick
            test_workload_explains_sharded;
          Alcotest.test_case "route explanations" `Quick
            test_route_explanations;
          Alcotest.test_case "route JSON bytes" `Quick test_route_json_bytes;
          Alcotest.test_case "unsharded" `Quick test_explain_unsharded;
          Alcotest.test_case "prefix must end the word" `Quick
            test_explain_prefix_is_a_word;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "hit explains identically" `Quick
            test_plan_cache_hit_stability;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "tail sampling" `Quick test_tail_sampling;
          Alcotest.test_case "recorder tree" `Quick
            test_recorder_attaches_tree;
          Alcotest.test_case "/explain.json" `Quick
            test_explain_json_endpoint;
          Alcotest.test_case "vector join rendered" `Quick
            test_vector_join_rendered;
        ] );
    ]
