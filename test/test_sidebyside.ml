(* The side-by-side framework run over the full 25-query Analytical
   Workload at small scale, plus targeted extension queries: the kdb
   interpreter and the Hyper-Q->pgdb pipeline must agree on everything.
   A second backend stores trades and quotes in a shuffled physical
   order, so every ORDER BY the Xformer's required-order pass drops must
   be one Q cannot observe. *)

module MD = Workload.Marketdata
module F = Sidebyside.Framework

let extension_queries =
  (* constructs beyond the 25-query workload: shifts, differ, sublist,
     union join, take, sorting *)
  [
    "select Time, p:prev Price, n:next Price from trades where Symbol=`AAA";
    "select Time from trades where Symbol=`AAA, differ Exch";
    "2 sublist select Price from trades where Symbol=`BBH";
    "select Symbol, Price, Bid from trades uj quotes";
    "3#`Price xdesc select from trades where Symbol=`CCO";
    "select s:sum Price by Exch from trades where Symbol in `AAA`BBH`CCO";
    "exec max Price from trades";
    "exec max Price by Symbol from trades";
    "select n:count Price by Sector from trades lj 1!0!secmaster_w";
    "distinct select Exch from trades";
    "`Bid xasc select Symbol, Bid from trades uj quotes";
    "select s:sum mx by Symbol from update mx:max Price by Symbol from \
     trades where Exch=`N";
    "select nulls:sum null mx from update mx:max Price by Symbol from \
     trades where Exch=`N";
    "select Time, Price from trades where Symbol=`AAA, Price>=avg Price";
    "select n:count Price by Symbol from trades where Symbol like \"A*\"";
    "select w:Size wavg Price by Symbol from trades";
    "select lo:min Bid, hi:max Ask by 3600000 xbar Time from quotes";
  ]

(* every aggregate of the translator's agg_map in the three places it
   lowers to: a GROUP BY aggregate, an fby window over each symbol's
   rows and an update-by window, all and any over a boolean; and an
   aggregate in a where clause, a window over every row *)
let aggregate_queries =
  List.concat_map
    (fun (agg, arg) ->
      [
        ( agg ^ " by",
          Printf.sprintf "select x:%s %s by Symbol from trades" agg arg );
        ( agg ^ " fby",
          Printf.sprintf "select from trades where Price > (%s;%s) fby Symbol"
            agg arg );
        ( agg ^ " update by",
          Printf.sprintf "update x:%s %s by Symbol from trades" agg arg );
      ])
    (List.map
       (fun a -> (a, "Price"))
       [ "sum"; "avg"; "min"; "max"; "count"; "med"; "dev"; "var"; "first";
         "last" ]
    @ [ ("all", "Price>100.0"); ("any", "Price>100.0") ])
  @ [ ("med in where", "select from trades where Price > med Price") ]

(* a moving window of size 0 folds no item: msum answers 0 and the
   other three a null; and the uniform verbs under update ... by run
   within each group, and within the rows a where clause keeps *)
let window_verb_queries =
  List.map
    (fun verb ->
      ( "0 " ^ verb,
        Printf.sprintf "select Time, m:0 %s Price, s:0 %s Size from trades \
                        where Symbol=`AAA" verb verb ))
    [ "mavg"; "msum"; "mmax"; "mmin" ]
  @ List.map
      (fun (verb, arg) ->
        ( verb ^ " update by",
          Printf.sprintf "update x:%s %s by Symbol from trades" verb arg ))
      [ ("sums", "Size"); ("maxs", "Price"); ("prev", "Price");
        ("deltas", "Size") ]
  @ [
      ( "sums update by where",
        "update x:sums Size by Symbol from trades where Price>100.0" );
      ( "prev update by where",
        "update x:prev Price by Symbol from trades where Exch=`N" );
    ]

(* kdb reads an atom on the right of in as a one-item list *)
let in_atom_queries =
  [
    "select from trades where Symbol in `AAA";
    "select n:count Price by Exch from trades where Symbol in `BBH";
  ]

(* =, in and by on symbol columns holding null symbols. A stored null
   symbol reaches pgdb as '' (ns.s, sec.Sec), an lj's unmatched rows as
   NULL text: [trades lj sec] pads Sec with NULL through a gathered,
   dictionary-coded column. *)
let null_symbol_setup =
  [
    "ns:([] s:`a``b`a``c`b`a; v:1 2 3 4 5 6 7 8)";
    "sec:([Symbol:`AAA`BBH`CCO] Sec:`x``y)";
  ]

let null_symbol_queries =
  [
    "select from ns where s=`a";
    "select from ns where s=`";
    "select from ns where not s=`a";
    "select from ns where s in `a`c`";
    "select from ns where s in `zz`yy";
    "select n:count v, w:sum v by s from ns";
    "select n:count v by s from ns where v>2";
    "select v from ns where s=`b, v>3";
    "select n:count Price from (trades lj sec) where Sec=`x";
    "select n:count Price from (trades lj sec) where not Sec=`x";
    "select n:count Price by Sec from (trades lj sec) where Sec in `x`y";
  ]

(* ------------------------------------------------------------------ *)
(* Required order over permuted storage                                *)
(* ------------------------------------------------------------------ *)

(* pgdb over [d] with the rows of trades and quotes stored in a shuffled
   order, each row keeping its hq_ord: a scan no longer returns Q order *)
let permuted_db (d : MD.dataset) : Pgdb.Db.t =
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let rng = Random.State.make [| 26 |] in
  List.iter
    (fun name ->
      let t = Hashtbl.find db.Pgdb.Db.tables name in
      let rows = Stored.rows t in
      for i = Array.length rows - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = rows.(i) in
        rows.(i) <- rows.(j);
        rows.(j) <- x
      done;
      Pgdb.Db.load_table db t.Pgdb.Storage.def (Array.to_list rows))
    [ "trades"; "quotes" ];
  db

type permuted = { kdb : Kdb.Server.t; db : Pgdb.Db.t }

(* with ties on both sides of every as-of range *)
let permuted =
  lazy
    (let d = MD.with_tied_quotes (MD.generate MD.small_scale) in
     let kdb = Kdb.Server.create () in
     List.iter (fun (name, v) -> Kdb.Server.load kdb name v) (MD.q_tables d);
     { kdb; db = permuted_db d })

let engine (p : permuted) =
  Hyperq.Engine.create
    (Hyperq.Backend.of_pgdb_session (Pgdb.Db.open_session p.db))

let agrees_with_kdb (p : permuted) (q : string) =
  let kv =
    match Kdb.Server.query p.kdb ~client:0 q with
    | Ok v -> v
    | Error e -> Alcotest.failf "kdb: %s: %s" q e
  in
  match Hyperq.Engine.try_run (engine p) (Qlang.Fingerprint.analyze q) with
  | Ok { Hyperq.Engine.value = Some hv; _ } -> (
      match F.values_agree kv hv with
      | None -> ()
      | Some diff -> Alcotest.failf "%s: %s" q diff)
  | Ok _ -> Alcotest.failf "%s: no value" q
  | Error e -> Alcotest.failf "hyper-q: %s: %s" q e

let test_storage_is_permuted () =
  let p = Lazy.force permuted in
  List.iter
    (fun name ->
      let rows = Stored.rows (Hashtbl.find p.db.Pgdb.Db.tables name) in
      let ord i = rows.(i).(0) in
      Alcotest.(check bool)
        (name ^ " rows are out of hq_ord order")
        true
        (List.exists (fun i -> ord i > ord (i + 1))
           (List.init (Array.length rows - 1) Fun.id)))
    [ "trades"; "quotes" ]

(* the as-of queries lose their side sorts and still agree with kdb; so
   does an aj whose right side is a grouping, numbered in its order, and
   an lj whose left side loses its sort: that side projects Price away,
   so the joined Price must not be shadowed by the table's own *)
let exactness_queries (d : MD.dataset) =
  List.filter_map
    (fun (q : Workload.Analytical.query) ->
      if List.mem q.Workload.Analytical.id [ 5; 10; 19 ] then
        Some q.Workload.Analytical.text
      else None)
    (Workload.Analytical.queries d)
  @ [
      "aj[`Symbol`Time; select Symbol, Time, Price from trades; select n:count \
       Ask by Symbol, Time, Bid from quotes]";
      "select s:sum Price by Symbol from (select Symbol, Time from trades) lj \
       ([Symbol:`CCO`GGQ] Price:1.0 2.0)";
    ]

(* consumers that observe order keep their Sort: each query's SQL keeps
   as many ORDER BYs as listed, and the answer agrees with kdb *)
let kept_order_cases =
  [
    ( "first/last over a sorted subquery",
      "select o:first Price, c:last Price from select Price from trades \
       where Symbol=`AAA",
      1 );
    ( "3# over xdesc",
      "select s:sum Price from 3#`Price xdesc select from trades where \
       Symbol=`CCO",
      1 );
    ( "mavg/deltas over a grouping",
      "select s:sum m, t:sum d from select m:3 mavg p, d:deltas p from \
       select p:last Price by Time from trades where Symbol=`AAA",
      1 );
    (* the root sort and each branch's *)
    ( "uj",
      "(select Symbol, Price from trades where Symbol=`AAA) uj select \
       Symbol, Bid from quotes where Symbol=`AAA",
      3 );
    ( "as-of side numbered by row_number() OVER ()",
      "aj[`Symbol`Time; select Symbol, Time, Price from trades; select n:count \
       Ask by Symbol, Time, Bid from quotes]",
      2 );
  ]

let test_kept_order (q, n) () =
  let p = Lazy.force permuted in
  let sql = Hyperq.Engine.translate (engine p) q in
  Alcotest.(check int) "ORDER BYs kept" n (Sql_shape.order_bys sql);
  agrees_with_kdb p q

(* Each result column's Q type, which [values_agree] does not look at:
   an empty result's columns must carry kdb's types, through the direct
   backend and through the PG v3 wire alike *)
let typed_queries (d : MD.dataset) =
  let sym = d.MD.syms.(0) in
  [
    "select from trades where Symbol=`NOPE";
    "select Price, Size from trades where Size < 0";
    "select from trades where Symbol=`" ^ sym;
    "select Time, Bid, Ask, BSize from quotes where Symbol=`" ^ sym;
  ]

let column_types (v : Qvalue.Value.t) : string list =
  match Qvalue.Value.unkey v with
  | Qvalue.Value.Table t ->
      Array.to_list
        (Array.map
           (function
             | Qvalue.Value.Vector (ty, _) -> Qvalue.Qtype.name ty
             | Qvalue.Value.List _ -> "general"
             | _ -> "not a list")
           t.Qvalue.Value.data)
  | v -> Alcotest.failf "expected a table, got %s" (Qvalue.Qprint.to_string v)

let test_column_types (d : MD.dataset) kdb backend q () =
  let want =
    match Kdb.Server.query kdb ~client:0 q with
    | Ok v -> column_types v
    | Error e -> Alcotest.failf "kdb: %s" e
  in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  match
    Hyperq.Engine.try_run
      (Hyperq.Engine.create (backend db))
      (Qlang.Fingerprint.analyze q)
  with
  | Ok { Hyperq.Engine.value = Some v; _ } ->
      Alcotest.(check (list string)) "column types" want (column_types v)
  | Ok _ -> Alcotest.fail "no value"
  | Error e -> Alcotest.failf "hyper-q: %s" e

let () =
  let d = Workload.Marketdata.generate Workload.Marketdata.small_scale in
  let reports = Sidebyside.Framework.run_workload d in
  let workload_cases =
    List.map
      (fun (r : Sidebyside.Framework.report) ->
        Alcotest.test_case r.Sidebyside.Framework.query `Quick (fun () ->
            match r.Sidebyside.Framework.verdict with
            | Sidebyside.Framework.Match -> ()
            | v -> Alcotest.fail (Sidebyside.Framework.verdict_str v)))
      reports
  in
  let h = Sidebyside.Framework.create d in
  let extension_cases =
    List.map
      (fun q ->
        Alcotest.test_case q `Quick (fun () ->
            match Sidebyside.Framework.compare_query h q with
            | Sidebyside.Framework.Match -> ()
            | v -> Alcotest.fail (Sidebyside.Framework.verdict_str v)))
      extension_queries
  in
  let cases qs =
    List.map
      (fun (name, q) ->
        Alcotest.test_case name `Quick (fun () ->
            match Sidebyside.Framework.compare_query h q with
            | Sidebyside.Framework.Match -> ()
            | v ->
                Alcotest.failf "%s: %s" q (Sidebyside.Framework.verdict_str v)))
      qs
  in
  let null_symbol_cases =
    List.map
      (fun q ->
        Alcotest.test_case q `Quick (fun () ->
            match
              Sidebyside.Framework.compare_query h ~setup:null_symbol_setup q
            with
            | Sidebyside.Framework.Match -> ()
            | v -> Alcotest.fail (Sidebyside.Framework.verdict_str v)))
      null_symbol_queries
  in
  Alcotest.run "sidebyside"
    [
      ("analytical workload", workload_cases);
      ("extension queries", extension_cases);
      ("null symbols", null_symbol_cases);
      ("aggregates", cases aggregate_queries);
      ("window verbs", cases window_verb_queries);
      ("in an atom", cases (List.map (fun q -> (q, q)) in_atom_queries));
      ( "permuted storage",
        Alcotest.test_case "rows are shuffled" `Quick test_storage_is_permuted
        :: List.map
             (fun q ->
               Alcotest.test_case q `Quick (fun () ->
                   agrees_with_kdb (Lazy.force permuted) q))
             (exactness_queries d) );
      ( "column types",
        List.concat_map
          (fun (name, backend) ->
            List.map
              (fun q ->
                Alcotest.test_case (name ^ ": " ^ q) `Quick
                  (test_column_types d h.F.kdb backend q))
              (typed_queries d))
          [
            ( "direct",
              fun db -> Hyperq.Backend.of_pgdb_session (Pgdb.Db.open_session db) );
            ( "wire",
              fun db -> Platform.Gateway.wire_backend (Pgdb.Db.open_session db) );
          ] );
      ( "required order",
        List.map
          (fun (name, q, n) ->
            Alcotest.test_case name `Quick (test_kept_order (q, n)))
          kept_order_cases );
    ]
