(* Tests for the workload generator (lib/workload): deterministic data,
   paper-shaped schema, and well-formed queries. *)

module MD = Workload.Marketdata
module AW = Workload.Analytical

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let test_determinism () =
  (* same seed, same data — benchmarks and side-by-side runs must agree *)
  let d1 = MD.generate MD.small_scale in
  let d2 = MD.generate MD.small_scale in
  check tint "same trade count" (Array.length d1.MD.trades)
    (Array.length d2.MD.trades);
  check tbool "identical trades" true (d1.MD.trades = d2.MD.trades);
  check tbool "identical quotes" true (d1.MD.quotes = d2.MD.quotes);
  (* a different seed changes the data *)
  let d3 = MD.generate ~seed:7 MD.small_scale in
  check tbool "different seed differs" false (d1.MD.trades = d3.MD.trades)

let test_scale () =
  let d = MD.generate MD.small_scale in
  check tint "trades = symbols * per-symbol"
    (MD.small_scale.MD.symbols * MD.small_scale.MD.trades_per_symbol)
    (Array.length d.MD.trades);
  check tint "quotes = symbols * per-symbol"
    (MD.small_scale.MD.symbols * MD.small_scale.MD.quotes_per_symbol)
    (Array.length d.MD.quotes)

let test_feed_is_time_ordered () =
  (* ticks arrive in time order, as a real consolidated feed *)
  let d = MD.generate MD.small_scale in
  let ordered = ref true in
  Array.iteri
    (fun i t ->
      if i > 0 && t.MD.t_time < d.MD.trades.(i - 1).MD.t_time then
        ordered := false)
    d.MD.trades;
  check tbool "trades time-ordered" true !ordered

let test_paper_shape_wide_tables () =
  (* the paper's workload: tables with more than 500 columns *)
  let d = MD.generate MD.paper_scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let sess = Pgdb.Db.open_session db in
  List.iter
    (fun name ->
      match Pgdb.Db.describe_table sess name with
      | Some def ->
          let n = List.length def.Catalog.Schema.tbl_columns in
          check tbool (name ^ " has >500 columns") true (n > 500);
          check tbool (name ^ " keyed on Symbol") true
            (def.Catalog.Schema.tbl_keys = [ "Symbol" ])
      | None -> Alcotest.failf "%s missing" name)
    [ "secmaster_w"; "risk_w"; "limits_w" ];
  (* fact tables carry the implicit order column *)
  match Pgdb.Db.describe_table sess "trades" with
  | Some def ->
      check tbool "order column mapped" true
        (def.Catalog.Schema.tbl_order_col = Some "hq_ord")
  | None -> Alcotest.fail "trades missing"

let test_quotes_straddle_trades () =
  (* every symbol's first quote precedes its first trade, so as-of joins
     can always find a prevailing quote after the open *)
  let d = MD.generate MD.small_scale in
  Array.iter
    (fun sym ->
      let first_trade =
        Array.to_list d.MD.trades
        |> List.filter (fun t -> t.MD.t_sym = sym)
        |> List.map (fun t -> t.MD.t_time)
        |> List.fold_left min max_int
      in
      let first_quote =
        Array.to_list d.MD.quotes
        |> List.filter (fun q -> q.MD.q_sym = sym)
        |> List.map (fun q -> q.MD.q_time)
        |> List.fold_left min max_int
      in
      check tbool (sym ^ ": quote before first trade") true
        (first_quote <= first_trade))
    d.MD.syms

let test_workload_has_25_queries () =
  let d = MD.generate MD.small_scale in
  let qs = AW.queries d in
  check tint "25 queries" 25 (List.length qs);
  (* ids are 1..25 in order *)
  List.iteri
    (fun i q -> check tint "sequential ids" (i + 1) q.AW.id)
    qs;
  (* the paper's spike queries join three or more tables *)
  List.iter
    (fun id ->
      let q = List.find (fun q -> q.AW.id = id) qs in
      check tbool
        (Printf.sprintf "Q%d joins 3+ tables" id)
        true
        (List.length q.AW.tables >= 3))
    AW.heavy_ids

let test_all_queries_parse () =
  let d = MD.generate MD.small_scale in
  List.iter
    (fun q ->
      List.iter
        (fun setup ->
          match Qlang.Parser.parse_program setup with
          | _ -> ()
          | exception e ->
              Alcotest.failf "Q%d setup does not parse: %s" q.AW.id
                (Printexc.to_string e))
        q.AW.setup;
      match Qlang.Parser.parse_program q.AW.text with
      | [ _ ] -> ()
      | stmts ->
          Alcotest.failf "Q%d parses to %d statements" q.AW.id
            (List.length stmts)
      | exception e ->
          Alcotest.failf "Q%d does not parse: %s" q.AW.id
            (Printexc.to_string e))
    (AW.queries d)

let test_pg_and_kdb_loads_agree () =
  (* the two loaders must materialise identical wide-table contents (the
     shared-RNG discipline) *)
  let d = MD.generate MD.small_scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let sess = Pgdb.Db.open_session db in
  let kdb_tables = MD.q_tables d in
  let secmaster_kdb =
    match List.assoc "secmaster_w" kdb_tables with
    | v -> Qvalue.Value.unkey v
  in
  match
    Pgdb.Db.exec sess
      "SELECT \"Sector\" FROM secmaster_w ORDER BY \"Symbol\" ASC"
  with
  | Pgdb.Db.Rows (res, _) ->
      let pg_sectors =
        Array.to_list (Stored.result_rows res)
        |> List.map (fun row ->
               match row.(0) with Pgdb.Value.Str s -> s | _ -> "?")
      in
      let kdb_sorted =
        match secmaster_kdb with
        | Qvalue.Value.Table t ->
            let syms = Qvalue.Value.column_exn t "Symbol" in
            let sectors = Qvalue.Value.column_exn t "Sector" in
            let idx = Qvalue.Value.grade_up syms in
            Array.to_list idx
            |> List.map (fun i ->
                   match Qvalue.Value.index sectors i with
                   | Qvalue.Value.Atom (Qvalue.Atom.Sym s) -> s
                   | _ -> "?")
        | _ -> []
      in
      check (Alcotest.list Alcotest.string) "sector assignment identical"
        kdb_sorted pg_sectors
  | _ -> Alcotest.fail "catalog query failed"

(* Cold translation must stay linear in schema width: doubling the wide
   tables' columns may at most about double Q18's and Q20's translation
   time. A list-membership test per column pair made each doubling cost
   ~3.7x. Time, not allocation, is measured: a quadratic List.mem scan
   allocates nothing. Both engines are built first and their timings
   interleave trial by trial, so a busy spell on a shared machine slows
   both widths alike instead of one; each width keeps its best trial. *)
let test_translation_linear_in_width () =
  let engine width =
    let scale =
      { MD.symbols = 4; trades_per_symbol = 4; quotes_per_symbol = 4; wide_columns = width }
    in
    let d = MD.generate scale in
    let db = Pgdb.Db.create () in
    MD.load_pg db d;
    let eng =
      Hyperq.Engine.create
        (Hyperq.Backend.of_pgdb_session (Pgdb.Db.open_session db))
    in
    (eng, AW.queries d)
  in
  let narrow = engine 510 and wide = engine 1020 in
  List.iter
    (fun id ->
      let text (_, queries) =
        (List.find (fun q -> q.AW.id = id) queries).AW.text
      in
      let time ((eng, _) as e) =
        let q = text e in
        let t0 = Obs.Clock.now_ns () in
        ignore (Hyperq.Engine.translate eng q);
        Obs.Clock.seconds_since t0
      in
      (* the first translation fetches the wide tables' metadata *)
      ignore (time narrow);
      ignore (time wide);
      let n = ref infinity and w = ref infinity in
      for _ = 1 to 9 do
        n := Float.min !n (time narrow);
        w := Float.min !w (time wide)
      done;
      let ratio = !w /. !n in
      if ratio >= 3.0 then
        Alcotest.failf "Q%d: 1020 columns take %.1fx the time of 510 (%.0f vs %.0f us)"
          id ratio (!w *. 1e6) (!n *. 1e6))
    [ 18; 20 ]

let () =
  Alcotest.run "workload"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "scale arithmetic" `Quick test_scale;
          Alcotest.test_case "feed time-ordered" `Quick
            test_feed_is_time_ordered;
          Alcotest.test_case "wide tables >500 cols" `Quick
            test_paper_shape_wide_tables;
          Alcotest.test_case "quotes precede trades" `Quick
            test_quotes_straddle_trades;
          Alcotest.test_case "pg/kdb loads agree" `Quick
            test_pg_and_kdb_loads_agree;
        ] );
      ( "analytical workload",
        [
          Alcotest.test_case "25 queries, heavy ids" `Quick
            test_workload_has_25_queries;
          Alcotest.test_case "all queries parse" `Quick test_all_queries_parse;
          Alcotest.test_case "translation linear in width" `Quick
            test_translation_linear_in_width;
        ] );
    ]
