(* The point-in-time query of the paper's Example 1: "get the prevailing
   quote as of each trade" — the most commonly used query by financial
   market analysts — running unchanged against a SQL backend.

     dune exec examples/asof_join.exe

   The example generates a TAQ-style tick stream, runs the as-of join on
   both the bundled kdb+ interpreter (the real-time system) and through
   Hyper-Q on pgdb (the historical system), and shows the generated SQL
   with its LEFT OUTER JOIN + window-function lowering. *)

module MD = Workload.Marketdata

let section title = Printf.printf "\n== %s ==\n" title

let () =
  print_endline "As-of join: real-time vs historical, one query";

  (* a small deterministic tick stream *)
  let scale =
    {
      MD.symbols = 3;
      trades_per_symbol = 6;
      quotes_per_symbol = 12;
      wide_columns = 4;
    }
  in
  let d = MD.generate scale in
  Printf.printf "dataset: %d trades, %d quotes, %d symbols\n"
    (Array.length d.MD.trades)
    (Array.length d.MD.quotes)
    (Array.length d.MD.syms);

  (* Example 1, almost verbatim *)
  let query =
    "aj[`Symbol`Time;\n\
    \  select Symbol, Time, Price from trades where Date=2016.06.26;\n\
    \  select Symbol, Time, Bid, Ask from quotes where Date=2016.06.26]"
  in
  Printf.printf "\nQ query (paper Example 1):\n%s\n" query;

  (* side 1: the kdb+ interpreter (the real-time engine) *)
  let kdb = Kdb.Server.create () in
  List.iter (fun (n, v) -> Kdb.Server.load kdb n v) (MD.q_tables d);
  let kdb_result =
    match Kdb.Server.query kdb ~client:1 query with
    | Ok v -> v
    | Error e -> failwith e
  in
  section "kdb+ (in-memory, real-time)";
  print_endline (Qvalue.Qprint.to_string kdb_result);

  (* side 2: Hyper-Q translating the same text to SQL over pgdb *)
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let eng =
    Hyperq.Engine.create
      (Hyperq.Backend.of_pgdb_session (Pgdb.Db.open_session db))
  in
  let hq_result =
    match Hyperq.Engine.try_run eng (Qlang.Fingerprint.analyze query) with
    | Ok { Hyperq.Engine.value = Some v; _ } -> v
    | Ok _ -> failwith "no result"
    | Error e -> failwith e
  in
  section "Hyper-Q -> PostgreSQL-compatible backend (historical)";
  print_endline (Qvalue.Qprint.to_string hq_result);

  section "generated SQL (LEFT OUTER JOIN + ROW_NUMBER window, Section 3.2.2)";
  print_endline (Hyperq.Engine.translate eng query);

  (* the punchline: both sides agree; a mismatch fails the run *)
  section "side-by-side verdict";
  (match Sidebyside.Framework.values_agree kdb_result hq_result with
  | None -> print_endline "MATCH: identical results from both stacks"
  | Some d ->
      Printf.printf "MISMATCH: %s\n" d;
      exit 1);

  (* ties: every quote repeated at its own time with a higher bid, and
     trades landing exactly on a quote's time. kdb's aj takes the last
     quote at or before the trade, so of two quotes at one time the
     later one; the SQL window breaks the tie on the quote's row order. *)
  section "tied quotes: the later of two quotes at one time";
  let tied = MD.with_tied_quotes d in
  let h = Sidebyside.Framework.create tied in
  let tied_query =
    "aj[`Symbol`Time; select Symbol, Time, Price from trades; select \
     Symbol, Time, Bid, Ask from quotes]"
  in
  match Sidebyside.Framework.compare_query h tied_query with
  | Sidebyside.Framework.Match ->
      print_endline "MATCH: kdb+ and Hyper-Q pick the same quote on every tie"
  | v ->
      print_endline (Sidebyside.Framework.verdict_str v);
      exit 1
