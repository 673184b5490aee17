(* The paper's evaluation (Section 6): Figures 5-7 and ablations of the
   design choices of Sections 3.3/4.3. Correctness lives in the tier-1
   tests and end-to-end speed in bench/suite (hqbench); this program only
   prints the paper's figures.

     dune exec bench/main.exe            -- every experiment
     dune exec bench/main.exe -- fig6    -- one experiment

   Experiments:
     fig6            Figure 6  : translation vs execution time, 25 queries
     fig7            Figure 7  : split of translation time across stages
     cache           Ablation A: metadata cache on/off
     pruning         Ablation B: column pruning on/off (wide tables)
     ordering        Ablation C: order elision on/off
     materialization Ablation D: logical vs physical materialization
     protocol        Figure 5  : QIPC column pivot vs PG v3 row streaming *)

module E = Hyperq.Engine
module T = Hyperq.Stage_timer
module MD = Workload.Marketdata
module AW = Workload.Analytical

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* simulated MPP dispatch floor per backend statement (see DESIGN.md and
   Backend.with_dispatch_latency): real analytical clusters pay tens of
   milliseconds of optimize+dispatch per query (paper Section 2.1) *)
let dispatch_latency = 0.015

let make_backend (d : MD.dataset) : Hyperq.Backend.t =
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  Hyperq.Backend.with_dispatch_latency dispatch_latency
    (Hyperq.Backend.of_pgdb_session (Pgdb.Db.open_session db))

let make_engine ?(config = E.default_config ()) ?mdi_config (d : MD.dataset) :
    E.t =
  E.create ~config ?mdi_config (make_backend d)

let dataset = lazy (MD.generate MD.paper_scale)

let run_query eng (q : AW.query) : unit =
  List.iter
    (fun s ->
      match E.try_run eng s with
      | Ok _ -> ()
      | Error e -> failwith (Printf.sprintf "setup of Q%d failed: %s" q.AW.id e))
    q.AW.setup;
  match E.try_run eng q.AW.text with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "Q%d failed: %s" q.AW.id e)

let header title = Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* Figure 6: translation time vs total execution time                  *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header
    "Figure 6 - Efficiency of query translation (Analytical Workload, 25 \
     queries, metadata caching enabled)";
  let d = Lazy.force dataset in
  let eng = make_engine d in
  let queries = AW.queries d in
  (* warm the metadata cache, as in the paper's setup *)
  List.iter (fun q -> run_query eng q) queries;
  Printf.printf "%-5s %-38s %14s %14s %10s\n" "query" "name" "translate(ms)"
    "execute(ms)" "overhead";
  let overheads = ref [] in
  List.iter
    (fun q ->
      let timer = E.timer eng in
      (* translation repeated; take the minimum to filter GC noise *)
      let tr = ref infinity in
      for _ = 1 to 3 do
        T.reset timer;
        (try ignore (E.translate eng q.AW.text) with _ -> ());
        tr := Float.min !tr (T.translation_total timer *. 1000.0)
      done;
      let tr = !tr in
      T.reset timer;
      run_query eng q;
      let ex = T.execution_total timer *. 1000.0 in
      let pct = 100.0 *. tr /. Float.max 1e-9 (tr +. ex) in
      overheads := pct :: !overheads;
      Printf.printf "%-5d %-38s %14.3f %14.1f %9.2f%%\n%!" q.AW.id q.AW.name
        tr ex pct)
    queries;
  let os = !overheads in
  let avg = List.fold_left ( +. ) 0.0 os /. float_of_int (List.length os) in
  let mx = List.fold_left Float.max 0.0 os in
  Printf.printf
    "--\naverage overhead %.2f%% (paper: ~0.5%%), max %.2f%% (paper: ~4%%)\n"
    avg mx;
  Printf.printf "paper's spike queries (most joins): %s\n"
    (String.concat ", " (List.map string_of_int AW.heavy_ids))

(* ------------------------------------------------------------------ *)
(* Figure 7: translation stage split                                   *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "Figure 7 - Time consumed by translation stages";
  let d = Lazy.force dataset in
  let eng = make_engine d in
  let queries = AW.queries d in
  List.iter (fun q -> run_query eng q) queries;
  Printf.printf "%-5s %12s %12s %12s %12s %12s\n" "query" "parse(us)"
    "algebrize" "optimize" "serialize" "total(us)";
  let totals = Array.make 4 0.0 in
  List.iter
    (fun q ->
      let timer = E.timer eng in
      (* repeat and keep the fastest run, filtering GC noise *)
      let best = ref [| infinity; infinity; infinity; infinity |] in
      for _ = 1 to 3 do
        T.reset timer;
        (try ignore (E.translate eng q.AW.text) with _ -> ());
        let us stage = T.total timer stage *. 1e6 in
        let sample =
          [| us T.Parse; us T.Algebrize; us T.Optimize; us T.Serialize |]
        in
        let sum a = Array.fold_left ( +. ) 0.0 a in
        if sum sample < sum !best then best := sample
      done;
      let p = !best.(0) and a = !best.(1) in
      let o = !best.(2) and s = !best.(3) in
      totals.(0) <- totals.(0) +. p;
      totals.(1) <- totals.(1) +. a;
      totals.(2) <- totals.(2) +. o;
      totals.(3) <- totals.(3) +. s;
      Printf.printf "%-5d %12.1f %12.1f %12.1f %12.1f %12.1f\n%!" q.AW.id p a
        o s (p +. a +. o +. s))
    queries;
  let grand = Float.max 1e-9 (Array.fold_left ( +. ) 0.0 totals) in
  Printf.printf
    "--\nstage share of translation time: parse %.1f%%, algebrize %.1f%%, \
     optimize %.1f%%, serialize %.1f%%\n"
    (100. *. totals.(0) /. grand)
    (100. *. totals.(1) /. grand)
    (100. *. totals.(2) /. grand)
    (100. *. totals.(3) /. grand);
  Printf.printf
    "(paper: optimization and serialization consume most of the time)\n"

(* ------------------------------------------------------------------ *)
(* Ablation A: metadata cache                                          *)
(* ------------------------------------------------------------------ *)

let bench_cache () =
  header "Ablation A - metadata caching (Section 6)";
  let d = Lazy.force dataset in
  let run ~cache =
    let mdi_config = Hyperq.Mdi.default_config () in
    mdi_config.Hyperq.Mdi.cache_enabled <- cache;
    let eng = make_engine ~mdi_config d in
    let queries = AW.queries d in
    let t0 = now () in
    List.iter
      (fun q ->
        List.iter (fun s -> ignore (E.try_run eng s)) q.AW.setup;
        try ignore (E.translate eng q.AW.text) with _ -> ())
      queries;
    let elapsed = (now () -. t0) *. 1000.0 in
    let lookups, misses = Hyperq.Mdi.stats (E.mdi eng) in
    (elapsed, lookups, misses)
  in
  let on_ms, on_l, on_m = run ~cache:true in
  let off_ms, off_l, off_m = run ~cache:false in
  Printf.printf "%-22s %14s %10s %10s\n" "configuration" "translate(ms)"
    "lookups" "misses";
  Printf.printf "%-22s %14.2f %10d %10d\n" "cache enabled" on_ms on_l on_m;
  Printf.printf "%-22s %14.2f %10d %10d\n" "cache disabled" off_ms off_l off_m;
  Printf.printf
    "--\ncaching removes %d of %d catalog round trips (%.1fx translation \
     speedup)\n"
    (off_m - on_m) off_m
    (off_ms /. Float.max 0.001 on_ms)

(* ------------------------------------------------------------------ *)
(* Ablation B: column pruning                                          *)
(* ------------------------------------------------------------------ *)

let bench_pruning () =
  header "Ablation B - column pruning on >500-column tables (Section 3.3)";
  let d = Lazy.force dataset in
  let wide_ids = [ 7; 8; 18; 20 ] in
  let run ~pruning =
    let config = E.default_config () in
    config.E.xformer.Hyperq.Xformer.enable_pruning <- pruning;
    let eng = make_engine ~config d in
    let queries =
      List.filter (fun q -> List.mem q.AW.id wide_ids) (AW.queries d)
    in
    List.map
      (fun q ->
        List.iter (fun s -> ignore (E.try_run eng s)) q.AW.setup;
        let sql = E.translate eng q.AW.text in
        let t0 = now () in
        run_query eng q;
        let ms = (now () -. t0) *. 1000.0 in
        (q.AW.id, String.length sql, ms))
      queries
  in
  let on = run ~pruning:true in
  let off = run ~pruning:false in
  Printf.printf "%-5s %16s %16s %14s %14s\n" "query" "SQL bytes (on)"
    "SQL bytes (off)" "exec ms (on)" "exec ms (off)";
  List.iter2
    (fun (id, b_on, ms_on) (_, b_off, ms_off) ->
      Printf.printf "%-5d %16d %16d %14.1f %14.1f\n" id b_on b_off ms_on
        ms_off)
    on off;
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  Printf.printf
    "--\npruning shrinks generated SQL %.1fx on wide-table queries\n"
    (sum (fun (_, b, _) -> float_of_int b) off
    /. Float.max 1.0 (sum (fun (_, b, _) -> float_of_int b) on))

(* ------------------------------------------------------------------ *)
(* Ablation C: order elision                                           *)
(* ------------------------------------------------------------------ *)

let bench_ordering () =
  header
    "Ablation C - required order: sorts no consumer observes are dropped \
     (Section 3.3)";
  let d = Lazy.force dataset in
  (* scalar aggregations over nested queries: the paper's example of an
     ordering requirement the Xformer can remove (Section 3.3) *)
  let scalar_queries = AW.order_elision_queries in
  let run ~elision =
    let config = E.default_config () in
    config.E.xformer.Hyperq.Xformer.enable_order_elision <- elision;
    let eng = make_engine ~config d in
    List.map
      (fun qtext ->
        let sql = E.translate eng qtext in
        let has_order =
          let re = Str.regexp_string "ORDER BY" in
          try
            ignore (Str.search_forward re sql 0);
            true
          with Not_found -> false
        in
        let t0 = now () in
        ignore (E.try_run eng qtext);
        ((now () -. t0) *. 1000.0, has_order))
      scalar_queries
  in
  let on = run ~elision:true in
  let off = run ~elision:false in
  Printf.printf "%-48s %11s %8s %11s %8s\n" "query" "ms (elide)" "sorted?"
    "ms (naive)" "sorted?";
  List.iteri
    (fun i qtext ->
      let ms_on, so_on = List.nth on i in
      let ms_off, so_off = List.nth off i in
      Printf.printf "%-48s %11.2f %8b %11.2f %8b\n"
        (String.sub qtext 0 (Stdlib.min 48 (String.length qtext)))
        ms_on so_on ms_off so_off)
    scalar_queries;
  Printf.printf
    "--\nthe required-order pass removes the inner ORDER BY a scalar \
     aggregate cannot observe\n"

(* ------------------------------------------------------------------ *)
(* Ablation D: materialization strategy                                *)
(* ------------------------------------------------------------------ *)

let bench_materialization () =
  header
    "Ablation D - logical vs physical materialization of Q variables \
     (Section 4.3)";
  let d = Lazy.force dataset in
  let sym = d.MD.syms.(0) in
  let setup =
    "f:{[s] dt: select Price, Size from trades where Symbol=s; :select \
     vol:sum Size, px:avg Price from dt}"
  in
  let invocations = 20 in
  let run strategy =
    let config = E.default_config () in
    config.E.materialization <- strategy;
    let eng = make_engine ~config d in
    ignore (E.try_run eng setup);
    let backend = (E.mdi eng).Hyperq.Mdi.backend in
    let before = Hyperq.Backend.log_mark backend in
    let t0 = now () in
    for _ = 1 to invocations do
      match E.try_run eng (Printf.sprintf "f[`%s]" sym) with
      | Ok _ -> ()
      | Error e -> failwith e
    done;
    let ms = (now () -. t0) *. 1000.0 in
    (ms, Hyperq.Backend.log_mark backend - before)
  in
  let lm, ls = run `Logical in
  let pm, ps = run `Physical in
  Printf.printf "%-24s %12s %16s\n" "strategy" "total(ms)" "SQL statements";
  Printf.printf "%-24s %12.2f %16d\n" "logical (inline)" lm ls;
  Printf.printf "%-24s %12.2f %16d\n" "physical (temp table)" pm ps;
  Printf.printf
    "--\nphysical materialization emits CREATE TEMPORARY TABLE per local \
     variable (the paper's Example 3 strategy); logical inlines the \
     definition\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: protocol pivot                                            *)
(* ------------------------------------------------------------------ *)

let bench_protocol () =
  header
    "Figure 5 - result formats: QIPC single column-oriented message vs PG \
     v3 row stream";
  Printf.printf "%-10s %14s %14s %14s %14s\n" "rows" "qipc bytes"
    "qipc enc (ms)" "pgv3 bytes" "pgv3 enc (ms)";
  List.iter
    (fun n ->
      let table =
        Qvalue.Value.Table
          (Qvalue.Value.table
             [
               ( "sym",
                 Qvalue.Value.syms
                   (Array.init n (fun i -> Printf.sprintf "S%03d" (i mod 500)))
               );
               ( "px",
                 Qvalue.Value.floats
                   (Array.init n (fun i -> float_of_int i *. 0.01)) );
               ("qty", Qvalue.Value.longs (Array.init n (fun i -> i)));
             ])
      in
      (* the same result as pgdb hands the wire server: typed columns *)
      let result =
        {
          Pgdb.Exec.res_cols =
            Catalog.Sqltype.[ ("sym", TVarchar); ("px", TDouble); ("qty", TBigint) ];
          res_nrows = n;
          res_columns =
            [|
              Pgdb.Batch.column_init n (fun i ->
                  Pgdb.Value.Str (Printf.sprintf "S%03d" (i mod 500)));
              Pgdb.Batch.column_init n (fun i ->
                  Pgdb.Value.Float (float_of_int i *. 0.01));
              Pgdb.Batch.column_init n (fun i -> Pgdb.Value.Int (Int64.of_int i));
            |];
        }
      in
      let t0 = now () in
      let qipc_bytes =
        Qipc.Codec.encode_message
          { Qipc.Codec.mt = Qipc.Codec.Response; body = Qipc.Codec.Value table }
      in
      let qipc_ms = (now () -. t0) *. 1000.0 in
      (* the row stream the Gateway reads: binary cells, one DataRow per row *)
      let t1 = now () in
      let buf = Buffer.create (n * 32) in
      let binary = Array.make 3 Pgwire.Codec.Binary in
      Pgwire.Codec.add_backend buf (Pgwire.Server.row_description result binary);
      Pgwire.Server.data_rows buf result binary;
      let pg_ms = (now () -. t1) *. 1000.0 in
      Printf.printf "%-10d %14d %14.2f %14d %14.2f\n%!" n
        (String.length qipc_bytes) qipc_ms (Buffer.length buf) pg_ms)
    [ 100; 1_000; 10_000; 100_000 ];
  Printf.printf
    "--\nQIPC needs the whole result buffered before its single message \
     can be formed; PG v3 streams per-row (paper Section 4.2)\n"

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("cache", bench_cache);
    ("pruning", bench_pruning);
    ("ordering", bench_ordering);
    ("materialization", bench_materialization);
    ("protocol", bench_protocol);
  ]

let () =
  match List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv)) with
  | [] -> List.iter (fun (_, f) -> f ()) all_experiments
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n all_experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s; available: %s\n" n
                (String.concat ", " (List.map fst all_experiments));
              exit 2)
        names
