(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Section 6) plus ablations for the design choices of Sections 3.3/4.3.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig6    -- one experiment

   Experiments:
     fig6            Figure 6  : translation vs execution time, 25 queries
     fig7            Figure 7  : split of translation time across stages
     cache           Ablation A: metadata cache on/off
     pruning         Ablation B: column pruning on/off (wide tables)
     ordering        Ablation C: order elision on/off
     materialization Ablation D: logical vs physical materialization
     protocol        Figure 5  : QIPC column pivot vs PG v3 row streaming
     obs             Per-stage percentiles over the full proxy
     qstats          Fingerprint-store overhead
     trace_export    Correlation-plane overhead (ids/traceparent/export/log)
     smoke           Quick trace_export gate for `make ci` (exit 1 on fail)
     plan_cache      Plan-cache cold vs warm translation reuse
     plan_cache_gate Quick plan_cache gate for `make ci` (exit 1 on fail)
     shard           Scatter/gather scaling over 1/2/4/8 shards
     shard_gate      Quick shard gate for `make ci` (exit 1 on fail)
     obs_cluster     Cluster-observability overhead on a 2-shard cluster
     obs_gate        Quick obs_cluster gate for `make ci` (exit 1 on fail)
     explain         EXPLAIN/ANALYZE collection overhead off/sampled/always
     explain_gate    Quick explain gate for `make ci` (exit 1 on fail)
     runtime         GC telemetry + allocation-attribution overhead
     runtime_gate    Quick runtime gate for `make ci` (exit 1 on fail)
     micro           Bechamel micro-benchmarks of the translation pipeline *)

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
  header "Ablation C - ordering elision under scalar aggregates (Section 3.3)";
  let d = Lazy.force dataset in
  (* scalar aggregations over nested queries: the paper's example of an
     ordering requirement the Xformer can remove (Section 3.3) *)
  let scalar_queries =
    [
      "select max Price from (select Price from trades)";
      "select sum Size from (select Size from trades where Price>10.0)";
      "select avg Bid from (select Bid from quotes)";
      "select n:count Price from (select Price, Size from trades) where \
       Size>1000";
    ]
  in
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
    "--\nelision removes the inner ORDER BY a scalar aggregate cannot \
     observe\n"

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
    let backend_log = (E.mdi eng).Hyperq.Mdi.backend.Hyperq.Backend.sql_log in
    let before = List.length !backend_log in
    let t0 = now () in
    for _ = 1 to invocations do
      match E.try_run eng (Printf.sprintf "f[`%s]" sym) with
      | Ok _ -> ()
      | Error e -> failwith e
    done;
    let ms = (now () -. t0) *. 1000.0 in
    (ms, List.length !backend_log - before)
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
      (* the same rows as pgdb hands the wire server *)
      let rows =
        Array.init n (fun i ->
            [|
              Pgdb.Value.Str (Printf.sprintf "S%03d" (i mod 500));
              Pgdb.Value.Float (float_of_int i *. 0.01);
              Pgdb.Value.Int (Int64.of_int i);
            |])
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
      Pgwire.Codec.add_backend buf
        (Pgwire.Codec.RowDescription
           (List.map
              (fun (fd_name, fd_type_oid) ->
                { Pgwire.Codec.fd_name; fd_type_oid; fd_format = Pgwire.Codec.Binary })
              [ ("sym", 1043); ("px", 701); ("qty", 20) ]));
      let body = Buffer.create 64 and scratch = Buffer.create 16 in
      Array.iter
        (Pgwire.Codec.add_data_row buf ~body ~scratch (fun b _ v ->
             Pgdb.Value.add_binary b v;
             true))
        rows;
      let pg_ms = (now () -. t1) *. 1000.0 in
      Printf.printf "%-10d %14d %14.2f %14d %14.2f\n%!" n
        (String.length qipc_bytes) qipc_ms (Buffer.length buf) pg_ms)
    [ 100; 1_000; 10_000; 100_000 ];
  Printf.printf
    "--\nQIPC needs the whole result buffered before its single message \
     can be formed; PG v3 streams per-row (paper Section 4.2)\n"

(* ------------------------------------------------------------------ *)
(* Observability: per-stage percentiles over the full proxy            *)
(* ------------------------------------------------------------------ *)

(* drives the entire wire path (QIPC -> XC -> PG v3 -> pgdb -> pivot) so
   the registry sees exactly what a production scrape would, then writes
   the stage percentiles and the full metrics snapshot to BENCH_obs.json *)
let bench_obs () =
  header
    "Observability - per-stage latency percentiles over the full proxy \
     (writes BENCH_obs.json)";
  let module P = Platform.Hyperq_platform in
  let d = Lazy.force dataset in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let platform = P.create db in
  let client = P.Client.connect platform in
  let queries = AW.queries d in
  let rounds = 3 in
  for _ = 1 to rounds do
    List.iter
      (fun q ->
        List.iter
          (fun s -> ignore (P.Client.query client s))
          q.AW.setup;
        ignore (P.Client.query client q.AW.text))
      queries
  done;
  let reg = (P.obs platform).Obs.Ctx.registry in
  let stage_hist name =
    Obs.Metrics.histogram reg ~labels:[ ("stage", name) ] "hq_stage_seconds"
  in
  let stage_names =
    List.map T.stage_name T.all_stages
  in
  Printf.printf "%-12s %8s %12s %12s %12s\n" "stage" "count" "p50(us)"
    "p95(us)" "p99(us)";
  List.iter
    (fun s ->
      let h = stage_hist s in
      let p q = Obs.Metrics.percentile h q *. 1e6 in
      Printf.printf "%-12s %8d %12.1f %12.1f %12.1f\n" s
        (Obs.Metrics.hist_count h) (p 50.) (p 95.) (p 99.))
    stage_names;
  let query_h = Obs.Metrics.histogram reg "hq_query_seconds" in
  Printf.printf "%-12s %8d %12.1f %12.1f %12.1f\n" "query(total)"
    (Obs.Metrics.hist_count query_h)
    (Obs.Metrics.percentile query_h 50. *. 1e6)
    (Obs.Metrics.percentile query_h 95. *. 1e6)
    (Obs.Metrics.percentile query_h 99. *. 1e6);
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"stages\": {\n";
  let stage_json s =
    let h = stage_hist s in
    Printf.sprintf
      "    \"%s\": {\"count\": %d, \"p50_us\": %.2f, \"p95_us\": %.2f, \
       \"p99_us\": %.2f}"
      s (Obs.Metrics.hist_count h)
      (Obs.Metrics.percentile h 50. *. 1e6)
      (Obs.Metrics.percentile h 95. *. 1e6)
      (Obs.Metrics.percentile h 99. *. 1e6)
  in
  Buffer.add_string buf (String.concat ",\n" (List.map stage_json stage_names));
  Buffer.add_string buf "\n  },\n  \"query_seconds\": ";
  Buffer.add_string buf
    (Printf.sprintf
       "{\"count\": %d, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f},\n"
       (Obs.Metrics.hist_count query_h)
       (Obs.Metrics.percentile query_h 50. *. 1e3)
       (Obs.Metrics.percentile query_h 95. *. 1e3)
       (Obs.Metrics.percentile query_h 99. *. 1e3));
  Buffer.add_string buf "  \"metrics\": [\n";
  let samples = Obs.Metrics.snapshot reg in
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun s ->
            Printf.sprintf
              "    {\"name\": \"%s\", \"kind\": \"%s\", \"value\": %g}"
              (String.concat "'"
                 (String.split_on_char '"' s.Obs.Metrics.s_name))
              s.Obs.Metrics.s_kind s.Obs.Metrics.s_value)
          samples));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "--\nwrote %d metric samples to BENCH_obs.json\n"
    (List.length samples);
  P.Client.close client

(* ------------------------------------------------------------------ *)
(* Workload introspection: fingerprint-store overhead                  *)
(* ------------------------------------------------------------------ *)

(* drives a 10k-query workload through the full proxy so the fingerprint
   store and flight recorder see production-shaped traffic, then isolates
   the introspection cost (normalize + hash + record) per query and
   writes BENCH_qstats.json; target is <5% of end-to-end query latency *)
let bench_qstats () =
  header
    "Workload introspection - fingerprint-store overhead (writes \
     BENCH_qstats.json)";
  let module P = Platform.Hyperq_platform in
  let d = MD.generate MD.small_scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let recorder = Obs.Recorder.create ~capacity:64 ~sample_every:100 () in
  let obs = Obs.Ctx.create ~recorder () in
  let platform = P.create ~obs db in
  let client = P.Client.connect platform in
  let shapes =
    [
      (fun i -> Printf.sprintf "select Price from trades where Symbol=`%s"
          d.MD.syms.(i mod Array.length d.MD.syms));
      (fun i -> Printf.sprintf "select sum Size from trades where Price>%f"
          (float_of_int (i mod 50)));
      (fun _ -> "select avg Bid from quotes");
      (fun i -> Printf.sprintf "select from trades where Size>%d" (i mod 1000));
    ]
  in
  let total_queries = 10_000 in
  List.iteri
    (fun i shape ->
      ignore i;
      ignore (P.Client.query client (shape 0)))
    shapes;
  for i = 0 to total_queries - 1 do
    let shape = List.nth shapes (i mod List.length shapes) in
    ignore (P.Client.query client (shape i))
  done;
  let ctx = P.obs platform in
  let qstats = ctx.Obs.Ctx.qstats in
  let reg = ctx.Obs.Ctx.registry in
  let query_h = Obs.Metrics.histogram reg "hq_query_seconds" in
  let mean_query_us =
    Obs.Metrics.hist_sum query_h
    /. float_of_int (Stdlib.max 1 (Obs.Metrics.hist_count query_h))
    *. 1e6
  in
  (* isolated introspection cost on a scratch store, over the same texts *)
  let scratch = Obs.Qstats.create () in
  let texts =
    Array.init 256 (fun i ->
        (List.nth shapes (i mod List.length shapes)) i)
  in
  let iterations = 20_000 in
  let t0 = now () in
  for i = 0 to iterations - 1 do
    let text = texts.(i mod Array.length texts) in
    let norm = Qlang.Fingerprint.normalize text in
    let fp = Qlang.Fingerprint.of_normalized norm in
    Obs.Qstats.record scratch ~fingerprint:fp ~query:norm ~duration_s:1e-4
      ~error_class:None ~rows_out:10 ~bytes_in:64 ~bytes_out:256
      ~stages:[ ("parse", 1e-5); ("execute", 5e-5) ]
      ()
  done;
  let mean_introspect_us = (now () -. t0) *. 1e6 /. float_of_int iterations in
  let overhead_pct = 100.0 *. mean_introspect_us /. Float.max 1e-9 mean_query_us in
  let ring_size = Obs.Recorder.size recorder in
  let ring_ok = ring_size <= Obs.Recorder.capacity recorder in
  Printf.printf "%-34s %12d\n" "queries through the proxy" total_queries;
  Printf.printf "%-34s %12d\n" "distinct fingerprints tracked"
    (Obs.Qstats.size qstats);
  Printf.printf "%-34s %12d\n" "LRU evictions" (Obs.Qstats.evictions qstats);
  Printf.printf "%-34s %12.1f\n" "mean query latency (us)" mean_query_us;
  Printf.printf "%-34s %12.3f\n" "mean introspection cost (us)"
    mean_introspect_us;
  Printf.printf "%-34s %11.3f%%  (target <5%%)\n" "overhead" overhead_pct;
  Printf.printf "%-34s %6d <= %-5d %s\n" "flight-recorder ring" ring_size
    (Obs.Recorder.capacity recorder)
    (if ring_ok then "(bounded ok)" else "(OVERFLOW!)");
  let oc = open_out "BENCH_qstats.json" in
  Printf.fprintf oc
    "{\n\
    \  \"queries\": %d,\n\
    \  \"fingerprints_tracked\": %d,\n\
    \  \"lru_evictions\": %d,\n\
    \  \"mean_query_us\": %.3f,\n\
    \  \"mean_introspect_us\": %.3f,\n\
    \  \"overhead_pct\": %.4f,\n\
    \  \"ring_size\": %d,\n\
    \  \"ring_capacity\": %d,\n\
    \  \"ring_bounded\": %b,\n\
    \  \"top\": %s\n\
     }\n"
    total_queries (Obs.Qstats.size qstats) (Obs.Qstats.evictions qstats)
    mean_query_us mean_introspect_us overhead_pct ring_size
    (Obs.Recorder.capacity recorder) ring_ok
    (Obs.Qstats.to_json ~n:5 qstats);
  close_out oc;
  Printf.printf "--\nwrote BENCH_qstats.json\n";
  P.Client.close client

(* ------------------------------------------------------------------ *)
(* Correlated tracing: end-to-end overhead of the correlation plane    *)
(* ------------------------------------------------------------------ *)

(* drives a workload through the full proxy (which now generates trace
   ids, decorates SQL with traceparent comments, keeps the session
   registry current, exports every finished trace and logs per query),
   then isolates the pure correlation cost per query — id generation,
   traceparent decoration, session registry churn, export-ring offer and
   one rendered log line — and compares it to the measured end-to-end
   query latency. Target: <2% overhead. Full run writes
   BENCH_trace_export.json; [~smoke:true] is the quick CI gate. *)
let bench_trace_export ?(smoke = false) () =
  header
    (if smoke then "Correlated tracing - overhead smoke check"
     else "Correlated tracing - correlation-plane overhead (writes \
           BENCH_trace_export.json)");
  let module P = Platform.Hyperq_platform in
  let d = MD.generate MD.small_scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let obs = Obs.Ctx.create () in
  let platform = P.create ~obs db in
  let client = P.Client.connect platform in
  let shapes =
    [
      (fun i -> Printf.sprintf "select Price from trades where Symbol=`%s"
          d.MD.syms.(i mod Array.length d.MD.syms));
      (fun i -> Printf.sprintf "select sum Size from trades where Price>%f"
          (float_of_int (i mod 50)));
      (fun _ -> "select avg Bid from quotes");
    ]
  in
  let total_queries = if smoke then 300 else 10_000 in
  for i = 0 to total_queries - 1 do
    let shape = List.nth shapes (i mod List.length shapes) in
    ignore (P.Client.query client (shape i))
  done;
  let reg = obs.Obs.Ctx.registry in
  let query_h = Obs.Metrics.histogram reg "hq_query_seconds" in
  let mean_query_us =
    Obs.Metrics.hist_sum query_h
    /. float_of_int (Stdlib.max 1 (Obs.Metrics.hist_count query_h))
    *. 1e6
  in
  let exported = Obs.Export.exported_total obs.Obs.Ctx.export in
  (* isolated correlation cost on scratch components *)
  let scratch_sessions = Obs.Sessions.create () in
  let session = Obs.Sessions.register ~user:"bench" scratch_sessions in
  let scratch_export = Obs.Export.create () in
  let scratch_log =
    Obs.Log.create ~sink:(Obs.Events.create ()) (Obs.Metrics.create ())
  in
  let sql = "SELECT \"Price\" FROM trades WHERE \"Symbol\" = 'S000'" in
  let iterations = if smoke then 5_000 else 50_000 in
  let t0 = now () in
  for _ = 1 to iterations do
    let tr = Obs.Trace.start "query" in
    let trace_id = Obs.Trace.trace_id tr in
    Obs.Sessions.query_started session ~query:sql ~fingerprint:"fp";
    Obs.Sessions.set_trace session trace_id;
    let decorated =
      sql ^ " /* traceparent='"
      ^ Obs.Trace.traceparent ~trace_id
          ~span_id:(Obs.Trace.span_id (Obs.Trace.current tr))
      ^ "' */"
    in
    ignore (String.length decorated);
    Obs.Trace.with_span tr "execute" (fun () -> ());
    let root = Obs.Trace.finish tr in
    Obs.Sessions.query_finished session;
    Obs.Export.offer scratch_export ~ts:(Unix.gettimeofday ()) ~trace_id root;
    Obs.Log.info scratch_log ~trace_id "query completed"
      [ ("duration_ms", Obs.Events.Float 0.1) ]
  done;
  let mean_correlate_us = (now () -. t0) *. 1e6 /. float_of_int iterations in
  let overhead_pct =
    100.0 *. mean_correlate_us /. Float.max 1e-9 mean_query_us
  in
  let export_ring = obs.Obs.Ctx.export in
  let ring_ok = Obs.Export.size export_ring <= Obs.Export.capacity export_ring in
  Printf.printf "%-34s %12d\n" "queries through the proxy" total_queries;
  Printf.printf "%-34s %12d\n" "traces exported" exported;
  Printf.printf "%-34s %12.1f\n" "mean query latency (us)" mean_query_us;
  Printf.printf "%-34s %12.3f\n" "mean correlation cost (us)"
    mean_correlate_us;
  Printf.printf "%-34s %11.3f%%  (target <2%%)\n" "overhead" overhead_pct;
  Printf.printf "%-34s %6d <= %-5d %s\n" "trace-export ring"
    (Obs.Export.size export_ring)
    (Obs.Export.capacity export_ring)
    (if ring_ok then "(bounded ok)" else "(OVERFLOW!)");
  P.Client.close client;
  if smoke then begin
    (* generous gate: the full run targets <2%, but the smoke run's tiny
       sample is noisy, so only fail on an order-of-magnitude regression *)
    let limit = 5.0 in
    if (not ring_ok) || overhead_pct > limit then begin
      Printf.printf
        "--\nSMOKE FAIL: overhead %.3f%% > %.1f%% or ring overflow\n"
        overhead_pct limit;
      exit 1
    end;
    Printf.printf "--\nsmoke ok\n"
  end
  else begin
    let oc = open_out "BENCH_trace_export.json" in
    Printf.fprintf oc
      "{\n\
      \  \"queries\": %d,\n\
      \  \"traces_exported\": %d,\n\
      \  \"mean_query_us\": %.3f,\n\
      \  \"mean_correlate_us\": %.3f,\n\
      \  \"overhead_pct\": %.4f,\n\
      \  \"ring_size\": %d,\n\
      \  \"ring_capacity\": %d,\n\
      \  \"ring_bounded\": %b\n\
       }\n"
      total_queries exported mean_query_us mean_correlate_us overhead_pct
      (Obs.Export.size export_ring)
      (Obs.Export.capacity export_ring)
      ring_ok;
    close_out oc;
    Printf.printf "--\nwrote BENCH_trace_export.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Cluster observability: cross-shard correlation overhead             *)
(* ------------------------------------------------------------------ *)

(* drives a scatter-heavy workload through a 2-shard cluster with
   time-series sampling live (per-shard child spans, traceparent
   stamping on every shard gateway, gather spans, ring snapshots and
   SLO evaluation all on), then isolates the pure cluster-observability
   cost per query — child-span open/attr/close per shard, per-shard
   traceparent rendering, the gather span, a ring tick and an SLO
   evaluation — and compares it to the measured end-to-end scatter
   latency. Target: <=2.5% overhead. Full run writes
   BENCH_obs_cluster.json; [~gate:true] is the quick CI variant. *)
let bench_obs_cluster ?(gate = false) () =
  header
    (if gate then "Cluster observability - overhead gate"
     else "Cluster observability - cross-shard correlation overhead \
           (writes BENCH_obs_cluster.json)");
  let module P = Platform.Hyperq_platform in
  let shards = 2 in
  let d = MD.generate MD.small_scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let obs = Obs.Ctx.create () in
  let platform = P.create ~obs ~shards db in
  (* sample the ring continuously while the workload runs: every
     in-band tick past this interval snapshots the whole registry *)
  Obs.Timeseries.set_interval obs.Obs.Ctx.timeseries 0.01;
  (match Obs.Slo.parse_spec "p99<1s,err<5%,fast=1s,slow=5s" with
  | Ok cfg -> Obs.Slo.configure obs.Obs.Ctx.slo cfg
  | Error m -> failwith m);
  let client = P.Client.connect platform in
  let shapes =
    [|
      (fun _ -> "select mx:max Price by Symbol from trades");
      (fun i ->
        Printf.sprintf "select sum Size from trades where Price>%f"
          (float_of_int (i mod 50)));
      (fun _ -> "select avg Bid by Symbol from quotes");
    |]
  in
  let total_queries = if gate then 300 else 5_000 in
  for i = 0 to total_queries - 1 do
    ignore (P.Client.query client (shapes.(i mod Array.length shapes) i))
  done;
  ignore (Obs.Slo.evaluate obs.Obs.Ctx.slo);
  let reg = obs.Obs.Ctx.registry in
  let query_h = Obs.Metrics.histogram reg "hq_query_seconds" in
  let mean_query_us =
    Obs.Metrics.hist_sum query_h
    /. float_of_int (Stdlib.max 1 (Obs.Metrics.hist_count query_h))
    *. 1e6
  in
  let ts = obs.Obs.Ctx.timeseries in
  let windows = Obs.Timeseries.windows ts in
  let live_windows =
    List.length
      (List.filter (fun w -> w.Obs.Timeseries.w_qps > 0.0) windows)
  in
  (* isolated per-scatter-query cluster-observability cost on scratch
     components: what the fan-out adds on top of the single-node
     correlation plane measured by [trace_export] *)
  let scratch_reg = Obs.Metrics.create () in
  let scratch_h = Obs.Metrics.histogram scratch_reg "hq_query_seconds" in
  let scratch_ts = Obs.Timeseries.create ~interval_s:0.01 scratch_reg in
  let scratch_slo =
    Obs.Slo.create
      ?config:
        (match Obs.Slo.parse_spec "p99<1s,err<5%,fast=1s,slow=5s" with
        | Ok c -> Some c
        | Error _ -> None)
      scratch_ts
  in
  let iterations = if gate then 5_000 else 50_000 in
  let t0 = now () in
  for i = 1 to iterations do
    let tr = Obs.Trace.start "query" in
    let trace_id = Obs.Trace.trace_id tr in
    (* per-shard child span + attach handle + traceparent stamp *)
    let handles =
      Array.init shards (fun k ->
          let sp = Obs.Trace.open_child tr "shard_exec" in
          Obs.Trace.set_span_attr sp "shard" (Obs.Trace.Int k);
          Obs.Trace.attach ~trace_id sp)
    in
    Array.iter
      (fun h ->
        let comment =
          " /* traceparent='"
          ^ Obs.Trace.traceparent ~trace_id
              ~span_id:(Obs.Trace.span_id (Obs.Trace.current h))
          ^ "' */"
        in
        ignore (String.length comment);
        Obs.Trace.close_span (Obs.Trace.current h))
      handles;
    Obs.Trace.with_span tr "gather" (fun () -> ());
    ignore (Obs.Trace.finish tr);
    Obs.Metrics.observe scratch_h 0.0001;
    ignore (Obs.Timeseries.tick scratch_ts);
    if i mod 100 = 0 then ignore (Obs.Slo.evaluate scratch_slo)
  done;
  let mean_cluster_obs_us = (now () -. t0) *. 1e6 /. float_of_int iterations in
  let overhead_pct =
    100.0 *. mean_cluster_obs_us /. Float.max 1e-9 mean_query_us
  in
  let healthy = (Obs.Slo.evaluate obs.Obs.Ctx.slo).Obs.Slo.v_healthy in
  Printf.printf "%-34s %12d\n" "queries through the cluster" total_queries;
  Printf.printf "%-34s %12d\n" "shards" shards;
  Printf.printf "%-34s %12d\n" "time-series snapshots"
    (Obs.Timeseries.samples_total ts);
  Printf.printf "%-34s %12d\n" "live windows" live_windows;
  Printf.printf "%-34s %12.1f\n" "mean query latency (us)" mean_query_us;
  Printf.printf "%-34s %12.3f\n" "mean cluster-obs cost (us)"
    mean_cluster_obs_us;
  Printf.printf "%-34s %11.3f%%  (target <=2.5%%)\n" "overhead" overhead_pct;
  Printf.printf "%-34s %12s\n" "healthz"
    (if healthy then "healthy" else "BURNING");
  P.Client.close client;
  P.shutdown platform;
  let limit = 2.5 in
  let sampled_ok = Obs.Timeseries.samples_total ts >= 2 in
  if gate then begin
    if (not sampled_ok) || overhead_pct > limit then begin
      Printf.printf
        "--\nOBS GATE FAIL: overhead %.3f%% > %.1f%% or ring never \
         sampled\n"
        overhead_pct limit;
      exit 1
    end;
    Printf.printf "--\nobs gate ok\n"
  end
  else begin
    let oc = open_out "BENCH_obs_cluster.json" in
    Printf.fprintf oc
      "{\n\
      \  \"queries\": %d,\n\
      \  \"shards\": %d,\n\
      \  \"snapshots\": %d,\n\
      \  \"live_windows\": %d,\n\
      \  \"mean_query_us\": %.3f,\n\
      \  \"mean_cluster_obs_us\": %.3f,\n\
      \  \"overhead_pct\": %.4f,\n\
      \  \"healthy\": %b\n\
       }\n"
      total_queries shards
      (Obs.Timeseries.samples_total ts)
      live_windows mean_query_us mean_cluster_obs_us overhead_pct healthy;
    close_out oc;
    Printf.printf "--\nwrote BENCH_obs_cluster.json\n";
    if overhead_pct > limit then begin
      Printf.printf "OBS GATE FAIL: overhead %.3f%% > %.1f%%\n" overhead_pct
        limit;
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* EXPLAIN/ANALYZE plane: collection overhead off / sampled / always    *)
(* ------------------------------------------------------------------ *)

(* measures what per-operator instrumentation costs at the three
   sampling settings a deployment would run: off (--analyze-sample 0,
   the default), tail-sampled 1/8, and always-on. The off-mode number
   is the one that matters — analysis must be free when nobody asked
   for it — so the gate also prices the isolated off-path work
   (sampling decision + per-operator collect checks + route stamp) on a
   synthetic loop and holds it under 2.5% of the mean query latency,
   like the other observability gates. *)
let bench_explain ?(gate = false) () =
  header
    (if gate then "EXPLAIN/ANALYZE plane - off-mode overhead gate"
     else
       "EXPLAIN/ANALYZE plane - collection overhead off/sampled/always \
        (writes BENCH_explain.json)");
  let module P = Platform.Hyperq_platform in
  let d = MD.generate MD.small_scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let obs = Obs.Ctx.create () in
  let platform = P.create ~obs ~shards:2 db in
  let client = P.Client.connect platform in
  let s0 = d.MD.syms.(0) in
  let shapes =
    [|
      (fun _ -> "select mx:max Price by Symbol from trades");
      (fun _ ->
        Printf.sprintf "select from trades where Symbol=`%s" s0);
      (fun i ->
        Printf.sprintf "select sum Size from trades where Price>%f"
          (float_of_int (i mod 50)));
      (fun _ -> "select avg Bid by Symbol from quotes");
    |]
  in
  let per_pass = if gate then 200 else 2_000 in
  let pass sample =
    P.set_analyze_sample platform sample;
    let t0 = now () in
    for i = 0 to per_pass - 1 do
      ignore (P.Client.query client (shapes.(i mod Array.length shapes) i))
    done;
    (now () -. t0) *. 1e6 /. float_of_int per_pass
  in
  (* warm up caches so the off pass is not charged for cold misses *)
  for i = 0 to (2 * Array.length shapes) - 1 do
    ignore (P.Client.query client (shapes.(i mod Array.length shapes) i))
  done;
  let off_us = pass 0 in
  let sampled_us = pass 8 in
  let always_us = pass 1 in
  let analyzed = Obs.Explain.analyzed_total obs.Obs.Ctx.explain in
  (* the isolated off-path cost per query: one sampling decision, the
     collect check every operator pays (a deep plan's worth), and the
     route stamp the cluster records — everything the feature added to
     an unanalyzed query *)
  let flag = Atomic.make 0 in
  let route_stamp = ref 0 in
  let iterations = 2_000_000 in
  let t0 = now () in
  for i = 1 to iterations do
    (if Atomic.get flag > 0 then route_stamp := !route_stamp + 1);
    for _ = 1 to 12 do
      if Sys.opaque_identity false then incr route_stamp
    done;
    route_stamp := Sys.opaque_identity i
  done;
  let off_path_us = (now () -. t0) *. 1e6 /. float_of_int iterations in
  let overhead_pct = 100.0 *. off_path_us /. Float.max 1e-9 off_us in
  let pct base v = 100.0 *. (v -. base) /. Float.max 1e-9 base in
  Printf.printf "%-34s %12d\n" "queries per pass" per_pass;
  Printf.printf "%-34s %12.1f\n" "mean latency, analyze off (us)" off_us;
  Printf.printf "%-34s %12.1f  (%+.1f%%)\n"
    "mean latency, sampled 1/8 (us)" sampled_us (pct off_us sampled_us);
  Printf.printf "%-34s %12.1f  (%+.1f%%)\n"
    "mean latency, always on (us)" always_us (pct off_us always_us);
  Printf.printf "%-34s %12d\n" "plans in the explain ring" analyzed;
  Printf.printf "%-34s %12.4f\n" "isolated off-path cost (us)" off_path_us;
  Printf.printf "%-34s %11.4f%%  (target <=2.5%%)\n" "off-mode overhead"
    overhead_pct;
  P.Client.close client;
  P.shutdown platform;
  let limit = 2.5 in
  if gate then begin
    if overhead_pct > limit || analyzed = 0 then begin
      Printf.printf
        "--\nEXPLAIN GATE FAIL: off-mode overhead %.4f%% > %.1f%% or no \
         plan ever collected\n"
        overhead_pct limit;
      exit 1
    end;
    Printf.printf "--\nexplain gate ok\n"
  end
  else begin
    let oc = open_out "BENCH_explain.json" in
    Printf.fprintf oc
      "{\n\
      \  \"queries_per_pass\": %d,\n\
      \  \"mean_off_us\": %.3f,\n\
      \  \"mean_sampled_us\": %.3f,\n\
      \  \"mean_always_us\": %.3f,\n\
      \  \"sampled_overhead_pct\": %.4f,\n\
      \  \"always_overhead_pct\": %.4f,\n\
      \  \"analyzed_plans\": %d,\n\
      \  \"off_path_us\": %.4f,\n\
      \  \"off_mode_overhead_pct\": %.4f\n\
       }\n"
      per_pass off_us sampled_us always_us (pct off_us sampled_us)
      (pct off_us always_us) analyzed off_path_us overhead_pct;
    close_out oc;
    Printf.printf "--\nwrote BENCH_explain.json\n";
    if overhead_pct > limit then begin
      Printf.printf "EXPLAIN GATE FAIL: off-mode overhead %.4f%% > %.1f%%\n"
        overhead_pct limit;
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* Plan cache: cold vs warm translation reuse                          *)
(* ------------------------------------------------------------------ *)

(* drives a repeated-shape workload (fixed query shapes, varying literal
   values) through two full platforms — plan cache off ("cold": every
   query pays parse/bind/optimize/serialize) and on ("warm": repeats hit
   the fingerprint-keyed template store and jump straight to execute) —
   with NO simulated dispatch latency, so the translation saving itself
   is what's measured. Every warm result is compared against the cold
   platform's result for the same query: the cache must never change an
   answer. Full run writes BENCH_plan_cache.json; [~smoke:true] is the
   quick `make ci` gate (hit ratio >= 0.95, warm mean < cold mean, zero
   divergence, exit 1 on fail). *)
let bench_plan_cache ?(smoke = false) () =
  header
    (if smoke then "Plan cache - reuse smoke gate"
     else
       "Plan cache - cold vs warm translation reuse (writes \
        BENCH_plan_cache.json)");
  let module P = Platform.Hyperq_platform in
  (* near-empty tables: execution cost is the fixed per-statement floor,
     so the cold/warm delta isolates what the cache actually skips
     (parse/bind/optimize/serialize) rather than backend scan time *)
  let d =
    MD.generate
      {
        MD.symbols = 2;
        trades_per_symbol = 2;
        quotes_per_symbol = 2;
        wide_columns = 40;
      }
  in
  let nsyms = Array.length d.MD.syms in
  (* literal values vary per call but keep their type classes (positive
     longs, non-integral floats, non-empty symbols) so repeats share a
     cache entry; deeply nested select pipelines give translation a
     large tree to chew on while the near-empty tables keep execution
     at its fixed floor — the repeated-dashboard regime the cache
     targets *)
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
      (fun i -> deep "avg" 40 i);
      (fun i -> deep "max" 32 i);
      (fun i -> deep "sum" 28 i);
      (fun i ->
        Printf.sprintf
          "select vwap:(sum Price*Size)%%sum Size by Symbol from %s where \
           Price>%f"
          (nest 16 i)
          (float_of_int (i mod 13) +. 0.5));
      (fun i ->
        Printf.sprintf
          "select hi:max Price,lo:min Price,n:count Price by Symbol from \
           %s where Symbol=`%s"
          (nest 12 i)
          d.MD.syms.(i mod nsyms));
    |]
  in
  let total = if smoke then 1_000 else 10_000 in
  let query_at i = shapes.(i mod Array.length shapes) i in
  let connect ~plan_cache =
    let db = Pgdb.Db.create () in
    MD.load_pg db d;
    let platform = P.create ~plan_cache db in
    (platform, P.Client.connect platform)
  in
  let run_workload client results =
    let t0 = now () in
    for i = 0 to total - 1 do
      match P.Client.query client (query_at i) with
      | Ok v -> results.(i) <- Some v
      | Error e -> failwith (Printf.sprintf "plan_cache bench: %s" e)
    done;
    (now () -. t0) *. 1e6 /. float_of_int total
  in
  (* cold: cache disabled, every query fully translated *)
  let cold_platform, cold_client = connect ~plan_cache:false in
  let cold_results = Array.make total None in
  let cold_mean_us = run_workload cold_client cold_results in
  (* warm: cache enabled; one warmup pass per shape fills the template
     store (twice per shape — the very first query of a table also pays
     the MDI fetch, which defers installation), then stats are zeroed so
     the measured pass shows the steady state *)
  let warm_platform, warm_client = connect ~plan_cache:true in
  for r = 0 to 1 do
    Array.iteri
      (fun k shape -> ignore (P.Client.query warm_client (shape (r + k))))
      shapes
  done;
  P.reset_stats warm_platform;
  let warm_results = Array.make total None in
  let warm_mean_us = run_workload warm_client warm_results in
  let reg = (P.obs warm_platform).Obs.Ctx.registry in
  let cval name =
    float_of_int
      (Obs.Metrics.counter_value (Obs.Metrics.counter reg name))
  in
  let hits = cval "hq_plan_cache_hits_total" in
  let misses = cval "hq_plan_cache_misses_total" in
  let bypass = cval "hq_plan_cache_bypass_total" in
  let hit_ratio = hits /. Float.max 1.0 (hits +. misses +. bypass) in
  let divergences = ref 0 in
  for i = 0 to total - 1 do
    if Stdlib.compare cold_results.(i) warm_results.(i) <> 0 then
      incr divergences
  done;
  let speedup = cold_mean_us /. Float.max 1e-9 warm_mean_us in
  Printf.printf "%-34s %12d\n" "queries per side" total;
  Printf.printf "%-34s %12.1f\n" "cold mean latency (us)" cold_mean_us;
  Printf.printf "%-34s %12.1f\n" "warm mean latency (us)" warm_mean_us;
  Printf.printf "%-34s %12.2fx\n" "speedup" speedup;
  Printf.printf "%-34s %12.4f  (target >= 0.95)\n" "warm hit ratio" hit_ratio;
  Printf.printf "%-34s %12.0f / %.0f / %.0f\n" "hits / misses / bypass" hits
    misses bypass;
  Printf.printf "%-34s %12d  (must be 0)\n" "result divergences" !divergences;
  P.Client.close cold_client;
  P.Client.close warm_client;
  ignore cold_platform;
  if smoke then begin
    if hit_ratio < 0.95 || warm_mean_us >= cold_mean_us || !divergences > 0
    then begin
      Printf.printf
        "--\nSMOKE FAIL: hit ratio %.4f (>= 0.95?), warm %.1fus vs cold \
         %.1fus (warm < cold?), divergences %d (= 0?)\n"
        hit_ratio warm_mean_us cold_mean_us !divergences;
      exit 1
    end;
    Printf.printf "--\nsmoke ok\n"
  end
  else begin
    let oc = open_out "BENCH_plan_cache.json" in
    Printf.fprintf oc
      "{\n\
      \  \"queries\": %d,\n\
      \  \"cold_mean_us\": %.3f,\n\
      \  \"warm_mean_us\": %.3f,\n\
      \  \"speedup\": %.3f,\n\
      \  \"hit_ratio\": %.5f,\n\
      \  \"hits\": %.0f,\n\
      \  \"misses\": %.0f,\n\
      \  \"bypass\": %.0f,\n\
      \  \"divergences\": %d\n\
       }\n"
      total cold_mean_us warm_mean_us speedup hit_ratio hits misses bypass
      !divergences;
    close_out oc;
    Printf.printf "--\nwrote BENCH_plan_cache.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Sharded execution: scatter/gather scaling over the shard count      *)
(* ------------------------------------------------------------------ *)

module QV = Qvalue.Value
module QA = Qvalue.Atom

(* remote-backend latency model for the shard experiment. Every
   statement a shard (or the coordinator fallback) executes costs a
   fixed dispatch floor plus a per-resident-row charge: a warehouse
   segment's scan latency tracks the size of its partition, so a shard
   holding 1/N of the distributed tables answers in ~1/N the time. The
   sleep happens inside the dispatching worker domain, so on an N-shard
   fan-out the N simulated remote executions overlap — exactly the
   latency-hiding a scatter/gather deployment buys, and what this
   experiment measures. (Deliberately NOT a multiple of measured
   in-process execution time: on a small host concurrent worker domains
   time-share the cores, which would inflate each shard's measured
   duration by contention and feed that inflation back into its
   simulated latency.) *)
let shard_dispatch_floor = 0.003
let shard_row_cost = 1.0e-5

let remote_backend (sess : Pgdb.Db.session) : Hyperq.Backend.t =
  let b = Hyperq.Backend.of_pgdb_session sess in
  let db = sess.Pgdb.Db.db in
  let resident () =
    Hashtbl.fold
      (fun name (tbl : Pgdb.Storage.table) acc ->
        if name = Pgdb.Db.catalog_table_name then acc
        else acc + Array.length tbl.Pgdb.Storage.rows)
      db.Pgdb.Db.tables 0
  in
  {
    b with
    name = b.name ^ "+remote";
    exec =
      (fun sql ->
        let r = b.exec sql in
        Unix.sleepf
          (shard_dispatch_floor
          +. (shard_row_cost *. float_of_int (resident ())));
        r);
  }

(* scatter-heavy workload over the distributed tables: partial-aggregate
   decompositions (grouped by the distribution key, by another column,
   and scalar), an ordered filter scan (merge-on-ordcol gather), and
   distribution-key point lookups (single-shard routes) *)
let shard_workload (d : MD.dataset) : string list =
  let sym i = d.MD.syms.(i mod Array.length d.MD.syms) in
  [
    "select s:sum Size, a:avg Price by Symbol from trades";
    "select mn:min Bid, mx:max Ask by Symbol from quotes";
    "select a:avg Price, s:sum Size by Exch from trades";
    "select t:sum Size, c:count Size from trades";
    "select Price,Size from trades where Price>104.0";
    Printf.sprintf "select from trades where Symbol=`%s" (sym 0);
    Printf.sprintf "select mx:max Ask by Symbol from quotes where Symbol=`%s"
      (sym 3);
  ]

(* float-tolerant deep equality: partial-aggregate recombination sums
   floats in a different association order than the single-backend pass *)
let shard_feq a b =
  a = b
  || abs_float (a -. b)
     <= 1e-9 *. Float.max 1.0 (Float.max (abs_float a) (abs_float b))

let shard_atom_eq (a : QA.t) (b : QA.t) =
  match (a, b) with
  | QA.Float x, QA.Float y -> shard_feq x y
  | a, b -> QA.equal a b

let rec shard_val_eq (a : QV.t) (b : QV.t) =
  match (a, b) with
  | QV.Atom x, QV.Atom y -> shard_atom_eq x y
  | QV.Vector (tx, xs), QV.Vector (ty, ys) ->
      tx = ty
      && Array.length xs = Array.length ys
      && Array.for_all2 shard_atom_eq xs ys
  | QV.List xs, QV.List ys ->
      Array.length xs = Array.length ys && Array.for_all2 shard_val_eq xs ys
  | QV.Dict (ka, va), QV.Dict (kb, vb) ->
      shard_val_eq ka kb && shard_val_eq va vb
  | QV.Table ta, QV.Table tb -> shard_table_eq ta tb
  | QV.KTable (ka, va), QV.KTable (kb, vb) ->
      shard_table_eq ka kb && shard_table_eq va vb
  | a, b -> QV.equal a b

and shard_table_eq (ta : QV.table) (tb : QV.table) =
  ta.QV.cols = tb.QV.cols
  && Array.length ta.QV.data = Array.length tb.QV.data
  && Array.for_all2 shard_val_eq ta.QV.data tb.QV.data

type shard_point = {
  sp_shards : int;
  sp_mean_ms : float;
  sp_speedup : float;
  sp_routed : int;
  sp_scattered : int;
  sp_coordinated : int;
  sp_divergences : int;
}

(* one cluster size: build an N-shard cluster whose shard backends carry
   the remote-latency model, run the workload through an engine whose
   sharder claims what it can prove shard-safe, and capture both the
   mean latency and the results (for the divergence check) *)
let shard_measure (d : MD.dataset) ~shards ~reps : float * QV.t option list * (int * int * int) =
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let obs = Obs.Ctx.create () in
  let cluster =
    Shard.Cluster.create ~shards
      ~make_backend:(fun ~shard_id:_ ~obs:_ sess -> remote_backend sess)
      ~obs db
  in
  Fun.protect
    ~finally:(fun () -> Shard.Cluster.shutdown cluster)
    (fun () ->
      let eng =
        E.create
          ~sharder:(Shard.Cluster.sharder cluster)
          ~obs
          (remote_backend (Pgdb.Db.open_session db))
      in
      let workload = shard_workload d in
      let run q =
        match E.try_run eng q with
        | Ok r -> r.E.value
        | Error e ->
            failwith (Printf.sprintf "shard bench (%d shards): %S: %s"
                        shards q e)
      in
      (* warmup pass pays the MDI fetches and captures the results *)
      let results = List.map run workload in
      let t0 = now () in
      for _ = 1 to reps do
        List.iter (fun q -> ignore (run q)) workload
      done;
      let total = now () -. t0 in
      let queries = reps * List.length workload in
      let mean_ms = total *. 1e3 /. float_of_int queries in
      let route name =
        Obs.Metrics.counter_value
          (Obs.Metrics.counter obs.Obs.Ctx.registry
             ~labels:[ ("route", name) ]
             "hq_shard_queries_total")
      in
      (mean_ms, results, (route "router", route "scatter", route "coordinator")))

(* the curve of the paper's scale-out argument: the same workload over
   1/2/4/8 shards, identical latency model per backend statement, the
   1-shard cluster as baseline (same code path, no fan-out win). A
   latency-free unsharded engine over the same data supplies the ground
   truth every size is compared against. Full run writes
   BENCH_shard.json; [~gate:true] is the quick `make ci` gate: >= 1.5x
   at 4 shards and zero divergence, exit 1 on fail. *)
let bench_shard ?(gate = false) () =
  header
    (if gate then "Sharded execution - scaling smoke gate"
     else "Sharded execution - scatter/gather scaling (writes BENCH_shard.json)");
  (* modest in-process tables: the simulated per-row remote charge is
     what scales with the shard count, and keeping the real scan cost
     small keeps the (serial, single-host) in-process portion from
     masking the overlap the fan-out buys *)
  let d =
    MD.generate
      {
        MD.symbols = 16;
        trades_per_symbol = 300;
        quotes_per_symbol = 300;
        wide_columns = 8;
      }
  in
  let reps = if gate then 5 else 10 in
  let sizes = if gate then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  (* ground truth: unsharded, latency-free engine over the same data *)
  let truth =
    let db = Pgdb.Db.create () in
    MD.load_pg db d;
    let eng =
      E.create (Hyperq.Backend.of_pgdb_session (Pgdb.Db.open_session db))
    in
    List.map
      (fun q ->
        match E.try_run eng q with
        | Ok r -> r.E.value
        | Error e -> failwith (Printf.sprintf "shard bench truth: %S: %s" q e))
      (shard_workload d)
  in
  let diverges results =
    List.fold_left2
      (fun n t r ->
        match (t, r) with
        | Some tv, Some rv when shard_val_eq tv rv -> n
        | None, None -> n
        | _ -> n + 1)
      0 truth results
  in
  let baseline = ref nan in
  let points =
    List.map
      (fun n ->
        let mean_ms, results, (routed, scattered, coordinated) =
          shard_measure d ~shards:n ~reps
        in
        if Float.is_nan !baseline then baseline := mean_ms;
        {
          sp_shards = n;
          sp_mean_ms = mean_ms;
          sp_speedup = !baseline /. mean_ms;
          sp_routed = routed;
          sp_scattered = scattered;
          sp_coordinated = coordinated;
          sp_divergences = diverges results;
        })
      sizes
  in
  Printf.printf "%8s %14s %10s %8s %9s %7s %11s\n" "shards" "mean (ms)"
    "speedup" "routed" "scattered" "coord" "divergences";
  List.iter
    (fun p ->
      Printf.printf "%8d %14.2f %9.2fx %8d %9d %7d %11d\n" p.sp_shards
        p.sp_mean_ms p.sp_speedup p.sp_routed p.sp_scattered p.sp_coordinated
        p.sp_divergences)
    points;
  let total_div = List.fold_left (fun a p -> a + p.sp_divergences) 0 points in
  let at4 =
    match List.find_opt (fun p -> p.sp_shards = 4) points with
    | Some p -> p.sp_speedup
    | None -> 0.0
  in
  if gate then begin
    if at4 < 1.5 || total_div > 0 then begin
      Printf.printf
        "--\nSHARD GATE FAIL: speedup at 4 shards %.2fx (>= 1.5x?), \
         divergences %d (= 0?)\n"
        at4 total_div;
      exit 1
    end;
    Printf.printf "--\nshard gate ok (%.2fx at 4 shards, 0 divergences)\n" at4
  end
  else begin
    let oc = open_out "BENCH_shard.json" in
    Printf.fprintf oc
      "{\n\
      \  \"workload_queries\": %d,\n\
      \  \"reps\": %d,\n\
      \  \"dispatch_floor_s\": %.3f,\n\
      \  \"row_cost_us\": %.2f,\n\
      \  \"divergences\": %d,\n\
      \  \"curve\": [\n"
      (List.length (shard_workload d))
      reps shard_dispatch_floor (shard_row_cost *. 1e6) total_div;
    List.iteri
      (fun i p ->
        Printf.fprintf oc
          "    {\"shards\": %d, \"mean_ms\": %.3f, \"speedup\": %.3f, \
           \"routed\": %d, \"scattered\": %d, \"coordinated\": %d}%s\n"
          p.sp_shards p.sp_mean_ms p.sp_speedup p.sp_routed p.sp_scattered
          p.sp_coordinated
          (if i = List.length points - 1 then "" else ","))
      points;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "--\nwrote BENCH_shard.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro-benchmarks - translation pipeline (bechamel)";
  let d = Lazy.force dataset in
  let eng = make_engine d in
  let queries = AW.queries d in
  List.iter
    (fun (q : AW.query) ->
      List.iter (fun s -> ignore (E.try_run eng s)) q.AW.setup)
    queries;
  (* warm the metadata cache without executing *)
  List.iter (fun q -> try ignore (E.translate eng q.AW.text) with _ -> ()) queries;
  let pick id = List.find (fun q -> q.AW.id = id) queries in
  let tests =
    Bechamel.Test.make_grouped ~name:"translate"
      [
        Bechamel.Test.make ~name:"Q01 filtered scan"
          (Bechamel.Staged.stage (fun () ->
               ignore (E.translate eng (pick 1).AW.text)));
        Bechamel.Test.make ~name:"Q05 as-of join"
          (Bechamel.Staged.stage (fun () ->
               ignore (E.translate eng (pick 5).AW.text)));
        Bechamel.Test.make ~name:"Q18 wide 4-table join"
          (Bechamel.Staged.stage (fun () ->
               ignore (E.translate eng (pick 18).AW.text)));
        Bechamel.Test.make ~name:"parse only (Q18)"
          (Bechamel.Staged.stage (fun () ->
               ignore (Qlang.Parser.parse_program (pick 18).AW.text)));
      ]
  in
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Bechamel.Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, r) ->
         match Analyze.OLS.estimates r with
         | Some [ est ] -> Printf.printf "%-42s %12.1f ns/run\n" name est
         | _ -> Printf.printf "%-42s %12s\n" name "n/a")

(* ------------------------------------------------------------------ *)
(* Runtime & resource observability: attribution overhead              *)
(* ------------------------------------------------------------------ *)

(* drives a mixed workload through a 2-shard platform with GC/heap
   sampling and per-query allocation attribution live, checks the
   telemetry actually landed (runtime samples applied, per-fingerprint
   allocation averages, flight-recorder alloc/minor-GC deltas,
   per-domain utilization gauges, per-shard dispatch allocation), then
   isolates the pure attribution cost per query — one per-query
   [Gc.allocated_bytes]/[Obs.Runtime.minor_collections] pair plus one
   [Gc.allocated_bytes] pair per pipeline stage, the reads the endpoint
   and the engine make — and holds it under 2.5% of the measured mean
   query latency.
   Full run writes BENCH_runtime.json; [~gate:true] is the CI variant. *)
let bench_runtime ?(gate = false) () =
  header
    (if gate then "Runtime observability - attribution overhead gate"
     else
       "Runtime observability - GC telemetry and allocation attribution \
        (writes BENCH_runtime.json)");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let module P = Platform.Hyperq_platform in
  let shards = 2 in
  let d = MD.generate MD.small_scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  let obs = Obs.Ctx.create () in
  (* sample fast so even the gate's short workload lands several GC
     samples and live windows *)
  Obs.Timeseries.set_interval obs.Obs.Ctx.timeseries 0.01;
  Obs.Runtime.set_interval obs.Obs.Ctx.runtime 0.01;
  (* capture everything: every query's record shows its alloc deltas *)
  Obs.Recorder.set_threshold obs.Obs.Ctx.recorder 0.0;
  let platform = P.create ~obs ~shards db in
  let client = P.Client.connect platform in
  let shapes =
    [|
      (fun _ -> "select mx:max Price by Symbol from trades");
      (fun i ->
        Printf.sprintf "select sum Size from trades where Price>%f"
          (float_of_int (i mod 50)));
      (fun _ -> "select avg Bid by Symbol from quotes");
    |]
  in
  let total_queries = if gate then 300 else 5_000 in
  for i = 0 to total_queries - 1 do
    ignore (P.Client.query client (shapes.(i mod Array.length shapes) i))
  done;
  Obs.Runtime.sample obs.Obs.Ctx.runtime;
  let reg = obs.Obs.Ctx.registry in
  let query_h = Obs.Metrics.histogram reg "hq_query_seconds" in
  let mean_query_us =
    Obs.Metrics.hist_sum query_h
    /. float_of_int (Stdlib.max 1 (Obs.Metrics.hist_count query_h))
    *. 1e6
  in
  let rt_stats = Obs.Runtime.stats obs.Obs.Ctx.runtime in
  let rt v = try List.assoc v rt_stats with Not_found -> 0.0 in
  let samples = Obs.Runtime.samples_total obs.Obs.Ctx.runtime in
  Option.iter Shard.Cluster.refresh_saturation (P.cluster platform);
  let snap = Obs.Metrics.snapshot reg in
  let metric_total sub =
    List.fold_left
      (fun acc s ->
        if contains s.Obs.Metrics.s_name sub then acc +. s.Obs.Metrics.s_value
        else acc)
      0.0 snap
  in
  let domain_busy_s = metric_total "hq_domain_busy_seconds" in
  let shard_alloc_bytes = metric_total "hq_shard_alloc_bytes" in
  (* per-fingerprint attribution: every tracked shape should carry a
     positive coordinator-side allocation average *)
  let top_allocs = Obs.Qstats.top_allocators obs.Obs.Ctx.qstats 5 in
  let alloc_attributed =
    top_allocs <> []
    && List.for_all (fun e -> Obs.Qstats.entry_alloc_avg e > 0.0) top_allocs
  in
  (* flight recorder: slow entries answer "GC victim or genuinely
     expensive?" only if they carry the deltas *)
  let recent = Obs.Recorder.recent obs.Obs.Ctx.recorder 50 in
  let slow_with_alloc =
    List.length
      (List.filter (fun r -> r.Obs.Recorder.r_alloc_bytes > 0.0) recent)
  in
  (* isolated attribution cost: what one query pays for the capture in
     [Endpoint.traced_process] and [Engine.stage] — one per-query
     [Obs.Runtime.minor_collections] pair (minor-GC delta) plus
     domain-local [Gc.allocated_bytes] pairs, one per query and one per
     pipeline stage (6 stages on a plan-cache miss) *)
  let iterations = if gate then 50_000 else 500_000 in
  let sink = ref 0.0 in
  let t0 = now () in
  for _ = 1 to iterations do
    let g0 = Obs.Runtime.minor_collections () in
    for _ = 0 to 6 do
      let a0 = Gc.allocated_bytes () in
      let a1 = Gc.allocated_bytes () in
      sink := !sink +. (a1 -. a0)
    done;
    let g1 = Obs.Runtime.minor_collections () in
    sink := !sink +. float_of_int (g1 - g0)
  done;
  ignore (Sys.opaque_identity !sink);
  let mean_attr_us = (now () -. t0) *. 1e6 /. float_of_int iterations in
  let overhead_pct = 100.0 *. mean_attr_us /. Float.max 1e-9 mean_query_us in
  Printf.printf "%-34s %12d\n" "queries through the platform" total_queries;
  Printf.printf "%-34s %12d\n" "gc samples applied" samples;
  Printf.printf "%-34s %12.0f\n" "gc minor collections"
    (rt "gc_minor_collections_total");
  Printf.printf "%-34s %12.0f\n" "bytes allocated (coordinator)"
    (rt "gc_allocated_bytes_total");
  Printf.printf "%-34s %12.0f\n" "major heap bytes" (rt "heap_bytes");
  Printf.printf "%-34s %12.3f\n" "domain busy seconds (all)" domain_busy_s;
  Printf.printf "%-34s %12.0f\n" "shard dispatch alloc bytes"
    shard_alloc_bytes;
  Printf.printf "%-34s %12s\n" "per-fingerprint alloc attribution"
    (if alloc_attributed then "yes" else "MISSING");
  Printf.printf "%-34s %9d/%2d\n" "recorder entries with alloc"
    slow_with_alloc (List.length recent);
  Printf.printf "%-34s %12.1f\n" "mean query latency (us)" mean_query_us;
  Printf.printf "%-34s %12.3f\n" "mean attribution cost (us)" mean_attr_us;
  Printf.printf "%-34s %11.3f%%  (target <=2.5%%)\n" "overhead" overhead_pct;
  P.Client.close client;
  P.shutdown platform;
  let limit = 2.5 in
  let telemetry_ok =
    samples >= 1 && alloc_attributed && slow_with_alloc > 0
    && shard_alloc_bytes > 0.0
  in
  if gate then begin
    if (not telemetry_ok) || overhead_pct > limit then begin
      Printf.printf
        "--\nRUNTIME GATE FAIL: overhead %.3f%% > %.1f%% or telemetry \
         missing (samples=%d attributed=%b slow_with_alloc=%d \
         shard_alloc=%.0f)\n"
        overhead_pct limit samples alloc_attributed slow_with_alloc
        shard_alloc_bytes;
      exit 1
    end;
    Printf.printf "--\nruntime gate ok\n"
  end
  else begin
    let oc = open_out "BENCH_runtime.json" in
    Printf.fprintf oc
      "{\n\
      \  \"queries\": %d,\n\
      \  \"gc_samples\": %d,\n\
      \  \"gc_minor_collections\": %.0f,\n\
      \  \"gc_allocated_bytes\": %.0f,\n\
      \  \"heap_bytes\": %.0f,\n\
      \  \"domain_busy_seconds\": %.4f,\n\
      \  \"shard_alloc_bytes\": %.0f,\n\
      \  \"alloc_attributed\": %b,\n\
      \  \"recorder_with_alloc\": %d,\n\
      \  \"mean_query_us\": %.3f,\n\
      \  \"mean_attribution_us\": %.3f,\n\
      \  \"overhead_pct\": %.4f\n\
       }\n"
      total_queries samples
      (rt "gc_minor_collections_total")
      (rt "gc_allocated_bytes_total")
      (rt "heap_bytes") domain_busy_s shard_alloc_bytes alloc_attributed
      slow_with_alloc mean_query_us mean_attr_us overhead_pct;
    close_out oc;
    Printf.printf "--\nwrote BENCH_runtime.json\n";
    if (not telemetry_ok) || overhead_pct > limit then begin
      Printf.printf "RUNTIME GATE FAIL: overhead %.3f%% > %.1f%% or \
                     telemetry missing\n"
        overhead_pct limit;
      exit 1
    end
  end

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
    ("obs", bench_obs);
    ("qstats", bench_qstats);
    ("trace_export", (fun () -> bench_trace_export ()));
    ("smoke", (fun () -> bench_trace_export ~smoke:true ()));
    ("plan_cache", (fun () -> bench_plan_cache ()));
    ("plan_cache_gate", (fun () -> bench_plan_cache ~smoke:true ()));
    ("shard", (fun () -> bench_shard ()));
    ("shard_gate", (fun () -> bench_shard ~gate:true ()));
    ("obs_cluster", (fun () -> bench_obs_cluster ()));
    ("obs_gate", (fun () -> bench_obs_cluster ~gate:true ()));
    ("explain", (fun () -> bench_explain ()));
    ("explain_gate", (fun () -> bench_explain ~gate:true ()));
    ("runtime", (fun () -> bench_runtime ()));
    ("runtime_gate", (fun () -> bench_runtime ~gate:true ()));
    ("micro", micro);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args = List.filter (fun a -> a <> "--") args in
  match args with
  | [] ->
      print_endline
        "Hyper-Q reproduction benchmarks (all experiments; pass a name to \
         run one)";
      (* the *_gate/smoke entries are CI variants of other experiments,
         not distinct ones — skip them when running everything *)
      List.iter
        (fun (name, f) ->
          if name <> "smoke" && name <> "plan_cache_gate"
             && name <> "shard_gate" && name <> "obs_gate"
             && name <> "explain_gate" && name <> "runtime_gate"
          then f ())
        all_experiments
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n all_experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s; available: %s\n" n
                (String.concat ", " (List.map fst all_experiments));
              exit 1)
        names
