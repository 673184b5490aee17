(* An interactive Hyper-Q session: a REPL speaking Q, backed by the full
   platform (QIPC endpoint -> XC -> PG v3 gateway -> pgdb), pre-loaded
   with the TAQ-style market-data schema.

     dune exec bin/hyperq_server.exe
     dune exec bin/hyperq_server.exe -- --stats           -- metrics to stderr on exit
     dune exec bin/hyperq_server.exe -- --admin-port 9090 -- live HTTP admin endpoint
     q) select vwap:(sum Price*Size)%sum Size by Symbol from trades
     q) aj[`Symbol`Time; trades; quotes]
     q) .hq.<plane>[n]                            -- an introspection plane as a table
     q) .hq.explain select from trades            -- analyze one query
     q) .hq.stats.reset                           -- zero every plane
     q) \sql select from trades where Symbol=`AAA -- show generated SQL
     q) \q                                        -- quit

   The banner names every plane; --help names every admin-port route.
   stdout is the REPL's result channel; diagnostics (--stats dump,
   admin-listener notices) go to stderr so piped output stays clean. *)

module P = Platform.Hyperq_platform
module MD = Workload.Marketdata
module Planes = Platform.Planes

(* "GET /metrics, ... and POST /reset", from the admin port's routes *)
let admin_routes =
  let paths meth =
    String.concat ", "
      (List.filter_map
         (fun (m, path, _) -> if m = meth then Some path else None)
         P.http_routes)
  in
  Printf.sprintf "GET %s and POST %s" (paths "GET") (paths "POST")

(* one line per plane: its in-band query and what it shows *)
let plane_lines =
  String.concat ""
    (List.map
       (fun (p : Planes.plane) ->
         Printf.sprintf "  %-22s %s\n" (Planes.query p ^ "[n]") p.Planes.about)
       Planes.all)

let usage =
  "hyperq_server [options]\n\n\
   Interactive Hyper-Q proxy REPL. Two ways to read the proxy's metrics:\n\
   the one-shot exit dump (--stats, written to stderr when the REPL\n\
   quits) and the live HTTP admin endpoint (--admin-port, scrapeable\n\
   while queries are in flight — what a production deployment monitors).\n\n\
   Options:"

let () =
  let dump_stats_on_exit = ref false in
  let admin_port = ref 0 in
  let slow_threshold_ms = ref 100.0 in
  let slow_sample = ref 0 in
  let log_level = ref "info" in
  let log_file = ref "" in
  let trace_ring = ref Obs.Export.default_capacity in
  let plan_cache_size = ref Hyperq.Plancache.default_capacity in
  let shards = ref 1 in
  let workers = ref 0 in
  let ts_interval = ref Obs.Timeseries.default_interval_s in
  let ts_ring = ref Obs.Timeseries.default_capacity in
  let slo_spec = ref "" in
  let analyze_sample = ref 0 in
  let runtime_interval = ref Obs.Runtime.default_interval_s in
  let heap_watermark_mb = ref 0.0 in
  let speclist =
    [
      ( "--stats",
        Arg.Set dump_stats_on_exit,
        " dump Prometheus metrics to stderr when the REPL exits" );
      ( "--admin-port",
        Arg.Set_int admin_port,
        "PORT serve " ^ admin_routes ^ " on 127.0.0.1:PORT" );
      ( "--slow-threshold-ms",
        Arg.Set_float slow_threshold_ms,
        "MS flight-record queries slower than MS (default 100)" );
      ( "--slow-sample",
        Arg.Set_int slow_sample,
        "N also flight-record every Nth fast query (0 disables, default)" );
      ( "--log-level",
        Arg.Set_string log_level,
        "LEVEL structured-log threshold: debug|info|warn|error (default \
         info)" );
      ( "--log-file",
        Arg.Set_string log_file,
        "PATH append the JSONL stream (query events + log lines) to PATH" );
      ( "--trace-ring",
        Arg.Set_int trace_ring,
        Printf.sprintf
          "N keep the last N finished traces for /traces.json and \
           .hq.traces (default %d)"
          Obs.Export.default_capacity );
      ( "--plan-cache-size",
        Arg.Set_int plan_cache_size,
        Printf.sprintf
          "N LRU capacity of the fingerprint-keyed translation plan cache \
           (default %d); inspect with .hq.plancache or GET /plancache.json"
          Hyperq.Plancache.default_capacity );
      ( "--shards",
        Arg.Set_int shards,
        "N hash-partition trades/quotes on Symbol across N shard \
         backends; shard-safe queries fan out, the rest run on the \
         coordinator (default 1 = unsharded); inspect with .hq.shards \
         or GET /shards.json" );
      ( "--workers",
        Arg.Set_int workers,
        "N size of the shard dispatch domain pool (default = --shards)" );
      ( "--ts-interval",
        Arg.Set_float ts_interval,
        Printf.sprintf
          "S sample the time-series ring every S seconds (default %g); \
           inspect with .hq.timeseries[n] or GET /timeseries.json"
          Obs.Timeseries.default_interval_s );
      ( "--ts-ring",
        Arg.Set_int ts_ring,
        Printf.sprintf
          "N keep the last N time-series snapshots (default %d)"
          Obs.Timeseries.default_capacity );
      ( "--slo",
        Arg.Set_string slo_spec,
        "SPEC latency/error-rate objectives with burn-rate alerting on \
         GET /healthz and /slo.json; " ^ Obs.Slo.spec_syntax );
      ( "--analyze-sample",
        Arg.Set_int analyze_sample,
        "N run every Nth query with per-operator EXPLAIN/ANALYZE \
         collection on (default 0 = off); analyzed plans land in \
         GET /explain.json, or explain one query on demand with \
         .hq.explain <query>" );
      ( "--runtime-interval",
        Arg.Set_float runtime_interval,
        Printf.sprintf
          "S sample GC/heap telemetry every S seconds (default %g); \
           inspect with .hq.runtime or GET /runtime.json"
          Obs.Runtime.default_interval_s );
      ( "--heap-watermark-mb",
        Arg.Set_float heap_watermark_mb,
        "MB degrade GET /healthz to 503 while the major heap exceeds MB \
         (default 0 = no watermark)" );
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %s" a)))
    usage;
  (* flag values validated after Arg.parse: report like Arg would *)
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline (Sys.argv.(0) ^ ": " ^ msg);
        prerr_endline usage;
        exit 2)
      fmt
  in
  let level =
    match Obs.Log.level_of_string !log_level with
    | Some l -> l
    | None -> bad "unknown --log-level %S" !log_level
  in
  let d = MD.generate MD.small_scale in
  let db = Pgdb.Db.create () in
  MD.load_pg db d;
  (* assemble the observability context by hand so the flags can size
     the trace ring and set the log threshold before any layer logs *)
  let registry = Obs.Metrics.create () in
  let events = Obs.Events.create () in
  if !log_file <> "" then begin
    let oc =
      open_out_gen [ Open_append; Open_creat ] 0o644 !log_file
    in
    at_exit (fun () -> try close_out oc with _ -> ());
    Obs.Events.set_writer events (fun line ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
  end;
  let log = Obs.Log.create ~level ~sink:events registry in
  let export = Obs.Export.create ~capacity:(max 1 !trace_ring) () in
  let timeseries =
    Obs.Timeseries.create ~interval_s:!ts_interval ~capacity:(max 2 !ts_ring)
      registry
  in
  let slo_config =
    if !slo_spec = "" then Obs.Slo.default_config
    else
      match Obs.Slo.parse_spec !slo_spec with
      | Ok cfg -> cfg
      | Error msg -> bad "--slo: %s" msg
  in
  let slo = Obs.Slo.create ~config:slo_config timeseries in
  let runtime =
    Obs.Runtime.create ~interval_s:(Float.max 0.01 !runtime_interval) registry
  in
  if !heap_watermark_mb > 0.0 then
    Obs.Runtime.set_heap_watermark runtime
      (Some (!heap_watermark_mb *. 1024.0 *. 1024.0));
  let obs =
    Obs.Ctx.create ~registry ~events ~log ~export ~timeseries ~slo ~runtime ()
  in
  (* periodic sampler: fills the time-series ring and paces the GC/heap
     sampler on the clock even while the REPL sits idle, so
     /timeseries.json shows the traffic dying down *)
  let sampler_stop = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         while not (Atomic.get sampler_stop) do
           Thread.delay
             (Float.max 0.01 (Float.min !ts_interval !runtime_interval));
           ignore (Obs.Timeseries.tick timeseries);
           ignore (Obs.Runtime.tick runtime)
         done)
       ());
  at_exit (fun () -> Atomic.set sampler_stop true);
  let platform =
    P.create ~plan_cache_size:!plan_cache_size ~obs
      ~shards:!shards
      ?workers:(if !workers > 0 then Some !workers else None)
      ~analyze_sample:!analyze_sample db
  in
  at_exit (fun () -> P.shutdown platform);
  let recorder = (P.obs platform).Obs.Ctx.recorder in
  Obs.Recorder.set_threshold recorder (!slow_threshold_ms /. 1000.0);
  Obs.Recorder.set_sample_every recorder !slow_sample;
  if !admin_port > 0 then begin
    ignore
      (Thread.create
         (fun () ->
           try Obs.Http.listen ~port:!admin_port (P.admin_handler platform)
           with e ->
             Printf.eprintf "admin listener failed: %s\n%!"
               (Printexc.to_string e))
         ());
    Printf.eprintf "admin endpoint on http://127.0.0.1:%d (GET /metrics)\n%!"
      !admin_port
  end;
  let client = P.Client.connect platform in
  (* a translation-only engine for the \sql command *)
  let sql_engine =
    Hyperq.Engine.create
      (Hyperq.Backend.of_pgdb_session (Pgdb.Db.open_session db))
  in
  Printf.printf
    "Hyper-Q interactive session (backend: pgdb via PG v3 wire)\n\
     tables: trades (%d rows), quotes (%d rows), secmaster_w, risk_w, \
     limits_w\n\
     commands: \\sql <q-query> shows generated SQL, \\q quits\n\
     proxy introspection (n rows, or the plane's default without [n]):\n\
     %s\
    \  %-22s analyze one query\n\
    \  %-22s zero every plane\n\n"
    (Array.length d.MD.trades)
    (Array.length d.MD.quotes)
    plane_lines ".hq.explain <query>" ".hq.stats.reset";
  let rec loop () =
    print_string "q) ";
    match read_line () with
    | exception End_of_file -> ()
    | "\\q" | "exit" -> ()
    | "" -> loop ()
    | line when String.length line > 5 && String.sub line 0 5 = "\\sql " ->
        let q = String.sub line 5 (String.length line - 5) in
        (match Hyperq.Engine.translate sql_engine q with
        | sql -> print_endline sql
        | exception e -> Printf.printf "error: %s\n" (Printexc.to_string e));
        loop ()
    | line ->
        (match P.Client.query client line with
        | Ok v -> print_endline (Qvalue.Qprint.to_string v)
        | Error e -> Printf.printf "error: %s\n" e);
        loop ()
  in
  loop ();
  P.Client.close client;
  if !dump_stats_on_exit then begin
    (* stderr: stdout is the REPL/result channel and may be piped *)
    prerr_endline "\n-- .hq.stats (Prometheus exposition) --";
    output_string stderr (P.stats_text platform);
    flush stderr
  end
