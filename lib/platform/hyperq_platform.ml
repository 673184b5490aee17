(** Platform assembly: one Hyper-Q instance in front of one PG-compatible
    backend, serving any number of QIPC client connections (paper
    Figure 1, end to end).

    Data path per query, entirely over real protocol bytes:
    Q app --QIPC bytes--> Endpoint -> XC(QT: algebrize/optimize/serialize)
         -> Gateway --PG v3 bytes--> pgdb --DataRows--> Gateway
            (typed columns) -> pivot
         -> Endpoint --QIPC bytes--> Q app

    All connections share one observability context: the metrics
    registry behind the in-band [.hq.stats] query and {!stats_text}, the
    JSONL event sink, and the per-query trace. *)

type t = {
  db : Pgdb.Db.t;
  server_scope : Hyperq.Scopes.server;
      (** shared server variable scope: globals are visible across client
          connections, as on a kdb+ server *)
  users : (string * string) list;
  materialization : [ `Logical | `Physical ];
      (** how every connection's engine materializes assignments *)
  plancache : Hyperq.Plancache.t;
      (** shared translation plan cache — one template store serves every
          connection (entries are still per-session keyed, because
          templates can embed inlined session-variable values) *)
  obs : Obs.Ctx.t;
  cluster : Shard.Cluster.t option;
      (** 1-coordinator/N-shard deployment: distributed tables are
          hash-partitioned across N independent pgdb backends, each
          behind its own wire gateway on its own domain; shard-safe
          statements fan out, everything else runs on [db] as before *)
  analyze_sample : int;
      (** run every Nth ordinary query with operator-stats collection on
          (0 = off) — the [--analyze-sample N] tail sampler *)
  analyze_seen : int Atomic.t;  (** queries considered by the sampler *)
}

type connection = {
  endpoint : Endpoint.t;
  xc : Xc.t;
  session : Pgdb.Db.session;
}

(** Build a platform over a loaded database. [shards > 1] turns on
    sharded execution: the distributed tables ([distributions], default
    [trades]/[quotes] on [Symbol]) are hash-partitioned across that many
    independent pgdb backends — each behind its own PG wire gateway,
    pinned to one of [shards - 1] worker domains (the coordinator's
    domain runs each fan-out's last target) — and every
    other table is replicated to all of them. The coordinator [db] keeps
    the full data set, so statements the router cannot prove shard-safe
    fall back unchanged. [materialization] is passed to every connection's
    engine. *)
let create ?(users = [ ("trader", "pwd") ]) ?(materialization = `Logical)
    ?(plan_cache_size = Hyperq.Plancache.default_capacity) ?obs
    ?(shards = 1) ?distributions ?(analyze_sample = 0)
    (db : Pgdb.Db.t) : t =
  let obs = match obs with Some o -> o | None -> Obs.Ctx.create () in
  let cluster =
    if shards > 1 then
      Some
        (Shard.Cluster.create ?distributions ~shards
           ~make_backend:(fun ~shard_id ~obs session ->
             Gateway.wire_backend
               ~extra_labels:[ ("shard", string_of_int shard_id) ]
               ~obs session)
           ~obs db)
    else None
  in
  (* every periodic snapshot first refreshes the mirrored gauges (pgdb
     executor, fingerprint store, recorder, statement cache), takes a
     GC/heap sample so hq_gc_* counters enter the snapshot, and — when
     sharded — the pool saturation gauges, so the ring sees live values *)
  Obs.Timeseries.on_sample obs.Obs.Ctx.timeseries (fun () ->
      Planes.refresh_external_gauges obs;
      Obs.Runtime.sample obs.Obs.Ctx.runtime;
      Option.iter Shard.Cluster.refresh_saturation cluster);
  let evictions =
    Obs.Metrics.counter obs.Obs.Ctx.registry
      ~help:"Plan-cache entries evicted (LRU)" "hq_plan_cache_evictions_total"
  in
  let plancache =
    Hyperq.Plancache.create
      ~on_evict:(fun () -> Obs.Metrics.inc evictions)
      ~capacity:plan_cache_size ()
  in
  {
    db;
    server_scope = Hyperq.Scopes.create_server_frame ();
    users;
    materialization;
    plancache;
    obs;
    cluster;
    analyze_sample = max 0 analyze_sample;
    analyze_seen = Atomic.make 0;
  }

(** The platform's shared plan cache. *)
let plan_cache (t : t) = t.plancache

(** The shard cluster, when running sharded. *)
let cluster (t : t) = t.cluster

(** Stop the cluster's worker domains (no-op when unsharded). Call once
    when the platform is done; open connections keep working through
    the coordinator afterwards but sharded fan-out would hang. *)
let shutdown (t : t) : unit =
  match t.cluster with Some c -> Shard.Cluster.shutdown c | None -> ()

(** The platform's observability context (registry, event sink,
    in-flight trace). *)
let obs (t : t) = t.obs

(** Prometheus text exposition of the platform's registry (external
    gauges refreshed first), with the top-K query fingerprints appended
    as [hq_fingerprint_*_total{fingerprint="..."}] series — what a
    metrics scraper ([GET /metrics] on the admin port) or the server
    binary's [--stats] shutdown dump prints. *)
let stats_text (t : t) : string =
  Planes.refresh_external_gauges t.obs;
  Obs.Relation.to_prometheus (Obs.Metrics.exposition t.obs.Obs.Ctx.registry)
  ^ Obs.Relation.to_prometheus
      (Obs.Qstats.exposition ~k:10 t.obs.Obs.Ctx.qstats)

(** Zero counters/histograms and the fingerprint store — [.hq.stats.reset]
    and [POST /reset]. *)
let reset_stats (t : t) : unit = Planes.reset t.obs

let planes_ctx (t : t) : Planes.ctx =
  { Planes.obs = t.obs; plancache = t.plancache; cluster = t.cluster }

(** [GET /healthz]: 200/"ok" (plus uptime) while every SLO objective is
    within budget and the heap is under its watermark, 503 with the burn
    report as JSON while any objective burns on both the fast and slow
    windows, 503 with a heap report while the major heap sits above
    [--heap-watermark-mb]. With no objectives and no watermark (the
    default) it never degrades. *)
let healthz (t : t) : Obs.Http.response =
  ignore (Obs.Timeseries.tick t.obs.Obs.Ctx.timeseries);
  let rt = t.obs.Obs.Ctx.runtime in
  let v = Obs.Slo.evaluate t.obs.Obs.Ctx.slo in
  if Obs.Runtime.heap_alarm rt then
    Obs.Http.json 503
      (Obs.Relation.(
         obj
           [
             ("status", Str "degraded");
             ("reason", Str "heap above watermark");
             ("heap_bytes", Float (Obs.Runtime.heap_bytes ()));
             ( "heap_watermark_bytes",
               Float
                 (Option.value (Obs.Runtime.heap_watermark rt) ~default:0.0) );
           ])
      ^ "\n")
  else if v.Obs.Slo.v_healthy then
    Obs.Http.text 200
      (Printf.sprintf "ok uptime_s=%.0f\n" (Obs.Runtime.uptime_s ()))
  else
    Obs.Http.json 503
      (Planes.json_body (planes_ctx t) Planes.slo ~n:max_int (fun _ -> None))

(** The admin port's routes: method, path, handler. Every plane serves
    [GET /<name>.json]; the rest are [GET /metrics] (Prometheus text),
    [GET /healthz] (SLO-aware: 503 while burning), [GET /logs.json]
    (structured-log tail) and [POST /reset]. *)
let http_routes :
    (string * string * (t -> Obs.Http.request -> Obs.Http.response)) list =
  [
    ("GET", "/metrics", fun t _ -> Obs.Http.text 200 (stats_text t));
    ("GET", "/healthz", fun t _ -> healthz t);
    ( "GET",
      "/logs.json",
      fun t _ -> Obs.Http.ndjson 200 (Obs.Log.to_jsonl t.obs.Obs.Ctx.log) );
    ( "POST",
      "/reset",
      fun t _ ->
        reset_stats t;
        Obs.Http.json 200 "{\"status\":\"reset\"}\n" );
  ]
  @ List.map
      (fun p ->
        ("GET", Planes.path p, fun t -> Planes.http_reply (planes_ctx t) p))
      Planes.all

(** Route an admin-plane HTTP request through {!http_routes}. A known
    path with the wrong method gets a 405 with an [Allow] header. Pure —
    drive it through {!Obs.Http.handle} in tests, or hang it off
    {!Obs.Http.listen} in the server binary. *)
let admin_handler (t : t) (req : Obs.Http.request) : Obs.Http.response =
  let on_path =
    List.filter (fun (_, path, _) -> path = req.Obs.Http.path) http_routes
  in
  match
    (List.find_opt (fun (m, _, _) -> m = req.Obs.Http.meth) on_path, on_path)
  with
  | Some (_, _, handle), _ -> handle t req
  | None, [] -> Obs.Http.text 404 "not found\n"
  | None, _ ->
      let allowed = List.map (fun (m, _, _) -> m) on_path in
      Obs.Http.text
        ~headers:[ ("Allow", String.concat ", " allowed) ]
        405 "method not allowed\n"

(** Open a client connection: a fresh backend session (temp-table scope), a
    fresh engine session sharing the server variable scope, wired through
    the XC and exposed as a QIPC endpoint. *)
let connect (t : t) : connection =
  let session = Pgdb.Db.open_session t.db in
  let backend = Gateway.wire_backend ~obs:t.obs session in
  let sharder = Option.map Shard.Cluster.sharder t.cluster in
  let make_engine be =
    Hyperq.Engine.create ~materialization:t.materialization
      ~server_scope:t.server_scope ~plan_cache:t.plancache ~obs:t.obs
      ?sharder be
  in
  let xc = Xc.create make_engine backend in
  (* the endpoint's ANALYZE plumbing: flip collection on this
     connection's backend session and (when sharded) on every shard
     session, and read the trees back out *)
  let explain =
    {
      Endpoint.eh_set_analyze =
        (fun on ->
          Pgdb.Db.set_analyze session on;
          Option.iter (fun c -> Shard.Cluster.set_analyze c on) t.cluster);
      eh_plan =
        (fun () ->
          match Option.bind t.cluster Shard.Cluster.last_gather_plan with
          | Some _ as gather -> gather
          | None -> Pgdb.Db.last_plan session);
      eh_route =
        (fun () -> Option.bind t.cluster Shard.Cluster.last_route);
      eh_shard_plans =
        (fun () ->
          match t.cluster with
          | Some c -> Shard.Cluster.last_shard_plans c
          | None -> []);
      eh_sample =
        (fun () ->
          let n = t.analyze_sample in
          if n <= 0 then false
          else (Atomic.fetch_and_add t.analyze_seen 1 + 1) mod n = 0);
    }
  in
  {
    endpoint =
      Endpoint.create ~users:t.users ~planes:(planes_ctx t) ~explain xc;
    xc;
    session;
  }

(** Close a connection: promotes session variables to the server scope,
    releases backend temp tables (paper Sections 3.2.3, 4.3) and drops
    the connection's [.hq.activity] entry. *)
let disconnect (conn : connection) : unit =
  Hyperq.Engine.close_session (Xc.engine conn.xc);
  Endpoint.close conn.endpoint;
  Pgdb.Db.close_session conn.session

(* ------------------------------------------------------------------ *)
(* A wire-level Q client for tests, examples and benchmarks            *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type client = {
    conn : connection;
    mutable connected : bool;
    mutable version : int;  (** negotiated capability byte *)
  }

  exception Client_error of string

  (** Classify the server's handshake reply. A valid acceptance is
      exactly one byte whose value is a capability level no higher than
      the one we requested; an empty reply is the kdb+-style silent
      close on bad credentials; anything else is a malformed reply from
      something that is not speaking QIPC. *)
  let validate_handshake ~(requested : int) (reply : string) :
      (int, string) result =
    match String.length reply with
    | 0 -> Error "authentication rejected"
    | 1 ->
        let cap = Char.code reply.[0] in
        if cap <= requested then Ok cap
        else
          Error
            (Printf.sprintf
               "malformed handshake reply: capability byte %d exceeds \
                requested version %d"
               cap requested)
    | n -> Error (Printf.sprintf "malformed handshake reply: %d bytes" n)

  (** Connect over QIPC bytes (handshake included). *)
  let connect ?(user = "trader") ?(password = "pwd") (t : t) : client =
    let conn = connect t in
    let requested = 3 in
    let hello =
      Qipc.Codec.encode_handshake ~user ~password ~version:requested
    in
    let reply = Endpoint.feed conn.endpoint hello in
    match validate_handshake ~requested reply with
    | Ok version -> { conn; connected = true; version }
    | Error msg ->
        (* server-side rejections already counted by the endpoint; count
           malformed replies here so both failure modes reach the same
           metric *)
        if String.length reply > 0 then
          Obs.Metrics.inc
            (Obs.Metrics.counter t.obs.Obs.Ctx.registry
               "hq_auth_failures_total");
        disconnect conn;
        raise (Client_error msg)

  (** Send one synchronous Q query; decode the QIPC response. *)
  let query (c : client) (q : string) : (Qvalue.Value.t, string) result =
    if not c.connected then raise (Client_error "not connected");
    let msg =
      Qipc.Codec.encode_message
        { mt = Qipc.Codec.Sync; body = Qipc.Codec.Query q }
    in
    let reply = Endpoint.feed c.conn.endpoint msg in
    match Qipc.Codec.decode_message reply with
    | { Qipc.Codec.body = Qipc.Codec.Value v; _ }, _ -> Ok v
    | { Qipc.Codec.body = Qipc.Codec.Error e; _ }, _ -> Error e
    | { Qipc.Codec.body = Qipc.Codec.Query _; _ }, _ ->
        Error "unexpected query message from server"

  let close (c : client) : unit =
    disconnect c.conn;
    c.connected <- false
end
