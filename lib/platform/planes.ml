(** The introspection planes: one relation per plane, two surfaces.

    This list is the only place a plane is named. Each plane's data
    owner produces one {!Obs.Relation.t}; the endpoint answers
    [.hq.<name>] and [.hq.<name>[n]] with it rendered as a Q table
    ({!to_q}), and the admin port answers [GET /<name>.json?n=] with the
    same relation rendered as JSON ({!http_reply}). Both surfaces
    therefore show the same columns, in the same order, with the same
    default row limit. *)

module R = Obs.Relation
module QV = Qvalue.Value
module M = Obs.Metrics

(** What the planes read: the shared observability context, the plan
    cache, and the shard cluster when the platform has one. *)
type ctx = {
  obs : Obs.Ctx.t;
  plancache : Hyperq.Plancache.t;
  cluster : Shard.Cluster.t option;
}

(** How the admin port renders a plane: one JSON document with the rows
    under the given key, or one JSON line per row. *)
type layout = Document of string | Lines

type plane = {
  name : string;  (** [.hq.<name>] and [GET /<name>.json] *)
  about : string;  (** one line for help texts *)
  layout : layout;
  default_n : ctx -> int;  (** rows shown when no [n] is given *)
  produce : ctx -> n:int -> (string -> string option) -> R.t;
      (** the first [n] rows; the function reads request parameters
          beyond [n] ([?window=]), and none on the Q surface *)
}

(** Mirror counters owned by layers outside the metrics registry (the
    dependency-free pgdb executor, the fingerprint store, the flight
    recorder) into registry gauges, so one snapshot shows the whole
    stack. *)
let refresh_external_gauges (obs : Obs.Ctx.t) : unit =
  let reg = obs.Obs.Ctx.registry in
  let set name help v = M.set (M.gauge reg ~help name) (float_of_int v) in
  Obs.Runtime.refresh_uptime obs.Obs.Ctx.runtime;
  set "hq_backend_selects_run" "Top-level SELECTs executed by the pgdb backend"
    (Atomic.get Pgdb.Vexec.stats_vector);
  set "hq_backend_rows_out" "Rows produced by the pgdb backend"
    (Atomic.get Pgdb.Vexec.stats_rows_out);
  set "hq_fingerprints_tracked" "Distinct query fingerprints currently tracked"
    (Obs.Qstats.size obs.Obs.Ctx.qstats);
  set "hq_fingerprint_evictions" "Fingerprint entries evicted (LRU) since reset"
    (Obs.Qstats.evictions obs.Obs.Ctx.qstats);
  set "hq_slow_records" "Queries held by the slow-query flight recorder"
    (Obs.Recorder.size obs.Obs.Ctx.recorder);
  set "hq_slow_captured_total"
    "Queries captured by the flight recorder as over-threshold"
    (Obs.Recorder.captured_slow obs.Obs.Ctx.recorder);
  let sc_hits, sc_misses, sc_evictions = Pgdb.Db.stmt_cache_stats () in
  set "hq_backend_stmt_cache_hits"
    "Backend statement-cache hits (parse skipped)" sc_hits;
  set "hq_backend_stmt_cache_misses"
    "Backend statement-cache misses (SQL parsed)" sc_misses;
  set "hq_backend_stmt_cache_evictions"
    "Backend statement-cache entries evicted (LRU)" sc_evictions

(** Zero every observability plane at once: the metrics registry, the
    pgdb executor counters it mirrors, the fingerprint store and every
    ring — so benchmark runs can be bracketed without restarting the
    proxy and no plane reports pre-reset state next to another plane's
    post-reset state. *)
let reset (obs : Obs.Ctx.t) : unit =
  M.reset_all obs.Obs.Ctx.registry;
  Pgdb.Vexec.reset_stats ();
  Obs.Qstats.reset obs.Obs.Ctx.qstats;
  Obs.Recorder.reset obs.Obs.Ctx.recorder;
  Obs.Export.reset obs.Obs.Ctx.export;
  Obs.Timeseries.reset obs.Obs.Ctx.timeseries;
  Obs.Explain.reset obs.Obs.Ctx.explain;
  (* re-base the GC sampler after the registry zeroed its counters, so
     post-reset samples count only post-reset GC activity *)
  Obs.Runtime.reset obs.Obs.Ctx.runtime

let plane ~layout ?(default_n = fun _ -> max_int) name about produce =
  { name; about; layout; default_n; produce }

(* the ring's in-band pacing: a read sees a fresh snapshot when the
   interval elapsed, even with no sampler thread *)
let ticked (c : ctx) = ignore (Obs.Timeseries.tick c.obs.Obs.Ctx.timeseries)

let slo =
  plane ~layout:(Document "objectives") "slo" "SLO burn rates"
    (fun c ~n _ ->
      ticked c;
      Obs.Slo.relation ~n c.obs.Obs.Ctx.slo)

let all : plane list =
  [
    plane ~layout:(Document "metrics") "stats" "metrics registry snapshot"
      (fun c ~n _ ->
        refresh_external_gauges c.obs;
        R.with_fields
          (M.relation ~n c.obs.Obs.Ctx.registry)
          [
            ( "fingerprints",
              R.Json (R.rows_json (Obs.Qstats.relation c.obs.Obs.Ctx.qstats)) );
          ]);
    plane ~layout:(Document "fingerprints")
      ~default_n:(fun _ -> 10)
      "top" "query fingerprints by total time"
      (fun c ~n _ -> Obs.Qstats.relation ~n c.obs.Obs.Ctx.qstats);
    plane ~layout:Lines
      ~default_n:(fun c -> Obs.Recorder.capacity c.obs.Obs.Ctx.recorder)
      "slow" "slow-query flight recorder"
      (fun c ~n _ -> Obs.Recorder.relation ~n c.obs.Obs.Ctx.recorder);
    plane ~layout:(Document "sessions") "activity"
      "session registry (who runs what)"
      (fun c ~n _ -> Obs.Sessions.relation ~n c.obs.Obs.Ctx.sessions);
    plane ~layout:(Document "traces")
      ~default_n:(fun c -> Obs.Export.capacity c.obs.Obs.Ctx.export)
      "traces" "last finished query traces"
      (fun c ~n _ -> Obs.Export.relation ~n c.obs.Obs.Ctx.export);
    plane ~layout:(Document "windows") "timeseries"
      "windowed rates and latency percentiles"
      (fun c ~n param ->
        ticked c;
        Obs.Timeseries.relation ~n
          ?horizon_s:(Option.bind (param "window") Obs.Slo.parse_duration_s)
          c.obs.Obs.Ctx.timeseries);
    slo;
    plane ~layout:(Document "stats") "runtime" "GC, heap and uptime telemetry"
      (fun c ~n _ -> Obs.Runtime.relation ~n c.obs.Obs.Ctx.runtime);
    plane ~layout:(Document "plans")
      ~default_n:(fun c -> Obs.Explain.capacity c.obs.Obs.Ctx.explain)
      "explain" "analyzed-plan ring"
      (fun c ~n _ -> Obs.Explain.relation ~n c.obs.Obs.Ctx.explain);
    plane ~layout:(Document "entries")
      ~default_n:(fun _ -> Hyperq.Plancache.default_listed)
      "plancache" "plan-cache contents"
      (fun c ~n _ -> Hyperq.Plancache.relation ~n c.plancache);
    plane ~layout:(Document "shards") "shards" "shard layout and traffic"
      (fun c ~n _ -> Shard.Cluster.relation ~n c.cluster);
  ]

let find (name : string) : plane option =
  List.find_opt (fun p -> p.name = name) all

(** The admin-port path and the in-band query of a plane. *)
let path (p : plane) = "/" ^ p.name ^ ".json"

let query (p : plane) = ".hq." ^ p.name

(** A relation as a Q table: one typed vector per column; a JSON column
    becomes a sym column. Document fields have no place in a table. *)
let to_q (r : R.t) : QV.t =
  QV.Table
    (QV.table
       (List.map
          (fun (name, col) ->
            ( name,
              match col with
              | R.Ints a -> QV.longs a
              | R.Floats a -> QV.floats a
              | R.Bools a -> QV.bools a
              | R.Strs a | R.Jsons a -> QV.syms a ))
          (R.columns r)))

(** The reply to [.hq.<name>] ([n = None]) or [.hq.<name>[n]]. *)
let q_reply (c : ctx) (p : plane) (n : int option) : QV.t =
  to_q
    (p.produce c ~n:(Option.value n ~default:(p.default_n c)) (fun _ -> None))

(** The plane's JSON document, as [GET /<name>.json] serves it. *)
let json_body (c : ctx) (p : plane) ~(n : int) param : string =
  let r = p.produce c ~n param in
  match p.layout with
  | Document rows_key -> R.to_json ~rows_key r
  | Lines -> R.to_jsonl r

(** The reply to [GET /<name>.json[?n=]]. *)
let http_reply (c : ctx) (p : plane) (req : Obs.Http.request) :
    Obs.Http.response =
  let param = Obs.Http.query_param req in
  let n =
    match Option.bind (param "n") int_of_string_opt with
    | Some n when n >= 0 -> n
    | _ -> p.default_n c
  in
  let body = json_body c p ~n param in
  match p.layout with
  | Document _ -> Obs.Http.json 200 body
  | Lines -> Obs.Http.ndjson 200 body
