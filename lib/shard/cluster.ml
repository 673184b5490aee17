(** The shard cluster: a coordinator plus N independent pgdb backends,
    each owning a hash partition of the distributed tables and a full
    copy of every replicated table.

    The cluster plugs into the translation engine through
    {!Hyperq.Engine.sharder}: after the Xformer has optimized a
    statement, {!Router.route} classifies it, and shard-safe plans fan
    out over a fixed {!Pool} of OCaml domains — one wire gateway and
    pgdb session per shard, each pinned to one domain so no session is
    ever touched concurrently. {!Gather} reassembles the partial
    results. Everything the router cannot prove safe silently falls
    back to the coordinator's own backend, which holds all the data.

    DDL and DML flowing through the coordinator are mirrored:
    [CREATE TABLE] broadcasts and registers the table as replicated,
    [INSERT] broadcasts (replicated) or re-partitions rows (distributed),
    [DROP TABLE] broadcasts and forgets. Any mutation the watcher cannot
    mirror evicts the table from the shard map — a safety valve that
    degrades that table to coordinator-only execution instead of serving
    stale shards. Every eviction and layout change bumps the map
    generation, which is mixed into plan-cache keys. *)

module B = Hyperq.Backend
module M = Obs.Metrics
module I = Xtra.Ir

(** Default market-data layout: the two high-volume streams are
    hash-distributed on the symbol; everything else replicates. *)
let default_distributions = [ ("trades", "Symbol"); ("quotes", "Symbol") ]

type shard = {
  s_id : int;
  s_db : Pgdb.Db.t;
  s_session : Pgdb.Db.session;
  s_backend : B.t;
  s_obs : Obs.Ctx.t;
      (** the shard's own trace-less ctx; the coordinator plants a
          per-dispatch trace handle here so the shard gateway stamps
          [traceparent] with the shard's child span id *)
  s_statements : int Atomic.t;  (** statements dispatched by the cluster *)
  s_sql_bytes : int Atomic.t;  (** SQL text bytes dispatched *)
  s_hist : M.histogram;  (** per-shard dispatch latency *)
  s_alloc : M.counter;
      (** bytes allocated on the worker domain per dispatch
          ([hq_shard_alloc_bytes{shard}]); per-dispatch, not per-query —
          a scattered query contributes to every target shard *)
  s_pg_in : M.counter;  (** the shard gateway's wire meters (0 when the *)
  s_pg_out : M.counter;  (** shard backend is not wire-metered) *)
}

type t = {
  c_map : Shardmap.t;
  c_shards : shard array;
  c_pool : Pool.t;
  c_obs : Obs.Ctx.t;
  c_routed : M.counter;  (** hq_shard_queries_total{route="router"} *)
  c_scattered : M.counter;  (** hq_shard_queries_total{route="scatter"} *)
  c_coordinated : M.counter;  (** hq_shard_queries_total{route="coordinator"} *)
  c_queue_depth : M.gauge;  (** hq_shard_pool_queue_depth *)
  c_busy : M.gauge;  (** hq_shard_pool_busy_workers *)
  c_workers : M.gauge;  (** hq_shard_pool_workers (pool size, static) *)
  (* per-domain utilization, index = worker id; mirrored from the
     pool's cumulative counters by [refresh_saturation] *)
  c_domain_busy : M.gauge array;  (** hq_domain_busy_seconds{domain} *)
  c_domain_idle : M.gauge array;  (** hq_domain_idle_seconds{domain} *)
  c_domain_wait : M.gauge array;  (** hq_domain_queue_wait_seconds{domain} *)
  c_domain_jobs : M.gauge array;  (** hq_domain_jobs_total{domain} *)
  c_pruned : M.counter;  (** hq_shard_pruned_scatters_total *)
  mutable c_closed : bool;
  mutable c_analyze : bool;
      (** shard sessions collect per-operator stats (ANALYZE mode) *)
  mutable c_selectivity : (string -> float option) option;
      (** workload feedback: fingerprint -> observed selectivity, wired
          from the platform's {!Obs.Qstats} store *)
  mutable c_last_route : Router.route option;
      (** routing decision of the last statement offered to the sharder *)
  mutable c_last_shard_plans : (int * Pgdb.Opstats.node option) list;
      (** per-target operator trees of the last analyzed fan-out *)
}

let shard_count t = Array.length t.c_shards
let map t = t.c_map
let generation t = Shardmap.generation t.c_map

(* ------------------------------------------------------------------ *)
(* Construction: partition the coordinator's tables onto fresh shards  *)
(* ------------------------------------------------------------------ *)

(* a trace-less observability context for one shard: shares every
   underlying store with the coordinator's context (so shard metrics and
   logs land in the same registry/sinks), but never attaches to the
   coordinator's mutable query trace from a worker domain *)
let shard_obs (obs : Obs.Ctx.t) : Obs.Ctx.t =
  Obs.Ctx.create ~registry:obs.Obs.Ctx.registry ~events:obs.Obs.Ctx.events
    ~qstats:obs.Obs.Ctx.qstats ~recorder:obs.Obs.Ctx.recorder
    ~sessions:obs.Obs.Ctx.sessions ~log:obs.Obs.Ctx.log
    ~export:obs.Obs.Ctx.export ~timeseries:obs.Obs.Ctx.timeseries
    ~slo:obs.Obs.Ctx.slo ~explain:obs.Obs.Ctx.explain
    ~runtime:obs.Obs.Ctx.runtime ()

let create ?(distributions = default_distributions) ?workers ~shards
    ?(make_backend =
      fun ~shard_id:_ ~obs:_ session -> B.of_pgdb_session session)
    ?(obs = Obs.Ctx.create ()) (db : Pgdb.Db.t) : t =
  if shards < 1 then invalid_arg "Cluster.create: shards must be >= 1";
  let map = Shardmap.create ~shards ~distributions in
  let shard_dbs = Array.init shards (fun _ -> Pgdb.Db.create ()) in
  (* hash-partition distributed tables, replicate the rest *)
  let tables =
    Hashtbl.fold
      (fun name tbl acc ->
        if name = "pg_catalog_columns" then acc else (name, tbl) :: acc)
      db.Pgdb.Db.tables []
  in
  List.iter
    (fun (name, (tbl : Pgdb.Storage.table)) ->
      let def = tbl.Pgdb.Storage.def in
      let rows = tbl.Pgdb.Storage.rows in
      let dist_idx =
        match Shardmap.distribution_of map name with
        | None -> None
        | Some col -> (
            match Pgdb.Storage.column_index tbl col with
            | Some i -> Some i
            | None ->
                (* declared distribution column does not exist: degrade
                   to a replicated table rather than mis-partitioning *)
                Shardmap.remove_table map name;
                None)
      in
      match dist_idx with
      | Some ci ->
          let buckets = Array.make shards [] in
          (* iterate backwards so each bucket comes out in row order *)
          for r = Array.length rows - 1 downto 0 do
            let s = Shardmap.shard_of_value map rows.(r).(ci) in
            buckets.(s) <- rows.(r) :: buckets.(s)
          done;
          Array.iteri
            (fun s sdb -> Pgdb.Db.load_table sdb def buckets.(s))
            shard_dbs
      | None ->
          Shardmap.add_replicated map name;
          let all = Array.to_list rows in
          Array.iter (fun sdb -> Pgdb.Db.load_table sdb def all) shard_dbs)
    tables;
  let reg = obs.Obs.Ctx.registry in
  let mk_shard i sdb =
    let labels = [ ("shard", string_of_int i) ] in
    let session = Pgdb.Db.open_session sdb in
    let sobs = shard_obs obs in
    {
      s_id = i;
      s_db = sdb;
      s_session = session;
      s_backend = make_backend ~shard_id:i ~obs:sobs session;
      s_obs = sobs;
      s_statements = Atomic.make 0;
      s_sql_bytes = Atomic.make 0;
      s_hist =
        M.histogram reg ~help:"Per-shard dispatch latency (seconds)" ~labels
          "hq_shard_dispatch_seconds";
      s_alloc =
        M.counter reg
          ~help:"Bytes allocated on the worker domain per shard dispatch"
          ~labels "hq_shard_alloc_bytes";
      s_pg_in =
        M.counter reg ~help:"PG v3 bytes received from the backend" ~labels
          "hq_pgwire_bytes_in";
      s_pg_out =
        M.counter reg ~help:"PG v3 bytes sent to the backend" ~labels
          "hq_pgwire_bytes_out";
    }
  in
  let route_counter r =
    M.counter reg ~help:"Statements by shard route class"
      ~labels:[ ("route", r) ]
      "hq_shard_queries_total"
  in
  let pool = Pool.create ~workers:(Option.value ~default:shards workers) in
  let workers_g =
    M.gauge reg ~help:"Shard dispatch pool size" "hq_shard_pool_workers"
  in
  M.set workers_g (float_of_int (Pool.size pool));
  let domain_gauge name help k =
    M.gauge reg ~help ~labels:[ ("domain", string_of_int k) ] name
  in
  let per_domain name help =
    Array.init (Pool.size pool) (domain_gauge name help)
  in
  {
    c_map = map;
    c_shards = Array.mapi mk_shard shard_dbs;
    c_pool = pool;
    c_obs = obs;
    c_routed = route_counter "router";
    c_scattered = route_counter "scatter";
    c_coordinated = route_counter "coordinator";
    c_queue_depth =
      M.gauge reg ~help:"Shard dispatch jobs queued, not yet started"
        "hq_shard_pool_queue_depth";
    c_busy =
      M.gauge reg ~help:"Shard dispatch workers currently executing"
        "hq_shard_pool_busy_workers";
    c_workers = workers_g;
    c_domain_busy =
      per_domain "hq_domain_busy_seconds"
        "Cumulative wall-time the pinned domain spent executing dispatches";
    c_domain_idle =
      per_domain "hq_domain_idle_seconds"
        "Cumulative wall-time the pinned domain sat idle";
    c_domain_wait =
      per_domain "hq_domain_queue_wait_seconds"
        "Cumulative dispatch-queue wait of jobs run on the domain";
    c_domain_jobs =
      per_domain "hq_domain_jobs_total"
        "Dispatch jobs completed by the domain";
    c_pruned =
      M.counter reg
        ~help:
          "Scatters dispatched to a shard subset via selectivity feedback"
        "hq_shard_pruned_scatters_total";
    c_closed = false;
    c_analyze = false;
    c_selectivity = None;
    c_last_route = None;
    c_last_shard_plans = [];
  }

(** Wire the workload-statistics selectivity feed: [f fingerprint] is
    the observed output/scanned row ratio of the fingerprint's analyzed
    runs ({!Obs.Qstats.entry_selectivity}). Selective fingerprints let
    the router prune scatters to the shards allowed by distribution-key
    membership predicates. *)
let set_selectivity_source (t : t) (f : string -> float option) : unit =
  t.c_selectivity <- Some f

(** Toggle ANALYZE collection on every shard session. Worker domains
    only touch their sessions inside [Pool.run], whose completion latch
    orders these writes before any dispatch. *)
let set_analyze (t : t) (on : bool) : unit =
  t.c_analyze <- on;
  if not on then t.c_last_shard_plans <- [];
  Array.iter (fun sh -> Pgdb.Db.set_analyze sh.s_session on) t.c_shards

(** Routing decision of the last statement the sharder saw, as a route
    explanation (including coordinator fallbacks with their reason). *)
let last_route (t : t) : Router.explain option =
  Option.map
    (Router.explain_route ~shards:(Array.length t.c_shards))
    t.c_last_route

(** Per-shard operator trees collected by the last analyzed fan-out, in
    target order; [] when the last statement was not analyzed or ran on
    the coordinator. *)
let last_shard_plans (t : t) : (int * Pgdb.Opstats.node option) list =
  t.c_last_shard_plans

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(** Mirror the pool's saturation counters into the overload monitor's
    gauges. Called on every dispatch and from the time-series sampler's
    pre-sample hook, so periodic snapshots see live congestion. *)
let refresh_saturation (t : t) : unit =
  M.set t.c_queue_depth (float_of_int (Pool.queue_depth t.c_pool));
  M.set t.c_busy (float_of_int (Pool.busy_workers t.c_pool));
  (* per-domain utilization: busy/wait/jobs are the pool's cumulative
     counters; idle is everything else of the pool's lifetime *)
  let up = Pool.uptime_s t.c_pool in
  Array.iteri
    (fun k (ws : Pool.worker_stat) ->
      if k < Array.length t.c_domain_busy then begin
        M.set t.c_domain_busy.(k) ws.Pool.ws_busy_s;
        M.set t.c_domain_idle.(k) (Float.max 0.0 (up -. ws.Pool.ws_busy_s));
        M.set t.c_domain_wait.(k) ws.Pool.ws_wait_s;
        M.set t.c_domain_jobs.(k) (float_of_int ws.Pool.ws_jobs)
      end)
    (Pool.worker_stats t.c_pool)

(* send one statement to a shard's backend, on the worker domain the
   shard is pinned to. Each dispatch is its own request for the shard
   backend, so it keeps only this statement. *)
let shard_exec (sh : shard) (sql : string) : (B.reply, string) result =
  Atomic.incr sh.s_statements;
  ignore (Atomic.fetch_and_add sh.s_sql_bytes (String.length sql));
  B.begin_request sh.s_backend;
  B.exec sh.s_backend sql

(* run [sql] on the given shards through the domain pool (shard i is
   pinned to worker i mod workers) and collect row results in shard
   order.

   Trace propagation: while the coordinator's query trace is open, each
   target gets a [shard_exec{shard=i}] child span, created HERE on the
   coordinator (which still solely owns the trace tree) and carried
   onto the worker domain by planting a private {!Obs.Trace.attach}
   handle in the shard's own ctx — explicit context passing, no TLS.
   The shard gateway reads that ctx for its [traceparent] comment, so
   the SQL each shard logs carries the child span's id; the worker
   closes the span and clears the handle before the pool's completion
   latch hands the tree back to the coordinator. *)
let fan_out (t : t) ~(targets : int list) (sql : string) :
    (B.result list, string) result =
  let slots = Array.make (Array.length t.c_shards) None in
  let parent_trace = t.c_obs.Obs.Ctx.trace in
  let jobs =
    List.map
      (fun i ->
        let sh = t.c_shards.(i) in
        let child =
          match parent_trace with
          | Some tr ->
              let sp = Obs.Trace.open_child tr "shard_exec" in
              Obs.Trace.set_span_attr sp "shard" (Obs.Trace.Int i);
              sh.s_obs.Obs.Ctx.trace <-
                Some (Obs.Trace.attach ~trace_id:(Obs.Trace.trace_id tr) sp);
              Some sp
          | None -> None
        in
        ( i,
          fun () ->
            Fun.protect
              ~finally:(fun () ->
                match child with
                | Some sp ->
                    Obs.Trace.close_span sp;
                    sh.s_obs.Obs.Ctx.trace <- None
                | None -> ())
              (fun () ->
                let start = Obs.Clock.now_ns () in
                (* Gc.allocated_bytes is domain-local: this delta is the
                   worker domain's allocation for this one dispatch *)
                let a0 = Gc.allocated_bytes () in
                let r = shard_exec sh sql in
                let alloc = Gc.allocated_bytes () -. a0 in
                if alloc > 0.0 then M.add sh.s_alloc (int_of_float alloc);
                M.observe sh.s_hist (Obs.Clock.seconds_since start);
                slots.(i) <- Some r) ))
      targets
  in
  refresh_saturation t;
  Pool.run t.c_pool jobs;
  refresh_saturation t;
  (* Pool.run's completion latch orders the workers' session writes
     before this read of each shard's last operator tree *)
  if t.c_analyze then
    t.c_last_shard_plans <-
      List.map
        (fun i -> (i, Pgdb.Db.last_plan t.c_shards.(i).s_session))
        targets;
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | i :: rest -> (
        match slots.(i) with
        | Some (Ok (B.Result_set r)) -> collect (r :: acc) rest
        | Some (Ok (B.Command_ok tag)) ->
            Error (Printf.sprintf "shard %d returned no rows (%s)" i tag)
        | Some (Error e) -> Error (Printf.sprintf "shard %d: %s" i e)
        | None -> Error (Printf.sprintf "shard %d produced no result" i))
  in
  collect [] targets

let all_shards t = List.init (Array.length t.c_shards) Fun.id

(* shard relations are serialized directly — they are already optimized
   subtrees of the coordinator's plan, so re-running the Xformer (which
   would re-inject root ordering) is neither needed nor wanted.
   [tolerate_eq2] because with 2VL rewriting disabled the tree may still
   carry raw Q equality. *)
let shard_sql (rel : I.rel) : string =
  Hyperq.Serializer.serialize_to_sql ~tolerate_eq2:true rel

(* reassembly gets its own span so the exported tree separates shard
   time from coordinator merge time *)
let gathering (t : t) (f : unit -> 'a) : 'a =
  match t.c_obs.Obs.Ctx.trace with
  | Some tr -> Obs.Trace.with_span tr "gather" f
  | None -> f ()

let execute (t : t) (plan : Router.plan) ~(targets : int list) :
    (B.result, string) result =
  (match t.c_obs.Obs.Ctx.trace with
  | Some tr ->
      Obs.Trace.add_attr tr "shard_route" (Obs.Trace.Str (Router.plan_kind plan))
  | None -> ());
  try
    match plan with
    | Router.Single (shard, rel) -> (
        let sql = shard_sql rel in
        match fan_out t ~targets:[ shard ] sql with
        | Ok [ r ] -> Ok r
        | Ok _ -> Error "single-shard dispatch returned multiple results"
        | Error e -> Error e)
    | Router.Concat rel -> (
        match fan_out t ~targets (shard_sql rel) with
        | Ok rs -> Ok (gathering t (fun () -> Gather.concat rs))
        | Error e -> Error e)
    | Router.Merge (rel, keys) -> (
        match fan_out t ~targets (shard_sql rel) with
        | Ok rs -> gathering t (fun () -> Gather.merge ~keys rs)
        | Error e -> Error e)
    | Router.PartialAgg plan -> (
        match fan_out t ~targets (shard_sql plan.Router.a_shard_rel) with
        | Ok rs -> gathering t (fun () -> Gather.combine plan rs)
        | Error e -> Error e)
  with e -> Error (Printexc.to_string e)

(** The engine hook: route each optimized tree, claiming shard-safe
    statements and declining the rest (the engine then runs its normal
    single-backend path). Also exposes the shard-map generation for
    plan-cache keying. *)
let sharder (t : t) : Hyperq.Engine.sharder =
  let log = t.c_obs.Obs.Ctx.log in
  {
    Hyperq.Engine.sh_generation = (fun () -> Shardmap.generation t.c_map);
    sh_route =
      (fun ?fingerprint rel ->
        if t.c_closed then None
        else
          (* the adaptivity loop: observed selectivity of this statement
             shape (when the platform wired a source and the engine knows
             the fingerprint) feeds the router's scatter pruning *)
          let selectivity =
            match (fingerprint, t.c_selectivity) with
            | Some fp, Some src -> src fp
            | _ -> None
          in
          let route = Router.route ?selectivity t.c_map rel in
          t.c_last_route <- Some route;
          match route with
        | Router.Coordinator reason ->
            M.inc t.c_coordinated;
            if Obs.Log.enabled log Obs.Log.Debug then
              Obs.Log.debug log "shard route: coordinator"
                [ ("reason", Obs.Events.Str reason) ];
            None
        | Router.Run (plan, targets) ->
            (match plan with
            | Router.Single _ -> M.inc t.c_routed
            | Router.Concat _ | Router.Merge _ | Router.PartialAgg _ ->
                M.inc t.c_scattered;
                if List.length targets < Array.length t.c_shards then
                  M.inc t.c_pruned);
            Some (fun () -> execute t plan ~targets));
  }

(* ------------------------------------------------------------------ *)
(* DDL / DML mirroring                                                 *)
(* ------------------------------------------------------------------ *)

let tokens_of (sql : string) : string list =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := String.lowercase_ascii (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' | ',' -> flush ()
      | c -> Buffer.add_char buf c)
    sql;
  flush ();
  List.rev !out

(* broadcast a statement to every shard, ignoring per-shard outcomes:
   callers evict the table on any sign of trouble *)
let broadcast_exn (t : t) (sql : string) : unit =
  Pool.run t.c_pool
    (List.map
       (fun i ->
         ( i,
           fun () ->
             match shard_exec t.c_shards.(i) sql with
             | Ok _ -> ()
             | Error e -> failwith e ))
       (all_shards t))

let evict (t : t) (table : string) : unit =
  Shardmap.remove_table t.c_map table

(* INSERT into a distributed table: parse, partition the VALUES rows by
   the distribution column, and send each shard only its slice *)
let mirror_distributed_insert (t : t) (table : string) (dist : string)
    (sql : string) : unit =
  match Pgdb.Sql_parser.parse sql with
  | Sqlast.Ast.InsertValues { ins_table; ins_cols; rows } -> (
      let cols =
        if ins_cols <> [] then ins_cols
        else
          match Hashtbl.find_opt t.c_shards.(0).s_db.Pgdb.Db.tables table with
          | Some tbl ->
              List.map
                (fun c -> c.Catalog.Schema.col_name)
                tbl.Pgdb.Storage.def.Catalog.Schema.tbl_columns
          | None -> []
      in
      let rec index i = function
        | [] -> None
        | c :: rest ->
            if String.lowercase_ascii c = dist then Some i
            else index (i + 1) rest
      in
      match index 0 cols with
      | None -> evict t table
      | Some ci ->
          let buckets = Array.make (Array.length t.c_shards) [] in
          List.iter
            (fun row ->
              match List.nth_opt row ci with
              | None -> raise Exit
              | Some l ->
                  let s = Shardmap.shard_of_lit t.c_map l in
                  buckets.(s) <- row :: buckets.(s))
            rows;
          Pool.run t.c_pool
            (List.filter_map
               (fun i ->
                 match List.rev buckets.(i) with
                 | [] -> None
                 | mine ->
                     let stmt =
                       Sqlast.Ast.stmt_str
                         (Sqlast.Ast.InsertValues
                            { ins_table; ins_cols; rows = mine })
                     in
                     Some
                       ( i,
                         fun () ->
                           match shard_exec t.c_shards.(i) stmt with
                           | Ok _ -> ()
                           | Error e -> failwith e ))
               (all_shards t)))
  | _ -> evict t table

(* the statement watcher composed onto a coordinator backend's [on_exec] *)
let watch (t : t) (sql : string) : unit =
  match tokens_of sql with
  | "create" :: ("temporary" | "temp") :: _ -> ()
  | "create" :: "table" :: name :: rest ->
      if rest <> [] && List.hd rest = "as" then
        (* CTAS stays coordinator-only: the result rows live only on the
           coordinator, and routing treats the unknown table accordingly *)
        ()
      else begin
        (* plain CREATE TABLE: mirror the (empty) definition everywhere
           and treat the new table as replicated *)
        (try broadcast_exn t sql with _ -> evict t name);
        Shardmap.add_replicated t.c_map name
      end
  | "drop" :: "table" :: rest -> (
      let name =
        match rest with
        | "if" :: "exists" :: n :: _ -> Some n
        | n :: _ -> Some n
        | [] -> None
      in
      match name with
      | None -> ()
      | Some name ->
          (try broadcast_exn t sql with _ -> ());
          evict t name)
  | "insert" :: "into" :: name :: _ -> (
      match Shardmap.distribution_of t.c_map name with
      | Some dist -> (
          try mirror_distributed_insert t name dist sql
          with _ -> evict t name)
      | None ->
          if Shardmap.is_replicated t.c_map name then
            try broadcast_exn t sql with _ -> evict t name)
  | ("update" | "delete" | "truncate" | "alter") :: rest -> (
      (* mutations the mirror does not understand: evict the target so
         shards can never serve stale rows *)
      let name =
        match rest with
        | "from" :: n :: _ | "table" :: n :: _ | n :: _ -> Some n
        | [] -> None
      in
      match name with Some n -> evict t n | None -> ())
  | _ -> ()

(** Chain the cluster's DDL/DML mirror onto a coordinator backend. The
    previous observer (e.g. MDI's catalog watcher) still runs first. *)
let watch_backend (t : t) (backend : B.t) : unit =
  let prev = !(backend.B.on_exec) in
  backend.B.on_exec :=
    fun sql ->
      prev sql;
      watch t sql

(* ------------------------------------------------------------------ *)
(* Introspection and shutdown                                          *)
(* ------------------------------------------------------------------ *)

type shard_info = {
  si_id : int;
  si_tables : string list;
  si_rows : int;
  si_statements : int;
  si_bytes : int;
      (** PG v3 wire bytes through the shard's gateway when the backend
          is wire-metered, otherwise the SQL text bytes dispatched *)
}

(** Per-shard backends in shard order (tests reach through this to
    observe the statements each shard is sent). *)
let backends (t : t) : B.t array =
  Array.map (fun sh -> sh.s_backend) t.c_shards

let shards_info (t : t) : shard_info list =
  Array.to_list
    (Array.map
       (fun sh ->
         let tables = Pgdb.Db.list_tables sh.s_db in
         let rows =
           List.fold_left
             (fun acc name ->
               match Hashtbl.find_opt sh.s_db.Pgdb.Db.tables name with
               | Some tbl -> acc + Array.length tbl.Pgdb.Storage.rows
               | None -> acc)
             0 tables
         in
         let pg = M.counter_value sh.s_pg_in + M.counter_value sh.s_pg_out in
         {
           si_id = sh.s_id;
           si_tables = tables;
           si_rows = rows;
           si_statements = Atomic.get sh.s_statements;
           si_bytes = (if pg > 0 then pg else Atomic.get sh.s_sql_bytes);
         })
       t.c_shards)

(** Stop the worker domains. The shard databases stay readable (they are
    plain in-process structures); only the dispatch pool goes away. *)
let shutdown (t : t) : unit =
  if not t.c_closed then begin
    t.c_closed <- true;
    Pool.shutdown t.c_pool
  end
