(** The shard cluster: a coordinator plus N independent pgdb backends,
    each owning a hash partition of the distributed tables and a full
    copy of every replicated table.

    The cluster plugs into the translation engine through
    {!Hyperq.Engine.sharder}: after the Xformer has optimized a
    statement, {!Router.route} classifies it, and shard-safe plans fan
    out over a fixed {!Pool} of OCaml domains — one wire gateway and
    pgdb session per shard, each pinned to one worker domain, while the
    coordinator runs a fan-out's last target itself, so no session is
    ever touched by two domains at once. {!Gather} reassembles the
    partial results. Everything the router cannot prove safe silently
    falls back to the coordinator's own backend, which holds all the
    data.

    The layout is fixed at {!create}: the translator sends the
    coordinator only reads and session temp tables, so no statement
    changes what the shards hold, and a table created later exists only
    on the coordinator, where the router leaves every statement that
    reads it. *)

module B = Hyperq.Backend
module M = Obs.Metrics

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
      (** bytes allocated per dispatch on the domain that ran it
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
  (* per-domain utilization, index = worker id, then the coordinator's
     own domain (label "coordinator", no idle time: it is not a pool
     domain); mirrored from the pool's cumulative counters by
     [refresh_saturation] *)
  c_domain_busy : M.gauge array;  (** hq_domain_busy_seconds{domain} *)
  c_domain_idle : M.gauge array;  (** hq_domain_idle_seconds{domain} *)
  c_domain_wait : M.gauge array;  (** hq_domain_queue_wait_seconds{domain} *)
  c_domain_jobs : M.gauge array;  (** hq_domain_jobs_total{domain} *)
  c_pruned : M.counter;  (** hq_shard_pruned_scatters_total *)
  mutable c_closed : bool;
  mutable c_analyze : bool;
      (** shard sessions collect per-operator stats (ANALYZE mode) *)
  mutable c_last_route : Router.route option;
      (** routing decision of the last statement offered to the sharder *)
  mutable c_last_shard_plans : (int * Pgdb.Opstats.node option) list;
      (** per-target operator trees of the last analyzed fan-out *)
  mutable c_last_gather_plan : Pgdb.Opstats.node option;
      (** operator tree of the last analyzed statement's coordinator
          gather, when it was sharded and its route has one *)
}

let shard_count t = Array.length t.c_shards
let map t = t.c_map

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

(* the rows of [c], an [nrows]-row distribution column, that each shard
   owns: one ascending selection per shard. A text key hashes each
   dictionary entry once. *)
let shard_selections (map : Shardmap.t) (c : Pgdb.Batch.column) (nrows : int)
    : Pgdb.Batch.sel array =
  let of_value = Shardmap.shard_of_value map in
  let owner =
    match c.Pgdb.Batch.data with
    | Pgdb.Batch.DStr { codes; dict } ->
        let by_code = Array.map (fun s -> of_value (Pgdb.Value.Str s)) dict in
        let null = of_value Pgdb.Value.Null in
        fun i -> if Pgdb.Batch.is_null c i then null else by_code.(codes.(i))
    | _ -> fun i -> of_value (Pgdb.Batch.value_at c i)
  in
  let sels = Array.make (Shardmap.shards map) [] in
  for i = nrows - 1 downto 0 do
    sels.(owner i) <- i :: sels.(owner i)
  done;
  Array.map Array.of_list sels

(** Partition [db]'s tables onto [shards] fresh pgdb backends, each made
    by [make_backend] over its session. The dispatch pool has
    [shards - 1] domains (at least one): the coordinator runs a
    fan-out's last target itself, and targets are ascending, so the last
    shard needs no worker of its own. *)
let create ?(distributions = default_distributions) ~shards
    ?(make_backend =
      fun ~shard_id:_ ~obs:_ session -> B.of_pgdb_session session)
    ?(obs = Obs.Ctx.create ()) (db : Pgdb.Db.t) : t =
  if shards < 1 then invalid_arg "Cluster.create: shards must be >= 1";
  (* a table with its declared distribution column is hash-partitioned
     on it; every other table, one whose declared column does not exist
     included, is replicated *)
  let tables =
    Hashtbl.fold
      (fun name tbl acc ->
        if name = "pg_catalog_columns" then acc
        else
          let dist =
            List.find_map
              (fun (t, col) ->
                if String.lowercase_ascii t <> name then None
                else
                  Option.map (fun ci -> (col, ci))
                    (Pgdb.Storage.column_index tbl col))
              distributions
          in
          (name, (tbl : Pgdb.Storage.table), dist) :: acc)
      db.Pgdb.Db.tables []
  in
  let map =
    Shardmap.create ~shards
      ~distributions:
        (List.filter_map
           (fun (name, _, dist) -> Option.map (fun (col, _) -> (name, col)) dist)
           tables)
      ~replicated:
        (List.filter_map
           (fun (name, _, dist) -> if dist = None then Some name else None)
           tables)
  in
  let shard_dbs = Array.init shards (fun _ -> Pgdb.Db.create ()) in
  List.iter
    (fun (_, (tbl : Pgdb.Storage.table), dist) ->
      let def = tbl.Pgdb.Storage.def in
      let (b : Pgdb.Batch.t) = tbl.Pgdb.Storage.batch in
      match dist with
      | Some (_, ci) ->
          let sels = shard_selections map b.cols.(ci) b.nrows in
          Array.iteri
            (fun s sdb ->
              Pgdb.Db.add_table sdb def
                (Pgdb.Batch.of_columns (Array.length sels.(s))
                   (Array.map (fun c -> Pgdb.Batch.compact c sels.(s)) b.cols)))
            shard_dbs
      | None ->
          (* the coordinator's batch is never written: every shard
             shares it *)
          Array.iter (fun sdb -> Pgdb.Db.add_table sdb def b) shard_dbs)
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
          ~help:"Bytes allocated per shard dispatch on the domain that ran it"
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
  (* the coordinator runs a fan-out's last (highest) target itself, so
     shard [shards - 1] needs no worker of its own *)
  let pool = Pool.create ~workers:(shards - 1) in
  let workers_g =
    M.gauge reg ~help:"Shard dispatch pool size" "hq_shard_pool_workers"
  in
  M.set workers_g (float_of_int (Pool.size pool));
  let domain_gauge name help k =
    let label =
      if k < Pool.size pool then string_of_int k else "coordinator"
    in
    M.gauge reg ~help ~labels:[ ("domain", label) ] name
  in
  let per_domain ?(n = Pool.size pool + 1) name help =
    Array.init n (domain_gauge name help)
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
        "Cumulative wall-time the domain spent executing dispatches";
    c_domain_idle =
      per_domain ~n:(Pool.size pool) "hq_domain_idle_seconds"
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
          "Scatters dispatched to a shard subset by distribution-key \
           constraints"
        "hq_shard_pruned_scatters_total";
    c_closed = false;
    c_analyze = false;
    c_last_route = None;
    c_last_shard_plans = [];
    c_last_gather_plan = None;
  }

(** Toggle ANALYZE collection on every shard session. Worker domains
    only touch their sessions inside [Pool.run], whose queue locks order
    these writes before any dispatch. *)
let set_analyze (t : t) (on : bool) : unit =
  t.c_analyze <- on;
  if not on then begin
    t.c_last_shard_plans <- [];
    t.c_last_gather_plan <- None
  end;
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

(** The coordinator's operator tree for the last statement the sharder
    saw, when it claimed it analyzed: the gather statement over the
    shards' partials. [None] for a route without one (single, concat)
    and for a statement left to the coordinator's own backend. *)
let last_gather_plan (t : t) : Pgdb.Opstats.node option =
  t.c_last_gather_plan

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
     counters, the workers' and then the coordinator's; a worker's idle
     time is everything else of the pool's lifetime *)
  let up = Pool.uptime_s t.c_pool in
  Array.iteri
    (fun k (ws : Pool.worker_stat) ->
      M.set t.c_domain_busy.(k) ws.Pool.ws_busy_s;
      if k < Array.length t.c_domain_idle then
        M.set t.c_domain_idle.(k) (Float.max 0.0 (up -. ws.Pool.ws_busy_s));
      M.set t.c_domain_wait.(k) ws.Pool.ws_wait_s;
      M.set t.c_domain_jobs.(k) (float_of_int ws.Pool.ws_jobs))
    (Array.append
       (Pool.worker_stats t.c_pool)
       [| Pool.caller_stats t.c_pool |])

(* send one statement to a shard's backend, on its pinned worker's
   domain or the coordinator's. Each dispatch is its own request for
   the shard backend, so it keeps only this statement. *)
let shard_exec (sh : shard) (sql : string) : (B.reply, string) result =
  Atomic.incr sh.s_statements;
  ignore (Atomic.fetch_and_add sh.s_sql_bytes (String.length sql));
  B.begin_request sh.s_backend;
  B.exec sh.s_backend sql

(* run [sql] on the given shards through the domain pool and collect
   row results in shard order. Shard i is pinned to worker i mod
   workers, except the last target, whose job the coordinator runs
   itself once the others are queued: a routed statement never leaves
   the coordinator's domain.

   Trace propagation: while the coordinator's query trace is open, each
   target gets a [shard_exec{shard=i}] child span, created HERE on the
   coordinator (which still solely owns the trace tree) and carried
   onto the domain that runs the job by planting a private
   {!Obs.Trace.attach} handle in the shard's own ctx — explicit context
   passing, no TLS.
   The shard gateway reads that ctx for its [traceparent] comment, so
   the SQL each shard logs carries the child span's id; the job closes
   the span and clears the handle before the pool's completion latch
   hands the tree back to the coordinator. *)
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
              Obs.Trace.set_span_attr sp "shard" (Obs.Relation.Int i);
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
                (* allocated_bytes is domain-local: this delta is the
                   running domain's allocation for this one dispatch *)
                let a0 = Obs.Runtime.allocated_bytes () in
                let r = shard_exec sh sql in
                let alloc = Obs.Runtime.allocated_bytes () -. a0 in
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

(* reassembly gets its own span so the exported tree separates shard
   time from coordinator gather time; a single-shard result needs none *)
let gathering (t : t) (plan : Router.plan) (f : unit -> 'a) : 'a =
  match (plan, t.c_obs.Obs.Ctx.trace) with
  | Router.Single _, _ | _, None -> f ()
  | _, Some tr -> Obs.Trace.with_span tr "gather" f

(* Shard relations are serialized directly — they are already optimized
   subtrees of the coordinator's plan, so re-running the Xformer (which
   would re-inject root ordering) is neither needed nor wanted. *)
let execute (t : t) (plan : Router.plan) ~(targets : int list) :
    (B.result, string) result =
  (match t.c_obs.Obs.Ctx.trace with
  | Some tr ->
      Obs.Trace.add_attr tr "shard_route"
        (Obs.Relation.Str (Router.plan_kind plan))
  | None -> ());
  try
    Result.map
      (fun rs ->
        gathering t plan (fun () ->
            let r, tree = Gather.gather ~collect:t.c_analyze plan rs in
            t.c_last_gather_plan <- tree;
            r))
      (fan_out t ~targets
         (Hyperq.Serializer.serialize_to_sql (Router.shard_rel plan)))
  with e -> Error (Pgdb.Errors.to_string e)

(** The engine hook: route each optimized tree, claiming shard-safe
    statements and declining the rest (the engine then runs its normal
    single-backend path). *)
let sharder (t : t) : Hyperq.Engine.sharder =
  let log = t.c_obs.Obs.Ctx.log in
  fun rel ->
    if t.c_closed then None
    else
      let route = Router.route t.c_map rel in
      t.c_last_route <- Some route;
      t.c_last_gather_plan <- None;
      match route with
      | Router.Coordinator reason ->
          M.inc t.c_coordinated;
          if Obs.Log.enabled log Obs.Log.Debug then
            Obs.Log.debug log "shard route: coordinator"
              [ ("reason", Obs.Relation.Str reason) ];
          None
      | Router.Run (plan, targets) ->
          (match plan with
          | Router.Single _ -> M.inc t.c_routed
          | Router.Concat _ | Router.Merge _ | Router.PartialAgg _ ->
              M.inc t.c_scattered;
              if List.length targets < Array.length t.c_shards then
                M.inc t.c_pruned);
          Some (fun () -> execute t plan ~targets)

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
               | Some tbl -> acc + Pgdb.Storage.row_count tbl
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

(** The first [n] (default: all) shards' layout and traffic as the
    relation behind [.hq.shards] and [GET /shards.json]; [None] is an
    unsharded platform. *)
let relation ?n (t : t option) : Obs.Relation.t =
  let doc, infos =
    match t with
    | None -> ([ ("sharded", Obs.Relation.Bool false) ], [])
    | Some t ->
        ([ ("sharded", Obs.Relation.Bool true) ],
          shards_info t )
  in
  Obs.Relation.(
    make ~fields:doc ?n
      [
        int "shard" (fun s -> s.si_id);
        json "tables" (fun s -> arr (List.map (fun n -> Str n) s.si_tables));
        int "rows" (fun s -> s.si_rows);
        int "statements" (fun s -> s.si_statements);
        int "bytes" (fun s -> s.si_bytes);
      ]
      infos)

(** Stop the worker domains. The shard databases stay readable (they are
    plain in-process structures); only the dispatch pool goes away. *)
let shutdown (t : t) : unit =
  if not t.c_closed then begin
    t.c_closed <- true;
    Pool.shutdown t.c_pool
  end
