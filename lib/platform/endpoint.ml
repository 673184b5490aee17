(** The Endpoint: Hyper-Q's kdb+-specific plugin (paper Figure 1,
    Section 3.1).

    A byte-level QIPC server: Hyper-Q "takes over" the kdb+ port, so Q
    applications connect to it unchanged. The endpoint performs the QIPC
    handshake, extracts query text from incoming messages, hands it to the
    cross compiler, and packs results (or errors) back into QIPC response
    messages.

    The endpoint is also the proxy's observability boundary: it counts
    QIPC traffic and queries into the shared metrics registry, opens the
    per-query trace span the engine nests its pipeline stages under,
    emits one JSONL event per completed query, fingerprints every query
    into the per-shape statistics store, offers it to the slow-query
    flight recorder, and answers the in-band admin queries directly, so
    any QIPC client can introspect the proxy without touching the
    backend: [.hq.<plane>] and [.hq.<plane>[n]] for every plane in
    {!Planes.all}, [.hq.explain <query>] (analyze one query) and
    [.hq.stats.reset] (zero every plane). *)

module QV = Qvalue.Value
module M = Obs.Metrics

type phase = Handshake | Connected | Closed

(* the endpoint's slice of the metrics registry; get-or-create semantics
   in Obs.Metrics make this shareable across connections *)
type metrics = {
  queries_total : M.counter;
  admin_queries_total : M.counter;
  query_errors_total : M.counter;
  auth_failures_total : M.counter;
  qipc_bytes_in : M.counter;
  qipc_bytes_out : M.counter;
  query_seconds : M.histogram;
}

let make_metrics (reg : M.t) : metrics =
  {
    queries_total =
      M.counter reg ~help:"Q queries processed (admin queries excluded)"
        "hq_queries_total";
    admin_queries_total =
      M.counter reg ~help:"In-band .hq.* admin queries answered"
        "hq_admin_queries_total";
    query_errors_total =
      M.counter reg ~help:"Q queries that returned an error"
        "hq_query_errors_total";
    auth_failures_total =
      M.counter reg
        ~help:"QIPC handshakes rejected (bad credentials or malformed reply)"
        "hq_auth_failures_total";
    qipc_bytes_in =
      M.counter reg ~help:"QIPC bytes received from Q clients"
        "hq_qipc_bytes_in";
    qipc_bytes_out =
      M.counter reg ~help:"QIPC bytes sent to Q clients" "hq_qipc_bytes_out";
    query_seconds =
      M.histogram reg ~help:"End-to-end query latency at the endpoint (seconds)"
        "hq_query_seconds";
  }

(** The platform's ANALYZE plumbing, injected so the endpoint can flip
    operator-stats collection on the coordinator session and the shard
    cluster without depending on either directly. [eh_sample] is the
    tail-sampling decision ([--analyze-sample N]): true means "collect
    stats for this ordinary query too". *)
type explain_hooks = {
  eh_set_analyze : bool -> unit;
      (** toggle collection on the backend session and every shard *)
  eh_plan : unit -> Pgdb.Opstats.node option;
      (** coordinator-side operator tree of the last analyzed query *)
  eh_route : unit -> Shard.Router.explain option;
      (** route explanation of the last routed statement *)
  eh_shard_plans : unit -> (int * Pgdb.Opstats.node option) list;
      (** per-shard operator trees of the last analyzed fan-out *)
  eh_sample : unit -> bool;  (** tail-sampling decision for this query *)
}

type t = {
  xc : Xc.t;
  users : (string * string) list;
  obs : Obs.Ctx.t;
  m : metrics;
  session : Obs.Sessions.session;  (** this connection's registry entry *)
  cluster : Shard.Cluster.t option;
      (** supplied by a sharded platform; answers [.hq.shards] *)
  explain : explain_hooks option;
      (** supplied by the platform; powers [.hq.explain] and sampling *)
  mutable phase : phase;
  pending : Buffer.t;  (** received bytes not yet consumed *)
  mutable frame_total : int;
      (** length of the frame at the start of [pending] once its header
          is in, -1 before *)
  mutable client_version : int;
}

let create ?(users = [ ("trader", "pwd") ]) ?obs ?cluster ?explain
    (xc : Xc.t) : t =
  let obs = match obs with Some o -> o | None -> Obs.Ctx.create () in
  {
    xc;
    users;
    obs;
    m = make_metrics obs.Obs.Ctx.registry;
    session = Obs.Sessions.register obs.Obs.Ctx.sessions;
    cluster;
    explain;
    phase = Handshake;
    pending = Buffer.create 256;
    frame_total = -1;
    client_version = 3;
  }

(** Tear down the connection's session-registry entry. Idempotent; the
    platform calls this on disconnect so [.hq.activity] only lists live
    connections. *)
let close (t : t) : unit =
  (match Obs.Sessions.find t.obs.Obs.Ctx.sessions t.session.Obs.Sessions.s_conn with
  | Some _ ->
      Obs.Log.info t.obs.Obs.Ctx.log
        ~conn_id:t.session.Obs.Sessions.s_conn "connection closed"
        [ ("queries", Obs.Events.Int t.session.Obs.Sessions.s_queries) ];
      Obs.Sessions.unregister t.obs.Obs.Ctx.sessions t.session
  | None -> ());
  t.phase <- Closed

let authenticate t (h : Qipc.Codec.handshake) : bool =
  match List.assoc_opt h.Qipc.Codec.user t.users with
  | Some expected -> expected = h.Qipc.Codec.password
  | None -> false

(* ------------------------------------------------------------------ *)
(* EXPLAIN/ANALYZE assembly                                            *)
(* ------------------------------------------------------------------ *)

module Op = Pgdb.Opstats

(* [.hq.explain q"select ..."] and [.hq.explain select ...] both work;
   the q"" wrapper mirrors how Q programs pass query strings around. *)
let strip_q_wrapper (s : string) : string =
  let s = String.trim s in
  let n = String.length s in
  if n >= 3 && s.[0] = 'q' && s.[1] = '"' && s.[n - 1] = '"' then
    String.sub s 2 (n - 3)
  else s

(* every operator tree attached to the analyzed query: the coordinator's
   (unsharded / fallback execution) and one per shard that ran *)
let explain_trees (coord : Op.node option)
    (shard_plans : (int * Op.node option) list) : Op.node list =
  (match coord with Some n -> [ n ] | None -> [])
  @ List.filter_map snd shard_plans

(** The analyzed plan as a flat relation — the reply to
    [.hq.explain <query>]. One row per operator, pre-order; [shard] is
    [-1] for coordinator-side operators. *)
let operators (coord : Op.node option)
    (shard_plans : (int * Op.node option) list) : Obs.Relation.t =
  let flat k = function
    | Some n -> List.map (fun (d, m) -> (k, d, m)) (Op.flatten n)
    | None -> []
  in
  Obs.Relation.(
    make
      [
        int "shard" (fun (k, _, _) -> k);
        int "depth" (fun (_, d, _) -> d);
        str "op" (fun (_, _, m) -> m.Op.op);
        str "detail" (fun (_, _, m) -> m.Op.detail);
        int "est_rows" (fun (_, _, m) -> m.Op.est_rows);
        int "rows_in" (fun (_, _, m) -> m.Op.rows_in);
        int "rows_out" (fun (_, _, m) -> m.Op.rows_out);
        float "self_ms" (fun (_, _, m) -> Op.ms_of_ns m.Op.self_ns);
      ]
      (flat (-1) coord
      @ List.concat_map (fun (k, p) -> flat k p) shard_plans))

(* the one JSON document describing an analyzed query end to end: query,
   route explanation, pipeline annotation, coordinator tree, shard trees *)
let explain_doc ~(query : string) ~(fingerprint : string)
    ~(route : Shard.Router.explain option) ~(cache : string)
    ~(sharded : bool) ~(statements : int) ~(coord : Op.node option)
    ~(shard_plans : (int * Op.node option) list) : string =
  let open Obs.Relation in
  let shard (k, p) =
    Option.map
      (fun n -> Json (obj [ ("shard", Int k); ("plan", Json (Op.to_json n)) ]))
      p
  in
  obj
    [
      ("query", Str query);
      ("fingerprint", Str fingerprint);
      ( "route",
        Json (Option.fold ~none:"" ~some:Shard.Router.explain_json route) );
      ( "pipeline",
        Json
          (obj
             [
               ("cache", Str cache);
               ("sharded", Bool sharded);
               ("statements", Int statements);
             ]) );
      ("plan", Json (Option.fold ~none:"" ~some:Op.to_json coord));
      ("shards", Json (arr (List.filter_map shard shard_plans)));
    ]

type explain_summary = {
  xs_doc : string;  (** the unified JSON document (ring entry, recorder) *)
  xs_top_operator : string;
}

(** Assemble the unified explain document for one analyzed query, offer
    it to the explain ring, and return what the caller feeds into the
    recorder. *)
let offer_explain (t : t) ~(norm : string) ~(fp : string)
    ~(trace_id : string) ~(duration : float)
    ~(route : Shard.Router.explain option) ~(coord : Op.node option)
    ~(shard_plans : (int * Op.node option) list) : explain_summary =
  let cache, sharded, statements =
    match Hyperq.Engine.last_note (Xc.engine t.xc) with
    | Some n ->
        ( n.Hyperq.Engine.pn_cache,
          n.Hyperq.Engine.pn_sharded,
          n.Hyperq.Engine.pn_statements )
    | None -> ("off", false, 0)
  in
  let trees = explain_trees coord shard_plans in
  let rows_scanned =
    List.fold_left (fun acc n -> acc + Op.rows_scanned n) 0 trees
  in
  (* rows leaving the plan: the coordinator root when it executed, else
     the pre-merge sum of the shard roots *)
  let rows_out =
    match coord with
    | Some n -> n.Op.rows_out
    | None -> List.fold_left (fun acc n -> acc + n.Op.rows_out) 0 trees
  in
  let top_operator =
    match
      List.fold_left
        (fun best n ->
          let c = Op.top_operator n in
          match best with
          | Some b when b.Op.self_ns >= c.Op.self_ns -> best
          | _ -> Some c)
        None trees
    with
    | Some n -> if n.Op.detail = "" then n.Op.op else n.Op.op ^ "(" ^ n.Op.detail ^ ")"
    | None -> ""
  in
  let worst_qerror =
    List.fold_left
      (fun bq n -> Float.max bq (snd (Op.worst_estimate n)))
      0.0 trees
  in
  let doc =
    explain_doc ~query:norm ~fingerprint:fp ~route ~cache ~sharded
      ~statements ~coord ~shard_plans
  in
  Obs.Explain.offer t.obs.Obs.Ctx.explain
    {
      Obs.Explain.p_ts = Unix.gettimeofday ();
      p_trace_id = trace_id;
      p_fingerprint = fp;
      p_query = norm;
      p_duration_s = duration;
      p_route =
        (match route with
        | Some x -> x.Shard.Router.x_class
        | None -> "coordinator");
      p_cache = cache;
      p_shards = List.length (List.filter_map snd shard_plans);
      p_rows_scanned = rows_scanned;
      p_rows_out = rows_out;
      p_top_operator = top_operator;
      p_worst_qerror = worst_qerror;
      p_tree = doc;
    };
  { xs_doc = doc; xs_top_operator = top_operator }

(** Answer [.hq.explain <query>]: run the query with operator-stats
    collection on, and reply with the flattened coordinator→shard
    operator table. The assembled JSON document also lands in the
    explain ring ([GET /explain.json]). Errors come back as an error
    atom, like any failed query would. *)
let explain_reply (t : t) (rest : string) : QV.t =
  match t.explain with
  | None ->
      QV.Atom
        (Qvalue.Atom.Sym ".hq.explain requires a platform connection")
  | Some eh -> (
      let qtext = strip_q_wrapper rest in
      if qtext = "" then
        QV.Atom (Qvalue.Atom.Sym "usage: .hq.explain <query>")
      else begin
        eh.eh_set_analyze true;
        let start = Obs.Clock.now_ns () in
        let tr = Obs.Ctx.start_trace t.obs "explain" in
        let trace_id = Obs.Trace.trace_id tr in
        let result =
          match Xc.process t.xc qtext with
          | r -> r
          | exception e ->
              ignore (Obs.Ctx.finish_trace t.obs tr);
              eh.eh_set_analyze false;
              raise e
        in
        let duration = Obs.Clock.seconds_since start in
        ignore (Obs.Ctx.finish_trace t.obs tr);
        let coord = eh.eh_plan () in
        let route = eh.eh_route () in
        let shard_plans = eh.eh_shard_plans () in
        eh.eh_set_analyze false;
        match result with
        | Error e -> QV.Atom (Qvalue.Atom.Sym ("explain failed: " ^ e))
        | Ok _ ->
            let norm = Qlang.Fingerprint.normalize qtext in
            let fp = Qlang.Fingerprint.of_normalized norm in
            ignore
              (offer_explain t ~norm ~fp ~trace_id ~duration ~route
                 ~coord ~shard_plans);
            Planes.to_q (operators coord shard_plans)
      end)

(* ------------------------------------------------------------------ *)
(* In-band admin queries                                               *)
(* ------------------------------------------------------------------ *)

(* the bytes String.trim drops *)
let is_blank = function ' ' | '\t' | '\r' | '\n' | '\012' -> true | _ -> false

(* the rest of an admin query after its name: [""], ["[]"] or ["[n]"] *)
let row_limit (rest : string) : int option option =
  match String.trim rest with
  | "" | "[]" -> Some None
  | r when r.[0] = '[' && r.[String.length r - 1] = ']' -> (
      let inner = String.sub r 1 (String.length r - 2) in
      match int_of_string_opt (String.trim inner) with
      | Some n when n >= 0 -> Some (Some n)
      | _ -> None)
  | _ -> None

let planes_ctx (t : t) : Planes.ctx =
  {
    Planes.obs = t.obs;
    plancache = Hyperq.Engine.plan_cache (Xc.engine t.xc);
    cluster = t.cluster;
  }

(* an admin query, trimmed: [.hq.<plane>], [.hq.<plane>[n]],
   [.hq.explain <query>] or [.hq.stats.reset] *)
let admin_command (t : t) (text : string) : QV.t option =
  (* count the admin query before building the reply so a .hq.stats
     snapshot includes itself *)
  let answered mk =
    M.inc t.m.admin_queries_total;
    Some (mk ())
  in
  let len = String.length text in
  let stop = ref 4 in
  while !stop < len && text.[!stop] <> '[' && not (is_blank text.[!stop]) do
    incr stop
  done;
  let name = String.sub text 4 (!stop - 4) in
  let rest = String.sub text !stop (len - !stop) in
  match name with
  | "stats.reset" when rest = "" ->
      Planes.reset t.obs;
      answered (fun () -> QV.Atom (Qvalue.Atom.Sym "reset"))
  | "explain" when rest <> "" && is_blank rest.[0] ->
      answered (fun () -> explain_reply t rest)
  | _ -> (
      match (Planes.find name, row_limit rest) with
      | Some p, Some n -> answered (fun () -> Planes.q_reply (planes_ctx t) p n)
      | _ -> None)

(** The in-band admin reply to [text], or [None] for an ordinary query.
    Anything not starting with [.hq.] costs one prefix check and
    allocates nothing. *)
let admin_reply (t : t) (text : string) : QV.t option =
  let len = String.length text in
  let i = ref 0 in
  while !i < len && is_blank (String.unsafe_get text !i) do
    incr i
  done;
  let i = !i in
  if
    len - i >= 4
    && text.[i] = '.'
    && text.[i + 1] = 'h'
    && text.[i + 2] = 'q'
    && text.[i + 3] = '.'
  then admin_command t (String.trim text)
  else None

(* ------------------------------------------------------------------ *)
(* Per-query observability                                             *)
(* ------------------------------------------------------------------ *)

let rows_of_value : QV.t -> int = function
  | QV.Table tb -> QV.table_length tb
  | QV.KTable (_, vt) -> QV.table_length vt
  | QV.Vector (_, atoms) -> Array.length atoms
  | QV.List vs -> Array.length vs
  | QV.Atom _ | QV.Dict _ -> 1

(* error strings arrive categorised as "[category] message" (Section 5) *)
let error_class (e : string) : string =
  if String.length e > 2 && e.[0] = '[' then
    match String.index_opt e ']' with
    | Some i -> String.sub e 1 (i - 1)
    | None -> "other"
  else "other"

let backend (t : t) : Hyperq.Backend.t =
  (Hyperq.Engine.mdi (Xc.engine t.xc)).Hyperq.Mdi.backend

let sql_statement_count (t : t) : int = Hyperq.Backend.log_mark (backend t)

(** One processed query with the observability the endpoint captured
    around it: the coordinator-domain allocation and minor-GC deltas are
    this domain's only — shard-side allocation lands on the shard
    counters instead (a scattered query touches several domains). *)
type processed = {
  pr_result : (QV.t option, string) result;
  pr_root : Obs.Trace.span;
  pr_duration : float;
  pr_trace_id : string;
  pr_alloc_bytes : float;
  pr_minor_gcs : int;
}

(** Run one query through the cross compiler under a fresh trace span,
    record metrics, and emit the JSONL event. *)
let traced_process (t : t) (text : string) ~(bytes_in : int) : processed =
  M.inc t.m.queries_total;
  let start = Obs.Clock.now_ns () in
  let a0 = Gc.allocated_bytes () in
  let g0 = Obs.Runtime.minor_collections () in
  let tr = Obs.Ctx.start_trace t.obs "query" in
  let trace_id = Obs.Trace.trace_id tr in
  (* stamp the session entry so .hq.activity correlates with the trace
     while the query is still running *)
  Obs.Sessions.set_trace t.session trace_id;
  Obs.Trace.add_root_attr tr "query_sha"
    (Obs.Trace.Str (Obs.Events.query_sha text));
  let result =
    match Xc.process t.xc text with
    | r -> r
    | exception e ->
        (* never leave a half-open trace behind *)
        ignore (Obs.Ctx.finish_trace t.obs tr);
        raise e
  in
  let duration = Obs.Clock.seconds_since start in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  let minor_gcs = Obs.Runtime.minor_collections () - g0 in
  M.observe t.m.query_seconds duration;
  (* in-band pacing: the ring keeps filling under load even when no
     sampler thread runs (tick is a clock read when the interval has
     not elapsed) *)
  ignore (Obs.Timeseries.tick t.obs.Obs.Ctx.timeseries);
  Obs.Trace.add_root_attr tr "qipc_bytes_in" (Obs.Trace.Int bytes_in);
  Obs.Trace.add_root_attr tr "alloc_bytes"
    (Obs.Trace.Int (int_of_float alloc_bytes));
  Obs.Trace.add_root_attr tr "minor_gcs" (Obs.Trace.Int minor_gcs);
  let root = Obs.Ctx.finish_trace t.obs tr in
  {
    pr_result = result;
    pr_root = root;
    pr_duration = duration;
    pr_trace_id = trace_id;
    pr_alloc_bytes = alloc_bytes;
    pr_minor_gcs = minor_gcs;
  }

let emit_query_event (t : t) ~(text : string) ~(sql_before : int)
    ~(result : (QV.t option, string) result) ~(duration : float)
    ~(bytes_in : int) ~(bytes_out : int) (root : Obs.Trace.span) : unit =
  let status, error_cls, rows =
    match result with
    | Ok v -> ("ok", "", match v with Some v -> rows_of_value v | None -> 0)
    | Error e -> ("error", error_class e, 0)
  in
  let open Obs.Events in
  emit t.obs.Obs.Ctx.events
    [
      ("ts", Float (Unix.gettimeofday ()));
      ("query_sha", Str (query_sha text));
      ("query_bytes", Int (String.length text));
      ("status", Str status);
      ("error_class", Str error_cls);
      ("duration_ms", Float (duration *. 1000.0));
      ( "stages_us",
        Obj
          (List.map
             (fun s ->
               ( Hyperq.Stage_timer.stage_name s,
                 Float
                   (Obs.Trace.total_s root (Hyperq.Stage_timer.stage_name s)
                   *. 1e6) ))
             Hyperq.Stage_timer.all_stages) );
      ("rows_out", Int rows);
      ("qipc_bytes_in", Int bytes_in);
      ("qipc_bytes_out", Int bytes_out);
      ("sql_statements", Int (sql_statement_count t - sql_before));
    ]

(** Fold the completed query into the per-fingerprint statistics store
    and offer it to the slow-query flight recorder (with the SQL it
    generated, its full span tree and its trace id). *)
let record_workload (t : t) ~(norm : string) ~(fp : string)
    ~(trace_id : string) ~(sql_before : int) ?(ops = "")
    ?(top_operator = "")
    ~(result : (QV.t option, string) result)
    ~(duration : float) ~(bytes_in : int) ~(bytes_out : int)
    ~(alloc_bytes : float) ~(minor_gcs : int) (root : Obs.Trace.span) : unit =
  let status, error =
    match result with Ok _ -> ("ok", "") | Error e -> ("error", e)
  in
  let rows =
    match result with Ok (Some v) -> rows_of_value v | Ok None | Error _ -> 0
  in
  let stages =
    List.map
      (fun s ->
        let name = Hyperq.Stage_timer.stage_name s in
        (name, Obs.Trace.total_s root name))
      Hyperq.Stage_timer.all_stages
  in
  Obs.Qstats.record t.obs.Obs.Ctx.qstats ~alloc_bytes ~minor_gcs
    ~fingerprint:fp ~query:norm
    ~duration_s:duration
    ~error_class:(match result with Ok _ -> None | Error e -> Some (error_class e))
    ~rows_out:rows ~bytes_in ~bytes_out ~stages ();
  let sql = Hyperq.Backend.sql_since (backend t) sql_before in
  ignore
    (Obs.Recorder.observe t.obs.Obs.Ctx.recorder ~ts:(Unix.gettimeofday ())
       ~trace_id ~ops ~top_operator ~fingerprint:fp ~query:norm
       ~duration_s:duration ~status ~error ~sql ~alloc_bytes ~minor_gcs root)

(* ------------------------------------------------------------------ *)
(* Byte-level protocol handling                                        *)
(* ------------------------------------------------------------------ *)

(* the reply to one decoded message of [consumed] bytes *)
let reply_to (t : t) (msg : Qipc.Codec.message) ~(consumed : int) : string =
  match msg.Qipc.Codec.body with
  | Qipc.Codec.Query text -> (
      match admin_reply t text with
      | Some v ->
          (* answered in-band, backend untouched *)
          Qipc.Codec.encode_message
            { mt = Qipc.Codec.Response; body = Qipc.Codec.Value v }
      | None ->
          let sql_before = sql_statement_count t in
          (* fingerprint once; the session registry, the
             statistics store and the recorder all key on
             the same normalization *)
          let norm = Qlang.Fingerprint.normalize text in
          let fp = Qlang.Fingerprint.of_normalized norm in
          Obs.Sessions.query_started t.session ~query:norm
            ~fingerprint:fp;
          (* opt-in tail sampling: every Nth query runs
             with operator-stats collection on and lands
             in the explain ring like an .hq.explain *)
          let sampled =
            match t.explain with
            | Some eh -> eh.eh_sample ()
            | None -> false
          in
          let captured = ref None in
          let pr =
            Fun.protect
              ~finally:(fun () ->
                (match t.explain with
                | Some eh when sampled ->
                    eh.eh_set_analyze false
                | _ -> ());
                Obs.Sessions.query_finished t.session)
              (fun () ->
                (match t.explain with
                | Some eh when sampled ->
                    eh.eh_set_analyze true
                | _ -> ());
                let r =
                  traced_process t text ~bytes_in:consumed
                in
                (* read the trees before ~finally clears
                   them with collection *)
                (match t.explain with
                | Some eh when sampled ->
                    captured :=
                      Some
                        ( eh.eh_plan (),
                          eh.eh_route (),
                          eh.eh_shard_plans () )
                | _ -> ());
                r)
          in
          let result = pr.pr_result in
          let root = pr.pr_root in
          let duration = pr.pr_duration in
          let trace_id = pr.pr_trace_id in
          let summary =
            match (!captured, result) with
            | Some (coord, route, shard_plans), Ok _ ->
                Some
                  (offer_explain t ~norm ~fp ~trace_id
                     ~duration ~route
                     ~coord ~shard_plans)
            | _ -> None
          in
          let reply =
            match result with
            | Ok (Some v) ->
                Qipc.Codec.encode_message
                  {
                    mt = Qipc.Codec.Response;
                    body = Qipc.Codec.Value v;
                  }
            | Ok None ->
                (* definitions return the identity-ish unit
                   value *)
                Qipc.Codec.encode_message
                  {
                    mt = Qipc.Codec.Response;
                    body = Qipc.Codec.Value (QV.List [||]);
                  }
            | Error e ->
                M.inc t.m.query_errors_total;
                Qipc.Codec.encode_message
                  {
                    mt = Qipc.Codec.Response;
                    body = Qipc.Codec.Error e;
                  }
          in
          Obs.Trace.set_span_attr root "qipc_bytes_out"
            (Obs.Trace.Int (String.length reply));
          emit_query_event t ~text ~sql_before ~result ~duration
            ~bytes_in:consumed ~bytes_out:(String.length reply)
            root;
          record_workload t ~norm ~fp ~trace_id ~sql_before
            ?ops:(Option.map (fun s -> s.xs_doc) summary)
            ?top_operator:
              (Option.map (fun s -> s.xs_top_operator) summary)
            ~result ~duration ~bytes_in:consumed
            ~bytes_out:(String.length reply)
            ~alloc_bytes:pr.pr_alloc_bytes
            ~minor_gcs:pr.pr_minor_gcs root;
          Obs.Log.info t.obs.Obs.Ctx.log ~trace_id
            ~conn_id:t.session.Obs.Sessions.s_conn
            "query completed"
            [
              ("fingerprint", Obs.Events.Str fp);
              ( "status",
                Obs.Events.Str
                  (match result with
                  | Ok _ -> "ok"
                  | Error _ -> "error") );
              ("duration_ms", Obs.Events.Float (duration *. 1e3));
            ];
          reply)
  | Qipc.Codec.Value _ | Qipc.Codec.Error _ ->
      Qipc.Codec.encode_message
        {
          mt = Qipc.Codec.Response;
          body = Qipc.Codec.Error "endpoint expects query messages";
        }

(* the longest handshake accepted: "user:password", a version byte and
   the NUL. A peer that sends more without a NUL is not a Q client. *)
let max_handshake_bytes = 4096

(* a log line and a closed connection, no reply (kdb+ just closes) *)
let refuse (t : t) (why : string) (fields : (string * Obs.Events.field) list) =
  Obs.Log.warn t.obs.Obs.Ctx.log ~conn_id:t.session.Obs.Sessions.s_conn why
    fields;
  t.phase <- Closed;
  Buffer.reset t.pending

(* decode and answer every whole frame in [t.pending]; keep the bytes of
   a frame still arriving. The header of that frame is read once, when
   its 8 bytes are in, so a frame that arrives a byte at a time costs no
   allocation per byte beyond the buffer's doubling. *)
let serve_frames (t : t) : string =
  let buf = t.pending in
  if Buffer.length buf < max 8 t.frame_total then "" (* still arriving *)
  else begin
    let out = ref [] in
    let malformed e =
      Obs.Log.warn t.obs.Obs.Ctx.log ~conn_id:t.session.Obs.Sessions.s_conn
        "malformed message"
        [ ("error", Obs.Events.Str e) ];
      out :=
        Qipc.Codec.encode_message
          {
            mt = Qipc.Codec.Response;
            body = Qipc.Codec.Error ("malformed message: " ^ e);
          }
        :: !out;
      t.phase <- Closed
    in
    (* serve the frame at [pos]; the offset of the first byte kept *)
    let rec next pos =
      let avail = Buffer.length buf - pos in
      (if t.frame_total < 0 && avail >= 8 then
         match Qipc.Codec.frame_length (Buffer.sub buf pos 8) 0 with
         | total -> t.frame_total <- total
         | exception Qipc.Codec.Decode_error e -> malformed e);
      let total = t.frame_total in
      if t.phase <> Connected || total < 0 || avail < total then pos
      else begin
        t.frame_total <- -1;
        match Qipc.Codec.decode_frame (Buffer.sub buf pos total) 0 with
        | exception Qipc.Codec.Decode_error e ->
            malformed e;
            pos
        | exception Qipc.Codec.Incomplete ->
            malformed "frame shorter than its header says";
            pos
        | msg, _ ->
            let reply = reply_to t msg ~consumed:total in
            (* async messages get no response *)
            if msg.Qipc.Codec.mt <> Qipc.Codec.Async then out := reply :: !out;
            next (pos + total)
      end
    in
    let pos = next 0 in
    if t.phase = Closed then Buffer.reset buf
    else if pos > 0 then begin
      (* the kept tail arrived in this call: the frame before it was
         completed by this call's bytes, so the copy is linear overall *)
      let rest = Buffer.sub buf pos (Buffer.length buf - pos) in
      Buffer.reset buf;
      Buffer.add_string buf rest
    end;
    String.concat "" (List.rev !out)
  end

(* the bytes up to the handshake's NUL: authenticate, then serve any
   frames that followed it in the same bytes *)
let handshake (t : t) ~(from : int) : string =
  let buf = t.pending in
  let n = Buffer.length buf in
  let rec nul i =
    if i >= n then None
    else if Buffer.nth buf i = '\000' then Some i
    else nul (i + 1)
  in
  match nul from with
  | None when n < max_handshake_bytes -> "" (* wait for more bytes *)
  | Some z when z < max_handshake_bytes -> (
      let hello = Buffer.sub buf 0 (z + 1) in
      let rest = Buffer.sub buf (z + 1) (n - z - 1) in
      Buffer.reset buf;
      Buffer.add_string buf rest;
      match Qipc.Codec.decode_handshake hello with
      | exception Qipc.Codec.Decode_error e ->
          refuse t "handshake rejected" [ ("error", Obs.Events.Str e) ];
          ""
      | h when authenticate t h ->
          t.phase <- Connected;
          t.client_version <- min h.Qipc.Codec.version 3;
          Obs.Sessions.set_user t.session h.Qipc.Codec.user;
          Obs.Log.info t.obs.Obs.Ctx.log
            ~conn_id:t.session.Obs.Sessions.s_conn "connection accepted"
            [
              ("user", Obs.Events.Str h.Qipc.Codec.user);
              ("qipc_version", Obs.Events.Int t.client_version);
            ];
          Qipc.Codec.handshake_accept ~version:t.client_version
          ^ serve_frames t
      | h ->
          M.inc t.m.auth_failures_total;
          refuse t "handshake rejected"
            [ ("user", Obs.Events.Str h.Qipc.Codec.user) ];
          "")
  | _ ->
      refuse t "handshake too long"
        [
          ("bytes", Obs.Events.Int n);
          ("limit", Obs.Events.Int max_handshake_bytes);
        ];
      ""

(** Feed client bytes in; returns the bytes to send back. An authentication
    failure, or a handshake longer than {!max_handshake_bytes} without its
    NUL, closes the connection with no reply (kdb+ behaviour: the server
    just closes). A malformed message frame gets one QIPC error reply and
    closes the connection; an incomplete one waits for the next [feed].
    Bytes after the handshake's NUL are served as frames at once. *)
let feed (t : t) (bytes : string) : string =
  M.add t.m.qipc_bytes_in (String.length bytes);
  let reply_bytes =
    match t.phase with
    | Closed -> ""
    | Handshake ->
        let from = Buffer.length t.pending in
        Buffer.add_string t.pending bytes;
        handshake t ~from
    | Connected ->
        Buffer.add_string t.pending bytes;
        serve_frames t
  in
  M.add t.m.qipc_bytes_out (String.length reply_bytes);
  reply_bytes

let is_closed t = t.phase = Closed

(** The observability context this endpoint records into. *)
let obs (t : t) = t.obs
