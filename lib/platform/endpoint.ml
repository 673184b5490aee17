(** The Endpoint: Hyper-Q's kdb+-specific plugin (paper Figure 1,
    Section 3.1).

    A byte-level QIPC server: Hyper-Q "takes over" the kdb+ port, so Q
    applications connect to it unchanged. The endpoint performs the QIPC
    handshake, extracts query text from incoming messages, hands it to the
    cross compiler, and packs results (or errors) back into QIPC response
    messages.

    The endpoint is also the proxy's observability boundary. It counts
    QIPC traffic and queries into the shared metrics registry and opens
    the per-query trace span the engine nests its pipeline stages under.
    When a query's reply is encoded it builds the query's one record
    ({!Obs.Query.t}: trace id, fingerprint, wall-clock [ts], duration,
    result, rows, bytes, allocation, stage totals, SQL, span tree and,
    when ANALYZE ran, the operator trees) and hands it to
    {!Obs.Ctx.record_query}, which feeds the per-shape statistics store,
    the slow-query flight recorder, the explain ring, the JSONL event and
    the "query completed" log line from that one value. It also answers
    the in-band admin queries directly, so any QIPC client can introspect
    the proxy without touching the backend: [.hq.<plane>] and
    [.hq.<plane>[n]] for every plane in {!Planes.all},
    [.hq.explain <query>] (analyze one query) and [.hq.stats.reset]
    (zero every plane). *)

module QV = Qvalue.Value
module M = Obs.Metrics
module F = Qlang.Fingerprint

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
  planes : Planes.ctx;
      (** supplied by the platform; answers [.hq.<plane>] *)
  explain : explain_hooks option;
      (** supplied by the platform; powers [.hq.explain] and sampling *)
  mutable phase : phase;
  pending : Buffer.t;  (** received bytes not yet consumed *)
  mutable frame_total : int;
      (** length of the frame at the start of [pending] once its header
          is in, -1 before *)
  mutable client_version : int;
}

let create ?(users = [ ("trader", "pwd") ]) ~(planes : Planes.ctx) ?explain
    (xc : Xc.t) : t =
  let obs = planes.Planes.obs in
  {
    xc;
    users;
    obs;
    m = make_metrics obs.Obs.Ctx.registry;
    session = Obs.Sessions.register obs.Obs.Ctx.sessions;
    planes;
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
        [ ("queries", Obs.Relation.Int t.session.Obs.Sessions.s_queries) ];
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

(* the operator trees an analyzed query leaves behind: the coordinator's,
   the route explanation and one per shard *)
type trees =
  Op.node option * Shard.Router.explain option * (int * Op.node option) list

(** The analysis one ANALYZE run adds to its query record: the unified
    explain document and its headline numbers. *)
let analysis (t : t) (an : F.analysis) ((coord, route, shard_plans) : trees) :
    Obs.Query.analysis =
  let cache, sharded, statements =
    match Hyperq.Engine.last_note (Xc.engine t.xc) with
    | Some n ->
        ( n.Hyperq.Engine.pn_cache,
          n.Hyperq.Engine.pn_sharded,
          n.Hyperq.Engine.pn_statements )
    | None -> ("off", false, 0)
  in
  let trees = explain_trees coord shard_plans in
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
  {
    Obs.Query.doc =
      explain_doc ~query:an.F.a_norm ~fingerprint:an.F.a_fingerprint ~route
        ~cache ~sharded ~statements ~coord ~shard_plans;
    top_operator;
    route =
      (match route with
      | Some x -> x.Shard.Router.x_class
      | None -> "coordinator");
    cache;
    shards = List.length (List.filter_map snd shard_plans);
    rows_scanned = List.fold_left (fun acc n -> acc + Op.rows_scanned n) 0 trees;
    plan_rows_out =
      (match coord with
      | Some n -> n.Op.rows_out
      | None -> List.fold_left (fun acc n -> acc + n.Op.rows_out) 0 trees);
    worst_qerror =
      List.fold_left
        (fun bq n -> Float.max bq (snd (Op.worst_estimate n)))
        0.0 trees;
  }

(* ------------------------------------------------------------------ *)
(* The query record                                                    *)
(* ------------------------------------------------------------------ *)

let rows_of_value : QV.t -> int = function
  | QV.Table tb -> QV.table_length tb
  | QV.KTable (_, vt) -> QV.table_length vt
  | (QV.Vector _ | QV.List _) as v -> QV.length v
  | QV.Atom _ | QV.Dict _ -> 1

let backend (t : t) : Hyperq.Backend.t =
  (Hyperq.Engine.mdi (Xc.engine t.xc)).Hyperq.Mdi.backend

let sql_statement_count (t : t) : int = Hyperq.Backend.log_mark (backend t)

let stage_names =
  List.map Hyperq.Stage_timer.stage_name Hyperq.Stage_timer.all_stages

(** Run the analyzed query [an] through the cross compiler under a fresh
    [name] trace and build its query record. With [analyze],
    operator-stats collection is on for the run. [answer] turns the
    result and the operator trees the run left (all empty without
    [analyze]) into the reply and its size on the wire; the record is
    built after it, so it knows [bytes_out]. The clocks, the allocation
    and minor-GC counters, the stage walk and the query digest are each
    read once here, for every plane. *)
let run (t : t) ~(name : string) ~(analyze : bool) ~(bytes_in : int)
    (an : F.analysis)
    (answer : (QV.t option, string) result -> trees -> 'a * int) :
    'a * Obs.Query.t =
  let eh = if analyze then t.explain else None in
  let collect on = Option.iter (fun eh -> eh.eh_set_analyze on) eh in
  let sql_before = sql_statement_count t in
  let start = Obs.Clock.now_ns () in
  let a0 = Obs.Runtime.allocated_bytes () in
  let g0 = Obs.Runtime.minor_collections () in
  let tr = Obs.Ctx.start_trace t.obs name in
  let trace_id = Obs.Trace.trace_id tr in
  (* stamp the session entry so .hq.activity correlates with the trace
     while the query is still running *)
  Obs.Sessions.set_trace t.session trace_id;
  let query_sha = Obs.Events.query_sha an.F.a_src in
  Obs.Trace.add_root_attr tr "query_sha" (Obs.Relation.Str query_sha);
  collect true;
  let result =
    match Xc.process t.xc an with
    | r -> r
    | exception e ->
        (* never leave a half-open trace or collection behind *)
        ignore (Obs.Ctx.finish_trace t.obs tr);
        collect false;
        raise e
  in
  let duration_s = Obs.Clock.seconds_since start in
  let alloc_bytes = Obs.Runtime.allocated_bytes () -. a0 in
  let minor_gcs = Obs.Runtime.minor_collections () - g0 in
  let ts = Unix.gettimeofday () in
  Obs.Trace.add_root_attr tr "qipc_bytes_in" (Obs.Relation.Int bytes_in);
  Obs.Trace.add_root_attr tr "alloc_bytes"
    (Obs.Relation.Int (int_of_float alloc_bytes));
  Obs.Trace.add_root_attr tr "minor_gcs" (Obs.Relation.Int minor_gcs);
  let root = Obs.Ctx.finish_trace ~ts t.obs tr in
  (* read the trees before switching collection off clears them *)
  let trees =
    match eh with
    | Some eh -> (eh.eh_plan (), eh.eh_route (), eh.eh_shard_plans ())
    | None -> (None, None, [])
  in
  collect false;
  let reply, bytes_out = answer result trees in
  Obs.Trace.set_span_attr root "qipc_bytes_out" (Obs.Relation.Int bytes_out);
  ( reply,
    {
      Obs.Query.ts;
      trace_id;
      fingerprint = an.F.a_fingerprint;
      query = an.F.a_norm;
      query_sha;
      query_bytes = String.length an.F.a_src;
      duration_s;
      error =
        (match result with
        | Ok _ -> None
        | Error e -> Some (Obs.Query.categorise e));
      rows_out =
        (match result with Ok (Some v) -> rows_of_value v | _ -> 0);
      bytes_in;
      bytes_out;
      alloc_bytes;
      minor_gcs;
      stages = Obs.Trace.totals root stage_names;
      sql = Hyperq.Backend.sql_since (backend t) sql_before;
      sql_statements = sql_statement_count t - sql_before;
      span = root;
      analysis =
        (match (result, eh) with
        | Ok _, Some _ -> Some (analysis t an trees)
        | _ -> None);
    } )

(** Answer [.hq.explain <query>]: run the query with operator-stats
    collection on, and reply with the flattened coordinator→shard
    operator table. The query's record, with its analysis, also lands
    in the explain ring ([GET /explain.json]); no other plane sees it.
    Errors come back as an error atom, like any failed query would. *)
let explain_reply (t : t) (rest : string) : QV.t =
  let qtext = strip_q_wrapper rest in
  if Option.is_none t.explain then
    QV.Atom (Qvalue.Atom.Sym ".hq.explain requires a platform connection")
  else if qtext = "" then QV.Atom (Qvalue.Atom.Sym "usage: .hq.explain <query>")
  else begin
    let table, q =
      run t ~name:"explain" ~analyze:true ~bytes_in:0 (F.analyze qtext)
        (fun result (coord, _, shard_plans) ->
          match result with
          | Error e -> (QV.Atom (Qvalue.Atom.Sym ("explain failed: " ^ e)), 0)
          | Ok _ -> (Planes.to_q (operators coord shard_plans), 0))
    in
    Obs.Explain.offer t.obs.Obs.Ctx.explain q;
    table
  end

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
      | Some p, Some n -> answered (fun () -> Planes.q_reply t.planes p n)
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
(* Byte-level protocol handling                                        *)
(* ------------------------------------------------------------------ *)

(* the encoded reply to a processed query; definitions (no value) answer
   the empty list *)
let encode_result (t : t) (result : (QV.t option, string) result) : string =
  let body =
    match result with
    | Ok (Some v) -> Qipc.Codec.Value v
    | Ok None -> Qipc.Codec.Value (QV.List [||])
    | Error e ->
        M.inc t.m.query_errors_total;
        Qipc.Codec.Error e
  in
  Qipc.Codec.encode_message { mt = Qipc.Codec.Response; body }

(* answer one ordinary query and hand its record to every plane *)
let query_reply (t : t) (text : string) ~(bytes_in : int) : string =
  M.inc t.m.queries_total;
  (* lex once: the session registry and the record key on this
     analysis, and the engine parses its tokens *)
  let an = F.analyze text in
  Obs.Sessions.query_started t.session ~query:an.F.a_norm
    ~fingerprint:an.F.a_fingerprint;
  (* opt-in tail sampling: every Nth query runs with operator-stats
     collection on and lands in the explain ring like an .hq.explain *)
  let analyze = match t.explain with Some eh -> eh.eh_sample () | None -> false in
  let reply, q =
    Fun.protect
      ~finally:(fun () -> Obs.Sessions.query_finished t.session)
      (fun () ->
        run t ~name:"query" ~analyze ~bytes_in an (fun result _ ->
            let reply = encode_result t result in
            (reply, String.length reply)))
  in
  M.observe t.m.query_seconds q.Obs.Query.duration_s;
  Obs.Ctx.record_query t.obs ~conn_id:t.session.Obs.Sessions.s_conn q;
  reply

(* the reply to one decoded message of [consumed] bytes *)
let reply_to (t : t) (msg : Qipc.Codec.message) ~(consumed : int) : string =
  match msg.Qipc.Codec.body with
  | Qipc.Codec.Query text -> (
      match admin_reply t text with
      | Some v ->
          (* answered in-band, backend untouched *)
          Qipc.Codec.encode_message
            { mt = Qipc.Codec.Response; body = Qipc.Codec.Value v }
      | None -> query_reply t text ~bytes_in:consumed)
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
let refuse (t : t) (why : string) (fields : (string * Obs.Relation.cell) list) =
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
        [ ("error", Obs.Relation.Str e) ];
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
    match !out with
    | [ reply ] -> reply (* the usual case: a lone reply is not copied *)
    | replies -> String.concat "" (List.rev replies)
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
          refuse t "handshake rejected" [ ("error", Obs.Relation.Str e) ];
          ""
      | h when authenticate t h ->
          t.phase <- Connected;
          t.client_version <- min h.Qipc.Codec.version 3;
          Obs.Sessions.set_user t.session h.Qipc.Codec.user;
          Obs.Log.info t.obs.Obs.Ctx.log
            ~conn_id:t.session.Obs.Sessions.s_conn "connection accepted"
            [
              ("user", Obs.Relation.Str h.Qipc.Codec.user);
              ("qipc_version", Obs.Relation.Int t.client_version);
            ];
          Qipc.Codec.handshake_accept ~version:t.client_version
          ^ serve_frames t
      | h ->
          M.inc t.m.auth_failures_total;
          refuse t "handshake rejected"
            [ ("user", Obs.Relation.Str h.Qipc.Codec.user) ];
          "")
  | _ ->
      refuse t "handshake too long"
        [
          ("bytes", Obs.Relation.Int n);
          ("limit", Obs.Relation.Int max_handshake_bytes);
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
