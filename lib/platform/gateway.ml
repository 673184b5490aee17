(** The Gateway: Hyper-Q's PG-specific plugin (paper Figure 1, Section 3.1).

    Packs each SQL statement into one PG v3 extended-protocol batch
    (Parse, Bind asking for binary results, Describe, Execute, Sync),
    transmits it to the backend in one write, and decodes the streamed
    binary DataRows straight into a typed column per result column.
    This implementation goes through real protocol bytes on both directions
    — a {!Pgwire.Server} wraps the pgdb session, a {!Pgwire.Client} drives
    it — so the data path exercises exactly what a networked deployment
    would, minus the socket.

    The gateway sits on the wire/pivot boundary the paper's evaluation
    cares about, so it meters that boundary: PG v3 bytes in both
    directions and backend statement counts go to the metrics registry,
    and each statement's byte counts are attached as attributes of
    whichever trace span is open while the round trip is in flight (the
    engine's [execute] span). *)

module M = Obs.Metrics

(** Build a wire-level backend over a pgdb session. Every statement is
    round-tripped through encoded PG v3 messages. [extra_labels] go on
    every metric series (the shard cluster tags each shard's gateway
    with [("shard", i)] so per-shard traffic stays separable). *)
let wire_backend ?(user = "app") ?(password = "secret")
    ?(auth = Pgwire.Server.Trust) ?(extra_labels = []) ?obs
    (session : Pgdb.Db.session) : Hyperq.Backend.t =
  let obs = match obs with Some o -> o | None -> Obs.Ctx.create () in
  let reg = obs.Obs.Ctx.registry in
  let labels = extra_labels in
  let pg_out =
    M.counter reg ~help:"PG v3 bytes sent to the backend" ~labels
      "hq_pgwire_bytes_out"
  in
  let pg_in =
    M.counter reg ~help:"PG v3 bytes received from the backend" ~labels
      "hq_pgwire_bytes_in"
  in
  let statements =
    M.counter reg ~help:"SQL statements dispatched to the backend" ~labels
      "hq_backend_statements_total"
  in
  let backend_errors =
    M.counter reg ~help:"Backend statements that returned an error" ~labels
      "hq_backend_errors_total"
  in
  let exec_seconds =
    M.histogram reg ~help:"Backend statement round-trip latency (seconds)"
      ~labels "hq_backend_exec_seconds"
  in
  let server = Pgwire.Server.create ~users:[ (user, password) ] ~auth session in
  (* meter the raw transport so handshake and row-stream bytes all count *)
  let sent = ref 0 and received = ref 0 in
  let transport bytes =
    sent := !sent + String.length bytes;
    M.add pg_out (String.length bytes);
    let reply = Pgwire.Server.feed server bytes in
    received := !received + String.length reply;
    M.add pg_in (String.length reply);
    reply
  in
  let client = Pgwire.Client.connect ~user ~password transport in
  let log = obs.Obs.Ctx.log in
  let exec sql =
    M.inc statements;
    if Obs.Log.enabled log Obs.Log.Debug then
      Obs.Log.debug log ~trace_id:(Obs.Ctx.trace_id obs) "backend dispatch"
        [ ("sql_bytes", Obs.Relation.Int (String.length sql)) ];
    let sent0 = !sent and received0 = !received in
    let start = Obs.Clock.now_ns () in
    let result =
      match Pgwire.Client.query client sql with
      | Ok { Pgwire.Client.result; tag } ->
          if result.Pgdb.Exec.res_cols = [] then
            Ok (Hyperq.Backend.Command_ok tag)
          else Ok (Hyperq.Backend.Result_set result)
      | Error e ->
          M.inc backend_errors;
          Obs.Log.warn log ~trace_id:(Obs.Ctx.trace_id obs) "backend error"
            [ ("error", Obs.Relation.Str e) ];
          Error e
    in
    M.observe exec_seconds (Obs.Clock.seconds_since start);
    (* lands on the engine's execute span when a query trace is open *)
    Obs.Ctx.add_attr obs "pg_bytes_out" (Obs.Relation.Int (!sent - sent0));
    Obs.Ctx.add_attr obs "pg_bytes_in"
      (Obs.Relation.Int (!received - received0));
    result
  in
  (* sqlcommenter-style correlation: while a query trace is open, every
     statement the translator dispatches gets the W3C traceparent appended
     as a trailing comment. Backend.exec applies this before recording,
     so the decorated text is what the request's statement list and
     [on_exec] observers see, and what the backend's SQL lexer sees (it
     skips the comment as whitespace). *)
  let decorate sql =
    match Obs.Ctx.trace_ids obs with
    | Some (trace_id, span_id) ->
        sql ^ " /* traceparent='"
        ^ Obs.Trace.traceparent ~trace_id ~span_id
        ^ "' */"
    | None -> sql
  in
  {
    Hyperq.Backend.name = "pg-wire";
    exec;
    sql_count = ref 0;
    request_sql = ref [];
    decorate = ref decorate;
    on_exec = ref ignore;
  }
