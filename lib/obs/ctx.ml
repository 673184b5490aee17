type t = {
  registry : Metrics.t;
  events : Events.sink;
  qstats : Qstats.t;
  recorder : Recorder.t;
  sessions : Sessions.t;
  log : Log.t;
  export : Export.t;
  timeseries : Timeseries.t;
  slo : Slo.t;
  explain : Explain.t;
  runtime : Runtime.t;
  mutable trace : Trace.t option;
  mutable last_trace : Trace.span option;
}

let create ?registry ?events ?qstats ?recorder ?sessions ?log ?export
    ?timeseries ?slo ?explain ?runtime () =
  let registry =
    match registry with Some r -> r | None -> Metrics.create ()
  in
  let events = match events with Some e -> e | None -> Events.create () in
  let qstats = match qstats with Some q -> q | None -> Qstats.create () in
  let recorder =
    match recorder with Some r -> r | None -> Recorder.create ()
  in
  let sessions =
    match sessions with Some s -> s | None -> Sessions.create ()
  in
  let log =
    (* the logger shares the event sink so query events and log lines
       interleave in one JSONL stream *)
    match log with Some l -> l | None -> Log.create ~sink:events registry
  in
  let export = match export with Some e -> e | None -> Export.create () in
  let timeseries =
    match timeseries with Some t -> t | None -> Timeseries.create registry
  in
  let slo = match slo with Some s -> s | None -> Slo.create timeseries in
  let explain = match explain with Some e -> e | None -> Explain.create () in
  let runtime =
    (* shares the registry's instruments via get-or-create; only whoever
       drives sampling (the platform hook / server thread) advances it *)
    match runtime with Some r -> r | None -> Runtime.create registry
  in
  {
    registry;
    events;
    qstats;
    recorder;
    sessions;
    log;
    export;
    timeseries;
    slo;
    explain;
    runtime;
    trace = None;
    last_trace = None;
  }

let span t name f =
  match t.trace with
  | Some tr -> Trace.with_span tr name f
  | None -> f ()

let add_attr t k v =
  match t.trace with Some tr -> Trace.add_attr tr k v | None -> ()

let trace_id t =
  match t.trace with Some tr -> Trace.trace_id tr | None -> ""

let trace_ids t =
  match t.trace with
  | Some tr -> Some (Trace.trace_id tr, Trace.span_id (Trace.current tr))
  | None -> None

let start_trace t name =
  let tr = Trace.start name in
  t.trace <- Some tr;
  tr

let finish_trace ?ts t tr =
  let root = Trace.finish tr in
  (match t.trace with
  | Some cur when cur == tr -> t.trace <- None
  | _ -> ());
  t.last_trace <- Some root;
  (* every finished query trace lands in the bounded export ring *)
  let ts = match ts with Some ts -> ts | None -> Unix.gettimeofday () in
  Export.offer t.export ~ts ~trace_id:(Trace.trace_id tr) root;
  root

let record_query t ~conn_id (q : Query.t) =
  Qstats.record t.qstats q;
  ignore (Recorder.observe t.recorder q);
  Explain.offer t.explain q;
  if Events.active t.events then Events.emit t.events (Query.event q);
  Log.info t.log ~ts:q.ts ~trace_id:q.trace_id ~conn_id "query completed"
    (Query.log_fields q);
  (* in-band pacing: the ring keeps filling under load even when no
     sampler thread runs (tick is a clock read when the interval has
     not elapsed) *)
  ignore (Timeseries.tick t.timeseries)
