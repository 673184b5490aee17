type exported = {
  x_ts : float;  (** wall clock at trace finish (correlation only) *)
  x_trace_id : string;
  x_root : Trace.span;  (** finished root span *)
}

(* written by the coordinator (every finished trace), read by the admin
   thread (/traces.json) and in-band .hq.traces *)
type t = exported Ring.t

let default_capacity = 256
let create ?(capacity = default_capacity) () : t = Ring.create capacity
let capacity = Ring.capacity
let size = Ring.size
let exported_total = Ring.pushed
let reset = Ring.clear
let recent = Ring.recent

let offer t ~(ts : float) ~(trace_id : string) (root : Trace.span) : unit =
  Ring.push t { x_ts = ts; x_trace_id = trace_id; x_root = root }

let find t (trace_id : string) : exported option =
  List.find_opt (fun e -> e.x_trace_id = trace_id) (recent t (capacity t))

(* ------------------------------------------------------------------ *)
(* OTLP/Jaeger-style flat-span serialization                           *)
(* ------------------------------------------------------------------ *)

(* the span tree flattened depth-first; each span keeps its parent's id
   so any tracing UI can rebuild the tree *)
let rec flat_spans (parent : Trace.span option) (sp : Trace.span)
    (acc : (Trace.span option * Trace.span) list) :
    (Trace.span option * Trace.span) list =
  let acc = (parent, sp) :: acc in
  List.fold_left
    (fun acc c -> flat_spans (Some sp) c acc)
    acc (Trace.children sp)

let span_json ~(trace_id : string) ~(root : Trace.span)
    ((parent, sp) : Trace.span option * Trace.span) : string =
  let tags =
    match Trace.attrs sp with
    | [] -> []
    | ls -> [ ("tags", Relation.Json (Relation.obj ls)) ]
  in
  Relation.(
    obj
      ([
         ("traceID", Str trace_id);
         ("spanID", Str (Trace.span_id sp));
         ( "parentSpanID",
           Str (match parent with Some p -> Trace.span_id p | None -> "") );
         ("operationName", Str (Trace.name sp));
         ( "startOffsetUs",
           Float
             (Int64.to_float
                (Int64.sub (Trace.start_ns sp) (Trace.start_ns root))
             /. 1e3) );
         ("durationUs", Float (Trace.duration_s sp *. 1e6));
       ]
      @ tags))

let relation ?n t : Relation.t =
  let traces =
    List.map
      (fun e -> (e, List.rev (flat_spans None e.x_root [])))
      (recent t (Option.value n ~default:(capacity t)))
  in
  Relation.make
    Relation.
      [
        str "traceID" (fun (e, _) -> e.x_trace_id);
        float "ts" (fun (e, _) -> e.x_ts);
        float "durationMs" (fun (e, _) -> Trace.duration_s e.x_root *. 1e3);
        int "spanCount" (fun (_, spans) -> List.length spans);
        json "spans" (fun (e, spans) ->
            let root = e.x_root and trace_id = e.x_trace_id in
            arr (List.map (fun s -> Json (span_json ~trace_id ~root s)) spans));
      ]
    traces
