type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type t = {
  mutable min_level : level;
  sink : Events.sink;
  c_debug : Metrics.counter;
  c_info : Metrics.counter;
  c_warn : Metrics.counter;
  c_error : Metrics.counter;
  tail : string option array;  (** bounded ring of rendered lines *)
  mutable next : int;
  mutable stored : int;
}

let default_tail_capacity = 256

let create ?(level = Info) ?(tail_capacity = default_tail_capacity) ~sink
    (reg : Metrics.t) : t =
  if tail_capacity < 1 then invalid_arg "Log.create: tail_capacity must be >= 1";
  let c l =
    Metrics.counter reg ~help:"Structured log lines emitted"
      ~labels:[ ("level", level_name l) ]
      "hq_log_lines_total"
  in
  {
    min_level = level;
    sink;
    c_debug = c Debug;
    c_info = c Info;
    c_warn = c Warn;
    c_error = c Error;
    tail = Array.make tail_capacity None;
    next = 0;
    stored = 0;
  }

let level t = t.min_level
let set_level t l = t.min_level <- l
let enabled t l = severity l >= severity t.min_level

let counter_for t = function
  | Debug -> t.c_debug
  | Info -> t.c_info
  | Warn -> t.c_warn
  | Error -> t.c_error

let lines_logged t l = Metrics.counter_value (counter_for t l)

let push_tail t line =
  t.tail.(t.next) <- Some line;
  t.next <- (t.next + 1) mod Array.length t.tail;
  if t.stored < Array.length t.tail then t.stored <- t.stored + 1

(** Emit one structured line. The [trace_id] and [conn_id] correlation
    fields are always present in the output (empty / 0 when the caller
    has no context), so every line can be joined against the exported
    trace ring and the session registry. *)
let log t (lvl : level) ?ts ?(trace_id = "") ?(conn_id = 0) (msg : string)
    (fields : (string * Events.field) list) : unit =
  if enabled t lvl then begin
    Metrics.inc (counter_for t lvl);
    let line =
      Events.field_json
        (Events.Obj
           ([
              ( "ts",
                Events.Float
                  (match ts with Some ts -> ts | None -> Unix.gettimeofday ())
              );
              ("level", Events.Str (level_name lvl));
              ("msg", Events.Str msg);
              ("trace_id", Events.Str trace_id);
              ("conn_id", Events.Int conn_id);
            ]
           @ fields))
    in
    Events.write t.sink line;
    push_tail t line
  end

let debug t ?trace_id ?conn_id msg fields = log t Debug ?trace_id ?conn_id msg fields
let info t ?ts ?trace_id ?conn_id msg fields = log t Info ?ts ?trace_id ?conn_id msg fields
let warn t ?trace_id ?conn_id msg fields = log t Warn ?trace_id ?conn_id msg fields
let error t ?trace_id ?conn_id msg fields = log t Error ?trace_id ?conn_id msg fields

(** The newest [n] retained lines, newest first. *)
let recent t (n : int) : string list =
  let cap = Array.length t.tail in
  let out = ref [] in
  let i = ref ((t.next - 1 + cap) mod cap) in
  let remaining = ref (Stdlib.min n t.stored) in
  while !remaining > 0 do
    (match t.tail.(!i) with Some l -> out := l :: !out | None -> ());
    i := (!i - 1 + cap) mod cap;
    decr remaining
  done;
  List.rev !out

(** The retained tail, oldest first, one JSON line per entry — what
    [GET /logs.json] serves. *)
let to_jsonl t : string =
  String.concat ""
    (List.map (fun l -> l ^ "\n") (List.rev (recent t t.stored)))

let reset t =
  Array.fill t.tail 0 (Array.length t.tail) None;
  t.next <- 0;
  t.stored <- 0
