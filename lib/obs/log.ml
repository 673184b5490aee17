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
  tail : string Ring.t;  (** the newest rendered lines *)
}

let default_tail_capacity = 256

let create ?(level = Info) ?(tail_capacity = default_tail_capacity) ~sink
    (reg : Metrics.t) : t =
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
    tail = Ring.create tail_capacity;
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

(** Emit one structured line. The [trace_id] and [conn_id] correlation
    fields are always present in the output (empty / 0 when the caller
    has no context), so every line can be joined against the exported
    trace ring and the session registry. *)
let log t (lvl : level) ?ts ?(trace_id = "") ?(conn_id = 0) (msg : string)
    (fields : (string * Relation.cell) list) : unit =
  if enabled t lvl then begin
    Metrics.inc (counter_for t lvl);
    let ts = match ts with Some ts -> ts | None -> Unix.gettimeofday () in
    let line =
      Relation.(
        obj
          ([
             ("ts", Float ts);
             ("level", Str (level_name lvl));
             ("msg", Str msg);
             ("trace_id", Str trace_id);
             ("conn_id", Int conn_id);
           ]
          @ fields))
    in
    Events.write t.sink line;
    Ring.push t.tail line
  end

let debug t ?trace_id ?conn_id msg fields = log t Debug ?trace_id ?conn_id msg fields
let info t ?ts ?trace_id ?conn_id msg fields = log t Info ?ts ?trace_id ?conn_id msg fields
let warn t ?trace_id ?conn_id msg fields = log t Warn ?trace_id ?conn_id msg fields
let error t ?trace_id ?conn_id msg fields = log t Error ?trace_id ?conn_id msg fields

let recent t (n : int) : string list = Ring.recent t.tail n

let to_jsonl t : string =
  let newest_first = Ring.recent t.tail (Ring.capacity t.tail) in
  String.concat "" (List.rev_map (fun l -> l ^ "\n") newest_first)

let reset t = Ring.clear t.tail
