type record = {
  r_ts : float;  (** wall-clock capture time (correlation only) *)
  r_trace_id : string;  (** id of the query's trace, [""] when unknown *)
  r_fingerprint : string;
  r_query : string;
  r_duration_s : float;
  r_status : string;  (** ["ok"] or ["error"] *)
  r_error : string;  (** categorised error text, [""] when ok *)
  r_sql : string list;  (** generated SQL statements, oldest first *)
  r_span : Trace.span;  (** finished root span of the query's trace *)
  r_kind : string;  (** ["slow"] or ["sample"] *)
  r_ops : string;
      (** operator-stats tree as pre-rendered JSON, [""] when the query
          did not run with ANALYZE collection on *)
  r_top_operator : string;  (** operator with the most self-time, [""] *)
  r_alloc_bytes : float;
      (** coordinator-side bytes allocated while the query ran, 0 when
          not measured — separates GC-victim slow queries from ones
          that are genuinely expensive *)
  r_minor_gcs : int;  (** minor collections during the query, 0 = none *)
}

type t = {
  capacity : int;
  ring : record option array;
  mutable threshold_s : float;
  mutable sample_every : int;
  mutable next : int;  (** next write slot *)
  mutable stored : int;  (** live records, <= capacity always *)
  mutable seen : int;
  mutable captured_slow : int;
  mutable captured_sampled : int;
}

let default_capacity = 64
let default_threshold_s = 0.100

let create ?(capacity = default_capacity) ?(threshold_s = default_threshold_s)
    ?(sample_every = 0) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  {
    capacity;
    ring = Array.make capacity None;
    threshold_s;
    sample_every;
    next = 0;
    stored = 0;
    seen = 0;
    captured_slow = 0;
    captured_sampled = 0;
  }

let set_threshold t s = t.threshold_s <- s
let threshold t = t.threshold_s
let set_sample_every t n = t.sample_every <- n
let sample_every t = t.sample_every

let capacity t = t.capacity
let size t = t.stored
let seen t = t.seen
let captured_slow t = t.captured_slow
let captured_sampled t = t.captured_sampled

let reset t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.stored <- 0;
  t.seen <- 0;
  t.captured_slow <- 0;
  t.captured_sampled <- 0

let push t r =
  t.ring.(t.next) <- Some r;
  t.next <- (t.next + 1) mod t.capacity;
  if t.stored < t.capacity then t.stored <- t.stored + 1

(** Offer one completed query; captured when it ran at least the
    threshold, or as a tail sample of every [sample_every]-th fast query
    (0 disables sampling). Returns whether it was kept. *)
let observe t ~(ts : float) ?(trace_id = "") ?(ops = "") ?(top_operator = "")
    ?(alloc_bytes = 0.0) ?(minor_gcs = 0) ~(fingerprint : string)
    ~(query : string) ~(duration_s : float) ~(status : string)
    ~(error : string) ~(sql : string list) (span : Trace.span) : bool =
  t.seen <- t.seen + 1;
  let kind =
    if duration_s >= t.threshold_s then Some "slow"
    else if t.sample_every > 0 && t.seen mod t.sample_every = 0 then
      Some "sample"
    else None
  in
  match kind with
  | None -> false
  | Some r_kind ->
      if r_kind = "slow" then t.captured_slow <- t.captured_slow + 1
      else t.captured_sampled <- t.captured_sampled + 1;
      push t
        {
          r_ts = ts;
          r_trace_id = trace_id;
          r_fingerprint = fingerprint;
          r_query = query;
          r_duration_s = duration_s;
          r_status = status;
          r_error = error;
          r_sql = sql;
          r_span = span;
          r_kind;
          r_ops = ops;
          r_top_operator = top_operator;
          r_alloc_bytes = alloc_bytes;
          r_minor_gcs = minor_gcs;
        };
      true

(** The newest [n] records, newest first. *)
let recent t (n : int) : record list =
  let out = ref [] in
  let i = ref ((t.next - 1 + t.capacity) mod t.capacity) in
  let remaining = ref (Stdlib.min n t.stored) in
  while !remaining > 0 do
    (match t.ring.(!i) with
    | Some r -> out := r :: !out
    | None -> ());
    i := (!i - 1 + t.capacity) mod t.capacity;
    decr remaining
  done;
  List.rev !out

let record_json (r : record) : string =
  Printf.sprintf
    "{\"ts\":%.3f,\"trace_id\":\"%s\",\"fingerprint\":\"%s\",\
     \"query\":\"%s\",\"ms\":%.3f,\
     \"status\":\"%s\",\"error\":\"%s\",\"kind\":\"%s\",\
     \"alloc_bytes\":%.0f,\"minor_gcs\":%d,\"sql\":[%s],\
     \"top_operator\":\"%s\",\"ops\":%s,\
     \"trace\":%s}"
    r.r_ts r.r_trace_id r.r_fingerprint
    (Trace.json_escape r.r_query)
    (r.r_duration_s *. 1e3) r.r_status
    (Trace.json_escape r.r_error)
    r.r_kind r.r_alloc_bytes r.r_minor_gcs
    (String.concat ","
       (List.map (fun s -> Printf.sprintf "\"%s\"" (Trace.json_escape s)) r.r_sql))
    (Trace.json_escape r.r_top_operator)
    (* r_ops is pre-rendered JSON, spliced verbatim *)
    (if r.r_ops = "" then "null" else r.r_ops)
    (Trace.to_json r.r_span)

(** One JSON line per record, newest first ([GET /slow.json]). *)
let to_jsonl t : string =
  String.concat ""
    (List.map (fun r -> record_json r ^ "\n") (recent t t.capacity))
