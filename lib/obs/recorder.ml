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
  ring : record Ring.t;
  mutable threshold_s : float;
  mutable sample_every : int;
  mutable seen : int;
  mutable captured_slow : int;
  mutable captured_sampled : int;
}

let default_capacity = 64
let default_threshold_s = 0.100

let create ?(capacity = default_capacity) ?(threshold_s = default_threshold_s)
    ?(sample_every = 0) () =
  {
    ring = Ring.create capacity;
    threshold_s;
    sample_every;
    seen = 0;
    captured_slow = 0;
    captured_sampled = 0;
  }

let set_threshold t s = t.threshold_s <- s
let threshold t = t.threshold_s
let set_sample_every t n = t.sample_every <- n
let sample_every t = t.sample_every

let capacity t = Ring.capacity t.ring
let size t = Ring.size t.ring
let seen t = t.seen
let captured_slow t = t.captured_slow
let captured_sampled t = t.captured_sampled

let reset t =
  Ring.clear t.ring;
  t.seen <- 0;
  t.captured_slow <- 0;
  t.captured_sampled <- 0

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
      Ring.push t.ring
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
let recent t (n : int) : record list = Ring.recent t.ring n

(** The newest [n] (default: all held) records, newest first, as the
    relation behind [.hq.slow] and [GET /slow.json]. *)
let relation ?n t : Relation.t =
  Relation.make
    Relation.
      [
        float "ts" (fun r -> r.r_ts);
        str "trace_id" (fun r -> r.r_trace_id);
        str "fingerprint" (fun r -> r.r_fingerprint);
        str "query" (fun r -> r.r_query);
        float "ms" (fun r -> r.r_duration_s *. 1e3);
        str "status" (fun r -> r.r_status);
        str "error" (fun r -> r.r_error);
        str "kind" (fun r -> r.r_kind);
        (* GC-victim or genuinely expensive? alloc + minor-GC deltas say *)
        float "alloc_bytes" (fun r -> r.r_alloc_bytes);
        int "minor_gcs" (fun r -> r.r_minor_gcs);
        json "sql" (fun r -> arr (List.map (fun s -> Str s) r.r_sql));
        str "top_operator" (fun r -> r.r_top_operator);
        json "ops" (fun r -> r.r_ops);
        json "trace" (fun r -> Trace.to_json r.r_span);
      ]
    (recent t (Option.value n ~default:(capacity t)))
