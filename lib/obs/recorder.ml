type record = { q : Query.t; kind : string }

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
let observe t (q : Query.t) : bool =
  t.seen <- t.seen + 1;
  let kind =
    if q.duration_s >= t.threshold_s then Some "slow"
    else if t.sample_every > 0 && t.seen mod t.sample_every = 0 then
      Some "sample"
    else None
  in
  match kind with
  | None -> false
  | Some kind ->
      if kind = "slow" then t.captured_slow <- t.captured_slow + 1
      else t.captured_sampled <- t.captured_sampled + 1;
      Ring.push t.ring { q; kind };
      true

(** The newest [n] records, newest first. *)
let recent t (n : int) : record list = Ring.recent t.ring n

(* a string the query's analysis has, [""] when ANALYZE did not run *)
let analysed r (f : Query.analysis -> string) =
  Option.fold ~none:"" ~some:f r.q.analysis

(** The newest [n] (default: all held) records, newest first, as the
    relation behind [.hq.slow] and [GET /slow.json]. *)
let relation ?n t : Relation.t =
  Relation.make
    Relation.
      [
        float "ts" (fun r -> r.q.ts);
        str "trace_id" (fun r -> r.q.trace_id);
        str "fingerprint" (fun r -> r.q.fingerprint);
        str "query" (fun r -> r.q.query);
        float "ms" (fun r -> r.q.duration_s *. 1e3);
        str "status" (fun r -> Query.status r.q);
        str "error" (fun r ->
            match r.q.error with Some e -> e.message | None -> "");
        str "kind" (fun r -> r.kind);
        (* GC-victim or genuinely expensive? alloc + minor-GC deltas say *)
        float "alloc_bytes" (fun r -> r.q.alloc_bytes);
        int "minor_gcs" (fun r -> r.q.minor_gcs);
        json "sql" (fun r -> arr (List.map (fun s -> Str s) r.q.sql));
        str "top_operator" (fun r -> analysed r (fun a -> a.top_operator));
        json "ops" (fun r -> analysed r (fun a -> a.doc));
        json "trace" (fun r -> Trace.to_json r.q.span);
      ]
    (recent t (Option.value n ~default:(capacity t)))
