type plan = { q : Query.t; a : Query.analysis }

(* written by the coordinator after each analyzed query, read by the
   admin thread (/explain.json) and in-band .hq admin queries *)
type t = plan Ring.t

let default_capacity = 128
let create ?(capacity = default_capacity) () : t = Ring.create capacity
let capacity = Ring.capacity
let size = Ring.size
let analyzed_total = Ring.pushed
let reset = Ring.clear
let offer t (q : Query.t) =
  match q.analysis with Some a -> Ring.push t { q; a } | None -> ()

let recent = Ring.recent

let relation ?n t : Relation.t =
  Relation.make
    Relation.
      [
        float "ts" (fun p -> p.q.ts);
        str "trace_id" (fun p -> p.q.trace_id);
        str "fingerprint" (fun p -> p.q.fingerprint);
        str "query" (fun p -> p.q.query);
        float "ms" (fun p -> p.q.duration_s *. 1e3);
        str "route" (fun p -> p.a.route);
        str "cache" (fun p -> p.a.cache);
        int "shards" (fun p -> p.a.shards);
        int "rows_scanned" (fun p -> p.a.rows_scanned);
        int "rows_out" (fun p -> p.a.plan_rows_out);
        str "top_operator" (fun p -> p.a.top_operator);
        float "worst_qerror" (fun p -> p.a.worst_qerror);
        json "plan" (fun p -> p.a.doc);
      ]
    (recent t (Option.value n ~default:(capacity t)))
