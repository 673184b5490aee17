type plan = {
  p_ts : float;  (** wall clock at query finish (correlation only) *)
  p_trace_id : string;
  p_fingerprint : string;
  p_query : string;
  p_duration_s : float;
  p_route : string;  (** route class: single/merge/concat/partial_agg/coordinator *)
  p_cache : string;  (** plan-cache outcome: hit/miss/bypass/off *)
  p_shards : int;  (** number of shard-local operator trees attached *)
  p_rows_scanned : int;
  p_rows_out : int;
  p_top_operator : string;
  p_worst_qerror : float;
  p_tree : string;  (** pre-rendered JSON document for this analyzed plan *)
}

(* written by the coordinator after each analyzed query, read by the
   admin thread (/explain.json) and in-band .hq admin queries *)
type t = plan Ring.t

let default_capacity = 128
let create ?(capacity = default_capacity) () : t = Ring.create capacity
let capacity = Ring.capacity
let size = Ring.size
let analyzed_total = Ring.pushed
let reset = Ring.clear
let offer = Ring.push
let recent = Ring.recent

let relation ?n t : Relation.t =
  Relation.make
    Relation.
      [
        float "ts" (fun p -> p.p_ts);
        str "trace_id" (fun p -> p.p_trace_id);
        str "fingerprint" (fun p -> p.p_fingerprint);
        str "query" (fun p -> p.p_query);
        float "ms" (fun p -> p.p_duration_s *. 1e3);
        str "route" (fun p -> p.p_route);
        str "cache" (fun p -> p.p_cache);
        int "shards" (fun p -> p.p_shards);
        int "rows_scanned" (fun p -> p.p_rows_scanned);
        int "rows_out" (fun p -> p.p_rows_out);
        str "top_operator" (fun p -> p.p_top_operator);
        float "worst_qerror" (fun p -> p.p_worst_qerror);
        json "plan" (fun p -> p.p_tree);
      ]
    (recent t (Option.value n ~default:(capacity t)))
