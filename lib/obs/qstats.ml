(* Compact per-fingerprint latency histogram: bucket i counts
   observations in [2^i, 2^(i+1)) microseconds, the last bucket absorbs
   everything slower (~8.4s and up). 24 ints per fingerprint. *)
let hist_buckets = 24

let bucket_of_seconds (v : float) : int =
  let us = v *. 1e6 in
  if us < 1.0 then 0
  else Stdlib.min (hist_buckets - 1) (int_of_float (Float.log2 us))

(* seconds upper bound of bucket [i]: 2^(i+1) us *)
let bucket_upper_s (i : int) : float = Float.ldexp 1e-6 (i + 1)

type entry = {
  e_fingerprint : string;
  e_query : string;  (** normalized query text (shape, literals stripped) *)
  mutable e_calls : int;
  mutable e_errors : int;
  mutable e_error_classes : (string * int) list;  (** per error class *)
  mutable e_rows_out : int;
  mutable e_bytes_in : int;
  mutable e_bytes_out : int;
  mutable e_total_s : float;
  mutable e_max_s : float;
  mutable e_stages : (string * float) list;  (** per-stage latency sums *)
  e_hist : int array;  (** log2-us-bucketed latency histogram *)
  mutable e_last_use : int;  (** logical tick, for LRU eviction *)
  (* allocation attribution: coordinator-side Gc deltas per call *)
  mutable e_alloc_bytes : float;  (** total bytes allocated, all calls *)
  mutable e_minor_gcs : int;  (** total minor collections, all calls *)
}

type t = {
  q_mu : Mutex.t;  (** store is shared with shard worker domains *)
  q_capacity : int;
  q_table : (string, entry) Hashtbl.t;
  mutable q_tick : int;
  mutable q_evictions : int;
}

let with_mu t f =
  Mutex.lock t.q_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.q_mu) f

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Qstats.create: capacity must be >= 1";
  {
    q_mu = Mutex.create ();
    q_capacity = capacity;
    q_table = Hashtbl.create 64;
    q_tick = 0;
    q_evictions = 0;
  }

let size t = with_mu t (fun () -> Hashtbl.length t.q_table)
let capacity t = t.q_capacity
let evictions t = with_mu t (fun () -> t.q_evictions)

let reset t =
  with_mu t (fun () ->
      Hashtbl.reset t.q_table;
      t.q_tick <- 0;
      t.q_evictions <- 0)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.e_last_use <= e.e_last_use -> acc
        | _ -> Some (key, e))
      t.q_table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.q_table key;
      t.q_evictions <- t.q_evictions + 1
  | None -> ()

let bump_assoc (l : (string * int) list) (k : string) : (string * int) list =
  let rec go = function
    | [] -> [ (k, 1) ]
    | (k', n) :: rest when k' = k -> (k', n + 1) :: rest
    | kv :: rest -> kv :: go rest
  in
  go l

let add_stages (sums : (string * float) list)
    (obs : (string * float) list) : (string * float) list =
  List.map
    (fun (name, s) ->
      match List.assoc_opt name obs with
      | Some d -> (name, s +. d)
      | None -> (name, s))
    sums
  @ List.filter (fun (name, _) -> not (List.mem_assoc name sums)) obs

let record t (q : Query.t) : unit =
  with_mu t (fun () ->
  t.q_tick <- t.q_tick + 1;
  let e =
    match Hashtbl.find_opt t.q_table q.fingerprint with
    | Some e -> e
    | None ->
        if Hashtbl.length t.q_table >= t.q_capacity then evict_lru t;
        let e =
          {
            e_fingerprint = q.fingerprint;
            e_query = q.query;
            e_calls = 0;
            e_errors = 0;
            e_error_classes = [];
            e_rows_out = 0;
            e_bytes_in = 0;
            e_bytes_out = 0;
            e_total_s = 0.0;
            e_max_s = 0.0;
            e_stages = [];
            e_hist = Array.make hist_buckets 0;
            e_last_use = 0;
            e_alloc_bytes = 0.0;
            e_minor_gcs = 0;
          }
        in
        Hashtbl.replace t.q_table q.fingerprint e;
        e
  in
  e.e_calls <- e.e_calls + 1;
  (match q.error with
  | Some err ->
      e.e_errors <- e.e_errors + 1;
      e.e_error_classes <- bump_assoc e.e_error_classes err.error_class
  | None -> ());
  e.e_rows_out <- e.e_rows_out + q.rows_out;
  e.e_bytes_in <- e.e_bytes_in + q.bytes_in;
  e.e_bytes_out <- e.e_bytes_out + q.bytes_out;
  e.e_total_s <- e.e_total_s +. q.duration_s;
  if q.duration_s > e.e_max_s then e.e_max_s <- q.duration_s;
  e.e_stages <- add_stages e.e_stages q.stages;
  e.e_alloc_bytes <- e.e_alloc_bytes +. q.alloc_bytes;
  e.e_minor_gcs <- e.e_minor_gcs + q.minor_gcs;
  let b = bucket_of_seconds q.duration_s in
  e.e_hist.(b) <- e.e_hist.(b) + 1;
  e.e_last_use <- t.q_tick)

(* a running total as a mean per call *)
let per_call (e : entry) (total : float) : float =
  if e.e_calls = 0 then 0.0 else total /. float_of_int e.e_calls

let find t fingerprint =
  with_mu t (fun () -> Hashtbl.find_opt t.q_table fingerprint)

let top t (n : int) : entry list =
  with_mu t (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.q_table [])
  |> List.sort (fun a b -> Float.compare b.e_total_s a.e_total_s)
  |> List.filteri (fun i _ -> i < n)

let entry_avg_s (e : entry) : float = per_call e e.e_total_s

let entry_percentile (e : entry) (p : float) : float =
  if e.e_calls = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int e.e_calls in
    let rec go i cum =
      if i >= hist_buckets then e.e_max_s
      else
        let cum' = cum + e.e_hist.(i) in
        if float_of_int cum' >= rank && e.e_hist.(i) > 0 then
          Float.min e.e_max_s (bucket_upper_s i)
        else go (i + 1) cum'
    in
    go 0 0
  end

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)
(* ------------------------------------------------------------------ *)

(* nested per-class and per-stage breakdowns ride in one JSON cell *)
let assoc_json (render : 'v -> Relation.cell) (kvs : (string * 'v) list) :
    string =
  Relation.obj (List.map (fun (k, v) -> (k, render v)) kvs)

let relation ?(n = max_int) t : Relation.t =
  Relation.make
    Relation.
      [
        str "fingerprint" (fun e -> e.e_fingerprint);
        str "query" (fun e -> e.e_query);
        int "calls" (fun e -> e.e_calls);
        int "errors" (fun e -> e.e_errors);
        json "error_classes" (fun e ->
            assoc_json (fun n -> Int n) e.e_error_classes);
        int "rows_out" (fun e -> e.e_rows_out);
        int "bytes_in" (fun e -> e.e_bytes_in);
        int "bytes_out" (fun e -> e.e_bytes_out);
        float "total_ms" (fun e -> e.e_total_s *. 1e3);
        float "avg_ms" (fun e -> entry_avg_s e *. 1e3);
        float "max_ms" (fun e -> e.e_max_s *. 1e3);
        float "p95_ms" (fun e -> entry_percentile e 95.0 *. 1e3);
        json "stages_ms" (fun e ->
            assoc_json (fun d -> Float (d *. 1e3)) e.e_stages);
        (* coordinator-domain allocation attribution *)
        float "alloc_bytes" (fun e -> e.e_alloc_bytes);
        float "alloc_bytes_avg" (fun e -> per_call e e.e_alloc_bytes);
        int "minor_gcs" (fun e -> e.e_minor_gcs);
        float "minor_gcs_avg" (fun e ->
            per_call e (float_of_int e.e_minor_gcs));
        float "rows_out_avg" (fun e -> per_call e (float_of_int e.e_rows_out));
      ]
    (top t n)

let to_prometheus ?(k = 10) t : string =
  let entries = top t k in
  if entries = [] then ""
  else begin
    let buf = Buffer.create 512 in
    let series name help render =
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
      List.iter
        (fun e ->
          Buffer.add_string buf
            (Printf.sprintf "%s{fingerprint=\"%s\"} %s\n" name
               (Metrics.escape_label_value e.e_fingerprint)
               (render e)))
        entries
    in
    series "hq_fingerprint_calls_total"
      "Calls per query fingerprint (top-K by total time)" (fun e ->
        string_of_int e.e_calls);
    series "hq_fingerprint_errors_total"
      "Errors per query fingerprint (top-K by total time)" (fun e ->
        string_of_int e.e_errors);
    series "hq_fingerprint_seconds_total"
      "Total query seconds per fingerprint (top-K by total time)" (fun e ->
        Printf.sprintf "%g" e.e_total_s);
    series "hq_fingerprint_rows_total"
      "Rows returned per query fingerprint (top-K by total time)" (fun e ->
        string_of_int e.e_rows_out);
    series "hq_fingerprint_alloc_bytes_total"
      "Bytes allocated per query fingerprint (top-K by total time)" (fun e ->
        Printf.sprintf "%.0f" e.e_alloc_bytes);
    series "hq_fingerprint_minor_gcs_total"
      "Minor GCs per query fingerprint (top-K by total time)" (fun e ->
        string_of_int e.e_minor_gcs);
    Buffer.contents buf
  end
