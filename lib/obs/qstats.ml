type entry = {
  e_fingerprint : string;
  e_query : string;  (** normalized query text (shape, literals stripped) *)
  mutable e_calls : int;
  mutable e_errors : int;
  mutable e_error_classes : (string * int) list;  (** per error class *)
  mutable e_rows_out : int;
  mutable e_bytes_in : int;
  mutable e_bytes_out : int;
  mutable e_stages : (string * float) list;  (** per-stage latency sums *)
  e_hist : Metrics.histogram;  (** latency; its sum and max are the entry's *)
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

let size t = Mutex.protect t.q_mu (fun () -> Hashtbl.length t.q_table)
let capacity t = t.q_capacity
let evictions t = Mutex.protect t.q_mu (fun () -> t.q_evictions)

let reset t =
  Mutex.protect t.q_mu (fun () ->
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
  Mutex.protect t.q_mu (fun () ->
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
            e_stages = [];
            e_hist = Metrics.new_histogram ();
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
  e.e_stages <- add_stages e.e_stages q.stages;
  e.e_alloc_bytes <- e.e_alloc_bytes +. q.alloc_bytes;
  e.e_minor_gcs <- e.e_minor_gcs + q.minor_gcs;
  Metrics.observe e.e_hist q.duration_s;
  e.e_last_use <- t.q_tick)

(* a running total as a mean per call *)
let per_call (e : entry) (total : float) : float =
  if e.e_calls = 0 then 0.0 else total /. float_of_int e.e_calls

let find t fingerprint =
  Mutex.protect t.q_mu (fun () -> Hashtbl.find_opt t.q_table fingerprint)

let total_s (e : entry) = Metrics.hist_sum e.e_hist

let top t (n : int) : entry list =
  Mutex.protect t.q_mu (fun () ->
      Hashtbl.fold (fun _ e acc -> (total_s e, e) :: acc) t.q_table [])
  |> List.sort (fun (a, _) (b, _) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < n)
  |> List.map snd

let entry_avg_s (e : entry) : float = per_call e (total_s e)

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
        float "total_ms" (fun e -> total_s e *. 1e3);
        float "avg_ms" (fun e -> entry_avg_s e *. 1e3);
        float "max_ms" (fun e -> Metrics.hist_max e.e_hist *. 1e3);
        float "p95_ms" (fun e -> Metrics.percentile e.e_hist 95.0 *. 1e3);
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

let exposition ?(k = 10) t : Relation.t =
  let entries = top t k in
  let family name help value =
    List.map
      (fun e ->
        Relation.
          {
            p_family = name;
            p_type = "counter";
            p_help = help ^ " (top-K by total time)";
            p_suffix = "";
            p_labels = [ ("fingerprint", e.e_fingerprint) ];
            p_value = value e;
          })
      entries
  in
  Relation.samples
    (List.concat
       [
         family "hq_fingerprint_calls_total" "Calls per query fingerprint"
           (fun e -> float_of_int e.e_calls);
         family "hq_fingerprint_errors_total" "Errors per query fingerprint"
           (fun e -> float_of_int e.e_errors);
         family "hq_fingerprint_seconds_total"
           "Total query seconds per fingerprint" total_s;
         family "hq_fingerprint_rows_total"
           "Rows returned per query fingerprint" (fun e ->
             float_of_int e.e_rows_out);
         family "hq_fingerprint_alloc_bytes_total"
           "Bytes allocated per query fingerprint" (fun e -> e.e_alloc_bytes);
         family "hq_fingerprint_minor_gcs_total"
           "Minor GCs per query fingerprint" (fun e ->
             float_of_int e.e_minor_gcs);
       ])
