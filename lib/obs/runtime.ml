(* Process/runtime telemetry: periodic Gc.quick_stat sampling turned
   into monotone hq_gc_* counters and hq_heap_* gauges, plus process
   identity (build info, uptime).

   The sampler keeps the last applied cumulative Gc values and feeds
   only the delta into the registry counters. That makes the registry
   the single source of truth for reset semantics: POST /reset zeroes
   the counters via Metrics.reset_all while the internal baseline stays
   at the current cumulative reading, so post-reset samples count only
   post-reset activity — no restart, no double counting.

   OCaml 5 caveat: minor-heap counters (minor_words, minor_collections)
   are domain-local; a coordinator-side sampler sees the coordinator
   domain's allocation, not the shard workers'. Worker domains are
   accounted separately per dispatch in lib/shard (hq_shard_alloc_bytes)
   — see DESIGN.md. Major-heap words and top_heap_words describe the
   shared major heap and are meaningful process-wide. *)

let version = "0.8.0"

(* module initializers run at program start, before any query flows *)
let start_ns = Clock.now_ns ()
let uptime_s () = Clock.seconds_since start_ns
let word_bytes = Sys.word_size / 8
let words_to_bytes w = w *. float_of_int word_bytes

external minor_collections : unit -> int = "hq_minor_collections"
[@@noalloc]

(* Gc.allocated_bytes reads its minor term from Gc.counters, which on
   OCaml 5.1 counts the words allocated since the last minor collection
   at an eighth; Gc.minor_words counts them exactly *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  words_to_bytes (Gc.minor_words () +. major -. promoted)

let default_interval_s = 5.0

type t = {
  r_mu : Mutex.t;
  mutable r_interval_s : float;
  mutable r_last_ns : int64;  (** 0L = never sampled *)
  mutable r_samples : int;
  (* cumulative Gc readings as of the last applied sample (baseline) *)
  mutable r_minor : int;
  mutable r_major : int;
  mutable r_compactions : int;
  mutable r_alloc_bytes : float;
  mutable r_promoted_words : float;
  mutable r_watermark_bytes : float option;
  c_minor : Metrics.counter;
  c_major : Metrics.counter;
  c_compactions : Metrics.counter;
  c_alloc : Metrics.counter;
  c_promoted : Metrics.counter;
  g_heap : Metrics.gauge;
  g_top_heap : Metrics.gauge;
  g_uptime : Metrics.gauge;
}

let create ?(interval_s = default_interval_s) reg =
  let build =
    Metrics.gauge reg ~help:"build identity (value is always 1)"
      ~labels:[ ("version", version); ("ocaml", Sys.ocaml_version) ]
      "hq_build_info"
  in
  Metrics.set build 1.0;
  let q = Gc.quick_stat () in
  let t =
    {
      r_mu = Mutex.create ();
      r_interval_s = interval_s;
      r_last_ns = 0L;
      r_samples = 0;
      r_minor = q.Gc.minor_collections;
      r_major = q.Gc.major_collections;
      r_compactions = q.Gc.compactions;
      (* allocation comes from allocated_bytes, not quick_stat's word
         fields: those stay zero until the first minor GC runs, which a
         low-allocation process may never trigger between samples;
         allocated_bytes is live and domain-local *)
      r_alloc_bytes = allocated_bytes ();
      r_promoted_words = q.Gc.promoted_words;
      r_watermark_bytes = None;
      c_minor =
        Metrics.counter reg ~help:"minor GC collections since start/reset"
          "hq_gc_minor_collections_total";
      c_major =
        Metrics.counter reg ~help:"major GC collection cycles"
          "hq_gc_major_collections_total";
      c_compactions =
        Metrics.counter reg ~help:"major-heap compactions"
          "hq_gc_compactions_total";
      c_alloc =
        Metrics.counter reg
          ~help:"bytes allocated by the coordinator domain"
          "hq_gc_allocated_bytes_total";
      c_promoted =
        Metrics.counter reg
          ~help:"bytes promoted from the minor to the major heap"
          "hq_gc_promoted_bytes_total";
      g_heap =
        Metrics.gauge reg ~help:"major heap size in bytes" "hq_heap_bytes";
      g_top_heap =
        Metrics.gauge reg ~help:"largest major heap size reached, bytes"
          "hq_heap_top_bytes";
      g_uptime =
        Metrics.gauge reg ~help:"process uptime in seconds"
          "hq_process_uptime_seconds";
    }
  in
  Metrics.set t.g_heap (words_to_bytes (float_of_int q.Gc.heap_words));
  Metrics.set t.g_top_heap (words_to_bytes (float_of_int q.Gc.top_heap_words));
  Metrics.set t.g_uptime (uptime_s ());
  t

let refresh_uptime t = Metrics.set t.g_uptime (uptime_s ())

(* apply one sample: counters advance by the (non-negative) delta since
   the previous sample, gauges track the current heap shape *)
let sample t =
  let q = Gc.quick_stat () in
  Mutex.protect t.r_mu (fun () ->
      let dial c last cur =
        if cur > last then Metrics.add c (cur - last);
        cur
      in
      t.r_minor <- dial t.c_minor t.r_minor q.Gc.minor_collections;
      t.r_major <- dial t.c_major t.r_major q.Gc.major_collections;
      t.r_compactions <- dial t.c_compactions t.r_compactions q.Gc.compactions;
      let cur_alloc = allocated_bytes () in
      if cur_alloc > t.r_alloc_bytes then
        Metrics.add t.c_alloc (int_of_float (cur_alloc -. t.r_alloc_bytes));
      t.r_alloc_bytes <- cur_alloc;
      let dialf c last cur =
        if cur > last then
          Metrics.add c (int_of_float (words_to_bytes (cur -. last)));
        cur
      in
      t.r_promoted_words <-
        dialf t.c_promoted t.r_promoted_words q.Gc.promoted_words;
      Metrics.set t.g_heap (words_to_bytes (float_of_int q.Gc.heap_words));
      Metrics.set t.g_top_heap
        (words_to_bytes (float_of_int q.Gc.top_heap_words));
      Metrics.set t.g_uptime (uptime_s ());
      t.r_samples <- t.r_samples + 1;
      t.r_last_ns <- Clock.now_ns ())

let tick t =
  let due =
    Mutex.lock t.r_mu;
    let last = t.r_last_ns in
    Mutex.unlock t.r_mu;
    last = 0L || Clock.seconds_since last >= t.r_interval_s
  in
  if due then sample t;
  due

let set_interval t s = t.r_interval_s <- Float.max 0.01 s
let interval_s t = t.r_interval_s
let samples_total t = Mutex.lock t.r_mu; let n = t.r_samples in Mutex.unlock t.r_mu; n

(* re-base on the current cumulative readings and forget the sample
   count; the registry counters themselves are zeroed by the caller
   (Metrics.reset_all) so the pair is atomic from the reader's view *)
let reset t =
  let q = Gc.quick_stat () in
  Mutex.lock t.r_mu;
  t.r_minor <- q.Gc.minor_collections;
  t.r_major <- q.Gc.major_collections;
  t.r_compactions <- q.Gc.compactions;
  t.r_alloc_bytes <- allocated_bytes ();
  t.r_promoted_words <- q.Gc.promoted_words;
  t.r_samples <- 0;
  t.r_last_ns <- 0L;
  Mutex.unlock t.r_mu

let set_heap_watermark t bytes =
  t.r_watermark_bytes <-
    (match bytes with Some b when b > 0.0 -> Some b | _ -> None)

let heap_watermark t = t.r_watermark_bytes

let heap_bytes () =
  let q = Gc.quick_stat () in
  words_to_bytes (float_of_int q.Gc.heap_words)

let heap_alarm t =
  match t.r_watermark_bytes with
  | None -> false
  | Some w -> heap_bytes () > w

(* key/value view for the in-band .hq.runtime table; takes a fresh
   sample first so the numbers are current, not as-of the last tick *)
let stats t : (string * float) list =
  sample t;
  [
    ("uptime_seconds", uptime_s ());
    ("samples_total", float_of_int (samples_total t));
    ("sample_interval_seconds", t.r_interval_s);
    ("gc_minor_collections_total",
     float_of_int (Metrics.counter_value t.c_minor));
    ("gc_major_collections_total",
     float_of_int (Metrics.counter_value t.c_major));
    ("gc_compactions_total",
     float_of_int (Metrics.counter_value t.c_compactions));
    ("gc_allocated_bytes_total",
     float_of_int (Metrics.counter_value t.c_alloc));
    ("gc_promoted_bytes_total",
     float_of_int (Metrics.counter_value t.c_promoted));
    ("heap_bytes", Metrics.gauge_value t.g_heap);
    ("heap_top_bytes", Metrics.gauge_value t.g_top_heap);
    ("heap_watermark_bytes",
     match t.r_watermark_bytes with Some w -> w | None -> 0.0);
    ("heap_alarm", if heap_alarm t then 1.0 else 0.0);
  ]

let relation ?n t : Relation.t =
  Relation.make ?n
    ~fields:[ ("version", Str version); ("ocaml", Str Sys.ocaml_version) ]
    Relation.[ str "stat" fst; float "value" snd ]
    (stats t)
