(* instruments are shared across OCaml domains once the shard worker
   pool fans a query out, so the hot-path mutables are atomics and every
   multi-word structure (histograms, the registry itself) carries its
   own mutex *)
type counter = { c_value : int Atomic.t }

type gauge = { g_value : float Atomic.t }

type histogram = {
  h_mu : Mutex.t;
  h_bounds : float array;  (** ascending upper bounds, +Inf excluded *)
  h_counts : int array;  (** length = Array.length h_bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type metric = {
  m_name : string;
  m_labels : (string * string) list;
  m_help : string;
  m_inst : instrument;
}

type t = {
  mu : Mutex.t;
  mutable metrics : metric list;  (** newest first; snapshot reverses *)
  index : (string, metric) Hashtbl.t;
}

let create () =
  { mu = Mutex.create (); metrics = []; index = Hashtbl.create 32 }

let key name labels = name ^ Relation.labels_text labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register reg ?(help = "") ?(labels = []) name (make : unit -> instrument)
    (extract : instrument -> 'a option) : 'a =
  let k = key name labels in
  Mutex.protect reg.mu (fun () ->
      match Hashtbl.find_opt reg.index k with
      | Some m -> (
          match extract m.m_inst with
          | Some inst -> inst
          | None ->
              invalid_arg
                (Printf.sprintf "metric %s already registered as a %s" k
                   (kind_name m.m_inst)))
      | None -> (
          let inst = make () in
          let m =
            { m_name = name; m_labels = labels; m_help = help; m_inst = inst }
          in
          Hashtbl.replace reg.index k m;
          reg.metrics <- m :: reg.metrics;
          match extract inst with
          | Some i -> i
          | None -> assert false))

let counter reg ?help ?labels name =
  register reg ?help ?labels name
    (fun () -> Counter { c_value = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let gauge reg ?help ?labels name =
  register reg ?help ?labels name
    (fun () -> Gauge { g_value = Atomic.make 0.0 })
    (function Gauge g -> Some g | _ -> None)

let log_buckets ?(mantissas = [| 1.0; 2.5; 5.0 |]) ~lo ~hi () =
  if lo <= 0.0 || hi <= lo then invalid_arg "log_buckets: need 0 < lo < hi";
  let out = ref [] in
  let e = ref (int_of_float (Float.floor (Float.log10 lo))) in
  let finished = ref false in
  while not !finished do
    let decade = 10.0 ** float_of_int !e in
    Array.iter
      (fun m ->
        let v = m *. decade in
        if v >= lo *. 0.999999 && v <= hi *. 1.000001 then out := v :: !out)
      mantissas;
    if decade > hi then finished := true else incr e
  done;
  Array.of_list (List.rev !out)

(* 100ns .. 10s on a 1-2.5-5 log scale: fine enough that sub-ms stages
   (parse on a warm cache runs in single-digit us) spread over several
   buckets instead of clamping into one, coarse enough that a histogram
   is a few dozen ints *)
let default_buckets = log_buckets ~lo:1e-7 ~hi:10.0 ()

let make_histogram bounds =
  {
    h_mu = Mutex.create ();
    h_bounds = bounds;
    h_counts = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let histogram reg ?help ?labels ?(buckets = default_buckets) name =
  register reg ?help ?labels name
    (fun () -> Histogram (make_histogram (Array.copy buckets)))
    (function Histogram h -> Some h | _ -> None)

let new_histogram () = make_histogram default_buckets

(* ------------------------------------------------------------------ *)
(* Instrument operations                                               *)
(* ------------------------------------------------------------------ *)

let inc c = Atomic.incr c.c_value
let add c n = ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

let set g v = Atomic.set g.g_value v

let rec gauge_add g v =
  let cur = Atomic.get g.g_value in
  if not (Atomic.compare_and_set g.g_value cur (cur +. v)) then gauge_add g v

let gauge_value g = Atomic.get g.g_value

let bucket_index (h : histogram) (v : float) : int =
  let n = Array.length h.h_bounds in
  let rec go i = if i >= n then n else if v <= h.h_bounds.(i) then i else go (i + 1) in
  go 0

(* the body cannot raise, so the lock needs no protect: an observation
   allocates only the boxed sum *)
let observe h v =
  let i = bucket_index h v in
  Mutex.lock h.h_mu;
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  Mutex.unlock h.h_mu

let hist_count h = Mutex.protect h.h_mu (fun () -> h.h_count)
let hist_sum h = Mutex.protect h.h_mu (fun () -> h.h_sum)

let hist_max h =
  Mutex.protect h.h_mu (fun () -> if h.h_count = 0 then 0.0 else h.h_max)

let hist_reset_unlocked h =
  Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
  h.h_count <- 0;
  h.h_sum <- 0.0;
  h.h_min <- infinity;
  h.h_max <- neg_infinity

let hist_reset h = Mutex.protect h.h_mu (fun () -> hist_reset_unlocked h)

let reset_all reg =
  List.iter
    (fun m ->
      match m.m_inst with
      | Counter c -> Atomic.set c.c_value 0
      | Gauge g -> Atomic.set g.g_value 0.0
      | Histogram h -> hist_reset h)
    (Mutex.protect reg.mu (fun () -> reg.metrics))

let bucket_percentile ~range ~(bounds : float array) ~(counts : int array)
    (p : float) : float =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Float.nan
  else begin
    let n = Array.length bounds in
    (* how far the +Inf bucket reaches *)
    let top = match range with Some (_, hi) -> hi | None -> bounds.(n - 1) in
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int total in
    let rec go i cum =
      if i > n then top
      else
        let cum' = cum + counts.(i) in
        if float_of_int cum' >= rank && counts.(i) > 0 then
          (* interpolate linearly inside bucket i *)
          let lo = if i = 0 then 0.0 else bounds.(i - 1) in
          let hi = if i = n then top else bounds.(i) in
          let inside = rank -. float_of_int cum in
          lo +. ((hi -. lo) *. (inside /. float_of_int counts.(i)))
        else go (i + 1) cum'
    in
    let estimate = go 0 0 in
    match range with
    | Some (lo, hi) -> Float.max lo (Float.min hi estimate)
    | None -> estimate
  end

(* clamped to the observed range: a single sample answers exactly itself *)
let percentile_unlocked h p =
  if h.h_count = 0 then 0.0
  else
    bucket_percentile ~range:(Some (h.h_min, h.h_max)) ~bounds:h.h_bounds
      ~counts:h.h_counts p

let percentile h p = Mutex.protect h.h_mu (fun () -> percentile_unlocked h p)

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)
(* ------------------------------------------------------------------ *)

type sample = { s_name : string; s_kind : string; s_value : float }

let snapshot reg : sample list =
  List.rev (Mutex.protect reg.mu (fun () -> reg.metrics))
  |> List.concat_map (fun m ->
         let full = key m.m_name m.m_labels in
         match m.m_inst with
         | Counter c ->
             [
               {
                 s_name = full;
                 s_kind = "counter";
                 s_value = float_of_int (Atomic.get c.c_value);
               };
             ]
         | Gauge g ->
             [ { s_name = full; s_kind = "gauge"; s_value = Atomic.get g.g_value } ]
         | Histogram h ->
             let facet suffix v =
               {
                 s_name = key (m.m_name ^ suffix) m.m_labels;
                 s_kind = "histogram";
                 s_value = v;
               }
             in
             Mutex.protect h.h_mu (fun () ->
                 [
                   facet "_count" (float_of_int h.h_count);
                   facet "_sum" h.h_sum;
                   facet "_p50" (percentile_unlocked h 50.0);
                   facet "_p95" (percentile_unlocked h 95.0);
                   facet "_p99" (percentile_unlocked h 99.0);
                 ]))

let relation ?n reg =
  Relation.make ?n
    Relation.
      [
        str "name" (fun s -> s.s_name);
        str "kind" (fun s -> s.s_kind);
        float "value" (fun s -> s.s_value);
      ]
    (snapshot reg)

(* raw (bucket-level) view of one instrument — what the time-series
   ring snapshots so later readers can compute deltas *)
type raw =
  | Raw_counter of int
  | Raw_gauge of float
  | Raw_hist of float array * int array

(** Every instrument's raw value keyed by [name{labels}], in
    registration order. A histogram comes out as its bounds (shared,
    never mutated) and a copy of its bucket counts, taken under its own
    lock — the time-series ring stores these and derives per-window
    rates and percentiles from consecutive snapshots' deltas. *)
let raw_snapshot reg : (string * raw) list =
  List.rev (Mutex.protect reg.mu (fun () -> reg.metrics))
  |> List.map (fun m ->
         let full = key m.m_name m.m_labels in
         match m.m_inst with
         | Counter c -> (full, Raw_counter (Atomic.get c.c_value))
         | Gauge g -> (full, Raw_gauge (Atomic.get g.g_value))
         | Histogram h ->
             ( full,
               Mutex.protect h.h_mu (fun () ->
                   Raw_hist (h.h_bounds, Array.copy h.h_counts)) ))

let exposition reg : Relation.t =
  Relation.samples
    (List.rev (Mutex.protect reg.mu (fun () -> reg.metrics))
    |> List.concat_map (fun m ->
           let sample ?(suffix = "") ?(labels = m.m_labels) value =
             Relation.
               {
                 p_family = m.m_name;
                 p_type = kind_name m.m_inst;
                 p_help = m.m_help;
                 p_suffix = suffix;
                 p_labels = labels;
                 p_value = value;
               }
           in
           match m.m_inst with
           | Counter c ->
               [ sample (float_of_int (Atomic.get c.c_value)) ]
           | Gauge g -> [ sample (Atomic.get g.g_value) ]
           | Histogram h ->
               Mutex.protect h.h_mu (fun () ->
                   let n = Array.length h.h_bounds in
                   (* the exposition's buckets are cumulative *)
                   let cum = Array.copy h.h_counts in
                   for i = 1 to n do
                     cum.(i) <- cum.(i - 1) + cum.(i)
                   done;
                   List.init (n + 1) (fun i ->
                       let le =
                         Relation.prometheus_float
                           (if i = n then Float.infinity else h.h_bounds.(i))
                       in
                       sample ~suffix:"_bucket"
                         ~labels:(m.m_labels @ [ ("le", le) ])
                         (float_of_int cum.(i)))
                   @ [
                       sample ~suffix:"_sum" h.h_sum;
                       sample ~suffix:"_count" (float_of_int h.h_count);
                     ])))
