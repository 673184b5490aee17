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

let with_mu mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

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

(* Prometheus exposition escaping for label values: only backslash,
   double-quote and newline are special. OCaml's %S is close but wrong —
   it emits decimal escapes (\027) for control characters and escapes
   characters Prometheus treats as literal, producing lines scrapers
   reject once a fingerprint or detail label carries one *)
let escape_label_value s =
  let plain = ref true in
  String.iter
    (fun c -> match c with '\\' | '"' | '\n' -> plain := false | _ -> ())
    s;
  if !plain then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let label_str labels =
  match labels with
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             ls)
      ^ "}"

let key name labels = name ^ label_str labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register reg ?(help = "") ?(labels = []) name (make : unit -> instrument)
    (extract : instrument -> 'a option) : 'a =
  let k = key name labels in
  with_mu reg.mu (fun () ->
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

let histogram reg ?help ?labels ?(buckets = default_buckets) name =
  register reg ?help ?labels name
    (fun () ->
      Histogram
        {
          h_mu = Mutex.create ();
          h_bounds = Array.copy buckets;
          h_counts = Array.make (Array.length buckets + 1) 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
        })
    (function Histogram h -> Some h | _ -> None)

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

let observe h v =
  let i = bucket_index h v in
  with_mu h.h_mu (fun () ->
      h.h_counts.(i) <- h.h_counts.(i) + 1;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v)

let hist_count h = with_mu h.h_mu (fun () -> h.h_count)
let hist_sum h = with_mu h.h_mu (fun () -> h.h_sum)

let hist_reset_unlocked h =
  Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
  h.h_count <- 0;
  h.h_sum <- 0.0;
  h.h_min <- infinity;
  h.h_max <- neg_infinity

let hist_reset h = with_mu h.h_mu (fun () -> hist_reset_unlocked h)

let reset_all reg =
  List.iter
    (fun m ->
      match m.m_inst with
      | Counter c -> Atomic.set c.c_value 0
      | Gauge g -> Atomic.set g.g_value 0.0
      | Histogram h -> hist_reset h)
    (with_mu reg.mu (fun () -> reg.metrics))

let percentile_unlocked (h : histogram) (p : float) : float =
  if h.h_count = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int h.h_count in
    let n = Array.length h.h_bounds in
    let estimate =
      let rec go i cum =
        if i > n then h.h_max
        else
          let cum' = cum + h.h_counts.(i) in
          if float_of_int cum' >= rank && h.h_counts.(i) > 0 then
            (* interpolate linearly inside bucket i *)
            let lo = if i = 0 then 0.0 else h.h_bounds.(i - 1) in
            let hi = if i = n then h.h_max else h.h_bounds.(i) in
            let inside = rank -. float_of_int cum in
            lo +. (hi -. lo) *. (inside /. float_of_int h.h_counts.(i))
          else go (i + 1) cum'
      in
      go 0 0
    in
    (* clamp to observed range: a single sample answers exactly itself *)
    Float.max h.h_min (Float.min h.h_max estimate)
  end

let percentile h p = with_mu h.h_mu (fun () -> percentile_unlocked h p)

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)
(* ------------------------------------------------------------------ *)

type sample = { s_name : string; s_kind : string; s_value : float }

let snapshot reg : sample list =
  List.rev (with_mu reg.mu (fun () -> reg.metrics))
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
             with_mu h.h_mu (fun () ->
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
type hist_view = {
  hv_bounds : float array;  (** shared with the histogram, never mutated *)
  hv_counts : int array;  (** copy, length = bounds + 1 (+Inf bucket) *)
  hv_count : int;
  hv_sum : float;
}

type raw =
  | Raw_counter of int
  | Raw_gauge of float
  | Raw_hist of hist_view

(** Every instrument's raw value keyed by [name{labels}], in
    registration order. Histograms come out as a consistent
    (bounds, bucket counts, count, sum) view taken under the
    histogram's own lock — the time-series ring stores these and
    derives per-window rates and percentiles from consecutive
    snapshots' deltas. *)
let raw_snapshot reg : (string * raw) list =
  List.rev (with_mu reg.mu (fun () -> reg.metrics))
  |> List.map (fun m ->
         let full = key m.m_name m.m_labels in
         match m.m_inst with
         | Counter c -> (full, Raw_counter (Atomic.get c.c_value))
         | Gauge g -> (full, Raw_gauge (Atomic.get g.g_value))
         | Histogram h ->
             ( full,
               Raw_hist
                 (with_mu h.h_mu (fun () ->
                      {
                        hv_bounds = h.h_bounds;
                        hv_counts = Array.copy h.h_counts;
                        hv_count = h.h_count;
                        hv_sum = h.h_sum;
                      })) ))

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_prometheus reg : string =
  let buf = Buffer.create 1024 in
  let metrics = List.rev (with_mu reg.mu (fun () -> reg.metrics)) in
  (* help text per family: the first non-empty help among every series
     of the name wins, so labeled families registered without help
     (e.g. the per-shard wire counters) still render a HELP line when
     any sibling carries one *)
  let family_help = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if m.m_help <> "" && not (Hashtbl.mem family_help m.m_name) then
        Hashtbl.add family_help m.m_name m.m_help)
    metrics;
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if not (Hashtbl.mem seen_header m.m_name) then begin
        Hashtbl.add seen_header m.m_name ();
        (match Hashtbl.find_opt family_help m.m_name with
        | Some help ->
            Buffer.add_string buf
              (Printf.sprintf "# HELP %s %s\n" m.m_name help)
        | None -> ());
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" m.m_name (kind_name m.m_inst))
      end;
      match m.m_inst with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" m.m_name (label_str m.m_labels)
               (Atomic.get c.c_value))
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" m.m_name (label_str m.m_labels)
               (float_str (Atomic.get g.g_value)))
      | Histogram h ->
          with_mu h.h_mu (fun () ->
              let n = Array.length h.h_bounds in
              let cum = ref 0 in
              for i = 0 to n do
                cum := !cum + h.h_counts.(i);
                let le =
                  if i = n then "+Inf" else float_str h.h_bounds.(i)
                in
                let labels = m.m_labels @ [ ("le", le) ] in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" m.m_name
                     (label_str labels) !cum)
              done;
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %g\n" m.m_name
                   (label_str m.m_labels) h.h_sum);
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" m.m_name
                   (label_str m.m_labels) h.h_count)))
    metrics;
  Buffer.contents buf
