(* The traced run: per-layer attribution measured from outside the
   program. The benchmark owns three spans per request (client encode,
   Endpoint.feed, client decode) under a request span, and reads public
   state between requests: the engine's stage timer (reset before every
   request), registry counters and histograms, the backend statement log,
   pgdb's executor and statement-cache counters, and the operator trees
   ANALYZE leaves on the coordinator and shard sessions. *)

module P = Platform.Hyperq_platform
module M = Obs.Metrics
module T = Hyperq.Stage_timer

(* instruments and handles read between requests *)
type probe = {
  engine : Hyperq.Engine.t;
  endpoint : Platform.Endpoint.t;
  session : Pgdb.Db.session;
  cluster : Shard.Cluster.t option;
  pc_hits : M.counter;
  pc_misses : M.counter;
  pc_bypass : M.counter;
  backend_exec : M.histogram;  (** the coordinator gateway's round trips *)
  pg_in : M.counter list;  (** every gateway: coordinator and shards *)
  (* shard instruments exist only on a sharded platform; reading state
     must not register new series *)
  dispatch : M.histogram array;  (** per shard *)
  shard_alloc : M.counter array;
      (** per shard: bytes the worker domain allocated; [Gc] counters of
          this domain miss them *)
  routes : M.counter array;  (** router, scatter, coordinator *)
}

let probe (s : Harness.setup) : probe =
  let conn = s.Harness.client.P.Client.conn in
  let reg = (P.obs s.Harness.platform).Obs.Ctx.registry in
  let cluster = P.cluster s.Harness.platform in
  let shards = Option.fold ~none:0 ~some:Shard.Cluster.shard_count cluster in
  let shard_label k = [ ("shard", string_of_int k) ] in
  {
    engine = Platform.Xc.engine conn.P.xc;
    endpoint = conn.P.endpoint;
    session = conn.P.session;
    cluster;
    pc_hits = M.counter reg "hq_plan_cache_hits_total";
    pc_misses = M.counter reg "hq_plan_cache_misses_total";
    pc_bypass = M.counter reg "hq_plan_cache_bypass_total";
    backend_exec = M.histogram reg "hq_backend_exec_seconds";
    pg_in =
      M.counter reg "hq_pgwire_bytes_in"
      :: List.init shards (fun k ->
             M.counter reg ~labels:(shard_label k) "hq_pgwire_bytes_in");
    dispatch =
      Array.init shards (fun k ->
          M.histogram reg ~labels:(shard_label k) "hq_shard_dispatch_seconds");
    shard_alloc =
      Array.init shards (fun k ->
          M.counter reg ~labels:(shard_label k) "hq_shard_alloc_bytes");
    routes =
      (if shards = 0 then [||]
       else
         Array.map
           (fun r ->
             M.counter reg ~labels:[ ("route", r) ] "hq_shard_queries_total")
           [| "router"; "scatter"; "coordinator" |]);
  }

(* public state at one instant; a request's cost is the difference of
   the readings around it *)
type reading = {
  pc_hits : int;
  pc_misses : int;
  pc_bypass : int;
  backend_s : float;
  statements : int;
  pg_in : int;
  vector : int;
  row : int;
  sc_hits : int;
  sc_misses : int;
  dispatch : float array;
  routes : int array;
  alloc : float;  (** this domain and the shard worker domains *)
  minor : int;
}

let read (p : probe) : reading =
  let sc_hits, sc_misses, _ = Pgdb.Db.stmt_cache_stats () in
  {
    pc_hits = M.counter_value p.pc_hits;
    pc_misses = M.counter_value p.pc_misses;
    pc_bypass = M.counter_value p.pc_bypass;
    backend_s = M.hist_sum p.backend_exec;
    statements = Platform.Endpoint.sql_statement_count p.endpoint;
    pg_in = List.fold_left (fun a c -> a + M.counter_value c) 0 p.pg_in;
    vector = Atomic.get Pgdb.Vexec.stats_vector;
    row = Atomic.get Pgdb.Vexec.stats_row;
    sc_hits;
    sc_misses;
    dispatch = Array.map M.hist_sum p.dispatch;
    routes =
      (if Array.length p.routes = 0 then [| 0; 0; 0 |]
       else Array.map M.counter_value p.routes);
    alloc =
      Array.fold_left
        (fun a c -> a +. float_of_int (M.counter_value c))
        (Gc.allocated_bytes ()) p.shard_alloc;
    minor = (Gc.quick_stat ()).Gc.minor_collections;
  }

let delta (a : reading) (b : reading) : reading =
  {
    pc_hits = b.pc_hits - a.pc_hits;
    pc_misses = b.pc_misses - a.pc_misses;
    pc_bypass = b.pc_bypass - a.pc_bypass;
    backend_s = b.backend_s -. a.backend_s;
    statements = b.statements - a.statements;
    pg_in = b.pg_in - a.pg_in;
    vector = b.vector - a.vector;
    row = b.row - a.row;
    sc_hits = b.sc_hits - a.sc_hits;
    sc_misses = b.sc_misses - a.sc_misses;
    dispatch = Array.map2 ( -. ) b.dispatch a.dispatch;
    routes = Array.map2 ( - ) b.routes a.routes;
    alloc = b.alloc -. a.alloc;
    minor = b.minor - a.minor;
  }

(** One traced request. Stamps are ns since the traced phase began, one
    clock read each: request start, encode start/end, feed start/end,
    decode start/end, request end. The gaps between child spans are the
    harness's own time, what [trace.unattributed_pct] reports. *)
type sample = {
  shape : int;
  stamps : int64 array;
  reply_bytes : int;
  stages : float array;  (** seconds per {!T.all_stages} entry *)
  d : reading;  (** state deltas across the request *)
  coord_op_s : float;  (** operator time of the coordinator's plan *)
  shard_op_s : float;  (** operator time summed over shard plans *)
  ok : bool;
}

let stage_index s =
  let rec go i = function
    | [] -> invalid_arg "stage_index"
    | x :: rest -> if x = s then i else go (i + 1) rest
  in
  go 0 T.all_stages

let set_analyze (p : probe) (on : bool) : unit =
  Pgdb.Db.set_analyze p.session on;
  Option.iter (fun c -> Shard.Cluster.set_analyze c on) p.cluster

let op_s (n : Pgdb.Opstats.node option) : float =
  match n with
  | Some n -> Int64.to_float (Pgdb.Opstats.total_ns n) /. 1e9
  | None -> 0.0

(** Run one request under the bench-owned spans. ANALYZE is switched off
    and on again first, which clears the trees of the previous request. *)
let traced_request (p : probe) (c : P.Client.client) ~(base : int64)
    ~(shape : int) (r : Workloads.request) : sample =
  let timer = Hyperq.Engine.timer p.engine in
  T.reset timer;
  set_analyze p false;
  set_analyze p true;
  let r0 = read p in
  let now = Obs.Clock.now_ns in
  let t0 = now () in
  let e0 = now () in
  let msg = Harness.encode r.Workloads.text in
  let e1 = now () in
  let f0 = now () in
  let reply = Platform.Endpoint.feed (Harness.endpoint c) msg in
  let f1 = now () in
  let d0 = now () in
  let v = Harness.decode reply in
  let d1 = now () in
  let t1 = now () in
  let r1 = read p in
  let shard_plans =
    match p.cluster with
    | Some cl -> Shard.Cluster.last_shard_plans cl
    | None -> []
  in
  {
    shape;
    stamps =
      Array.map (fun t -> Int64.sub t base) [| t0; e0; e1; f0; f1; d0; d1; t1 |];
    reply_bytes = String.length reply;
    stages = Array.of_list (List.map (T.total timer) T.all_stages);
    d = delta r0 r1;
    coord_op_s = op_s (Pgdb.Db.last_plan p.session);
    shard_op_s =
      List.fold_left (fun a (_, n) -> a +. op_s n) 0.0 shard_plans;
    ok = Harness.reply_ok r v;
  }

let span_s (s : sample) i j = Int64.to_float (Int64.sub s.stamps.(j) s.stamps.(i)) /. 1e9
let wall_s s = span_s s 0 7
let client_s s = span_s s 1 2 +. span_s s 5 6
let feed_s s = span_s s 3 4
let stage_s s st = s.stages.(stage_index st)

(* the four stages of translation, the paper's Fig. 7 split *)
let translation = [| T.Parse; T.Algebrize; T.Optimize; T.Serialize |]

let translate_s s =
  Array.fold_left (fun a st -> a +. stage_s s st) 0.0 translation

let dispatch_max s = Array.fold_left Float.max 0.0 s.d.dispatch
let dispatch_sum s = Array.fold_left ( +. ) 0.0 s.d.dispatch

type traced = {
  samples : sample array;
  traced_qps : float;
  untraced_qps : float;
  requests : int;  (** traced and untraced *)
  errors : int;
}

(** Alternate traced and untraced shape cycles until [requests] requests
    were served (at least one cycle of each), so the overhead compares
    like with like. The stage timer and ANALYZE are only touched in
    traced cycles. *)
let traced_phase (s : Harness.setup) (w : Workloads.t) ~(requests : int) :
    traced =
  let p = probe s in
  let shapes = Workloads.shapes w in
  let n = Array.length s.Harness.reqs in
  let samples = ref [] and errors = ref 0 in
  let time = [| 0.0; 0.0 |] and count = [| 0; 0 |] in
  let base = Obs.Clock.now_ns () in
  let cycle = ref 0 in
  while !cycle < 2 || !cycle * shapes < requests do
    let traced = !cycle mod 2 = 0 in
    if not traced then set_analyze p false;
    let c0 = Obs.Clock.now_ns () in
    for k = 0 to shapes - 1 do
      let r = s.Harness.reqs.(((!cycle * shapes) + k) mod n) in
      let ok =
        if traced then begin
          let x = traced_request p s.Harness.client ~base ~shape:k r in
          samples := x :: !samples;
          x.ok
        end
        else Harness.reply_ok r (snd (Harness.exchange s.Harness.client r.Workloads.text))
      in
      if not ok then incr errors
    done;
    let m = if traced then 0 else 1 in
    time.(m) <- time.(m) +. Obs.Clock.seconds_since c0;
    count.(m) <- count.(m) + shapes;
    incr cycle
  done;
  set_analyze p false;
  {
    samples = Array.of_list (List.rev !samples);
    traced_qps = float_of_int count.(0) /. time.(0);
    untraced_qps = float_of_int count.(1) /. time.(1);
    requests = count.(0) + count.(1);
    errors = !errors;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(** [(name, unit)] of every per-layer metric, in report order. *)
let specs : (string * string) list =
  [
    ("client.qipc_us", "us");
    ("client.reply_kb", "KiB");
    ("endpoint.self_us", "us");
    ("hyperq.parse_us", "us");
    ("hyperq.algebrize_us", "us");
    ("hyperq.optimize_us", "us");
    ("hyperq.serialize_us", "us");
    ("hyperq.translate_pct", "%");
    ("hyperq.pivot_us", "us");
    ("plancache.hit_ratio", "ratio");
    ("backend.roundtrip_us", "us");
    ("backend.statements", "count");
    ("pgdb.operator_us", "us");
    ("pgwire.us", "us");
    ("pgwire.bytes_in_kb", "KiB");
    ("pgdb.vector_ratio", "ratio");
    ("pgdb.stmt_cache_hit_ratio", "ratio");
    ("shard.dispatch_max_us", "us");
    ("shard.dispatch_sum_us", "us");
    ("shard.fanout_us", "us");
    ("shard.parallel_eff", "ratio");
    ("shard.routed_ratio", "ratio");
    ("shard.scatter_ratio", "ratio");
    ("gc.alloc_kb", "KiB");
    ("gc.minor_per_kreq", "count");
    ("trace.unattributed_pct", "%");
    ("trace.overhead_pct", "%");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(** Every per-layer metric as [(name, value)], means per request unless
    the name says otherwise. *)
let metrics ~(shards : int) (t : traced) : (string * float) list =
  let xs = t.samples in
  let n = float_of_int (max 1 (Array.length xs)) in
  let sum f = Array.fold_left (fun a x -> a +. f x) 0.0 xs in
  let isum f = sum (fun x -> float_of_int (f x)) in
  let mean_us f = sum f /. n *. 1e6 in
  let stage st = mean_us (fun s -> stage_s s st) in
  let wall = sum wall_s in
  let dispatched s = dispatch_sum s > 0.0 in
  let exec_dispatched =
    sum (fun s -> if dispatched s then stage_s s T.Execute else 0.0)
  in
  let routes = Array.init 3 (fun k -> isum (fun s -> s.d.routes.(k))) in
  let routed_total = routes.(0) +. routes.(1) +. routes.(2) in
  let cache = isum (fun s -> s.d.pc_hits + s.d.pc_misses + s.d.pc_bypass) in
  [
    ("client.qipc_us", mean_us client_s);
    ("client.reply_kb", isum (fun s -> s.reply_bytes) /. n /. 1024.0);
    ( "endpoint.self_us",
      mean_us (fun s -> feed_s s -. Array.fold_left ( +. ) 0.0 s.stages) );
    ("hyperq.parse_us", stage T.Parse);
    ("hyperq.algebrize_us", stage T.Algebrize);
    ("hyperq.optimize_us", stage T.Optimize);
    ("hyperq.serialize_us", stage T.Serialize);
    ("hyperq.translate_pct", 100.0 *. ratio (sum translate_s) wall);
    ("hyperq.pivot_us", stage T.Pivot);
    ("plancache.hit_ratio", ratio (isum (fun s -> s.d.pc_hits)) cache);
    ("backend.roundtrip_us", mean_us (fun s -> s.d.backend_s));
    ("backend.statements", isum (fun s -> s.d.statements) /. n);
    ("pgdb.operator_us", mean_us (fun s -> s.coord_op_s +. s.shard_op_s));
    ("pgwire.us", mean_us (fun s -> s.d.backend_s -. s.coord_op_s));
    ("pgwire.bytes_in_kb", isum (fun s -> s.d.pg_in) /. n /. 1024.0);
    ( "pgdb.vector_ratio",
      ratio (isum (fun s -> s.d.vector)) (isum (fun s -> s.d.vector + s.d.row))
    );
    ( "pgdb.stmt_cache_hit_ratio",
      ratio
        (isum (fun s -> s.d.sc_hits))
        (isum (fun s -> s.d.sc_hits + s.d.sc_misses)) );
    ("shard.dispatch_max_us", mean_us dispatch_max);
    ("shard.dispatch_sum_us", mean_us dispatch_sum);
    ( "shard.fanout_us",
      mean_us (fun s ->
          if dispatched s then stage_s s T.Execute -. dispatch_max s else 0.0) );
    ( "shard.parallel_eff",
      ratio (sum dispatch_sum) (float_of_int shards *. exec_dispatched) );
    ("shard.routed_ratio", ratio routes.(0) routed_total);
    ("shard.scatter_ratio", ratio routes.(1) routed_total);
    ("gc.alloc_kb", sum (fun s -> s.d.alloc) /. n /. 1024.0);
    ("gc.minor_per_kreq", isum (fun s -> s.d.minor) /. n *. 1000.0);
    ( "trace.unattributed_pct",
      100.0 *. ratio (wall -. sum client_s -. sum feed_s) wall );
    ( "trace.overhead_pct",
      100.0 *. ratio (t.untraced_qps -. t.traced_qps) t.untraced_qps );
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 6/7 re-check and the span dump                                 *)
(* ------------------------------------------------------------------ *)

(** Per-query translate vs execute and the four-stage split of the
    traced analytical run, next to the paper's numbers. *)
let print_fig6 (w : Workloads.t) (d : Workload.Marketdata.dataset)
    (t : traced) : unit =
  let names =
    Array.of_list
      (List.map
         (fun q ->
           Printf.sprintf "Q%02d %s" q.Workload.Analytical.id
             q.Workload.Analytical.name)
         (Workload.Analytical.queries d))
  in
  let shapes = Workloads.shapes w in
  Printf.printf
    "Fig. 6/7 re-check: in-process CPU time on this machine, no dispatch \
     floor, plan cache on\n";
  Printf.printf "%-46s %5s %12s %12s %9s\n" "query" "runs" "translate_us"
    "execute_us" "overhead";
  let overheads = ref [] in
  let split = Array.make 4 0.0 in
  for k = 0 to shapes - 1 do
    let xs = List.filter (fun s -> s.shape = k) (Array.to_list t.samples) in
    let runs = float_of_int (max 1 (List.length xs)) in
    let mean f = List.fold_left (fun a s -> a +. f s) 0.0 xs /. runs in
    let tr = mean translate_s and ex = mean (fun s -> stage_s s T.Execute) in
    Array.iteri
      (fun i st -> split.(i) <- split.(i) +. mean (fun s -> stage_s s st))
      translation;
    let pct = 100.0 *. ratio tr (tr +. ex) in
    overheads := pct :: !overheads;
    Printf.printf "%-46s %5d %12.1f %12.1f %8.2f%%\n" names.(k)
      (List.length xs) (tr *. 1e6) (ex *. 1e6) pct
  done;
  let os = !overheads in
  Printf.printf
    "average overhead %.2f%% (paper: ~0.5%%), max %.2f%% (paper: ~4%%)\n"
    (List.fold_left ( +. ) 0.0 os /. float_of_int (List.length os))
    (List.fold_left Float.max 0.0 os);
  let total = Array.fold_left ( +. ) 0.0 split in
  Printf.printf
    "translation split: parse %.1f%%, algebrize %.1f%%, optimize %.1f%%, \
     serialize %.1f%% (paper: optimize and serialize dominate)\n"
    (100.0 *. ratio split.(0) total)
    (100.0 *. ratio split.(1) total)
    (100.0 *. ratio split.(2) total)
    (100.0 *. ratio split.(3) total)

(** Write the traced requests as JSONL, one request per line: the request
    span and its three children (start/end in us since the traced phase
    began, parent by name), the stage totals and the state deltas. *)
let write_jsonl (path : string) (w : Workloads.t) (t : traced) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iteri
        (fun id s ->
          let us i = Int64.to_float s.stamps.(i) /. 1e3 in
          let span name parent i j =
            Printf.sprintf
              "{\"name\":\"%s\",\"parent\":%s,\"start_us\":%.3f,\"end_us\":%.3f}"
              name parent (us i) (us j)
          in
          let stages =
            String.concat ","
              (List.map
                 (fun st ->
                   Printf.sprintf "\"%s\":%.3f" (T.stage_name st)
                     (stage_s s st *. 1e6))
                 T.all_stages)
          in
          Printf.fprintf oc
            "{\"request\":%d,\"shape\":\"%s\",\"ok\":%b,\"spans\":[%s,%s,%s,%s],\"stages_us\":{%s},\"reply_bytes\":%d,\"plan_cache\":[%d,%d,%d],\"backend_us\":%.3f,\"statements\":%d,\"operator_us\":%.3f,\"pgwire_bytes_in\":%d,\"shard_dispatch_us\":[%s],\"alloc_bytes\":%.0f}\n"
            id w.Workloads.shape_names.(s.shape) s.ok
            (span "request" "null" 0 7)
            (span "client.encode" "\"request\"" 1 2)
            (span "endpoint.feed" "\"request\"" 3 4)
            (span "client.decode" "\"request\"" 5 6)
            stages s.reply_bytes s.d.pc_hits s.d.pc_misses s.d.pc_bypass
            (s.d.backend_s *. 1e6) s.d.statements
            ((s.coord_op_s +. s.shard_op_s) *. 1e6)
            s.d.pg_in
            (String.concat ","
               (Array.to_list
                  (Array.map (fun x -> Printf.sprintf "%.3f" (x *. 1e6))
                     s.d.dispatch)))
            s.d.alloc)
        t.samples)
