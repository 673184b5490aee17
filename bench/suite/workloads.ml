(* The benchmark's five traffic mixes. Each workload is a seeded
   generator: a dataset scale, setup statements run once per connection,
   and a shape cycle of Q requests whose literals are drawn from the seed
   and the generated dataset. The platform only ever sees the generated
   text. *)

module MD = Workload.Marketdata
module AW = Workload.Analytical

type request = {
  text : string;
  unit_reply : bool;
      (** an assignment or definition: the endpoint must answer with the
          unit reply, there is no result to compare *)
}

type t = {
  name : string;
  scale : MD.scale;
  shards : int;  (** 1 = single node; otherwise shards = worker domains *)
  rate : int;
      (** requests per second of run length: a run of [--seconds S]
          times a fixed [rate * S] requests ({!timed_requests}), about S
          seconds of work on the reference machine *)
  setup : MD.dataset -> string list;
      (** run on every connection before its first request *)
  shape_names : string array;
      (** one label per request of a cycle; the cycle length *)
  cycle : MD.dataset -> Random.State.t -> request array;
      (** [cycle d] prepares once per dataset; applied to a state it
          returns one shape cycle with literals drawn from that state *)
}

let query text = { text; unit_reply = false }
let assign text = { text; unit_reply = true }
let pick rng (a : 'a array) : 'a = a.(Random.State.int rng (Array.length a))

(* [k] distinct symbols in a random order *)
let distinct_syms rng (d : MD.dataset) (k : int) : string list =
  let rec go acc =
    if List.length acc = k then acc
    else
      let s = pick rng d.MD.syms in
      go (if List.mem s acc then acc else s :: acc)
  in
  go []

let sym_list syms = String.concat "" (List.map (fun s -> "`" ^ s) syms)

let sorted_prices (d : MD.dataset) : float array =
  let a = Array.map (fun t -> t.MD.t_price) d.MD.trades in
  Array.sort compare a;
  a

(* a price drawn from the [lo, hi) quantile range of all trade prices *)
let price_quantile rng (prices : float array) ~lo ~hi : float =
  let n = Array.length prices in
  let a = int_of_float (lo *. float_of_int n) in
  let b = max (a + 1) (int_of_float (hi *. float_of_int n)) in
  prices.(min (n - 1) (a + Random.State.int rng (b - a)))

let q_time ms =
  Printf.sprintf "%02d:%02d:%02d.%03d" (ms / 3_600_000)
    (ms / 60_000 mod 60)
    (ms / 1000 mod 60)
    (ms mod 1000)

let open_ms = (9 * 3600 * 1000) + (30 * 60 * 1000)

(* ------------------------------------------------------------------ *)
(* The five workloads                                                  *)
(* ------------------------------------------------------------------ *)

(* the paper's own 25 queries on 510-column reference tables: the Fig. 6
   re-check, where translation of 3-4 way joins and the row interpreter
   do the work *)
let analytical =
  {
    name = "analytical";
    scale =
      { MD.symbols = 25; trades_per_symbol = 16; quotes_per_symbol = 32;
        wide_columns = 510 };
    shards = 1;
    rate = 48;
    setup = (fun d -> List.concat_map (fun q -> q.AW.setup) (AW.queries d));
    shape_names = Array.init 25 (fun i -> Printf.sprintf "Q%02d" (i + 1));
    cycle =
      (fun d ->
        let c = List.map (fun q -> query q.AW.text) (AW.queries d) in
        fun _ -> Array.of_list c);
  }

(* repeated parameterized shapes over a tiny dataset: plan-cache hits and
   tiny results leave the fixed per-request cost (codecs, endpoint
   bookkeeping, template splice, a short PG round trip) *)
let dashboard =
  {
    name = "dashboard";
    scale = MD.small_scale;
    shards = 1;
    rate = 8_000;
    setup = (fun _ -> []);
    shape_names =
      [| "one symbol's ticks"; "filtered scalar sum"; "last by Symbol over in";
         "min/max by Exch" |];
    cycle =
      (fun d ->
        let prices = sorted_prices d in
        fun rng ->
          [|
            query
              (Printf.sprintf "select from trades where Symbol=`%s"
                 (pick rng d.MD.syms));
            query
              (Printf.sprintf "select s:sum Size from trades where Price>%.2f"
                 (price_quantile rng prices ~lo:0.1 ~hi:0.9));
            query
              (Printf.sprintf
                 "select last Price by Symbol from trades where Symbol in %s"
                 (sym_list (distinct_syms rng d 3)));
            query
              (Printf.sprintf
                 "select lo:min Price, hi:max Price by Exch from trades where \
                  Size>%d"
                 (100 * (1 + Random.State.int rng 40)));
          |]);
  }

(* large results: the PG v3 row stream, the pivot and the QIPC encode do
   the work; translation is cached and pgdb runs simple scans *)
let tick_extract =
  {
    name = "tick_extract";
    scale =
      { MD.symbols = 16; trades_per_symbol = 1000; quotes_per_symbol = 1000;
        wide_columns = 40 };
    shards = 1;
    rate = 56;
    setup = (fun _ -> []);
    shape_names =
      [| "one symbol's trades"; "3-hour quote window"; "one symbol above a size";
         "cross-symbol price band" |];
    cycle =
      (fun d ->
        let prices = sorted_prices d in
        fun rng ->
          let start = open_ms + Random.State.int rng (3 * 3600 * 1000) in
          (* a band holding ~1,000 trades, whatever the seed's price paths *)
          let k = Random.State.int rng (Array.length prices - 1000) in
          [|
            query
              (Printf.sprintf "select from trades where Symbol=`%s"
                 (pick rng d.MD.syms));
            query
              (Printf.sprintf
                 "select Time, Bid, Ask, BSize, ASize from quotes where \
                  Symbol=`%s, Time within %s %s"
                 (pick rng d.MD.syms) (q_time start)
                 (q_time (start + (3 * 3600 * 1000))));
            query
              (Printf.sprintf "select from trades where Symbol=`%s, Size>%d"
                 (pick rng d.MD.syms)
                 (100 * Random.State.int rng 25));
            query
              (Printf.sprintf
                 "select Symbol, Time, Price from trades where Price within \
                  %.2f %.2f"
                 prices.(k)
                 prices.(k + 999));
          |]);
  }

(* the only workload through the shard router, the pool fan-out and the
   gather; small results keep the PG wire out of the way. Nine shapes, not
   eight: with an even count the median request falls in the gap between
   the cheap routed reads and the costly scatters, and moves with their
   tails. *)
let sharded_agg =
  {
    name = "sharded_agg";
    scale =
      { MD.symbols = 16; trades_per_symbol = 4000; quotes_per_symbol = 2000;
        wide_columns = 40 };
    shards = 2;
    rate = 240;
    setup = (fun _ -> []);
    shape_names =
      [| "partial agg by Symbol"; "partial agg by Exch"; "scalar agg trades";
         "avg spread by Symbol"; "routed one symbol"; "two-symbol in scatter";
         "ordered-merge scan"; "scalar agg quotes";
         "routed one symbol's quotes" |];
    cycle =
      (fun d ->
        let prices = sorted_prices d in
        fun rng ->
          let size () = 100 * (1 + Random.State.int rng 45) in
          [|
            query
              (Printf.sprintf
                 "select n:count Price, qty:sum Size, hi:max Price by Symbol \
                  from trades where Price>%.2f"
                 (price_quantile rng prices ~lo:0.1 ~hi:0.9));
            query
              (Printf.sprintf
                 "select lo:min Price, hi:max Price, qty:sum Size by Exch from \
                  trades where Size>%d"
                 (size ()));
            query
              (Printf.sprintf
                 "select n:count Price, px:avg Price from trades where Size>%d"
                 (size ()));
            query
              (Printf.sprintf
                 "select sp:avg Ask-Bid by Symbol from quotes where ASize>%d"
                 (100 * (1 + Random.State.int rng 18)));
            query
              (Printf.sprintf
                 "select qty:sum Size, px:avg Price by Exch from trades where \
                  Symbol=`%s"
                 (pick rng d.MD.syms));
            query
              (Printf.sprintf
                 "select n:count Price, lo:min Price by Symbol from trades \
                  where Symbol in %s"
                 (sym_list (distinct_syms rng d 2)));
            (* Size>4900 keeps 1 trade in 50 and the price floor about a
               quarter of those: a few hundred rows *)
            query
              (Printf.sprintf
                 "select Symbol, Time, Price from trades where Size>4900, \
                  Price>%.2f"
                 (price_quantile rng prices ~lo:0.7 ~hi:0.8));
            query
              (Printf.sprintf
                 "select mb:max Bid, ma:min Ask, n:count Bid from quotes where \
                  BSize>%d"
                 (100 * (1 + Random.State.int rng 18)));
            query
              (Printf.sprintf
                 "select mb:max Bid, ma:min Ask, n:count Bid from quotes where \
                  Symbol=`%s"
                 (pick rng d.MD.syms));
          |]);
  }

(* writes beside reads: every assignment bumps the scope generation, so
   each request misses the plan cache, and every literal join leaves a
   session temp table behind in pgdb *)
let session =
  {
    name = "session";
    scale = MD.small_scale;
    shards = 1;
    rate = 4_000;
    setup = (fun _ -> []);
    shape_names =
      [| "assign per-symbol variable"; "aggregate over variable";
         "define and call function"; "join Q literal keyed table" |];
    cycle =
      (fun d rng ->
        let a, b =
          match distinct_syms rng d 2 with [ a; b ] -> (a, b) | _ -> assert false
        in
        [|
          assign
            (Printf.sprintf "t:select from trades where Symbol=`%s"
               (pick rng d.MD.syms));
          query "select qty:sum Size, px:avg Price, n:count Price from t";
          query
            (Printf.sprintf
               "f:{[s;k] select n:count Price, hi:max Price from trades where \
                Symbol=s, Size>k}; f[`%s;%d]"
               (pick rng d.MD.syms)
               (100 * Random.State.int rng 40));
          query
            (Printf.sprintf
               "select Symbol, Time, Price, w from (trades lj ([Symbol:`%s`%s] \
                w:%.1f %.1f)) where Symbol in `%s`%s"
               a b
               (float_of_int (1 + Random.State.int rng 90) /. 10.0)
               (float_of_int (1 + Random.State.int rng 90) /. 10.0)
               a b);
        |]);
  }

let all = [ analytical; dashboard; tick_extract; sharded_agg; session ]
let find name = List.find_opt (fun w -> w.name = name) all

(* cycles in the request pool; the timed loop walks the pool round-robin,
   so each shape sees this many distinct literal draws *)
let pool_cycles = 64

(** The request pool for one seeded run: [pool_cycles] shape cycles drawn
    from one state seeded by [seed], so the same seed yields the same
    requests. Timed request [i] is [pool.(i mod length)]. *)
let pool (w : t) ~(seed : int) (d : MD.dataset) : request array =
  let rng = Random.State.make [| seed |] in
  let cycle = w.cycle d in
  Array.concat (List.init pool_cycles (fun _ -> cycle rng))

let shapes (w : t) = Array.length w.shape_names

(* ten samples lie beyond the 99th percentile *)
let min_requests = 1_000

(** The timed request count of a run of [seconds]: [rate * seconds], at
    least {!min_requests}, rounded up to whole shape cycles. It depends
    only on the workload and [seconds], so two commits time the same
    requests and a faster one simply finishes sooner. *)
let timed_requests (w : t) ~(seconds : float) : int =
  let n =
    max min_requests (int_of_float (Float.ceil (float_of_int w.rate *. seconds)))
  in
  let k = shapes w in
  (n + k - 1) / k * k
