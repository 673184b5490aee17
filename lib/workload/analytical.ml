(** The Analytical Workload (paper Section 6).

    "All experiments are conducted on an Analytical Workload driven from
    customer use-cases ... 25 queries that involve three or more wide
    tables (e.g., tables with more than 500 columns), joins, and various
    kinds of analytical aggregate functions."

    The customer queries are proprietary, so this module synthesises 25
    queries with exactly the stated characteristics over the market-data
    schema. As in the paper, queries 10, 18, 19 and 20 join the most
    tables — they are the translation-time spikes of Figure 6. *)

type query = {
  id : int;
  name : string;
  text : string;  (** Q source *)
  tables : string list;  (** tables touched, for the experiment index *)
  setup : string list;  (** Q statements to run once before the query *)
}

let q id name ?(tables = [ "trades" ]) ?(setup = []) text =
  { id; name; text; tables; setup }

(** The 25 queries, parameterized by the generated dataset (symbol literals
    are embedded so each run is self-contained). *)
let queries (d : Marketdata.dataset) : query list =
  let sym i = d.Marketdata.syms.(i mod Array.length d.Marketdata.syms) in
  let s0 = sym 0 and s1 = sym 1 and s2 = sym 2 in
  [
    q 1 "filtered scan"
      (Printf.sprintf
         "select Price, Size from trades where Symbol in `%s`%s, Price>10.0"
         s0 s1);
    q 2 "vwap by symbol"
      "select vwap:(sum Price*Size)%sum Size by Symbol from trades";
    q 3 "ohlc-style stats"
      "select o:first Price, h:max Price, l:min Price, c:last Price by \
       Symbol from trades";
    q 4 "count by symbol and venue"
      "select n:count Price, qty:sum Size by Symbol, Exch from trades";
    q 5 "point-in-time join (Example 1)" ~tables:[ "trades"; "quotes" ]
      "aj[`Symbol`Time; select Symbol, Time, Price from trades; select \
       Symbol, Time, Bid, Ask from quotes]";
    q 6 "spread statistics" ~tables:[ "quotes" ]
      "select avg_spread:avg Ask-Bid, max_spread:max Ask-Bid by Symbol from \
       quotes";
    q 7 "sector volume" ~tables:[ "trades"; "secmaster_w" ]
      "select qty:sum Size by Sector from trades lj secmaster_w";
    q 8 "beta-weighted flow" ~tables:[ "trades"; "risk_w" ]
      "select exposure:sum Beta*Price*Size by Symbol from trades lj risk_w";
    q 9 "mid-price enrichment" ~tables:[ "quotes" ]
      "select m:avg Mid by Symbol from update Mid:(Bid+Ask)%2.0 from quotes";
    q 10 "prevailing quote + reference data"
      ~tables:[ "trades"; "quotes"; "secmaster_w"; "risk_w" ]
      "select eff:avg Price-Bid, n:count Price by Sector from (aj[`Symbol`Time; \
       select Symbol, Time, Price from trades; select Symbol, Time, Bid \
       from quotes] lj secmaster_w) lj risk_w";
    q 11 "notional ranking" ~tables:[ "trades" ]
      "3#`notional xdesc select notional:sum Price*Size by Symbol from trades";
    q 12 "moving average"
      (Printf.sprintf
         "select Time, m:5 mavg Price from trades where Symbol=`%s" s0);
    q 13 "max-price trades (fby)"
      "select from trades where Price=(max;Price) fby Symbol";
    q 14 "momentum (deltas)"
      (Printf.sprintf
         "select Time, d:deltas Price from trades where Symbol=`%s" s1);
    q 15 "distinct venue count"
      "select venues:count distinct Exch by Symbol from trades";
    q 16 "time buckets"
      "select n:count Price, qty:sum Size by bucket:60000 xbar Time from \
       trades";
    q 17 "outlier-free stats"
      "select m:avg Price, s:dev Price by Symbol from trades where \
       Price<500.0, Size<5000";
    q 18 "wide-table risk report"
      ~tables:[ "trades"; "secmaster_w"; "risk_w"; "limits_w" ]
      "select gross:sum Price*Size, wbeta:sum Beta*Size, cap:max \
       MaxNotional by Sector from ((trades lj secmaster_w) lj risk_w) lj \
       limits_w";
    q 19 "execution quality by sector and venue"
      ~tables:[ "trades"; "quotes"; "secmaster_w" ]
      "select slip:avg Price-Bid, n:count Price by Sector, Exch from \
       aj[`Symbol`Time; select Symbol, Exch, Time, Price from trades; \
       select Symbol, Time, Bid from quotes] lj secmaster_w";
    q 20 "full reference join"
      ~tables:[ "trades"; "secmaster_w"; "risk_w"; "limits_w" ]
      "select qty:sum Size, risk:sum Var99*Size, lot:max Lot, cap:min \
       MaxQty by Sector, Exch from ((trades lj secmaster_w) lj risk_w) lj \
       limits_w where Price>5.0";
    q 21 "quote imbalance" ~tables:[ "quotes" ]
      "select imb:(sum BSize-ASize)%sum BSize+ASize by Symbol from quotes";
    q 22 "parameterized sweep (UDF unrolling)"
      ~setup:
        [
          "sweep:{[s] dt: select Price, Size from trades where Symbol=s; \
           :select vol:sum Size, px:avg Price from dt}";
        ]
      (Printf.sprintf "sweep[`%s]" s2);
    q 23 "group max broadcast (update by)"
      "select hit:count Price from (update mx:max Price by Symbol from \
       trades) where Price=mx";
    q 24 "session window"
      "select n:count Price, qty:sum Size by Symbol from trades where Time \
       within 10:00:00.000 14:00:00.000";
    q 25 "top of book at close" ~tables:[ "quotes" ]
      "select last_bid:last Bid, last_ask:last Ask by Symbol from quotes";
  ]

(** Queries known to join three or more tables — the paper calls out 10,
    18, 19, 20 as the slowest to translate. *)
let heavy_ids = [ 10; 18; 19; 20 ]

(** Scalar aggregations over nested queries, the paper's example of an
    ordering requirement the Xformer removes (Section 3.3): with order
    elision on none of them emits an ORDER BY, with it off each keeps the
    inner query's. Ablation C runs them; a tier-1 test checks the SQL. *)
let order_elision_queries =
  [
    "select max Price from (select Price from trades)";
    "select sum Size from (select Size from trades where Price>10.0)";
    "select avg Bid from (select Bid from quotes)";
    "select n:count Price from (select Price, Size from trades) where \
     Size>1000";
  ]
