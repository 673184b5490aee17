(** Deterministic TAQ-style market data generator.

    The paper's evaluation uses a customer workload over NYSE TAQ-like
    market data (trades and quotes) joined with several wide reference
    tables (>500 columns). TAQ itself is a commercial dataset, so this
    module synthesises the same shape: random-walk prices, bid/ask spreads
    around the prevailing price, exchange codes, and wide per-symbol
    reference tables. Generation is seeded and fully deterministic. *)

module S = Catalog.Schema
module Ty = Catalog.Sqltype
module V = Pgdb.Value
module QV = Qvalue.Value
module QA = Qvalue.Atom

(* xorshift64* PRNG: deterministic across runs and platforms *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int (if seed = 0 then 0x9E3779B9 else seed) }

let next (r : rng) : int64 =
  let x = r.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  r.state <- x;
  x

let rand_int r bound =
  Int64.to_int (Int64.rem (Int64.logand (next r) Int64.max_int) (Int64.of_int bound))

let rand_float r = float_of_int (rand_int r 1_000_000) /. 1_000_000.0

type scale = {
  symbols : int;  (** number of distinct symbols *)
  trades_per_symbol : int;
  quotes_per_symbol : int;
  wide_columns : int;  (** columns per wide reference table (>500 in paper) *)
}

let small_scale = { symbols = 8; trades_per_symbol = 40; quotes_per_symbol = 80; wide_columns = 40 }

let paper_scale =
  { symbols = 25; trades_per_symbol = 40; quotes_per_symbol = 80; wide_columns = 510 }

let symbol_names n =
  Array.init n (fun i ->
      let letter k = Char.chr (Char.code 'A' + (k mod 26)) in
      Printf.sprintf "%c%c%c" (letter i) (letter (i / 26 + i)) (letter (i * 7)))

let sectors = [| "tech"; "energy"; "finance"; "health"; "materials" |]
let exchanges = [| "N"; "Q"; "A"; "B" |]

let trade_date = 6021 (* 2016.06.26 *)

(* one generated tick *)
type trade = { t_sym : string; t_time : int; t_price : float; t_size : int; t_exch : string }
type quote = { q_sym : string; q_time : int; q_bid : float; q_ask : float; q_bsize : int; q_asize : int }

type dataset = {
  scale : scale;
  syms : string array;
  trades : trade array;
  quotes : quote array;
}

(** Generate a dataset: per symbol, a random-walk price path sampled into
    interleaved quotes (always at or before the trades they precede) and
    trades, all sorted by (symbol-independent) time as a real feed is. *)
let generate ?(seed = 20160626) (scale : scale) : dataset =
  let r = rng seed in
  let syms = symbol_names scale.symbols in
  let trades = ref [] and quotes = ref [] in
  Array.iter
    (fun sym ->
      let base = 20.0 +. (rand_float r *. 180.0) in
      let price = ref base in
      let open_ms = 9 * 3600 * 1000 + (30 * 60 * 1000) in
      let step = 6 * 3600 * 1000 / Stdlib.max 1 scale.trades_per_symbol in
      for i = 0 to scale.trades_per_symbol - 1 do
        price := Float.max 1.0 (!price +. ((rand_float r -. 0.5) *. 0.8));
        let time = open_ms + (i * step) + rand_int r (step / 2) in
        trades :=
          {
            t_sym = sym;
            t_time = time;
            t_price = Float.round (!price *. 100.) /. 100.;
            t_size = 100 * (1 + rand_int r 50);
            t_exch = exchanges.(rand_int r (Array.length exchanges));
          }
          :: !trades
      done;
      let qstep = 6 * 3600 * 1000 / Stdlib.max 1 scale.quotes_per_symbol in
      let qprice = ref base in
      for i = 0 to scale.quotes_per_symbol - 1 do
        qprice := Float.max 1.0 (!qprice +. ((rand_float r -. 0.5) *. 0.6));
        (* the first quote of each symbol lands just before the open, so a
           prevailing quote always exists for as-of joins *)
        let jitter = rand_int r (qstep / 2) in
        let time =
          if i = 0 then open_ms - 1000
          else open_ms - 1000 + (i * qstep) + jitter
        in
        let spread = 0.01 +. (rand_float r *. 0.1) in
        quotes :=
          {
            q_sym = sym;
            q_time = time;
            q_bid = Float.round ((!qprice -. spread) *. 100.) /. 100.;
            q_ask = Float.round ((!qprice +. spread) *. 100.) /. 100.;
            q_bsize = 100 * (1 + rand_int r 20);
            q_asize = 100 * (1 + rand_int r 20);
          }
          :: !quotes
      done)
    syms;
  let by_time_t a b = compare (a.t_time, a.t_sym) (b.t_time, b.t_sym) in
  let by_time_q a b = compare (a.q_time, a.q_sym) (b.q_time, b.q_sym) in
  let trades = Array.of_list !trades and quotes = Array.of_list !quotes in
  Array.sort by_time_t trades;
  Array.sort by_time_q quotes;
  { scale; syms; trades; quotes }

(** [d] with every quote repeated at its own time, the copy's bid a cent
    higher, and every other trade moved back onto the time of the last
    quote of its symbol at or before it: an as-of join then meets ties on
    both sides of its range, where kdb's [aj] takes the later of two
    quotes at one time. *)
let with_tied_quotes (d : dataset) : dataset =
  let quotes =
    Array.of_list
      (List.concat_map
         (fun q -> [ q; { q with q_bid = q.q_bid +. 0.01 } ])
         (Array.to_list d.quotes))
  in
  let trades =
    Array.mapi
      (fun i t ->
        if i mod 2 = 1 then t
        else
          Array.fold_left
            (fun t' q ->
              if q.q_sym = t.t_sym && q.q_time <= t.t_time then
                { t with t_time = q.q_time }
              else t')
            t d.quotes)
      d.trades
  in
  { d with trades; quotes }

(* ------------------------------------------------------------------ *)
(* Loading into the PG backend                                         *)
(* ------------------------------------------------------------------ *)

let wide_col i = Printf.sprintf "attr%03d" i

let load_pg (db : Pgdb.Db.t) (d : dataset) : unit =
  (* trades *)
  Pgdb.Db.load_table db
    (S.table ~order_col:"hq_ord" "trades"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "Symbol" Ty.TVarchar;
         S.column "Date" Ty.TDate;
         S.column "Time" Ty.TTime;
         S.column "Price" Ty.TDouble;
         S.column "Size" Ty.TBigint;
         S.column "Exch" Ty.TVarchar;
       ])
    (List.mapi
       (fun i t ->
         [|
           V.Int (Int64.of_int i);
           V.Str t.t_sym;
           V.Date trade_date;
           V.Time t.t_time;
           V.Float t.t_price;
           V.Int (Int64.of_int t.t_size);
           V.Str t.t_exch;
         |])
       (Array.to_list d.trades));
  (* quotes *)
  Pgdb.Db.load_table db
    (S.table ~order_col:"hq_ord" "quotes"
       [
         S.column "hq_ord" Ty.TBigint;
         S.column "Symbol" Ty.TVarchar;
         S.column "Date" Ty.TDate;
         S.column "Time" Ty.TTime;
         S.column "Bid" Ty.TDouble;
         S.column "Ask" Ty.TDouble;
         S.column "BSize" Ty.TBigint;
         S.column "ASize" Ty.TBigint;
       ])
    (List.mapi
       (fun i q ->
         [|
           V.Int (Int64.of_int i);
           V.Str q.q_sym;
           V.Date trade_date;
           V.Time q.q_time;
           V.Float q.q_bid;
           V.Float q.q_ask;
           V.Int (Int64.of_int q.q_bsize);
           V.Int (Int64.of_int q.q_asize);
         |])
       (Array.to_list d.quotes));
  (* wide reference tables, keyed on Symbol (paper: "wide tables with more
     than 500 columns") *)
  let r = rng 77 in
  let wide name extra_cols =
    let cols =
      S.column "Symbol" Ty.TVarchar
      :: extra_cols
      @ List.init d.scale.wide_columns (fun i -> S.column (wide_col i) Ty.TDouble)
    in
    let rows =
      Array.to_list
        (Array.map
           (fun sym ->
             Array.of_list
               (V.Str sym
                :: List.map
                     (fun (c : S.column) ->
                       match c.S.col_type with
                       | Ty.TVarchar ->
                           V.Str sectors.(rand_int r (Array.length sectors))
                       | Ty.TBigint -> V.Int (Int64.of_int (rand_int r 1000))
                       | _ -> V.Float (rand_float r *. 10.0))
                     (extra_cols
                     @ List.init d.scale.wide_columns (fun i ->
                           S.column (wide_col i) Ty.TDouble))))
           d.syms)
    in
    Pgdb.Db.load_table db (S.table ~keys:[ "Symbol" ] name cols) rows
  in
  wide "secmaster_w" [ S.column "Sector" Ty.TVarchar; S.column "Lot" Ty.TBigint ];
  wide "risk_w" [ S.column "Beta" Ty.TDouble; S.column "Var99" Ty.TDouble ];
  wide "limits_w" [ S.column "MaxNotional" Ty.TDouble; S.column "MaxQty" Ty.TBigint ]

(* ------------------------------------------------------------------ *)
(* Loading into the kdb interpreter (for side-by-side testing)         *)
(* ------------------------------------------------------------------ *)

let q_tables (d : dataset) : (string * QV.t) list =
  let trades =
    QV.table
      [
        ("Symbol", QV.syms (Array.map (fun t -> t.t_sym) d.trades));
        ("Date", QV.vector Qvalue.Qtype.Date (Array.map (fun _ -> QA.Date trade_date) d.trades));
        ("Time", QV.vector Qvalue.Qtype.Time (Array.map (fun t -> QA.Time t.t_time) d.trades));
        ("Price", QV.floats (Array.map (fun t -> t.t_price) d.trades));
        ("Size", QV.longs (Array.map (fun t -> t.t_size) d.trades));
        ("Exch", QV.syms (Array.map (fun t -> t.t_exch) d.trades));
      ]
  in
  let quotes =
    QV.table
      [
        ("Symbol", QV.syms (Array.map (fun q -> q.q_sym) d.quotes));
        ("Date", QV.vector Qvalue.Qtype.Date (Array.map (fun _ -> QA.Date trade_date) d.quotes));
        ("Time", QV.vector Qvalue.Qtype.Time (Array.map (fun q -> QA.Time q.q_time) d.quotes));
        ("Bid", QV.floats (Array.map (fun q -> q.q_bid) d.quotes));
        ("Ask", QV.floats (Array.map (fun q -> q.q_ask) d.quotes));
        ("BSize", QV.longs (Array.map (fun q -> q.q_bsize) d.quotes));
        ("ASize", QV.longs (Array.map (fun q -> q.q_asize) d.quotes));
      ]
  in
  (* the wide tables must match the PG side exactly: regenerate with the
     same seed and column structure *)
  let r = rng 77 in
  let wide extra_cols =
    let extra_names = List.map fst extra_cols in
    let n = Array.length d.syms in
    let extra_data =
      List.map (fun (_, ty) -> (ty, Array.make n (QA.Null Qvalue.Qtype.Float))) extra_cols
    in
    let attr_data =
      List.init d.scale.wide_columns (fun _ -> Array.make n QA.(Null Qvalue.Qtype.Float))
    in
    Array.iteri
      (fun row _sym ->
        List.iter
          (fun (ty, arr) ->
            match ty with
            | `Sym -> arr.(row) <- QA.Sym sectors.(rand_int r (Array.length sectors))
            | `Long -> arr.(row) <- QA.Long (Int64.of_int (rand_int r 1000))
            | `Float -> arr.(row) <- QA.Float (rand_float r *. 10.0))
          extra_data;
        List.iter
          (fun arr -> arr.(row) <- QA.Float (rand_float r *. 10.0))
          attr_data)
      d.syms;
    let cols =
      ("Symbol", QV.syms d.syms)
      :: List.map2
           (fun name (_, arr) -> (name, QV.vector_of_atoms arr))
           extra_names extra_data
      @ List.mapi (fun i arr -> (wide_col i, QV.vector_of_atoms arr)) attr_data
    in
    QV.xkey [ "Symbol" ] (QV.table cols)
  in
  (* evaluation order matters: the shared RNG must be consumed in the same
     table order as load_pg (OCaml evaluates list elements right-to-left,
     so sequence explicitly) *)
  let secmaster = wide [ ("Sector", `Sym); ("Lot", `Long) ] in
  let risk = wide [ ("Beta", `Float); ("Var99", `Float) ] in
  let limits = wide [ ("MaxNotional", `Float); ("MaxQty", `Long) ] in
  [
    ("trades", QV.Table trades);
    ("quotes", QV.Table quotes);
    ("secmaster_w", secmaster);
    ("risk_w", risk);
    ("limits_w", limits);
  ]
