(* One generator of Q queries for the differential in test_sidebyside:
   the kdb interpreter is the oracle, and every path Hyper-Q serves must
   answer each case as it does.

   A case is a small typed query over seven sources: trades and quotes
   of the market data, nt (a base table with a null in every column
   type), trades left- and inner-joined to sec, whose Sec column holds a
   stored null symbol (and, left-joined, NULL pads), and the as-of join
   of trades to quotes and of nt to itself. Each column's type,
   nulls and comparison literals are read off the oracle's table, so
   comparisons tie. A case prints as Q text and shrinks by dropping
   clauses and replacing an expression by a part of its type.

   A case that draws one of the open divergence classes over an operand
   that can hold a null carries that class's tag: an order comparison,
   [&] on numbers, [first]/[last], [%] by a possible zero, and [aj] over
   a NULL time. A null is the least value in kdb, while SQL's [<] is
   unknown on NULL and its [least], [first] and [last] skip NULLs. So
   does [deltas] after a null: its lowering, coalesce(x - lag(x), x),
   passes x through where kdb answers a null.

   Q's [n#] repeats the rows of a table shorter than n, where SQL's
   LIMIT stops. Every other case must agree with kdb by value and by
   column type: pgdb types each column from its expression before a row
   is read, so an empty or all-null column has its type. *)

module QV = Qvalue.Value
module QA = Qvalue.Atom
module QT = Qvalue.Qtype
module G = QCheck.Gen

type col = {
  name : string;
  ty : QT.t;
  nullable : bool;
  zero : bool;  (** holds a number at or below 0 *)
  pool : string list;  (** Q literals of values the column holds *)
}

type tag =
  | Order_cmp
  | Min_null
  | First_last
  | Div_zero
  | Asof_null
  | Deltas
  | Take

type source = {
  src : string;
  cols : col list;
  groups : col list;
  src_tags : tag list;  (** the classes every case over it draws *)
}

let tag_names =
  [
    (Order_cmp, "order comparison with a null");
    (Min_null, "& with a null");
    (First_last, "first/last over a null");
    (Div_zero, "% by a possible zero");
    (Asof_null, "aj over a NULL time");
    (Deltas, "deltas after a null");
    (Take, "n# of fewer rows");
  ]

let tag_name t = List.assoc t tag_names

(* an expression as Q text, with what the tags need to know of it *)
type expr = {
  text : string;
  ty : QT.t;
  null : bool;  (** a row's value can be null *)
  zero : bool;  (** a row's value can be 0 or below *)
  tags : tag list;
  atomic : bool;  (** a column or a number: no parentheses *)
  literal : bool;
  parts : expr list;  (** what shrinking may put in its place *)
}

type form = Select | Exec | Update

type query = {
  form : form;
  source : source;
  cols : expr list;  (** named c0, c1, ... *)
  by : col list;
  where : expr list;
  sort : (bool * col) option;  (** ascending?, column *)
  take : int option;
}

(* ------------------------------------------------------------------ *)
(* The fixture and the sources                                         *)
(* ------------------------------------------------------------------ *)

(* nt: two symbol columns, s (its distribution key) and g, a long
   column with a 0, ties and a value beyond 2^53, a float column with a
   0.0 and a negative, and the three calendar types, each with nulls *)
let nt : QV.t Lazy.t =
  lazy
    (match
       Kdb.Server.query (Kdb.Server.create ()) ~client:0
         "([] s:`a`b``a`c``b`a`c`; g:`x`y`x``y`x`y`x``y; x:1 0N 3 0N 5 6 2 0 \
          3 9007199254740993; f:1.5 0n 2.5 3.5 0n 1.0 2.0 0.0 -0.5 2.5; \
          t:09:30:00.000 0Nt 09:30:10.000 09:30:20.000 0Nt 09:30:30.000 \
          09:31:00.000 09:29:59.999 09:30:30.000 09:30:40.000; d:2016.06.26 \
          0Nd 2016.06.27 0Nd 2016.06.25 2016.06.26 2016.06.28 2016.06.26 0Nd \
          2016.06.29; p:2018.06.11D00:00:01.000000000 0Np \
          2018.06.11D00:00:02.000000000 2018.06.11D00:00:03.000000000 0Np \
          2018.06.11D00:00:04.000000000 2018.06.11D00:00:05.000000000 \
          2018.06.11D00:00:06.000000000 2018.06.11D00:00:07.000000000 \
          2018.06.11D00:00:08.000000000)"
     with
    | Ok v -> v
    | Error e -> failwith e)

(* Q table [v] as pgdb table [name], NULL for every null, in Q order *)
let load_pg (db : Pgdb.Db.t) name (v : QV.t) =
  let module Ty = Catalog.Sqltype in
  let t = match v with QV.Table t -> t | _ -> invalid_arg "Qgen.load_pg" in
  let types =
    Array.map
      (function
        | QV.Vector (qt, _) -> Hyperq.Typemap.sql_of_qtype qt
        | _ -> invalid_arg "Qgen.load_pg")
      t.QV.data
  in
  let cell ty = function
    | QV.Atom a -> (
        match Hyperq.Typemap.lit_of_atom a with
        | Sqlast.Ast.Str s, (Ty.TDate | Ty.TTime | Ty.TTimestamp) ->
            Pgdb.Value.of_text ty s
        | l, _ -> Pgdb.Value.of_lit l)
    | _ -> invalid_arg "Qgen.load_pg"
  in
  Pgdb.Db.load_table db
    (Catalog.Schema.table ~order_col:"hq_ord" name
       (Catalog.Schema.column "hq_ord" Ty.TBigint
       :: Array.to_list (Array.map2 Catalog.Schema.column t.QV.cols types)))
    (List.init (QV.table_length t) (fun i ->
         Array.append
           [| Pgdb.Value.Int (Int64.of_int i) |]
           (Array.mapi (fun j c -> cell types.(j) (QV.index c i)) t.QV.data)))

(* a keyed table whose Sec holds a stored null symbol, and whose keys
   miss most of trades' symbols, so [trades lj sec] pads Sec with NULL;
   [i] alternates between two such tables *)
let sec_def (syms : string array) i =
  Printf.sprintf "sec:([Symbol:`%s`%s`%s] Sec:%s)" syms.(0) syms.(1) syms.(2)
    (if i mod 2 = 0 then "`x``y" else "`y`x`")

(* an atom as a Q literal that reads back as it *)
let literal = function
  | QA.Float f when not (Float.is_integer f) -> Printf.sprintf "%.17g" f
  | a -> QA.to_string a

(* [names] of table [v]: each one's type, whether it holds a null or a
   number at or below 0, and up to five of its values as literals; a
   symbol column also draws one it does not hold *)
let columns (v : QV.t) names : col list =
  let t = match QV.unkey v with QV.Table t -> t | _ -> invalid_arg "Qgen" in
  List.map
    (fun name ->
      let c = QV.column_exn t name in
      let ty = match c with QV.Vector (ty, _) -> ty | _ -> QT.Long in
      let all = Array.to_list (QV.atoms_exn c) in
      let vals = List.filter (fun a -> not (QA.is_null a)) all in
      let every = max 1 (List.length vals / 4) in
      let pool =
        List.sort_uniq compare
          (List.filteri (fun i _ -> i mod every = 0) (List.map literal vals))
      in
      {
        name;
        ty;
        nullable = List.length vals < List.length all;
        zero =
          (ty = QT.Long || ty = QT.Float)
          && List.exists (fun a -> QA.to_float a <= 0.0) vals;
        pool = (if ty = QT.Sym then "`zz" :: pool else pool);
      })
    names

(* the sources over the tables [table] reads from the oracle *)
let sources (table : string -> QV.t) : source list =
  let named cs n = List.find (fun c -> c.name = n) cs in
  let trades =
    columns (table "trades") [ "Symbol"; "Exch"; "Time"; "Price"; "Size" ]
  in
  let quotes =
    columns (table "quotes") [ "Symbol"; "Time"; "Bid"; "Ask"; "BSize" ]
  in
  let nt = columns (table "nt") [ "s"; "g"; "x"; "f"; "t"; "d"; "p" ] in
  let joined = trades @ columns (table "sec") [ "Sec" ] in
  let by cs names = List.map (named cs) names in
  let source ?(src_tags = []) src cols groups =
    { src; cols; groups = by cols groups; src_tags }
  in
  (* an as-of join pads the quotes it finds none for *)
  let padded c = { c with nullable = true } in
  [
    source "trades" trades [ "Symbol"; "Exch" ];
    source "quotes" quotes [ "Symbol" ];
    source "nt" nt [ "s"; "g" ];
    source "(trades lj sec)" joined [ "Sec"; "Exch" ];
    source "(trades ij sec)" joined [ "Sec"; "Exch" ];
    source
      "aj[`Symbol`Time; select Symbol, Time, Price from trades; select \
       Symbol, Time, Bid from quotes]"
      (by trades [ "Symbol"; "Time"; "Price" ] @ [ padded (named quotes "Bid") ])
      [ "Symbol" ];
    source ~src_tags:[ Asof_null ]
      "aj[`s`t; select s, t, x from nt; select s, t, f from nt]"
      (by nt [ "s"; "t"; "x"; "f" ])
      [ "s" ];
  ]

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let numeric ty = ty = QT.Long || ty = QT.Float
let order_ops = [ "<"; "<="; ">"; ">=" ]
let comparisons = [ "="; "<>"; "<"; "<="; ">"; ">=" ]

let aggregates =
  [ "sum"; "avg"; "min"; "max"; "count"; "first"; "last"; "med"; "dev"; "var" ]

(* Q reads right to left: every compound operand is parenthesized, and a
   symbol literal too, so that it never runs into a following one *)
let operand e = if e.atomic then e.text else "(" ^ e.text ^ ")"

let col (c : col) =
  {
    text = c.name;
    ty = c.ty;
    null = c.nullable;
    zero = c.zero;
    tags = [];
    atomic = true;
    literal = false;
    parts = [];
  }

let lit (c : col) text =
  {
    (col c) with
    text;
    null = text = QA.to_string (QA.Null c.ty);
    zero =
      (match float_of_string_opt text with Some f -> f <= 0.0 | None -> true);
    atomic = c.ty <> QT.Sym;
    literal = true;
  }

let dyad op a b =
  let cmp = List.mem op comparisons in
  let when_ p t = if p then [ t ] else [] in
  {
    text = operand a ^ op ^ operand b;
    ty =
      (if cmp then QT.Bool
       else if op = "%" || b.ty = QT.Float then QT.Float
       else a.ty);
    null = (not cmp) && (a.null || b.null || (op = "%" && b.zero));
    (* sums, products, quotients and extremes of positive values are *)
    zero = (not (List.mem op [ "+"; "*"; "%"; "&"; "|" ])) || a.zero || b.zero;
    tags =
      when_ (List.mem op order_ops && (a.null || b.null)) Order_cmp
      @ when_ (op = "&" && a.ty <> QT.Bool && (a.null || b.null)) Min_null
      @ when_ (op = "%" && b.zero) Div_zero
      @ a.tags @ b.tags;
    atomic = false;
    literal = false;
    parts = [ a; b ];
  }

(* a monadic verb, aggregate or window over [a] *)
let app f a =
  {
    text = f ^ " " ^ operand a;
    ty =
      (match f with
      | "not" | "null" -> QT.Bool
      | "count" -> QT.Long
      | "avg" | "med" | "dev" | "var" | "3 mavg" -> QT.Float
      | _ -> a.ty);
    null =
      (match f with
      | "not" | "null" | "sum" | "count" -> false
      | "prev" -> true
      | _ -> a.null);
    zero = f <> "abs" || a.zero;
    tags =
      (match f with
      | ("first" | "last") when a.null -> [ First_last ]
      | "deltas" when a.null -> [ Deltas ]
      | _ -> [])
      @ a.tags;
    atomic = false;
    literal = false;
    parts = [ a ];
  }

(* [a in L], [a within lo hi] or [a like p] *)
let test a verb rhs =
  {
    (app verb a) with
    text = Printf.sprintf "%s %s %s" (operand a) verb rhs;
    ty = QT.Bool;
    null = false;
    parts = [];
  }

(* (agg;c) fby g: [agg] over [c] within [g]'s groups *)
let fby agg (c : col) (g : col) =
  {
    (app agg (col c)) with
    text = Printf.sprintf "(%s;%s) fby %s" agg c.name g.name;
    parts = [];
  }

let tags (q : query) : tag list =
  (* every source has more rows than a take draws, so only a where
     clause makes n# short *)
  List.sort_uniq compare
    (q.source.src_tags
    @ (if q.take <> None && q.where <> [] then [ Take ] else [])
    @ List.concat_map (fun e -> e.tags) (q.cols @ q.where))

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let where_text = function
  | [] -> ""
  | ws -> " where " ^ String.concat ", " (List.map (fun e -> e.text) ws)

let show (q : query) =
  let names xs f = String.concat ", " (List.mapi f xs) in
  let body =
    Printf.sprintf "%s %s%s from %s%s"
      (match q.form with
      | Select -> "select"
      | Exec -> "exec"
      | Update -> "update")
      (names q.cols (fun i e -> Printf.sprintf "c%d:%s" i e.text))
      (if q.by = [] then "" else " by " ^ names q.by (fun _ c -> c.name))
      q.source.src (where_text q.where)
  in
  let body =
    match q.sort with
    | None -> body
    | Some (asc, c) ->
        Printf.sprintf "`%s %s %s" c.name (if asc then "xasc" else "xdesc") body
  in
  Option.fold ~none:body ~some:(fun n -> Printf.sprintf "%d#%s" n body) q.take

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let ( let* ) = G.( >>= )

let lit_of (c : col) : expr G.t =
  G.map
    (lit c)
    (if c.nullable then
       G.frequency
         [ (6, G.oneofl c.pool); (1, G.return (QA.to_string (QA.Null c.ty))) ]
     else G.oneofl c.pool)

let cols_where (s : source) p = List.filter (fun (c : col) -> p c.ty) s.cols
let column cs = G.map col (G.oneofl cs)

(* a numeric row expression: a column, or one step over it *)
let num_expr (s : source) : expr G.t =
  let nums = cols_where s numeric in
  let* c = G.oneofl nums in
  G.frequency
    [
      (4, G.return (col c));
      ( 3,
        let* op = G.oneofl [ "+"; "-"; "*"; "%"; "&"; "|" ] in
        let* other = G.frequency [ (2, lit_of c); (1, column nums) ] in
        G.return (dyad op (col c) other) );
      (1, G.map (fun f -> app f (col c)) (G.oneofl [ "neg"; "abs" ]));
    ]

(* a where conjunct over one column *)
let conjunct (s : source) : expr G.t =
  let* c = G.oneofl s.cols in
  let flipped op =
    List.assoc op
      [ ("<", ">"); (">", "<"); ("<=", ">="); (">=", "<="); ("=", "="); ("<>", "<>") ]
  in
  let compare_lit =
    let* op = G.oneofl (if c.ty = QT.Sym then [ "="; "<>" ] else comparisons) in
    let* l = lit_of c in
    G.map
      (fun lit_first ->
        if lit_first then dyad (flipped op) l (col c) else dyad op (col c) l)
      G.bool
  in
  let ordered gen =
    let* op = G.oneofl order_ops in
    G.map (dyad op (col c)) gen
  in
  let membership =
    let* k = G.int_range 1 3 in
    let* ms = G.list_repeat k (lit_of c) in
    let ms = List.sort_uniq compare (List.map (fun m -> m.text) ms) in
    let e =
      test (col c) "in" (String.concat (if c.ty = QT.Sym then "" else " ") ms)
    in
    G.map (fun neg -> if neg then app "not" e else e) G.bool
  in
  let range =
    let* a = G.oneofl c.pool in
    let* b = G.oneofl c.pool in
    G.return (test (col c) "within" (min a b ^ " " ^ max a b))
  in
  let pattern =
    G.map
      (fun p -> test (col c) "like" ("\"" ^ p ^ "\""))
      (G.oneofl [ "a*"; "*B*"; "?"; "A??" ])
  in
  G.frequency
    ([
       (6, compare_lit);
       (1, G.map (fun p -> p (app "null" (col c))) (G.oneofl [ Fun.id; app "not" ]));
       (1, G.map (app "not") compare_lit);
       (1, if c.ty = QT.Sym then pattern else range);
     ]
    @ (if c.ty = QT.Sym || c.ty = QT.Long then [ (3, membership) ] else [])
    @
    if numeric c.ty then
      [
        ( 2,
          ordered
            (G.map
               (fun f -> app f (col c))
               (G.oneofl [ "avg"; "max"; "min"; "med" ])) );
        ( 1,
          ordered
            (let* agg = G.oneofl [ "max"; "min"; "avg"; "first"; "last" ] in
             G.map (fby agg c) (G.oneofl s.groups)) );
        ( 2,
          let* op = G.oneofl order_ops in
          let* e = num_expr s in
          G.map (dyad op e) (lit_of c) );
        (1, ordered (G.return (app "prev" (col c))));
      ]
    else [])

let where_gen s =
  let* n = G.frequencyl [ (2, 0); (3, 1); (2, 2); (1, 3) ] in
  G.list_repeat n (conjunct s)

let agg_expr (s : source) : expr G.t =
  let* f = G.oneofl aggregates in
  G.map
    (app f)
    (match f with
    | "count" | "first" | "last" ->
        G.frequency [ (2, column s.cols); (1, num_expr s) ]
    | "min" | "max" ->
        G.frequency
          [ (2, column (cols_where s (( <> ) QT.Sym))); (1, num_expr s) ]
    | _ -> num_expr s)

let uniform_expr (s : source) : expr G.t =
  G.frequency
    [
      (4, num_expr s);
      (2, column s.cols);
      ( 2,
        let* f =
          G.oneofl [ "sums"; "deltas"; "prev"; "maxs"; "3 mavg"; "2 msum" ]
        in
        G.map (app f) (column (cols_where s numeric)) );
      (1, conjunct s);
    ]

let query_gen (s : source) : query G.t =
  let* where = where_gen s in
  let base =
    { form = Select; source = s; cols = []; by = []; where; sort = None; take = None }
  in
  let some gen = G.( >>= ) (G.int_range 1 3) (fun k -> G.list_repeat k gen) in
  let* shape = G.int_range 0 5 in
  match shape with
  | 0 ->
      (* the rows, maybe sorted and cut *)
      let* sort = G.opt (G.pair G.bool (G.oneofl s.cols)) in
      G.map (fun take -> { base with sort; take }) (G.opt (G.int_range 1 5))
  | 1 -> G.map (fun cols -> { base with cols }) (some (uniform_expr s))
  | 2 | 3 ->
      let* cols = some (agg_expr s) in
      let* nby = G.int_range (if shape = 2 then 0 else 1) 2 in
      let* by = G.shuffle_l s.groups in
      G.return { base with cols; by = List.filteri (fun i _ -> i < nby) by }
  | 4 ->
      let* e = G.oneof [ uniform_expr s; agg_expr s ] in
      let* by = G.opt (G.oneofl s.groups) in
      G.return
        { base with form = Update; cols = [ e ]; by = Option.to_list by }
  | _ ->
      let* e = G.oneof [ uniform_expr s; agg_expr s ] in
      G.return { base with form = Exec; cols = [ e ] }

(* an as-of join costs the row reference a range join: drawn a sixth
   as often as another source *)
let gen (sources : source list) : query G.t =
  let* s =
    G.frequencyl
      (List.map
         (fun s -> ((if String.starts_with ~prefix:"aj[" s.src then 1 else 6), s))
         sources)
  in
  query_gen s

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* the parts of an expression that have its type, shrunk in turn; a
   literal alone is no column or conjunct the generator draws *)
let rec shrink_expr e =
  List.concat_map
    (fun p -> p :: shrink_expr p)
    (List.filter (fun p -> p.ty = e.ty && not p.literal) e.parts)

let drop_each xs =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs

let replace_each f xs =
  List.concat
    (List.mapi
       (fun i x ->
         List.map
           (fun x' -> List.mapi (fun j y -> if i = j then x' else y) xs)
           (f x))
       xs)

let shrink (q : query) : query QCheck.Iter.t =
  QCheck.Iter.of_list
    ((if q.take = None then [] else [ { q with take = None } ])
    @ (if q.sort = None then [] else [ { q with sort = None } ])
    @ List.map (fun where -> { q with where }) (drop_each q.where)
    @ (if q.form = Select && List.length q.cols > 1 then
         List.map (fun cols -> { q with cols }) (drop_each q.cols)
       else [])
    @ List.map (fun by -> { q with by }) (drop_each q.by)
    @ List.map (fun where -> { q with where }) (replace_each shrink_expr q.where)
    @ List.map (fun cols -> { q with cols }) (replace_each shrink_expr q.cols))

let arbitrary (sources : source list) : query QCheck.arbitrary =
  QCheck.make ~print:show ~shrink (gen sources)
