(** Abstract syntax for the PostgreSQL-compatible SQL dialect.

    This is both the target of Hyper-Q's serializer and the output of the
    pgdb parser, so translated queries are round-tripped through real SQL
    text — the same contract a real PG backend would impose. It holds
    what the translator builds and no more (DESIGN.md §13, "SELECT
    surface"). *)

type lit =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | IsDistinctFrom
  | IsNotDistinctFrom

type unop = Not | Neg

type direction = Asc | Desc

(** A window frame: ROWS from its start to the current row. *)
type frame = UnboundedPreceding | Preceding of int

type expr =
  | Lit of lit
  | Col of string option * string  (** optional qualifier, column name *)
  | Star  (** the star projector, in select lists and count-star *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | IsNull of expr  (** [x IS NOT NULL] is [Un (Not, IsNull x)] *)
  | In of expr * expr list
  | Between of expr * expr * expr
  | Case of (expr * expr) list * expr option
  | Cast of expr * Catalog.Sqltype.t
  | Fun of string * expr list  (** scalar function call *)
  | Agg of { agg_name : string; distinct : bool; args : expr list }
  | Window of {
      win_fn : string;
      win_args : expr list;
      partition : expr list;
      order : (expr * direction) list;
      frame : frame option;
    }
  | Like of expr * expr

type from_item =
  | TableRef of string * string option  (** table, alias *)
  | SubqueryRef of select * string  (** subquery requires an alias *)
  | UnionRef of select list * string
      (** parenthesised UNION ALL of selects, with an alias *)
  | JoinItem of {
      jkind : [ `Inner | `Left ];
      left : from_item;
      right : from_item;
      on : expr;
    }

and select = {
  projs : proj list;
  from : from_item option;
  where : expr option;
  group_by : expr list;
  order_by : (expr * direction) list;
  limit : int option;
}

and proj = { p_expr : expr; p_alias : string option }

(** The paper's physical materialization (Section 4.3) is the one
    statement besides SELECT: [CREATE TEMPORARY TABLE name AS select]. *)
type stmt = Select of select | CreateTempTableAs of string * select

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let col name = Col (None, name)
let qcol q name = Col (Some q, name)
let int i = Lit (Int (Int64.of_int i))
let str s = Lit (Str s)
let proj ?alias e = { p_expr = e; p_alias = alias }

let empty_select =
  {
    projs = [];
    from = None;
    where = None;
    group_by = [];
    order_by = [];
    limit = None;
  }

(* ------------------------------------------------------------------ *)
(* Printing: AST -> SQL text                                           *)
(* ------------------------------------------------------------------ *)

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "AND"
  | Or -> "OR"
  | IsDistinctFrom -> "IS DISTINCT FROM"
  | IsNotDistinctFrom -> "IS NOT DISTINCT FROM"

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let lit_str = function
  | Null -> "NULL"
  | Bool b -> if b then "TRUE" else "FALSE"
  | Int i -> Int64.to_string i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else Printf.sprintf "%.17g" f
  | Str s -> Printf.sprintf "'%s'" (escape_string s)

let quote_ident name =
  (* quote identifiers that are not plain lowercase words, preserving the
     case-sensitive column names coming from Q *)
  let plain =
    String.length name > 0
    && (match name.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
         name
  in
  if plain then name else "\"" ^ name ^ "\""

let direction_str = function Asc -> "ASC" | Desc -> "DESC"

let frame_str = function
  | UnboundedPreceding -> "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"
  | Preceding n -> Printf.sprintf "ROWS BETWEEN %d PRECEDING AND CURRENT ROW" n

let rec expr_str (e : expr) : string =
  match e with
  | Lit l -> lit_str l
  | Col (None, c) -> quote_ident c
  | Col (Some q, c) -> quote_ident q ^ "." ^ quote_ident c
  | Star -> "*"
  | Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_str a) (binop_str op) (expr_str b)
  | Un (Not, a) -> Printf.sprintf "(NOT %s)" (expr_str a)
  | Un (Neg, a) -> Printf.sprintf "(- %s)" (expr_str a)
  | IsNull a -> Printf.sprintf "(%s IS NULL)" (expr_str a)
  | In (a, es) ->
      Printf.sprintf "(%s IN (%s))" (expr_str a)
        (String.concat ", " (List.map expr_str es))
  | Between (a, lo, hi) ->
      Printf.sprintf "(%s BETWEEN %s AND %s)" (expr_str a) (expr_str lo)
        (expr_str hi)
  | Case (branches, else_) ->
      let b =
        List.map
          (fun (c, r) ->
            Printf.sprintf "WHEN %s THEN %s" (expr_str c) (expr_str r))
          branches
      in
      let e' =
        match else_ with
        | Some r -> Printf.sprintf " ELSE %s" (expr_str r)
        | None -> ""
      in
      Printf.sprintf "(CASE %s%s END)" (String.concat " " b) e'
  | Cast (a, ty) ->
      Printf.sprintf "CAST(%s AS %s)" (expr_str a) (Catalog.Sqltype.name ty)
  | Fun (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_str args))
  | Agg { agg_name; distinct; args } ->
      Printf.sprintf "%s(%s%s)" agg_name
        (if distinct then "DISTINCT " else "")
        (String.concat ", " (List.map expr_str args))
  | Window { win_fn; win_args; partition; order; frame } ->
      let part =
        if partition = [] then ""
        else
          "PARTITION BY " ^ String.concat ", " (List.map expr_str partition)
      in
      let ord =
        if order = [] then ""
        else
          "ORDER BY "
          ^ String.concat ", "
              (List.map
                 (fun (e, d) -> expr_str e ^ " " ^ direction_str d)
                 order)
      in
      let fr = match frame with None -> "" | Some f -> frame_str f in
      let over =
        [ part; ord; fr ] |> List.filter (fun s -> s <> "") |> String.concat " "
      in
      Printf.sprintf "%s(%s) OVER (%s)" win_fn
        (String.concat ", " (List.map expr_str win_args))
        over
  | Like (a, p) -> Printf.sprintf "(%s LIKE %s)" (expr_str a) (expr_str p)

and from_str = function
  | TableRef (t, None) -> quote_ident t
  | TableRef (t, Some a) -> quote_ident t ^ " AS " ^ quote_ident a
  | SubqueryRef (s, a) ->
      Printf.sprintf "(%s) AS %s" (select_str s) (quote_ident a)
  | UnionRef (ss, a) ->
      Printf.sprintf "(%s) AS %s"
        (String.concat " UNION ALL " (List.map select_str ss))
        (quote_ident a)
  | JoinItem { jkind; left; right; on } ->
      let kw =
        match jkind with `Inner -> "INNER JOIN" | `Left -> "LEFT OUTER JOIN"
      in
      Printf.sprintf "%s %s %s ON %s" (from_str left) kw (from_str right)
        (expr_str on)

and select_str (s : select) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  let proj p =
    match p.p_alias with
    | Some a -> expr_str p.p_expr ^ " AS " ^ quote_ident a
    | None -> expr_str p.p_expr
  in
  Buffer.add_string buf
    (if s.projs = [] then "*" else String.concat ", " (List.map proj s.projs));
  (match s.from with
  | Some f ->
      Buffer.add_string buf " FROM ";
      Buffer.add_string buf (from_str f)
  | None -> ());
  (match s.where with
  | Some w ->
      Buffer.add_string buf " WHERE ";
      Buffer.add_string buf (expr_str w)
  | None -> ());
  if s.group_by <> [] then begin
    Buffer.add_string buf " GROUP BY ";
    Buffer.add_string buf (String.concat ", " (List.map expr_str s.group_by))
  end;
  if s.order_by <> [] then begin
    Buffer.add_string buf " ORDER BY ";
    Buffer.add_string buf
      (String.concat ", "
         (List.map
            (fun (e, d) -> expr_str e ^ " " ^ direction_str d)
            s.order_by))
  end;
  (match s.limit with
  | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n)
  | None -> ());
  Buffer.contents buf

let stmt_str = function
  | Select s -> select_str s
  | CreateTempTableAs (name, query) ->
      Printf.sprintf "CREATE TEMPORARY TABLE %s AS %s" (quote_ident name)
        (select_str query)
