(** Recursive-descent SQL parser producing {!Sqlast.Ast} statements.

    It accepts the SQL Hyper-Q's translator emits and nothing wider:
    SELECT with one [INNER] or [LEFT [OUTER]] join, subqueries, UNION
    ALL, GROUP BY, ORDER BY and LIMIT; aggregates (DISTINCT only inside
    one), window functions whose frame is ROWS from [UNBOUNDED
    PRECEDING] or [k PRECEDING] to [CURRENT ROW]; the comparisons [=],
    [<], [<=], [>], [>=], IS [NOT] NULL, IS [NOT] DISTINCT FROM, IN over
    non-NULL members, BETWEEN, LIKE, CASE and CAST (both function and
    [::] forms). The one other statement is the paper's physical
    materialization, CREATE TEMPORARY TABLE name AS SELECT. Anything
    else is a 42601 syntax error; a function outside the closed set is
    refused with 42883 when the statement is planned (DESIGN.md,
    "SELECT surface"). *)

module A = Sqlast.Ast

type state = { mutable toks : Sql_lexer.token list }

let peek st = match st.toks with [] -> Sql_lexer.Eof | t :: _ -> t
let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> Sql_lexer.Eof

let next st =
  match st.toks with
  | [] -> Sql_lexer.Eof
  | t :: rest ->
      st.toks <- rest;
      t

let error fmt = Errors.syntax_error fmt

let expect_kw st kw =
  match next st with
  | Sql_lexer.Ident k when k = kw -> ()
  | t -> error "expected %s, found %s" kw (Sql_lexer.token_str t)

let expect_op st op =
  match next st with
  | Sql_lexer.Op o when o = op -> ()
  | t -> error "expected %s, found %s" op (Sql_lexer.token_str t)

let at_kw st kw = match peek st with Sql_lexer.Ident k -> k = kw | _ -> false

let eat_kw st kw =
  if at_kw st kw then begin
    ignore (next st);
    true
  end
  else false

let ident st =
  match next st with
  | Sql_lexer.Ident s -> s
  | Sql_lexer.QIdent s -> s
  | t -> error "expected identifier, found %s" (Sql_lexer.token_str t)

(* type names may be multiple words: double precision, character varying *)
let type_name st : Catalog.Sqltype.t =
  let first = ident st in
  let name =
    match first with
    | "double" ->
        if eat_kw st "precision" then "double precision" else "double"
    | "character" -> if eat_kw st "varying" then "varchar" else "character"
    | n -> n
  in
  (* optional (n) length specifier *)
  (if peek st = Sql_lexer.Op "(" then begin
     ignore (next st);
     (match next st with Sql_lexer.IntLit _ -> () | t -> error "expected length, found %s" (Sql_lexer.token_str t));
     expect_op st ")"
   end);
  match Catalog.Sqltype.of_name name with
  | Some ty -> ty
  | None -> error "unknown type %s" name

(* one or more [item]s separated by commas *)
let parse_list st item =
  let rec go acc =
    let x = item st in
    if peek st = Sql_lexer.Op "," then begin
      ignore (next st);
      go (x :: acc)
    end
    else List.rev (x :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st : A.expr = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while at_kw st "or" do
    ignore (next st);
    let rhs = parse_and st in
    lhs := A.Bin (A.Or, !lhs, rhs)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while at_kw st "and" do
    ignore (next st);
    let rhs = parse_not st in
    lhs := A.Bin (A.And, !lhs, rhs)
  done;
  !lhs

and parse_not st =
  if eat_kw st "not" then A.Un (A.Not, parse_not st) else parse_predicate st

and parse_predicate st =
  let lhs = parse_additive st in
  match peek st with
  | Sql_lexer.Op (("=" | "<" | "<=" | ">" | ">=") as op) ->
      ignore (next st);
      let rhs = parse_additive st in
      let bop =
        match op with
        | "=" -> A.Eq
        | "<" -> A.Lt
        | "<=" -> A.Le
        | ">" -> A.Gt
        | ">=" -> A.Ge
        | _ -> assert false
      in
      A.Bin (bop, lhs, rhs)
  | Sql_lexer.Ident "is" -> (
      ignore (next st);
      let negated = eat_kw st "not" in
      if eat_kw st "null" then
        if negated then A.Un (A.Not, A.IsNull lhs) else A.IsNull lhs
      else if eat_kw st "distinct" then begin
        expect_kw st "from";
        let rhs = parse_additive st in
        if negated then A.Bin (A.IsNotDistinctFrom, lhs, rhs)
        else A.Bin (A.IsDistinctFrom, lhs, rhs)
      end
      else error "expected NULL or DISTINCT after IS")
  | Sql_lexer.Ident "between" ->
      ignore (next st);
      let lo = parse_additive st in
      expect_kw st "and";
      let hi = parse_additive st in
      A.Between (lhs, lo, hi)
  | Sql_lexer.Ident "in" ->
      ignore (next st);
      A.In (lhs, parse_in_list st)
  | Sql_lexer.Ident "like" ->
      ignore (next st);
      let rhs = parse_additive st in
      A.Like (lhs, rhs)
  | Sql_lexer.Ident "not" when peek2 st = Sql_lexer.Ident "in" ->
      ignore (next st);
      ignore (next st);
      A.Un (A.Not, A.In (lhs, parse_in_list st))
  | Sql_lexer.Ident "not" when peek2 st = Sql_lexer.Ident "like" ->
      ignore (next st);
      ignore (next st);
      let rhs = parse_additive st in
      A.Un (A.Not, A.Like (lhs, rhs))
  | _ -> lhs

(* a NULL member lowers to [OR x IS NULL], never into the list *)
and parse_in_list st =
  expect_op st "(";
  let es = parse_list st parse_expr in
  expect_op st ")";
  if List.mem (A.Lit A.Null) es then error "NULL in an IN list";
  es

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let rec go () =
    match peek st with
    | Sql_lexer.Op "+" ->
        ignore (next st);
        lhs := A.Bin (A.Add, !lhs, parse_multiplicative st);
        go ()
    | Sql_lexer.Op "-" ->
        ignore (next st);
        lhs := A.Bin (A.Sub, !lhs, parse_multiplicative st);
        go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let rec go () =
    match peek st with
    | Sql_lexer.Op "*" ->
        ignore (next st);
        lhs := A.Bin (A.Mul, !lhs, parse_unary st);
        go ()
    | Sql_lexer.Op "/" ->
        ignore (next st);
        lhs := A.Bin (A.Div, !lhs, parse_unary st);
        go ()
    | Sql_lexer.Op "%" ->
        ignore (next st);
        lhs := A.Bin (A.Mod, !lhs, parse_unary st);
        go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_unary st =
  match peek st with
  | Sql_lexer.Op "-" ->
      ignore (next st);
      A.Un (A.Neg, parse_unary st)
  | Sql_lexer.Op "+" ->
      ignore (next st);
      parse_unary st
  | _ -> parse_postfix st

(* [expr::type] casts *)
and parse_postfix st =
  let e = ref (parse_primary st) in
  while peek st = Sql_lexer.Op "::" do
    ignore (next st);
    let ty = type_name st in
    e := A.Cast (!e, ty)
  done;
  !e

and parse_primary st : A.expr =
  match next st with
  | Sql_lexer.IntLit i -> A.Lit (A.Int i)
  | Sql_lexer.FloatLit f -> A.Lit (A.Float f)
  | Sql_lexer.StrLit s -> A.Lit (A.Str s)
  | Sql_lexer.Op "(" ->
      let e = parse_expr st in
      expect_op st ")";
      e
  | Sql_lexer.Op "*" -> A.Star
  | Sql_lexer.Ident "null" -> A.Lit A.Null
  | Sql_lexer.Ident "true" -> A.Lit (A.Bool true)
  | Sql_lexer.Ident "false" -> A.Lit (A.Bool false)
  | Sql_lexer.Ident "case" -> parse_case st
  | Sql_lexer.Ident "cast" ->
      expect_op st "(";
      let e = parse_expr st in
      expect_kw st "as";
      let ty = type_name st in
      expect_op st ")";
      A.Cast (e, ty)
  | Sql_lexer.Ident name when peek st = Sql_lexer.Op "(" ->
      parse_call st name
  | Sql_lexer.Ident name -> parse_column st name
  | Sql_lexer.QIdent name ->
      if peek st = Sql_lexer.Op "(" then parse_call st name
      else parse_column st name
  | t -> error "unexpected token %s in expression" (Sql_lexer.token_str t)

and parse_column st first =
  if peek st = Sql_lexer.Op "." then begin
    ignore (next st);
    match next st with
    | Sql_lexer.Ident c | Sql_lexer.QIdent c -> A.Col (Some first, c)
    | Sql_lexer.Op "*" -> A.Col (Some first, "*")
    | t -> error "expected column after ., found %s" (Sql_lexer.token_str t)
  end
  else A.Col (None, first)

and parse_call st name : A.expr =
  expect_op st "(";
  let distinct = eat_kw st "distinct" in
  let args = if peek st = Sql_lexer.Op ")" then [] else parse_list st parse_expr in
  expect_op st ")";
  let is_agg = List.mem name Exec.aggregates in
  if distinct && not is_agg then
    error "DISTINCT specified, but %s is not an aggregate function" name;
  (* OVER clause makes it a window function *)
  if eat_kw st "over" then begin
    if distinct then error "DISTINCT is not implemented for window functions";
    expect_op st "(";
    let partition =
      if eat_kw st "partition" then begin
        expect_kw st "by";
        parse_list st parse_expr
      end
      else []
    in
    let order =
      if eat_kw st "order" then begin
        expect_kw st "by";
        parse_list st (fun st ->
            let e = parse_expr st in
            (e, parse_direction st))
      end
      else []
    in
    (* the one frame form: ROWS BETWEEN <start> AND CURRENT ROW *)
    let frame =
      if eat_kw st "rows" then begin
        expect_kw st "between";
        let start =
          if eat_kw st "unbounded" then A.UnboundedPreceding
          else
            match next st with
            | Sql_lexer.IntLit n -> A.Preceding (Int64.to_int n)
            | t -> error "bad frame start %s" (Sql_lexer.token_str t)
        in
        expect_kw st "preceding";
        expect_kw st "and";
        expect_kw st "current";
        expect_kw st "row";
        Some start
      end
      else None
    in
    expect_op st ")";
    A.Window { win_fn = name; win_args = args; partition; order; frame }
  end
  else if is_agg then A.Agg { agg_name = name; distinct; args }
  else A.Fun (name, args)

and parse_case st : A.expr =
  let branches = ref [] in
  while eat_kw st "when" do
    let c = parse_expr st in
    expect_kw st "then";
    let r = parse_expr st in
    branches := (c, r) :: !branches
  done;
  let else_ = if eat_kw st "else" then Some (parse_expr st) else None in
  expect_kw st "end";
  A.Case (List.rev !branches, else_)

and parse_direction st : A.direction =
  if eat_kw st "asc" then A.Asc
  else if eat_kw st "desc" then A.Desc
  else A.Asc

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)
(* ------------------------------------------------------------------ *)

and parse_select st : A.select =
  expect_kw st "select";
  if at_kw st "distinct" then error "SELECT DISTINCT is not supported";
  let projs =
    parse_list st (fun st ->
        let e = parse_expr st in
        let alias =
          if eat_kw st "as" then Some (ident st)
          else
            match peek st with
            | Sql_lexer.Ident a
              when not
                     (List.mem a
                        [ "from"; "where"; "group"; "having"; "order"; "limit";
                          "offset"; "union"; "all"; "inner"; "left"; "cross";
                          "join"; "on"; "as"; "and"; "or" ]) ->
                ignore (next st);
                Some a
            | Sql_lexer.QIdent a ->
                ignore (next st);
                Some a
            | _ -> None
        in
        { A.p_expr = e; p_alias = alias })
  in
  let from = if eat_kw st "from" then Some (parse_from st) else None in
  let where = if eat_kw st "where" then Some (parse_expr st) else None in
  let group_by =
    if eat_kw st "group" then begin
      expect_kw st "by";
      parse_list st parse_expr
    end
    else []
  in
  let order_by =
    if eat_kw st "order" then begin
      expect_kw st "by";
      parse_list st (fun st ->
          let e = parse_expr st in
          (e, parse_direction st))
    end
    else []
  in
  let limit =
    if eat_kw st "limit" then
      match next st with
      | Sql_lexer.IntLit n -> Some (Int64.to_int n)
      | t -> error "expected LIMIT count, found %s" (Sql_lexer.token_str t)
    else None
  in
  { A.projs; from; where; group_by; order_by; limit }

(* one [item [INNER] JOIN item ON e] or [LEFT [OUTER] JOIN]; the
   translator nests a further join in a derived table *)
and parse_from st : A.from_item =
  let left = parse_from_item st in
  let jkind =
    match peek st with
    | Sql_lexer.Ident ("inner" | "join") ->
        ignore (eat_kw st "inner");
        Some `Inner
    | Sql_lexer.Ident "left" ->
        ignore (next st);
        ignore (eat_kw st "outer");
        Some `Left
    | _ -> None
  in
  match jkind with
  | None -> left
  | Some jkind ->
      expect_kw st "join";
      let right = parse_from_item st in
      expect_kw st "on";
      A.JoinItem { jkind; left; right; on = parse_expr st }

and parse_from_item st : A.from_item =
  match peek st with
  | Sql_lexer.Op "(" ->
      ignore (next st);
      let sub = parse_select st in
      let parts = ref [ sub ] in
      while at_kw st "union" do
        ignore (next st);
        expect_kw st "all";
        parts := parse_select st :: !parts
      done;
      expect_op st ")";
      ignore (eat_kw st "as");
      let alias = ident st in
      (match List.rev !parts with
      | [ one ] -> A.SubqueryRef (one, alias)
      | many -> A.UnionRef (many, alias))
  | _ ->
      let name = ident st in
      let alias =
        if eat_kw st "as" then Some (ident st)
        else
          match peek st with
          | Sql_lexer.Ident a
            when not
                   (List.mem a
                      [ "inner"; "left"; "cross"; "join"; "on"; "where";
                        "group"; "having"; "order"; "limit"; "offset"; "as";
                        "union"; "all" ])
            ->
              ignore (next st);
              Some a
          | _ -> None
      in
      A.TableRef (name, alias)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_stmt_tokens st : A.stmt =
  match peek st with
  | Sql_lexer.Ident "select" -> A.Select (parse_select st)
  | Sql_lexer.Ident "create" ->
      ignore (next st);
      expect_kw st "temporary";
      expect_kw st "table";
      let name = ident st in
      expect_kw st "as";
      A.CreateTempTableAs (name, parse_select st)
  | t -> error "unsupported statement starting with %s" (Sql_lexer.token_str t)

(** Parse one SQL statement (a trailing semicolon is allowed). *)
let parse (src : string) : A.stmt =
  let st = { toks = Sql_lexer.tokenize src } in
  let stmt = parse_stmt_tokens st in
  (match peek st with
  | Sql_lexer.Op ";" -> ignore (next st)
  | _ -> ());
  (match peek st with
  | Sql_lexer.Eof -> ()
  | t -> error "trailing input: %s" (Sql_lexer.token_str t));
  stmt

(** Parse a script of semicolon-separated statements. *)
let parse_many (src : string) : A.stmt list =
  let st = { toks = Sql_lexer.tokenize src } in
  let rec go acc =
    match peek st with
    | Sql_lexer.Eof -> List.rev acc
    | Sql_lexer.Op ";" ->
        ignore (next st);
        go acc
    | _ ->
        let stmt = parse_stmt_tokens st in
        go (stmt :: acc)
  in
  go []
