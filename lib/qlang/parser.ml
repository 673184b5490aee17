(** Parser for the Q subset.

    Per the paper (Section 3.2.1) this parser is deliberately lightweight:
    it produces an untyped AST and performs no variable or type resolution,
    leaving semantic analysis to the binder. Q has no operator precedence —
    a phrase is a sequence of nouns and verbs evaluated strictly
    right-to-left, with juxtaposition meaning monadic application. *)

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Keywords that start q-sql templates. *)
let is_sql_keyword = function
  | "select" | "exec" | "update" | "delete" -> true
  | _ -> false

(* Named primitives usable infix (Q keywords). *)
let infix_names =
  [
    "in"; "within"; "like"; "mod"; "div"; "xkey"; "xcol"; "xasc"; "xdesc";
    "union"; "inter"; "except"; "cross"; "each"; "insert"; "upsert"; "cut";
    "vs"; "sv"; "mavg"; "msum"; "mmax"; "mmin"; "wavg"; "wsum"; "xbar";
    "set"; "fill"; "take"; "bin"; "and"; "or"; "fby"; "lj"; "ij"; "uj";
    "xcols"; "sublist";
  ]

let is_control_name = function "if" | "do" | "while" -> true | _ -> false
let is_infix_name n = List.exists (String.equal n) infix_names

(* The token array is read by index; past its end every read is [Eof]. *)
type stream = { toks : Token.t array; mutable pos : int }

let at s i = if i < Array.length s.toks then s.toks.(i) else Token.Eof
let peek s = at s s.pos
let peek2 s = at s (s.pos + 1)

let next s =
  let t = peek s in
  if s.pos < Array.length s.toks then s.pos <- s.pos + 1;
  t

(* Monomorphic token tests, for the parser's lookahead. *)
let is_eof = function Token.Eof -> true | _ -> false
let is_semi = function Token.Semi -> true | _ -> false
let is_lbracket = function Token.LBracket -> true | _ -> false
let is_rbracket = function Token.RBracket -> true | _ -> false
let is_rparen = function Token.RParen -> true | _ -> false
let is_rbrace = function Token.RBrace -> true | _ -> false
let is_comma = function Token.Verb "," -> true | _ -> false
let is_name n = function Token.Name m -> String.equal m n | _ -> false

let expect s (is : Token.t -> bool) what =
  let t = next s in
  if not (is t) then error "expected %s, found %s" what (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Phrase items                                                        *)
(* ------------------------------------------------------------------ *)

(* A phrase is a list of items; each item is a noun or a verb. After
   collecting items left-to-right we fold them right-to-left. *)
type item = Noun of Ast.expr | VerbItem of Ast.expr

let adverb_of_string = function
  | "'" -> Ast.Each
  | "/" -> Ast.Over
  | "\\" -> Ast.Scan
  | "\\:" -> Ast.EachLeft
  | "/:" -> Ast.EachRight
  | "':" -> Ast.EachPrior
  | a -> error "unknown adverb %s" a

(* Tokens that terminate the current phrase. *)
let is_terminator = function
  | Token.Semi | Token.RParen | Token.RBracket | Token.RBrace | Token.Eof ->
      true
  | _ -> false

let lit_of_num_token = function
  | Token.Num a -> Ast.Lit (Ast.LAtom a)
  | Token.NumVec atoms -> Ast.Lit (Ast.LVector atoms)
  | _ -> assert false

let rec parse_statements (s : stream) ~(stop : Token.t -> bool) :
    Ast.expr list =
  let rec go acc =
    if stop (peek s) then List.rev acc
    else if is_semi (peek s) then begin
      ignore (next s);
      go acc
    end
    else
      let e = parse_expr s ~extra_stop:(fun _ -> false) in
      go (e :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(** Parse one expression (phrase): collect items until a terminator (or an
    [extra_stop] token, used for q-sql's commas and keywords), then fold
    right-to-left. *)
and parse_expr (s : stream) ~(extra_stop : Token.t -> bool) : Ast.expr =
  let items = ref [] in
  let rec collect () =
    let t = peek s in
    if is_terminator t || extra_stop t then ()
    else begin
      (match t with
      | Token.Name kw when is_sql_keyword kw ->
          ignore (next s);
          items := Noun (parse_sql s kw ~extra_stop) :: !items
      | Token.Name kw when is_control_name kw && is_lbracket (peek2 s) ->
          ignore (next s);
          ignore (next s);
          let args = parse_arg_list s in
          items := Noun (Ast.Control (kw, args)) :: !items
      | Token.Name n when is_infix_name n ->
          ignore (next s);
          items := VerbItem (Ast.Verb n) :: !items
      | Token.Name n ->
          ignore (next s);
          items := Noun (Ast.Var n) :: !items
      | Token.Num _ | Token.NumVec _ ->
          let t = next s in
          items := Noun (lit_of_num_token t) :: !items
      | Token.SymLit [ x ] ->
          ignore (next s);
          items := Noun (Ast.Lit (Ast.LAtom (Qvalue.Atom.Sym x))) :: !items
      | Token.SymLit xs ->
          ignore (next s);
          items :=
            Noun
              (Ast.Lit (Ast.LVector (List.map (fun x -> Qvalue.Atom.Sym x) xs)))
            :: !items
      | Token.Str str ->
          ignore (next s);
          let lit =
            if String.length str = 1 then Ast.Lit (Ast.LAtom (Qvalue.Atom.Char str.[0]))
            else Ast.Lit (Ast.LString str)
          in
          items := Noun lit :: !items
      | Token.Verb "$" when is_lbracket (peek2 s) ->
          ignore (next s);
          ignore (next s);
          let args = parse_arg_list s in
          items := Noun (Ast.Cond args) :: !items
      | Token.Verb v ->
          ignore (next s);
          items := VerbItem (Ast.Verb v) :: !items
      | Token.Adverb a ->
          ignore (next s);
          let adv = adverb_of_string a in
          (* attach to the previous item, producing a derived verb *)
          (match !items with
          | Noun e :: rest -> items := VerbItem (Ast.AdverbApp (e, adv)) :: rest
          | VerbItem e :: rest ->
              items := VerbItem (Ast.AdverbApp (e, adv)) :: rest
          | [] -> error "adverb %s with nothing to modify" a)
      | Token.LParen ->
          ignore (next s);
          items := Noun (parse_paren s) :: !items
      | Token.LBracket -> (
          ignore (next s);
          let args = parse_arg_list s in
          (* bracket application binds to the immediately preceding item *)
          match !items with
          | Noun e :: rest -> items := Noun (Ast.Apply (e, args)) :: rest
          | VerbItem e :: rest -> items := Noun (Ast.Apply (e, args)) :: rest
          | [] -> error "indexing with no target")
      | Token.LBrace ->
          ignore (next s);
          items := Noun (parse_lambda s) :: !items
      | Token.Semi | Token.RParen | Token.RBracket | Token.RBrace | Token.Eof
        ->
          assert false);
      collect ()
    end
  in
  collect ();
  fold_phrase (List.rev !items)

(** Fold a phrase right-to-left: the rightmost noun is the seed; moving
    left, a verb with a noun to its left applies dyadically, a verb without
    one applies monadically, and a bare noun applies by juxtaposition. *)
and fold_phrase (items : item list) : Ast.expr =
  match List.rev items with
  | [] -> error "empty expression"
  | last :: rest ->
      let seed =
        match last with
        | Noun e -> e
        | VerbItem e -> e (* a trailing verb is the verb as a value *)
      in
      let rec go acc rest =
        match rest with
        | [] -> acc
        | VerbItem v :: rest' -> (
            match rest' with
            | Noun n :: rest'' -> go (mk_dyadic v n acc) rest''
            | _ -> go (Ast.App1 (v, acc)) rest')
        | Noun n :: rest' -> go (Ast.App1 (n, acc)) rest'
      in
      go seed rest

(* assignment is syntactically an application of the ':' verb to a name *)
and mk_dyadic v x y =
  match (v, x) with
  | Ast.Verb ":", Ast.Var name -> Ast.Assign (name, y)
  | Ast.Verb "::", Ast.Var name -> Ast.GlobalAssign (name, y)
  | _ -> Ast.App2 (v, x, y)

(** Bracket argument list: [e;e;...]. An empty slot is a projection hole
    ([f\[;2\]] partially applies f). [f\[\]] is a zero-argument call. *)
and parse_arg_list (s : stream) : Ast.expr list =
  if is_rbracket (peek s) then begin
    ignore (next s);
    []
  end
  else
    let rec go acc =
      let slot =
        match peek s with
        | Token.Semi | Token.RBracket -> Ast.Hole
        | _ -> parse_expr s ~extra_stop:(fun _ -> false)
      in
      match next s with
      | Token.RBracket -> List.rev (slot :: acc)
      | Token.Semi -> go (slot :: acc)
      | t -> error "expected ; or ] in argument list, found %s" (Token.to_string t)
    in
    go []

(** After '(': either grouping, a list literal, the empty list, or a table
    literal [(\[...\] ...)]. *)
and parse_paren (s : stream) : Ast.expr =
  match peek s with
  | Token.RParen ->
      ignore (next s);
      Ast.ListLit []
  | Token.LBracket ->
      ignore (next s);
      parse_table_lit s
  | _ ->
      let first = parse_expr s ~extra_stop:(fun _ -> false) in
      let rec go acc =
        match next s with
        | Token.RParen -> List.rev acc
        | Token.Semi ->
            let e = parse_expr s ~extra_stop:(fun _ -> false) in
            go (e :: acc)
        | t -> error "expected ; or ) in list, found %s" (Token.to_string t)
      in
      let es = go [ first ] in
      (match es with [ e ] -> e | es -> Ast.ListLit es)

(** Table literal: we are just past '(['. Columns are [name:expr] pairs;
    the bracketed ones are key columns. *)
and parse_table_lit (s : stream) : Ast.expr =
  let parse_cols ~stop =
    let rec go acc =
      if stop (peek s) then begin
        ignore (next s);
        List.rev acc
      end
      else if is_semi (peek s) then begin
        ignore (next s);
        go acc
      end
      else
        let e = parse_expr s ~extra_stop:stop in
        let named =
          match e with
          | Ast.Assign (n, e') -> (n, e')
          | Ast.Var n -> (n, Ast.Var n)
          | e' -> (infer_col_name e', e')
        in
        go (named :: acc)
    in
    go []
  in
  let keys = parse_cols ~stop:is_rbracket in
  let cols = parse_cols ~stop:is_rparen in
  Ast.TableLit (keys, cols)

(** Derive a column name from an expression, as q-sql does ([max Price] is
    named [Price]). *)
and infer_col_name (e : Ast.expr) : string =
  match e with
  | Ast.Var n -> ( match String.rindex_opt n '.' with
      | Some i -> String.sub n (i + 1) (String.length n - i - 1)
      | None -> n)
  | Ast.App1 (_, x) -> infer_col_name x
  | Ast.App2 (_, x, _) -> infer_col_name x
  | Ast.Apply (_, x :: _) -> infer_col_name x
  | _ -> "x"

(** Lambda: we are just past '{'. *)
and parse_lambda (s : stream) : Ast.expr =
  let params =
    if is_lbracket (peek s) then begin
      ignore (next s);
      let rec go acc =
        match next s with
        | Token.RBracket -> List.rev acc
        | Token.Name n -> (
            match peek s with
            | Token.Semi ->
                ignore (next s);
                go (n :: acc)
            | Token.RBracket ->
                ignore (next s);
                List.rev (n :: acc)
            | t -> error "bad parameter list near %s" (Token.to_string t))
        | t -> error "bad parameter list near %s" (Token.to_string t)
      in
      go []
    end
    else []
  in
  let body = parse_statements s ~stop:is_rbrace in
  expect s is_rbrace "}";
  (* normalise return statements: a body expression of the form
     App1 (Verb ":", e) — produced by a leading colon — is a Return *)
  let body =
    List.map
      (function Ast.App1 (Ast.Verb ":", e) -> Ast.Return e | e -> e)
      body
  in
  let source = String.concat ";" (List.map Ast.to_string body) in
  Ast.Lambda { params; body; source }

(* ------------------------------------------------------------------ *)
(* q-sql templates                                                     *)
(* ------------------------------------------------------------------ *)

(** q-sql: [select cols by groups from t where c1, c2, ...]. We are just
    past the leading keyword. Commas separate columns/filters at phrase
    level (elsewhere comma is the join verb). *)
and parse_sql (s : stream) (kw : string) ~extra_stop : Ast.expr =
  let op =
    match kw with
    | "select" -> Ast.Select
    | "exec" -> Ast.Exec
    | "update" -> Ast.Update
    | "delete" -> Ast.Delete
    | _ -> assert false
  in
  let kw_stop t =
    match t with
    | Token.Name ("by" | "from" | "where") -> true
    | _ -> false
  in
  let parse_col_list () =
    let rec go acc =
      if kw_stop (peek s) || is_terminator (peek s) || extra_stop (peek s)
      then List.rev acc
      else
        let e =
          parse_expr s ~extra_stop:(fun t ->
              kw_stop t || is_comma t || extra_stop t)
        in
        let named =
          match e with
          | Ast.Assign (n, e') -> (Some n, e')
          | e' -> (None, e')
        in
        if is_comma (peek s) then begin
          ignore (next s);
          go (named :: acc)
        end
        else List.rev (named :: acc)
    in
    go []
  in
  let cols =
    if kw_stop (peek s) || is_terminator (peek s) then [] else parse_col_list ()
  in
  let by =
    if is_name "by" (peek s) then begin
      ignore (next s);
      parse_col_list ()
    end
    else []
  in
  if not (is_name "from" (peek s)) then
    error "expected 'from' in %s expression" kw;
  ignore (next s);
  let from =
    parse_expr s ~extra_stop:(fun t -> is_name "where" t || extra_stop t)
  in
  let filters =
    if is_name "where" (peek s) then begin
      ignore (next s);
      let rec go acc =
        let e =
          parse_expr s ~extra_stop:(fun t -> is_comma t || extra_stop t)
        in
        if is_comma (peek s) then begin
          ignore (next s);
          go (e :: acc)
        end
        else List.rev (e :: acc)
      in
      go []
    end
    else []
  in
  Ast.Sql { op; cols; by; from; filters }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Parse a token array (as {!Lexer.tokenize} returns it): statements
    separated by semicolons or top-level newlines. *)
let parse_tokens (toks : Token.t array) : Ast.expr list =
  parse_statements { toks; pos = 0 } ~stop:is_eof

(** Parse an analyzed request from its tokens; a text the lexer rejected
    raises the lexer's error. *)
let parse_analysis (an : Fingerprint.analysis) : Ast.expr list =
  match an.Fingerprint.a_tokens with
  | Ok toks -> parse_tokens toks
  | Error m -> raise (Lexer.Error m)

(** Parse a whole program / script. *)
let parse_program (src : string) : Ast.expr list =
  parse_tokens (Lexer.tokenize src)

(** Parse a single expression; fails on trailing garbage. *)
let parse_expression (src : string) : Ast.expr =
  match parse_program src with
  | [ e ] -> e
  | [] -> error "empty input"
  | _ -> error "expected a single expression"
