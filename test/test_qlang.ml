(* Unit and property tests for the Q lexer and parser (lib/qlang). *)

open Qlang

let check = Alcotest.check
let tstr = Alcotest.string
let tint = Alcotest.int
let tbool = Alcotest.bool

let parse = Parser.parse_expression
let show e = Ast.to_string e

(* parse [src] as a request is parsed: from its one analysis *)
let parse_request src = Parser.parse_analysis (Fingerprint.analyze src)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src =
  Lexer.tokenize src |> Array.to_list |> List.map Token.to_string
  |> String.concat " "

let test_lex_literals () =
  check tstr "longs" "42 <eof>" (toks "42");
  check tstr "negative" "-7 <eof>" (toks "-7");
  check tstr "float" "2.5 <eof>" (toks "2.5");
  check tstr "vector merge" "1 2 3 <eof>" (toks "1 2 3");
  check tstr "bool" "1b <eof>" (toks "1b");
  check tstr "bool vector" "1b 0b 1b <eof>" (toks "101b");
  check tstr "null long" "0N <eof>" (toks "0N");
  check tstr "null float" "0n <eof>" (toks "0n");
  check tstr "date" "2016.06.26 <eof>" (toks "2016.06.26");
  check tstr "time" "09:30:00.000 <eof>" (toks "09:30:00.000");
  check tstr "symbols" "`a`b`c <eof>" (toks "`a`b`c");
  check tstr "null symbol" "` <eof>" (toks "`");
  check tstr "string" "\"hi\" <eof>" (toks "\"hi\"")

let test_lex_minus_disambiguation () =
  (* x-1 is subtraction; (-1) is a literal; 3*-1 is a literal *)
  check tstr "x-1" "x - 1 <eof>" (toks "x-1");
  check tstr "(-1)" "( -1 ) <eof>" (toks "(-1)");
  check tstr "3*-1" "3 * -1 <eof>" (toks "3*-1");
  check tstr "1 -2 merges" "1 -2 <eof>" (toks "1 -2")

let test_lex_comments_and_adverbs () =
  (* glued slash is the over adverb; spaced slash is a comment *)
  check tstr "over" "+ / x <eof>" (toks "+/x");
  check tstr "comment" "x <eof>" (toks "x / this is a comment");
  check tstr "each" "f ' x <eof>" (toks "f'x");
  check tstr "each-left" "x \\: y <eof>" (toks "x\\:y");
  check tstr "each-right" "x /: y <eof>" (toks "x/:y")

let test_lex_newline_statements () =
  check tstr "newline splits" "a : 1 ; b : 2 <eof>" (toks "a:1\nb:2");
  (* newlines inside brackets do not split *)
  check tstr "no split in parens" "( 1 ; 2 ) <eof>" (toks "(1;\n2)")

let test_lex_strings_and_escapes () =
  (match Lexer.tokenize {|"a\"b\n"|} with
  | [| Token.Str s; Token.Eof |] -> check tstr "escapes" "a\"b\n" s
  | ts ->
      Alcotest.failf "unexpected: %s"
        (String.concat " " (List.map Token.to_string (Array.to_list ts))));
  (* single-char strings become char atoms at parse time *)
  match parse {|"x"|} with
  | Ast.Lit (Ast.LAtom (Qvalue.Atom.Char 'x')) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_lex_scientific_and_suffixes () =
  (match Lexer.tokenize "1.5e3" with
  | [| Token.Num (Qvalue.Atom.Float f); Token.Eof |] ->
      check (Alcotest.float 1e-9) "exponent" 1500.0 f
  | _ -> Alcotest.fail "scientific notation");
  (match Lexer.tokenize "2f" with
  | [| Token.Num (Qvalue.Atom.Float f); Token.Eof |] ->
      check (Alcotest.float 1e-9) "f suffix" 2.0 f
  | _ -> Alcotest.fail "float suffix");
  match Lexer.tokenize "3j" with
  | [| Token.Num (Qvalue.Atom.Long 3L); Token.Eof |] -> ()
  | _ -> Alcotest.fail "long suffix"

let test_lex_infinities () =
  match Lexer.tokenize "0w" with
  | [| Token.Num (Qvalue.Atom.Float f); Token.Eof |] ->
      check tbool "positive infinity" true (f = Float.infinity)
  | _ -> Alcotest.fail "0w"

let test_lex_timestamp () =
  match Lexer.tokenize "2016.06.26D09:30:00" with
  | [| Token.Num (Qvalue.Atom.Timestamp _); Token.Eof |] -> ()
  | ts ->
      Alcotest.failf "expected timestamp, got %s"
        (String.concat " " (List.map Token.to_string (Array.to_list ts)))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_right_to_left () =
  (* no precedence: 2*3+4 parses as 2*(3+4) *)
  (match parse "2*3+4" with
  | Ast.App2 (Ast.Verb "*", Ast.Lit _, Ast.App2 (Ast.Verb "+", Ast.Lit _, Ast.Lit _)) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e));
  (* a leading verb applies monadically *)
  match parse "- x" with
  | Ast.App1 (Ast.Verb "-", Ast.Var "x") -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_juxtaposition () =
  (* count t applies count to t *)
  match parse "count t" with
  | Ast.App1 (Ast.Var "count", Ast.Var "t") -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_assignment () =
  (match parse "x:1" with
  | Ast.Assign ("x", Ast.Lit (Ast.LAtom (Qvalue.Atom.Long 1L))) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e));
  match parse "x::2" with
  | Ast.GlobalAssign ("x", _) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_application () =
  (match parse "f[1;2]" with
  | Ast.Apply (Ast.Var "f", [ _; _ ]) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e));
  match parse "aj[`Symbol`Time; trades; quotes]" with
  | Ast.Apply (Ast.Var "aj", [ Ast.Lit (Ast.LVector _); Ast.Var "trades"; Ast.Var "quotes" ]) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_lambda () =
  match parse "{[a;b] a+b}" with
  | Ast.Lambda { params = [ "a"; "b" ]; body = [ Ast.App2 (Ast.Verb "+", Ast.Var "a", Ast.Var "b") ]; _ } -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_lambda_return () =
  match parse "{[x] :x+1}" with
  | Ast.Lambda { body = [ Ast.Return _ ]; _ } -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_select () =
  match parse "select Price from trades where Date=d, Symbol in s" with
  | Ast.Sql { op = Ast.Select; cols = [ (None, Ast.Var "Price") ];
              by = []; from = Ast.Var "trades"; filters = [ _; _ ] } -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_select_by () =
  match parse "select mx:max Price by Symbol from trades" with
  | Ast.Sql { op = Ast.Select;
              cols = [ (Some "mx", Ast.App1 (Ast.Var "max", Ast.Var "Price")) ];
              by = [ (None, Ast.Var "Symbol") ]; _ } -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_select_no_cols () =
  match parse "select from trades" with
  | Ast.Sql { op = Ast.Select; cols = []; _ } -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_exec_update_delete () =
  (match parse "exec Price from trades" with
  | Ast.Sql { op = Ast.Exec; _ } -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e));
  (match parse "update px:2*Price from trades" with
  | Ast.Sql { op = Ast.Update; _ } -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e));
  match parse "delete from trades where Price<0" with
  | Ast.Sql { op = Ast.Delete; filters = [ _ ]; _ } -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_paper_example1 () =
  (* the point-in-time query from the paper's Example 1 *)
  let q =
    "aj[`Symbol`Time;\n\
    \   select Price from trades\n\
    \   where Date=SOMEDATE, Symbol in SYMLIST;\n\
    \   select Symbol, Time, Bid, Ask from quotes\n\
    \   where Date=SOMEDATE]"
  in
  match parse q with
  | Ast.Apply (Ast.Var "aj", [ _; Ast.Sql _; Ast.Sql _ ]) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_paper_example3 () =
  (* function definition with local variable and return (Example 3) *)
  let src =
    "f:{[Sym] dt: select Price from trades where Symbol=Sym; :select max \
     Price from dt}"
  in
  match parse src with
  | Ast.Assign ("f", Ast.Lambda { params = [ "Sym" ]; body = [ Ast.Assign ("dt", Ast.Sql _); Ast.Return (Ast.Sql _) ]; _ }) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_cond_and_control () =
  (match parse "$[x>0;1;-1]" with
  | Ast.Cond [ _; _; _ ] -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e));
  match parse "if[x>0;y:1]" with
  | Ast.Control ("if", [ _; _ ]) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_table_literal () =
  (match parse "([] a:1 2; b:`x`y)" with
  | Ast.TableLit ([], [ ("a", _); ("b", _) ]) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e));
  match parse "([s:`a`b] v:1 2)" with
  | Ast.TableLit ([ ("s", _) ], [ ("v", _) ]) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_list_literal () =
  (match parse "(1;2;3)" with
  | Ast.ListLit [ _; _; _ ] -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e));
  (* single parens are grouping, not a list *)
  match parse "(1+2)" with
  | Ast.App2 _ -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_adverbs () =
  (match parse "+/1 2 3" with
  | Ast.App1 (Ast.AdverbApp (Ast.Verb "+", Ast.Over), _) -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e));
  match parse "f each x" with
  | Ast.App2 (Ast.Verb "each", Ast.Var "f", Ast.Var "x") -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_infix_names () =
  match parse "Symbol in s" with
  | Ast.App2 (Ast.Verb "in", Ast.Var "Symbol", Ast.Var "s") -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

let test_parse_program () =
  let stmts = Parser.parse_program "a:1\nb:2\na+b" in
  check tint "3 statements" 3 (List.length stmts)

let test_parse_verb_as_value () =
  match parse "f: +" with
  | Ast.Assign ("f", Ast.Verb "+") -> ()
  | e -> Alcotest.failf "unexpected: %s" (show e)

(* ------------------------------------------------------------------ *)
(* Properties: print/reparse round trip                                *)
(* ------------------------------------------------------------------ *)

(* generator for random well-formed expressions *)
let rec gen_expr depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun i -> Ast.Lit (Ast.LAtom (Qvalue.Atom.Long (Int64.of_int i)))) (int_range 0 100);
        map (fun s -> Ast.Var s) (oneofl [ "x"; "y"; "trades"; "px" ]);
        map (fun s -> Ast.Lit (Ast.LAtom (Qvalue.Atom.Sym s))) (oneofl [ "a"; "GOOG" ]);
      ]
  else
    oneof
      [
        (let* v = oneofl [ "+"; "-"; "*"; "%" ] in
         let* a = gen_expr (depth - 1) in
         let* b = gen_expr (depth - 1) in
         return (Ast.App2 (Ast.Verb v, a, b)));
        (let* f = oneofl [ "count"; "sum"; "max" ] in
         let* a = gen_expr (depth - 1) in
         return (Ast.App1 (Ast.Var f, a)));
        (let* a = gen_expr (depth - 1) in
         let* b = gen_expr (depth - 1) in
         return (Ast.Apply (Ast.Var "f", [ a; b ])));
        gen_expr 0;
      ]

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"print/reparse preserves printed form"
    (QCheck.make (gen_expr 3)) (fun e ->
      let s = Ast.to_string e in
      match parse_request s with
      | [ e' ] -> s = Ast.to_string e'
      | _ -> false)

(* fuzz: arbitrary input must either parse or raise the module's own
   error exceptions — never assert failures or Match_failure *)
let prop_parser_never_crashes =
  QCheck.Test.make ~count:500 ~name:"parser fails cleanly on garbage"
    QCheck.(string_gen_of_size (Gen.int_range 0 60) Gen.printable)
    (fun src ->
      match parse_request src with
      | _ -> true
      | exception Lexer.Error _ -> true
      | exception Parser.Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "unexpected exception %s on %S"
            (Printexc.to_string e) src)

let prop_parser_never_crashes_qish =
  (* q-shaped fuzz: random splices of plausible tokens *)
  QCheck.Test.make ~count:500 ~name:"parser fails cleanly on q-like soup"
    QCheck.(
      list_of_size (Gen.int_range 1 15)
        (oneofl
           [ "select"; "from"; "where"; "by"; "+"; "-"; "`a"; "1 2"; "("; ")";
             "["; "]"; "{"; "}"; ";"; "x"; ":"; "aj"; "0N"; "\""; "'"; "/"; "," ]))
    (fun toks ->
      let src = String.concat " " toks in
      match parse_request src with
      | _ -> true
      | exception Lexer.Error _ -> true
      | exception Parser.Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "unexpected exception %s on %S"
            (Printexc.to_string e) src)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_parser_never_crashes; prop_parser_never_crashes_qish ]

let () =
  Alcotest.run "qlang"
    [
      ( "lexer",
        [
          Alcotest.test_case "literals" `Quick test_lex_literals;
          Alcotest.test_case "minus disambiguation" `Quick
            test_lex_minus_disambiguation;
          Alcotest.test_case "comments and adverbs" `Quick
            test_lex_comments_and_adverbs;
          Alcotest.test_case "newline statements" `Quick
            test_lex_newline_statements;
          Alcotest.test_case "strings and escapes" `Quick
            test_lex_strings_and_escapes;
          Alcotest.test_case "scientific and suffixes" `Quick
            test_lex_scientific_and_suffixes;
          Alcotest.test_case "infinities" `Quick test_lex_infinities;
          Alcotest.test_case "timestamp" `Quick test_lex_timestamp;
        ] );
      ( "parser",
        [
          Alcotest.test_case "right-to-left" `Quick test_parse_right_to_left;
          Alcotest.test_case "juxtaposition" `Quick test_parse_juxtaposition;
          Alcotest.test_case "assignment" `Quick test_parse_assignment;
          Alcotest.test_case "application" `Quick test_parse_application;
          Alcotest.test_case "lambda" `Quick test_parse_lambda;
          Alcotest.test_case "lambda return" `Quick test_parse_lambda_return;
          Alcotest.test_case "select" `Quick test_parse_select;
          Alcotest.test_case "select by" `Quick test_parse_select_by;
          Alcotest.test_case "select no cols" `Quick test_parse_select_no_cols;
          Alcotest.test_case "exec/update/delete" `Quick
            test_parse_exec_update_delete;
          Alcotest.test_case "paper example 1 (aj)" `Quick
            test_parse_paper_example1;
          Alcotest.test_case "paper example 3 (function)" `Quick
            test_parse_paper_example3;
          Alcotest.test_case "cond and control" `Quick
            test_parse_cond_and_control;
          Alcotest.test_case "table literal" `Quick test_parse_table_literal;
          Alcotest.test_case "list literal" `Quick test_parse_list_literal;
          Alcotest.test_case "adverbs" `Quick test_parse_adverbs;
          Alcotest.test_case "infix names" `Quick test_parse_infix_names;
          Alcotest.test_case "program" `Quick test_parse_program;
          Alcotest.test_case "verb as value" `Quick test_parse_verb_as_value;
        ] );
      ("properties", props);
    ]
