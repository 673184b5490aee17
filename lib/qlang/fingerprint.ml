(** Query fingerprinting: collapse a Q query to its {e shape} so workload
    statistics can aggregate by what a query does rather than by its
    literal text (pg_stat_statements-style).

    {!analyze} is where a request's text becomes tokens, once per
    request: its {!analysis} carries the token array with the shape, the
    literals' token indices and the statement count, and every later
    stage (the parser, the plan cache's signature and sentinel
    substitution, the workload-stats plane) reads that analysis.

    Normalization re-renders the token stream canonically:

    - numeric, temporal and boolean literals (including juxtaposed
      vector literals like [1 2 3]) become a single [?];
    - string literals become [?], symbol literals (and symbol vectors
      like [`a`b`c]) become [`?];
    - comments are dropped (the lexer never emits them);
    - whitespace collapses to single separators, so layout and
      indentation never change the fingerprint;
    - names, verbs and adverbs pass through verbatim — two queries that
      differ in a verb or an identifier are different shapes.

    Text the lexer rejects (garbage bytes, unterminated strings) falls
    back to whitespace-collapsed raw text, so every query — including
    ones that will fail to parse — gets a stable fingerprint. *)

let collapse_ws (s : string) : string =
  String.split_on_char ' '
    (String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) s)
  |> List.filter (fun w -> w <> "")
  |> String.concat " "

type analysis = {
  a_src : string;  (** the request text *)
  a_tokens : (Token.t array, string) result;
      (** the lexer's tokens, [Eof] last, or its error message *)
  a_norm : string;  (** canonical shape text, literals collapsed *)
  a_fingerprint : string;  (** [of_normalized a_norm] *)
  a_literals : int list;
      (** the token indices of the literals, in source order *)
  a_statements : int;  (** top-level (depth-0) statement count *)
}

(** Stable 16-hex-char fingerprint hash of an already-normalized text. *)
let of_normalized (norm : string) : string =
  String.sub (Digest.to_hex (Digest.string norm)) 0 16

(** Lex [text] once and walk its tokens once, producing the normalized
    shape, its fingerprint, the literals' token indices and the
    top-level statement count. Never raises. *)
let analyze (text : string) : analysis =
  match Lexer.tokenize text with
  | toks ->
      let buf = Buffer.create (String.length text) in
      (* the length of [buf] through its last part that is not [;]:
         trailing separators do not change the shape *)
      let kept = ref 0 in
      let part p =
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf p
      in
      let word p =
        part p;
        kept := Buffer.length buf
      in
      let lits = ref [] in
      (* [;] emits Semi at any bracket depth ([aj[`s;t;q]]), so track the
         depth: only depth-0 separators split statements *)
      let depth = ref 0 and stmts = ref 0 and in_stmt = ref false in
      Array.iteri
        (fun i (t : Token.t) ->
          match t with
          | Token.Num _ | Token.NumVec _ | Token.Str _ ->
              lits := i :: !lits;
              word "?";
              in_stmt := true
          | Token.SymLit _ ->
              lits := i :: !lits;
              word "`?";
              in_stmt := true
          | Token.Name p | Token.Verb p | Token.Adverb p ->
              word p;
              in_stmt := true
          | Token.LParen | Token.LBracket | Token.LBrace ->
              incr depth;
              word (Token.to_string t);
              in_stmt := true
          | Token.RParen | Token.RBracket | Token.RBrace ->
              decr depth;
              word (Token.to_string t)
          | Token.Semi ->
              part ";";
              if !depth = 0 then begin
                if !in_stmt then incr stmts;
                in_stmt := false
              end
          | Token.Eof -> ())
        toks;
      if !in_stmt then incr stmts;
      let norm = Buffer.sub buf 0 !kept in
      {
        a_src = text;
        a_tokens = Ok toks;
        a_norm = norm;
        a_fingerprint = of_normalized norm;
        a_literals = List.rev !lits;
        a_statements = !stmts;
      }
  | exception Lexer.Error m ->
      let norm = collapse_ws text in
      {
        a_src = text;
        a_tokens = Error m;
        a_norm = norm;
        a_fingerprint = of_normalized norm;
        a_literals = [];
        a_statements = 0;
      }
