(** SQL lexer for the PG-compatible dialect. *)

type token =
  | Ident of string  (** unquoted identifier, lowercased as PG does *)
  | QIdent of string  (** double-quoted, case-preserved identifier *)
  | IntLit of int64
  | FloatLit of float
  | StrLit of string
  | Op of string  (** operator or punctuation *)
  | Eof

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c || c = '$'

let tokenize (src : string) : token list =
  let n = String.length src in
  let pos = ref 0 in
  let toks = ref [] in
  let peek o = if !pos + o < n then Some src.[!pos + o] else None in
  let emit t = toks := t :: !toks in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '-' && peek 1 = Some '-' then begin
      (* line comment *)
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      pos := !pos + 2;
      while !pos + 1 < n && not (src.[!pos] = '*' && src.[!pos + 1] = '/') do
        incr pos
      done;
      pos := !pos + 2
    end
    else if is_digit c || (c = '.' && (match peek 1 with Some d -> is_digit d | None -> false)) then begin
      let start = !pos in
      let is_float = ref false in
      let exponent_here () =
        (* e/E only starts an exponent when digits (optionally signed)
           follow; otherwise it is a trailing identifier, not our token *)
        match peek 1 with
        | Some d when is_digit d -> true
        | Some ('+' | '-') -> (
            match peek 2 with Some d -> is_digit d | None -> false)
        | _ -> false
      in
      while
        !pos < n
        && (is_digit src.[!pos]
           || src.[!pos] = '.'
           || ((src.[!pos] = 'e' || src.[!pos] = 'E') && exponent_here ())
           || ((src.[!pos] = '+' || src.[!pos] = '-')
              && !pos > start
              && (src.[!pos - 1] = 'e' || src.[!pos - 1] = 'E')))
      do
        if src.[!pos] = '.' || src.[!pos] = 'e' || src.[!pos] = 'E' then
          is_float := true;
        incr pos
      done;
      let text = String.sub src start (!pos - start) in
      let float_tok () =
        match float_of_string_opt text with
        | Some f -> emit (FloatLit f)
        | None -> Errors.syntax_error "malformed number %s" text
      in
      if !is_float then float_tok ()
      else
        match Int64.of_string_opt text with
        | Some i -> emit (IntLit i)
        | None -> float_tok ()
    end
    else if c = '\'' then begin
      incr pos;
      let buf = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        if !pos >= n then Errors.syntax_error "unterminated string literal"
        else if src.[!pos] = '\'' && peek 1 = Some '\'' then begin
          Buffer.add_char buf '\'';
          pos := !pos + 2
        end
        else if src.[!pos] = '\'' then begin
          incr pos;
          fin := true
        end
        else begin
          Buffer.add_char buf src.[!pos];
          incr pos
        end
      done;
      emit (StrLit (Buffer.contents buf))
    end
    else if c = '"' then begin
      incr pos;
      let buf = Buffer.create 16 in
      while !pos < n && src.[!pos] <> '"' do
        Buffer.add_char buf src.[!pos];
        incr pos
      done;
      if !pos >= n then Errors.syntax_error "unterminated quoted identifier";
      incr pos;
      emit (QIdent (Buffer.contents buf))
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      emit (Ident (String.lowercase_ascii (String.sub src start (!pos - start))))
    end
    else begin
      (* multi-char operators first *)
      let two = if !pos + 1 < n then String.sub src !pos 2 else "" in
      match two with
      | "<>" | "<=" | ">=" | "!=" | "::" ->
          emit (Op (if two = "!=" then "<>" else two));
          pos := !pos + 2
      | _ -> (
          match c with
          | '(' | ')' | ',' | ';' | '.' | '=' | '<' | '>' | '+' | '-' | '*'
          | '/' | '%' ->
              emit (Op (String.make 1 c));
              incr pos
          | c -> Errors.syntax_error "unexpected character %C" c)
    end
  done;
  List.rev (Eof :: !toks)

let token_str = function
  | Ident s -> s
  | QIdent s -> "\"" ^ s ^ "\""
  | IntLit i -> Int64.to_string i
  | FloatLit f -> string_of_float f
  | StrLit s -> "'" ^ s ^ "'"
  | Op s -> s
  | Eof -> "<eof>"
