(** Lexer for the Q subset.

    Q lexing folklore handled here:
    - [-] directly followed by a digit is a negative literal only when the
      preceding token is not noun-like ([x-1] subtracts, [(-1)] is a literal);
    - juxtaposed numeric literals form one vector token ([1 2 3]);
    - [/] is the over-adverb when glued to the previous token and a comment
      when preceded by whitespace or at line start;
    - backtick symbols concatenate ([`a`b`c] is one symbol-vector token);
    - dates [2016.06.26], times [09:30:00.000], timestamps
      [2016.06.26D09:30:00], typed nulls [0N 0n 0Nd 0Nt 0Np] and booleans
      [1b], [101b] are literals;
    - a newline at bracket depth 0 separates statements (emitted as [Semi]). *)

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type state = {
  src : string;
  mutable pos : int;
  mutable depth : int;  (* () [] {} nesting *)
  mutable prev_nounish : bool;  (* last token can end an expression *)
  mutable toks : Token.t list;  (* reversed *)
}

let peek st o =
  let i = st.pos + o in
  if i < String.length st.src then Some st.src.[i] else None

let cur st = peek st 0
let advance st = st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_name_char c = is_alpha c || is_digit c || c = '_' || c = '.'

let emit st tok =
  (match tok with
  | Token.Num _ | Token.NumVec _ | Token.SymLit _ | Token.Str _ | Token.Name _
  | Token.RParen | Token.RBracket | Token.RBrace ->
      st.prev_nounish <- true
  | _ -> st.prev_nounish <- false);
  st.toks <- tok :: st.toks

(* ------------------------------------------------------------------ *)
(* Numeric / temporal literals                                         *)
(* ------------------------------------------------------------------ *)

let int_exn what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> error "malformed %s component %s" what s

let parse_time (s : string) : Qvalue.Atom.t =
  match String.split_on_char ':' s with
  | [ h; m ] -> Qvalue.Atom.Time (((int_exn "time" h * 60) + int_exn "time" m) * 60000)
  | [ h; m; sec ] ->
      let sec, ms =
        match String.split_on_char '.' sec with
        | [ s' ] -> (int_exn "time" s', 0)
        | [ s'; frac ] ->
            let frac = if String.length frac > 3 then String.sub frac 0 3 else frac in
            let scale = match String.length frac with 1 -> 100 | 2 -> 10 | _ -> 1 in
            (int_exn "time" s', int_exn "time" frac * scale)
        | _ -> error "bad time literal %s" s
      in
      Qvalue.Atom.Time
        ((((int_exn "time" h * 3600) + (int_exn "time" m * 60) + sec) * 1000) + ms)
  | _ -> error "bad time literal %s" s

let parse_date (s : string) : Qvalue.Atom.t =
  match String.split_on_char '.' s with
  | [ y; m; d ] ->
      let m' = int_exn "date" m in
      if m' < 1 || m' > 12 then error "bad month in date literal %s" s;
      Qvalue.Atom.Date
        (Qvalue.Atom.date_of_ymd (int_exn "date" y) m' (int_exn "date" d))
  | _ -> error "bad date literal %s" s

let parse_timestamp (ds : string) (ts : string) : Qvalue.Atom.t =
  let day =
    match parse_date ds with Qvalue.Atom.Date d -> d | _ -> assert false
  in
  (* the time part may carry up to nanosecond precision *)
  let hms, frac =
    match String.split_on_char '.' ts with
    | [ hms ] -> (hms, "")
    | [ hms; frac ] -> (hms, frac)
    | _ -> error "bad timestamp literal %s" ts
  in
  let h, m, s =
    match String.split_on_char ':' hms with
    | [ h ] -> (int_exn "timestamp" h, 0, 0)
    | [ h; m ] -> (int_exn "timestamp" h, int_exn "timestamp" m, 0)
    | [ h; m; s ] ->
        (int_exn "timestamp" h, int_exn "timestamp" m, int_exn "timestamp" s)
    | _ -> error "bad timestamp literal %s" ts
  in
  let ns =
    if frac = "" then 0L
    else
      let frac = if String.length frac > 9 then String.sub frac 0 9 else frac in
      let pad = 9 - String.length frac in
      match Int64.of_string_opt frac with
      | Some f -> Int64.mul f (Int64.of_float (10. ** float_of_int pad))
      | None -> error "bad timestamp fraction %s" frac
  in
  let secs = (h * 3600) + (m * 60) + s in
  Qvalue.Atom.Timestamp
    (Int64.add
       (Int64.add
          (Int64.mul (Int64.of_int day) Qvalue.Atom.ns_per_day)
          (Int64.mul (Int64.of_int secs) 1_000_000_000L))
       ns)

(** Lex one numeric/temporal literal starting at the cursor (which may sit
    on a ['-'] that has already been classified as a sign). *)
let lex_number st : Qvalue.Atom.t =
  let neg = cur st = Some '-' in
  if neg then advance st;
  (* scan the numeric body: digits, dots, colons; 'D' glues a timestamp *)
  let buf = Buffer.create 16 in
  let seen_dots = ref 0 and seen_colons = ref 0 in
  let date_part = ref None in
  let continue = ref true in
  while !continue do
    match cur st with
    | Some c when is_digit c ->
        Buffer.add_char buf c;
        advance st
    | Some '.' when peek st 1 <> None && is_digit (Option.get (peek st 1)) ->
        incr seen_dots;
        Buffer.add_char buf '.';
        advance st
    | Some ':' when peek st 1 <> None && is_digit (Option.get (peek st 1)) ->
        incr seen_colons;
        Buffer.add_char buf ':';
        advance st
    | Some 'D'
      when !seen_dots = 2 && !date_part = None
           && peek st 1 <> None
           && is_digit (Option.get (peek st 1)) ->
        date_part := Some (Buffer.contents buf);
        Buffer.clear buf;
        seen_dots := 0;
        advance st
    | Some 'e'
      when !seen_colons = 0 && !date_part = None
           && (match peek st 1 with
              | Some c -> is_digit c
              | None -> false) ->
        Buffer.add_char buf 'e';
        advance st
    | Some 'e'
      when !seen_colons = 0 && !date_part = None
           && (match (peek st 1, peek st 2) with
              | Some ('+' | '-'), Some c -> is_digit c
              | _ -> false) ->
        Buffer.add_char buf 'e';
        Buffer.add_char buf (Option.get (peek st 1));
        advance st;
        advance st
    | _ -> continue := false
  done;
  let body = Buffer.contents buf in
  (* optional type suffix *)
  let suffix =
    match cur st with
    | Some (('b' | 'j' | 'i' | 'f' | 'h' | 'p' | 't' | 'd') as c)
      when not (match peek st 1 with Some c2 -> is_name_char c2 | None -> false)
      ->
        advance st;
        Some c
    | _ -> None
  in
  let atom =
    if String.contains body 'e' then
      (* scientific notation is always a float *)
      match float_of_string_opt body with
      | Some f -> Qvalue.Atom.Float f
      | None -> error "malformed numeric literal %s" body
    else
      match (!date_part, !seen_dots, !seen_colons, suffix) with
      | Some ds, _, _, _ -> parse_timestamp ds body
      | None, _, n, _ when n > 0 -> parse_time body
      | None, 2, _, _ -> parse_date body
      | None, 0, 0, Some 'b' ->
          (* single boolean digit: vectors handled by the caller *)
          if String.length body = 1 then Qvalue.Atom.Bool (body = "1")
          else error "boolean vector must be lexed by caller"
      | None, 0, 0, Some ('f' | 'e') -> (
          match float_of_string_opt body with
          | Some f -> Qvalue.Atom.Float f
          | None -> error "malformed numeric literal %s" body)
      | None, 0, 0, Some 'd' -> (
          match int_of_string_opt body with
          | Some d -> Qvalue.Atom.Date d
          | None -> error "malformed date literal %s" body)
      | None, 0, 0, Some 't' -> (
          match int_of_string_opt body with
          | Some t -> Qvalue.Atom.Time t
          | None -> error "malformed time literal %s" body)
      | None, 0, 0, Some 'p' -> (
          match Int64.of_string_opt body with
          | Some p -> Qvalue.Atom.Timestamp p
          | None -> error "malformed timestamp literal %s" body)
      | None, 0, 0, _ -> (
          match Int64.of_string_opt body with
          | Some i -> Qvalue.Atom.Long i
          | None -> (
              (* a digit run too long for a long: overflow to float, as q
                 does for out-of-range integer literals *)
              match float_of_string_opt body with
              | Some f -> Qvalue.Atom.Float f
              | None -> error "malformed numeric literal %s" body))
      | None, 1, 0, _ -> (
          match float_of_string_opt body with
          | Some f -> Qvalue.Atom.Float f
          | None -> error "malformed numeric literal %s" body)
      | _ -> error "malformed numeric literal %s" body
  in
  if neg then Qvalue.Atom.neg atom else atom

(** Null and infinity literals are easier to handle up front. *)
let lex_special_number st : Qvalue.Atom.t option =
  let neg = cur st = Some '-' in
  let o = if neg then 1 else 0 in
  match (peek st o, peek st (o + 1)) with
  | Some '0', Some 'n' -> (
      match peek st (o + 2) with
      | Some c when is_name_char c -> None
      | _ ->
          st.pos <- st.pos + o + 2;
          Some (Qvalue.Atom.Null Qvalue.Qtype.Float))
  | Some '0', Some 'N' ->
      let ty, extra =
        match peek st (o + 2) with
        | Some 'd' -> (Qvalue.Qtype.Date, 1)
        | Some 't' -> (Qvalue.Qtype.Time, 1)
        | Some 'p' -> (Qvalue.Qtype.Timestamp, 1)
        | Some ('j' | 'i' | 'h') -> (Qvalue.Qtype.Long, 1)
        | Some 'f' -> (Qvalue.Qtype.Float, 1)
        | _ -> (Qvalue.Qtype.Long, 0)
      in
      st.pos <- st.pos + o + 2 + extra;
      Some (Qvalue.Atom.Null ty)
  | Some '0', Some ('w' | 'W') -> (
      match peek st (o + 2) with
      | Some c when is_name_char c -> None
      | _ ->
          st.pos <- st.pos + o + 2;
          let f = if neg then Float.neg_infinity else Float.infinity in
          Some (Qvalue.Atom.Float f))
  | _ -> None

(** Boolean vector literal [101b]: only 0/1 digits directly followed by b. *)
let lex_bool_vector st : Qvalue.Atom.t list option =
  let rec scan i acc =
    match peek st i with
    | Some '0' -> scan (i + 1) (false :: acc)
    | Some '1' -> scan (i + 1) (true :: acc)
    | Some 'b'
      when acc <> []
           && not
                (match peek st (i + 1) with
                | Some c -> is_name_char c
                | None -> false) ->
        Some (i + 1, List.rev acc)
    | _ -> None
  in
  match scan 0 [] with
  | Some (len, bits) when List.length bits > 1 ->
      st.pos <- st.pos + len;
      Some (List.map (fun b -> Qvalue.Atom.Bool b) bits)
  | Some (len, [ b ]) ->
      st.pos <- st.pos + len;
      Some [ Qvalue.Atom.Bool b ]
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let at_number st =
  match cur st with
  | Some c when is_digit c -> true
  | Some '.' -> ( match peek st 1 with Some c -> is_digit c | None -> false)
  | _ -> false

(* kdb's rule: '-' is a sign when directly followed by a digit and NOT
   directly preceded by something that can end a noun — so [x-1] subtracts
   while [x -1], [(-1)] and [3*-1] contain literals. *)
let at_negative_literal st =
  cur st = Some '-'
  && (match peek st 1 with
     | Some c -> is_digit c || c = '.'
     | None -> false)
  &&
  (st.pos = 0
  ||
  let p = st.src.[st.pos - 1] in
  not (is_name_char p || p = ')' || p = ']' || p = '}' || p = '"' || p = '`'))

(** One numeric literal (possibly several atoms for a boolean vector). *)
let lex_one_numeric st : Qvalue.Atom.t list =
  match lex_special_number st with
  | Some a -> [ a ]
  | None -> (
      match lex_bool_vector st with
      | Some bits -> bits
      | None -> [ lex_number st ])

(* merge juxtaposed numerics: [1 2 3] or [1 -2]; spaces only *)
let rec merge_more st acc =
  let save = st.pos in
  let rec spaces i = if peek st i = Some ' ' then spaces (i + 1) else i in
  let n = spaces 0 in
  if n = 0 then acc
  else begin
    st.pos <- st.pos + n;
    let next_is_numeric =
      at_number st
      || (cur st = Some '-'
         &&
         match peek st 1 with
         | Some c -> is_digit c || c = '.'
         | None -> false)
    in
    if next_is_numeric then merge_more st (acc @ lex_one_numeric st)
    else begin
      st.pos <- save;
      acc
    end
  end

(** Lex one (possibly merged) numeric literal token. *)
let lex_numeric_token st =
  match merge_more st (lex_one_numeric st) with
  | [ a ] -> Token.Num a
  | atoms -> Token.NumVec atoms

let lex_string st =
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match cur st with
    | None -> error "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match cur st with
        | Some 'n' -> Buffer.add_char buf '\n'; advance st; go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance st; go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance st; go ()
        | Some '"' -> Buffer.add_char buf '"'; advance st; go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance st; go ()
        | Some c -> Buffer.add_char buf c; advance st; go ()
        | None -> error "unterminated escape in string literal")
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Token.Str (Buffer.contents buf)

let lex_symbols st =
  let rec one acc =
    advance st;
    (* consume backtick *)
    let buf = Buffer.create 8 in
    let rec chars () =
      match cur st with
      | Some c when is_name_char c ->
          Buffer.add_char buf c;
          advance st;
          chars ()
      | _ -> ()
    in
    chars ();
    let acc = Buffer.contents buf :: acc in
    if cur st = Some '`' then one acc else List.rev acc
  in
  Token.SymLit (one [])

let lex_name st =
  let buf = Buffer.create 8 in
  let rec go () =
    match cur st with
    | Some c when is_name_char c ->
        Buffer.add_char buf c;
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  Buffer.contents buf

let verb_chars = "+-*%&|<>=,#_!?~@.$^:"

(** The tokens of [src], [Eof] last. Raises {!Error} on text outside
    the subset. *)
let tokenize (src : string) : Token.t array =
  let st = { src; pos = 0; depth = 0; prev_nounish = false; toks = [] } in
  let line_start = ref true in
  let had_space = ref true in
  let rec loop () =
    match cur st with
    | None -> ()
    | Some '\n' ->
        advance st;
        if st.depth = 0 then begin
          match st.toks with
          | Token.Semi :: _ | [] -> ()
          | _ -> emit st Token.Semi
        end;
        line_start := true;
        had_space := true;
        loop ()
    | Some (' ' | '\t' | '\r') ->
        advance st;
        had_space := true;
        loop ()
    | Some '/' when !had_space || !line_start ->
        (* comment to end of line *)
        while cur st <> None && cur st <> Some '\n' do
          advance st
        done;
        loop ()
    | Some '\\' when !line_start ->
        (* system command: ignore the line *)
        while cur st <> None && cur st <> Some '\n' do
          advance st
        done;
        loop ()
    | Some c ->
        line_start := false;
        let space_before = !had_space in
        had_space := false;
        (if at_number st || at_negative_literal st then
           emit st (lex_numeric_token st)
         else
           match c with
           | '"' -> emit st (lex_string st)
           | '`' -> emit st (lex_symbols st)
           | '(' ->
               advance st;
               st.depth <- st.depth + 1;
               emit st Token.LParen
           | ')' ->
               advance st;
               st.depth <- st.depth - 1;
               emit st Token.RParen
           | '[' ->
               advance st;
               st.depth <- st.depth + 1;
               emit st Token.LBracket
           | ']' ->
               advance st;
               st.depth <- st.depth - 1;
               emit st Token.RBracket
           | '{' ->
               advance st;
               st.depth <- st.depth + 1;
               emit st Token.LBrace
           | '}' ->
               advance st;
               st.depth <- st.depth - 1;
               emit st Token.RBrace
           | ';' ->
               advance st;
               emit st Token.Semi
           | '\'' ->
               advance st;
               if cur st = Some ':' then begin
                 advance st;
                 emit st (Token.Adverb "':")
               end
               else emit st (Token.Adverb "'")
           | '/' ->
               (* glued to previous token: over adverb; [/:] each-right *)
               advance st;
               if cur st = Some ':' then begin
                 advance st;
                 emit st (Token.Adverb "/:")
               end
               else emit st (Token.Adverb "/")
           | '\\' ->
               advance st;
               if cur st = Some ':' then begin
                 advance st;
                 emit st (Token.Adverb "\\:")
               end
               else if space_before then error "unexpected '\\'"
               else emit st (Token.Adverb "\\")
           | ':' ->
               advance st;
               if cur st = Some ':' then begin
                 advance st;
                 emit st (Token.Verb "::")
               end
               else emit st (Token.Verb ":")
           | '<' ->
               advance st;
               if cur st = Some '>' then begin
                 advance st;
                 emit st (Token.Verb "<>")
               end
               else if cur st = Some '=' then begin
                 advance st;
                 emit st (Token.Verb "<=")
               end
               else emit st (Token.Verb "<")
           | '>' ->
               advance st;
               if cur st = Some '=' then begin
                 advance st;
                 emit st (Token.Verb ">=")
               end
               else emit st (Token.Verb ">")
           | c when String.contains verb_chars c ->
               advance st;
               emit st (Token.Verb (String.make 1 c))
           | c when is_alpha c || c = '.' ->
               let n = lex_name st in
               emit st (Token.Name n)
           | c -> error "unexpected character %C" c);
        loop ()
  in
  loop ();
  (* [st.toks] is reversed: fill the array from its end, [Eof] last *)
  let toks = Array.make (List.length st.toks + 1) Token.Eof in
  List.iteri (fun i t -> toks.(Array.length toks - 2 - i) <- t) st.toks;
  toks
