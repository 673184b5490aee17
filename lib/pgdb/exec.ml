(** Shared pieces of the pgdb SELECT executor {!Vexec}: the binding and
    result types, column resolution, scalar functions, LIKE matching,
    operator semantics, aggregates and group keys. *)

module A = Sqlast.Ast

type binding = { b_qual : string option; b_name : string; b_type : Catalog.Sqltype.t option }

(* a SELECT's result, column-major: [res_nrows] rows as one typed
   column per entry of [res_cols]. The wire server encodes it, the wire
   client rebuilds it from the DataRows, and the Q pivot reads it. *)
type result = {
  res_cols : (string * Catalog.Sqltype.t) list;
  res_nrows : int;
  res_columns : Batch.column array;
}

let now_ns () : int64 = Monotonic_clock.now ()

let error_undefined_column c = Errors.undefined_column "column %s does not exist" c

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* ASCII case-insensitive equality, without allocating lowercased copies *)
let equal_ci (a : string) (b : string) : bool =
  let n = String.length a in
  n = String.length b
  &&
  let rec go i =
    i = n
    || Char.lowercase_ascii (String.unsafe_get a i)
       = Char.lowercase_ascii (String.unsafe_get b i)
       && go (i + 1)
  in
  go 0

(** Position of the column [qual.name] in [bindings]. The qualifier, when
    given, matches case-insensitively. The first binding whose name
    matches exactly wins; failing that, the first case-insensitive name
    match; failing that, [undefined_column]. One pass, no allocation. *)
let find_binding (bindings : binding list) (qual : string option) (name : string) : int =
  let rec go i ci = function
    | [] -> if ci >= 0 then ci else error_undefined_column name
    | b :: rest ->
        let qual_ok =
          match qual with
          | None -> true
          | Some q -> (
              match b.b_qual with Some bq -> equal_ci bq q | None -> false)
        in
        if qual_ok && String.equal b.b_name name then i
        else
          let ci = if ci < 0 && qual_ok && equal_ci b.b_name name then i else ci in
          go (i + 1) ci rest
  in
  go 0 (-1) bindings

(* ------------------------------------------------------------------ *)
(* Scalar functions                                                    *)
(* ------------------------------------------------------------------ *)

let scalar_fun name (args : Value.t list) : Value.t =
  let num1 f =
    match args with
    | [ Value.Null ] -> Value.Null
    | [ v ] -> (
        match Value.to_float v with
        | Some x -> Value.Float (f x)
        | None -> Errors.type_mismatch "%s expects a number" name)
    | _ -> Errors.undefined_function "%s with %d args" name (List.length args)
  in
  match (String.lowercase_ascii name, args) with
  | "coalesce", args -> (
      match List.find_opt (fun v -> not (Value.is_null v)) args with
      | Some v -> v
      | None -> Value.Null)
  | "nullif", [ a; b ] -> (
      match Value.compare3 a b with Some 0 -> Value.Null | _ -> a)
  | "abs", [ Value.Int i ] -> Value.Int (Int64.abs i)
  | "abs", _ -> num1 Float.abs
  | "sqrt", _ -> num1 sqrt
  | "exp", _ -> num1 exp
  | "ln", _ -> num1 log
  | "log", _ -> num1 log10
  | "sign", [ v ] -> (
      match Value.to_float v with
      | Some f -> Value.Int (if f > 0. then 1L else if f < 0. then -1L else 0L)
      | None -> Value.Null)
  | "power", [ a; b ] -> (
      match (Value.to_float a, Value.to_float b) with
      | Some x, Some y -> Value.Float (x ** y)
      | _ -> Value.Null)
  | "round", [ v ] -> (
      match v with
      | Value.Int _ -> v
      | _ -> (
          match Value.to_float v with
          | Some f -> Value.Float (Float.round f)
          | None -> Value.Null))
  | "round", [ v; Value.Int digits ] -> (
      match Value.to_float v with
      | Some f ->
          let scale = 10. ** Int64.to_float digits in
          Value.Float (Float.round (f *. scale) /. scale)
      | None -> Value.Null)
  | "floor", [ v ] -> (
      match v with
      | Value.Int _ -> v
      | _ -> (
          match Value.to_float v with
          | Some f -> Value.Float (Float.floor f)
          | None -> Value.Null))
  | ("ceil" | "ceiling"), [ v ] -> (
      match v with
      | Value.Int _ -> v
      | _ -> (
          match Value.to_float v with
          | Some f -> Value.Float (Float.ceil f)
          | None -> Value.Null))
  | "mod", [ a; b ] -> Value.modulo a b
  | "greatest", args ->
      List.fold_left
        (fun acc v ->
          if Value.is_null v then acc
          else
            match acc with
            | Value.Null -> v
            | acc -> if Value.compare_total v acc > 0 then v else acc)
        Value.Null args
  | "least", args ->
      List.fold_left
        (fun acc v ->
          if Value.is_null v then acc
          else
            match acc with
            | Value.Null -> v
            | acc -> if Value.compare_total v acc < 0 then v else acc)
        Value.Null args
  | "upper", [ Value.Str s ] -> Value.Str (String.uppercase_ascii s)
  | "lower", [ Value.Str s ] -> Value.Str (String.lowercase_ascii s)
  | ("upper" | "lower"), [ Value.Null ] -> Value.Null
  | "length", [ Value.Str s ] -> Value.Int (Int64.of_int (String.length s))
  | "length", [ Value.Null ] -> Value.Null
  | "concat", args ->
      Value.Str
        (String.concat ""
           (List.map
              (fun v -> match Value.to_text v with Some s -> s | None -> "")
              args))
  | n, _ -> Errors.undefined_function "unknown function %s" n

(* general LIKE: two-pointer scan with greedy-'%' backtracking — the
   same language as the textbook DP without the per-call matrix *)
let wildcard_match (pattern : string) (s : string) : bool =
  let n = String.length s and m = String.length pattern in
  let i = ref 0 and j = ref 0 in
  let star = ref (-1) and mark = ref 0 in
  let verdict = ref None in
  while !verdict = None do
    if !i < n then
      if
        !j < m
        && (pattern.[!j] = '_' || (pattern.[!j] <> '%' && pattern.[!j] = s.[!i]))
      then begin
        incr i;
        incr j
      end
      else if !j < m && pattern.[!j] = '%' then begin
        star := !j;
        mark := !i;
        incr j
      end
      else if !star >= 0 then begin
        incr mark;
        i := !mark;
        j := !star + 1
      end
      else verdict := Some false
    else begin
      while !j < m && pattern.[!j] = '%' do
        incr j
      done;
      verdict := Some (!j = m)
    end
  done;
  Option.get !verdict

let str_contains (hay : string) (needle : string) : bool =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i + nn <= nh do
      if String.sub hay !i nn = needle then found := true else incr i
    done;
    !found
  end

let str_suffix (s : string) (suf : string) : bool =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let str_prefix (s : string) (pre : string) : bool =
  let n = String.length s and m = String.length pre in
  n >= m && String.sub s 0 m = pre

(** Compile a LIKE pattern once into a matcher closure. The common
    wildcard shapes (exact, [abc%], [%abc], [%abc%]) become direct
    string tests; anything with ['_'] or an interior ['%'] falls back to
    the backtracking matcher. *)
let compile_like (pattern : string) : string -> bool =
  let m = String.length pattern in
  let has_underscore = String.contains pattern '_' in
  (* leading/trailing runs of '%'; a pattern is "simple" when every '%'
     lives in one of those runs *)
  let lead = ref 0 in
  while !lead < m && pattern.[!lead] = '%' do
    incr lead
  done;
  let trail = ref 0 in
  while !trail < m - !lead && pattern.[m - 1 - !trail] = '%' do
    incr trail
  done;
  let core = String.sub pattern !lead (m - !lead - !trail) in
  if has_underscore || String.contains core '%' then wildcard_match pattern
  else
    match (!lead > 0, !trail > 0) with
    | false, false -> String.equal core
    | true, true -> fun s -> str_contains s core
    | true, false -> fun s -> str_suffix s core
    | false, true -> fun s -> str_prefix s core

(* process-wide matcher memo: shard worker domains execute concurrently,
   so access is mutexed; a full reset on overflow keeps it bounded *)
let like_memo : (string, string -> bool) Hashtbl.t = Hashtbl.create 64
let like_mutex = Mutex.create ()
let like_memo_capacity = 256

(** Memoizing wrapper around {!compile_like} for call sites that cannot
    hold onto the compiled closure across rows. *)
let compile_like_cached (pattern : string) : string -> bool =
  Mutex.lock like_mutex;
  let f =
    match Hashtbl.find_opt like_memo pattern with
    | Some f -> f
    | None ->
        if Hashtbl.length like_memo >= like_memo_capacity then
          Hashtbl.reset like_memo;
        let f = compile_like pattern in
        Hashtbl.add like_memo pattern f;
        f
  in
  Mutex.unlock like_mutex;
  f

let like_match (s : string) (pattern : string) : bool =
  compile_like_cached pattern s


(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

let cmp_bool a b test =
  match Value.compare3 a b with
  | None -> Value.Null
  | Some c -> Value.Bool (test c)

(** The value of [a op b]. *)
let binop (op : A.binop) : Value.t -> Value.t -> Value.t =
  match op with
  | A.Add -> Value.add
  | A.Sub -> Value.sub
  | A.Mul -> Value.mul
  | A.Div -> Value.div
  | A.Mod -> Value.modulo
  | A.Eq -> Value.eq3
  | A.Neq -> fun a b -> Value.not3 (Value.eq3 a b)
  | A.Lt -> fun a b -> cmp_bool a b (fun c -> c < 0)
  | A.Le -> fun a b -> cmp_bool a b (fun c -> c <= 0)
  | A.Gt -> fun a b -> cmp_bool a b (fun c -> c > 0)
  | A.Ge -> fun a b -> cmp_bool a b (fun c -> c >= 0)
  | A.And -> Value.and3
  | A.Or -> Value.or3
  | A.Concat -> (
      fun a b ->
        match (Value.to_text a, Value.to_text b) with
        | Some x, Some y -> Value.Str (x ^ y)
        | _ -> Value.Null)
  | A.IsDistinctFrom -> fun a b -> Value.not3 (Value.not_distinct a b)
  | A.IsNotDistinctFrom -> Value.not_distinct

(** The value of [op a]. *)
let unop (op : A.unop) : Value.t -> Value.t =
  match op with
  | A.Not -> Value.not3
  | A.Neg -> (
      function
      | Value.Int i -> Value.Int (Int64.neg i)
      | Value.Float f -> Value.Float (-.f)
      | Value.Null -> Value.Null
      | _ -> Errors.type_mismatch "cannot negate non-number")

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let rec expr_has_agg = function
  | A.Agg _ -> true
  | A.Bin (_, a, b) -> expr_has_agg a || expr_has_agg b
  | A.Un (_, a) | A.IsNull a | A.IsNotNull a | A.Cast (a, _) -> expr_has_agg a
  | A.In (a, es) -> expr_has_agg a || List.exists expr_has_agg es
  | A.Between (a, b, c) -> expr_has_agg a || expr_has_agg b || expr_has_agg c
  | A.Case (bs, e) ->
      List.exists (fun (c, r) -> expr_has_agg c || expr_has_agg r) bs
      || (match e with Some e -> expr_has_agg e | None -> false)
  | A.Fun (_, args) -> List.exists expr_has_agg args
  | A.Like (a, b) -> expr_has_agg a || expr_has_agg b
  | A.Window _ | A.Lit _ | A.Col _ | A.Star -> false


let rec collect_windows (e : A.expr) : A.expr list =
  match e with
  | A.Window _ -> [ e ]
  | A.Bin (_, a, b) -> collect_windows a @ collect_windows b
  | A.Un (_, a) | A.IsNull a | A.IsNotNull a | A.Cast (a, _) ->
      collect_windows a
  | A.In (a, es) -> collect_windows a @ List.concat_map collect_windows es
  | A.Between (a, b, c) ->
      collect_windows a @ collect_windows b @ collect_windows c
  | A.Case (bs, e') ->
      List.concat_map (fun (c, r) -> collect_windows c @ collect_windows r) bs
      @ (match e' with Some e'' -> collect_windows e'' | None -> [])
  | A.Fun (_, args) -> List.concat_map collect_windows args
  | A.Agg { args; _ } -> List.concat_map collect_windows args
  | A.Like (a, b) -> collect_windows a @ collect_windows b
  | A.Lit _ | A.Col _ | A.Star -> []

let float_agg rows f =
  match rows with
  | [] -> Value.Null
  | _ -> Value.Float (f (List.map (fun v -> match Value.to_float v with Some x -> x | None -> 0.0) rows))

(** Apply an aggregate to the list of argument values from a group's rows
    (already filtered to non-null where SQL requires it). *)
let apply_agg (name : string) (distinct : bool) (values : Value.t list) :
    Value.t =
  let non_null = List.filter (fun v -> not (Value.is_null v)) values in
  let non_null =
    if distinct then
      List.fold_left
        (fun acc v ->
          if List.exists (fun u -> Value.compare_total u v = 0) acc then acc
          else v :: acc)
        [] non_null
      |> List.rev
    else non_null
  in
  match String.lowercase_ascii name with
  | "count" -> Value.Int (Int64.of_int (List.length non_null))
  | "sum" -> (
      match non_null with
      | [] -> Value.Null
      | vs ->
          if List.for_all (function Value.Int _ -> true | _ -> false) vs then
            Value.Int
              (List.fold_left
                 (fun acc v ->
                   match v with Value.Int i -> Int64.add acc i | _ -> acc)
                 0L vs)
          else float_agg vs (List.fold_left ( +. ) 0.0))
  | "avg" -> (
      match non_null with
      | [] -> Value.Null
      | vs ->
          float_agg vs (fun fs ->
              List.fold_left ( +. ) 0.0 fs /. float_of_int (List.length fs)))
  | "min" ->
      List.fold_left
        (fun acc v ->
          match acc with
          | Value.Null -> v
          | acc -> if Value.compare_total v acc < 0 then v else acc)
        Value.Null non_null
  | "max" ->
      List.fold_left
        (fun acc v ->
          match acc with
          | Value.Null -> v
          | acc -> if Value.compare_total v acc > 0 then v else acc)
        Value.Null non_null
  | "stddev_pop" -> (
      match non_null with
      | [] -> Value.Null
      | vs ->
          float_agg vs (fun fs ->
              let n = float_of_int (List.length fs) in
              let mean = List.fold_left ( +. ) 0.0 fs /. n in
              let sq =
                List.fold_left (fun acc f -> acc +. ((f -. mean) ** 2.)) 0.0 fs
              in
              sqrt (sq /. n)))
  | "var_pop" -> (
      match non_null with
      | [] -> Value.Null
      | vs ->
          float_agg vs (fun fs ->
              let n = float_of_int (List.length fs) in
              let mean = List.fold_left ( +. ) 0.0 fs /. n in
              let sq =
                List.fold_left (fun acc f -> acc +. ((f -. mean) ** 2.)) 0.0 fs
              in
              sq /. n))
  | "stddev" -> (
      match non_null with
      | [] | [ _ ] -> Value.Null
      | vs ->
          float_agg vs (fun fs ->
              let n = float_of_int (List.length fs) in
              let mean = List.fold_left ( +. ) 0.0 fs /. n in
              let sq =
                List.fold_left (fun acc f -> acc +. ((f -. mean) ** 2.)) 0.0 fs
              in
              sqrt (sq /. (n -. 1.))))
  | "variance" -> (
      match non_null with
      | [] | [ _ ] -> Value.Null
      | vs ->
          float_agg vs (fun fs ->
              let n = float_of_int (List.length fs) in
              let mean = List.fold_left ( +. ) 0.0 fs /. n in
              let sq =
                List.fold_left (fun acc f -> acc +. ((f -. mean) ** 2.)) 0.0 fs
              in
              sq /. (n -. 1.)))
  | "median" -> (
      match non_null with
      | [] -> Value.Null
      | vs ->
          float_agg vs (fun fs ->
              let arr = Array.of_list fs in
              Array.sort Float.compare arr;
              let n = Array.length arr in
              if n mod 2 = 1 then arr.(n / 2)
              else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0))
  | "first" -> ( match non_null with [] -> Value.Null | v :: _ -> v)
  | "last" -> (
      match List.rev non_null with [] -> Value.Null | v :: _ -> v)
  | "bool_and" ->
      Value.Bool (List.for_all (fun v -> Value.is_true v) non_null)
  | "bool_or" -> Value.Bool (List.exists (fun v -> Value.is_true v) non_null)
  | "string_agg" ->
      Value.Str
        (String.concat ","
           (List.filter_map Value.to_text non_null))
  | n -> Errors.undefined_function "unknown aggregate %s" n

(* a value as the literal that denotes it; calendar values flatten to
   their integer encoding *)
let lit_of (v : Value.t) : A.lit =
  match v with
  | Value.Null -> A.Null
  | Value.Bool b -> A.Bool b
  | Value.Int i -> A.Int i
  | Value.Float f -> A.Float f
  | Value.Str s -> A.Str s
  | Value.Date d -> A.Int (Int64.of_int d)
  | Value.Time t -> A.Int (Int64.of_int t)
  | Value.Timestamp n -> A.Int n

(* ------------------------------------------------------------------ *)
(* Group keys                                                          *)
(* ------------------------------------------------------------------ *)

(** A hashable normalization of a key value, and the one key
    equivalence of every hash operator: GROUP BY, DISTINCT, a window's
    PARTITION BY and the hash join class two keys together exactly when
    their gkeys are equal. Two values of one kind land in the same class
    exactly when {!Value.compare_total} calls them equal. The
    numeric-ish types (int/float/bool/date/time/timestamp) compare
    through [to_float], so they normalize to one float, except an int or
    timestamp beyond ±2^53: float would merge distinct ones, which
    compare_total compares exactly, so it keeps its payload. [nan] and
    [-0.0] are canonicalized because [Hashtbl]'s structural equality
    would otherwise split classes ([nan <> nan]) or hashes ([-0.0] vs
    [0.0]). NULL is one class, which a null-safe join key matches.

    It differs from SQL [=] on two pairs of values: text against a
    number is two classes, where [=] raises 42804, and an int beyond
    ±2^53 stays apart from the float it rounds to, which [=] calls
    equal. *)
type gkey = GNull | GStr of string | GNum of float | GNan | GBig of int64

let gkey_of (v : Value.t) : gkey =
  match v with
  | Value.Null -> GNull
  | Value.Str s -> GStr s
  | (Value.Int x | Value.Timestamp x)
    when Int64.compare x 9007199254740992L > 0
         || Int64.compare x (-9007199254740992L) < 0 ->
      GBig x
  | v -> (
      match Value.to_float v with
      | Some f ->
          if Float.is_nan f then GNan
          else GNum (if f = 0.0 then 0.0 else f)
      | None -> GNull)


(* ------------------------------------------------------------------ *)
(* Select-list helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* split a predicate into its AND conjuncts *)
let rec conjuncts (e : A.expr) : A.expr list =
  match e with
  | A.Bin (A.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* whether [q.c] resolves in [bindings] *)
let side_of (bindings : binding list) (q : string option) (c : string) : bool =
  match find_binding bindings q c with _ -> true | exception _ -> false

let proj_name i (p : A.proj) : string =
  match p.p_alias with
  | Some a -> a
  | None -> (
      match p.p_expr with
      | A.Col (_, c) -> c
      | A.Agg { agg_name; _ } -> agg_name
      | A.Fun (f, _) -> f
      | A.Window { win_fn; _ } -> win_fn
      | _ -> Printf.sprintf "column%d" (i + 1))

(* ORDER BY may reference output aliases anywhere in its expression (e.g.
   [ORDER BY (notional IS NULL), notional]); substitute the projection's
   expression for the alias before evaluating against input rows *)
let subst_aliases (projs : A.proj list) (names : string list) (e : A.expr) :
    A.expr =
  let rec go e =
    match e with
    | A.Col (None, c) when List.mem c names ->
        let j =
          List.mapi (fun i n -> (i, n)) names
          |> List.find (fun (_, n) -> n = c)
          |> fst
        in
        (List.nth projs j).A.p_expr
    | A.Col _ | A.Lit _ | A.Star -> e
    | A.Bin (op, a, b) -> A.Bin (op, go a, go b)
    | A.Un (op, a) -> A.Un (op, go a)
    | A.IsNull a -> A.IsNull (go a)
    | A.IsNotNull a -> A.IsNotNull (go a)
    | A.In (a, es) -> A.In (go a, List.map go es)
    | A.Between (a, lo, hi) -> A.Between (go a, go lo, go hi)
    | A.Case (bs, el) ->
        A.Case (List.map (fun (c, r) -> (go c, go r)) bs, Option.map go el)
    | A.Cast (a, ty) -> A.Cast (go a, ty)
    | A.Fun (f, args) -> A.Fun (f, List.map go args)
    | A.Agg a -> A.Agg { a with args = List.map go a.args }
    | A.Window w ->
        A.Window
          {
            w with
            win_args = List.map go w.win_args;
            partition = List.map go w.partition;
            order = List.map (fun (x, d) -> (go x, d)) w.order;
          }
    | A.Like (a, p) -> A.Like (go a, go p)
  in
  go e
