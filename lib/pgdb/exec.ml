(** Shared pieces of the pgdb SELECT executor {!Vexec}: the binding and
    result types, column resolution, scalar functions, LIKE matching,
    operator semantics, aggregates and group keys. *)

module A = Sqlast.Ast

type binding = { b_qual : string option; b_name : string; b_type : Catalog.Sqltype.t }

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
(* Key classes and the key order                                       *)
(* ------------------------------------------------------------------ *)

(** A hashable normalization of a key value, and the one key
    equivalence of every hash operator: GROUP BY, DISTINCT, a window's
    PARTITION BY, the hash join and a DISTINCT aggregate class two keys
    together exactly when their gkeys are equal. {!compare_key} orders
    the classes, so two values compare 0 exactly when their gkeys are
    equal. The numeric-ish types (int/float/bool/date/time/timestamp)
    normalize to one float, except an integer beyond ±2^53: float would
    merge distinct ones, so it keeps its payload. [nan] and [-0.0] are
    canonicalized because [Hashtbl]'s structural equality would
    otherwise split classes ([nan <> nan]) or hashes ([-0.0] vs
    [0.0]). NULL is one class, which a null-safe join key matches.

    It differs from SQL [=] on two pairs of values: text against a
    number is two classes, where [=] raises 42804, and an int beyond
    ±2^53 stays apart from the float it rounds to, which [=] calls
    equal. *)
type gkey = GNull | GStr of string | GNum of float | GNan | GBig of int64

let beyond_2_53 (x : int64) : bool =
  Int64.compare x 9007199254740992L > 0
  || Int64.compare x (-9007199254740992L) < 0

let gkey_of (v : Value.t) : gkey =
  match v with
  | Value.Null -> GNull
  | Value.Str s -> GStr s
  | (Value.Int x | Value.Timestamp x) when beyond_2_53 x -> GBig x
  | (Value.Date x | Value.Time x) when beyond_2_53 (Int64.of_int x) ->
      GBig (Int64.of_int x)
  | v -> (
      match Value.to_float v with
      | Some f ->
          if Float.is_nan f then GNan
          else GNum (if f = 0.0 then 0.0 else f)
      | None -> GNull)

let text_against_number () =
  Errors.type_mismatch "cannot order text against a non-text value"

(* an integer beyond ±2^53 against a double, by exact value, the
   integer after a double equal to it. Rounding is monotone, so a
   rounded [x] unequal to [f] orders as [x] does; an equal one makes [f]
   an integer, exact as an int64 below 2^63. *)
let compare_big (x : int64) (f : float) : int =
  let g = Int64.to_float x in
  if g <> f then Float.compare g f
  else if f >= 0x1p63 then -1
  else match Int64.compare x (Int64.of_float f) with 0 -> 1 | c -> c

(* the order of the classes: NULL last, text by String.compare, the
   numbers by exact value with NaN lowest, and text against a number
   raising 42804 *)
let compare_gkey (a : gkey) (b : gkey) : int =
  match (a, b) with
  | GNull, GNull -> 0
  | GNull, _ -> 1
  | _, GNull -> -1
  | GStr x, GStr y -> String.compare x y
  | GStr _, _ | _, GStr _ -> text_against_number ()
  | GNan, GNan -> 0
  | GNan, _ -> -1
  | _, GNan -> 1
  | GNum x, GNum y -> Float.compare x y
  | GBig x, GBig y -> Int64.compare x y
  | GBig x, GNum f -> compare_big x f
  | GNum f, GBig x -> -compare_big x f

(** The one key order of pgdb: every sort (ORDER BY, a window's ORDER
    BY, the rank-limit cut, the as-of join's later keys and so the
    gather's merge), min/max and greatest/least. It orders
    {!gkey_of}'s classes, so [compare_key a b = 0] exactly when [a] and
    [b] are one class, and it is transitive, ints against doubles
    included. NULL sorts after every value, PostgreSQL's ASC default; a
    caller that places NULLs otherwise does so before comparing. Text
    against a non-text value raises 42804, with one message whichever
    pair meets first. Two values of one kind compare without building
    their gkeys. *)
let compare_key (a : Value.t) (b : Value.t) : int =
  match (a, b) with
  | Value.Int x, Value.Int y | Value.Timestamp x, Value.Timestamp y ->
      Int64.compare x y
  | Value.Float x, Value.Float y -> Float.compare x y
  | Value.Str x, Value.Str y -> String.compare x y
  | Value.Date x, Value.Date y | Value.Time x, Value.Time y -> Int.compare x y
  | Value.Bool x, Value.Bool y -> Bool.compare x y
  | _ -> compare_gkey (gkey_of a) (gkey_of b)

(* ------------------------------------------------------------------ *)
(* Scalar functions                                                    *)
(* ------------------------------------------------------------------ *)

(** 42883 for the function [name] of [nargs] arguments *)
let no_function (name : string) (nargs : int) =
  Errors.undefined_function "function %s with %d argument%s does not exist"
    name nargs
    (if nargs = 1 then "" else "s")

(** The scalar function [name] of [nargs] arguments, resolved once when
    a statement is planned: 42883 for any other, as PostgreSQL plans
    it. These are the functions Hyper-Q's translator emits. *)
let scalar_fun (name : string) (nargs : int) : Value.t list -> Value.t =
  let one f = function [ v ] -> f v | _ -> invalid_arg "scalar_fun" in
  let num f =
    one (function
      | Value.Null -> Value.Null
      | v -> (
          match Value.to_float v with
          | Some x -> Value.Float (f x)
          | None -> Errors.type_mismatch "%s expects a number" name))
  in
  (* floor and ceil keep an int as it is *)
  let rounding f =
    one (function
      | Value.Int _ as v -> v
      | v -> (
          match Value.to_float v with
          | Some x -> Value.Float (f x)
          | None -> Value.Null))
  in
  let text f =
    one (function
      | Value.Str s -> Value.Str (f s)
      | Value.Null -> Value.Null
      | _ -> Errors.undefined_function "unknown function %s" name)
  in
  (* the greatest ([sign] 1) or least (-1) non-NULL argument *)
  let extreme sign args =
    List.fold_left
      (fun acc v ->
        if Value.is_null v then acc
        else
          match acc with
          | Value.Null -> v
          | acc -> if sign * compare_key v acc > 0 then v else acc)
      Value.Null args
  in
  match (String.lowercase_ascii name, nargs) with
  | "coalesce", n when n > 0 -> (
      fun args ->
        match List.find_opt (fun v -> not (Value.is_null v)) args with
        | Some v -> v
        | None -> Value.Null)
  | "abs", 1 -> (
      function
      | [ Value.Int i ] -> Value.Int (Int64.abs i) | args -> num Float.abs args)
  | "sqrt", 1 -> num sqrt
  | "exp", 1 -> num exp
  | "ln", 1 -> num log
  | "sign", 1 ->
      one (fun v ->
          match Value.to_float v with
          | Some f ->
              Value.Int (if f > 0. then 1L else if f < 0. then -1L else 0L)
          | None -> Value.Null)
  | "floor", 1 -> rounding Float.floor
  | "ceil", 1 -> rounding Float.ceil
  | "greatest", n when n > 0 -> extreme 1
  | "least", n when n > 0 -> extreme (-1)
  | "upper", 1 -> text String.uppercase_ascii
  | "lower", 1 -> text String.lowercase_ascii
  | n, k -> no_function n k

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
  | A.Lt -> fun a b -> cmp_bool a b (fun c -> c < 0)
  | A.Le -> fun a b -> cmp_bool a b (fun c -> c <= 0)
  | A.Gt -> fun a b -> cmp_bool a b (fun c -> c > 0)
  | A.Ge -> fun a b -> cmp_bool a b (fun c -> c >= 0)
  | A.And -> Value.and3
  | A.Or -> Value.or3
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
  | A.Un (_, a) | A.IsNull a | A.Cast (a, _) -> expr_has_agg a
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
  | A.Un (_, a) | A.IsNull a | A.Cast (a, _) -> collect_windows a
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

(* the first value of each gkey class of [vs], in order *)
let first_of_classes (vs : Value.t list) : Value.t list =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      let k = gkey_of v in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    vs

(** The aggregates pgdb computes, in GROUP BY and over a window frame
    alike: the ones Hyper-Q's translator emits. *)
let aggregates =
  [ "count"; "sum"; "avg"; "min"; "max"; "median"; "stddev_pop"; "var_pop";
    "first"; "last"; "bool_and"; "bool_or" ]

let floats (vs : Value.t list) : float list =
  List.map (fun v -> match Value.to_float v with Some x -> x | None -> 0.0) vs

(* the population variance of a non-empty list *)
let variance (fs : float list) : float =
  let n = float_of_int (List.length fs) in
  let mean = List.fold_left ( +. ) 0.0 fs /. n in
  List.fold_left (fun acc f -> acc +. ((f -. mean) ** 2.)) 0.0 fs /. n

(** Apply an aggregate of {!aggregates} to the list of argument values
    from a group's rows, NULLs among them. *)
let apply_agg (name : string) (distinct : bool) (values : Value.t list) :
    Value.t =
  let non_null = List.filter (fun v -> not (Value.is_null v)) values in
  let non_null = if distinct then first_of_classes non_null else non_null in
  (* a float aggregate: NULL over no values *)
  let float_agg f =
    if non_null = [] then Value.Null else Value.Float (f (floats non_null))
  in
  let extreme sign =
    List.fold_left
      (fun acc v ->
        match acc with
        | Value.Null -> v
        | acc -> if sign * compare_key v acc > 0 then v else acc)
      Value.Null non_null
  in
  match String.lowercase_ascii name with
  | "count" -> Value.Int (Int64.of_int (List.length non_null))
  | "sum" -> (
      match non_null with
      | [] -> Value.Null
      | vs when List.for_all (function Value.Int _ -> true | _ -> false) vs ->
          Value.Int
            (List.fold_left
               (fun acc v ->
                 match v with Value.Int i -> Int64.add acc i | _ -> acc)
               0L vs)
      | _ -> float_agg (List.fold_left ( +. ) 0.0))
  | "avg" ->
      float_agg (fun fs ->
          List.fold_left ( +. ) 0.0 fs /. float_of_int (List.length fs))
  | "min" -> extreme (-1)
  | "max" -> extreme 1
  | "stddev_pop" -> float_agg (fun fs -> sqrt (variance fs))
  | "var_pop" -> float_agg variance
  | "median" ->
      float_agg (fun fs ->
          let arr = Array.of_list fs in
          Array.sort Float.compare arr;
          let n = Array.length arr in
          if n mod 2 = 1 then arr.(n / 2)
          else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0)
  | "first" -> ( match non_null with [] -> Value.Null | v :: _ -> v)
  | "last" -> (
      match List.rev non_null with [] -> Value.Null | v :: _ -> v)
  | "bool_and" ->
      Value.Bool (List.for_all (fun v -> Value.is_true v) non_null)
  | "bool_or" -> Value.Bool (List.exists (fun v -> Value.is_true v) non_null)
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
(* Column types                                                        *)
(* ------------------------------------------------------------------ *)

module T = Catalog.Sqltype

(* the type of [a op b] from its operands' types, as Value.arith and
   Value.div compute its values *)
let arith_type (op : A.binop) (a : T.t) (b : T.t) : T.t =
  match (op, a, b) with
  | _, T.TBigint, T.TBigint -> T.TBigint
  | (A.Add | A.Sub | A.Mul), T.TDate, T.TBigint | A.Add, T.TBigint, T.TDate ->
      T.TDate
  | A.Sub, T.TDate, T.TDate | A.Sub, T.TTimestamp, T.TTimestamp -> T.TBigint
  | (A.Add | A.Sub | A.Mul), T.TTimestamp, T.TBigint -> T.TTimestamp
  | (A.Add | A.Sub | A.Mul), T.TTime, T.TBigint -> T.TTime
  | _ -> T.TDouble

(* the one type of a CASE's arms or of coalesce's, greatest's and
   least's arguments: the first known one, a double when that is a
   bigint and another a double *)
let common_type (tys : T.t option list) : T.t option =
  match List.filter_map Fun.id tys with
  | [] -> None
  | t :: rest ->
      Some (if t = T.TBigint && List.mem T.TDouble rest then T.TDouble else t)

(* an expression's type; [None] for a bare NULL, whose type the
   expression around it decides, as PostgreSQL resolves an untyped
   literal. A function or aggregate no statement may call is left to
   its compilation to refuse. *)
let rec type_of_expr (bindings : binding list) (e : A.expr) : T.t option =
  let ty = type_of_expr bindings in
  match e with
  | A.Lit A.Null -> None
  | A.Lit (A.Bool _) -> Some T.TBool
  | A.Lit (A.Int _) -> Some T.TBigint
  | A.Lit (A.Float _) -> Some T.TDouble
  | A.Lit (A.Str _) -> Some T.TText
  | A.Col (q, c) -> Some (List.nth bindings (find_binding bindings q c)).b_type
  | A.Star -> None
  | A.Bin (((A.Add | A.Sub | A.Mul | A.Div | A.Mod) as op), a, b) -> (
      match (ty a, ty b) with
      | Some x, Some y -> Some (arith_type op x y)
      | x, None -> x
      | None, y -> y)
  | A.Bin _ | A.Un (A.Not, _) | A.IsNull _ | A.In _ | A.Between _ | A.Like _ ->
      Some T.TBool
  | A.Un (A.Neg, a) -> ty a
  | A.Case (arms, default) ->
      common_type (List.map (fun (_, r) -> ty r) arms @ [ Option.bind default ty ])
  | A.Cast (_, t) -> Some t
  (* a function's, aggregate's or window's: sum, abs, floor and ceil
     keep a bigint and are a double otherwise, as their values are *)
  | A.Fun (f, args)
  | A.Agg { agg_name = f; args; _ }
  | A.Window { win_fn = f; win_args = args; _ } -> (
      match (String.lowercase_ascii f, args) with
      | ("coalesce" | "greatest" | "least"), _ -> common_type (List.map ty args)
      | ("sum" | "abs" | "floor" | "ceil"), [ a ] ->
          Some (if ty a = Some T.TBigint then T.TBigint else T.TDouble)
      | ("count" | "row_number" | "sign"), _ -> Some T.TBigint
      | ("avg" | "median" | "stddev_pop" | "var_pop" | "sqrt" | "exp" | "ln"), _ ->
          Some T.TDouble
      | ("bool_and" | "bool_or"), _ -> Some T.TBool
      | ("min" | "max" | "first" | "last" | "lag" | "lead"), [ a ] -> ty a
      | ("upper" | "lower"), [ a ] -> ty a
      | _ -> None)

(** The type of a result column computing [e] over [bindings], fixed
    when the statement is planned, before any row is read, as a
    PostgreSQL RowDescription is: a column's declared type, a cast's
    target, and each operator's, function's, aggregate's and window's
    result type over its arguments' types; a column of bare NULLs is
    text. Over columns that hold their declared types, every value of
    [e] is of this type or NULL ({!widening}). *)
let expr_type (bindings : binding list) (e : A.expr) : T.t =
  Option.value (type_of_expr bindings e) ~default:T.TText

(** How each value of [e], a CASE or a function, takes [e]'s type: a
    bigint becomes a double where a double CASE's arms or function's
    arguments hold a bigint, as coalesce, greatest and least over both
    do. *)
let widening (bindings : binding list) (e : A.expr) : Value.t -> Value.t =
  let arms =
    match e with
    | A.Case (arms, default) -> List.map snd arms @ Option.to_list default
    | A.Fun (_, args) -> args
    | _ -> []
  in
  let ty = type_of_expr bindings in
  if ty e = Some T.TDouble && List.exists (fun a -> ty a = Some T.TBigint) arms
  then function Value.Int i -> Value.Float (Int64.to_float i) | v -> v
  else Fun.id

(* ------------------------------------------------------------------ *)
(* Select-list helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* split a predicate into its AND conjuncts *)
let rec conjuncts (e : A.expr) : A.expr list =
  match e with
  | A.Bin (A.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* A join's ON split into its hash keys and the other conjuncts. A key
   is a conjunct [l = r] or [l IS NOT DISTINCT FROM r] between a column
   of each side, as (left index, right index, null-safe). *)
let join_keys (lb : binding list) (rb : binding list) (on : A.expr) :
    (int * int * bool) list * A.expr list =
  let side bs q c =
    match find_binding bs q c with i -> Some i | exception _ -> None
  in
  List.partition_map
    (fun conj ->
      match conj with
      | A.Bin (((A.Eq | A.IsNotDistinctFrom) as op), A.Col (ql, cl), A.Col (qr, cr))
        -> (
          let null_safe = op = A.IsNotDistinctFrom in
          (* the operands in written order first: a failed lookup scans
             every binding and raises *)
          let key (lq, lc) (rq, rc) =
            Option.bind (side lb lq lc) (fun l ->
                Option.map (fun r -> (l, r, null_safe)) (side rb rq rc))
          in
          match key (ql, cl) (qr, cr) with
          | Some k -> Either.Left k
          | None -> (
              match key (qr, cr) (ql, cl) with
              | Some k -> Either.Left k
              | None -> Either.Right conj))
      | conj -> Either.Right conj)
    (conjuncts on)

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
