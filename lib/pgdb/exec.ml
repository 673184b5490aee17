(** The pgdb query executor.

    A straightforward row-at-a-time interpreter over {!Sqlast.Ast}: nested
    loop joins, hash-free grouping, full materialization. It is deliberately
    simple — the reproduction's benchmarks measure Hyper-Q's *translation*
    cost relative to backend execution (paper Section 6), which only needs
    execution to behave like a real analytical backend: correct 3VL
    semantics and costs that dwarf translation. *)

module A = Sqlast.Ast
module S = Catalog.Schema

type binding = { b_qual : string option; b_name : string; b_type : Catalog.Sqltype.t option }

type rowset = { bindings : binding list; rows : Value.t array array }

type result = {
  res_cols : (string * Catalog.Sqltype.t) list;
  res_rows : Value.t array array;
}

(** Table resolution is a callback so the executor stays independent of the
    database facade (sessions, temp tables, views). [collect] turns on
    per-operator statistics (ANALYZE): as each operator finishes it leaves
    its completed {!Opstats.node} subtree in [plan], where the enclosing
    operator picks it up; after [run_select] returns, [plan] holds the whole
    tree. Off-path cost is one boolean test per operator node. *)
type env = {
  resolve : string -> rowset;
  collect : bool;
  mutable plan : Opstats.node option;
}

let env_of_resolve ?(collect = false) resolve = { resolve; collect; plan = None }

let now_ns () : int64 = Monotonic_clock.now ()
let emit (env : env) (n : Opstats.node) = env.plan <- Some n

let take_plan (env : env) : Opstats.node option =
  let p = env.plan in
  env.plan <- None;
  p

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

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* window caches: (window node, per-row values) — populated before
   projection when the select list contains window functions *)
type eval_ctx = {
  bindings : binding list;
  mutable windows : (A.expr * Value.t array) list;
}

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

let rec eval_expr (ctx : eval_ctx) (row : Value.t array) (idx : int)
    (e : A.expr) : Value.t =
  match e with
  | A.Lit l -> Value.of_lit l
  | A.Col (q, c) -> row.(find_binding ctx.bindings q c)
  | A.Star -> Errors.syntax_error "stray * in expression"
  | A.Bin (op, a, b) -> (
      let va = eval_expr ctx row idx a in
      let vb = eval_expr ctx row idx b in
      match op with
      | A.Add -> Value.add va vb
      | A.Sub -> Value.sub va vb
      | A.Mul -> Value.mul va vb
      | A.Div -> Value.div va vb
      | A.Mod -> Value.modulo va vb
      | A.Eq -> Value.eq3 va vb
      | A.Neq -> Value.not3 (Value.eq3 va vb)
      | A.Lt -> cmp_bool va vb (fun c -> c < 0)
      | A.Le -> cmp_bool va vb (fun c -> c <= 0)
      | A.Gt -> cmp_bool va vb (fun c -> c > 0)
      | A.Ge -> cmp_bool va vb (fun c -> c >= 0)
      | A.And -> Value.and3 va vb
      | A.Or -> Value.or3 va vb
      | A.Concat -> (
          match (Value.to_text va, Value.to_text vb) with
          | Some x, Some y -> Value.Str (x ^ y)
          | _ -> Value.Null)
      | A.IsDistinctFrom -> Value.not3 (Value.not_distinct va vb)
      | A.IsNotDistinctFrom -> Value.not_distinct va vb)
  | A.Un (A.Not, a) -> Value.not3 (eval_expr ctx row idx a)
  | A.Un (A.Neg, a) -> (
      match eval_expr ctx row idx a with
      | Value.Int i -> Value.Int (Int64.neg i)
      | Value.Float f -> Value.Float (-.f)
      | Value.Null -> Value.Null
      | _ -> Errors.type_mismatch "cannot negate non-number")
  | A.IsNull a -> Value.Bool (Value.is_null (eval_expr ctx row idx a))
  | A.IsNotNull a -> Value.Bool (not (Value.is_null (eval_expr ctx row idx a)))
  | A.In (a, es) ->
      let va = eval_expr ctx row idx a in
      if Value.is_null va then Value.Null
      else
        let found = ref false and saw_null = ref false in
        List.iter
          (fun e' ->
            let v = eval_expr ctx row idx e' in
            if Value.is_null v then saw_null := true
            else match Value.compare3 va v with
              | Some 0 -> found := true
              | _ -> ())
          es;
        if !found then Value.Bool true
        else if !saw_null then Value.Null
        else Value.Bool false
  | A.Between (a, lo, hi) ->
      let va = eval_expr ctx row idx a in
      let vlo = eval_expr ctx row idx lo in
      let vhi = eval_expr ctx row idx hi in
      Value.and3
        (cmp_bool va vlo (fun c -> c >= 0))
        (cmp_bool va vhi (fun c -> c <= 0))
  | A.Case (branches, else_) -> (
      let rec go = function
        | [] -> (
            match else_ with
            | Some e' -> eval_expr ctx row idx e'
            | None -> Value.Null)
        | (c, r) :: rest ->
            if Value.is_true (eval_expr ctx row idx c) then
              eval_expr ctx row idx r
            else go rest
      in
      go branches)
  | A.Cast (a, ty) -> Value.cast ty (eval_expr ctx row idx a)
  | A.Fun (f, args) ->
      scalar_fun f (List.map (eval_expr ctx row idx) args)
  | A.Like (a, p) -> (
      match (eval_expr ctx row idx a, eval_expr ctx row idx p) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Str s, Value.Str pat -> Value.Bool (like_match s pat)
      | _ -> Errors.type_mismatch "LIKE expects text operands")
  | A.Agg _ ->
      Errors.syntax_error "aggregate function in a non-aggregate context"
  | A.Window _ as w -> (
      match List.assoc_opt w ctx.windows with
      | Some values -> values.(idx)
      | None -> Errors.feature_not_supported "window function in this context")

and cmp_bool a b test =
  match Value.compare3 a b with
  | None -> Value.Null
  | Some c -> Value.Bool (test c)

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

let rec expr_has_window = function
  | A.Window _ -> true
  | A.Bin (_, a, b) -> expr_has_window a || expr_has_window b
  | A.Un (_, a) | A.IsNull a | A.IsNotNull a | A.Cast (a, _) ->
      expr_has_window a
  | A.In (a, es) -> expr_has_window a || List.exists expr_has_window es
  | A.Between (a, b, c) ->
      expr_has_window a || expr_has_window b || expr_has_window c
  | A.Case (bs, e) ->
      List.exists (fun (c, r) -> expr_has_window c || expr_has_window r) bs
      || (match e with Some e -> expr_has_window e | None -> false)
  | A.Fun (_, args) -> List.exists expr_has_window args
  | A.Agg { args; _ } -> List.exists expr_has_window args
  | A.Like (a, b) -> expr_has_window a || expr_has_window b
  | A.Lit _ | A.Col _ | A.Star -> false

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

(** Evaluate an expression in aggregate context: [Agg] nodes aggregate over
    the group's rows, everything else is taken from the group's first row. *)
let rec eval_agg_expr (ctx : eval_ctx) (group_rows : Value.t array array)
    (e : A.expr) : Value.t =
  match e with
  | A.Agg { agg_name; distinct; args } -> (
      match args with
      | [ A.Star ] | [] ->
          (* count-star counts rows including nulls *)
          Value.Int (Int64.of_int (Array.length group_rows))
      | [ arg ] ->
          let values =
            Array.to_list
              (Array.map (fun row -> eval_expr ctx row 0 arg) group_rows)
          in
          apply_agg agg_name distinct values
      | _ -> Errors.feature_not_supported "multi-argument aggregate")
  | A.Bin (op, a, b) ->
      let e' = A.Bin (op, A.Lit (lit_of (eval_agg_expr ctx group_rows a)),
                      A.Lit (lit_of (eval_agg_expr ctx group_rows b))) in
      eval_expr ctx [||] 0 e'
  | A.Un (op, a) ->
      eval_expr ctx [||] 0 (A.Un (op, A.Lit (lit_of (eval_agg_expr ctx group_rows a))))
  | A.Cast (a, ty) -> Value.cast ty (eval_agg_expr ctx group_rows a)
  | A.Fun (f, args) when expr_has_agg e ->
      scalar_fun f (List.map (eval_agg_expr ctx group_rows) args)
  | A.IsNull a when expr_has_agg e ->
      Value.Bool (Value.is_null (eval_agg_expr ctx group_rows a))
  | A.IsNotNull a when expr_has_agg e ->
      Value.Bool (not (Value.is_null (eval_agg_expr ctx group_rows a)))
  | A.Case (branches, else_) when expr_has_agg e -> (
      let rec go = function
        | [] -> (
            match else_ with
            | Some e' -> eval_agg_expr ctx group_rows e'
            | None -> Value.Null)
        | (c, r) :: rest ->
            if Value.is_true (eval_agg_expr ctx group_rows c) then
              eval_agg_expr ctx group_rows r
            else go rest
      in
      go branches)
  | A.Between (a, lo, hi) when expr_has_agg e ->
      let v = eval_agg_expr ctx group_rows a in
      let vlo = eval_agg_expr ctx group_rows lo in
      let vhi = eval_agg_expr ctx group_rows hi in
      Value.and3
        (match Value.compare3 v vlo with
        | None -> Value.Null
        | Some c -> Value.Bool (c >= 0))
        (match Value.compare3 v vhi with
        | None -> Value.Null
        | Some c -> Value.Bool (c <= 0))
  | (A.In _ | A.Like _) when expr_has_agg e ->
      Errors.feature_not_supported "aggregate nested in IN/LIKE"
  | e -> (
      (* plain expression: evaluate on the first row of the group; an empty
         group still evaluates row-independent expressions (literals,
         constant arithmetic) *)
      match group_rows with
      | [||] -> ( try eval_expr ctx [||] 0 e with _ -> Value.Null)
      | _ -> eval_expr ctx group_rows.(0) 0 e)

and lit_of (v : Value.t) : A.lit =
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

(** A hashable normalization of a grouping value: two values land in the
    same class exactly when {!Value.compare_total} calls them equal —
    all the numeric-ish types (int/float/bool/date/time/timestamp)
    compare through [to_float], so they normalize to one float; [nan]
    and [-0.0] are canonicalized because [Hashtbl]'s structural equality
    would otherwise split classes ([nan <> nan]) or hashes
    ([-0.0] vs [0.0]). *)
type gkey = GNull | GStr of string | GNum of float | GNan

let gkey_of (v : Value.t) : gkey =
  match v with
  | Value.Null -> GNull
  | Value.Str s -> GStr s
  | v -> (
      match Value.to_float v with
      | Some f ->
          if Float.is_nan f then GNan
          else GNum (if f = 0.0 then 0.0 else f)
      | None -> GNull)

(* ------------------------------------------------------------------ *)
(* Window functions                                                    *)
(* ------------------------------------------------------------------ *)

let compute_window (ctx : eval_ctx) (rows : Value.t array array)
    (w : A.expr) : Value.t array =
  match w with
  | A.Window { win_fn; win_args; partition; order; frame } ->
      let n = Array.length rows in
      let out = Array.make n Value.Null in
      (* partition row indices *)
      let parts : (Value.t list * int list ref) list ref = ref [] in
      for i = 0 to n - 1 do
        let key = List.map (fun e -> eval_expr ctx rows.(i) i e) partition in
        match
          List.find_opt
            (fun (k, _) ->
              List.for_all2 (fun a b -> Value.compare_total a b = 0) k key)
            !parts
        with
        | Some (_, l) -> l := i :: !l
        | None -> parts := (key, ref [ i ]) :: !parts
      done;
      let parts = List.rev_map (fun (k, l) -> (k, List.rev !l)) !parts in
      List.iter
        (fun ((_ : Value.t list), indices) ->
          let indices = Array.of_list indices in
          (* sort the partition by the ORDER BY keys, stable *)
          let sorted = Array.copy indices in
          if order <> [] then begin
            let keyed =
              Array.map
                (fun i ->
                  (i, List.map (fun (e, _) -> eval_expr ctx rows.(i) i e) order))
                sorted
            in
            let cmp (i1, k1) (i2, k2) =
              let rec go ks1 ks2 dirs =
                match (ks1, ks2, dirs) with
                | [], [], _ -> Stdlib.compare i1 i2
                | a :: r1, b :: r2, (_, d) :: rd ->
                    let c = Value.compare_total a b in
                    let c = match d with A.Asc -> c | A.Desc -> -c in
                    if c <> 0 then c else go r1 r2 rd
                | _ -> Stdlib.compare i1 i2
              in
              go k1 k2 order
            in
            Array.sort cmp keyed;
            Array.iteri (fun pos (i, _) -> sorted.(pos) <- i) keyed
          end;
          let m = Array.length sorted in
          let fn = String.lowercase_ascii win_fn in
          (* frame bounds for aggregates; PG default with ORDER BY is
             range unbounded preceding .. current row *)
          let bounds pos =
            match frame with
            | None ->
                if order = [] then (0, m - 1) else (0, pos)
            | Some { lo; hi; _ } ->
                let b = function
                  | A.UnboundedPreceding -> 0
                  | A.Preceding k -> Stdlib.max 0 (pos - k)
                  | A.CurrentRow -> pos
                  | A.Following k -> Stdlib.min (m - 1) (pos + k)
                  | A.UnboundedFollowing -> m - 1
                in
                (b lo, b hi)
          in
          let arg_at i =
            match win_args with
            | [] -> Value.Null
            | a :: _ -> eval_expr ctx rows.(i) i a
          in
          (match fn with
          | "row_number" ->
              Array.iteri
                (fun pos i -> out.(i) <- Value.Int (Int64.of_int (pos + 1)))
                sorted
          | "rank" | "dense_rank" ->
              let rank = ref 0 and drank = ref 0 and prev_key = ref None in
              Array.iteri
                (fun pos i ->
                  let key =
                    List.map (fun (e, _) -> eval_expr ctx rows.(i) i e) order
                  in
                  let same =
                    match !prev_key with
                    | Some k ->
                        List.for_all2
                          (fun a b -> Value.compare_total a b = 0)
                          k key
                    | None -> false
                  in
                  if not same then begin
                    rank := pos + 1;
                    incr drank;
                    prev_key := Some key
                  end;
                  out.(i) <-
                    Value.Int
                      (Int64.of_int (if fn = "rank" then !rank else !drank)))
                sorted
          | "lag" | "lead" ->
              let offset =
                match win_args with
                | _ :: A.Lit (A.Int k) :: _ -> Int64.to_int k
                | _ -> 1
              in
              let default =
                match win_args with
                | [ _; _; d ] -> fun i -> eval_expr ctx rows.(i) i d
                | _ -> fun _ -> Value.Null
              in
              Array.iteri
                (fun pos i ->
                  let src = if fn = "lag" then pos - offset else pos + offset in
                  out.(i) <-
                    (if src >= 0 && src < m then arg_at sorted.(src)
                     else default i))
                sorted
          | "first_value" ->
              Array.iteri
                (fun pos i ->
                  let lo, _ = bounds pos in
                  out.(i) <- arg_at sorted.(lo))
                sorted
          | "last_value" ->
              Array.iteri
                (fun pos i ->
                  let _, hi = bounds pos in
                  out.(i) <- arg_at sorted.(hi))
                sorted
          | "ntile" ->
              let buckets =
                match win_args with
                | [ A.Lit (A.Int k) ] -> Int64.to_int k
                | _ -> 1
              in
              Array.iteri
                (fun pos i ->
                  out.(i) <-
                    Value.Int (Int64.of_int (1 + (pos * buckets / Stdlib.max 1 m))))
                sorted
          | "sum" | "avg" | "min" | "max" | "count" | "stddev" | "first"
          | "last" ->
              Array.iteri
                (fun pos i ->
                  let lo, hi = bounds pos in
                  let vals = ref [] in
                  for k = hi downto lo do
                    vals :=
                      (match win_args with
                      | [] | [ A.Star ] -> Value.Int 1L
                      | a :: _ -> eval_expr ctx rows.(sorted.(k)) sorted.(k) a)
                      :: !vals
                  done;
                  out.(i) <-
                    (if fn = "count" && win_args = [] then
                       Value.Int (Int64.of_int (hi - lo + 1))
                     else apply_agg fn false !vals))
                sorted
          | f -> Errors.undefined_function "unknown window function %s" f))
        parts;
      out
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* FROM evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let rec eval_from (env : env) (f : A.from_item) : rowset =
  match f with
  | A.TableRef (name, alias) ->
      let t0 = if env.collect then now_ns () else 0L in
      let rs = env.resolve name in
      let qual = match alias with Some a -> Some a | None -> Some name in
      let rs =
        { rs with bindings = List.map (fun b -> { b with b_qual = qual }) rs.bindings }
      in
      if env.collect then begin
        (* a scan's estimate is the base-table cardinality itself *)
        let n = Array.length rs.rows in
        emit env
          (Opstats.leaf ~op:"scan" ~detail:name ~est_rows:n ~rows_out:n
             ~self_ns:(Int64.sub (now_ns ()) t0))
      end;
      rs
  | A.SubqueryRef (sel, alias) ->
      let res = run_select env sel in
      let sub = if env.collect then take_plan env else None in
      if env.collect then begin
        let n = Array.length res.res_rows in
        let est =
          match sub with Some s -> s.Opstats.est_rows | None -> n
        in
        emit env
          (Opstats.make ~op:"subquery" ~detail:alias ~est_rows:est ~rows_in:n
             ~rows_out:n ~self_ns:0L ~children:(Option.to_list sub))
      end;
      {
        bindings =
          List.map
            (fun (n, ty) -> { b_qual = Some alias; b_name = n; b_type = Some ty })
            res.res_cols;
        rows = res.res_rows;
      }
  | A.UnionRef (sels, alias) -> (
      let subs =
        List.map
          (fun sel ->
            let r = run_select env sel in
            let node = if env.collect then take_plan env else None in
            (r, node))
          sels
      in
      match subs with
      | [] -> Errors.syntax_error "empty UNION"
      | (first, _) :: rest ->
          let t0 = if env.collect then now_ns () else 0L in
          let width = List.length first.res_cols in
          List.iter
            (fun (r, _) ->
              if List.length r.res_cols <> width then
                Errors.syntax_error
                  "each UNION query must have the same number of columns")
            rest;
          let rows =
            Array.concat
              (first.res_rows :: List.map (fun (r, _) -> r.res_rows) rest)
          in
          if env.collect then begin
            let children = List.filter_map snd subs in
            let est =
              List.fold_left (fun a n -> a + n.Opstats.est_rows) 0 children
            in
            let out = Array.length rows in
            emit env
              (Opstats.make ~op:"union" ~detail:alias ~est_rows:est
                 ~rows_in:out ~rows_out:out
                 ~self_ns:(Int64.sub (now_ns ()) t0) ~children)
          end;
          {
            bindings =
              List.map
                (fun (n, ty) ->
                  { b_qual = Some alias; b_name = n; b_type = Some ty })
                first.res_cols;
            rows;
          })
  | A.JoinItem { jkind; left; right; on } ->
      let l = eval_from env left in
      let lnode = if env.collect then take_plan env else None in
      let r = eval_from env right in
      let rnode = if env.collect then take_plan env else None in
      eval_join env lnode rnode l r jkind on

(* ---------------------------------------------------------------- *)
(* Join evaluation: hash join on extractable equality conjuncts,     *)
(* nested loop otherwise                                             *)
(* ---------------------------------------------------------------- *)

(* split an ON condition into conjuncts *)
and conjuncts (e : A.expr) : A.expr list =
  match e with
  | A.Bin (A.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* try to resolve a column strictly on one side *)
and side_of (bindings : binding list) (q : string option) (c : string) : bool =
  match find_binding bindings q c with _ -> true | exception _ -> false

and eval_join (env : env) lnode rnode (l : rowset) (r : rowset) jkind
    (on : A.expr option) : rowset =
  let t0 = if env.collect then now_ns () else 0L in
  let bindings = l.bindings @ r.bindings in
  let ctx = { bindings; windows = [] } in
  (* partition the ON conjuncts into hashable equality pairs and residuals *)
  let equi, residual =
    match on with
    | None -> ([], [])
    | Some e ->
        List.partition_map
          (fun conj ->
            match conj with
            | A.Bin (((A.Eq | A.IsNotDistinctFrom) as op), A.Col (ql, cl), A.Col (qr, cr)) ->
                let null_safe = op = A.IsNotDistinctFrom in
                if side_of l.bindings ql cl && side_of r.bindings qr cr then
                  Left (find_binding l.bindings ql cl, find_binding r.bindings qr cr, null_safe)
                else if side_of l.bindings qr cr && side_of r.bindings ql cl
                then
                  Left (find_binding l.bindings qr cr, find_binding r.bindings ql cl, null_safe)
                else Right conj
            | conj -> Right conj)
          (conjuncts e)
  in
  let residual_pred =
    match residual with
    | [] -> None
    | e :: rest -> Some (List.fold_left (fun a b -> A.Bin (A.And, a, b)) e rest)
  in
  let test_residual lrow rrow =
    match residual_pred with
    | None -> true
    | Some e -> Value.is_true (eval_expr ctx (Array.append lrow rrow) 0 e)
  in
  let rwidth = List.length r.bindings in
  let null_right = Array.make rwidth Value.Null in
  let out = ref [] in
  if equi <> [] && jkind <> `Cross then begin
    (* hash the right side on the equality columns *)
    let hashable rrow =
      (* plain = never matches NULL keys *)
      List.for_all
        (fun (_, ri, null_safe) -> null_safe || not (Value.is_null rrow.(ri)))
        equi
    in
    let rkey rrow =
      String.concat "\x00" (List.map (fun (_, ri, _) -> Value.to_display rrow.(ri)) equi)
    in
    let lkey lrow =
      String.concat "\x00" (List.map (fun (li, _, _) -> Value.to_display lrow.(li)) equi)
    in
    let table : (string, Value.t array list ref) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun rrow ->
        if hashable rrow then
          let k = rkey rrow in
          match Hashtbl.find_opt table k with
          | Some lst -> lst := rrow :: !lst
          | None -> Hashtbl.add table k (ref [ rrow ]))
      r.rows;
    Array.iter
      (fun lrow ->
        let l_ok =
          List.for_all
            (fun (li, _, null_safe) ->
              null_safe || not (Value.is_null lrow.(li)))
            equi
        in
        let matches =
          if not l_ok then []
          else
            match Hashtbl.find_opt table (lkey lrow) with
            | Some lst -> List.rev !lst
            | None -> []
        in
        let matched = ref false in
        List.iter
          (fun rrow ->
            if test_residual lrow rrow then begin
              matched := true;
              out := Array.append lrow rrow :: !out
            end)
          matches;
        if (not !matched) && jkind = `Left then
          out := Array.append lrow null_right :: !out)
      l.rows
  end
  else begin
    (* nested loop *)
    let test lrow rrow =
      (match on with
       | None -> true
       | Some e -> Value.is_true (eval_expr ctx (Array.append lrow rrow) 0 e))
    in
    Array.iter
      (fun lrow ->
        let matched = ref false in
        Array.iter
          (fun rrow ->
            if test lrow rrow then begin
              matched := true;
              out := Array.append lrow rrow :: !out
            end)
          r.rows;
        if (not !matched) && jkind = `Left then
          out := Array.append lrow null_right :: !out)
      l.rows
  end;
  let rows = Array.of_list (List.rev !out) in
  if env.collect then begin
    let meth =
      if equi <> [] && jkind <> `Cross then "hash_join" else "nested_loop"
    in
    let kind =
      match jkind with `Inner -> "inner" | `Left -> "left" | `Cross -> "cross"
    in
    let l_est =
      match lnode with Some n -> n.Opstats.est_rows | None -> Array.length l.rows
    in
    let r_est =
      match rnode with Some n -> n.Opstats.est_rows | None -> Array.length r.rows
    in
    (* hash equi-joins estimated as max(inputs) (FK-ish), nested loops as
       the cross product *)
    let est =
      if meth = "hash_join" then Stdlib.max l_est r_est
      else Stdlib.max 1 l_est * Stdlib.max 1 r_est
    in
    let children = List.filter_map Fun.id [ lnode; rnode ] in
    emit env
      (Opstats.make ~op:meth ~detail:kind ~est_rows:est
         ~rows_in:(Array.length l.rows + Array.length r.rows)
         ~rows_out:(Array.length rows)
         ~self_ns:(Int64.sub (now_ns ()) t0) ~children)
  end;
  { bindings; rows }

(* ------------------------------------------------------------------ *)
(* SELECT driver                                                       *)
(* ------------------------------------------------------------------ *)

and proj_name i (p : A.proj) : string =
  match p.p_alias with
  | Some a -> a
  | None -> (
      match p.p_expr with
      | A.Col (_, c) -> c
      | A.Agg { agg_name; _ } -> agg_name
      | A.Fun (f, _) -> f
      | A.Window { win_fn; _ } -> win_fn
      | _ -> Printf.sprintf "column%d" (i + 1))

and infer_col_type (bindings : binding list) (rows : Value.t array array)
    (col : int) (e : A.expr) : Catalog.Sqltype.t =
  (* prefer the declared type when the projection is a plain column *)
  let declared =
    match e with
    | A.Col (q, c) -> (
        match List.nth_opt bindings (try find_binding bindings q c with _ -> -1) with
        | Some b -> b.b_type
        | None -> None)
    | A.Cast (_, ty) -> Some ty
    | _ -> None
  in
  match declared with
  | Some ty -> ty
  | None ->
      let rec scan i =
        if i >= Array.length rows then Catalog.Sqltype.TText
        else
          match Value.type_of rows.(i).(col) with
          | Some ty -> ty
          | None -> scan (i + 1)
      in
      scan 0

(* ORDER BY may reference output aliases anywhere in its expression (e.g.
   [ORDER BY (notional IS NULL), notional]); substitute the projection's
   expression for the alias before evaluating against input rows *)
and subst_aliases (projs : A.proj list) (names : string list) (e : A.expr) :
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

and run_select (env : env) (s : A.select) : result =
  let c = env.collect in
  let input =
    match s.from with
    | Some f -> eval_from env f
    | None ->
        if c then
          emit env
            (Opstats.leaf ~op:"values" ~detail:"" ~est_rows:1 ~rows_out:1
               ~self_ns:0L);
        { bindings = []; rows = [| [||] |] }
  in
  (* operator-stats chain: each pipeline phase below stacks one node on
     top of the FROM subtree; [lap] attributes the wall time since the
     previous phase boundary to the node being pushed *)
  let cur : Opstats.node option ref = ref (if c then take_plan env else None) in
  let last_t = ref (if c then now_ns () else 0L) in
  let lap () =
    let t = now_ns () in
    let d = Int64.sub t !last_t in
    last_t := t;
    if d < 0L then 0L else d
  in
  let cur_est () = match !cur with Some n -> n.Opstats.est_rows | None -> 1 in
  let push ~op ~detail ~est_rows ~rows_in ~rows_out =
    let self_ns = lap () in
    let children = match !cur with Some n -> [ n ] | None -> [] in
    cur :=
      Some
        (Opstats.make ~op ~detail ~est_rows ~rows_in ~rows_out ~self_ns
           ~children)
  in
  let ctx = { bindings = input.bindings; windows = [] } in
  (* WHERE *)
  let rows =
    match s.where with
    | None -> input.rows
    | Some w ->
        Array.of_list
          (List.filter
             (fun row -> Value.is_true (eval_expr ctx row 0 w))
             (Array.to_list input.rows))
  in
  (if c && s.where <> None then
     (* naive selectivity: a predicate keeps a third of its input *)
     push ~op:"filter" ~detail:"where"
       ~est_rows:(Stdlib.max 1 (cur_est () / 3))
       ~rows_in:(Array.length input.rows)
       ~rows_out:(Array.length rows));
  (* expand stars *)
  let projs =
    List.concat_map
      (fun p ->
        match p.A.p_expr with
        | A.Star ->
            List.map
              (fun b -> { A.p_expr = A.Col (b.b_qual, b.b_name); p_alias = Some b.b_name })
              input.bindings
        | A.Col (Some q, "*") ->
            input.bindings
            |> List.filter (fun b -> b.b_qual = Some q)
            |> List.map (fun b ->
                   { A.p_expr = A.Col (b.b_qual, b.b_name); p_alias = Some b.b_name })
        | _ -> [ p ])
      s.projs
  in
  let has_agg =
    s.group_by <> []
    || List.exists (fun p -> expr_has_agg p.A.p_expr) projs
    || (match s.having with Some h -> expr_has_agg h | None -> false)
  in
  let out_names = List.mapi proj_name projs in
  let output_rows, sort_keys =
    if has_agg then begin
      (* group rows *)
      let groups : (Value.t list * Value.t array array) list =
        if s.group_by = [] then [ ([], rows) ]
        else begin
          (* hashed grouping: one lookup per row on the normalized key,
             groups kept in first-encounter order *)
          let tbl : (gkey list, Value.t array list ref) Hashtbl.t =
            Hashtbl.create 64
          in
          let acc : (Value.t list * Value.t array list ref) list ref =
            ref []
          in
          Array.iter
            (fun row ->
              let key = List.map (fun e -> eval_expr ctx row 0 e) s.group_by in
              let hk = List.map gkey_of key in
              match Hashtbl.find_opt tbl hk with
              | Some l -> l := row :: !l
              | None ->
                  let l = ref [ row ] in
                  Hashtbl.add tbl hk l;
                  acc := (key, l) :: !acc)
            rows;
          List.rev_map
            (fun (k, l) -> (k, Array.of_list (List.rev !l)))
            !acc
        end
      in
      (* drop empty global group only when grouping columns exist *)
      let groups =
        List.filter
          (fun (_, rws) -> s.group_by = [] || Array.length rws > 0)
          groups
      in
      let groups =
        match s.having with
        | None -> groups
        | Some h ->
            List.filter
              (fun (_, rws) -> Value.is_true (eval_agg_expr ctx rws h))
              groups
      in
      let out =
        List.map
          (fun (_, rws) ->
            Array.of_list
              (List.map (fun p -> eval_agg_expr ctx rws p.A.p_expr) projs))
          groups
      in
      let keys =
        List.map
          (fun (_, rws) ->
            List.map
              (fun (e, _) ->
                eval_agg_expr ctx rws (subst_aliases projs out_names e))
              s.order_by)
          groups
      in
      (out, keys)
    end
    else begin
      (* window functions *)
      let windows =
        List.concat_map (fun p -> collect_windows p.A.p_expr) projs
        @ List.concat_map (fun (e, _) -> collect_windows e) s.order_by
      in
      let windows =
        List.fold_left
          (fun acc w -> if List.mem w acc then acc else w :: acc)
          [] windows
        |> List.rev
      in
      ctx.windows <- List.map (fun w -> (w, compute_window ctx rows w)) windows;
      let out =
        Array.to_list rows
        |> List.mapi (fun i row ->
               Array.of_list
                 (List.map (fun p -> eval_expr ctx row i p.A.p_expr) projs))
      in
      let keys =
        Array.to_list rows
        |> List.mapi (fun i row ->
               List.map
                 (fun (e, _) ->
                   eval_expr ctx row i (subst_aliases projs out_names e))
                 s.order_by)
      in
      (out, keys)
    end
  in
  (if c then
     let n_in = Array.length rows in
     let n_out = List.length output_rows in
     if has_agg then
       let detail =
         if s.group_by = [] then "scalar"
         else Printf.sprintf "group by %d" (List.length s.group_by)
       in
       (* grouped aggregation estimated at one group per ten input rows *)
       let est =
         if s.group_by = [] then 1 else Stdlib.max 1 (cur_est () / 10)
       in
       push ~op:"aggregate" ~detail ~est_rows:est ~rows_in:n_in ~rows_out:n_out
     else
       let op = if ctx.windows <> [] then "window" else "project" in
       push ~op
         ~detail:(Printf.sprintf "%d cols" (List.length projs))
         ~est_rows:(cur_est ()) ~rows_in:n_in ~rows_out:n_out);
  (* DISTINCT *)
  let pairs = List.combine output_rows sort_keys in
  let n_pre_distinct = if c then List.length pairs else 0 in
  let pairs =
    if s.distinct then
      List.fold_left
        (fun acc (row, k) ->
          if
            List.exists
              (fun (row', _) ->
                Array.length row = Array.length row'
                && Array.for_all2
                     (fun a b -> Value.compare_total a b = 0)
                     row row')
              acc
          then acc
          else (row, k) :: acc)
        [] pairs
      |> List.rev
    else pairs
  in
  (if c && s.distinct then
     push ~op:"distinct" ~detail:"" ~est_rows:(cur_est ())
       ~rows_in:n_pre_distinct ~rows_out:(List.length pairs));
  (* ORDER BY *)
  let pairs =
    if s.order_by = [] then pairs
    else
      List.stable_sort
        (fun (_, k1) (_, k2) ->
          let rec go ks1 ks2 dirs =
            match (ks1, ks2, dirs) with
            | [], [], _ -> 0
            | a :: r1, b :: r2, (_, d) :: rd ->
                let c = Value.compare_total a b in
                let c = match d with A.Asc -> c | A.Desc -> -c in
                if c <> 0 then c else go r1 r2 rd
            | _ -> 0
          in
          go k1 k2 s.order_by)
        pairs
  in
  (if c && s.order_by <> [] then
     let n = List.length pairs in
     push ~op:"sort"
       ~detail:(Printf.sprintf "%d keys" (List.length s.order_by))
       ~est_rows:(cur_est ()) ~rows_in:n ~rows_out:n);
  (* OFFSET / LIMIT *)
  let n_pre_limit = if c then List.length pairs else 0 in
  let pairs =
    match s.offset with
    | Some n -> (try List.filteri (fun i _ -> i >= n) pairs with _ -> pairs)
    | None -> pairs
  in
  let pairs =
    match s.limit with
    | Some n -> List.filteri (fun i _ -> i < n) pairs
    | None -> pairs
  in
  (if c && (s.limit <> None || s.offset <> None) then
     let detail =
       String.concat " "
         (List.filter
            (fun x -> x <> "")
            [
              (match s.limit with
              | Some n -> Printf.sprintf "limit %d" n
              | None -> "");
              (match s.offset with
              | Some n -> Printf.sprintf "offset %d" n
              | None -> "");
            ])
     in
     let est =
       let after_offset =
         Stdlib.max 0
           (cur_est () - match s.offset with Some o -> o | None -> 0)
       in
       match s.limit with
       | Some n -> Stdlib.min n after_offset
       | None -> after_offset
     in
     push ~op:"limit" ~detail ~est_rows:est ~rows_in:n_pre_limit
       ~rows_out:(List.length pairs));
  let out_rows = Array.of_list (List.map fst pairs) in
  let types =
    List.mapi
      (fun i p -> infer_col_type input.bindings out_rows i p.A.p_expr)
      projs
  in
  if c then env.plan <- !cur;
  { res_cols = List.combine out_names types; res_rows = out_rows }

(* ------------------------------------------------------------------ *)
(* Execution statistics                                                *)
(* ------------------------------------------------------------------ *)

(** Process-wide execution counters, kept dependency-free so the
    executor stays at the bottom of the library stack; the platform's
    observability layer mirrors them into its metrics registry when a
    stats snapshot is taken. *)
type stats = {
  selects_run : int Atomic.t;  (** top-level SELECTs executed *)
  rows_out : int Atomic.t;  (** rows returned by those SELECTs *)
}

(* Atomics: shard backends execute on worker domains concurrently *)
let stats = { selects_run = Atomic.make 0; rows_out = Atomic.make 0 }

let reset_stats () =
  Atomic.set stats.selects_run 0;
  Atomic.set stats.rows_out 0

(* shadow the recursive entry point: count top-level SELECT executions
   and their result cardinality, not nested subquery evaluations *)
let run_select (env : env) (s : A.select) : result =
  let r = run_select env s in
  Atomic.incr stats.selects_run;
  ignore (Atomic.fetch_and_add stats.rows_out (Array.length r.res_rows));
  r
