(* The row-at-a-time SELECT interpreter pgdb served queries with before
   its vectorized executor planned every shape: hashed joins over
   materialized rows, grouping by hashed keys, windows
   computed per partition. Joins, grouping and partitions class keys
   with Exec.gkey_of, and its sorts order them with Exec.compare_key, as
   Vexec does; its algorithms are its own (List.stable_sort, Array.sort
   on the position). No library or binary links it; it is the reference
   test_vexec's differentials hold Vexec to. [run] answers a SELECT
   against a Db session's temp tables and base tables. *)

open Pgdb
open Exec
module A = Sqlast.Ast

type rowset = { bindings : binding list; rows : Value.t array array }

(** Table resolution is a callback so the executor stays independent of the
    database facade (sessions, temp tables). [collect] turns on
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

let emit (env : env) (n : Opstats.node) = env.plan <- Some n

let take_plan (env : env) : Opstats.node option =
  let p = env.plan in
  env.plan <- None;
  p

(* window caches: (window node, per-row values) — populated before
   projection when the select list contains window functions *)
type eval_ctx = {
  bindings : binding list;
  mutable windows : (A.expr * Value.t array) list;
}

let rec eval_expr (ctx : eval_ctx) (row : Value.t array) (idx : int)
    (e : A.expr) : Value.t =
  match e with
  | A.Lit l -> Value.of_lit l
  | A.Col (q, c) -> row.(find_binding ctx.bindings q c)
  | A.Star -> Errors.syntax_error "stray * in expression"
  | A.Bin (op, a, b) ->
      let va = eval_expr ctx row idx a in
      let vb = eval_expr ctx row idx b in
      binop op va vb
  | A.Un (op, a) -> unop op (eval_expr ctx row idx a)
  | A.IsNull a -> Value.Bool (Value.is_null (eval_expr ctx row idx a))
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
      widening ctx.bindings e (go branches))
  | A.Cast (a, ty) -> Value.cast ty (eval_expr ctx row idx a)
  | A.Fun (f, args) ->
      widening ctx.bindings e
        (scalar_fun f (List.length args) (List.map (eval_expr ctx row idx) args))
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
      widening ctx.bindings e
        (scalar_fun f (List.length args)
           (List.map (eval_agg_expr ctx group_rows) args))
  | A.IsNull a when expr_has_agg e ->
      Value.Bool (Value.is_null (eval_agg_expr ctx group_rows a))
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
      widening ctx.bindings e (go branches))
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

(* ------------------------------------------------------------------ *)
(* Key classes                                                         *)
(* ------------------------------------------------------------------ *)

(* [xs] split into classes whose keys [key] map alike under gkey_of, the
   one key equivalence of GROUP BY, window partitions and hash joins:
   classes in first-encounter order, members in order *)
let classes (key : 'a -> Value.t list) (xs : 'a list) : 'a list list =
  let tbl : (gkey list, 'a list ref) Hashtbl.t = Hashtbl.create 64 in
  let acc = ref [] in
  List.iter
    (fun x ->
      let k = List.map gkey_of (key x) in
      match Hashtbl.find_opt tbl k with
      | Some l -> l := x :: !l
      | None ->
          let l = ref [ x ] in
          Hashtbl.add tbl k l;
          acc := l :: !acc)
    xs;
  List.rev_map (fun l -> List.rev !l) !acc

(* Rows' sort keys, one list per row, checked before they are sorted:
   PostgreSQL rejects a sort key of text against other types whatever
   the rows, so a key whose values mix them raises 42804 even where no
   comparison would meet such a pair *)
let check_orderable (keys : Value.t list list) : unit =
  let text = function Value.Str _ -> true | _ -> false in
  let other = function Value.Str _ | Value.Null -> false | _ -> true in
  match keys with
  | [] -> ()
  | first :: _ ->
      List.iteri
        (fun i _ ->
          let col = List.map (fun k -> List.nth k i) keys in
          if List.exists text col && List.exists other col then
            text_against_number ())
        first

(* ------------------------------------------------------------------ *)
(* Window functions                                                    *)
(* ------------------------------------------------------------------ *)

let compute_window (ctx : eval_ctx) (rows : Value.t array array)
    (w : A.expr) : Value.t array =
  match w with
  | A.Window { win_fn; win_args; partition; order; frame } ->
      let fn = String.lowercase_ascii win_fn in
      (match (fn, win_args) with
      | "row_number", [] | ("lag" | "lead"), [ _ ] | "count", ([] | [ A.Star ])
        ->
          ()
      | f, [ _ ] when List.mem f aggregates -> ()
      | f, args -> no_function f (List.length args));
      let n = Array.length rows in
      let out = Array.make n Value.Null in
      let parts =
        classes
          (fun i -> List.map (fun e -> eval_expr ctx rows.(i) i e) partition)
          (List.init n Fun.id)
      in
      List.iter
        (fun indices ->
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
                    let c = compare_key a b in
                    let c = match d with A.Asc -> c | A.Desc -> -c in
                    if c <> 0 then c else go r1 r2 rd
                | _ -> Stdlib.compare i1 i2
              in
              go k1 k2 order
            in
            check_orderable (Array.to_list (Array.map snd keyed));
            Array.sort cmp keyed;
            Array.iteri (fun pos (i, _) -> sorted.(pos) <- i) keyed
          end;
          let m = Array.length sorted in
          (* an aggregate's frame: ROWS from k back or the partition's
             start to the current row; PG's default with ORDER BY is the
             partition's rows up to the current one, without it the
             whole partition *)
          let bounds pos =
            match frame with
            | None -> if order = [] then (0, m - 1) else (0, pos)
            | Some A.UnboundedPreceding -> (0, pos)
            | Some (A.Preceding k) -> (Stdlib.max 0 (pos - k), pos)
          in
          let arg_at i =
            match win_args with
            | [] -> Value.Null
            | a :: _ -> eval_expr ctx rows.(i) i a
          in
          match (fn, win_args) with
          | "row_number", _ ->
              Array.iteri
                (fun pos i -> out.(i) <- Value.Int (Int64.of_int (pos + 1)))
                sorted
          | ("lag" | "lead"), _ ->
              Array.iteri
                (fun pos i ->
                  let src = if fn = "lag" then pos - 1 else pos + 1 in
                  out.(i) <-
                    (if src >= 0 && src < m then arg_at sorted.(src)
                     else Value.Null))
                sorted
          | "count", ([] | [ A.Star ]) ->
              Array.iteri
                (fun pos i ->
                  let lo, hi = bounds pos in
                  out.(i) <- Value.Int (Int64.of_int (hi - lo + 1)))
                sorted
          | _ when order = [] && frame = None && m > 0 ->
              (* every row's frame is the whole partition: one value *)
              let vals = ref [] in
              for k = m - 1 downto 0 do
                vals := arg_at sorted.(k) :: !vals
              done;
              let v = apply_agg fn false !vals in
              Array.iter (fun i -> out.(i) <- v) sorted
          | _ ->
              Array.iteri
                (fun pos i ->
                  let lo, hi = bounds pos in
                  let vals = ref [] in
                  for k = hi downto lo do
                    vals := arg_at sorted.(k) :: !vals
                  done;
                  out.(i) <- apply_agg fn false !vals)
                sorted)
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
        let n = res.res_nrows in
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
            (fun (n, ty) -> { b_qual = Some alias; b_name = n; b_type = ty })
            res.res_cols;
        rows = Stored.result_rows res;
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
              (List.map Stored.result_rows (first :: List.map fst rest))
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
                (fun (n, ty) -> { b_qual = Some alias; b_name = n; b_type = ty })
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
(* Join evaluation: hash join on the ON's equality conjuncts, the   *)
(* rest tested per key match (no keys: one bucket of every row)     *)
(* ---------------------------------------------------------------- *)

and eval_join (env : env) lnode rnode (l : rowset) (r : rowset) jkind
    (on : A.expr) : rowset =
  let t0 = if env.collect then now_ns () else 0L in
  let bindings = l.bindings @ r.bindings in
  let ctx = { bindings; windows = [] } in
  let equi, residual = join_keys l.bindings r.bindings on in
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
  (* hash the right side on the equality columns *)
  let hashable rrow =
    (* plain = never matches NULL keys *)
    List.for_all
      (fun (_, ri, null_safe) -> null_safe || not (Value.is_null rrow.(ri)))
      equi
  in
  let rkey rrow = List.map (fun (_, ri, _) -> gkey_of rrow.(ri)) equi in
  let lkey lrow = List.map (fun (li, _, _) -> gkey_of lrow.(li)) equi in
  let table : (gkey list, Value.t array list ref) Hashtbl.t =
    Hashtbl.create 64
  in
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
          (fun (li, _, null_safe) -> null_safe || not (Value.is_null lrow.(li)))
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
    l.rows;
  let rows = Array.of_list (List.rev !out) in
  if env.collect then begin
    let kind = match jkind with `Inner -> "inner" | `Left -> "left" in
    let est_of node rs =
      match node with Some n -> n.Opstats.est_rows | None -> Array.length rs
    in
    let children = List.filter_map Fun.id [ lnode; rnode ] in
    (* estimated as max(inputs) (FK-ish) *)
    emit env
      (Opstats.make ~op:"hash_join" ~detail:kind
         ~est_rows:(Stdlib.max (est_of lnode l.rows) (est_of rnode r.rows))
         ~rows_in:(Array.length l.rows + Array.length r.rows)
         ~rows_out:(Array.length rows)
         ~self_ns:(Int64.sub (now_ns ()) t0) ~children)
  end;
  { bindings; rows }

(* ------------------------------------------------------------------ *)
(* SELECT driver                                                       *)
(* ------------------------------------------------------------------ *)

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
    s.group_by <> [] || List.exists (fun p -> expr_has_agg p.A.p_expr) projs
  in
  let out_names = List.mapi proj_name projs in
  let output_rows, sort_keys =
    if has_agg then begin
      (* group rows: the scalar aggregate is one group, even of no rows *)
      let groups =
        if s.group_by = [] then [ rows ]
        else
          classes
            (fun row -> List.map (fun e -> eval_expr ctx row 0 e) s.group_by)
            (Array.to_list rows)
          |> List.map Array.of_list
      in
      let out =
        List.map
          (fun rws ->
            Array.of_list
              (List.map (fun p -> eval_agg_expr ctx rws p.A.p_expr) projs))
          groups
      in
      let keys =
        List.map
          (fun rws ->
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
  let pairs = List.combine output_rows sort_keys in
  (* ORDER BY *)
  let pairs =
    if s.order_by = [] then pairs
    else begin
      check_orderable (List.map snd pairs);
      List.stable_sort
        (fun (_, k1) (_, k2) ->
          let rec go ks1 ks2 dirs =
            match (ks1, ks2, dirs) with
            | [], [], _ -> 0
            | a :: r1, b :: r2, (_, d) :: rd ->
                let c = compare_key a b in
                let c = match d with A.Asc -> c | A.Desc -> -c in
                if c <> 0 then c else go r1 r2 rd
            | _ -> 0
          in
          go k1 k2 s.order_by)
        pairs
    end
  in
  (if c && s.order_by <> [] then
     let n = List.length pairs in
     push ~op:"sort"
       ~detail:(Printf.sprintf "%d keys" (List.length s.order_by))
       ~est_rows:(cur_est ()) ~rows_in:n ~rows_out:n);
  (* LIMIT *)
  let n_pre_limit = if c then List.length pairs else 0 in
  let pairs =
    match s.limit with
    | Some n -> List.filteri (fun i _ -> i < n) pairs
    | None -> pairs
  in
  (match s.limit with
  | Some n when c ->
      push ~op:"limit"
        ~detail:(Printf.sprintf "limit %d" n)
        ~est_rows:(Stdlib.min n (cur_est ()))
        ~rows_in:n_pre_limit ~rows_out:(List.length pairs)
  | _ -> ());
  let types = List.map (fun p -> expr_type input.bindings p.A.p_expr) projs in
  let out_rows = Array.of_list (List.map fst pairs) in
  if c then env.plan <- !cur;
  {
    res_cols = List.combine out_names types;
    res_nrows = Array.length out_rows;
    res_columns =
      Array.of_list
        (List.mapi
           (fun j _ -> Batch.column_of_values (Array.map (fun r -> r.(j)) out_rows))
           types);
  }

(* a session's relations: temp tables, then base tables *)
let resolve (sess : Db.session) (name : string) : rowset =
  let lname = String.lowercase_ascii name in
  if lname = Db.catalog_table_name then Db.refresh_catalog sess.Db.db;
  let of_table (tbl : Storage.table) =
    {
      bindings =
        List.map
          (fun (c : Catalog.Schema.column) ->
            {
              b_qual = None;
              b_name = c.Catalog.Schema.col_name;
              b_type = c.Catalog.Schema.col_type;
            })
          tbl.Storage.def.Catalog.Schema.tbl_columns;
      rows = Stored.rows tbl;
    }
  in
  match Hashtbl.find_opt sess.Db.temps lname with
  | Some tbl -> of_table tbl
  | None -> (
      match Hashtbl.find_opt sess.Db.db.Db.tables lname with
      | Some tbl -> of_table tbl
      | None -> Errors.undefined_table "relation %s does not exist" name)

let run (sess : Db.session) (sel : A.select) : result =
  run_select (env_of_resolve (resolve sess)) sel

(* [sql] as a comparable outcome (Stored.outcome) *)
let outcome (sess : Db.session) (sql : string) =
  Stored.outcome (fun () ->
      match Pgdb.Sql_parser.parse sql with
      | A.Select sel -> run sess sel
      | _ -> failwith ("not a SELECT: " ^ sql))
