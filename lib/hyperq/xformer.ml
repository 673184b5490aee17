(** The Xformer: XTRA-to-XTRA transformations (paper Section 3.3).

    Transformations serve three purposes, each represented here by named
    passes that {!optimize} runs in one fixed order:

    - {b Correctness} — [two_valued_logic] rewrites Q's 2VL equalities into
      null-safe [IS NOT DISTINCT FROM] forms, and makes [in] two-valued;
    - {b Performance} — [column_pruning] trims every operator's output to
      the columns actually requested, keeping 500-column wide tables from
      bloating the serialized SQL; [filter_fusion] collapses adjacent
      filters to reduce subquery nesting;
    - {b Transparency} — [enforce_root_order] injects the root ordering
      the Q data model implies; [required_order] then walks the tree top
      down and drops every [Sort] whose order no consumer observes (under
      an order-insensitive aggregate, on an as-of join side, ...). *)

module I = Xtra.Ir

(* ------------------------------------------------------------------ *)
(* Correctness: 2VL -> IS NOT DISTINCT FROM                            *)
(* ------------------------------------------------------------------ *)

(* A null member of an [in] list matches a null, and [not x in L] keeps
   a null [x] that L does not hold: SQL's [IN] is unknown on NULL in
   both places. A positive [in] with no null member keeps its [IN]. *)
let two_valued_scalar (s : I.scalar) : I.scalar =
  let null_lit (l, _) = l = Sqlast.Ast.Null in
  I.map_scalar
    (function
      | I.Eq2 (a, b) -> I.NullSafeEq (a, b)
      | I.Neq2 (a, b) -> I.NullSafeNeq (a, b)
      | I.InList (a, ls) when List.exists null_lit ls -> (
          match List.filter (fun l -> not (null_lit l)) ls with
          | [] -> I.IsNull a
          | ls -> I.Logic (`Or, I.InList (a, ls), I.IsNull a))
      | I.Not (I.InList (a, _) as i) -> I.Logic (`Or, I.Not i, I.IsNull a)
      | s -> s)
    s

let two_valued_logic (r : I.rel) : I.rel = I.rel_map_scalars two_valued_scalar r

(* ------------------------------------------------------------------ *)
(* Performance: filter fusion                                          *)
(* ------------------------------------------------------------------ *)

let rec filter_fusion (r : I.rel) : I.rel =
  match r with
  | I.Filter { input = I.Filter { input; pred = p1 }; pred = p2 } ->
      filter_fusion (I.Filter { input; pred = I.Logic (`And, p1, p2) })
  | I.Filter { input; pred } -> I.Filter { input = filter_fusion input; pred }
  | I.Project { input; exprs } ->
      I.Project { input = filter_fusion input; exprs }
  | I.Join j ->
      I.Join { j with left = filter_fusion j.left; right = filter_fusion j.right }
  | I.AsofJoin a ->
      I.AsofJoin
        { a with left = filter_fusion a.left; right = filter_fusion a.right }
  | I.Aggregate a -> I.Aggregate { a with input = filter_fusion a.input }
  | I.WindowOp w -> I.WindowOp { w with input = filter_fusion w.input }
  | I.Sort s -> I.Sort { s with input = filter_fusion s.input }
  | I.Limit l -> I.Limit { l with input = filter_fusion l.input }
  | I.Union rels -> I.Union (List.map filter_fusion rels)
  | I.Get _ | I.ConstRel _ -> r

(* ------------------------------------------------------------------ *)
(* Performance: column pruning                                         *)
(* ------------------------------------------------------------------ *)

(* Push the set of required column names down the tree, trimming Get nodes
   and Project lists. The required set at the root is every output column
   (the application sees them all); the pay-off is at interior nodes where
   e.g. a 500-column Get feeds a 3-column projection.

   Required names are a set, and a join hands its whole required set to
   both sides instead of splitting it by each side's output columns: a
   name a subtree does not output is inert there (only a Get or Project
   matches names, and every operator in between passes its input's
   columns through), so no [output_cols] is recomputed per join and the
   pass stays linear in schema width. *)
let column_pruning (root : I.rel) : I.rel =
  let module N = Set.Make (String) in
  (* [None] requires every column: the root's whole output, without
     computing it *)
  let mem n = function None -> true | Some s -> N.mem n s in
  let union names = function None -> None | Some s -> Some (N.union s names) in
  let cols_of (s : I.scalar) = N.of_list (I.scalar_cols s) in
  let cols_of_all f l =
    List.fold_left (fun acc x -> N.union acc (cols_of (f x))) N.empty l
  in
  let rec prune (r : I.rel) (required : N.t option) : I.rel =
    match r with
    | I.Get g ->
        let keep = List.filter (fun c -> mem c.I.cr_name required) g.cols in
        (* never prune to the empty column list *)
        let keep = if keep = [] then (match g.cols with c :: _ -> [ c ] | [] -> []) else keep in
        I.Get { g with cols = keep }
    | I.ConstRel _ -> r
    | I.Project { input; exprs } ->
        let exprs' = List.filter (fun (n, _) -> mem n required) exprs in
        let exprs' = if exprs' = [] then exprs else exprs' in
        I.Project
          { input = prune input (Some (cols_of_all snd exprs')); exprs = exprs' }
    | I.Filter { input; pred } ->
        I.Filter { input = prune input (union (cols_of pred) required); pred }
    | I.Join j ->
        let needed = union (N.of_list j.eq_cols) required in
        I.Join { j with left = prune j.left needed; right = prune j.right needed }
    | I.AsofJoin a ->
        let ord = match I.order_col a.left with Some oc -> [ oc ] | None -> [] in
        let needed =
          union (N.of_list ((a.ts_col :: a.eq_cols) @ ord)) required
        in
        I.AsofJoin { a with left = prune a.left needed; right = prune a.right needed }
    | I.Aggregate { input; keys; aggs } ->
        I.Aggregate
          { input = prune input (Some (cols_of_all snd (keys @ aggs))); keys; aggs }
    | I.WindowOp { input; wins } ->
        (* window outputs themselves are not input columns *)
        let needed =
          Option.map
            (fun s -> List.fold_left (fun acc (n, _) -> N.remove n acc) s wins)
            (union (cols_of_all snd wins) required)
        in
        I.WindowOp { input = prune input needed; wins }
    | I.Sort { input; keys } ->
        let needed = union (cols_of_all (fun k -> k.I.sk_expr) keys) required in
        I.Sort { input = prune input needed; keys }
    | I.Limit { input; n } -> I.Limit { input = prune input required; n }
    | I.Union rels -> I.Union (List.map (fun r' -> prune r' required) rels)
  in
  prune root None

(* ------------------------------------------------------------------ *)
(* Transparency: order enforcement and required order                  *)
(* ------------------------------------------------------------------ *)

let order_insensitive_aggs =
  [ "sum"; "avg"; "min"; "max"; "count"; "median"; "stddev"; "stddev_pop";
    "variance"; "var_pop"; "bool_and"; "bool_or" ]

(* [r]'s implicit order column, when it tells the rows apart: ordering
   by it leaves no tie for the incoming row order to break. A base
   table's is its row index; filters, windows, sorts and limits keep a
   subset of the rows, a projection keeps the column when it passes it
   through, and an as-of join keeps one row per left row. A join may
   repeat a left row, and a grouping has no order column. *)
let rec row_id (r : I.rel) : string option =
  match r with
  | I.Get { ordcol; _ } -> ordcol
  | I.Project { input; exprs } -> (
      match row_id input with
      | Some oc when List.mem (oc, I.ColRef oc) exprs -> Some oc
      | _ -> None)
  | I.Filter { input; _ } | I.WindowOp { input; _ } | I.Sort { input; _ }
  | I.Limit { input; _ } ->
      row_id input
  | I.AsofJoin { left; _ } -> row_id left
  | I.ConstRel _ | I.Join _ | I.Aggregate _ | I.Union _ -> None

(* Do sort [keys] order [input] totally? They do when they name a column
   that tells [input]'s rows apart: its row id, or every group key of a
   grouping (the binder's [by] sort). *)
let total_order (keys : I.sort_key list) (input : I.rel) : bool =
  let names =
    List.filter_map
      (fun k -> match k.I.sk_expr with I.ColRef c -> Some c | _ -> None)
      keys
  in
  (match row_id input with Some id -> List.mem id names | None -> false)
  ||
  match input with
  | I.Aggregate { keys = gk; _ } ->
      List.for_all (fun (n, _) -> List.mem n names) gk
  | _ -> false

(* Does one of [scalars], evaluated over [input], observe [input]'s row
   order? An aggregate does unless it is order-insensitive; a window does
   unless it is an order-insensitive aggregate over whole partitions or
   orders its rows by [input]'s row id. The row id is derived only for an
   ordered window, so a wide projection costs one visit per scalar. *)
let reads_order (input : I.rel) (scalars : I.scalar list) : bool =
  let id = lazy (row_id input) in
  let found = ref false in
  let visit s =
    (match s with
    | I.AggFun { fn; _ } when not (List.mem fn order_insensitive_aggs) ->
        found := true
    | I.WinFun { fn; order = []; frame = None; _ }
      when List.mem fn order_insensitive_aggs ->
        ()
    | I.WinFun { order = _ :: _ as order; _ } -> (
        match Lazy.force id with
        | Some id when List.mem_assoc (I.ColRef id) order -> ()
        | _ -> found := true)
    | I.WinFun _ -> found := true
    | _ -> ());
    s
  in
  List.iter (fun s -> ignore (I.map_scalar visit s)) scalars;
  !found

(* The required-order pass (paper Section 3.3, Transparency): walk the
   tree top down carrying whether the consumer can observe the row order
   of the relation at hand, and drop every [Sort] no consumer observes.
   The root's order is the Q result's, so the walk starts observed; each
   operator states what it needs from its inputs:
   - [Sort] needs no input order when its keys order the input totally;
     otherwise the input order breaks its ties;
   - [Limit] always needs it (a take keeps the first rows);
   - [Filter], [Project] and [WindowOp] pass their consumer's need
     through, and add one when a scalar of theirs reads the order
     ([reads_order]);
   - [Aggregate] needs it when an aggregate reads the order, or when its
     own group order is observed;
   - [Join] and [Union] pass the need to every input;
   - [AsofJoin] passes it to its left side. Its right side needs no
     order when it has a distinct order column: the lowering's window
     orders each left row's matches by [r.ts DESC, r.<ord> DESC], which
     is total. A side with no order column is numbered by
     [row_number() OVER ()], which reads its order, so it keeps it. *)
let required_order (root : I.rel) : I.rel =
  let rec go (observed : bool) (r : I.rel) : I.rel =
    match r with
    | I.Get _ | I.ConstRel _ -> r
    | I.Sort { input; keys } ->
        if observed then
          I.Sort { input = go (not (total_order keys input)) input; keys }
        else go false input
    | I.Limit l -> I.Limit { l with input = go true l.input }
    | I.Filter { input; pred } ->
        let need = observed || reads_order input [ pred ] in
        I.Filter { input = go need input; pred }
    | I.Project { input; exprs } ->
        let need = observed || reads_order input (List.map snd exprs) in
        I.Project { input = go need input; exprs }
    | I.WindowOp { input; wins } ->
        let need = observed || reads_order input (List.map snd wins) in
        I.WindowOp { input = go need input; wins }
    | I.Aggregate { input; keys; aggs } ->
        let need =
          (observed && keys <> [])
          || reads_order input (List.map snd (keys @ aggs))
        in
        I.Aggregate { input = go need input; keys; aggs }
    | I.Join j ->
        I.Join { j with left = go observed j.left; right = go observed j.right }
    | I.AsofJoin a ->
        let side_needs side = row_id side = None in
        I.AsofJoin
          {
            a with
            left = go (observed || side_needs a.left) a.left;
            right = go (side_needs a.right) a.right;
          }
    | I.Union rels -> I.Union (List.map (go observed) rels)
  in
  go true root

(* Inject the final ORDER BY that realises Q's ordered-list semantics: if
   the root is not already sorted and an implicit order column flows to the
   output, sort by it. Scalar results need no order. *)
let enforce_root_order (r : I.rel) : I.rel =
  (* an explicit user ordering (possibly under a take/limit) wins: xdesc
     followed by 3# must stay in the user's order *)
  let rec already_ordered = function
    | I.Sort _ -> true
    | I.Limit { input; _ } -> already_ordered input
    | _ -> false
  in
  match r with
  | _ when already_ordered r -> r
  | _ when I.is_scalar r -> r
  | _ -> (
      match I.order_col r with
      | Some oc ->
          I.Sort
            { input = r; keys = [ { I.sk_expr = I.ColRef oc; sk_dir = `Asc } ] }
      | None -> r)

(* ------------------------------------------------------------------ *)
(* Pass driver                                                         *)
(* ------------------------------------------------------------------ *)

(** Run every transformation, in order. Order elision runs after
    enforcement, whose root sort states the result order. *)
let optimize (r : I.rel) : I.rel =
  r |> two_valued_logic |> filter_fusion |> enforce_root_order
  |> required_order |> column_pruning
