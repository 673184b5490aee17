(** Serialization of XTRA expressions into PG-compatible SQL
    ({!Sqlast.Ast} statements).

    The serializer flattens operators into a single SELECT where it can
    (filter over scan, projection over filter, aggregate over scan, ...)
    and falls back to nested subqueries otherwise — the paper notes that
    analytical queries "generate XTRA expressions resulting in multi-level
    subqueries", which is why serialization is a measurable stage.

    The as-of join lowers to the pattern of Section 3.2.2: a left outer
    join with a range condition, a ROW_NUMBER window picking the most
    recent match per left row, and a final ordering. *)

module I = Xtra.Ir
module A = Sqlast.Ast

exception Serialize_error of string

let error fmt = Format.kasprintf (fun s -> raise (Serialize_error s)) fmt

type state = { mutable alias_counter : int }

let fresh_alias st prefix =
  st.alias_counter <- st.alias_counter + 1;
  Printf.sprintf "%s%d" prefix st.alias_counter

(* ------------------------------------------------------------------ *)
(* Scalars                                                             *)
(* ------------------------------------------------------------------ *)

let rec sql_of_scalar (st : state) (s : I.scalar) : A.expr =
  let r = sql_of_scalar st in
  match s with
  | I.Const (l, _) -> (
      match l with
      | A.Str _ -> (
          (* temporal constants carry their type via a cast *)
          match s with
          | I.Const (lit, ty)
            when ty = Catalog.Sqltype.TDate || ty = Catalog.Sqltype.TTime
                 || ty = Catalog.Sqltype.TTimestamp ->
              A.Cast (A.Lit lit, ty)
          | _ -> A.Lit l)
      | _ -> A.Lit l)
  | I.ColRef c -> A.Col (None, c)
  | I.Eq2 _ | I.Neq2 _ ->
      error
        "2VL equality survived to serialization — the two_valued_logic \
         transformation must run first"
  | I.NullSafeEq (a, b) -> A.Bin (A.IsNotDistinctFrom, r a, r b)
  | I.NullSafeNeq (a, b) -> A.Bin (A.IsDistinctFrom, r a, r b)
  | I.Cmp (`Lt, a, b) -> A.Bin (A.Lt, r a, r b)
  | I.Cmp (`Le, a, b) -> A.Bin (A.Le, r a, r b)
  | I.Cmp (`Gt, a, b) -> A.Bin (A.Gt, r a, r b)
  | I.Cmp (`Ge, a, b) -> A.Bin (A.Ge, r a, r b)
  | I.Arith (`Add, a, b) -> A.Bin (A.Add, r a, r b)
  | I.Arith (`Sub, a, b) -> A.Bin (A.Sub, r a, r b)
  | I.Arith (`Mul, a, b) -> A.Bin (A.Mul, r a, r b)
  | I.Arith (`Div, a, b) -> A.Bin (A.Div, r a, r b)
  | I.Arith (`Mod, a, b) -> A.Bin (A.Mod, r a, r b)
  | I.Logic (`And, a, b) -> A.Bin (A.And, r a, r b)
  | I.Logic (`Or, a, b) -> A.Bin (A.Or, r a, r b)
  | I.Not a -> A.Un (A.Not, r a)
  | I.IsNull a -> A.IsNull (r a)
  | I.InList (a, ls) -> A.In (r a, List.map (fun (l, _) -> A.Lit l) ls)
  | I.Within (a, lo, hi) -> A.Between (r a, r lo, r hi)
  | I.LikePat (a, p) -> A.Like (r a, A.Lit (A.Str p))
  | I.Case (branches, else_) ->
      A.Case
        ( List.map (fun (c, v) -> (r c, r v)) branches,
          Option.map r else_ )
  | I.Cast (a, ty) -> A.Cast (r a, ty)
  | I.ScalarFun (fn, args) -> A.Fun (fn, List.map r args)
  | I.AggFun { fn = "count"; args = []; _ } ->
      A.Agg { agg_name = "count"; distinct = false; args = [ A.Star ] }
  | I.AggFun { fn; distinct; args } ->
      A.Agg { agg_name = fn; distinct; args = List.map r args }
  | I.WinFun { fn; args; partition; order; frame } ->
      A.Window
        {
          win_fn = fn;
          win_args = List.map r args;
          partition = List.map r partition;
          order =
            List.map
              (fun (e, d) -> (r e, match d with `Asc -> A.Asc | `Desc -> A.Desc))
              order;
          frame;
        }

(* ------------------------------------------------------------------ *)
(* Flattening predicates                                               *)
(* ------------------------------------------------------------------ *)

let is_passthrough_projs (s : A.select) =
  List.for_all
    (fun p ->
      match p.A.p_expr with
      | A.Col (_, c) -> (
          match p.A.p_alias with None -> true | Some a -> a = c)
      | _ -> false)
    s.A.projs

(* a WHERE can be added to, or the projections replaced in, a select
   that neither groups nor limits and passes its columns through *)
let can_extend (s : A.select) =
  s.A.group_by = [] && s.A.limit = None && is_passthrough_projs s

(* ------------------------------------------------------------------ *)
(* Relations                                                           *)
(* ------------------------------------------------------------------ *)

let rec select_of_rel (st : state) (r : I.rel) : A.select =
  match r with
  | I.Get { table; cols; _ } ->
      {
        A.empty_select with
        projs = List.map (fun c -> A.proj (A.col c.I.cr_name)) cols;
        from = Some (A.TableRef (table, None));
      }
  | I.ConstRel { cols = []; _ } -> error "a literal table needs a column"
  | I.ConstRel { cols; rows } ->
      (* a Q literal table inlines as a derived table: one FROM-less
         SELECT per row, each cell cast to its column's type; an empty
         table is one all-NULL row under LIMIT 0 *)
      let row lits =
        {
          A.empty_select with
          projs =
            List.map2
              (fun c l ->
                A.proj ~alias:c.I.cr_name (A.Cast (A.Lit l, c.I.cr_type)))
              cols lits;
        }
      in
      let parts =
        match rows with
        | [] ->
            [ { (row (List.map (fun _ -> A.Null) cols)) with limit = Some 0 } ]
        | rows -> List.map row rows
      in
      {
        A.empty_select with
        projs = List.map (fun c -> A.proj (A.col c.I.cr_name)) cols;
        from = Some (A.UnionRef (parts, fresh_alias st "hq_c"));
      }
  | I.Filter { input; pred } ->
      let s = select_of_rel st input in
      let p = sql_of_scalar st pred in
      if can_extend s then
        {
          s with
          A.where =
            (match s.A.where with
            | None -> Some p
            | Some w -> Some (A.Bin (A.And, w, p)));
        }
      else
        let sub = wrap st s in
        { sub with A.where = Some p }
  | I.Project { input; exprs } ->
      let s = select_of_rel st input in
      let projs =
        List.map
          (fun (n, sc) -> { A.p_expr = sql_of_scalar st sc; p_alias = Some n })
          exprs
      in
      if can_extend s then { s with A.projs }
      else
        let sub = wrap st s in
        { sub with A.projs }
  | I.Aggregate { input; keys; aggs } ->
      let s = select_of_rel st input in
      let projs =
        List.map
          (fun (n, sc) -> { A.p_expr = sql_of_scalar st sc; p_alias = Some n })
          (keys @ aggs)
      in
      let group_by = List.map (fun (_, sc) -> sql_of_scalar st sc) keys in
      if can_extend s && s.A.order_by = [] then
        { s with A.projs; group_by }
      else
        let sub = wrap st s in
        { sub with A.projs; group_by }
  | I.WindowOp { input; wins } ->
      let s = select_of_rel st input in
      let in_cols = I.output_cols input in
      let base_projs =
        List.map (fun c -> A.proj ~alias:c.I.cr_name (A.col c.I.cr_name)) in_cols
      in
      let win_projs =
        List.map
          (fun (n, sc) -> { A.p_expr = sql_of_scalar st sc; p_alias = Some n })
          wins
      in
      if can_extend s then { s with A.projs = base_projs @ win_projs }
      else
        let sub = wrap st s in
        { sub with A.projs = base_projs @ win_projs }
  | I.Sort { input; keys } ->
      let s = select_of_rel st input in
      (* Q's total order puts nulls first ascending (nulls are the smallest
         values); PG defaults to NULLS LAST. The standard-SQL-portable
         translation orders on (key IS NULL) before the key itself. *)
      let order_by =
        List.concat_map
          (fun k ->
            let e = sql_of_scalar st k.I.sk_expr in
            match k.I.sk_dir with
            | `Asc -> [ (A.IsNull e, A.Desc); (e, A.Asc) ]
            | `Desc -> [ (A.IsNull e, A.Asc); (e, A.Desc) ])
          keys
      in
      if s.A.limit = None then { s with A.order_by }
      else
        let sub = wrap st s in
        { sub with A.order_by }
  | I.Limit { input; n } ->
      let s = select_of_rel st input in
      if s.A.limit = None then { s with A.limit = Some n }
      else
        let sub = wrap st s in
        { sub with A.limit = Some n }
  | I.Union rels ->
      let alias = fresh_alias st "hq_u" in
      let parts = List.map (select_of_rel st) rels in
      (* each branch needs explicit projections for positional alignment *)
      let explicit r sel =
        if sel.A.projs = [] then
          {
            sel with
            A.projs =
              List.map
                (fun c -> A.proj ~alias:c.I.cr_name (A.col c.I.cr_name))
                (I.output_cols r);
          }
        else sel
      in
      let parts = List.map2 explicit rels parts in
      {
        A.empty_select with
        projs =
          (match rels with
          | r :: _ ->
              List.map
                (fun c -> A.proj ~alias:c.I.cr_name (A.col c.I.cr_name))
                (I.output_cols r)
          | [] -> []);
        from = Some (A.UnionRef (parts, alias));
      }
  | I.Join { kind; left; right; eq_cols; extra_pred } ->
      serialize_join st ~kind ~left ~right ~eq_cols ~extra_pred
  | I.AsofJoin { left; right; eq_cols; ts_col; keep_right_time } ->
      serialize_asof st ~left ~right ~eq_cols ~ts_col ~keep_right_time

(* wrap a select as a subquery and start a fresh outer select over it *)
and wrap (st : state) (s : A.select) : A.select =
  let alias = fresh_alias st "hq_q" in
  {
    A.empty_select with
    projs = [];
    from = Some (A.SubqueryRef (s, alias));
  }

(* a from-item for one side of a join: plain table scans stay table refs *)
and join_side (st : state) (r : I.rel) (alias : string) : A.from_item =
  match r with
  | I.Get { table; _ } -> A.TableRef (table, Some alias)
  | _ -> A.SubqueryRef (select_of_rel st r, alias)

(* a from-item for one side of an as-of join: a side that only reads base
   columns under their own names (a scan, or a projection of one with no
   WHERE, ORDER BY, LIMIT or window) is the table itself. The lowering
   qualifies every reference to the side and wraps the join in a select
   of named columns, so the table's other columns stay out of scope. *)
and asof_side (st : state) (r : I.rel) (alias : string) : A.from_item =
  match select_of_rel st r with
  | {
      A.from = Some (A.TableRef (table, None));
      where = None;
      group_by = [];
      order_by = [];
      limit = None;
      _;
    } as s
    when is_passthrough_projs s ->
      A.TableRef (table, Some alias)
  | s -> A.SubqueryRef (s, alias)

and serialize_join st ~kind ~left ~right ~eq_cols ~extra_pred : A.select =
  let la = fresh_alias st "l" and ra = fresh_alias st "r" in
  let litem = join_side st left la and ritem = join_side st right ra in
  let on_eq =
    List.map
      (fun c -> A.Bin (A.IsNotDistinctFrom, A.qcol la c, A.qcol ra c))
      eq_cols
  in
  let on_extra =
    match extra_pred with
    | Some p -> [ sql_of_scalar st p ]
    | None -> []
  in
  let on =
    match on_eq @ on_extra with
    | [] -> None
    | e :: rest -> Some (List.fold_left (fun a b -> A.Bin (A.And, a, b)) e rest)
  in
  let jkind =
    match (kind, on) with
    | `Cross, None -> `Cross
    | `Cross, Some _ -> `Inner
    | (`Inner | `Left), _ -> (kind :> [ `Inner | `Left | `Cross ])
  in
  let lcols = I.output_cols left in
  let rextras = I.join_extras ~eq_cols lcols (I.output_cols right) in
  let projs =
    List.map (fun c -> A.proj ~alias:c.I.cr_name (A.qcol la c.I.cr_name)) lcols
    @ List.map
        (fun c -> A.proj ~alias:c.I.cr_name (A.qcol ra c.I.cr_name))
        rextras
  in
  {
    A.empty_select with
    projs;
    from = Some (A.JoinItem { jkind; left = litem; right = ritem; on });
  }

(* one side of an as-of join with a unique row identity: its implicit
   order column if present, else a row number over the side's output
   rows in order, computed in a wrapping SELECT so that it follows the
   side's own ORDER BY and works over any side (a grouped one too) *)
and identified_side st (r : I.rel) (alias : string) :
    A.from_item * I.colref list * string =
  let cols = I.output_cols r in
  match I.order_col r with
  | Some oc -> (asof_side st r alias, cols, oc)
  | None ->
      let id_col = "hq_rowid" in
      let n = fresh_alias st "hq_n" in
      let inner = select_of_rel st r in
      let proj qual c = A.proj ~alias:c.I.cr_name (qual c.I.cr_name) in
      let inner =
        if inner.A.projs = [] then
          { inner with A.projs = List.map (proj A.col) cols }
        else inner
      in
      let numbered =
        {
          A.empty_select with
          projs =
            List.map (proj (A.qcol n)) cols
            @ [
                {
                  A.p_expr =
                    A.Window
                      {
                        win_fn = "row_number";
                        win_args = [];
                        partition = [];
                        order = [];
                        frame = None;
                      };
                  p_alias = Some id_col;
                };
              ];
          from = Some (A.SubqueryRef (inner, n));
        }
      in
      ( A.SubqueryRef (numbered, alias),
        cols @ [ { I.cr_name = id_col; cr_type = Catalog.Sqltype.TBigint } ],
        id_col )

(* the as-of join lowering (paper Section 3.2.2): left outer join on the
   equality columns plus a range condition on the as-of column; a
   ROW_NUMBER window partitioned by the left row picks the latest match,
   and among quotes at that time the last in the right side's order, as
   kdb's aj binary-searches for the last row at or before the time *)
and serialize_asof st ~left ~right ~eq_cols ~ts_col ~keep_right_time :
    A.select =
  let la = fresh_alias st "l" and ra = fresh_alias st "r" in
  let left_sel, left_cols, left_id = identified_side st left la in
  let ritem, _, right_id = identified_side st right ra in
  let on =
    List.fold_left
      (fun acc c ->
        let eq = A.Bin (A.IsNotDistinctFrom, A.qcol la c, A.qcol ra c) in
        match acc with None -> Some eq | Some a -> Some (A.Bin (A.And, a, eq)))
      None eq_cols
  in
  let range = A.Bin (A.Le, A.qcol ra ts_col, A.qcol la ts_col) in
  let on =
    match on with
    | None -> Some range
    | Some a -> Some (A.Bin (A.And, a, range))
  in
  let rcols = I.output_cols right in
  let rextras =
    I.join_extras ~eq_cols
      ~drop:(fun n -> n = ts_col && not keep_right_time)
      left_cols rcols
  in
  let inner_projs =
    List.map
      (fun c -> A.proj ~alias:c.I.cr_name (A.qcol la c.I.cr_name))
      left_cols
    @ List.map
        (fun c ->
          let alias =
            if keep_right_time && c.I.cr_name = ts_col then ts_col
            else c.I.cr_name
          in
          A.proj ~alias (A.qcol ra c.I.cr_name))
        (if keep_right_time then
           rextras
           @ (rcols
             |> List.filter (fun c ->
                    c.I.cr_name = ts_col
                    && List.exists (fun l -> l.I.cr_name = ts_col) left_cols))
         else rextras)
    @ [
        {
          A.p_expr =
            A.Window
              {
                win_fn = "row_number";
                win_args = [];
                partition = [ A.qcol la left_id ];
                order =
                  [ (A.qcol ra ts_col, A.Desc); (A.qcol ra right_id, A.Desc) ];
                frame = None;
              };
          p_alias = Some "hq_rn";
        };
      ]
  in
  let inner =
    {
      A.empty_select with
      projs = inner_projs;
      from =
        Some (A.JoinItem { jkind = `Left; left = left_sel; right = ritem; on });
    }
  in
  let out_alias = fresh_alias st "hq_aj" in
  let final_cols =
    (left_cols |> List.filter (fun c -> c.I.cr_name <> left_id || I.order_col left = Some left_id))
    @ rextras
  in
  {
    A.empty_select with
    projs =
      List.map (fun c -> A.proj ~alias:c.I.cr_name (A.col c.I.cr_name)) final_cols;
    from = Some (A.SubqueryRef (inner, out_alias));
    where = Some (A.Bin (A.Eq, A.col "hq_rn", A.Lit (A.Int 1L)));
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Serialize an XTRA tree to a SELECT statement. *)
let serialize (r : I.rel) : A.select =
  let st = { alias_counter = 0 } in
  let s = select_of_rel st r in
  (* a wrapped select with empty projections means select-all *)
  if s.A.projs = [] then
    {
      s with
      A.projs =
        List.map
          (fun c -> A.proj ~alias:c.I.cr_name (A.col c.I.cr_name))
          (I.output_cols r);
    }
  else s

let serialize_to_sql (r : I.rel) : string = A.select_str (serialize r)

(** Serialize one scalar for a FROM-less SELECT. *)
let sql_of_scalar (s : I.scalar) : A.expr = sql_of_scalar { alias_counter = 0 } s
