(** XTRA — the eXTended Relational Algebra (paper Section 3.2).

    XTRA is Hyper-Q's internal query representation: general enough to
    capture Q's ordered-list semantics, extensible enough to make SQL
    generation "a systematic and principled operation". Binding produces
    XTRA trees, the Xformer rewrites them, and the serializer turns them
    into {!Sqlast.Ast} statements.

    Notable departures from vanilla relational algebra, straight from the
    paper:
    - every relational operator declares an implicit *order column*
      (Section 3.3, Transparency); which operators observe their input's
      order is the Xformer's required-order pass;
    - scalar equality comes in a Q-flavoured 2VL form ([Eq2]) that a
      correctness transformation must rewrite into [IS NOT DISTINCT FROM]
      before serialization (Section 3.3, Correctness);
    - an as-of join operator captures Q's [aj] directly; serialization
      lowers it to a left outer join + window function (Section 3.2.2). *)

module Ty = Catalog.Sqltype

type colref = { cr_name : string; cr_type : Ty.t }

(* ------------------------------------------------------------------ *)
(* Scalar expressions                                                  *)
(* ------------------------------------------------------------------ *)

type scalar =
  | Const of Sqlast.Ast.lit * Ty.t
  | ColRef of string
  | Eq2 of scalar * scalar
      (** Q two-valued equality: nulls compare equal. MUST be rewritten by
          the 2VL transformation before serialization. *)
  | Neq2 of scalar * scalar
  | NullSafeEq of scalar * scalar  (** serializes as IS NOT DISTINCT FROM *)
  | NullSafeNeq of scalar * scalar
  | Cmp of [ `Lt | `Le | `Gt | `Ge ] * scalar * scalar
  | Arith of [ `Add | `Sub | `Mul | `Div | `Mod ] * scalar * scalar
  | Logic of [ `And | `Or ] * scalar * scalar
  | Not of scalar
  | IsNull of scalar
  | InList of scalar * (Sqlast.Ast.lit * Ty.t) list
  | Within of scalar * scalar * scalar
  | LikePat of scalar * string
  | Case of (scalar * scalar) list * scalar option
  | Cast of scalar * Ty.t
  | ScalarFun of string * scalar list
  | AggFun of { fn : string; distinct : bool; args : scalar list }
  | WinFun of {
      fn : string;
      args : scalar list;
      partition : scalar list;
      order : (scalar * [ `Asc | `Desc ]) list;
      frame : Sqlast.Ast.frame option;
    }

(* ------------------------------------------------------------------ *)
(* Relational operators                                                *)
(* ------------------------------------------------------------------ *)

type sort_key = { sk_expr : scalar; sk_dir : [ `Asc | `Desc ] }

type rel =
  | Get of {
      table : string;
      cols : colref list;
      ordcol : string option;  (** the implicit Q order column, if mapped *)
    }
  | ConstRel of { cols : colref list; rows : Sqlast.Ast.lit list list }
  | Project of { input : rel; exprs : (string * scalar) list }
  | Filter of { input : rel; pred : scalar }
  | Join of {
      kind : [ `Inner | `Left ];
      left : rel;
      right : rel;
      eq_cols : string list;
          (** equi-join on same-named columns of both sides (null-safe,
              per Q's 2VL key matching) *)
    }
  | AsofJoin of {
      left : rel;
      right : rel;
      eq_cols : string list;
      ts_col : string;
      keep_right_time : bool;
    }
  | Aggregate of {
      input : rel;
      keys : (string * scalar) list;
      aggs : (string * scalar) list;  (** names to aggregate expressions *)
    }
  | WindowOp of { input : rel; wins : (string * scalar) list }
      (** extends the input with computed window columns *)
  | Sort of { input : rel; keys : sort_key list }
  | Limit of { input : rel; n : int }
  | Union of rel list
      (** UNION ALL concatenation; all inputs share the first input's
          column list (Q's [uj] after null-padding by the binder) *)

(* ------------------------------------------------------------------ *)
(* Derived properties (paper Section 3.2.2)                            *)
(* ------------------------------------------------------------------ *)

exception Bind_error of string

let bind_error fmt = Format.kasprintf (fun s -> raise (Bind_error s)) fmt

(** The right-side columns a join adds to its left side's: every column
    not named as a join key, not [drop]ped and not already on the left
    (the left side's same-named column wins). Shared by {!output_cols}
    and the serializer's join lowering so both agree on the layout.
    The left side's names are a hashed set (cf. "Design of an
    intermediate representation for query languages": column sets are
    sets): the wide tables put thousands of names on each side, and a
    list scan per right-side column made translation quadratic in
    schema width. *)
let join_extras ?(drop = fun (_ : string) -> false) ~(eq_cols : string list)
    (lcols : colref list) (rcols : colref list) : colref list =
  let lnames = Hashtbl.create (2 * List.length lcols + 1) in
  List.iter (fun c -> Hashtbl.replace lnames c.cr_name ()) lcols;
  List.filter
    (fun c ->
      (not (List.mem c.cr_name eq_cols))
      && (not (drop c.cr_name))
      && not (Hashtbl.mem lnames c.cr_name))
    rcols

(** Derive the scalar type of an expression given input columns. *)
let rec scalar_type (cols : colref list) (s : scalar) : Ty.t =
  let col name =
    match List.find_opt (fun c -> c.cr_name = name) cols with
    | Some c -> c.cr_type
    | None -> bind_error "unknown column %s in scalar expression" name
  in
  match s with
  | Const (_, ty) -> ty
  | ColRef name -> col name
  | Eq2 _ | Neq2 _ | NullSafeEq _ | NullSafeNeq _ | Cmp _ | Logic _ | Not _
  | IsNull _ | InList _ | Within _ | LikePat _ ->
      Ty.TBool
  | Arith (`Div, _, _) -> Ty.TDouble
  | Arith (_, a, b) -> (
      match (scalar_type cols a, scalar_type cols b) with
      | Ty.TDouble, _ | _, Ty.TDouble -> Ty.TDouble
      | Ty.TDate, Ty.TDate -> Ty.TBigint
      | Ty.TDate, _ | _, Ty.TDate -> Ty.TDate
      | Ty.TTime, Ty.TTime -> Ty.TBigint
      | Ty.TTime, _ | _, Ty.TTime -> Ty.TTime
      | Ty.TTimestamp, Ty.TTimestamp -> Ty.TBigint
      | Ty.TTimestamp, _ | _, Ty.TTimestamp -> Ty.TTimestamp
      | _ -> Ty.TBigint)
  | Case ((_, r) :: _, _) -> scalar_type cols r
  | Case ([], Some e) -> scalar_type cols e
  | Case ([], None) -> Ty.TText
  | Cast (_, ty) -> ty
  | ScalarFun ("sign", _) -> Ty.TBigint
  | ScalarFun (("sqrt" | "exp" | "ln"), _) -> Ty.TDouble
  | ScalarFun (_, a :: _) -> scalar_type cols a
  | ScalarFun (_, []) -> Ty.TText
  | AggFun { fn; args; _ } | WinFun { fn; args; _ } -> (
      match (fn, args) with
      | ("count" | "row_number"), _ -> Ty.TBigint
      | ("avg" | "stddev_pop" | "var_pop" | "median"), _ -> Ty.TDouble
      | _, a :: _ -> scalar_type cols a
      | _, [] -> Ty.TBigint)

(** Output columns of a relational expression, in order. One visit per
    node; joins test names against a hashed set ({!join_extras}). *)
let rec output_cols (r : rel) : colref list =
  match r with
  | Get { cols; _ } -> cols
  | ConstRel { cols; _ } -> cols
  | Project { input; exprs } ->
      let in_cols = output_cols input in
      List.map
        (fun (name, s) -> { cr_name = name; cr_type = scalar_type in_cols s })
        exprs
  | Filter { input; _ } -> output_cols input
  | Join { left; right; eq_cols; _ } ->
      let lcols = output_cols left in
      lcols @ join_extras ~eq_cols lcols (output_cols right)
  | AsofJoin { left; right; eq_cols; ts_col; keep_right_time } ->
      let lcols = output_cols left in
      lcols
      @ join_extras ~eq_cols
          ~drop:(fun n -> n = ts_col && not keep_right_time)
          lcols (output_cols right)
  | Aggregate { input; keys; aggs } ->
      let in_cols = output_cols input in
      List.map
        (fun (name, s) -> { cr_name = name; cr_type = scalar_type in_cols s })
        (keys @ aggs)
  | WindowOp { input; wins } ->
      let in_cols = output_cols input in
      in_cols
      @ List.map
          (fun (name, s) ->
            { cr_name = name; cr_type = scalar_type in_cols s })
          wins
  | Sort { input; _ } -> output_cols input
  | Limit { input; _ } -> output_cols input
  | Union rels -> ( match rels with r :: _ -> output_cols r | [] -> [])

(** The implicit order column flowing through the operator, if any
    (Section 3.3: each XTRA operator can declare an implicit order
    column). *)
let rec order_col (r : rel) : string option =
  match r with
  | Get { ordcol; _ } -> ordcol
  | ConstRel _ -> None
  | Project { input; exprs } -> (
      match order_col input with
      | Some oc when List.exists (fun (n, s) -> n = oc && s = ColRef oc) exprs
        ->
          Some oc
      | _ -> None)
  | Filter { input; _ } -> order_col input
  | Join { left; _ } -> order_col left
  | AsofJoin { left; _ } -> order_col left
  | Aggregate _ -> None
  | WindowOp { input; _ } -> order_col input
  | Sort { input; _ } -> order_col input
  | Limit { input; _ } -> order_col input
  | Union _ -> None

(** Does the relation produce at most one row (scalar aggregate)? Such a
    root needs no order (the Xformer's root-order enforcement). *)
let rec is_scalar (r : rel) : bool =
  match r with
  | Aggregate { keys = []; _ } -> true
  | Project { input; _ } | Filter { input; _ } | Sort { input; _ } ->
      is_scalar input
  | Limit { n = 1; _ } -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Scalar traversal helpers (used by transformations)                  *)
(* ------------------------------------------------------------------ *)

(** Bottom-up scalar rewrite. *)
let rec map_scalar (f : scalar -> scalar) (s : scalar) : scalar =
  let r = map_scalar f in
  let s' =
    match s with
    | Const _ | ColRef _ -> s
    | Eq2 (a, b) -> Eq2 (r a, r b)
    | Neq2 (a, b) -> Neq2 (r a, r b)
    | NullSafeEq (a, b) -> NullSafeEq (r a, r b)
    | NullSafeNeq (a, b) -> NullSafeNeq (r a, r b)
    | Cmp (op, a, b) -> Cmp (op, r a, r b)
    | Arith (op, a, b) -> Arith (op, r a, r b)
    | Logic (op, a, b) -> Logic (op, r a, r b)
    | Not a -> Not (r a)
    | IsNull a -> IsNull (r a)
    | InList (a, ls) -> InList (r a, ls)
    | Within (a, lo, hi) -> Within (r a, r lo, r hi)
    | LikePat (a, p) -> LikePat (r a, p)
    | Case (bs, e) ->
        Case (List.map (fun (c, v) -> (r c, r v)) bs, Option.map r e)
    | Cast (a, ty) -> Cast (r a, ty)
    | ScalarFun (fn, args) -> ScalarFun (fn, List.map r args)
    | AggFun a -> AggFun { a with args = List.map r a.args }
    | WinFun w ->
        WinFun
          {
            w with
            args = List.map r w.args;
            partition = List.map r w.partition;
            order = List.map (fun (e, d) -> (r e, d)) w.order;
          }
  in
  f s'

(** Whether [s] holds an aggregate or a window function: a value that
    spans rows. *)
let spans_rows (s : scalar) : bool =
  let found = ref false in
  ignore
    (map_scalar
       (fun s ->
         (match s with AggFun _ | WinFun _ -> found := true | _ -> ());
         s)
       s);
  !found

(** Column names referenced by a scalar. *)
let rec scalar_cols (s : scalar) : string list =
  match s with
  | ColRef c -> [ c ]
  | Const _ -> []
  | Eq2 (a, b) | Neq2 (a, b) | NullSafeEq (a, b) | NullSafeNeq (a, b)
  | Cmp (_, a, b) | Arith (_, a, b) | Logic (_, a, b) ->
      scalar_cols a @ scalar_cols b
  | Not a | IsNull a | Cast (a, _) | LikePat (a, _) -> scalar_cols a
  | InList (a, _) -> scalar_cols a
  | Within (a, lo, hi) -> scalar_cols a @ scalar_cols lo @ scalar_cols hi
  | Case (bs, e) ->
      List.concat_map (fun (c, v) -> scalar_cols c @ scalar_cols v) bs
      @ (match e with Some e -> scalar_cols e | None -> [])
  | ScalarFun (_, args) -> List.concat_map scalar_cols args
  | AggFun { args; _ } -> List.concat_map scalar_cols args
  | WinFun { args; partition; order; _ } ->
      List.concat_map scalar_cols args
      @ List.concat_map scalar_cols partition
      @ List.concat_map (fun (e, _) -> scalar_cols e) order

let rec rel_map_scalars (f : scalar -> scalar) (r : rel) : rel =
  let rm = rel_map_scalars f in
  match r with
  | Get _ | ConstRel _ -> r
  | Project { input; exprs } ->
      Project
        { input = rm input; exprs = List.map (fun (n, s) -> (n, f s)) exprs }
  | Filter { input; pred } -> Filter { input = rm input; pred = f pred }
  | Join j -> Join { j with left = rm j.left; right = rm j.right }
  | AsofJoin a -> AsofJoin { a with left = rm a.left; right = rm a.right }
  | Aggregate { input; keys; aggs } ->
      Aggregate
        {
          input = rm input;
          keys = List.map (fun (n, s) -> (n, f s)) keys;
          aggs = List.map (fun (n, s) -> (n, f s)) aggs;
        }
  | WindowOp { input; wins } ->
      WindowOp
        { input = rm input; wins = List.map (fun (n, s) -> (n, f s)) wins }
  | Sort { input; keys } ->
      Sort
        {
          input = rm input;
          keys = List.map (fun k -> { k with sk_expr = f k.sk_expr }) keys;
        }
  | Limit { input; n } -> Limit { input = rm input; n }
  | Union rels -> Union (List.map rm rels)

(* ------------------------------------------------------------------ *)
(* Debug printing                                                      *)
(* ------------------------------------------------------------------ *)

let rec rel_to_string ?(indent = 0) (r : rel) : string =
  let pad = String.make indent ' ' in
  let child c = rel_to_string ~indent:(indent + 2) c in
  match r with
  | Get { table; cols; _ } ->
      Printf.sprintf "%sxtra_get(%s) [%d cols]" pad table (List.length cols)
  | ConstRel { rows; _ } ->
      Printf.sprintf "%sxtra_const_rel [%d rows]" pad (List.length rows)
  | Project { input; exprs } ->
      Printf.sprintf "%sxtra_project(%s)\n%s" pad
        (String.concat ", " (List.map fst exprs))
        (child input)
  | Filter { input; _ } -> Printf.sprintf "%sxtra_select\n%s" pad (child input)
  | Join { kind; left; right; _ } ->
      Printf.sprintf "%sxtra_join(%s)\n%s\n%s" pad
        (match kind with `Inner -> "inner" | `Left -> "left")
        (child left) (child right)
  | AsofJoin { left; right; eq_cols; ts_col; _ } ->
      Printf.sprintf "%sxtra_asof_join(%s; %s)\n%s\n%s" pad
        (String.concat "," eq_cols) ts_col (child left) (child right)
  | Aggregate { input; keys; aggs } ->
      Printf.sprintf "%sxtra_agg(by: %s; aggs: %s)\n%s" pad
        (String.concat "," (List.map fst keys))
        (String.concat "," (List.map fst aggs))
        (child input)
  | WindowOp { input; wins } ->
      Printf.sprintf "%sxtra_window(%s)\n%s" pad
        (String.concat "," (List.map fst wins))
        (child input)
  | Sort { input; keys } ->
      Printf.sprintf "%sxtra_sort(%d keys)\n%s" pad (List.length keys)
        (child input)
  | Limit { input; n } -> Printf.sprintf "%sxtra_limit(%d)\n%s" pad n (child input)
  | Union rels ->
      Printf.sprintf "%sxtra_union_all [%d inputs]\n%s" pad (List.length rels)
        (String.concat "\n" (List.map child rels))
