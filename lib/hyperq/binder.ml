(** The binder: semantic analysis of Q ASTs into XTRA expressions
    (paper Section 3.2.2).

    Binding is recursive and bottom-up: for each Q operator the binder
    first binds the inputs, derives and checks their properties, and then
    maps the operator to its XTRA representation. Variable references
    resolve through the scope hierarchy ({!Scopes}) and, at the bottom,
    through the metadata interface ({!Mdi}).

    Constructs with no relational translation (e.g. explicit loops over
    data, list restructuring) raise {!Unsupported} with a clean message —
    the paper's limitation category 1/2 behaviour. *)

module I = Xtra.Ir
module A = Sqlast.Ast
module Ast = Qlang.Ast
module Ty = Catalog.Sqltype
module QA = Qvalue.Atom

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt
let bind_error = I.bind_error

(* ------------------------------------------------------------------ *)
(* Bound values                                                        *)
(* ------------------------------------------------------------------ *)

(** Shape of a relational result, used to pivot a backend result into
    the Q value the application expects. *)
type rshape =
  | RTable
  | RKeyed of string list  (** keyed table: key column names *)
  | RVector of string  (** exec of a single column *)
  | RDict of string list * string list  (** exec by: keys, values *)
  | RAtom  (** scalar result (1x1) *)

type bound_rel = { rel : I.rel; keys : string list; shape : rshape }

type bval =
  | BRel of bound_rel
  | BScalar of I.scalar
  | BList of (A.lit * Ty.t) list
  | BFun of Ast.lambda
  | BPrim of string

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

type ctx = {
  mdi : Mdi.t;
  scopes : Scopes.t;
  mutable cols : I.colref list;  (** q-sql column scope, [] outside *)
  mutable ordcol : string option;  (** order column of the current table *)
  mutable counter : int;
  materialize : ctx -> string -> bound_rel -> Scopes.vardef;
      (** engine callback implementing eager materialization of variable
          assignments met during binding (paper Section 4.3) *)
}

let fresh ctx prefix =
  ctx.counter <- ctx.counter + 1;
  Printf.sprintf "%s_%d" prefix ctx.counter

let with_cols ctx cols ordcol f =
  let saved_cols = ctx.cols and saved_ord = ctx.ordcol in
  ctx.cols <- cols;
  ctx.ordcol <- ordcol;
  let restore () =
    ctx.cols <- saved_cols;
    ctx.ordcol <- saved_ord
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let lit_of_atom = Typemap.lit_of_atom

let as_scalar = function
  | BScalar s -> s
  | BList _ -> bind_error "expected a scalar, found a list"
  | BRel _ -> bind_error "expected a scalar, found a table expression"
  | BFun _ | BPrim _ -> bind_error "expected a scalar, found a function"

let as_rel = function
  | BRel r -> r
  | BScalar _ -> bind_error "expected a table expression, found a scalar"
  | BList _ -> bind_error "expected a table expression, found a list"
  | BFun _ | BPrim _ -> bind_error "expected a table, found a function"

let as_sym_list (v : bval) : string list =
  let of_lit = function
    | A.Str s, _ -> s
    | _ -> bind_error "expected a symbol list"
  in
  match v with
  | BList ls -> List.map of_lit ls
  | BScalar (I.Const (A.Str s, _)) -> [ s ]
  | _ -> bind_error "expected a symbol list"

let scalar_is_bool ctx s =
  match I.scalar_type ctx.cols s with Ty.TBool -> true | _ -> false

(* the 0 of [arg]'s type: Q sums no float to a float 0 *)
let zero_of ctx (arg : I.scalar) : I.scalar =
  if I.scalar_type ctx.cols arg = Ty.TDouble then
    I.Const (A.Float 0.0, Ty.TDouble)
  else I.Const (A.Int 0L, Ty.TBigint)

(* an aggregate's arguments over only the rows [guard] keeps: CASE
   gives the others NULL, which the aggregate skips; a row count counts
   a 1 for each kept row *)
let guarded_args (guard : I.scalar option) fn (args : I.scalar list) =
  match (guard, fn, args) with
  | None, _, _ -> args
  | Some g, "count", [] -> [ I.Case ([ (g, I.Const (A.Int 1L, Ty.TBigint)) ], None) ]
  | Some g, _, args -> List.map (fun a -> I.Case ([ (g, a) ], None)) args

(* every aggregate in [s] as a window over every row: Q compares or
   broadcasts an aggregate against each row *)
let windows_over_rows (s : I.scalar) : I.scalar =
  I.map_scalar
    (function
      | I.AggFun { fn; args; _ } ->
          I.WinFun { fn; args; partition = []; order = []; frame = None }
      | s -> s)
    s

(* Q's [&] and [|] of a long and a float are floats: the long
   arguments are cast, so every row of the result is one type *)
let common_numeric ctx (args : I.scalar list) : I.scalar list =
  if List.exists (fun a -> I.scalar_type ctx.cols a = Ty.TDouble) args then
    List.map
      (fun a ->
        if I.scalar_type ctx.cols a = Ty.TBigint then I.Cast (a, Ty.TDouble)
        else a)
      args
  else args

let rel_of_backend_table (bt : Scopes.backend_table) : bound_rel =
  {
    rel =
      I.Get
        {
          table = bt.Scopes.bt_name;
          cols = bt.Scopes.bt_cols;
          ordcol = bt.Scopes.bt_ordcol;
        };
    keys = bt.Scopes.bt_keys;
    shape =
      (if bt.Scopes.bt_keys = [] then RTable else RKeyed bt.Scopes.bt_keys);
  }

let rel_of_table_def (def : Catalog.Schema.table_def) : bound_rel =
  let cols =
    List.map
      (fun (c : Catalog.Schema.column) ->
        {
          I.cr_name = c.Catalog.Schema.col_name;
          cr_type = c.Catalog.Schema.col_type;
        })
      def.Catalog.Schema.tbl_columns
  in
  {
    rel =
      I.Get
        {
          table = def.Catalog.Schema.tbl_name;
          cols;
          ordcol = def.Catalog.Schema.tbl_order_col;
        };
    keys = def.Catalog.Schema.tbl_keys;
    shape = RTable;
  }

(** Resolve a name through scopes, then the MDI (paper Figure 3). *)
let resolve_name (ctx : ctx) (name : string) : bval option =
  match Scopes.lookup ctx.scopes name with
  | Some (Scopes.VScalar (l, ty)) -> Some (BScalar (I.Const (l, ty)))
  | Some (Scopes.VList ls) -> Some (BList ls)
  | Some (Scopes.VRel (rel, keys)) ->
      Some
        (BRel
           {
             rel;
             keys;
             shape = (if keys = [] then RTable else RKeyed keys);
           })
  | Some (Scopes.VBackendTable bt) -> Some (BRel (rel_of_backend_table bt))
  | Some (Scopes.VFunction f) -> Some (BFun f)
  | None -> (
      match Mdi.lookup_table ctx.mdi name with
      | Some def -> Some (BRel (rel_of_table_def def))
      | None -> None)

(* names the binder recognises as primitives when used as values *)
let known_prims =
  [
    "count"; "sum"; "avg"; "min"; "max"; "med"; "dev"; "var"; "first"; "last";
    "distinct"; "neg"; "abs"; "sqrt"; "exp"; "log"; "floor"; "ceiling"; "not";
    "null"; "sums"; "deltas"; "ratios"; "prev"; "next"; "mavg"; "msum";
    "mmax"; "mmin"; "maxs"; "mins"; "prds"; "fills"; "reverse"; "signum";
    "lower"; "upper"; "string"; "cols"; "meta"; "aj"; "aj0"; "lj"; "ij";
    "uj"; "ej"; "xkey"; "xcol"; "xasc"; "xdesc"; "wavg"; "wsum"; "til";
    "enlist"; "key"; "value"; "xbar"; "all"; "any";
  ]

(* ------------------------------------------------------------------ *)
(* Scalar verb mapping                                                 *)
(* ------------------------------------------------------------------ *)

(* aggregates translate to SQL aggregate functions *)
let agg_map =
  [
    ("sum", "sum"); ("avg", "avg"); ("min", "min"); ("max", "max");
    ("count", "count"); ("med", "median"); ("dev", "stddev_pop");
    ("var", "var_pop"); ("first", "first"); ("last", "last");
    ("all", "bool_and"); ("any", "bool_or");
  ]

let scalar_fun_map =
  [
    ("neg", `Neg); ("abs", `Fun "abs"); ("sqrt", `Fun "sqrt");
    ("exp", `Fun "exp"); ("log", `Fun "ln"); ("signum", `Fun "sign");
    ("lower", `Fun "lower"); ("upper", `Fun "upper");
    ("floor", `Floor); ("ceiling", `Ceil); ("not", `Not); ("null", `IsNull);
  ]

let ord_window ctx : (I.scalar * [ `Asc | `Desc ]) list =
  match ctx.ordcol with
  | Some oc -> [ (I.ColRef oc, `Asc) ]
  | None -> []

let running_frame : A.frame option = Some A.UnboundedPreceding

(* Q's [count distinct x] counts a NULL as one more distinct value; SQL's
   COUNT(DISTINCT x) skips NULLs, so add one when x holds any NULL *)
let count_distinct (arg : I.scalar) : I.scalar =
  let count args = I.AggFun { fn = "count"; distinct = false; args } in
  let one_if c =
    I.Case
      ( [ (c, I.Const (A.Int 1L, Ty.TBigint)) ],
        Some (I.Const (A.Int 0L, Ty.TBigint)) )
  in
  I.Arith
    ( `Add,
      I.AggFun { fn = "count"; distinct = true; args = [ arg ] },
      one_if (I.Cmp (`Gt, count [], count [ arg ])) )

(** Monadic primitive applied to a scalar (column) expression in column
    context. *)
let bind_monadic_on_scalar ctx (name : string) (arg : I.scalar) : I.scalar =
  match List.assoc_opt name agg_map with
  | Some "sum" ->
      (* Q's sum of an empty list is 0; SQL's SUM is NULL *)
      I.ScalarFun
        ( "coalesce",
          [
            I.AggFun { fn = "sum"; distinct = false; args = [ arg ] };
            zero_of ctx arg;
          ] )
  | Some "count" ->
      (* Q's count counts every item; SQL's COUNT(x) skips NULLs *)
      I.AggFun { fn = "count"; distinct = false; args = [] }
  | Some fn -> I.AggFun { fn; distinct = false; args = [ arg ] }
  | None -> (
      match List.assoc_opt name scalar_fun_map with
      | Some `Neg -> I.Arith (`Sub, I.Const (A.Int 0L, Ty.TBigint), arg)
      | Some (`Fun f) -> I.ScalarFun (f, [ arg ])
      | Some `Floor -> I.Cast (I.ScalarFun ("floor", [ arg ]), Ty.TBigint)
      | Some `Ceil -> I.Cast (I.ScalarFun ("ceil", [ arg ]), Ty.TBigint)
      | Some `Not -> I.Not arg
      | Some `IsNull -> I.IsNull arg
      | None -> (
          match name with
          | "distinct" -> count_distinct arg
          | "sums" ->
              I.WinFun
                {
                  fn = "sum";
                  args = [ arg ];
                  partition = [];
                  order = ord_window ctx;
                  frame = running_frame;
                }
          | "maxs" ->
              I.WinFun
                { fn = "max"; args = [ arg ]; partition = [];
                  order = ord_window ctx; frame = running_frame }
          | "mins" ->
              I.WinFun
                { fn = "min"; args = [ arg ]; partition = [];
                  order = ord_window ctx; frame = running_frame }
          | "prev" ->
              I.WinFun
                { fn = "lag"; args = [ arg ]; partition = [];
                  order = ord_window ctx; frame = None }
          | "next" ->
              I.WinFun
                { fn = "lead"; args = [ arg ]; partition = [];
                  order = ord_window ctx; frame = None }
          | "deltas" ->
              (* first element passes through: coalesce(x - lag(x), x) *)
              let lag =
                I.WinFun
                  { fn = "lag"; args = [ arg ]; partition = [];
                    order = ord_window ctx; frame = None }
              in
              I.ScalarFun
                ("coalesce", [ I.Arith (`Sub, arg, lag); arg ])
          | "ratios" ->
              let lag =
                I.WinFun
                  { fn = "lag"; args = [ arg ]; partition = [];
                    order = ord_window ctx; frame = None }
              in
              I.ScalarFun
                ( "coalesce",
                  [
                    I.Arith (`Div, I.Cast (arg, Ty.TDouble), lag);
                    I.Cast (arg, Ty.TDouble);
                  ] )
          | "differ" ->
              (* true where the value differs from its predecessor; the
                 first row is always true *)
              let lag =
                I.WinFun
                  { fn = "lag"; args = [ arg ]; partition = [];
                    order = ord_window ctx; frame = None }
              in
              let rn =
                I.WinFun
                  { fn = "row_number"; args = []; partition = [];
                    order = ord_window ctx; frame = None }
              in
              I.Logic
                ( `Or,
                  I.NullSafeEq (rn, I.Const (A.Int 1L, Ty.TBigint)),
                  I.NullSafeNeq (arg, lag) )
          | "fills" ->
              unsupported
                "fills has no direct SQL translation in this version"
          | "string" ->
              (* a string is a char list per item; SQL text is one char
                 per row here *)
              unsupported "string has no direct SQL translation in this version"
          | _ -> unsupported "monadic %s is not translatable" name))

(* ------------------------------------------------------------------ *)
(* The binder                                                          *)
(* ------------------------------------------------------------------ *)

let rec bind (ctx : ctx) (e : Ast.expr) : bval =
  match e with
  | Ast.Lit (Ast.LAtom a) ->
      let l, ty = lit_of_atom a in
      BScalar (I.Const (l, ty))
  | Ast.Lit (Ast.LVector atoms) -> BList (List.map lit_of_atom atoms)
  | Ast.Lit (Ast.LString s) -> BScalar (I.Const (A.Str s, Ty.TText))
  | Ast.Var name -> (
      (* q-sql columns shadow variables *)
      match List.find_opt (fun c -> c.I.cr_name = name) ctx.cols with
      | Some _ -> BScalar (I.ColRef name)
      | None -> (
          match resolve_name ctx name with
          | Some v -> v
          | None ->
              if List.mem name known_prims then BPrim name
              else bind_error "undefined name %s" name))
  | Ast.Verb v -> BPrim v
  | Ast.App1 (f, x) -> bind_app1 ctx f x
  | Ast.App2 (f, x, y) -> bind_app2 ctx f x y
  | Ast.Apply (f, args) -> bind_apply ctx f args
  | Ast.Cond args -> bind_cond ctx args
  | Ast.Sql sql -> bind_sql ctx sql
  | Ast.Lambda l -> BFun l
  | Ast.ListLit es -> (
      (* a list of scalars is an in-memory list *)
      let vs = List.map (bind ctx) es in
      let all_const =
        List.for_all
          (function BScalar (I.Const _) -> true | _ -> false)
          vs
      in
      if all_const then
        BList
          (List.map
             (function
               | BScalar (I.Const (l, ty)) -> (l, ty)
               | _ -> assert false)
             vs)
      else unsupported "general list expressions are not translatable")
  | Ast.TableLit (keys, cols) -> BRel (bind_table_lit ctx keys cols)
  | Ast.Assign (name, rhs) | Ast.GlobalAssign (name, rhs) ->
      (* assignments inside expressions/functions: eager materialization *)
      let v = bind ctx rhs in
      let def =
        match v with
        | BScalar (I.Const (l, ty)) -> Scopes.VScalar (l, ty)
        | BScalar _ -> unsupported "cannot assign a column expression"
        | BList ls -> Scopes.VList ls
        | BRel r -> ctx.materialize ctx name r
        | BFun l -> Scopes.VFunction l
        | BPrim _ -> unsupported "cannot assign a primitive"
      in
      (match e with
      | Ast.GlobalAssign _ -> Scopes.upsert_global ctx.scopes name def
      | _ -> Scopes.upsert ctx.scopes name def);
      v
  | Ast.Hole ->
      unsupported
        "projections (partial application) are not translatable"
  | Ast.AdverbApp _ -> unsupported "adverbs are not translatable"
  | Ast.Control (kw, _) ->
      unsupported
        "%s-loops require just-in-time compilation to stored procedures \
         (paper Section 5, limitation category 2)"
        kw
  | Ast.Return e -> bind ctx e

(* ---------------------------------------------------------------- *)
(* Monadic application                                               *)
(* ---------------------------------------------------------------- *)

and bind_app1 ctx (f : Ast.expr) (x : Ast.expr) : bval =
  match (f, x) with
  | Ast.Var "count", Ast.App1 (Ast.Var "distinct", inner) -> (
      (* count distinct col -> COUNT(DISTINCT col), plus one for NULL *)
      match bind ctx inner with
      | BScalar s -> BScalar (count_distinct s)
      | v -> bind_app1_value ctx f v)
  | _ ->
  let fx = bind ctx x in
  bind_app1_value ctx f fx

and bind_app1_value ctx (f : Ast.expr) (fx : bval) : bval =
  match (f, fx) with
  (* primitives on table expressions *)
  | Ast.Var "count", BRel r ->
      BRel
        {
          rel =
            I.Aggregate
              {
                input = r.rel;
                keys = [];
                aggs =
                  [ ("count", I.AggFun { fn = "count"; distinct = false; args = [] }) ];
              };
          keys = [];
          shape = RAtom;
        }
  | Ast.Var "reverse", BRel r -> (
      match I.order_col r.rel with
      | Some oc ->
          BRel
            {
              r with
              rel = I.Sort { input = r.rel; keys = [ { I.sk_expr = I.ColRef oc; sk_dir = `Desc } ] };
            }
      | None -> unsupported "reverse on unordered table")
  | Ast.Var "distinct", BRel r ->
      (* serialized with SELECT DISTINCT via aggregate on all columns *)
      let cols = I.output_cols r.rel in
      let keys =
        List.filter_map
          (fun c ->
            if Some c.I.cr_name = I.order_col r.rel then None
            else Some (c.I.cr_name, I.ColRef c.I.cr_name))
          cols
      in
      BRel
        { rel = I.Aggregate { input = r.rel; keys; aggs = [] };
          keys = []; shape = RTable }
  | (Ast.Var "key" | Ast.Var "keys"), BRel r -> (
      match r.keys with
      | [] -> bind_error "key of an unkeyed table"
      | ks ->
          let cols = I.output_cols r.rel in
          let keep = List.filter (fun c -> List.mem c.I.cr_name ks) cols in
          BRel
            {
              rel =
                I.Project
                  {
                    input = r.rel;
                    exprs = List.map (fun c -> (c.I.cr_name, I.ColRef c.I.cr_name)) keep;
                  };
              keys = [];
              shape = RTable;
            })
  | Ast.Var "value", BRel r ->
      let cols = I.output_cols r.rel in
      let keep = List.filter (fun c -> not (List.mem c.I.cr_name r.keys)) cols in
      BRel
        {
          rel =
            I.Project
              {
                input = r.rel;
                exprs = List.map (fun c -> (c.I.cr_name, I.ColRef c.I.cr_name)) keep;
              };
          keys = [];
          shape = RTable;
        }
  (* a constant enlisted is a one-item list *)
  | Ast.Var "enlist", BScalar (I.Const (l, ty)) -> BList [ (l, ty) ]
  (* monadic primitive over a scalar/column *)
  | Ast.Var name, BScalar s -> BScalar (bind_monadic_on_scalar ctx name s)
  | Ast.Var name, BList ls when List.mem_assoc name agg_map ->
      (* aggregate of a literal list: fold it into a constant via SQL's
         aggregate over a VALUES-like const relation is overkill; compute
         the common cases statically *)
      bind_static_agg name ls
  | Ast.Verb v, BScalar s -> (
      match v with
      | "-" -> BScalar (I.Arith (`Sub, I.Const (A.Int 0L, Ty.TBigint), s))
      | "~" -> BScalar (I.Not s)
      | "#" -> BScalar (I.AggFun { fn = "count"; distinct = false; args = [ s ] })
      | _ -> unsupported "monadic %s is not translatable" v)
  | Ast.Lambda l, _ -> bind_lambda_call ctx l [ fx ]
  | Ast.Var name, _ -> (
      match resolve_name ctx name with
      | Some (BFun l) -> bind_lambda_call ctx l [ fx ]
      | _ -> unsupported "cannot apply %s here" name)
  | _ -> unsupported "cannot translate application of %s" (Ast.to_string f)

and bind_static_agg name (ls : (A.lit * Ty.t) list) : bval =
  let nums =
    List.filter_map
      (function
        | A.Int i, _ -> Some (Int64.to_float i)
        | A.Float f, _ -> Some f
        | _ -> None)
      ls
  in
  let const_float f = BScalar (I.Const (A.Float f, Ty.TDouble)) in
  let const_int i = BScalar (I.Const (A.Int (Int64.of_int i), Ty.TBigint)) in
  match name with
  | "count" -> const_int (List.length ls)
  | "sum" -> const_float (List.fold_left ( +. ) 0.0 nums)
  | "avg" ->
      const_float
        (List.fold_left ( +. ) 0.0 nums /. float_of_int (List.length nums))
  | "min" -> const_float (List.fold_left Float.min infinity nums)
  | "max" -> const_float (List.fold_left Float.max neg_infinity nums)
  | _ -> unsupported "aggregate %s on a literal list" name

(* ---------------------------------------------------------------- *)
(* Dyadic application                                                *)
(* ---------------------------------------------------------------- *)

and bind_app2 ctx (f : Ast.expr) (x : Ast.expr) (y : Ast.expr) : bval =
  let verb =
    match f with
    | Ast.Verb v -> v
    | Ast.Var v -> v
    | _ -> unsupported "cannot translate %s as a dyadic verb" (Ast.to_string f)
  in
  match verb with
  (* joins: infix forms *)
  | "lj" -> BRel (bind_lj ctx x y ~inner:false)
  | "ij" -> BRel (bind_lj ctx x y ~inner:true)
  | "uj" ->
      (* union join: column-set union with null padding, concatenation
         order preserved via synthetic (source, per-source order) keys *)
      let lr = as_rel (bind ctx x) in
      let rr = as_rel (bind ctx y) in
      let lcols = I.output_cols lr.rel and rcols = I.output_cols rr.rel in
      let is_ord c =
        Some c.I.cr_name = I.order_col lr.rel
        || Some c.I.cr_name = I.order_col rr.rel
      in
      let union_cols =
        List.filter (fun c -> not (is_ord c)) lcols
        @ List.filter
            (fun c ->
              (not (List.exists (fun l -> l.I.cr_name = c.I.cr_name) lcols))
              && not (is_ord c))
            rcols
      in
      let side idx (r : bound_rel) =
        let own = I.output_cols r.rel in
        let exprs =
          List.map
            (fun c ->
              if List.exists (fun o -> o.I.cr_name = c.I.cr_name) own then
                (c.I.cr_name, I.ColRef c.I.cr_name)
              else
                ( c.I.cr_name,
                  I.Cast (I.Const (A.Null, c.I.cr_type), c.I.cr_type) ))
            union_cols
          @ [
              ("hq_src", I.Const (A.Int (Int64.of_int idx), Ty.TBigint));
              ( "hq_subord",
                match I.order_col r.rel with
                | Some oc -> I.ColRef oc
                | None -> I.Const (A.Int 0L, Ty.TBigint) );
            ]
        in
        I.Project { input = r.rel; exprs }
      in
      let u = I.Union [ side 0 lr; side 1 rr ] in
      let sorted =
        I.Sort
          {
            input = u;
            keys =
              [
                { I.sk_expr = I.ColRef "hq_src"; sk_dir = `Asc };
                { I.sk_expr = I.ColRef "hq_subord"; sk_dir = `Asc };
              ];
          }
      in
      BRel { rel = sorted; keys = []; shape = RTable }
  | "xasc" | "xdesc" ->
      let dir = if verb = "xasc" then `Asc else `Desc in
      let keys = as_sym_list (bind ctx x) in
      let r = as_rel (bind ctx y) in
      BRel
        {
          r with
          rel =
            I.Sort
              {
                input = r.rel;
                keys = List.map (fun k -> { I.sk_expr = I.ColRef k; sk_dir = dir }) keys;
              };
        }
  | "xkey" ->
      let keys = as_sym_list (bind ctx x) in
      let r = as_rel (bind ctx y) in
      BRel { r with keys; shape = RKeyed keys }
  | "xcol" ->
      let names = as_sym_list (bind ctx x) in
      let r = as_rel (bind ctx y) in
      let cols = I.output_cols r.rel in
      let exprs =
        List.mapi
          (fun i c ->
            let name =
              match List.nth_opt names i with Some n -> n | None -> c.I.cr_name
            in
            (name, I.ColRef c.I.cr_name))
          cols
      in
      BRel { r with rel = I.Project { input = r.rel; exprs } }
  | "sublist" -> (
      let xv = bind ctx x in
      let yv = bind ctx y in
      match (xv, yv) with
      | BScalar (I.Const (A.Int n, _)), BRel r when Int64.compare n 0L >= 0 ->
          BRel { r with rel = I.Limit { input = r.rel; n = Int64.to_int n } }
      | _ -> unsupported "sublist translates only with a constant count")
  | "#" -> (
      let xv = bind ctx x in
      let yv = bind ctx y in
      match (xv, yv) with
      | BScalar (I.Const (A.Int n, _)), BRel r when Int64.compare n 0L >= 0 ->
          BRel { r with rel = I.Limit { input = r.rel; n = Int64.to_int n } }
      | (BList _ | BScalar (I.Const (A.Str _, _))), BRel r ->
          (* column subset *)
          let names = as_sym_list xv in
          BRel
            {
              r with
              rel =
                I.Project
                  {
                    input = r.rel;
                    exprs = List.map (fun n -> (n, I.ColRef n)) names;
                  };
            }
      | _ -> unsupported "unsupported take (#) application")
  | "fby" -> (
      (* (aggregate;values) fby group -> window function partitioned by the
         group expression *)
      match x with
      | Ast.ListLit [ fe; xe ] ->
          let fn =
            match fe with
            | Ast.Var n | Ast.Verb n -> (
                match List.assoc_opt n agg_map with
                | Some fn -> fn
                | None -> unsupported "fby aggregate %s" n)
            | _ -> unsupported "fby expects a named aggregate"
          in
          let arg = as_scalar (bind ctx xe) in
          let part = as_scalar (bind ctx y) in
          BScalar
            (I.WinFun
               { fn; args = [ arg ]; partition = [ part ]; order = [];
                 frame = None })
      | _ -> unsupported "fby expects (aggregate;values) on the left")
  | _ -> (
      (* scalar verbs *)
      let bx = bind ctx x in
      let by = bind ctx y in
      match verb with
      | "in" -> (
          match by with
          | BList ls -> BScalar (I.InList (as_scalar bx, ls))
          (* an atom on the right is a one-item list, as in kdb *)
          | BScalar (I.Const (l, ty)) ->
              BScalar (I.InList (as_scalar bx, [ (l, ty) ]))
          | _ -> unsupported "in expects a literal list on the right")
      | "within" -> (
          match by with
          | BList [ (lo, tlo); (hi, thi) ] ->
              BScalar
                (I.Within (as_scalar bx, I.Const (lo, tlo), I.Const (hi, thi)))
          | _ -> unsupported "within expects a 2-element list")
      | "like" -> (
          match by with
          | BScalar (I.Const (A.Str pat, _)) ->
              (* Q glob pattern to SQL LIKE pattern *)
              let sql_pat =
                String.concat ""
                  (List.map
                     (fun c ->
                       match c with
                       | '*' -> "%"
                       | '?' -> "_"
                       | '%' -> "\\%"
                       | c -> String.make 1 c)
                     (List.init (String.length pat) (String.get pat)))
              in
              BScalar (I.LikePat (as_scalar bx, sql_pat))
          | _ -> unsupported "like expects a literal pattern")
      | "mavg" | "msum" | "mmax" | "mmin" -> (
          match bx with
          | BScalar (I.Const (A.Int n, _)) when Int64.compare n 0L < 0 ->
              unsupported "%s expects a window size of at least 0" verb
          | BScalar (I.Const (A.Int 0L, _)) ->
              (* every window is empty: msum's sum is 0 of its type, and
                 the interpreter's [moving] answers the others with long
                 nulls *)
              BScalar
                (if verb = "msum" then zero_of ctx (as_scalar by)
                 else I.Cast (I.Const (A.Null, Ty.TBigint), Ty.TBigint))
          | BScalar (I.Const (A.Int n, _)) ->
              let fn =
                match verb with
                | "mavg" -> "avg"
                | "msum" -> "sum"
                | "mmax" -> "max"
                | _ -> "min"
              in
              let arg = as_scalar by in
              let win =
                I.WinFun
                  {
                    fn;
                    args = [ arg ];
                    partition = [];
                    order = ord_window ctx;
                    frame = Some (A.Preceding (Int64.to_int n - 1));
                  }
              in
              (* a window of nulls sums to 0, as in Q *)
              BScalar
                (if fn = "sum" then
                   I.ScalarFun ("coalesce", [ win; zero_of ctx arg ])
                 else win)
          | _ -> unsupported "%s expects a constant window size" verb)
      | "wavg" ->
          let w = as_scalar bx and v = as_scalar by in
          BScalar
            (I.Arith
               ( `Div,
                 I.AggFun
                   { fn = "sum"; distinct = false;
                     args = [ I.Arith (`Mul, w, v) ] },
                 I.Cast
                   ( I.AggFun { fn = "sum"; distinct = false; args = [ w ] },
                     Ty.TDouble ) ))
      | "wsum" ->
          BScalar
            (I.ScalarFun
               ( "coalesce",
                 [
                   I.AggFun
                     { fn = "sum"; distinct = false;
                       args = [ I.Arith (`Mul, as_scalar bx, as_scalar by) ] };
                   I.Const (A.Int 0L, Ty.TBigint);
                 ] ))
      | "xbar" ->
          let b = as_scalar bx and v = as_scalar by in
          BScalar
            (I.Arith
               ( `Mul,
                 I.Cast
                   ( I.ScalarFun
                       ("floor", [ I.Arith (`Div, I.Cast (v, Ty.TDouble), b) ]),
                     Ty.TBigint ),
                 b ))
      | "!" -> (
          (* n!t keys the first n columns; 0!t removes keys *)
          match (bx, by) with
          | BScalar (I.Const (A.Int 0L, _)), BRel r ->
              BRel { r with keys = []; shape = RTable }
          | BScalar (I.Const (A.Int n, _)), BRel r ->
              let keys =
                I.output_cols r.rel
                |> List.filteri (fun i c ->
                       ignore c;
                       i < Int64.to_int n)
                |> List.map (fun c -> c.I.cr_name)
                |> List.filter (fun c -> c <> "hq_ord")
              in
              BRel { r with keys; shape = RKeyed keys }
          | _ -> unsupported "! translates only as table keying")
      | _ ->
          let sx = as_scalar bx and sy = as_scalar by in
          bind_scalar_verb ctx verb sx sy)

and bind_scalar_verb ctx verb sx sy : bval =
  let s =
    match verb with
    | "+" -> I.Arith (`Add, sx, sy)
    | "-" -> I.Arith (`Sub, sx, sy)
    | "*" -> I.Arith (`Mul, sx, sy)
    | "%" -> I.Arith (`Div, I.Cast (sx, Ty.TDouble), sy)
    | "div" ->
        I.Cast
          ( I.ScalarFun
              ("floor", [ I.Arith (`Div, I.Cast (sx, Ty.TDouble), sy) ]),
            Ty.TBigint )
    | "mod" -> I.Arith (`Mod, sx, sy)
    | "=" -> I.Eq2 (sx, sy)
    | "<>" -> I.Neq2 (sx, sy)
    | "<" -> I.Cmp (`Lt, sx, sy)
    | "<=" -> I.Cmp (`Le, sx, sy)
    | ">" -> I.Cmp (`Gt, sx, sy)
    | ">=" -> I.Cmp (`Ge, sx, sy)
    | "&" ->
        if scalar_is_bool ctx sx then I.Logic (`And, sx, sy)
        else I.ScalarFun ("least", common_numeric ctx [ sx; sy ])
    | "|" ->
        if scalar_is_bool ctx sx then I.Logic (`Or, sx, sy)
        else I.ScalarFun ("greatest", common_numeric ctx [ sx; sy ])
    | "and" -> I.Logic (`And, sx, sy)
    | "or" -> I.Logic (`Or, sx, sy)
    | "^" -> I.ScalarFun ("coalesce", [ sy; sx ])
    | "$" -> (
        match sx with
        | I.Const (A.Str tyname, _) -> (
            let ty =
              match tyname with
              | "boolean" | "b" -> Some Ty.TBool
              | "long" | "int" | "j" | "i" -> Some Ty.TBigint
              | "float" | "f" | "real" -> Some Ty.TDouble
              | "symbol" | "s" -> Some Ty.TVarchar
              | "date" | "d" -> Some Ty.TDate
              | "time" | "t" -> Some Ty.TTime
              | "timestamp" | "p" -> Some Ty.TTimestamp
              | _ -> None
            in
            match ty with
            | Some ty -> I.Cast (sy, ty)
            | None -> unsupported "unknown cast target `%s" tyname)
        | _ -> unsupported "$ expects a symbol cast target")
    | v -> unsupported "dyadic %s is not translatable" v
  in
  BScalar s

(* ---------------------------------------------------------------- *)
(* Bracket application                                               *)
(* ---------------------------------------------------------------- *)

and bind_apply ctx (f : Ast.expr) (args : Ast.expr list) : bval =
  match (f, args) with
  | Ast.Var ("aj" | "aj0"), [ cols; l; r ] ->
      let col_syms = as_sym_list (bind ctx cols) in
      let lr = as_rel (bind ctx l) in
      let rr = as_rel (bind ctx r) in
      let eq_cols, ts_col =
        match List.rev col_syms with
        | ts :: rest -> (List.rev rest, ts)
        | [] -> bind_error "aj needs at least one column"
      in
      BRel
        {
          rel =
            I.AsofJoin
              {
                left = lr.rel;
                right = rr.rel;
                eq_cols;
                ts_col;
                keep_right_time = f = Ast.Var "aj0";
              };
          keys = [];
          shape = RTable;
        }
  | Ast.Var "ej", [ cols; l; r ] ->
      let col_syms = as_sym_list (bind ctx cols) in
      let lr = as_rel (bind ctx l) in
      let rr = as_rel (bind ctx r) in
      BRel
        {
          rel =
            I.Join
              {
                kind = `Inner;
                left = lr.rel;
                right = rr.rel;
                eq_cols = col_syms;
              };
          keys = [];
          shape = RTable;
        }
  | Ast.Var ("lj" | "ij"), [ l; r ] ->
      BRel (bind_lj ctx l r ~inner:(f = Ast.Var "ij"))
  | Ast.Var "xkey", [ ks; t ] ->
      bind_app2 ctx (Ast.Verb "xkey") ks t
  | Ast.Lambda l, _ -> bind_lambda_call ctx l (List.map (bind ctx) args)
  | Ast.Var name, _ -> (
      match resolve_name ctx name with
      | Some (BFun l) -> bind_lambda_call ctx l (List.map (bind ctx) args)
      | Some (BRel _) | Some (BList _) ->
          unsupported "indexing into data is not translatable"
      | _ -> (
          match args with
          | [ x ] -> bind_app1 ctx f x
          | [ x; y ] -> bind_app2 ctx f x y
          | _ -> unsupported "cannot translate call to %s" name))
  | Ast.Verb v, [ x; y ] -> bind_app2 ctx (Ast.Verb v) x y
  | Ast.Verb v, [ x ] -> bind_app1 ctx (Ast.Verb v) x
  | _ -> unsupported "cannot translate application of %s" (Ast.to_string f)

and bind_lj ctx (l : Ast.expr) (r : Ast.expr) ~inner : bound_rel =
  let lr = as_rel (bind ctx l) in
  let rr = as_rel (bind ctx r) in
  let keys =
    match rr.keys with
    | [] -> bind_error "lj/ij: right table must be keyed"
    | ks -> ks
  in
  {
    rel =
      I.Join
        {
          kind = (if inner then `Inner else `Left);
          left = lr.rel;
          right = rr.rel;
          eq_cols = keys;
        };
    keys = lr.keys;
    shape = RTable;
  }

(* ---------------------------------------------------------------- *)
(* Function unrolling (paper Sections 4.3, 5)                        *)
(* ---------------------------------------------------------------- *)

and bind_lambda_call ctx (l : Ast.lambda) (args : bval list) : bval =
  let params =
    match l.Ast.params with
    | [] -> [ "x"; "y"; "z" ]
    | ps -> ps
  in
  if List.length args > List.length params then
    bind_error "too many arguments for function";
  Scopes.push_local ctx.scopes;
  let finish r =
    Scopes.pop_local ctx.scopes;
    r
  in
  (try
     List.iteri
       (fun i arg ->
         let name = List.nth params i in
         let def =
           match arg with
           | BScalar (I.Const (lit, ty)) -> Scopes.VScalar (lit, ty)
           | BList ls -> Scopes.VList ls
           | BRel r -> ctx.materialize ctx name r
           | BFun f -> Scopes.VFunction f
           | BScalar _ -> unsupported "cannot pass column expressions"
           | BPrim _ -> unsupported "cannot pass primitives as arguments"
         in
         Scopes.upsert ctx.scopes name def)
       args
   with e ->
     Scopes.pop_local ctx.scopes;
     raise e);
  (* bind body statements; the value of the Return (or last) statement is
     the function result *)
  let rec go (stmts : Ast.expr list) (last : bval option) : bval =
    match stmts with
    | [] -> (
        match last with
        | Some v -> v
        | None -> unsupported "empty function body")
    | Ast.Return e :: _ -> bind ctx e
    | stmt :: rest ->
        let v = bind ctx stmt in
        go rest (Some v)
  in
  match go l.Ast.body None with
  | v -> finish v
  | exception e ->
      Scopes.pop_local ctx.scopes;
      raise e

(* ---------------------------------------------------------------- *)
(* Conditionals                                                      *)
(* ---------------------------------------------------------------- *)

and bind_cond ctx (args : Ast.expr list) : bval =
  let rec go = function
    | [ fallback ] -> [ (None, as_scalar (bind ctx fallback)) ]
    | c :: t :: rest ->
        (Some (as_scalar (bind ctx c)), as_scalar (bind ctx t)) :: go rest
    | [] -> bind_error "malformed conditional"
  in
  let branches = go args in
  let cases =
    List.filter_map
      (function Some c, v -> Some (c, v) | None, _ -> None)
      branches
  in
  let fallback =
    List.find_map (function None, v -> Some v | _ -> None) branches
  in
  BScalar (I.Case (cases, fallback))

(* ---------------------------------------------------------------- *)
(* Table literals                                                    *)
(* ---------------------------------------------------------------- *)

and bind_table_lit ctx keys cols : bound_rel =
  let all = keys @ cols in
  let bound =
    List.map
      (fun (name, e) ->
        match bind ctx e with
        | BList ls -> (name, ls)
        | BScalar (I.Const (l, ty)) -> (name, [ (l, ty) ])
        | _ -> unsupported "table literals require literal columns")
      all
  in
  let nrows =
    List.fold_left (fun acc (_, ls) -> Stdlib.max acc (List.length ls)) 0 bound
  in
  let colrefs =
    List.map
      (fun (name, ls) ->
        (* an empty general list has no element type: its nulls are
           long nulls, as kdb pads an lj from it *)
        let ty = match ls with (_, ty) :: _ -> ty | [] -> Ty.TBigint in
        { I.cr_name = name; cr_type = ty })
      bound
  in
  let rows =
    List.init nrows (fun i ->
        List.map
          (fun (_, ls) ->
            match List.nth_opt ls i with
            | Some (l, _) -> l
            | None -> (
                (* broadcast single atoms *)
                match ls with [ (l, _) ] -> l | _ -> A.Null))
          bound)
  in
  {
    rel = I.ConstRel { cols = colrefs; rows };
    keys = List.map fst keys;
    shape = (if keys = [] then RTable else RKeyed (List.map fst keys));
  }

(* ---------------------------------------------------------------- *)
(* q-sql binding                                                     *)
(* ---------------------------------------------------------------- *)

and infer_col_name i (e : Ast.expr) : string =
  match e with
  | Ast.Var n -> n
  | Ast.App1 (_, x) -> infer_col_name i x
  | Ast.App2 (_, x, _) -> infer_col_name i x
  | Ast.Apply (_, x :: _) -> infer_col_name i x
  | _ -> Printf.sprintf "x%d" i

(* rewrite window functions out of a filter predicate: SQL does not allow
   window functions in WHERE, so they are computed by a WindowOp first *)
and extract_windows ctx (pred : I.scalar) :
    I.scalar * (string * I.scalar) list =
  let extracted = ref [] in
  let pred' =
    I.map_scalar
      (fun s ->
        match s with
        | I.WinFun _ ->
            let name = fresh ctx "hq_win" in
            extracted := (name, s) :: !extracted;
            I.ColRef name
        | s -> s)
      pred
  in
  (pred', List.rev !extracted)

and bind_sql ctx (sql : Ast.sql) : bval =
  let from_rel =
    match bind ctx sql.Ast.from with
    | BRel r -> r
    | BScalar (I.Const (A.Str name, _)) -> (
        (* `tablename as from target *)
        match resolve_name ctx name with
        | Some (BRel r) -> r
        | _ -> bind_error "undefined table %s" name)
    | _ -> bind_error "FROM target is not a table expression"
  in
  (* q-sql operates on the unkeyed table *)
  let rel0 = from_rel.rel in
  let cols0 = I.output_cols rel0 in
  let ordcol = I.order_col rel0 in
  with_cols ctx cols0 ordcol (fun () ->
      (* where chain: sequential filters become a conjunction (predicates
         are pure, so the rewrite is semantics-preserving) *)
      let rel1 =
        List.fold_left
          (fun rel filter_e ->
            let pred = as_scalar (bind ctx filter_e) in
            (* an aggregate inside a filter compares each row against the
               aggregate of the rows filtered so far (Q semantics): it
               becomes a whole-input window function *)
            let pred, wins = extract_windows ctx (windows_over_rows pred) in
            if wins = [] then I.Filter { input = rel; pred }
            else
              (* compute windows, filter, then drop the helper columns *)
              let with_w = I.WindowOp { input = rel; wins } in
              let filtered = I.Filter { input = with_w; pred } in
              let keep = I.output_cols rel in
              I.Project
                {
                  input = filtered;
                  exprs =
                    List.map (fun c -> (c.I.cr_name, I.ColRef c.I.cr_name)) keep;
                }
          )
          rel0 sql.Ast.filters
      in
      match sql.Ast.op with
      | Ast.Select | Ast.Exec -> bind_select ctx sql rel1 ~ordcol
      | Ast.Update ->
          (* update filters choose which rows change, not which survive.
             An aggregate or a window in one spans the rows the filters
             before it keep: a window partitioned by their guard,
             computed below the filter's use of it *)
          let rel1, pred =
            List.fold_left
              (fun (rel, guard) e ->
                let p =
                  I.map_scalar
                    (function
                      | I.WinFun w ->
                          I.WinFun
                            { w with partition = Option.to_list guard @ w.partition }
                      | s -> s)
                    (windows_over_rows (as_scalar (bind ctx e)))
                in
                let p, wins = extract_windows ctx p in
                ( (if wins = [] then rel else I.WindowOp { input = rel; wins }),
                  Some
                    (match guard with None -> p | Some g -> I.Logic (`And, g, p))
                ))
              (rel0, None) sql.Ast.filters
          in
          BRel (bind_update ctx sql rel1 ~in_cols:cols0 ~pred)
      | Ast.Delete -> BRel (bind_delete ctx sql rel1))

and bind_select ctx (sql : Ast.sql) rel1 ~ordcol : bval =
  let named_cols =
    List.mapi
      (fun i (alias, e) ->
        let name =
          match alias with Some n -> n | None -> infer_col_name i e
        in
        (name, e))
      sql.Ast.cols
  in
  let is_exec = sql.Ast.op = Ast.Exec in
  if sql.Ast.by = [] then begin
    let bound_cols =
      List.map (fun (n, e) -> (n, as_scalar (bind ctx e))) named_cols
    in
    let has_agg =
      List.exists
        (fun (_, s) ->
          match s with I.AggFun _ -> true | I.Arith (_, I.AggFun _, _) -> true | _ -> false)
        bound_cols
      || List.exists (fun (_, s) -> scalar_contains_agg s) bound_cols
    in
    (* a column or window outside every aggregate makes the select
       uniform: kdb broadcasts each aggregate over the rows, a window
       over every row *)
    let uniform (_, s) =
      let rest =
        I.map_scalar
          (function I.AggFun _ -> I.Const (A.Null, Ty.TBool) | s -> s)
          s
      in
      I.scalar_cols rest <> [] || I.spans_rows rest
    in
    let has_agg, bound_cols =
      if has_agg && List.exists uniform bound_cols then
        (false, List.map (fun (n, s) -> (n, windows_over_rows s)) bound_cols)
      else (has_agg, bound_cols)
    in
    if has_agg then begin
      let rel = I.Aggregate { input = rel1; keys = []; aggs = bound_cols } in
      BRel { rel; keys = []; shape = (if is_exec then RAtom else RTable) }
    end
    else
      match bound_cols with
      | [ (_, s) ] when is_exec && I.scalar_cols s = [] && not (I.spans_rows s) ->
          (* an exec of what names no column is its value, whatever the
             rows: kdb's atom, answered without them *)
          BScalar s
      | _ ->
          let exprs =
            if bound_cols = [] then
              List.map
                (fun c -> (c.I.cr_name, I.ColRef c.I.cr_name))
                (I.output_cols rel1)
            else
              (* keep the implicit order column flowing (it is pruned away
                 before the final projection by the Xformer if unused) *)
              (match ordcol with
              | Some oc when not (List.mem_assoc oc bound_cols) ->
                  (oc, I.ColRef oc)
              | _ -> ("", I.ColRef ""))
              :: bound_cols
              |> List.filter (fun (n, _) -> n <> "")
          in
          let rel = I.Project { input = rel1; exprs } in
          (* Q tables are ordered: declare the ordering requirement here; the
             Xformer elides it when the consumer cannot observe it
             (Section 3.3, Transparency) *)
          let rel =
            match I.order_col rel with
            | Some oc ->
                I.Sort
                  { input = rel; keys = [ { I.sk_expr = I.ColRef oc; sk_dir = `Asc } ] }
            | None -> rel
          in
          let shape =
            match bound_cols with
            | [ (n, _) ] when is_exec -> RVector n
            | _ -> RTable
          in
          BRel { rel; keys = []; shape }
  end
  else begin
    let by_cols =
      List.mapi
        (fun i (alias, e) ->
          let name =
            match alias with Some n -> n | None -> infer_col_name i e
          in
          (name, as_scalar (bind ctx e)))
        sql.Ast.by
    in
    let agg_cols =
      if named_cols = [] then
        unsupported "select by without aggregate columns (nested columns)"
      else
        List.map
          (fun (n, e) ->
            let s = as_scalar (bind ctx e) in
            (* a non-aggregate expression under by means 'last' in Q *)
            let s =
              if scalar_contains_agg s then s
              else I.AggFun { fn = "last"; distinct = false; args = [ s ] }
            in
            (n, s))
          named_cols
    in
    let rel = I.Aggregate { input = rel1; keys = by_cols; aggs = agg_cols } in
    (* Q sorts grouped output by the group keys *)
    let rel =
      I.Sort
        {
          input = rel;
          keys =
            List.map
              (fun (n, _) -> { I.sk_expr = I.ColRef n; sk_dir = `Asc })
              by_cols;
        }
    in
    let key_names = List.map fst by_cols in
    let shape =
      if is_exec then RDict (key_names, List.map fst agg_cols)
      else RKeyed key_names
    in
    BRel { rel; keys = key_names; shape }
  end

and scalar_contains_agg (s : I.scalar) : bool =
  let found = ref false in
  ignore
    (I.map_scalar
       (fun s' ->
         (match s' with I.AggFun _ -> found := true | _ -> ());
         s')
       s);
  !found

and bind_update ctx (sql : Ast.sql) rel1 ~in_cols ~pred : bound_rel =
  let guard_new (old : I.scalar option) (s : I.scalar) : I.scalar =
    match pred with
    | None -> s
    | Some p -> I.Case ([ (p, s) ], old)
  in
  let updates =
    List.mapi
      (fun i (alias, e) ->
        let name = match alias with Some n -> n | None -> infer_col_name i e in
        (name, as_scalar (bind ctx e)))
      sql.Ast.cols
  in
  (* an aggregate or a window takes the grouped path, over one group *)
  if
    sql.Ast.by = [] && not (List.exists (fun (_, s) -> I.spans_rows s) updates)
  then begin
    let exprs =
      List.map
        (fun c ->
          match List.assoc_opt c.I.cr_name updates with
          | Some s ->
              (c.I.cr_name, guard_new (Some (I.ColRef c.I.cr_name)) s)
          | None -> (c.I.cr_name, I.ColRef c.I.cr_name))
        in_cols
      @ (List.filter
           (fun (n, _) -> not (List.exists (fun c -> c.I.cr_name = n) in_cols))
           updates
        |> List.map (fun (n, s) -> (n, guard_new None s)))
    in
    { rel = I.Project { input = rel1; exprs }; keys = []; shape = RTable }
  end
  else begin
    (* grouped update: aggregates become window functions partitioned by
       the group expressions, and the windows of the uniform verbs (sums,
       prev, deltas, mavg, ...) take the same partition before their own.
       A where-guard restricts the aggregated rows (via CASE inside the
       aggregate, which skips NULLs), the rows a uniform verb runs over
       (its value joins the partition, so a row meets only the rows the
       guard keeps) and the rows that receive the new value *)
    let partition =
      List.map (fun (_, e) -> as_scalar (bind ctx e)) sql.Ast.by
    in
    let updates =
      List.map
        (fun (name, s) ->
          ( name,
            I.map_scalar
              (fun s' ->
                match s' with
                | I.AggFun { fn; args; _ } ->
                    I.WinFun
                      {
                        fn;
                        args = guarded_args pred fn args;
                        partition;
                        order = [];
                        frame = None;
                      }
                | I.WinFun w ->
                    I.WinFun
                      {
                        w with
                        partition =
                          partition @ Option.to_list pred @ w.partition;
                      }
                | s' -> s')
              s ))
        updates
    in
    let wins =
      List.map (fun (n, s) -> (fresh ctx ("hq_upd_" ^ n), s)) updates
    in
    let with_w = I.WindowOp { input = rel1; wins } in
    let exprs =
      List.map
        (fun c ->
          match
            List.find_opt (fun ((n, _), _) -> n = c.I.cr_name)
              (List.combine updates wins)
          with
          | Some (_, (wname, _)) ->
              ( c.I.cr_name,
                guard_new (Some (I.ColRef c.I.cr_name)) (I.ColRef wname) )
          | None -> (c.I.cr_name, I.ColRef c.I.cr_name))
        in_cols
      @ List.filter_map
          (fun ((n, _), (wname, _)) ->
            if List.exists (fun c -> c.I.cr_name = n) in_cols then None
            else Some (n, guard_new None (I.ColRef wname)))
          (List.combine updates wins)
    in
    { rel = I.Project { input = with_w; exprs }; keys = []; shape = RTable }
  end

and bind_delete _ctx (sql : Ast.sql) rel1 : bound_rel =
  if sql.Ast.cols <> [] then begin
    (* delete columns *)
    let names =
      List.map
        (fun (alias, e) ->
          match (alias, e) with
          | _, Ast.Var n -> n
          | Some n, _ -> n
          | _ -> bind_error "delete expects column names")
        sql.Ast.cols
    in
    let keep =
      I.output_cols rel1
      |> List.filter (fun c -> not (List.mem c.I.cr_name names))
    in
    {
      rel =
        I.Project
          {
            input = rel1;
            exprs = List.map (fun c -> (c.I.cr_name, I.ColRef c.I.cr_name)) keep;
          };
      keys = [];
      shape = RTable;
    }
  end
  else
    (* rows matching the (already applied) filters are the ones to delete;
       rel1 = filter(base, pred); we need base minus those rows. The binder
       rebinds with negated predicates instead. *)
    match rel1 with
    | I.Filter _ ->
        (* rebuild: delete from t where p  ==  select from t where not p,
           with 2VL semantics preserved by the Xformer *)
        let negate rel =
          match rel with
          | I.Filter { input; pred } -> (
              match input with
              | I.Filter _ ->
                  (* innermost-first chain: conjunction, negate the whole *)
                  let rec collect acc rel =
                    match rel with
                    | I.Filter { input; pred } -> collect (pred :: acc) input
                    | rel -> (acc, rel)
                  in
                  let preds, base = collect [] (I.Filter { input; pred }) in
                  let conj =
                    match preds with
                    | [] -> assert false
                    | p :: rest ->
                        List.fold_left (fun a b -> I.Logic (`And, a, b)) p rest
                  in
                  I.Filter { input = base; pred = I.Not conj }
              | base -> I.Filter { input = base; pred = I.Not pred })
          | rel -> rel
        in
        { rel = negate rel1; keys = []; shape = RTable }
    | _ -> bind_error "delete without where or columns"
