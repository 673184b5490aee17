(* Tests for the XTRA algebra (lib/xtra) and the Xformer/Serializer
   invariants: derived properties and transformation correctness.
   Random queries are checked against kdb by test_sidebyside's one
   differential. *)

module I = Xtra.Ir
module A = Sqlast.Ast
module Ty = Catalog.Sqltype
module X = Hyperq.Xformer

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

let col n ty = { I.cr_name = n; cr_type = ty }

let trades_get =
  I.Get
    {
      table = "trades";
      cols =
        [
          col "hq_ord" Ty.TBigint;
          col "sym" Ty.TVarchar;
          col "px" Ty.TDouble;
          col "qty" Ty.TBigint;
        ];
      ordcol = Some "hq_ord";
    }

(* ------------------------------------------------------------------ *)
(* Derived properties                                                  *)
(* ------------------------------------------------------------------ *)

let test_output_cols () =
  let p =
    I.Project
      { input = trades_get; exprs = [ ("notional", I.Arith (`Mul, I.ColRef "px", I.ColRef "qty")) ] }
  in
  (match I.output_cols p with
  | [ { I.cr_name = "notional"; cr_type = Ty.TDouble } ] -> ()
  | _ -> Alcotest.fail "projection output cols");
  let agg =
    I.Aggregate
      {
        input = trades_get;
        keys = [ ("sym", I.ColRef "sym") ];
        aggs = [ ("n", I.AggFun { fn = "count"; distinct = false; args = [] }) ];
      }
  in
  match I.output_cols agg with
  | [ { I.cr_name = "sym"; cr_type = Ty.TVarchar };
      { I.cr_name = "n"; cr_type = Ty.TBigint } ] -> ()
  | _ -> Alcotest.fail "aggregate output cols"

let test_order_col_propagation () =
  check (Alcotest.option tstr) "get" (Some "hq_ord") (I.order_col trades_get);
  let f = I.Filter { input = trades_get; pred = I.Cmp (`Gt, I.ColRef "px", I.Const (A.Float 1.0, Ty.TDouble)) } in
  check (Alcotest.option tstr) "filter preserves" (Some "hq_ord")
    (I.order_col f);
  (* a projection keeps the order column only if it passes it through *)
  let keeps =
    I.Project
      { input = trades_get;
        exprs = [ ("hq_ord", I.ColRef "hq_ord"); ("px", I.ColRef "px") ] }
  in
  check (Alcotest.option tstr) "project keeps" (Some "hq_ord")
    (I.order_col keeps);
  let drops = I.Project { input = trades_get; exprs = [ ("px", I.ColRef "px") ] } in
  check (Alcotest.option tstr) "project drops" None (I.order_col drops);
  (* aggregation destroys the input order *)
  let agg = I.Aggregate { input = trades_get; keys = []; aggs = [] } in
  check (Alcotest.option tstr) "aggregate destroys" None (I.order_col agg)

let test_is_scalar () =
  check tbool "scalar aggregate" true
    (I.is_scalar (I.Aggregate { input = trades_get; keys = []; aggs = [] }));
  check tbool "grouped is not scalar" false
    (I.is_scalar
       (I.Aggregate
          { input = trades_get; keys = [ ("sym", I.ColRef "sym") ]; aggs = [] }));
  check tbool "get is not scalar" false (I.is_scalar trades_get)

let test_scalar_type_derivation () =
  let cols = [ col "px" Ty.TDouble; col "qty" Ty.TBigint; col "d" Ty.TDate ] in
  check tbool "bigint*double -> double" true
    (I.scalar_type cols (I.Arith (`Mul, I.ColRef "px", I.ColRef "qty")) = Ty.TDouble);
  check tbool "div is double" true
    (I.scalar_type cols (I.Arith (`Div, I.ColRef "qty", I.ColRef "qty")) = Ty.TDouble);
  check tbool "date+int is date" true
    (I.scalar_type cols (I.Arith (`Add, I.ColRef "d", I.ColRef "qty")) = Ty.TDate);
  check tbool "date-date is bigint" true
    (I.scalar_type cols (I.Arith (`Sub, I.ColRef "d", I.ColRef "d")) = Ty.TBigint);
  check tbool "comparison is bool" true
    (I.scalar_type cols (I.Cmp (`Lt, I.ColRef "px", I.ColRef "qty")) = Ty.TBool)

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let test_2vl_pass () =
  let r =
    I.Filter
      { input = trades_get;
        pred = I.Eq2 (I.ColRef "sym", I.Const (A.Str "a", Ty.TVarchar)) }
  in
  (match Hyperq.Serializer.serialize r with
  | exception Hyperq.Serializer.Serialize_error _ -> ()
  | _ -> Alcotest.fail "before: the raw Eq2 must not serialize");
  match Hyperq.Serializer.serialize (X.two_valued_logic r) with
  | exception Hyperq.Serializer.Serialize_error e ->
      Alcotest.failf "after: the rewritten tree must serialize: %s" e
  | _ -> ()

let test_filter_fusion () =
  let p c = I.Cmp (`Gt, I.ColRef "px", I.Const (A.Float c, Ty.TDouble)) in
  let r = I.Filter { input = I.Filter { input = trades_get; pred = p 1.0 }; pred = p 2.0 } in
  match X.filter_fusion r with
  | I.Filter { input = I.Get _; pred = I.Logic (`And, _, _) } -> ()
  | _ -> Alcotest.fail "filters should fuse into one conjunction"

let test_pruning_trims_get () =
  let r = I.Project { input = trades_get; exprs = [ ("px", I.ColRef "px") ] } in
  match X.column_pruning r with
  | I.Project { input = I.Get { cols; _ }; _ } ->
      check tint "only px survives" 1 (List.length cols)
  | _ -> Alcotest.fail "pruning shape"

let test_pruning_keeps_filter_cols () =
  let r =
    I.Project
      {
        input =
          I.Filter
            { input = trades_get;
              pred = I.Cmp (`Gt, I.ColRef "qty", I.Const (A.Int 0L, Ty.TBigint)) };
        exprs = [ ("px", I.ColRef "px") ];
      }
  in
  match X.column_pruning r with
  | I.Project { input = I.Filter { input = I.Get { cols; _ }; _ }; _ } ->
      let names = List.map (fun c -> c.I.cr_name) cols in
      check tbool "px kept" true (List.mem "px" names);
      check tbool "qty kept for the filter" true (List.mem "qty" names);
      check tbool "sym pruned" false (List.mem "sym" names)
  | _ -> Alcotest.fail "pruning shape"

let test_order_enforcement () =
  match X.enforce_root_order trades_get with
  | I.Sort { keys = [ { I.sk_expr = I.ColRef "hq_ord"; sk_dir = `Asc } ]; _ }
    -> ()
  | _ -> Alcotest.fail "root order not enforced"

let sort_by_ord input =
  I.Sort { input; keys = [ { I.sk_expr = I.ColRef "hq_ord"; sk_dir = `Asc } ] }

let agg fn arg = I.AggFun { fn; distinct = false; args = [ arg ] }

let rec count_sorts = function
  | I.Sort { input; _ } -> 1 + count_sorts input
  | I.Get _ | I.ConstRel _ -> 0
  | I.Project { input; _ } | I.Filter { input; _ } | I.Aggregate { input; _ }
  | I.WindowOp { input; _ } | I.Limit { input; _ } ->
      count_sorts input
  | I.Join { left; right; _ } | I.AsofJoin { left; right; _ } ->
      count_sorts left + count_sorts right
  | I.Union rels -> List.fold_left (fun n r -> n + count_sorts r) 0 rels

(* the required-order pass under a scalar aggregate: an order-insensitive
   one lets the sort go, an order-sensitive one keeps it *)
let test_order_elision () =
  let agg_of aggs = I.Aggregate { input = sort_by_ord trades_get; keys = []; aggs } in
  (match X.required_order (agg_of [ ("s", agg "sum" (I.ColRef "px")) ]) with
  | I.Aggregate { input = I.Get _; _ } -> ()
  | _ -> Alcotest.fail "sum should allow elision");
  match X.required_order (agg_of [ ("f", agg "first" (I.ColRef "px")) ]) with
  | I.Aggregate { input = I.Sort _; _ } -> ()
  | _ -> Alcotest.fail "first must keep ordering"

let quotes_get =
  I.Get
    {
      table = "quotes";
      cols = [ col "hq_ord" Ty.TBigint; col "sym" Ty.TVarchar; col "bid" Ty.TDouble ];
      ordcol = Some "hq_ord";
    }

let asof left right =
  I.AsofJoin
    { left; right; eq_cols = [ "sym" ]; ts_col = "hq_ord"; keep_right_time = false }

(* every consumer that can observe order keeps the sort beneath it; the
   root sort is always kept *)
let test_required_order_keeps () =
  let sum_of input = I.Aggregate { input; keys = []; aggs = [ ("s", agg "sum" (I.ColRef "px")) ] } in
  let grouped =
    I.Sort
      {
        input =
          I.Aggregate
            { input = trades_get; keys = [ ("sym", I.ColRef "sym") ];
              aggs = [ ("bid", agg "max" (I.ColRef "px")) ] };
        keys = [ { I.sk_expr = I.ColRef "sym"; sk_dir = `Asc } ];
      }
  in
  let unordered_window =
    I.WinFun { fn = "row_number"; args = []; partition = []; order = []; frame = None }
  in
  List.iter
    (fun (name, r, kept) ->
      check tint name kept (count_sorts (X.required_order r)))
    [
      ("a take reads its input order", sum_of (I.Limit { input = sort_by_ord trades_get; n = 3 }), 1);
      ( "a window with no ORDER BY reads it",
        sum_of (I.WindowOp { input = sort_by_ord trades_get; wins = [ ("rn", unordered_window) ] }),
        1 );
      ( "a union's branches keep theirs under a non-total sort",
        I.Sort
          {
            input = I.Union [ sort_by_ord trades_get; sort_by_ord trades_get ];
            keys = [ { I.sk_expr = I.ColRef "px"; sk_dir = `Asc } ];
          },
        3 );
      ( "a sort with ties keeps its input's",
        I.Sort
          { input = sort_by_ord trades_get;
            keys = [ { I.sk_expr = I.ColRef "px"; sk_dir = `Desc } ] },
        2 );
      ( "an as-of side with no order column is numbered in its order",
        sort_by_ord (asof (sort_by_ord trades_get) grouped),
        2 );
    ]

(* under the root sort by the left order column, neither as-of side's
   sort is observable: the window orders each left row's matches totally *)
let test_required_order_asof () =
  match
    X.required_order
      (sort_by_ord (asof (sort_by_ord trades_get) (sort_by_ord quotes_get)))
  with
  | I.Sort { input = I.AsofJoin { left = I.Get _; right = I.Get _; _ }; _ } -> ()
  | r -> Alcotest.failf "as-of sides keep a sort:\n%s" (I.rel_to_string r)

(* ------------------------------------------------------------------ *)
(* Serializer                                                          *)
(* ------------------------------------------------------------------ *)

let test_serializer_rejects_eq2 () =
  let r =
    I.Filter
      { input = trades_get;
        pred = I.Eq2 (I.ColRef "sym", I.Const (A.Str "a", Ty.TVarchar)) }
  in
  match Hyperq.Serializer.serialize_to_sql r with
  | exception Hyperq.Serializer.Serialize_error _ -> ()
  | sql -> Alcotest.failf "Eq2 must not serialize, got %s" sql

let test_serializer_flattens () =
  (* project-over-filter-over-get stays one SELECT *)
  let r =
    I.Project
      {
        input =
          I.Filter
            { input = trades_get;
              pred =
                I.NullSafeEq (I.ColRef "sym", I.Const (A.Str "a", Ty.TVarchar)) };
        exprs = [ ("px", I.ColRef "px") ];
      }
  in
  let sql = Hyperq.Serializer.serialize_to_sql r in
  let count_sub needle hay =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length hay then acc
      else if String.sub hay i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check tint "single SELECT" 1 (count_sub "SELECT" sql)

let test_generated_sql_parses () =
  (* everything the serializer emits must be accepted by the pgdb parser *)
  let rels =
    [
      trades_get;
      I.Filter
        { input = trades_get;
          pred = I.NullSafeEq (I.ColRef "sym", I.Const (A.Str "a", Ty.TVarchar)) };
      I.Aggregate
        {
          input = trades_get;
          keys = [ ("sym", I.ColRef "sym") ];
          aggs = [ ("mx", I.AggFun { fn = "max"; distinct = false; args = [ I.ColRef "px" ] }) ];
        };
      I.Sort
        { input = trades_get;
          keys = [ { I.sk_expr = I.ColRef "px"; sk_dir = `Desc } ] };
      I.Limit { input = trades_get; n = 3 };
      I.AsofJoin
        {
          left = trades_get;
          right =
            I.Get
              {
                table = "quotes";
                cols = [ col "sym" Ty.TVarchar; col "hq_ord" Ty.TBigint; col "bid" Ty.TDouble ];
                ordcol = Some "hq_ord";
              };
          eq_cols = [ "sym" ];
          ts_col = "hq_ord";
          keep_right_time = false;
        };
      I.WindowOp
        {
          input = trades_get;
          wins =
            [
              ( "rs",
                I.WinFun
                  { fn = "sum"; args = [ I.ColRef "qty" ]; partition = [ I.ColRef "sym" ];
                    order = [ (I.ColRef "hq_ord", `Asc) ];
                    frame =
                      Some A.UnboundedPreceding } );
            ];
        };
    ]
  in
  List.iter
    (fun r ->
      let sql = Hyperq.Serializer.serialize_to_sql r in
      match Pgdb.Sql_parser.parse sql with
      | A.Select sel ->
          (* print . parse is a fixpoint: reparsing the printed form gives
             the same text *)
          let printed = A.select_str sel in
          (match Pgdb.Sql_parser.parse printed with
          | A.Select sel2 ->
              check Alcotest.string "print/parse fixpoint" printed
                (A.select_str sel2)
          | _ -> Alcotest.fail "reparse changed statement kind")
      | _ -> Alcotest.failf "parsed to non-select: %s" sql
      | exception Pgdb.Errors.Sql_error { message; _ } ->
          Alcotest.failf "generated SQL does not parse (%s): %s" message sql)
    rels

let () =
  Alcotest.run "xtra"
    [
      ( "properties",
        [
          Alcotest.test_case "output columns" `Quick test_output_cols;
          Alcotest.test_case "order column propagation" `Quick
            test_order_col_propagation;
          Alcotest.test_case "is_scalar" `Quick test_is_scalar;
          Alcotest.test_case "scalar types" `Quick test_scalar_type_derivation;
        ] );
      ( "xformer",
        [
          Alcotest.test_case "2VL pass" `Quick test_2vl_pass;
          Alcotest.test_case "filter fusion" `Quick test_filter_fusion;
          Alcotest.test_case "pruning trims get" `Quick test_pruning_trims_get;
          Alcotest.test_case "pruning keeps filter cols" `Quick
            test_pruning_keeps_filter_cols;
          Alcotest.test_case "order enforcement" `Quick test_order_enforcement;
          Alcotest.test_case "order elision" `Quick test_order_elision;
          Alcotest.test_case "required order keeps observed sorts" `Quick
            test_required_order_keeps;
          Alcotest.test_case "required order drops as-of side sorts" `Quick
            test_required_order_asof;
        ] );
      ( "serializer",
        [
          Alcotest.test_case "rejects 2VL equality" `Quick
            test_serializer_rejects_eq2;
          Alcotest.test_case "flattens simple pipelines" `Quick
            test_serializer_flattens;
          Alcotest.test_case "generated SQL parses" `Quick
            test_generated_sql_parses;
        ] );
    ]
