(** The gather step of scatter-gather execution: reassemble per-shard
    result sets into the single result the coordinator would have
    produced.

    Every route gathers the same way: a single-shard result is the
    answer, and several are concatenated in shard order ({!concat}).
    Over that concatenation, bound as the relation [hq_partials], a
    route may have one coordinator statement ({!statement}), which
    pgdb's executor answers as it answered the shard statements (cf.
    Citus, where the coordinator runs a plain query over the shards'
    intermediate results):

    - [Merge]: re-sort on the router's merge keys, so the global order
      is the serializer's lowering of the sort, nulls and all;
    - [PartialAgg]: recombine the partial aggregates, then re-sort on
      the keys the root ORDER BY named;
    - [Single] and [Concat] have none (a concat's statement imposes no
      row order). *)

module B = Hyperq.Backend
module I = Xtra.Ir
module Batch = Pgdb.Batch

(* ------------------------------------------------------------------ *)
(* Concat                                                              *)
(* ------------------------------------------------------------------ *)

(* the shards' results one after another: every shard plans the
   statement alike, so each describes the first one's columns *)
let concat (results : B.result list) : B.result =
  let cols = match results with r :: _ -> r.B.res_cols | [] -> [] in
  {
    B.res_cols = cols;
    res_nrows = List.fold_left (fun n r -> n + r.B.res_nrows) 0 results;
    res_columns =
      Array.of_list
        (List.mapi
           (fun j _ ->
             Batch.concat
               (List.map (fun r -> (r.B.res_nrows, r.B.res_columns.(j))) results))
           cols);
  }

(* ------------------------------------------------------------------ *)
(* The coordinator statement                                           *)
(* ------------------------------------------------------------------ *)

(* the relation the coordinator statement reads the shard results from *)
let partials_table = "hq_partials"

(** The coordinator statement of [plan] over the shards' concatenated
    results, whose columns are [cols]; [None] for a single-shard or
    concat plan. A merge re-sorts on its merge keys. A partial
    aggregate groups on the keys, sums the sums and the counts, takes
    the min of the mins and the max of the maxes, divides an avg's
    summed sums by its summed counts, then re-sorts on the keys the root
    ORDER BY named. *)
let statement (plan : Router.plan) (cols : (string * Catalog.Sqltype.t) list)
    : I.rel option =
  let input =
    I.Get
      {
        table = partials_table;
        cols = List.map (fun (cr_name, cr_type) -> { I.cr_name; cr_type }) cols;
        ordcol = None;
      }
  in
  let sorted rel = function
    | [] -> rel
    | keys ->
        I.Sort
          {
            input = rel;
            keys =
              List.map
                (fun (n, sk_dir) -> { I.sk_expr = I.ColRef n; sk_dir })
                keys;
          }
  in
  let agg fn c = I.AggFun { fn; distinct = false; args = [ I.ColRef c ] } in
  match plan with
  | Router.Single _ | Router.Concat _ -> None
  | Router.Merge (_, keys) -> Some (sorted input keys)
  | Router.PartialAgg p ->
      let keys, aggs =
        List.partition_map
          (fun (name, c) ->
            match c with
            | Router.CKey -> Either.Left (name, I.ColRef name)
            | Router.CSum | Router.CCount -> Either.Right (name, agg "sum" name)
            | Router.CMin -> Either.Right (name, agg "min" name)
            | Router.CMax -> Either.Right (name, agg "max" name)
            | Router.CAvg (s, n) ->
                let total = I.Cast (agg "sum" s, Catalog.Sqltype.TDouble) in
                Either.Right (name, I.Arith (`Div, total, agg "sum" n)))
          p.Router.a_cols
      in
      Some (sorted (I.Aggregate { input; keys; aggs }) p.Router.a_sort)

(** Reassemble [plan]'s shard results: the one result, or their
    concatenation, with the plan's coordinator statement run over it by
    pgdb's executor when there is one, so the gather shares the
    backend's grouping, aggregate and NULL-ordering semantics. With
    [collect], the statement's operator tree comes back with the result
    (ANALYZE). A pgdb error raises as {!Pgdb.Errors.Sql_error}. *)
let gather ?(collect = false) (plan : Router.plan) (results : B.result list) :
    B.result * Pgdb.Opstats.node option =
  let all = match results with [ r ] -> r | rs -> concat rs in
  match statement plan all.B.res_cols with
  | None -> (all, None)
  | Some rel ->
      let bindings =
        List.map
          (fun (b_name, ty) ->
            { Pgdb.Exec.b_qual = None; b_name; b_type = ty })
          all.B.res_cols
      in
      let batch = Batch.of_columns all.B.res_nrows all.B.res_columns in
      let resolve name =
        if Pgdb.Exec.equal_ci name partials_table then
          (bindings, batch)
        else Pgdb.Errors.undefined_table "relation %s does not exist" name
      in
      let sel = Hyperq.Serializer.serialize rel in
      let o = Pgdb.Vexec.run ~resolve ~collect sel in
      (o.Pgdb.Vexec.vr_result, o.Pgdb.Vexec.vr_plan)
