(** The gather step of scatter-gather execution: reassemble per-shard
    result sets into the single result the coordinator would have
    produced.

    Three modes, matching {!Router.plan}:

    - {!concat}: append shard results in shard order (the statement
      imposes no row order, so any deterministic order is acceptable);
    - {!merge}: k-way merge of per-shard sorted streams on the (unique)
      order column, reproducing the global sort without re-sorting;
    - {!combine}: recombine partial aggregates with one SQL statement
      over the shards' concatenated partials, which pgdb's executor
      answers as it answered the partials (cf. Citus, where the
      coordinator's combine is a plain query over intermediate results).

    The merge's null ordering matches the serializer's lowering of a
    sort key ([Asc] puts nulls first, [Desc] puts them last), so merged
    output is byte-identical to what the single backend returns for the
    same lowered SQL; the combine's re-sort is that lowering itself. *)

module B = Hyperq.Backend
module I = Xtra.Ir
module V = Pgdb.Value
module Batch = Pgdb.Batch

(* ------------------------------------------------------------------ *)
(* Column bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let col_index (cols : (string * Catalog.Sqltype.t) list) (name : string) :
    int option =
  let rec go i = function
    | [] -> None
    | (n, _) :: rest -> if Pgdb.Exec.equal_ci n name then Some i else go (i + 1) rest
  in
  go 0 cols

(* Per-column output types across shards: shards sniff expression-column
   types from their own rows, so an empty shard reports TText where a
   populated one reports the real type. Prefer the first shard that
   committed to a non-text type, exactly as a full-rowset sniff would. *)
let merge_col_types (results : B.result list) :
    (string * Catalog.Sqltype.t) list =
  match results with
  | [] -> []
  | first :: _ ->
      let types =
        List.map (fun r -> Array.of_list (List.map snd r.B.res_cols)) results
      in
      List.mapi
        (fun i (name, ty) ->
          let ty =
            List.fold_left
              (fun acc tys ->
                if acc <> Catalog.Sqltype.TText || i >= Array.length tys then acc
                else tys.(i))
              ty types
          in
          (name, ty))
        first.B.res_cols

(* ------------------------------------------------------------------ *)
(* Sort-key comparison (mirrors the serializer's null lowering)        *)
(* ------------------------------------------------------------------ *)

let cmp_dir (dir : [ `Asc | `Desc ]) (a : V.t) (b : V.t) : int =
  match (V.is_null a, V.is_null b, dir) with
  | true, true, _ -> 0
  | true, false, `Asc -> -1 (* nulls first ascending *)
  | false, true, `Asc -> 1
  | true, false, `Desc -> 1 (* nulls last descending *)
  | false, true, `Desc -> -1
  | false, false, `Asc -> V.compare_total a b
  | false, false, `Desc -> -(V.compare_total a b)

(* rows [x] and [y] under [keys], each a sort column's values and its
   direction *)
let cmp_keys (keys : (V.t array * [ `Asc | `Desc ]) list) (x : int) (y : int)
    : int =
  let rec go = function
    | [] -> 0
    | (vals, dir) :: rest ->
        let c = cmp_dir dir vals.(x) vals.(y) in
        if c <> 0 then c else go rest
  in
  go keys

(* ------------------------------------------------------------------ *)
(* Concat and merge                                                    *)
(* ------------------------------------------------------------------ *)

let concat (results : B.result list) : B.result =
  let cols = merge_col_types results in
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

(** K-way merge of per-shard sorted results on [keys] (column name,
    direction). Each input is already sorted by the backend; the merge
    scans the (few) shard heads linearly per output row, then gathers
    every column of the shards' concatenation in the merged order. *)
let merge ~(keys : (string * [ `Asc | `Desc ]) list)
    (results : B.result list) : (B.result, string) result =
  let all = concat results in
  let key_idx =
    List.map
      (fun (name, dir) ->
        match col_index all.B.res_cols name with
        | Some i -> Ok (i, dir)
        | None -> Error name)
      keys
  in
  match
    List.find_map (function Error n -> Some n | Ok _ -> None) key_idx
  with
  | Some n -> Error (Printf.sprintf "merge key %s missing from shard result" n)
  | None ->
      let total = all.B.res_nrows in
      let keys =
        List.filter_map
          (function
            | Ok (i, dir) ->
                Some (Array.init total (Batch.value_at all.B.res_columns.(i)), dir)
            | Error _ -> None)
          key_idx
      in
      (* shard s's unmerged rows are [pos.(s), stop.(s)) of the
         concatenation *)
      let pos = Array.make (List.length results) 0 in
      let stop = Array.copy pos in
      List.iteri
        (fun s r ->
          if s > 0 then pos.(s) <- stop.(s - 1);
          stop.(s) <- pos.(s) + r.B.res_nrows)
        results;
      let order =
        Array.init total (fun _ ->
            let best = ref (-1) in
            Array.iteri
              (fun s p ->
                if p < stop.(s) then
                  (* strict < keeps the merge stable in shard order on
                     (impossible for a unique order column, but safe) ties *)
                  if !best < 0 || cmp_keys keys p pos.(!best) < 0 then best := s)
              pos;
            let s = !best in
            pos.(s) <- pos.(s) + 1;
            pos.(s) - 1)
      in
      Ok
        {
          all with
          B.res_columns =
            Array.map (fun c -> Batch.gather c order) all.B.res_columns;
        }

(* ------------------------------------------------------------------ *)
(* Partial-aggregate recombination                                     *)
(* ------------------------------------------------------------------ *)

(* the relation the combine statement reads the shards' partials from *)
let partials_table = "hq_partials"

(* The coordinator's combine over partials of [cols]: group on the keys,
   sum the sums and the counts, take the min of the mins and the max of
   the maxes, divide an avg's summed sums by its summed counts, then
   re-sort on the keys the root ORDER BY named. *)
let combine_rel (plan : Router.agg_plan)
    (cols : (string * Catalog.Sqltype.t) list) : I.rel =
  let agg fn c = I.AggFun { fn; distinct = false; args = [ I.ColRef c ] } in
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
      plan.Router.a_cols
  in
  let input =
    I.Get
      {
        table = partials_table;
        cols = List.map (fun (cr_name, cr_type) -> { I.cr_name; cr_type }) cols;
        ordcol = None;
      }
  in
  let rel = I.Aggregate { input; keys; aggs } in
  match plan.Router.a_sort with
  | [] -> rel
  | sort ->
      I.Sort
        {
          input = rel;
          keys =
            List.map
              (fun (n, sk_dir) -> { I.sk_expr = I.ColRef n; sk_dir })
              sort;
        }

(** Recombine per-shard partial aggregates according to [plan]: one
    SELECT over the shards' concatenated partials, lowered by the
    serializer and answered by pgdb's executor, so the combine shares
    the backend's grouping, aggregate and NULL-ordering semantics. A
    pgdb error raises as {!Pgdb.Errors.Sql_error}. *)
let combine (plan : Router.agg_plan) (results : B.result list) : B.result =
  let partials = concat results in
  let bindings =
    List.map
      (fun (b_name, ty) ->
        { Pgdb.Exec.b_qual = None; b_name; b_type = Some ty })
      partials.B.res_cols
  in
  let batch = Batch.of_columns partials.B.res_nrows partials.B.res_columns in
  let resolve name =
    if Pgdb.Exec.equal_ci name partials_table then
      Pgdb.Vexec.Table (bindings, batch)
    else Pgdb.Errors.undefined_table "relation %s does not exist" name
  in
  let rel = combine_rel plan partials.B.res_cols in
  let sel = Hyperq.Serializer.serialize rel in
  (Pgdb.Vexec.run ~resolve ~collect:false sel).Pgdb.Vexec.vr_result
