(** The gather step of scatter-gather execution: reassemble per-shard
    result sets into the single result the coordinator would have
    produced.

    Three modes, matching {!Router.plan}:

    - {!concat}: append shard results in shard order (the statement
      imposes no row order, so any deterministic order is acceptable);
    - {!merge}: k-way merge of per-shard sorted streams on the (unique)
      order column, reproducing the global sort without re-sorting;
    - {!combine}: recombine partial aggregates (group-hash on the
      coordinator, then apply each column's combine rule and re-sort).

    Null ordering matches the serializer's lowering of a sort key
    ([Asc] puts nulls first, [Desc] puts them last), so merged output is
    byte-identical to what the single backend returns for the same
    lowered SQL. *)

module B = Hyperq.Backend
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

let sniff_type (values : V.t list) : Catalog.Sqltype.t =
  match List.find_map V.type_of values with
  | Some t -> t
  | None -> Catalog.Sqltype.TText

(* a result of [cols] over row-major [rows]: how a gather that computes
   its rows (partial-aggregate recombination) hands them back *)
let of_rows cols (rows : V.t array array) : B.result =
  {
    B.res_cols = cols;
    res_nrows = Array.length rows;
    res_columns =
      Array.of_list
        (List.mapi
           (fun j _ -> Batch.column_of_values (Array.map (fun r -> r.(j)) rows))
           cols);
  }

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

let cmp_rows (keys : (int * [ `Asc | `Desc ]) list) (a : V.t array)
    (b : V.t array) : int =
  let rec go = function
    | [] -> 0
    | (i, dir) :: rest ->
        let c = cmp_dir dir a.(i) b.(i) in
        if c <> 0 then c else go rest
  in
  go keys

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

(* fold helpers over the non-null partials of one group, matching the
   single-backend aggregate semantics in pgdb's executor *)

let sum_partials (vs : V.t list) : V.t =
  let vs = List.filter (fun v -> not (V.is_null v)) vs in
  match vs with
  | [] -> V.Null
  | vs ->
      if List.for_all (function V.Int _ -> true | _ -> false) vs then
        V.Int
          (List.fold_left
             (fun acc v ->
               match v with V.Int i -> Int64.add acc i | _ -> acc)
             0L vs)
      else
        V.Float
          (List.fold_left
             (fun acc v ->
               match V.to_float v with Some f -> acc +. f | None -> acc)
             0.0 vs)

let count_partials (vs : V.t list) : V.t =
  V.Int
    (List.fold_left
       (fun acc v -> match v with V.Int i -> Int64.add acc i | _ -> acc)
       0L vs)

let extremum_partials ~(keep_left : int -> bool) (vs : V.t list) : V.t =
  List.fold_left
    (fun acc v ->
      if V.is_null v then acc
      else if V.is_null acc then v
      else if keep_left (V.compare_total acc v) then acc
      else v)
    V.Null vs

let avg_partials (sums : V.t list) (counts : V.t list) : V.t =
  let n =
    List.fold_left
      (fun acc v -> match v with V.Int i -> Int64.add acc i | _ -> acc)
      0L counts
  in
  if Int64.equal n 0L then V.Null
  else
    let s =
      List.fold_left
        (fun acc v ->
          match V.to_float v with Some f -> acc +. f | None -> acc)
        0.0 sums
    in
    V.Float (s /. Int64.to_float n)

(** Recombine per-shard partial aggregates according to [plan]. Groups
    are hashed on the key tuple; group order is first appearance across
    shards in shard order, then re-sorted by the plan's coordinator sort
    (which, being over the unique group keys, is deterministic). *)
let combine (plan : Router.agg_plan) (results : B.result list) :
    (B.result, string) result =
  match results with
  | [] -> Error "no shard results to combine"
  | first :: _ -> (
      let shard_cols = first.B.res_cols in
      (* every partial column any combine rule consults *)
      let needed =
        List.concat_map
          (fun (name, c) ->
            match c with
            | Router.CKey | Router.CSum | Router.CCount | Router.CMin
            | Router.CMax ->
                [ name ]
            | Router.CAvg (s, n) -> [ s; n ])
          plan.Router.a_cols
      in
      let idx_of = Hashtbl.create 16 in
      let missing =
        List.filter
          (fun name ->
            if Hashtbl.mem idx_of name then false
            else
              match col_index shard_cols name with
              | Some i ->
                  Hashtbl.replace idx_of name i;
                  false
              | None -> true)
          needed
      in
      match missing with
      | name :: _ ->
          Error
            (Printf.sprintf "partial column %s missing from shard result" name)
      | [] ->
          let key_idx =
            List.filter_map
              (fun (name, c) ->
                match c with
                | Router.CKey -> Some (Hashtbl.find idx_of name)
                | _ -> None)
              plan.Router.a_cols
          in
          (* position of each CKey output column within the key tuple *)
          let key_pos = Hashtbl.create 8 in
          let (_ : int) =
            List.fold_left
              (fun p (name, c) ->
                match c with
                | Router.CKey ->
                    Hashtbl.replace key_pos name p;
                    p + 1
                | _ -> p)
              0 plan.Router.a_cols
          in
          (* group -> per-partial-column collected values (newest first) *)
          let groups : (V.t list, (string, V.t list) Hashtbl.t) Hashtbl.t =
            Hashtbl.create 64
          in
          let order = ref [] in
          List.iter
            (fun r ->
              for row = 0 to r.B.res_nrows - 1 do
                let cell i = Batch.value_at r.B.res_columns.(i) row in
                let key = List.map cell key_idx in
                let acc =
                  match Hashtbl.find_opt groups key with
                  | Some acc -> acc
                  | None ->
                      let acc = Hashtbl.create 8 in
                      Hashtbl.replace groups key acc;
                      order := key :: !order;
                      acc
                in
                Hashtbl.iter
                  (fun name i ->
                    let prev =
                      Option.value ~default:[]
                        (Hashtbl.find_opt acc name)
                    in
                    Hashtbl.replace acc name (cell i :: prev))
                  idx_of
              done)
            results;
          let finalize key acc (name, c) : V.t =
            let vals n = List.rev (Option.value ~default:[] (Hashtbl.find_opt acc n)) in
            match c with
            | Router.CKey -> (
                match List.nth_opt key (Hashtbl.find key_pos name) with
                | Some v -> v
                | None -> V.Null)
            | Router.CSum -> sum_partials (vals name)
            | Router.CCount -> count_partials (vals name)
            | Router.CMin ->
                extremum_partials ~keep_left:(fun c -> c <= 0) (vals name)
            | Router.CMax ->
                extremum_partials ~keep_left:(fun c -> c >= 0) (vals name)
            | Router.CAvg (s, n) -> avg_partials (vals s) (vals n)
          in
          let rows =
            List.rev_map
              (fun key ->
                let acc = Hashtbl.find groups key in
                Array.of_list
                  (List.map (finalize key acc) plan.Router.a_cols))
              !order
          in
          (* scalar aggregates (no keys) always yield exactly one row,
             like the single-backend plan *)
          let rows =
            if key_idx = [] && rows = [] then
              [ Array.of_list
                  (List.map
                     (finalize [] (Hashtbl.create 1))
                     plan.Router.a_cols) ]
            else rows
          in
          (* output column types: keys keep the shard-reported type,
             aggregate columns are sniffed from the combined values just
             as a single backend sniffs expression columns *)
          let out_names = List.map fst plan.Router.a_cols in
          let shard_out_types =
            Array.of_list (List.map snd (merge_col_types results))
          in
          let col_ty i (name, c) =
            match c with
            | Router.CKey -> (
                shard_out_types.(Hashtbl.find idx_of name))
            | _ -> sniff_type (List.map (fun r -> r.(i)) (rows : V.t array list))
          in
          let cols =
            List.mapi
              (fun i nc -> (List.nth out_names i, col_ty i nc))
              plan.Router.a_cols
          in
          (* coordinator re-sort on the group keys the root ORDER BY named *)
          let rows =
            match plan.Router.a_sort with
            | [] -> rows
            | sort ->
                let keys =
                  List.filter_map
                    (fun (name, dir) ->
                      let rec find i = function
                        | [] -> None
                        | n :: _ when n = name -> Some (i, dir)
                        | _ :: rest -> find (i + 1) rest
                      in
                      find 0 out_names)
                    sort
                in
                List.stable_sort (cmp_rows keys) rows
          in
          Ok (of_rows cols (Array.of_list rows)))
