(** The shard router: classify an optimized XTRA tree against the shard
    map (paper Section 3.4's QR side, transplanted to an MPP layout à la
    Citus/Greenplum).

    Three outcomes:

    - {e router-able} ([Single]): a filter pins the distribution key to
      one literal, so the whole statement executes on one shard;
    - {e scatter-gather} ([Merge]/[Concat]/[PartialAgg]): the statement
      is shard-safe — its rows are multiset-partitioned across shards —
      and the gather step reassembles the global answer from the shards'
      concatenated results: as they are ([Concat]), re-sorted on the
      implicit order column ([Merge]), or with the partial aggregates
      recombined ([PartialAgg]), by a coordinator statement that pgdb's
      executor runs (see {!Gather});
    - {e coordinator-only} ([Coordinator reason]): anything the analysis
      cannot prove safe falls back to the existing single backend, which
      holds every table.

    The analysis rests on the {e multiset partition} property: a subtree
    is [Partitioned] when running it on every shard and unioning the
    results yields exactly the rows of the single-backend run. Scans of
    distributed tables have it by construction; filters, projections and
    within-shard sorts preserve it; joins preserve it when the
    distributed side drives the join and the other side is replicated,
    or when both sides are colocated on the join key; aggregates grouped
    by the distribution column keep whole groups shard-local. Limits,
    window functions and non-colocated joins break it. *)

module I = Xtra.Ir

(* how a subtree's rows relate to the shard layout *)
type part =
  | Replicated  (** every shard computes the identical full relation *)
  | Partitioned of string option
      (** rows multiset-partitioned across shards; [Some k] = each
          shard holds exactly the rows whose [k] hashes to it *)
  | No of string  (** not shard-safe, with the blocking reason *)

(** How to recombine one output column of a partially-aggregated
    scatter. *)
type combine =
  | CKey  (** group key — carried through *)
  | CSum
  | CCount  (** counts sum across shards *)
  | CMin
  | CMax
  | CAvg of string * string
      (** [avg] decomposed into hidden per-shard partials:
          (sum column, count column) *)

type agg_plan = {
  a_shard_rel : I.rel;
      (** the Aggregate shipped to every shard (partial aggregates, no
          root sort) *)
  a_cols : (string * combine) list;
      (** final output columns in order: keys then aggregates *)
  a_sort : (string * [ `Asc | `Desc ]) list;
      (** coordinator re-sort of the combined groups (the root ORDER BY
          the single-backend plan had); [] for scalar aggregates *)
}

type plan =
  | Single of int * I.rel  (** whole statement on one shard *)
  | Merge of I.rel * (string * [ `Asc | `Desc ]) list
      (** ship verbatim; gather = re-sort of the concatenation on the
          (unique) order column every shard sorted by *)
  | Concat of I.rel
      (** ship verbatim; gather = concatenation in shard order (the
          statement imposes no row order) *)
  | PartialAgg of agg_plan

type route =
  | Run of plan * int list
      (** plan + target shards: [[s]] for a pinned statement, every
          shard for an unconstrained scatter, a proper subset for a
          pruned scatter (the excluded shards cannot hold rows
          satisfying the distribution-key constraints) *)
  | Coordinator of string

(** Short label of a plan's gather strategy — stamped onto the query
    trace so per-trace skew analysis can group by route class. *)
let plan_kind = function
  | Single _ -> "single"
  | Merge _ -> "merge"
  | Concat _ -> "concat"
  | PartialAgg _ -> "partial_agg"

(** The relation every target shard runs. *)
let shard_rel = function
  | Single (_, rel) | Merge (rel, _) | Concat rel -> rel
  | PartialAgg p -> p.a_shard_rel

(* ------------------------------------------------------------------ *)
(* Distribution-key pinning                                            *)
(* ------------------------------------------------------------------ *)

let rec conjuncts (s : I.scalar) : I.scalar list =
  match s with
  | I.Logic (`And, a, b) -> conjuncts a @ conjuncts b
  | s -> [ s ]

(* whether every row a literal equals is of its key class, and so on
   its shard: all but a number at or beyond ±2^53, which [=] calls
   equal to values of other classes that round to it or from it *)
let pinnable_lit (l : Sqlast.Ast.lit) : bool =
  match Pgdb.Exec.gkey_of (Pgdb.Value.of_lit l) with
  | Pgdb.Exec.GBig _ -> false
  | Pgdb.Exec.GNum f -> Float.abs f < 0x1p53
  | Pgdb.Exec.GNull | Pgdb.Exec.GStr _ | Pgdb.Exec.GNan -> true

(* shard sets allowed by equality/membership conjuncts on distribution
   column [k]: each returned element is the set of shards that can hold
   a row satisfying one conjunct. A singleton is the classic pin; a
   larger proper subset (an IN list whose members hash to several but
   not all shards) prunes the scatter to that subset. *)
let key_constraints (map : Shardmap.t) (k : string) (pred : I.scalar) :
    int list list =
  List.filter_map
    (fun c ->
      match c with
      | I.NullSafeEq (I.ColRef n, I.Const (l, _))
      | I.NullSafeEq (I.Const (l, _), I.ColRef n)
        when n = k && pinnable_lit l ->
          Some [ Shardmap.shard_of_lit map l ]
      | I.IsNull (I.ColRef n) when n = k ->
          Some [ Shardmap.shard_of_value map Pgdb.Value.Null ]
      | I.InList (I.ColRef n, lits) when n = k && lits <> [] ->
          (* a vector membership constrains only when every member's
             shard is computable *)
          let shards =
            List.map
              (fun (l, _) ->
                if pinnable_lit l then Some (Shardmap.shard_of_lit map l)
                else None)
              lits
          in
          if List.for_all Option.is_some shards then
            Some (List.sort_uniq compare (List.filter_map Fun.id shards))
          else None
      | _ -> None)
    (conjuncts pred)

(* ------------------------------------------------------------------ *)
(* The multiset-partition analysis                                     *)
(* ------------------------------------------------------------------ *)

(* (partition property, distribution-key constraints, tree contains a
   Union). Each constraint is the shard set one conjunct allows;
   constraints are dropped where they stop constraining the output (the
   right side of outer joins, anywhere under a Union). *)
let rec info (map : Shardmap.t) (r : I.rel) : part * int list list * bool =
  match r with
  | I.Get { table; cols; _ } -> (
      match Shardmap.distribution_of map table with
      | Some dist ->
          (* report the distribution column in the scan's own case so it
             compares exactly against ColRef names upstream *)
          let k =
            match
              List.find_opt
                (fun c ->
                  String.lowercase_ascii c.I.cr_name = dist)
                cols
            with
            | Some c -> Some c.I.cr_name
            | None -> None
          in
          (Partitioned k, [], false)
      | None ->
          if Shardmap.is_replicated map table then (Replicated, [], false)
          else
            (No (Printf.sprintf "table %s only on coordinator" table), [], false)
      )
  | I.ConstRel _ -> (No "literal table", [], false)
  | I.Filter { input; pred } -> (
      let p, pins, u = info map input in
      match p with
      | Partitioned (Some k) -> (p, pins @ key_constraints map k pred, u)
      | _ -> (p, pins, u))
  | I.Project { input; exprs } -> (
      let p, pins, u = info map input in
      match p with
      | Partitioned _ when List.exists (fun (_, s) -> I.spans_rows s) exprs ->
          (* an aggregate or window in a projection spans every row *)
          (No "window function over distributed rows", [], u)
      | Partitioned (Some k)
        when not
               (List.exists
                  (fun (n, s) -> n = k && s = I.ColRef k)
                  exprs) ->
          (* the distribution column does not survive the projection:
             still partitioned, but colocation is lost *)
          (Partitioned None, pins, u)
      | p -> (p, pins, u))
  | I.Sort { input; _ } -> info map input
  | I.Limit { input; _ } -> (
      match info map input with
      | (Replicated, _, _) as x -> x
      | No _, _, _ as x -> x
      | Partitioned _, _, u -> (No "limit over distributed rows", [], u))
  | I.WindowOp { input; _ } -> (
      match info map input with
      | (Replicated, _, _) as x -> x
      | No _, _, _ as x -> x
      | Partitioned _, _, u ->
          (No "window function over distributed rows", [], u))
  | I.Aggregate { input; keys; _ } -> (
      match info map input with
      | (Replicated, _, _) as x -> x
      | (No _, _, _) as x -> x
      | Partitioned (Some k), pins, u
        when List.exists (fun (_, s) -> s = I.ColRef k) keys ->
          (* grouped by the distribution column: every group is wholly
             on one shard, and the key column keeps the colocation under
             its output name *)
          let out =
            List.find_map
              (fun (n, s) -> if s = I.ColRef k then Some n else None)
              keys
          in
          (Partitioned out, pins, u)
      | Partitioned _, _, u ->
          (No "aggregate not grouped by the distribution column", [], u))
  | I.Join { kind; left; right; eq_cols; _ } -> (
      let lp, lpins, lu = info map left in
      let rp, rpins, ru = info map right in
      let u = lu || ru in
      match (kind, lp, rp) with
      | _, No reason, _ | _, _, No reason -> (No reason, [], u)
      | _, Replicated, Replicated -> (Replicated, [], u)
      | (`Inner | `Left), Partitioned p, Replicated ->
          (* distributed side drives the join; replicated side is whole
             on every shard, so each output row materializes exactly
             where its left row lives. Pins on the left constrain the
             output; for outer joins, pins on the right do not. *)
          let pins =
            match kind with `Left -> lpins | _ -> lpins @ rpins
          in
          (Partitioned p, pins, u)
      | (`Inner | `Left), Partitioned (Some k1), Partitioned (Some k2)
        when k1 = k2 && List.mem k1 eq_cols ->
          (* colocated join: matching rows share the distribution hash *)
          (Partitioned (Some k1), lpins @ rpins, u)
      | _, Replicated, Partitioned _ ->
          (* replicated-left joins would let one left row match
             distributed rows on several shards — correct for Inner as a
             multiset, but order-column ties could then straddle shards,
             so the merge gather is not deterministic. Keep it off the
             scatter path. *)
          (No "replicated-left join over distributed rows", [], u)
      | _ -> (No "non-colocated join", [], u))
  | I.AsofJoin { left; right; eq_cols; _ } -> (
      let lp, lpins, lu = info map left in
      let rp, _, ru = info map right in
      let u = lu || ru in
      match (lp, rp) with
      | No reason, _ | _, No reason -> (No reason, [], u)
      | Replicated, Replicated -> (Replicated, [], u)
      | Partitioned p, Replicated -> (Partitioned p, lpins, u)
      | Partitioned (Some k1), Partitioned (Some k2)
        when k1 = k2 && List.mem k1 eq_cols ->
          (* the as-of lookup for a left row only consults right rows
             with the same key — colocated by construction *)
          (Partitioned (Some k1), lpins, u)
      | _ -> (No "non-colocated as-of join", [], u))
  | I.Union rels ->
      let parts = List.map (info map) rels in
      let reason =
        List.find_map
          (fun (p, _, _) -> match p with No r -> Some r | _ -> None)
          parts
      in
      (match reason with
      | Some r -> (No r, [], true)
      | None ->
          if List.for_all (fun (p, _, _) -> p = Replicated) parts then
            (Replicated, [], true)
          else if
            List.for_all
              (fun (p, _, _) ->
                match p with Partitioned _ -> true | _ -> false)
              parts
          then (Partitioned None, [], true)
          else
            (No "union mixes distributed and replicated inputs", [], true))

(* ------------------------------------------------------------------ *)
(* Partial-aggregate decomposition                                     *)
(* ------------------------------------------------------------------ *)

(* Decompose the aggregate list into per-shard partials + combine rules.
   Only top-level sum/count/min/max/avg (non-distinct) decompose:
   sum/count/min/max are themselves associative-combinable, and avg
   splits into hidden sum and count partials recombined as
   (Σ sums) / (Σ counts). Anything else (stddev, distinct aggregates,
   composite expressions over aggregates) bails to the coordinator. *)
let decompose (aggs : (string * I.scalar) list) :
    ((string * I.scalar) list * (string * combine) list) option =
  let shard_aggs = ref [] in
  let combines = ref [] in
  let ok = ref true in
  List.iter
    (fun (name, s) ->
      if !ok then
        match s with
        (* the binder wraps Q's sum as coalesce(SUM(x), 0) — Q's sum of
           an empty list is 0. The coalesced form is still CSum-safe:
           within a group a shard's coalesce only fires when every input
           was NULL (or, for the scalar no-group form, when the shard is
           empty), and the single-backend answer for those cases is the
           same 0 the recombined partials produce. *)
        | I.ScalarFun
            ( "coalesce",
              [ I.AggFun { fn = "sum"; distinct = false; _ }; I.Const _ ] ) ->
            shard_aggs := (name, s) :: !shard_aggs;
            combines := (name, CSum) :: !combines
        | I.AggFun { fn; distinct = false; args } -> (
            match String.lowercase_ascii fn with
            | "sum" ->
                shard_aggs := (name, s) :: !shard_aggs;
                combines := (name, CSum) :: !combines
            | "count" ->
                shard_aggs := (name, s) :: !shard_aggs;
                combines := (name, CCount) :: !combines
            | "min" ->
                shard_aggs := (name, s) :: !shard_aggs;
                combines := (name, CMin) :: !combines
            | "max" ->
                shard_aggs := (name, s) :: !shard_aggs;
                combines := (name, CMax) :: !combines
            | "avg" ->
                let sum_col = "hq_ps_" ^ name
                and count_col = "hq_pc_" ^ name in
                shard_aggs :=
                  (count_col, I.AggFun { fn = "count"; distinct = false; args })
                  :: (sum_col, I.AggFun { fn = "sum"; distinct = false; args })
                  :: !shard_aggs;
                combines := (name, CAvg (sum_col, count_col)) :: !combines
            | _ -> ok := false)
        | _ -> ok := false)
    aggs;
  if !ok then Some (List.rev !shard_aggs, List.rev !combines) else None

(* ------------------------------------------------------------------ *)
(* Targeting: intersect the conjuncts' allowed-shard sets              *)
(* ------------------------------------------------------------------ *)

let all_of ~shards = List.init shards (fun i -> i)

(* conjuncts all hold at once, so a shard must be allowed by every
   constraint *)
let allowed_shards ~shards (cons : int list list) : int list =
  List.fold_left
    (fun acc c -> List.filter (fun s -> List.mem s c) acc)
    (all_of ~shards) cons

(* the single shard a statement pins to, if any. An empty intersection
   means the conjuncts contradict each other — no shard holds a
   matching row — so any constrained shard serves the (empty) answer. *)
let pinned ~shards (cons : int list list) : int option =
  match allowed_shards ~shards cons with
  | [ s ] -> Some s
  | [] -> List.find_map (function s :: _ -> Some s | [] -> None) cons
  | _ -> None

(* Scatter targets: the shards the distribution-key constraints allow.
   An excluded shard holds no satisfying rows, so its contribution to a
   concat/merge/partial-combine gather is empty. Contradictory
   constraints (no shard allowed) keep every shard. *)
let scatter_targets ~shards (cons : int list list) : int list =
  match allowed_shards ~shards cons with [] -> all_of ~shards | sub -> sub

(* root Sort keys usable for a coordinator re-sort / merge: plain column
   references over the relation's output columns *)
let plain_sort_keys (keys : I.sort_key list) (out : string list) :
    (string * [ `Asc | `Desc ]) list option =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | { I.sk_expr = I.ColRef n; sk_dir } :: rest when List.mem n out ->
        go ((n, sk_dir) :: acc) rest
    | _ -> None
  in
  go [] keys

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* The prelude of every route: a statement whose [input] is not
   shard-safe, or reads replicated tables only, stays on the
   coordinator; one whose distribution-key constraints pin one shard,
   and that reads no union, runs [whole] there; any other goes to
   [scatter] with the shards the constraints leave. *)
let routed (map : Shardmap.t) ~(whole : I.rel) (input : I.rel)
    (scatter : int list -> route) : route =
  let shards = Shardmap.shards map in
  match info map input with
  | No reason, _, _ -> Coordinator reason
  | Replicated, _, _ -> Coordinator "replicated-only statement"
  | Partitioned _, cons, has_union -> (
      match pinned ~shards cons with
      | Some pin when not has_union -> Run (Single (pin, whole), [ pin ])
      | _ -> scatter (scatter_targets ~shards cons))

let try_partial_agg (map : Shardmap.t) ~(whole : I.rel) ~(input : I.rel)
    ~(keys : (string * I.scalar) list) ~(aggs : (string * I.scalar) list)
    ~(sort : I.sort_key list option) : route =
  routed map ~whole input (fun targets ->
      match decompose aggs with
      | None -> Coordinator "non-decomposable aggregate"
      | Some (shard_aggs, combines) -> (
          let key_names = List.map fst keys in
          let sort_keys =
            match sort with
            | None -> Some []
            | Some sk -> plain_sort_keys sk key_names
          in
          match sort_keys with
          | None -> Coordinator "aggregate order not on group keys"
          | Some a_sort ->
              Run
                ( PartialAgg
                    {
                      a_shard_rel = I.Aggregate { input; keys; aggs = shard_aggs };
                      a_cols = List.map (fun n -> (n, CKey)) key_names @ combines;
                      a_sort;
                    },
                  targets )))

let route (map : Shardmap.t) (rel : I.rel) : route =
  match rel with
  | I.Aggregate { input; keys; aggs } ->
      try_partial_agg map ~whole:rel ~input ~keys ~aggs ~sort:None
  | I.Sort { input = I.Aggregate { input; keys; aggs }; keys = skeys } ->
      try_partial_agg map ~whole:rel ~input ~keys ~aggs ~sort:(Some skeys)
  | I.Sort { input; keys = [ { I.sk_expr = I.ColRef oc; sk_dir } ] }
    when I.order_col input = Some oc ->
      (* class C: the root order is the implicit order column — unique
         per source row, so re-sorting the shards' concatenated results
         on it is deterministic *)
      routed map ~whole:rel input (fun targets ->
          Run (Merge (rel, [ (oc, sk_dir) ]), targets))
  | I.Sort _ -> (
      (* an explicit user sort on payload columns: ties may straddle
         shards, so a merge is not deterministic — but a pinned
         statement still routes *)
      let unmergeable = Coordinator "order not mergeable across shards" in
      match routed map ~whole:rel rel (fun _ -> unmergeable) with
      | Run (Single _, _) as pinned -> pinned
      | _ -> unmergeable)
  | _ -> routed map ~whole:rel rel (fun targets -> Run (Concat rel, targets))

(* ------------------------------------------------------------------ *)
(* Route explanation                                                   *)
(* ------------------------------------------------------------------ *)

(** Human/JSON-facing description of a routing decision, attached to
    analyzed plans by the EXPLAIN plane. *)
type explain = {
  x_class : string;  (** single/merge/concat/partial_agg/coordinator *)
  x_targets : int list;  (** shards the statement was dispatched to *)
  x_reason : string;  (** coordinator fallback reason, [""] otherwise *)
  x_merge_keys : (string * [ `Asc | `Desc ]) list;
      (** gather ordering: merge keys, or the coordinator re-sort of a
          partial aggregate *)
  x_combines : (string * string) list;
      (** partial-aggregate recombination rule per output column *)
  x_pruned : bool;
      (** scatter dispatched to a proper shard subset because the
          distribution-key constraints ruled the other shards out *)
}

let combine_name = function
  | CKey -> "key"
  | CSum -> "sum"
  | CCount -> "count"
  | CMin -> "min"
  | CMax -> "max"
  | CAvg (s, c) -> Printf.sprintf "avg(%s/%s)" s c

let explain_route ~(shards : int) (r : route) : explain =
  let none =
    {
      x_class = "";
      x_targets = [];
      x_reason = "";
      x_merge_keys = [];
      x_combines = [];
      x_pruned = false;
    }
  in
  let pruned targets = List.length targets < shards in
  match r with
  | Run (Single (s, _), _) -> { none with x_class = "single"; x_targets = [ s ] }
  | Run (Merge (_, keys), targets) ->
      {
        none with
        x_class = "merge";
        x_targets = targets;
        x_merge_keys = keys;
        x_pruned = pruned targets;
      }
  | Run (Concat _, targets) ->
      {
        none with
        x_class = "concat";
        x_targets = targets;
        x_pruned = pruned targets;
      }
  | Run (PartialAgg p, targets) ->
      {
        none with
        x_class = "partial_agg";
        x_targets = targets;
        x_merge_keys = p.a_sort;
        x_combines = List.map (fun (n, c) -> (n, combine_name c)) p.a_cols;
        x_pruned = pruned targets;
      }
  | Coordinator reason ->
      { none with x_class = "coordinator"; x_reason = reason }

let explain_json (x : explain) : string =
  let dir = function `Asc -> "asc" | `Desc -> "desc" in
  Obs.Relation.(
    obj
      [
        ("class", Str x.x_class);
        ("targets", Json (arr (List.map (fun i -> Int i) x.x_targets)));
        ("reason", Str x.x_reason);
        ( "merge_keys",
          Json
            (arr
               (List.map
                  (fun (k, d) -> Json (arr [ Str k; Str (dir d) ]))
                  x.x_merge_keys)) );
        ( "combines",
          Json (obj (List.map (fun (n, c) -> (n, Str c)) x.x_combines)) );
        ("pruned", Bool x.x_pruned);
      ])
