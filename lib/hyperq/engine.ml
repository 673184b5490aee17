(** The Hyper-Q query engine: drives the full translation pipeline for one
    client session (paper Figure 1 and Section 3.4's QT side).

    Life cycle of a query: parse (lightweight Q parser) → algebrize (bind
    against scopes + MDI) → optimize (Xformer passes) → serialize (XTRA →
    SQL text) → execute on the backend → pivot the result's typed columns
    into the column-oriented Q value the application expects.

    Variable assignments trigger eager materialization (Section 4.3):
    logically — the definition is kept in the variable scope and inlined at
    use sites — or physically, as [CREATE TEMPORARY TABLE HQ_TEMP_n AS ...]
    statements executed in situ during binding. *)

module I = Xtra.Ir
module A = Sqlast.Ast
module Ast = Qlang.Ast
module Ty = Catalog.Sqltype
module QV = Qvalue.Value
module F = Qlang.Fingerprint

exception Hq_error of { category : string; message : string }

let hq_error category fmt =
  Format.kasprintf (fun message -> raise (Hq_error { category; message })) fmt

(** Hook a sharded executor into the engine: after the Xformer runs,
    [sh_route] inspects the optimized XTRA tree and either claims the
    statement (returning a thunk that fans it out and gathers) or
    declines ([None] → the statement serializes and executes on the
    coordinator backend as before). [sh_generation] versions the shard
    map for plan-cache keying. *)
type sharder = {
  sh_route : I.rel -> (unit -> (Backend.result, string) result) option;
  sh_generation : unit -> int;
}

type t = {
  backend : Backend.t;
  sharder : sharder option;
  mdi : Mdi.t;
  scopes : Scopes.t;
  timer : Stage_timer.t;
  obs : Obs.Ctx.t;
  stage_hists : (Stage_timer.stage * Obs.Metrics.histogram) list;
  materialization : [ `Logical | `Physical ];
  plancache : Plancache.t option;
  pc_hits : Obs.Metrics.counter;
  pc_misses : Obs.Metrics.counter;
  pc_bypass : Obs.Metrics.counter;
  pc_hit_hist : Obs.Metrics.histogram;
  mutable temp_counter : int;
  mutable last_rel_exec : (I.rel * string * Binder.rshape) option;
      (* the last relational statement executed by the slow path: its
         bound rel, undecorated SQL and result shape — the plan cache's
         install candidate *)
  mutable error_log : (string * string) list;
      (* (query, categorised error), newest first, bounded *)
  mutable error_count : int;  (* length of [error_log], kept so the
                                 bound is enforced without List.length *)
  mutable last_cache : string;
      (* plan-cache outcome of the last program: hit/miss/bypass/off *)
  mutable last_sharded : bool;
      (* whether the last program's relational statement fanned out *)
  mutable last_note : pipeline_note option;
      (* pipeline annotation of the last completed program *)
}

(** How the Q→XTRA→SQL pipeline handled the last program: the plan-cache
    outcome ([hit] = template splice, skipping Parse→Serialize), whether
    the sharder claimed the statement, and how many SQL statements were
    dispatched. Attached to analyzed plans by the EXPLAIN plane. *)
and pipeline_note = {
  pn_cache : string;  (** hit / miss / bypass / off *)
  pn_sharded : bool;
  pn_statements : int;  (** SQL statements dispatched to backends *)
}

let create ?(materialization = `Logical) ?server_scope ?plan_cache ?sharder
    ?obs backend =
  let obs = match obs with Some o -> o | None -> Obs.Ctx.create () in
  let reg = obs.Obs.Ctx.registry in
  {
    backend;
    sharder;
    mdi = Mdi.create backend;
    scopes = Scopes.create ?server:server_scope ();
    timer = Stage_timer.create ();
    obs;
    stage_hists =
      List.map
        (fun s ->
          ( s,
            Obs.Metrics.histogram reg
              ~help:"Query pipeline stage duration (seconds)"
              ~labels:[ ("stage", Stage_timer.stage_name s) ]
              "hq_stage_seconds" ))
        Stage_timer.all_stages;
    materialization;
    plancache = plan_cache;
    pc_hits =
      Obs.Metrics.counter reg ~help:"Plan-cache hits (template reused)"
        "hq_plan_cache_hits_total";
    pc_misses =
      Obs.Metrics.counter reg ~help:"Plan-cache misses (full translation)"
        "hq_plan_cache_misses_total";
    pc_bypass =
      Obs.Metrics.counter reg
        ~help:"Queries that bypassed the plan cache (uncacheable)"
        "hq_plan_cache_bypass_total";
    pc_hit_hist =
      Obs.Metrics.histogram reg
        ~help:"End-to-end latency of plan-cache hits (seconds)"
        "hq_plan_cache_hit_seconds";
    temp_counter = 0;
    last_rel_exec = None;
    error_log = [];
    error_count = 0;
    last_cache = "off";
    last_sharded = false;
    last_note = None;
  }

(* every pipeline stage is recorded three ways from one measurement: the
   per-session stage timer (which feeds hqbench's per-layer metrics),
   the shared per-stage latency histograms, and — when the endpoint has
   a query trace open — a child span of that trace. The same bracket also captures the
   coordinator-domain allocation delta ([Obs.Runtime.allocated_bytes])
   so attribution rides along for free, as an attribute of the
   stage's trace span.
   Minor-collection deltas are captured once per query at the endpoint,
   not here: every minor collection stops all domains, so the count is
   process-wide and a per-stage delta would not attribute anything. *)
let stage (t : t) (s : Stage_timer.stage) (f : unit -> 'a) : 'a =
  Obs.Ctx.span t.obs (Stage_timer.stage_name s) (fun () ->
      let start = Obs.Clock.now_ns () in
      let a0 = Obs.Runtime.allocated_bytes () in
      Fun.protect
        ~finally:(fun () ->
          let d = Obs.Clock.seconds_since start in
          let alloc = Obs.Runtime.allocated_bytes () -. a0 in
          Stage_timer.record t.timer s d;
          if alloc > 0.0 then
            Obs.Ctx.add_attr t.obs "alloc_bytes"
              (Obs.Relation.Int (int_of_float alloc));
          Obs.Metrics.observe (List.assoc s t.stage_hists) d)
        f)

(** Destroy the session: promote session variables to the server scope
    (paper Section 3.2.3). *)
let close_session (t : t) = Scopes.destroy_session t.scopes

(* ------------------------------------------------------------------ *)
(* Materialization                                                     *)
(* ------------------------------------------------------------------ *)

let fresh_temp (t : t) : string =
  t.temp_counter <- t.temp_counter + 1;
  Printf.sprintf "hq_temp_%d" t.temp_counter

(** Lower an XTRA tree to executable SQL text, running the Xformer and the
    serializer under their stage timers. *)
let lower (t : t) (rel : I.rel) : string =
  let optimized = stage t Stage_timer.Optimize (fun () -> Xformer.optimize rel) in
  stage t Stage_timer.Serialize (fun () -> Serializer.serialize_to_sql optimized)

(* the binder callback implementing assignment materialization *)
let materialize_cb (t : t) (_ctx : Binder.ctx) (name : string)
    (brel : Binder.bound_rel) : Scopes.vardef =
  ignore name;
  match t.materialization with
  | `Logical -> Scopes.VRel (brel.Binder.rel, brel.Binder.keys)
  | `Physical ->
      let tbl = fresh_temp t in
      let sql = lower t brel.Binder.rel in
      let create = Printf.sprintf "CREATE TEMPORARY TABLE %s AS %s" tbl sql in
      (match
         stage t Stage_timer.Execute (fun () -> Backend.exec t.backend create)
       with
      | Ok _ -> ()
      | Error e -> hq_error "backend" "materialization failed: %s" e);
      let cols = I.output_cols brel.Binder.rel in
      Scopes.VBackendTable
        {
          Scopes.bt_name = tbl;
          bt_cols = cols;
          bt_ordcol = I.order_col brel.Binder.rel;
          bt_keys = brel.Binder.keys;
        }

let make_ctx (t : t) : Binder.ctx =
  {
    Binder.mdi = t.mdi;
    scopes = t.scopes;
    cols = [];
    ordcol = None;
    counter = 0;
    materialize = (fun ctx name brel -> materialize_cb t ctx name brel);
  }

(* ------------------------------------------------------------------ *)
(* Result pivot: typed result columns -> Q vectors                     *)
(* ------------------------------------------------------------------ *)

(* internal helper columns that must not reach the application: anything
   with the hq_ prefix (hq_ord, hq_rowid, hq_rn, ...) *)
let is_internal_col name =
  String.length name > 3
  && String.unsafe_get name 0 = 'h'
  && String.unsafe_get name 1 = 'q'
  && String.unsafe_get name 2 = '_'

module QA = Qvalue.Atom
module QT = Qvalue.Qtype
module Batch = Pgdb.Batch

(** The Q vector of a result column of SQL type [ty], [n] rows long,
    re-tagged from its typed payload. An int payload is already a Q
    vector's: longs, the calendar type [ty] names, or bools; so is a
    float payload. Without a NULL the vector shares it. With one the
    vector holds a copy with the type's null under each NULL: a result
    column may be stored data on the direct backend, and a Q vector is
    never written. A text column's rows point at its dictionary's
    strings: symbols, or chars when every string is one byte long and
    [ty] is not [varchar]. Any other column goes atom by atom through
    {!Typemap.atom_of_value} and {!QV.vector_of_atoms}, whose rules the
    typed paths keep: a NULL takes the element type (bool and char have
    none: [0b], [" "]), an all-NULL column is a long-null vector, mixed
    atoms a general list. An empty column has the Q type of [ty], as
    kdb's does. *)
let vector_of_column (ty : Ty.t) (n : int) (c : Batch.column) : QV.t =
  let null = Batch.is_null c in
  let rec any_value i = i < n && ((not (null i)) || any_value (i + 1)) in
  let boxed () =
    QV.vector_of_atoms
      (Array.init n (fun i -> Typemap.atom_of_value ty (Batch.value_at c i)))
  in
  (* [qt]'s vector holding [payload ()]; all NULL, a long-null vector *)
  let typed qt payload =
    if c.Batch.has_nulls && not (any_value 0) then
      QV.Vector (QT.Long, QV.Ints (Ivec.make n QV.long_null))
    else QV.Vector (qt, payload ())
  in
  let int_vector qt a =
    typed qt (fun () ->
        if not c.Batch.has_nulls then QV.Ints (Ivec.prefix a n)
        else
          let b = Bytes.sub a 0 (8 * n) and nul = QV.null_slot qt in
          for i = 0 to n - 1 do
            if null i then Ivec.unsafe_set_at b (8 * i) nul
          done;
          QV.Ints b)
  in
  if n = 0 then QV.vector (Typemap.qtype_of_sql ty) [||]
  else
    match c.Batch.data with
    | Batch.DInt { kind; ints } -> (
        (* a bigint payload is read as the calendar type [ty] names; a
           calendar or bool one of another type than [ty] goes atom by
           atom, as its values would *)
        match (kind, ty) with
        | Batch.Bigint, Ty.TDate -> int_vector QT.Date ints
        | Batch.Bigint, Ty.TTime -> int_vector QT.Time ints
        | Batch.Bigint, Ty.TTimestamp -> int_vector QT.Timestamp ints
        | Batch.Bigint, _ -> int_vector QT.Long ints
        | kind, ty when Batch.kind_of_type ty <> Some kind -> boxed ()
        | Batch.Date, _ -> int_vector QT.Date ints
        | Batch.Time, _ -> int_vector QT.Time ints
        | Batch.Timestamp, _ -> int_vector QT.Timestamp ints
        | Batch.Bool, _ -> int_vector QT.Bool ints)
    | Batch.DFloat a ->
        typed QT.Float (fun () ->
            if not c.Batch.has_nulls then
              QV.Floats (if Array.length a = n then a else Array.sub a 0 n)
            else
              let b = Array.sub a 0 n in
              for i = 0 to n - 1 do
                if null i then Array.unsafe_set b i Float.nan
              done;
              QV.Floats b)
    | Batch.DStr { codes; dict } -> (
        let str i = dict.(codes.(i)) in
        let syms () =
          typed QT.Sym (fun () ->
              let out = Array.make n "" in
              (* without NULLs, no call per row *)
              if c.Batch.has_nulls then
                for i = 0 to n - 1 do
                  if not (null i) then Array.unsafe_set out i dict.(codes.(i))
                done
              else
                for i = 0 to n - 1 do
                  Array.unsafe_set out i dict.(codes.(i))
                done;
              QV.Syms out)
        in
        if ty = Ty.TVarchar then syms ()
        else
          (* a text column pivots one-byte strings to chars, others to
             symbols; a column with both is a general list *)
          let ones = ref 0 and used = ref 0 in
          for i = 0 to n - 1 do
            if not (null i) then begin
              incr used;
              if String.length (str i) = 1 then incr ones
            end
          done;
          if !ones = 0 then syms ()
          else if !ones = !used then
            typed QT.Char (fun () ->
                QV.Chars
                  (Bytes.init n (fun i ->
                       if null i then ' ' else String.unsafe_get (str i) 0)))
          else boxed ())
    | Batch.DVal _ -> boxed ()

let table_of_result (res : Backend.result) : QV.table =
  let n = res.Backend.res_nrows in
  if Array.length res.Backend.res_columns <> List.length res.Backend.res_cols
  then
    hq_error "pivot" "backend result has %d columns, expected %d"
      (Array.length res.Backend.res_columns)
      (List.length res.Backend.res_cols);
  let data = ref [] in
  List.iteri
    (fun j (name, ty) ->
      if not (is_internal_col name) then
        data := (name, vector_of_column ty n res.Backend.res_columns.(j)) :: !data)
    res.Backend.res_cols;
  QV.table (List.rev !data)

let pivot (res : Backend.result) (shape : Binder.rshape) : QV.t =
  let tbl = table_of_result res in
  match shape with
  | Binder.RTable -> QV.Table tbl
  | Binder.RKeyed keys -> QV.xkey keys tbl
  | Binder.RVector col -> QV.column_exn tbl col
  | Binder.RDict (keys, vals) ->
      let kcol =
        match keys with
        | [ k ] -> QV.column_exn tbl k
        | ks -> QV.List (Array.of_list (List.map (QV.column_exn tbl) ks))
      in
      let vcol =
        match vals with
        | [ v ] -> QV.column_exn tbl v
        | vs -> QV.List (Array.of_list (List.map (QV.column_exn tbl) vs))
      in
      QV.Dict (kcol, vcol)
  | Binder.RAtom ->
      if res.Backend.res_nrows = 0 then QV.List [||]
      else QV.index (QV.Table tbl) 0 |> fun row ->
        (match row with
         | QV.Dict (_, vals) when QV.length vals = 1 -> QV.index vals 0
         | v -> v)

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

type run_result = {
  value : QV.t option;  (** None for definitions/assignments *)
  sqls : string list;  (** SQL statements sent for this Q statement *)
}

let execute_rel (t : t) (brel : Binder.bound_rel) : QV.t * string list =
  let sql_before = Backend.log_mark t.backend in
  let optimized =
    stage t Stage_timer.Optimize (fun () -> Xformer.optimize brel.Binder.rel)
  in
  let sharded_run =
    match t.sharder with
    | Some sh -> sh.sh_route optimized
    | None -> None
  in
  match sharded_run with
  | Some run ->
      (* the sharder claimed this statement: fan out + gather instead of
         serializing for the coordinator backend. Not an install
         candidate for the plan cache — a template would replay the
         statement on the coordinator alone. *)
      let res =
        stage t Stage_timer.Execute (fun () ->
            (* mark the execute span: its children are the per-shard
               [shard_exec] spans the cluster opens, not a coordinator
               backend round trip *)
            Obs.Ctx.add_attr t.obs "sharded" (Obs.Relation.Int 1);
            match run () with
            | Ok r -> r
            | Error e -> hq_error "backend" "%s" e)
      in
      let sent = Backend.sql_since t.backend sql_before in
      let value =
        stage t Stage_timer.Pivot (fun () -> pivot res brel.Binder.shape)
      in
      t.last_rel_exec <- None;
      t.last_sharded <- true;
      (value, sent)
  | None ->
      let sql =
        stage t Stage_timer.Serialize (fun () ->
            Serializer.serialize_to_sql optimized)
      in
      if Obs.Log.enabled t.obs.Obs.Ctx.log Obs.Log.Debug then
        Obs.Log.debug t.obs.Obs.Ctx.log ~trace_id:(Obs.Ctx.trace_id t.obs)
          "generated sql"
          [ ("sql", Obs.Relation.Str sql) ];
      let res =
        stage t Stage_timer.Execute (fun () ->
            match Backend.exec t.backend sql with
            | Ok (Backend.Result_set r) -> r
            | Ok (Backend.Command_ok tag) ->
                hq_error "backend" "expected rows, got %s" tag
            | Error e -> hq_error "backend" "%s" e)
      in
      let sent = Backend.sql_since t.backend sql_before in
      let value =
        stage t Stage_timer.Pivot (fun () -> pivot res brel.Binder.shape)
      in
      t.last_rel_exec <- Some (brel.Binder.rel, sql, brel.Binder.shape);
      (value, sent)

(* a context-free scalar evaluates via a FROM-less SELECT *)
let execute_scalar (t : t) (s : I.scalar) : QV.t =
  let optimized =
    stage t Stage_timer.Optimize (fun () -> Xformer.two_valued_scalar s)
  in
  let sql =
    stage t Stage_timer.Serialize (fun () ->
        let st_expr = Serializer.sql_of_scalar optimized in
        A.select_str
          { A.empty_select with projs = [ { A.p_expr = st_expr; p_alias = Some "value" } ] })
  in
  let res =
    stage t Stage_timer.Execute (fun () ->
        match Backend.exec t.backend sql with
        | Ok (Backend.Result_set r) -> r
        | Ok (Backend.Command_ok tag) ->
            hq_error "backend" "expected rows, got %s" tag
        | Error e -> hq_error "backend" "%s" e)
  in
  match (res.Backend.res_cols, res.Backend.res_nrows) with
  | [ (_, ty) ], 1 ->
      QV.Atom
        (Typemap.atom_of_value ty
           (Batch.value_at res.Backend.res_columns.(0) 0))
  | _ -> hq_error "backend" "scalar query returned a non-scalar result"

(* a bound literal's Q atom: constants do not need the backend *)
let atom_of_lit ((l, ty) : A.lit * Ty.t) : QA.t =
  Typemap.atom_of_value ty
    (match l with
    | A.Null -> Pgdb.Value.Null
    | A.Bool b -> Pgdb.Value.Bool b
    | A.Int i -> Pgdb.Value.Int i
    | A.Float f -> Pgdb.Value.Float f
    | A.Str s -> (
        match ty with
        | Ty.TDate | Ty.TTime | Ty.TTimestamp -> Pgdb.Value.of_text ty s
        | _ -> Pgdb.Value.Str s))

let value_of_list (ls : (A.lit * Ty.t) list) : QV.t =
  QV.vector_of_atoms (Array.of_list (List.map atom_of_lit ls))

(** Execute one parsed Q statement. *)
let run_statement (t : t) (stmt : Ast.expr) : run_result =
  let ctx = make_ctx t in
  match stmt with
  | Ast.Assign (name, rhs) | Ast.GlobalAssign (name, rhs) ->
      let v = stage t Stage_timer.Algebrize (fun () -> Binder.bind ctx rhs) in
      let def =
        match v with
        | Binder.BScalar (I.Const (l, ty)) -> Scopes.VScalar (l, ty)
        | Binder.BList ls -> Scopes.VList ls
        | Binder.BFun f -> Scopes.VFunction f
        | Binder.BRel r -> materialize_cb t ctx name r
        | Binder.BScalar _ ->
            hq_error "bind" "cannot assign a column expression to %s" name
        | Binder.BPrim p -> hq_error "bind" "cannot assign primitive %s" p
      in
      (match stmt with
      | Ast.GlobalAssign _ -> Scopes.upsert_global t.scopes name def
      | _ -> Scopes.upsert t.scopes name def);
      { value = None; sqls = [] }
  | stmt ->
      let sql_mark = Backend.log_mark t.backend in
      let v = stage t Stage_timer.Algebrize (fun () -> Binder.bind ctx stmt) in
      let value =
        match v with
        | Binder.BRel brel -> fst (execute_rel t brel)
        | Binder.BScalar (I.Const (l, ty)) -> QV.Atom (atom_of_lit (l, ty))
        | Binder.BScalar s -> execute_scalar t s
        | Binder.BList ls -> value_of_list ls
        | Binder.BFun l -> QV.string_ (Ast.to_string (Ast.Lambda l))
        | Binder.BPrim p -> QV.string_ p
      in
      let sqls = Backend.sql_since t.backend sql_mark in
      { value = Some value; sqls }

(* the full pipeline: parse the analyzed tokens and execute every
   statement *)
let run_program_uncached (t : t) (an : F.analysis) : run_result =
  let stmts =
    stage t Stage_timer.Parse (fun () -> Qlang.Parser.parse_analysis an)
  in
  match stmts with
  | [] -> { value = None; sqls = [] }
  | stmts ->
      List.fold_left
        (fun _ stmt -> run_statement t stmt)
        { value = None; sqls = [] }
        stmts

(* ------------------------------------------------------------------ *)
(* Plan cache fast path                                                *)
(* ------------------------------------------------------------------ *)

(* A cacheable statement must be self-contained: a rel that reads a
   session temp table depends on state the generation counters do not
   version. A literal table is inlined into the SQL, but its rows are
   not literals the template could splice, so a template would only
   ever match the same table again. *)
let rec rel_reads_temp_or_literal (r : I.rel) : bool =
  match r with
  | I.Get { table; _ } ->
      String.length table >= 8
      && String.lowercase_ascii (String.sub table 0 8) = "hq_temp_"
  | I.ConstRel _ -> true
  | I.Project p -> rel_reads_temp_or_literal p.input
  | I.Filter f -> rel_reads_temp_or_literal f.input
  | I.Join { left; right; _ } | I.AsofJoin { left; right; _ } ->
      rel_reads_temp_or_literal left || rel_reads_temp_or_literal right
  | I.Aggregate a -> rel_reads_temp_or_literal a.input
  | I.WindowOp w -> rel_reads_temp_or_literal w.input
  | I.Sort s -> rel_reads_temp_or_literal s.input
  | I.Limit l -> rel_reads_temp_or_literal l.input
  | I.Union rels -> List.exists rel_reads_temp_or_literal rels

let cache_key (t : t) (fp : string) (sg : string) : Plancache.key =
  let session_gen, server_gen = Scopes.generations t.scopes in
  {
    Plancache.k_fingerprint = fp;
    k_signature = sg;
    k_session = Scopes.session_id t.scopes;
    k_session_gen = session_gen;
    k_server_gen = server_gen;
    k_catalog_gen = Mdi.generation t.mdi;
    k_shard_gen =
      (match t.sharder with
      | None -> 0
      | Some sh -> sh.sh_generation ());
    k_struct = "";
  }

(* Install a template for a statement the slow path just ran: re-translate
   the query's tokens with sentinel literal tokens swapped in (no stage
   timers, no backend traffic, no Q text), locate each sentinel's
   rendering in the generated SQL, and accept the template only if
   splicing the original literals back reproduces the original SQL byte
   for byte. A position whose sentinel never appears is structure: its
   token stays as it is in the next sentinel translation, and its value
   extends the key. Each round makes at least one more position
   structural, so the loop ends. Deterministic failures are negatively
   cached so the same shape does not retry on every miss. *)
let install_template (t : t) (pc : Plancache.t) (an : F.analysis)
    ~(params : Plancache.param array) ~(sql : string) ~(shape : Binder.rshape)
    ~(key : Plancache.key) : unit =
  let store key kind = Plancache.store pc key ~norm:an.F.a_norm kind in
  let negative reason = store key (Plancache.Uncacheable reason) in
  let mark = Backend.log_mark t.backend in
  let translate sentinel_toks =
    match Qlang.Parser.parse_tokens sentinel_toks with
    | [ stmt ] -> (
        match Binder.bind (make_ctx t) stmt with
        | Binder.BRel brel when brel.Binder.shape = shape ->
            Some (Serializer.serialize_to_sql (Xformer.optimize brel.Binder.rel))
        | _ -> None)
    | _ -> None
  in
  let rec attempt structural =
    let start = Obs.Clock.now_ns () in
    match Plancache.sentinel_rewrite ~structural an with
    | None -> ()
    | Some (sentinel_toks, sentinels) -> (
        match translate sentinel_toks with
        | exception _ -> negative "sentinel translation failed"
        | None -> negative "sentinel translation changed shape"
        | Some _ when Backend.log_mark t.backend <> mark ->
            (* the sentinel bind touched the backend (an MDI refetch) —
               possibly transient, so skip without a negative entry *)
            ()
        | Some sentinel_sql -> (
            let translate_s = Obs.Clock.seconds_since start in
            match
              Plancache.split ~sentinel_sql ~shape ~translate_s ~structural
                (Array.map Plancache.render sentinels)
            with
            | Error (`Lost lost) ->
                attempt (Plancache.widen_to_literals an (structural @ lost))
            | Error `Overlap -> negative "sentinel renderings overlap"
            | Ok tpl when Plancache.splice tpl params <> sql ->
                negative "template validation failed"
            | Ok tpl when structural = [] -> store key (Plancache.Template tpl)
            | Ok tpl ->
                store key (Plancache.Structural structural);
                store
                  (Plancache.structural_key key structural params)
                  (Plancache.Template tpl)))
  in
  attempt []

(* Execute a template hit: splice the literals, jump straight to
   Execute→Pivot. Returns None if the backend rejects the spliced SQL —
   the entry is stale in a way the generations did not capture, so the
   caller drops it and recovers through the full pipeline. *)
let run_cached_hit (t : t) (tpl : Plancache.template)
    (params : Plancache.param array) : run_result option =
  let start = Obs.Clock.now_ns () in
  let sql = Plancache.splice tpl params in
  let mark = Backend.log_mark t.backend in
  match stage t Stage_timer.Execute (fun () -> Backend.exec t.backend sql) with
  | Ok (Backend.Result_set res) ->
      let value =
        stage t Stage_timer.Pivot (fun () -> pivot res tpl.Plancache.tp_shape)
      in
      Obs.Metrics.observe t.pc_hit_hist (Obs.Clock.seconds_since start);
      Some { value = Some value; sqls = Backend.sql_since t.backend mark }
  | Ok (Backend.Command_ok _) | Error _ -> None

let run_program_cached (t : t) (pc : Plancache.t) (an : F.analysis) :
    run_result =
  let bypass () =
    Obs.Metrics.inc t.pc_bypass;
    t.last_cache <- "bypass";
    run_program_uncached t an
  in
  if Result.is_error an.F.a_tokens || an.F.a_statements <> 1 then bypass ()
  else
    match Plancache.signature an with
    | None -> bypass ()
    | Some (sg, params) -> (
        let key = cache_key t an.F.a_fingerprint sg in
        let miss () =
          Obs.Metrics.inc t.pc_misses;
          t.last_cache <- "miss";
          let gens0 = Scopes.generations t.scopes in
          let catalog0 = Mdi.generation t.mdi in
          let mark0 = Backend.log_mark t.backend in
          let temps0 = t.temp_counter in
          t.last_rel_exec <- None;
          let r = run_program_uncached t an in
          (match t.last_rel_exec with
          | Some (rel, sql, shape)
            when Backend.log_mark t.backend - mark0 = 1
                 && t.temp_counter = temps0
                 && Scopes.generations t.scopes = gens0
                 && Mdi.generation t.mdi = catalog0
                 && not (rel_reads_temp_or_literal rel) ->
              (* single read-only relational statement, no assignment, no
                 materialization, no catalog movement: install a template *)
              install_template t pc an ~params ~sql ~shape ~key
          | _ -> ());
          r
        in
        match Plancache.lookup pc key params with
        | Some { Plancache.e_kind = Plancache.Uncacheable _; _ } -> bypass ()
        | Some ({ Plancache.e_kind = Plancache.Template tpl; _ } as e) -> (
            match run_cached_hit t tpl params with
            | Some r ->
                Obs.Metrics.inc t.pc_hits;
                t.last_cache <- "hit";
                Plancache.note_hit e;
                r
            | None ->
                Plancache.remove pc e.Plancache.e_key;
                miss ())
        | Some { Plancache.e_kind = Plancache.Structural _; _ } | None -> miss ())

(** Parse and execute an analyzed Q program; returns the last
    statement's result. With the plan cache enabled, single-statement
    queries whose shape is cached skip the translation pipeline
    entirely. *)
let run_program (t : t) (an : F.analysis) : run_result =
  Backend.begin_request t.backend;
  t.last_sharded <- false;
  t.last_cache <- "off";
  let r =
    match t.plancache with
    | None -> run_program_uncached t an
    | Some pc -> run_program_cached t pc an
  in
  t.last_note <-
    Some
      {
        pn_cache = t.last_cache;
        pn_sharded = t.last_sharded;
        pn_statements = List.length r.sqls;
      };
  r

(** Translate without executing: returns the serialized SQL for a single
    Q query (used by tests, examples and the REPL's \\sql). *)
let translate (t : t) (src : string) : string =
  let stmts =
    stage t Stage_timer.Parse (fun () ->
        Qlang.Parser.parse_analysis (F.analyze src))
  in
  let stmt =
    match stmts with
    | [ s ] -> s
    | _ -> hq_error "parse" "translate expects a single statement"
  in
  let ctx = make_ctx t in
  let v = stage t Stage_timer.Algebrize (fun () -> Binder.bind ctx stmt) in
  match v with
  | Binder.BRel brel -> lower t brel.Binder.rel
  | _ -> hq_error "bind" "translate expects a table query"

(** The per-session stage timer, for benchmarking. *)
let timer (t : t) = t.timer

(** The observability context stages are recorded into. *)
let obs (t : t) = t.obs

(** The session's metadata interface (cache statistics, invalidation). *)
let mdi (t : t) = t.mdi

(** The session's plan cache, when enabled. *)
let plan_cache (t : t) = t.plancache

(** How the last [run_program] moved through the pipeline: plan-cache
    outcome, whether a sharded path executed, statements produced. *)
let last_note (t : t) = t.last_note

let error_log_limit = 100

(** Convenience wrapper turning all Hyper-Q failure modes into a
    result. *)
let try_run (t : t) (an : F.analysis) : (run_result, string) result =
  let fail msg =
    (* keep a bounded log of failures with their query text: verbose,
       attributable errors are one of the ways Hyper-Q improves on kdb+'s
       terse signals (paper Section 5). The bound is enforced with an
       explicit length counter and amortized truncation — recomputing
       List.length and rebuilding the list on every failure made this
       O(n²) across a failure burst *)
    t.error_log <- (an.F.a_src, msg) :: t.error_log;
    t.error_count <- t.error_count + 1;
    if t.error_count > 2 * error_log_limit then begin
      t.error_log <-
        List.filteri (fun i _ -> i < error_log_limit) t.error_log;
      t.error_count <- error_log_limit
    end;
    Obs.Log.error t.obs.Obs.Ctx.log ~trace_id:(Obs.Ctx.trace_id t.obs)
      "query failed"
      [
        ("error", Obs.Relation.Str msg); ("query", Obs.Relation.Str an.F.a_src);
      ];
    Error msg
  in
  match run_program t an with
  | r -> Ok r
  | exception Hq_error { category; message } ->
      fail (Printf.sprintf "[%s] %s" category message)
  | exception Binder.Unsupported m -> fail (Printf.sprintf "[unsupported] %s" m)
  | exception I.Bind_error m -> fail (Printf.sprintf "[bind] %s" m)
  | exception Serializer.Serialize_error m ->
      fail (Printf.sprintf "[serialize] %s" m)
  | exception Qlang.Lexer.Error m -> fail (Printf.sprintf "[parse] %s" m)
  | exception Qlang.Parser.Error m -> fail (Printf.sprintf "[parse] %s" m)

(** The most recent failures, [(query, categorised error)], newest first —
    the improved error logging of Section 5. At most {!error_log_limit}
    entries. *)
let recent_errors (t : t) : (string * string) list =
  if t.error_count <= error_log_limit then t.error_log
  else List.filteri (fun i _ -> i < error_log_limit) t.error_log
