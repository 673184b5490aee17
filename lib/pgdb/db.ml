(** The pgdb database facade: catalog, sessions, DDL and query execution.

    Sessions own temporary tables (dropped on close), matching how Hyper-Q
    materializes Q variables per session (paper Section 4.3). The catalog is
    also exposed as a queryable table [pg_catalog_columns] so that Hyper-Q's
    metadata interface performs *real* round trips — this is what the
    metadata-cache ablation benchmark measures. *)

module A = Sqlast.Ast
module S = Catalog.Schema

type stmt_entry = { se_stmt : A.stmt; mutable se_last_use : int }

type t = {
  tables : (string, Storage.table) Hashtbl.t;
  mutable catalog_dirty : bool;
  stmts : (string, stmt_entry) Hashtbl.t;
      (** bounded SQL-text → parsed-statement cache (PG prepared-statement
          emulation): repeated statements skip [Sql_parser.parse] *)
  mutable stmt_tick : int;  (** LRU clock for [stmts] *)
}

type session = {
  db : t;
  temps : (string, Storage.table) Hashtbl.t;
  session_id : int;
  mutable analyze : bool;
      (** collect per-operator statistics for every SELECT (ANALYZE mode) *)
  mutable last_plan : Opstats.node option;
      (** operator-stats tree of the last SELECT run with [analyze] on *)
}

type outcome =
  | Rows of Exec.result * string  (** result set + command tag *)
  | Complete of string  (** command tag only *)

let catalog_table_name = "pg_catalog_columns"

let create () =
  {
    tables = Hashtbl.create 32;
    catalog_dirty = true;
    stmts = Hashtbl.create 64;
    stmt_tick = 0;
  }

(* Atomic: shard worker domains open their own sessions concurrently *)
let session_counter = Atomic.make 0

let open_session db =
  let id = Atomic.fetch_and_add session_counter 1 + 1 in
  {
    db;
    temps = Hashtbl.create 8;
    session_id = id;
    analyze = false;
    last_plan = None;
  }

let close_session (s : session) = Hashtbl.reset s.temps

let set_analyze (s : session) (on : bool) =
  s.analyze <- on;
  if not on then s.last_plan <- None

let last_plan (s : session) : Opstats.node option = s.last_plan

(* ------------------------------------------------------------------ *)
(* Catalog maintenance                                                 *)
(* ------------------------------------------------------------------ *)

let catalog_def =
  S.table catalog_table_name
    [
      S.column "table_name" Catalog.Sqltype.TText;
      S.column "column_name" Catalog.Sqltype.TText;
      S.column "type_name" Catalog.Sqltype.TText;
      S.column "ordinal" Catalog.Sqltype.TBigint;
      S.column "is_key" Catalog.Sqltype.TBool;
      S.column "is_order_col" Catalog.Sqltype.TBool;
    ]

(** Rebuild the queryable catalog table from the schema objects. *)
let refresh_catalog (db : t) =
  if db.catalog_dirty then begin
    let rows = ref [] in
    Hashtbl.iter
      (fun name (tbl : Storage.table) ->
        if name <> catalog_table_name then
          List.iteri
            (fun i (c : S.column) ->
              rows :=
                [|
                  Value.Str name;
                  Value.Str c.S.col_name;
                  Value.Str (Catalog.Sqltype.name c.S.col_type);
                  Value.Int (Int64.of_int i);
                  Value.Bool (List.mem c.S.col_name tbl.Storage.def.S.tbl_keys);
                  Value.Bool
                    (tbl.Storage.def.S.tbl_order_col = Some c.S.col_name);
                |]
                :: !rows)
            tbl.Storage.def.S.tbl_columns)
      db.tables;
    Hashtbl.replace db.tables catalog_table_name
      (Storage.create catalog_def
         (Batch.of_rows ~width:6 (Array.of_list (List.rev !rows))));
    db.catalog_dirty <- false
  end

let invalidate_catalog db = db.catalog_dirty <- true

(* ------------------------------------------------------------------ *)
(* Table resolution                                                    *)
(* ------------------------------------------------------------------ *)

(* a relation name as {!Vexec} sees it: the session's temp tables
   shadow base tables *)
let resolve (sess : session) (name : string) : Exec.binding list * Batch.t =
  let lname = String.lowercase_ascii name in
  if lname = catalog_table_name then refresh_catalog sess.db;
  let tbl =
    match Hashtbl.find_opt sess.temps lname with
    | Some t -> Some t
    | None -> Hashtbl.find_opt sess.db.tables lname
  in
  match tbl with
  | Some tbl ->
      let bindings =
        List.map
          (fun (c : S.column) ->
            {
              Exec.b_qual = None;
              b_name = c.S.col_name;
              b_type = Some c.S.col_type;
            })
          tbl.Storage.def.S.tbl_columns
      in
      (bindings, tbl.Storage.batch)
  | None -> Errors.undefined_table "relation %s does not exist" name

let run_select (sess : session) (sel : A.select) : Exec.result =
  let o = Vexec.run ~resolve:(resolve sess) ~collect:sess.analyze sel in
  if sess.analyze then sess.last_plan <- o.Vexec.vr_plan;
  o.Vexec.vr_result

(* ------------------------------------------------------------------ *)
(* DDL / DML                                                           *)
(* ------------------------------------------------------------------ *)

(* tables and temp tables share one namespace *)
let table_exists sess name =
  let lname = String.lowercase_ascii name in
  Hashtbl.mem sess.temps lname || Hashtbl.mem sess.db.tables lname

let table_of_result name temp (res : Exec.result) : Storage.table =
  Storage.create
    (S.table ~temp name
       (List.map (fun (n, ty) -> S.column n ty) res.Exec.res_cols))
    (Batch.of_columns res.Exec.res_nrows res.Exec.res_columns)

(** Execute one parsed statement. *)
let exec_stmt (sess : session) (stmt : A.stmt) : outcome =
  match stmt with
  | A.Select sel ->
      let res = run_select sess sel in
      Rows (res, Printf.sprintf "SELECT %d" res.Exec.res_nrows)
  | A.CreateTable { ct_if_not_exists = true; ct_name; _ }
    when table_exists sess ct_name ->
      Complete "CREATE TABLE"
  | A.CreateTable { ct_temp; ct_name; ct_cols; _ } ->
      let lname = String.lowercase_ascii ct_name in
      if table_exists sess lname then
        Errors.duplicate_table "relation %s already exists" ct_name;
      let def =
        S.table ~temp:ct_temp lname
          (List.map (fun c -> S.column c.A.cd_name c.A.cd_type) ct_cols)
      in
      let tbl = Storage.create def (Batch.empty ~width:(List.length ct_cols)) in
      if ct_temp then Hashtbl.replace sess.temps lname tbl
      else begin
        Hashtbl.replace sess.db.tables lname tbl;
        invalidate_catalog sess.db
      end;
      Complete "CREATE TABLE"
  | A.CreateTableAs { cta_if_not_exists = true; cta_name; _ }
    when table_exists sess cta_name ->
      (* PostgreSQL skips the query too, and answers the statement's own
         tag rather than a row count *)
      Complete "CREATE TABLE AS"
  | A.CreateTableAs { cta_temp; cta_name; cta_query; _ } ->
      let lname = String.lowercase_ascii cta_name in
      if table_exists sess lname then
        Errors.duplicate_table "relation %s already exists" cta_name;
      let res = run_select sess cta_query in
      let tbl = table_of_result lname cta_temp res in
      if cta_temp then Hashtbl.replace sess.temps lname tbl
      else begin
        Hashtbl.replace sess.db.tables lname tbl;
        invalidate_catalog sess.db
      end;
      Complete
        (Printf.sprintf "SELECT %d" res.Exec.res_nrows)
  | A.InsertValues { ins_table; ins_cols; rows } ->
      let lname = String.lowercase_ascii ins_table in
      let tbl =
        match Hashtbl.find_opt sess.temps lname with
        | Some t -> t
        | None -> (
            match Hashtbl.find_opt sess.db.tables lname with
            | Some t -> t
            | None -> Errors.undefined_table "relation %s does not exist" ins_table)
      in
      let columns = tbl.Storage.def.S.tbl_columns in
      let width = List.length columns in
      let positions =
        if ins_cols = [] then List.init width (fun i -> i)
        else
          List.map
            (fun c ->
              match Storage.column_index tbl c with
              | Some i -> i
              | None -> Errors.undefined_column "column %s does not exist" c)
            ins_cols
      in
      let typed_rows =
        Array.map
          (fun lits ->
            let row = Array.make width Value.Null in
            List.iteri
              (fun j lit ->
                match List.nth_opt positions j with
                | Some i ->
                    let col = List.nth columns i in
                    let v = Value.of_lit lit in
                    let v =
                      match v with
                      | Value.Str _ | Value.Null -> (
                          try Value.cast col.S.col_type v with _ -> v)
                      | v -> v
                    in
                    row.(i) <- v
                | None -> ())
              lits;
            row)
          (Array.of_list rows)
      in
      tbl.Storage.batch <- Batch.append tbl.Storage.batch typed_rows;
      Complete (Printf.sprintf "INSERT 0 %d" (List.length rows))
  | A.DropTable { if_exists; name } ->
      let lname = String.lowercase_ascii name in
      if Hashtbl.mem sess.temps lname then begin
        Hashtbl.remove sess.temps lname;
        Complete "DROP TABLE"
      end
      else if Hashtbl.mem sess.db.tables lname then begin
        Hashtbl.remove sess.db.tables lname;
        invalidate_catalog sess.db;
        Complete "DROP TABLE"
      end
      else if if_exists then Complete "DROP TABLE"
      else Errors.undefined_table "relation %s does not exist" name

(* ------------------------------------------------------------------ *)
(* Statement cache (PG prepared-statement emulation)                    *)
(* ------------------------------------------------------------------ *)

let stmt_cache_capacity = 256

(* process-wide (hence Atomic: every shard backend parses through its
   own Db but bumps these shared counters), mirrored into the metrics
   registry by the endpoint *)
let stmt_cache_hits = Atomic.make 0
let stmt_cache_misses = Atomic.make 0
let stmt_cache_evictions = Atomic.make 0

(** (hits, misses, evictions) of the statement cache, process-wide. *)
let stmt_cache_stats () =
  ( Atomic.get stmt_cache_hits,
    Atomic.get stmt_cache_misses,
    Atomic.get stmt_cache_evictions )

(* Statements arrive decorated with a trailing [/* traceparent... */]
   comment that changes per query; key the cache on the text with that
   trailing comment stripped so decoration doesn't defeat reuse. A tiny
   scan tracks string literals and comment bodies, so a [/*] inside a
   string never counts as a comment open and quotes inside the comment
   (the traceparent is quoted) never count as string opens. Only a
   comment that runs unbroken to the end of the text is stripped. *)
let strip_trailing_comment (sql : string) : string =
  let rec rstrip i = if i > 0 && sql.[i - 1] <= ' ' then rstrip (i - 1) else i in
  let e = rstrip (String.length sql) in
  if e < 4 || sql.[e - 1] <> '/' || sql.[e - 2] <> '*' then sql
  else begin
    let trailing = ref (-1) in
    let in_string = ref false in
    let i = ref 0 in
    while !i < e do
      let c = sql.[!i] in
      if !in_string then begin
        if c = '\'' then in_string := false;
        incr i
      end
      else if c = '\'' then begin
        in_string := true;
        incr i
      end
      else if c = '/' && !i + 1 < e && sql.[!i + 1] = '*' then begin
        let p = !i in
        i := !i + 2;
        let closed = ref false in
        while (not !closed) && !i < e do
          if sql.[!i] = '*' && !i + 1 < e && sql.[!i + 1] = '/' then begin
            i := !i + 2;
            closed := true
          end
          else incr i
        done;
        if !i >= e then trailing := p
      end
      else incr i
    done;
    if !in_string || !trailing < 0 then sql
    else String.sub sql 0 (rstrip !trailing)
  end

let evict_lru (db : t) =
  let victim = ref None in
  Hashtbl.iter
    (fun key (en : stmt_entry) ->
      match !victim with
      | Some (_, age) when age <= en.se_last_use -> ()
      | _ -> victim := Some (key, en.se_last_use))
    db.stmts;
  match !victim with
  | Some (key, _) ->
      Hashtbl.remove db.stmts key;
      Atomic.incr stmt_cache_evictions
  | None -> ()

(* The cached statement for [key], counted as a hit, if there is one *)
let cache_find (db : t) (key : string) : A.stmt option =
  db.stmt_tick <- db.stmt_tick + 1;
  match Hashtbl.find_opt db.stmts key with
  | Some en ->
      Atomic.incr stmt_cache_hits;
      en.se_last_use <- db.stmt_tick;
      Some en.se_stmt
  | None -> None

(* Cache [stmt] under [key]; the caller has counted the miss *)
let cache_add (db : t) (key : string) (stmt : A.stmt) =
  if Hashtbl.length db.stmts >= stmt_cache_capacity then evict_lru db;
  Hashtbl.replace db.stmts key { se_stmt = stmt; se_last_use = db.stmt_tick }

(** Parse one SQL statement through the bounded statement cache: repeats
    of the same text (modulo the trailing trace comment) reuse the
    already-parsed AST. Parse errors propagate and are never cached. *)
let parse_cached (db : t) (sql : string) : A.stmt =
  let key = strip_trailing_comment sql in
  match cache_find db key with
  | Some stmt -> stmt
  | None ->
      Atomic.incr stmt_cache_misses;
      let stmt = Sql_parser.parse key in
      cache_add db key stmt;
      stmt

(** Parse and execute one SQL statement. *)
let exec (sess : session) (sql : string) : outcome =
  exec_stmt sess (parse_cached sess.db sql)

(** Execute a script of statements, returning the last outcome. The
    single-statement case — every statement the proxy dispatches over
    the PG v3 wire — goes through the statement cache; genuinely
    multi-statement scripts are parsed afresh. *)
let exec_script (sess : session) (sql : string) : outcome =
  let key = strip_trailing_comment sql in
  match cache_find sess.db key with
  | Some stmt -> exec_stmt sess stmt
  | None -> (
      match Sql_parser.parse_many sql with
      | [] -> Complete "EMPTY"
      | [ stmt ] ->
          Atomic.incr stmt_cache_misses;
          cache_add sess.db key stmt;
          exec_stmt sess stmt
      | stmts ->
          List.fold_left (fun _ s -> exec_stmt sess s) (Complete "EMPTY") stmts)

(** Parse the one statement of an extended-protocol Parse message through
    the statement cache, with the key and counters {!exec_script} uses
    for a single statement. [None] for an empty query; more than one
    statement is 42601, as in PG. *)
let prepare (db : t) (sql : string) : A.stmt option =
  let key = strip_trailing_comment sql in
  match cache_find db key with
  | Some stmt -> Some stmt
  | None -> (
      match Sql_parser.parse_many sql with
      | [] -> None
      | [ stmt ] ->
          Atomic.incr stmt_cache_misses;
          cache_add db key stmt;
          Some stmt
      | _ ->
          Errors.syntax_error
            "cannot insert multiple commands into a prepared statement")

(* ------------------------------------------------------------------ *)
(* Bulk loading and direct catalog access (used by tests, the workload
   generator and Hyper-Q's MDI fast path)                              *)
(* ------------------------------------------------------------------ *)

(** Create (or replace) a permanent table with the given definition and
    columns, bypassing SQL — the paper assumes data is loaded into the
    backend independently. The batch is never written, so several
    databases may share it. *)
let add_table (db : t) (def : S.table_def) (batch : Batch.t) =
  let lname = String.lowercase_ascii def.S.tbl_name in
  Hashtbl.replace db.tables lname
    (Storage.create { def with S.tbl_name = lname } batch);
  invalidate_catalog db

(** {!add_table} over row-major rows, pivoted once. *)
let load_table (db : t) (def : S.table_def) (rows : Value.t array list) =
  add_table db def
    (Batch.of_rows ~width:(List.length def.S.tbl_columns) (Array.of_list rows))

let describe_table (sess : session) (name : string) : S.table_def option =
  let lname = String.lowercase_ascii name in
  match Hashtbl.find_opt sess.temps lname with
  | Some t -> Some t.Storage.def
  | None -> (
      match Hashtbl.find_opt sess.db.tables lname with
      | Some t -> Some t.Storage.def
      | None -> None)

let list_tables (db : t) : string list =
  Hashtbl.fold (fun name _ acc -> name :: acc) db.tables []
  |> List.filter (fun n -> n <> catalog_table_name)
  |> List.sort String.compare
