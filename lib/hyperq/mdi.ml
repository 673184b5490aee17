(** MetaData Interface (paper Section 3.2.3, bottom of Figure 3).

    The binder resolves table references by querying the backend's catalog.
    Each uncached lookup is a real SQL round trip against
    [pg_catalog_columns]; because metadata changes rarely, Hyper-Q keeps a
    cache with an expiration budget and explicit invalidation (Section 6:
    "experiments are conducted with metadata caching enabled"). *)

module S = Catalog.Schema
module Ty = Catalog.Sqltype

(* entries expire after this many lookups (a stand-in for wall-clock
   expiry so tests and benches are deterministic) *)
let max_age_lookups = 10_000

type entry = { def : S.table_def; mutable age : int }

type t = {
  backend : Backend.t;
  cache : (string, entry) Hashtbl.t;
  mutable lookups : int;  (** total lookup calls *)
  mutable misses : int;  (** lookups that hit the backend *)
  mutable generation : int;
      (** catalog generation: bumped whenever this interface learns the
          catalog may have changed — explicit invalidation, DDL observed
          through {!Backend.exec}, or a refetch that returns a different
          definition. Cached translations embed the generation they were
          bound under; a bump makes them unreachable. *)
}

(* Catalog-changing statement? CREATE, DROP or ALTER, except CREATE
   TEMPORARY/TEMP, which the translator itself issues for
   materializations; temp tables are never resolved through the MDI, so
   they must not invalidate cached translations. *)
let is_ddl (sql : string) : bool =
  match Backend.classify sql with
  | Backend.Create { temp; _ } -> not temp
  | Backend.Drop _ | Backend.Alter _ -> true
  | Backend.Insert _ | Backend.Mutate _ | Backend.Other -> false

let create backend =
  let t =
    {
      backend;
      cache = Hashtbl.create 32;
      lookups = 0;
      misses = 0;
      generation = 0;
    }
  in
  (* observe every dispatched statement so DDL issued through this
     session's backend bumps the catalog generation *)
  let prev = !(backend.Backend.on_exec) in
  (backend.Backend.on_exec :=
     fun sql ->
       prev sql;
       if is_ddl sql then t.generation <- t.generation + 1);
  t

let generation t = t.generation

(* catalog round trip: fetch column metadata through SQL *)
let fetch (t : t) (lname : string) : S.table_def option =
  t.misses <- t.misses + 1;
  let sql =
    Printf.sprintf
      "SELECT column_name, type_name, is_key, is_order_col FROM \
       pg_catalog_columns WHERE table_name = '%s' ORDER BY ordinal ASC"
      lname
  in
  match Backend.exec t.backend sql with
  | Error _ -> None
  | Ok (Backend.Command_ok _) -> None
  | Ok (Backend.Result_set res) ->
      if res.Backend.res_nrows = 0 then None
      else
        let cols = ref [] and keys = ref [] and ordcol = ref None in
        let cell j i = Pgdb.Batch.value_at res.Backend.res_columns.(j) i in
        if Array.length res.Backend.res_columns = 4 then
          for i = 0 to res.Backend.res_nrows - 1 do
            match (cell 0 i, cell 1 i) with
            | Pgdb.Value.Str cname, Pgdb.Value.Str tname ->
                let ty =
                  match Ty.of_name tname with Some ty -> ty | None -> Ty.TText
                in
                cols := S.column cname ty :: !cols;
                (match cell 2 i with
                | Pgdb.Value.Bool true -> keys := cname :: !keys
                | _ -> ());
                (match cell 3 i with
                | Pgdb.Value.Bool true -> ordcol := Some cname
                | _ -> ())
            | _ -> ()
          done;
        Some
          (S.table ~keys:(List.rev !keys) ?order_col:!ordcol lname
             (List.rev !cols))

(** Resolve a table by name. Returns the full definition including keys and
    the implicit order column. *)
let lookup_table (t : t) (name : string) : S.table_def option =
  t.lookups <- t.lookups + 1;
  let lname = String.lowercase_ascii name in
  match Hashtbl.find_opt t.cache lname with
  | Some entry when t.lookups - entry.age <= max_age_lookups -> Some entry.def
  | prior -> (
      match fetch t lname with
      | Some def ->
          (* an expired entry whose refetch comes back different means
             the catalog changed behind our back — bump so cached
             translations bound against the old definition die *)
          (match prior with
          | Some entry when entry.def <> def ->
              t.generation <- t.generation + 1
          | _ -> ());
          Hashtbl.replace t.cache lname { def; age = t.lookups };
          Some def
      | None ->
          if prior <> None then t.generation <- t.generation + 1;
          Hashtbl.remove t.cache lname;
          None)

let stats t = (t.lookups, t.misses)
