(** The MetaData Interface (paper Section 3.2.3): resolves table names by
    querying the backend catalog over SQL, through a cache whose entries
    expire after 10,000 lookups, a deterministic stand-in for wall-clock
    expiry (Section 6 runs with caching enabled). *)

type t = {
  backend : Backend.t;
  cache : (string, entry) Hashtbl.t;
  mutable lookups : int;
  mutable misses : int;  (** lookups that performed a backend round trip *)
  mutable generation : int;
      (** catalog generation — see {!generation} *)
}

and entry = { def : Catalog.Schema.table_def; mutable age : int }

(** Build an MDI over a backend. Installs an observer on the backend's
    [on_exec] hook so DDL dispatched through it (CREATE/DROP/ALTER, but
    not CREATE TEMPORARY) bumps the catalog generation. *)
val create : Backend.t -> t

(** Catalog generation: bumped on DDL observed through [Backend.exec],
    and on a cache refetch that returns a changed (or vanished)
    definition. Cached translations embed the generation they were
    bound under; a bump makes them unreachable. *)
val generation : t -> int

(** Resolve a table by (case-insensitive) name: cache first, then a SQL
    query against [pg_catalog_columns]. Returns columns, keys and the
    implicit order column. *)
val lookup_table : t -> string -> Catalog.Schema.table_def option

(** [(lookups, backend_misses)] since creation. *)
val stats : t -> int * int
