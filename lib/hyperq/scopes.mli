(** The hierarchy of variable scopes (paper Section 3.2.3, Figure 3):
    local function scopes over a session scope over a shared server scope.
    Lookup falls through local → session → server (and the caller then
    tries the MDI); local upserts never promote; session variables promote
    to the server scope when the session is destroyed. *)

module Ty = Catalog.Sqltype

type backend_table = {
  bt_name : string;  (** backend relation name (often a temp table) *)
  bt_cols : Xtra.Ir.colref list;
  bt_ordcol : string option;
  bt_keys : string list;
}

type vardef =
  | VScalar of Sqlast.Ast.lit * Ty.t  (** in-memory scalar value *)
  | VList of (Sqlast.Ast.lit * Ty.t) list  (** in-memory literal list *)
  | VRel of Xtra.Ir.rel * string list
      (** logical materialization: an XTRA definition + key columns *)
  | VBackendTable of backend_table
      (** physical materialization: a backend (temp) table *)
  | VFunction of Qlang.Ast.lambda
      (** stored as text, re-algebrized on call (paper Section 4.3) *)

type frame = (string, vardef) Hashtbl.t

(** A server scope shared by all sessions of one Hyper-Q instance, plus a
    generation counter bumped on every mutation — cached translations
    embed the generation they were built under, so a bump invalidates
    them without eager sweeps. *)
type server = { s_frame : frame; mutable s_gen : int }

type t = {
  server : server;
  mutable session : frame;
  mutable locals : frame list;
  mutable session_gen : int;
      (** bumped on every session-frame mutation (not on local-frame
          upserts: locals cannot outlive the statement that binds them) *)
  session_id : int;  (** unique per session, distinguishes cache keys *)
}

(** A session scope stack; pass [server] to share one server scope across
    sessions. *)
val create : ?server:server -> unit -> t

(** A fresh server scope to share between sessions of one platform. *)
val create_server_frame : unit -> server

(** Unique id of this session's scope stack. *)
val session_id : t -> int

(** [(session generation, server generation)] — the pair a cached
    translation must match to stay valid. *)
val generations : t -> int * int

val push_local : t -> unit
val pop_local : t -> unit

(** Lookup: innermost local frame (only — Q has no lexical nesting), then
    session, then server. *)
val lookup : t -> string -> vardef option

(** Upsert into the local scope inside a function, the session scope
    otherwise. *)
val upsert : t -> string -> vardef -> unit

(** Q's [::]: publish to the server scope immediately. *)
val upsert_global : t -> string -> vardef -> unit

(** Destroy the session scope, promoting its variables to the server. *)
val destroy_session : t -> unit
