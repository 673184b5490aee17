(** Hierarchy of variable scopes (paper Section 3.2.3, Figure 3).

    Three levels: local scopes for function bodies (stacked, only the top
    is visible — Q has no lexical nesting), a session scope for variables
    defined by the connected client, and a server scope shared by all
    sessions. Lookup walks local → session → server → MDI; local upserts
    never promote; session variables are promoted to the server scope when
    the session is destroyed. *)

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
      (** physical materialization: the backend (temp) table holding it *)
  | VFunction of Qlang.Ast.lambda  (** stored as text, re-algebrized on call
                                       (paper Section 4.3) *)

type frame = (string, vardef) Hashtbl.t

(** A server scope shared by all sessions of one Hyper-Q instance, plus a
    generation counter bumped on every mutation. Cached translations
    embed the generation they were built under; a bump makes them
    unreachable (plan-cache invalidation without eager sweeps). *)
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

let next_session_id = ref 0

(** A shared server scope, for constructing multiple sessions against one
    Hyper-Q instance. *)
let create_server_frame () : server = { s_frame = Hashtbl.create 16; s_gen = 0 }

let create ?server () =
  let server = match server with Some s -> s | None -> create_server_frame () in
  incr next_session_id;
  {
    server;
    session = Hashtbl.create 16;
    locals = [];
    session_gen = 0;
    session_id = !next_session_id;
  }

let session_id t = t.session_id

(** The pair of scope generations a cached translation must match to stay
    valid: (this session's, the shared server scope's). *)
let generations t = (t.session_gen, t.server.s_gen)

let push_local t = t.locals <- Hashtbl.create 8 :: t.locals

let pop_local t =
  match t.locals with
  | _ :: rest -> t.locals <- rest
  | [] -> invalid_arg "pop_local: no local scope"

(** Lookup following the scope hierarchy; the caller falls through to the
    MDI when this returns [None]. *)
let lookup (t : t) (name : string) : vardef option =
  let local =
    match t.locals with
    | top :: _ -> Hashtbl.find_opt top name
    | [] -> None
  in
  match local with
  | Some v -> Some v
  | None -> (
      match Hashtbl.find_opt t.session name with
      | Some v -> Some v
      | None -> Hashtbl.find_opt t.server.s_frame name)

(** Upsert: local scope when inside a function (never promoted), session
    scope otherwise. Session-frame writes bump the session generation so
    stale cached translations become unreachable; local-frame writes do
    not — a local cannot be referenced by any later statement. *)
let upsert (t : t) (name : string) (def : vardef) : unit =
  match t.locals with
  | top :: _ -> Hashtbl.replace top name def
  | [] ->
      t.session_gen <- t.session_gen + 1;
      Hashtbl.replace t.session name def

(** Explicit global (server-visible) definition, for Q's [::] assignment.
    Stored in the session scope (it will be promoted on destruction) but
    also immediately published to the server scope so that concurrent
    sessions observe it, which matches kdb+ behaviour. *)
let upsert_global (t : t) (name : string) (def : vardef) : unit =
  t.server.s_gen <- t.server.s_gen + 1;
  Hashtbl.replace t.server.s_frame name def

(** Destroy the session scope, promoting its variables to server scope
    (paper: "session variables are promoted to global variables ... as part
    of the session scope destruction"). *)
let destroy_session (t : t) : unit =
  Hashtbl.iter
    (fun name def -> Hashtbl.replace t.server.s_frame name def)
    t.session;
  t.session_gen <- t.session_gen + 1;
  t.server.s_gen <- t.server.s_gen + 1;
  t.session <- Hashtbl.create 16;
  t.locals <- []
