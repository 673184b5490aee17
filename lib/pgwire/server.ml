(** A PG v3 wire server wrapping a pgdb session: a byte-level state machine
    that implements startup, authentication (trust, clear-text, or the MD5
    scheme — paper Section 4.2 lists all three), simple queries, the
    extended protocol over the unnamed statement and portal, and
    termination.

    [feed] consumes raw frontend bytes and returns the backend bytes to
    send — transport-agnostic, so tests and the in-process platform drive
    it directly. *)

module C = Codec

type auth_mode = Trust | Cleartext | Md5

type phase =
  | Startup
  | Authenticating of { user : string; salt : string option }
  | Ready
  | Closed

(* The unnamed portal: a statement bound to its result formats. It runs
   once, when Describe or Execute first needs its outcome. *)
type portal = {
  stmt : Sqlast.Ast.stmt option;  (** [None]: the empty query *)
  formats : C.format list;
  mutable outcome : Pgdb.Db.outcome option;
}

type t = {
  session : Pgdb.Db.session;
  users : (string * string) list;  (** user -> password *)
  auth : auth_mode;
  mutable phase : phase;
  inp : C.input;  (** bytes received but not yet parsed *)
  mutable queries_served : int;
  mutable statement : Sqlast.Ast.stmt option option;
      (** the unnamed prepared statement, once a Parse has set it *)
  mutable portal : portal option;  (** the unnamed portal *)
  mutable skipping : bool;
      (** an extended-protocol message failed: discard until Sync *)
}

let create ?(users = [ ("app", "secret") ]) ?(auth = Trust) session =
  {
    session;
    users;
    auth;
    phase = Startup;
    inp = C.input ();
    queries_served = 0;
    statement = None;
    portal = None;
    skipping = false;
  }

(* PG's md5 scheme: "md5" ^ md5hex(md5hex(password ^ user) ^ salt) *)
let md5_response ~user ~password ~salt =
  let hex s = Digest.to_hex (Digest.string s) in
  "md5" ^ hex (hex (password ^ user) ^ salt)

let check_password t ~user ~given ~salt =
  match List.assoc_opt user t.users with
  | None -> false
  | Some expected -> (
      match (t.auth, salt) with
      | Md5, Some salt -> given = md5_response ~user ~password:expected ~salt
      | _ -> given = expected)

let ok_preamble () =
  String.concat ""
    [
      C.encode_backend C.AuthenticationOk;
      C.encode_backend (C.ParameterStatus ("server_version", "9.2 (hyperq-pgdb)"));
      C.encode_backend (C.ParameterStatus ("client_encoding", "UTF8"));
      C.encode_backend (C.ReadyForQuery 'I');
    ]

let row_description (res : Pgdb.Exec.result) (formats : C.format array) =
  C.RowDescription
    (List.mapi
       (fun i (name, ty) ->
         {
           C.fd_name = name;
           fd_type_oid = C.oid_of_type ty;
           fd_format = formats.(i);
         })
       res.Pgdb.Exec.res_cols)

(** Every DataRow of a result, read from its typed columns in row order.
    An int, float or text cell goes straight into the row's frame in its
    column's format; a boxed cell (a calendar or bool value, or any cell
    of a mixed column) is rendered by {!Pgdb.Value}, which range-checks
    a binary date or time (22008). Two work buffers serve every row. *)
let data_rows out (res : Pgdb.Exec.result) (formats : C.format array) =
  let body = Buffer.create 256 and scratch = Buffer.create 32 in
  (* a cell [add] renders: its length, then its bytes *)
  let rendered add v =
    Buffer.clear scratch;
    add scratch v;
    C.put_i32 body (Buffer.length scratch);
    Buffer.add_buffer body scratch
  in
  let writer (c : Pgdb.Batch.column) (format : C.format) : int -> unit =
    match (c.Pgdb.Batch.data, format) with
    | Pgdb.Batch.DInt a, C.Binary ->
        fun r ->
          C.put_i32 body 8;
          Buffer.add_int64_be body (Array.unsafe_get a r)
    | Pgdb.Batch.DInt a, C.Text -> fun r -> rendered Pgdb.Value.add_int64 a.(r)
    | Pgdb.Batch.DFloat a, C.Binary ->
        fun r ->
          C.put_i32 body 8;
          Buffer.add_int64_be body (Int64.bits_of_float (Array.unsafe_get a r))
    | Pgdb.Batch.DFloat a, C.Text -> fun r -> rendered Pgdb.Value.add_float a.(r)
    | Pgdb.Batch.DStr { codes; dict }, _ ->
        fun r ->
          let s = Array.unsafe_get dict (Array.unsafe_get codes r) in
          C.put_i32 body (String.length s);
          Buffer.add_string body s
    | Pgdb.Batch.DVal a, format -> (
        let add =
          match format with
          | C.Binary -> Pgdb.Value.add_binary
          | C.Text -> Pgdb.Value.add_text
        in
        fun r ->
          match a.(r) with
          | Pgdb.Value.Null -> C.put_i32 body (-1)
          | v -> rendered add v)
  in
  let cols = res.Pgdb.Exec.res_columns in
  let n = Array.length cols in
  let writers = Array.mapi (fun j c -> writer c formats.(j)) cols in
  for r = 0 to res.Pgdb.Exec.res_nrows - 1 do
    Buffer.clear body;
    C.put_i16 body n;
    for j = 0 to n - 1 do
      if Pgdb.Batch.is_null (Array.unsafe_get cols j) r then C.put_i32 body (-1)
      else (Array.unsafe_get writers j) r
    done;
    C.add_frame out 'D' body
  done

(* Any failure of a statement, as the ErrorResponse fields *)
let error_fields = function
  | Pgdb.Errors.Sql_error { code; message } -> (code, message)
  | e -> ("XX000", Printexc.to_string e)

(* A simple Query's whole reply, in text: RowDescription, every DataRow
   and CommandComplete, or an ErrorResponse; then ReadyForQuery *)
let run_query t out (sql : string) =
  t.queries_served <- t.queries_served + 1;
  (match Pgdb.Db.exec_script t.session sql with
  | Pgdb.Db.Rows (res, tag) ->
      let text = Array.make (List.length res.Pgdb.Exec.res_cols) C.Text in
      C.add_backend out (row_description res text);
      data_rows out res text;
      C.add_backend out (C.CommandComplete tag)
  | Pgdb.Db.Complete tag -> C.add_backend out (C.CommandComplete tag)
  | exception e ->
      let code, message = error_fields e in
      C.add_backend out (C.ErrorResponse { code; message }));
  C.add_backend out (C.ReadyForQuery 'I')

(* ---------------------------------------------------------------- *)
(* Extended protocol                                                 *)
(* ---------------------------------------------------------------- *)

(* The Gateway sends one batch per statement — Parse, Bind, Describe
   portal, Execute, Sync — over the unnamed statement and portal, with
   no parameters and no row limit. Those are the semantics implemented;
   named statements or portals, parameters and row limits are 0A000. *)

let unsupported what = Pgdb.Errors.feature_not_supported "%s are not supported" what

let unnamed_portal t name =
  if name <> "" then unsupported "named portals";
  match t.portal with
  | Some p -> p
  | None -> Pgdb.Errors.error "34000" "portal \"\" does not exist"

(* the portal's outcome, its statement run on first use *)
let outcome t p stmt =
  match p.outcome with
  | Some o -> o
  | None ->
      t.queries_served <- t.queries_served + 1;
      let o = Pgdb.Db.exec_stmt t.session stmt in
      p.outcome <- Some o;
      o

(* Bind's result formats, one per column of [res] *)
let column_formats p (res : Pgdb.Exec.result) =
  let n = List.length res.Pgdb.Exec.res_cols in
  match p.formats with
  | [] -> Array.make n C.Text
  | [ f ] -> Array.make n f
  | fs when List.length fs = n -> Array.of_list fs
  | fs ->
      Pgdb.Errors.error "08P01"
        "bind message has %d result formats but query has %d columns"
        (List.length fs) n

let extended t out (m : C.frontend_msg) =
  match m with
  | C.Parse { stmt; query; param_types } ->
      if stmt <> "" then unsupported "named prepared statements";
      if param_types <> [] then unsupported "statement parameters";
      t.statement <- Some (Pgdb.Db.prepare t.session.Pgdb.Db.db query);
      C.add_backend out C.ParseComplete
  | C.Bind { portal; stmt; param_formats; params; result_formats } ->
      if portal <> "" then unsupported "named portals";
      if stmt <> "" then unsupported "named prepared statements";
      if params <> [] || param_formats <> [] then unsupported "bind parameters";
      (match t.statement with
      | Some stmt ->
          t.portal <- Some { stmt; formats = result_formats; outcome = None }
      | None ->
          Pgdb.Errors.error "26000" "unnamed prepared statement does not exist");
      C.add_backend out C.BindComplete
  | C.Describe (C.Statement, _) -> unsupported "statement descriptions"
  | C.Describe (C.Portal, name) -> (
      let p = unnamed_portal t name in
      match p.stmt with
      | Some (Sqlast.Ast.Select _ as stmt) -> (
          match outcome t p stmt with
          | Pgdb.Db.Rows (res, _) ->
              C.add_backend out (row_description res (column_formats p res))
          | Pgdb.Db.Complete _ -> C.add_backend out C.NoData)
      | _ -> C.add_backend out C.NoData)
  | C.Execute { portal; max_rows } -> (
      let p = unnamed_portal t portal in
      if max_rows <> 0 then unsupported "row limits";
      t.portal <- None;
      match p.stmt with
      | None -> C.add_backend out C.EmptyQueryResponse
      | Some stmt -> (
          match outcome t p stmt with
          | Pgdb.Db.Rows (res, tag) ->
              data_rows out res (column_formats p res);
              C.add_backend out (C.CommandComplete tag)
          | Pgdb.Db.Complete tag -> C.add_backend out (C.CommandComplete tag)))
  | C.Startup _ | C.PasswordMessage _ | C.Query _ | C.Sync | C.Terminate -> ()

(* Run one extended-protocol message. A failure answers one
   ErrorResponse in place of whatever the message had begun to write,
   and discards every later message until Sync. *)
let run_extended t out m =
  let mark = Buffer.length out in
  try extended t out m
  with e ->
    let code, message = error_fields e in
    Buffer.truncate out mark;
    C.add_backend out (C.ErrorResponse { code; message });
    t.skipping <- true

(* Act on one decoded frontend message; messages the current phase does
   not expect are ignored. *)
let handle t out (m : C.frontend_msg) =
  match (t.phase, m) with
  | Startup, C.Startup params -> (
      let user =
        match List.assoc_opt "user" params with
        | Some u -> u
        | None -> "anonymous"
      in
      match t.auth with
      | Trust ->
          t.phase <- Ready;
          Buffer.add_string out (ok_preamble ())
      | Cleartext ->
          t.phase <- Authenticating { user; salt = None };
          C.add_backend out C.AuthenticationCleartextPassword
      | Md5 ->
          let salt = "s@lt" in
          t.phase <- Authenticating { user; salt = Some salt };
          C.add_backend out (C.AuthenticationMD5Password salt))
  | Authenticating { user; salt }, C.PasswordMessage given ->
      if check_password t ~user ~given ~salt then begin
        t.phase <- Ready;
        Buffer.add_string out (ok_preamble ())
      end
      else begin
        t.phase <- Closed;
        C.add_backend out
          (C.ErrorResponse
             {
               code = "28P01";
               message =
                 Printf.sprintf "password authentication failed for user \"%s\""
                   user;
             })
      end
  | Ready, C.Terminate -> t.phase <- Closed
  | Ready, C.Sync ->
      t.skipping <- false;
      t.portal <- None;
      C.add_backend out (C.ReadyForQuery 'I')
  | Ready, _ when t.skipping -> ()
  | Ready, C.Query sql ->
      t.statement <- None;
      t.portal <- None;
      run_query t out sql
  | Ready, ((C.Parse _ | C.Bind _ | C.Describe _ | C.Execute _) as m) ->
      run_extended t out m
  | _ -> ()

(** Feed frontend bytes into the server; returns backend bytes. Partial
    messages are buffered across calls. A malformed message is a protocol
    violation: the server answers with an error and closes, as PG does. *)
let feed (t : t) (bytes : string) : string =
  C.append t.inp bytes;
  let out = Buffer.create 64 in
  let rec loop () =
    match t.phase with
    | Closed -> C.clear t.inp
    | phase -> (
        let in_startup = match phase with Startup -> true | _ -> false in
        match C.take t.inp (C.decode_frontend ~in_startup) with
        | exception C.Incomplete -> ()
        | exception C.Decode_error e ->
            t.phase <- Closed;
            C.add_backend out
              (C.ErrorResponse
                 {
                   code = "08P01";
                   message = "invalid frontend message: " ^ e;
                 })
        | m ->
            handle t out m;
            loop ())
  in
  loop ();
  Buffer.contents out
