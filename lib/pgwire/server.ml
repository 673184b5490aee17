(** A PG v3 wire server wrapping a pgdb session: a byte-level state machine
    that implements startup, authentication (trust, clear-text, or the MD5
    scheme — paper Section 4.2 lists all three), simple queries and
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

type t = {
  session : Pgdb.Db.session;
  users : (string * string) list;  (** user -> password *)
  auth : auth_mode;
  mutable phase : phase;
  inp : C.input;  (** bytes received but not yet parsed *)
  mutable queries_served : int;
}

let create ?(users = [ ("app", "secret") ]) ?(auth = Trust) session =
  { session; users; auth; phase = Startup; inp = C.input (); queries_served = 0 }

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

(* A result set's whole reply — RowDescription, every DataRow,
   CommandComplete, ReadyForQuery — written into [out], each cell's text
   rendered straight into the frame with two work buffers shared by all
   rows. *)
let result_messages out (res : Pgdb.Exec.result) (tag : string) =
  let fields =
    List.map
      (fun (name, ty) ->
        { C.fd_name = name; fd_type_oid = C.oid_of_type ty })
      res.Pgdb.Exec.res_cols
  in
  C.add_backend out (C.RowDescription fields);
  let cell b = function
    | Pgdb.Value.Null -> false
    | v ->
        Pgdb.Value.add_text b v;
        true
  in
  Array.iter
    (C.add_data_row out ~body:(Buffer.create 256) ~scratch:(Buffer.create 32)
       cell)
    res.Pgdb.Exec.res_rows;
  C.add_backend out (C.CommandComplete tag);
  C.add_backend out (C.ReadyForQuery 'I')

let run_query t out (sql : string) =
  t.queries_served <- t.queries_served + 1;
  match Pgdb.Db.exec_script t.session sql with
  | Pgdb.Db.Rows (res, tag) -> result_messages out res tag
  | Pgdb.Db.Complete tag ->
      C.add_backend out (C.CommandComplete tag);
      C.add_backend out (C.ReadyForQuery 'I')
  | exception Pgdb.Errors.Sql_error { code; message } ->
      C.add_backend out (C.ErrorResponse { code; message });
      C.add_backend out (C.ReadyForQuery 'I')

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
  | Ready, C.Query sql -> run_query t out sql
  | Ready, C.Terminate -> t.phase <- Closed
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
