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
  out : Buffer.t;  (** the reply [feed] is building, reused across calls *)
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
    out = Buffer.create 64;
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

module Batch = Pgdb.Batch

(* One column's non-NULL cells as {!data_rows} writes them: [width r]
   is row r's cell length, and [write b pos r] puts its bytes at
   [b.[pos..)]. [fixed] is the width every cell has, or -1. *)
type cells = {
  fixed : int;
  width : int -> int;
  write : Bytes.t -> int -> int -> unit;
}

let fixed_cells w write = { fixed = w; width = (fun _ -> w); write }

let date_overflow d = Pgdb.Errors.datetime_overflow "date %Ld out of range" d
let time_overflow t = Pgdb.Errors.datetime_overflow "time %Ld ms out of range" t
let max_time = Int64.of_int Pgdb.Value.max_binary_time

(** Slot r of an int payload column of [kind], in PG's binary format:
    an int8 big-endian; a date an int32 of days since
    2000-01-01 (pgdb's own epoch); a time an int64 of microseconds; a
    timestamp an int64 of microseconds since 2000-01-01, the floor of
    its nanoseconds / 1000 as in the text format; a bool one byte. A
    date or time the format cannot hold is 22008. The payload is read
    and written unboxed. *)
let int_cells (kind : Batch.kind) (ints : Ivec.t) : cells =
  match kind with
  | Batch.Bigint ->
      fixed_cells 8 (fun b pos r -> Bytes.set_int64_be b pos (Ivec.get_at ints (8 * r)))
  | Batch.Date ->
      fixed_cells 4 (fun b pos r ->
          let d = Ivec.get_at ints (8 * r) in
          if d < -0x8000_0000L || d > 0x7fff_ffffL then date_overflow d;
          Bytes.set_int32_be b pos (Int64.to_int32 d))
  | Batch.Time ->
      fixed_cells 8 (fun b pos r ->
          let t = Ivec.get_at ints (8 * r) in
          if t < Int64.neg max_time || t > max_time then time_overflow t;
          Bytes.set_int64_be b pos (Int64.mul t 1000L))
  | Batch.Timestamp ->
      fixed_cells 8 (fun b pos r ->
          let n = Ivec.get_at ints (8 * r) in
          let us = Int64.div n 1000L in
          Bytes.set_int64_be b pos
            (if Int64.rem n 1000L < 0L then Int64.pred us else us))
  | Batch.Bool ->
      fixed_cells 1 (fun b pos r ->
          Bytes.unsafe_set b pos (if Ivec.get_at ints (8 * r) <> 0L then '\001' else '\000'))

(* a column's cells in the binary format. A mixed column's cell is
   written as a one-row column of its own type would be. *)
let rec binary_cells (c : Batch.column) : cells =
  match c.Batch.data with
  | Batch.DInt { kind; ints } -> int_cells kind ints
  | Batch.DFloat a ->
      fixed_cells 8 (fun b pos r ->
          Bytes.set_int64_be b pos (Int64.bits_of_float (Array.unsafe_get a r)))
  | Batch.DStr { codes; dict } ->
      let text r = Array.unsafe_get dict (Array.unsafe_get codes r) in
      {
        fixed = -1;
        width = (fun r -> String.length (text r));
        write =
          (fun b pos r ->
            let s = text r in
            Bytes.blit_string s 0 b pos (String.length s));
      }
  | Batch.DVal a ->
      let cell r = binary_cells (Batch.column_of_values [| a.(r) |]) in
      {
        fixed = -1;
        width = (fun r -> (cell r).width 0);
        write = (fun b pos r -> (cell r).write b pos 0);
      }

(* a column's cells in the text format, rendered once into one buffer *)
let text_cells (c : Batch.column) (nrows : int) : cells =
  let buf = Buffer.create (8 * nrows) and ends = Array.make (nrows + 1) 0 in
  for r = 0 to nrows - 1 do
    if not (Batch.is_null c r) then Pgdb.Value.add_text buf (Batch.value_at c r);
    ends.(r + 1) <- Buffer.length buf
  done;
  let text = Buffer.to_bytes buf in
  {
    fixed = -1;
    width = (fun r -> ends.(r + 1) - ends.(r));
    write = (fun b pos r -> Bytes.blit text ends.(r) b pos (ends.(r + 1) - ends.(r)));
  }

(* The bytes a row stream is written into before it goes into the
   reply: one per domain, as the shards' servers run on their own,
   reused while a stream fits in [scratch_max]. Whole, the stream grows
   the reply once; written frame by frame, or a 2 KiB chunk at a time,
   the reply grew by doubling, and tick_extract lost 4.6% of its qps
   (median of ten paired runs, nine lost). A stream allocated afresh
   each call is a major-heap block the size of the result. *)
let scratch : Bytes.t ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let scratch_max = 1 lsl 22

let stream_bytes (size : int) : Bytes.t =
  let s = Domain.DLS.get scratch in
  if Bytes.length !s >= size then !s
  else begin
    let b = Bytes.create size in
    if size <= scratch_max then s := b;
    b
  end

(** Every DataRow of a result, read from its typed columns in row order
    and written in place. The row stream is sized from the column widths
    first, then each frame's cells are written into one [Bytes], which
    goes into [out] whole. A cell that cannot be encoded (22008)
    raises; the extended protocol's error path then truncates [out] to
    the message's start. *)
let data_rows out (res : Pgdb.Exec.result) (formats : C.format array) =
  let cols = res.Pgdb.Exec.res_columns and nrows = res.Pgdb.Exec.res_nrows in
  let n = Array.length cols in
  let cells =
    Array.mapi
      (fun j c ->
        match formats.(j) with
        | C.Binary -> binary_cells c
        | C.Text -> text_cells c nrows)
      cols
  in
  (* per frame: tag, length, cell count and a length per cell *)
  let size = ref (nrows * (7 + (4 * n))) in
  Array.iteri
    (fun j (c : Batch.column) ->
      let k = cells.(j) in
      if k.fixed >= 0 && not c.Batch.has_nulls then size := !size + (nrows * k.fixed)
      else
        for r = 0 to nrows - 1 do
          if not (Batch.is_null c r) then size := !size + k.width r
        done)
    cols;
  let b = stream_bytes !size in
  let pos = ref 0 in
  for r = 0 to nrows - 1 do
    let start = !pos in
    Bytes.unsafe_set b start 'D';
    Bytes.set_int16_be b (start + 5) n;
    pos := start + 7;
    for j = 0 to n - 1 do
      let p = !pos in
      if Batch.is_null (Array.unsafe_get cols j) r then begin
        Bytes.set_int32_be b p (-1l);
        pos := p + 4
      end
      else begin
        let k = Array.unsafe_get cells j in
        let w = if k.fixed >= 0 then k.fixed else k.width r in
        Bytes.set_int32_be b p (Int32.of_int w);
        k.write b (p + 4) r;
        pos := p + 4 + w
      end
    done;
    Bytes.set_int32_be b (start + 1) (Int32.of_int (!pos - start - 1))
  done;
  Buffer.add_subbytes out b 0 !size

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
  let out = t.out in
  Buffer.clear out;
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
  let reply = Buffer.contents out in
  (* a buffer that grew to the reply's size is kept for the next one,
     unless it outgrew [scratch_max], like the row stream's *)
  if Buffer.length out > scratch_max then Buffer.reset out;
  reply
