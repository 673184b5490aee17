(** A PG v3 wire client, used by Hyper-Q's Gateway plugin to talk to the
    backend over real protocol bytes. The transport is a callback that
    delivers frontend bytes and returns whatever backend bytes arrive —
    in-process in this reproduction, a socket in a deployment. *)

module C = Codec

exception Protocol_error of string

let protocol_error fmt =
  Format.kasprintf (fun s -> raise (Protocol_error s)) fmt

type transport = string -> string

type t = {
  send : transport;
  inp : C.input;  (** undecoded backend bytes *)
  mutable ready : bool;
}

let refill (t : t) =
  (* request more bytes with an empty write *)
  let more = t.send "" in
  if more = "" then protocol_error "backend closed the connection";
  C.append t.inp more

(* Decode the next message with [decode], pulling bytes from the
   transport while the buffered ones end mid-frame. A malformed frame is
   an error, never a reason to wait for more bytes. *)
let rec next (t : t) decode =
  match C.take t.inp decode with
  | v -> v
  | exception C.Incomplete ->
      refill t;
      next t decode
  | exception C.Decode_error e ->
      protocol_error "malformed backend message: %s" e

let next_msg (t : t) : C.backend_msg = next t C.decode_backend

let rec peek_tag (t : t) : char =
  match C.peek_tag t.inp with
  | '\000' ->
      refill t;
      peek_tag t
  | c -> c

(* the next DataRow, decoded into [null] and [cell] as it arrives *)
let rec next_data_row (t : t) ~null ~cell : int =
  match C.take_data_row t.inp ~null ~cell with
  | n -> n
  | exception C.Incomplete ->
      refill t;
      next_data_row t ~null ~cell
  | exception C.Decode_error e ->
      protocol_error "malformed backend message: %s" e

(** Open a connection: run the startup/auth handshake to completion. *)
let connect ?(user = "app") ?(password = "secret") ?(database = "hyperq")
    (send : transport) : t =
  let t = { send; inp = C.input (); ready = false } in
  let startup =
    C.encode_frontend (C.Startup [ ("user", user); ("database", database) ])
  in
  C.append t.inp (send startup);
  let rec go () =
    match next_msg t with
    | C.AuthenticationOk -> go ()
    | C.AuthenticationCleartextPassword ->
        C.append t.inp (send (C.encode_frontend (C.PasswordMessage password)));
        go ()
    | C.AuthenticationMD5Password salt ->
        let hex s = Digest.to_hex (Digest.string s) in
        let response = "md5" ^ hex (hex (password ^ user) ^ salt) in
        C.append t.inp (send (C.encode_frontend (C.PasswordMessage response)));
        go ()
    | C.ParameterStatus _ -> go ()
    | C.ReadyForQuery _ ->
        t.ready <- true;
        t
    | C.ErrorResponse { code; message } ->
        protocol_error "connection failed: %s %s" code message
    | _ -> protocol_error "unexpected message during startup"
  in
  go ()

type query_result = {
  result : Pgdb.Exec.result;
      (** the rows, column-major; no columns when the statement returns
          no rows *)
  tag : string;
}

(** The extended-protocol batch for one statement: Parse into the
    unnamed statement, Bind it to the unnamed portal with every result
    column in binary, Describe the portal, Execute it without a row
    limit, Sync. *)
let batch (sql : string) : string =
  let out = Buffer.create (String.length sql + 64) in
  List.iter (C.add_frontend out)
    [
      C.Parse { stmt = ""; query = sql; param_types = [] };
      C.Bind
        {
          portal = "";
          stmt = "";
          param_formats = [];
          params = [];
          result_formats = [ C.Binary ];
        };
      C.Describe (C.Portal, "");
      C.Execute { portal = ""; max_rows = 0 };
      C.Sync;
    ];
  Buffer.contents out

(* A result column rebuilt from binary cells, its representation chosen
   by the RowDescription type: float8 into floats, text into dictionary
   codes, and int8, date, time, timestamp and bool into int payloads of
   their kind *)
let column_builder (ty : Catalog.Sqltype.t) : Pgdb.Batch.builder =
  Pgdb.Batch.builder
    (match ty with
    | Catalog.Sqltype.TDouble -> `Float
    | Catalog.Sqltype.TText | Catalog.Sqltype.TVarchar -> `Str
    | ty -> `Int (Option.get (Pgdb.Batch.kind_of_type ty)))

(* write [data.[off..off+len)], row [r]'s binary cell, into [b]: the
   inverse of the server's cells, a payload set in place. A length the
   type's format does not have is a [type_mismatch]. *)
let decode_cell (b : Pgdb.Batch.builder) ty r data off len =
  let module I = Ivec in
  match b.Pgdb.Batch.cells with
  | Pgdb.Batch.Ints { kind; ints } -> (
      match kind with
      | Pgdb.Batch.Bigint ->
          if len <> 8 then Pgdb.Value.bad_width ty len;
          I.set_at ints (8 * r) (String.get_int64_be data off)
      | Pgdb.Batch.Date ->
          if len <> 4 then Pgdb.Value.bad_width ty len;
          I.set_at ints (8 * r) (Int64.of_int32 (String.get_int32_be data off))
      | Pgdb.Batch.Time ->
          if len <> 8 then Pgdb.Value.bad_width ty len;
          I.set_at ints (8 * r) (Int64.div (String.get_int64_be data off) 1000L)
      | Pgdb.Batch.Timestamp ->
          if len <> 8 then Pgdb.Value.bad_width ty len;
          I.set_at ints (8 * r) (Int64.mul (String.get_int64_be data off) 1000L)
      | Pgdb.Batch.Bool ->
          if len <> 1 then Pgdb.Value.bad_width ty len;
          I.set_at ints (8 * r) (if String.unsafe_get data off <> '\000' then 1L else 0L))
  | Pgdb.Batch.Floats c ->
      if len <> 8 then Pgdb.Value.bad_width ty len;
      Array.unsafe_set c.floats r
        (Int64.float_of_bits (String.get_int64_be data off))
  | Pgdb.Batch.Texts c ->
      Array.unsafe_set c.codes r (Pgdb.Batch.intern c.dict data off len)

(** Run one statement: its whole {!batch} goes out in one transport
    write, then the reply streams in until ReadyForQuery. Each binary
    DataRow cell is decoded in place into its column's builder, chosen
    by the RowDescription's type OID; the columns are sized once from
    the DataRows already buffered, and grow only when more arrive. *)
let query (t : t) (sql : string) : (query_result, string) result =
  if not t.ready then protocol_error "connection is not ready";
  C.append t.inp (t.send (batch sql));
  let columns = ref [] in
  let types = ref [||] in
  let builders = ref [||] in
  let nrows = ref 0 and cap = ref 0 in
  let tag = ref "" in
  let error = ref None in
  let builder i =
    if i >= Array.length !builders then
      protocol_error "DataRow has more cells than the %d described columns"
        (Array.length !builders);
    Array.unsafe_get !builders i
  in
  let cell i data off len =
    decode_cell (builder i) (Array.unsafe_get !types i) !nrows data off len
  in
  let null i = Pgdb.Batch.set_null (builder i) !nrows in
  let rec go () =
    if peek_tag t = 'D' then begin
      let r = !nrows in
      if r = !cap then begin
        cap := max (2 * r) (r + max 1 (C.buffered_data_rows t.inp));
        Array.iter (fun b -> Pgdb.Batch.reserve b !cap) !builders
      end;
      let n =
        try next_data_row t ~null ~cell
        with Pgdb.Errors.Sql_error { message; _ } ->
          protocol_error "malformed binary cell: %s" message
      in
      if n <> Array.length !types then
        protocol_error "DataRow has %d cells for %d columns" n
          (Array.length !types);
      nrows := r + 1;
      go ()
    end
    else
      match next_msg t with
      | C.RowDescription fields ->
          columns :=
            List.map
              (fun f ->
                if f.C.fd_format <> C.Binary then
                  protocol_error "column %s is not in the binary format Bind asked for"
                    f.C.fd_name;
                let ty =
                  match C.type_of_oid f.C.fd_type_oid with
                  | Some ty -> ty
                  | None -> Catalog.Sqltype.TText
                in
                (f.C.fd_name, ty))
              fields;
          types := Array.of_list (List.map snd !columns);
          builders := Array.map column_builder !types;
          nrows := 0;
          cap := 0;
          go ()
      | C.CommandComplete t' ->
          tag := t';
          go ()
      | C.ErrorResponse { code; message } ->
          error := Some (Printf.sprintf "%s: %s" code message);
          go ()
      | C.ReadyForQuery _ -> ()
      | C.ParseComplete | C.BindComplete | C.NoData | C.EmptyQueryResponse
      | C.ParameterStatus _ ->
          go ()
      | C.DataRow _ -> assert false (* a 'D' tag is decoded typed above *)
      | C.AuthenticationOk | C.AuthenticationCleartextPassword
      | C.AuthenticationMD5Password _ ->
          protocol_error "unexpected auth message mid-session"
  in
  go ();
  match !error with
  | Some e -> Error e
  | None ->
      let n = !nrows in
      Ok
        {
          result =
            {
              Pgdb.Exec.res_cols = !columns;
              res_nrows = n;
              res_columns = Array.map (fun b -> Pgdb.Batch.finish b n) !builders;
            };
          tag = !tag;
        }
