(** PostgreSQL v3 frontend/backend wire protocol (paper Sections 3.1, 4.2).

    Byte-level implementation of the message-based, row-streaming format:
    a result set travels as RowDescription, then one DataRow per row, then
    CommandComplete — the exact opposite of QIPC's single column-oriented
    message, which is why Hyper-Q has to buffer and pivot (Figure 5).

    All messages except Startup begin with a 1-byte type tag followed by a
    4-byte big-endian length that includes itself. A simple Query's cells
    use the text format; the extended protocol (Parse, Bind, Describe,
    Execute, Sync) lets Bind ask for binary cells, which is how the
    Gateway reads every result. *)

exception Decode_error of string
(** The bytes are malformed: no amount of further input can fix them. *)

exception Incomplete
(** The buffer ends before the frame does: wait for more bytes. *)

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

(* PG type OIDs for the types we emit *)
let oid_of_type : Catalog.Sqltype.t -> int = function
  | Catalog.Sqltype.TBool -> 16
  | Catalog.Sqltype.TBigint -> 20
  | Catalog.Sqltype.TDouble -> 701
  | Catalog.Sqltype.TVarchar -> 1043
  | Catalog.Sqltype.TText -> 25
  | Catalog.Sqltype.TDate -> 1082
  | Catalog.Sqltype.TTime -> 1083
  | Catalog.Sqltype.TTimestamp -> 1114

(* only the OIDs whose binary format is the type's: int2/int4, float4
   and numeric have other layouts *)
let type_of_oid : int -> Catalog.Sqltype.t option = function
  | 16 -> Some Catalog.Sqltype.TBool
  | 20 -> Some Catalog.Sqltype.TBigint
  | 701 -> Some Catalog.Sqltype.TDouble
  | 1043 -> Some Catalog.Sqltype.TVarchar
  | 25 -> Some Catalog.Sqltype.TText
  | 1082 -> Some Catalog.Sqltype.TDate
  | 1083 -> Some Catalog.Sqltype.TTime
  | 1114 | 1184 -> Some Catalog.Sqltype.TTimestamp
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Big-endian primitives                                               *)
(* ------------------------------------------------------------------ *)

let put_u8 buf v = Buffer.add_char buf (Char.unsafe_chr (v land 0xff))
let put_i16 buf v = Buffer.add_uint16_be buf (v land 0xffff)
let put_i32 buf v = Buffer.add_int32_be buf (Int32.of_int v)

let put_cstr buf s =
  Buffer.add_string buf s;
  put_u8 buf 0

(* A reader bounded to one frame: every field read stops at [limit], the
   frame's end, so a field that overruns its frame is malformed instead of
   a read into the next message. *)
type reader = { data : string; mutable pos : int; limit : int }

let need r n =
  if n < 0 || r.pos + n > r.limit then decode_error "field overruns its frame"

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_i16 r =
  need r 2;
  let v = String.get_int16_be r.data r.pos in
  r.pos <- r.pos + 2;
  v

let get_i32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_be r.data r.pos) in
  r.pos <- r.pos + 4;
  v

(* An Int16 element count of elements at least [width] bytes each. The
   frame must hold that many before anything is sized by the count. *)
let get_count r ~width =
  let n = get_i16 r in
  if n < 0 then decode_error "negative field count %d" n;
  if n * width > r.limit - r.pos then
    decode_error "%d elements overrun their frame" n;
  n

let get_cstr r =
  let start = r.pos in
  let rec find i =
    if i >= r.limit then decode_error "unterminated string"
    else if r.data.[i] = '\000' then i
    else find (i + 1)
  in
  let zero = find start in
  let s = String.sub r.data start (zero - start) in
  r.pos <- zero + 1;
  s

(* The frame starting at [off]: [tag_bytes] of tag, then an Int32 length
   that counts itself. Returns a reader over the body, bounded to the
   frame. [Incomplete] while the frame has not fully arrived;
   [Decode_error] for a length below [min_len], which would otherwise
   consume no bytes and stall the caller forever. *)
let frame_limit data off ~tag_bytes ~min_len =
  if off + tag_bytes + 4 > String.length data then raise Incomplete;
  let len = Int32.to_int (String.get_int32_be data (off + tag_bytes)) in
  if len < min_len then decode_error "invalid message length %d" len;
  let limit = off + tag_bytes + len in
  if limit > String.length data then raise Incomplete;
  limit

let open_frame data off ~tag_bytes ~min_len =
  let limit = frame_limit data off ~tag_bytes ~min_len in
  { data; pos = off + tag_bytes + 4; limit }

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

(** A cell's format code: 0 text, 1 binary. *)
type format = Text | Binary

type field_desc = { fd_name : string; fd_type_oid : int; fd_format : format }

type backend_msg =
  | AuthenticationOk
  | AuthenticationCleartextPassword
  | AuthenticationMD5Password of string  (** 4-byte salt *)
  | ParameterStatus of string * string
  | ReadyForQuery of char  (** transaction status: 'I', 'T' or 'E' *)
  | RowDescription of field_desc list
  | DataRow of string option list  (** one cell's bytes per column *)
  | CommandComplete of string
  | ErrorResponse of { code : string; message : string }
  | EmptyQueryResponse
  | ParseComplete
  | BindComplete
  | NoData  (** Describe of a statement that returns no rows *)

(** What a Describe names: a prepared statement ('S') or a portal ('P'). *)
type describe_target = Statement | Portal

type frontend_msg =
  | Startup of (string * string) list  (** parameters: user, database, ... *)
  | PasswordMessage of string
  | Query of string
  | Parse of { stmt : string; query : string; param_types : int list }
      (** [stmt] "" is the unnamed statement *)
  | Bind of {
      portal : string;
      stmt : string;
      param_formats : format list;
      params : string option list;
      result_formats : format list;
          (** none: all text; one: every column; else one per column *)
    }
  | Describe of describe_target * string
  | Execute of { portal : string; max_rows : int }  (** 0: no row limit *)
  | Sync
  | Terminate

let format_code = function Text -> 0 | Binary -> 1

let format_of_code = function
  | 0 -> Text
  | 1 -> Binary
  | c -> decode_error "unknown format code %d" c

(* ---------------------------------------------------------------- *)
(* Encoding                                                          *)
(* ---------------------------------------------------------------- *)

let add_frame out tag body =
  Buffer.add_char out tag;
  put_i32 out (4 + Buffer.length body);
  Buffer.add_buffer out body

(** Append one backend message's frame to [out]. *)
let add_backend out (m : backend_msg) =
  let body = Buffer.create 32 in
  match m with
  | AuthenticationOk ->
      put_i32 body 0;
      add_frame out 'R' body
  | AuthenticationCleartextPassword ->
      put_i32 body 3;
      add_frame out 'R' body
  | AuthenticationMD5Password salt ->
      put_i32 body 5;
      Buffer.add_string body (String.sub (salt ^ "\000\000\000\000") 0 4);
      add_frame out 'R' body
  | ParameterStatus (k, v) ->
      put_cstr body k;
      put_cstr body v;
      add_frame out 'S' body
  | ReadyForQuery status ->
      Buffer.add_char body status;
      add_frame out 'Z' body
  | RowDescription fields ->
      put_i16 body (List.length fields);
      List.iter
        (fun f ->
          put_cstr body f.fd_name;
          put_i32 body 0;
          (* table oid *)
          put_i16 body 0;
          (* column attr number *)
          put_i32 body f.fd_type_oid;
          put_i16 body (-1);
          (* type size: variable *)
          put_i32 body (-1);
          (* type modifier *)
          put_i16 body (format_code f.fd_format))
        fields;
      add_frame out 'T' body
  | DataRow fields ->
      put_i16 body (List.length fields);
      List.iter
        (function
          | None -> put_i32 body (-1)
          | Some s ->
              put_i32 body (String.length s);
              Buffer.add_string body s)
        fields;
      add_frame out 'D' body
  | CommandComplete tag ->
      put_cstr body tag;
      add_frame out 'C' body
  | ErrorResponse { code; message } ->
      Buffer.add_char body 'S';
      put_cstr body "ERROR";
      Buffer.add_char body 'C';
      put_cstr body code;
      Buffer.add_char body 'M';
      put_cstr body message;
      put_u8 body 0;
      add_frame out 'E' body
  | EmptyQueryResponse -> add_frame out 'I' body
  | ParseComplete -> add_frame out '1' body
  | BindComplete -> add_frame out '2' body
  | NoData -> add_frame out 'n' body

let encode_backend (m : backend_msg) : string =
  let out = Buffer.create 64 in
  add_backend out m;
  Buffer.contents out

let put_formats body fs =
  put_i16 body (List.length fs);
  List.iter (fun f -> put_i16 body (format_code f)) fs

(** Append one frontend message's frame to [out], so a client can send
    several messages in one write. *)
let add_frontend out (m : frontend_msg) =
  let body = Buffer.create 64 in
  match m with
  | Startup params ->
      put_i32 body 196608;
      (* protocol 3.0 *)
      List.iter
        (fun (k, v) ->
          put_cstr body k;
          put_cstr body v)
        params;
      put_u8 body 0;
      put_i32 out (4 + Buffer.length body);
      Buffer.add_buffer out body
  | PasswordMessage p ->
      put_cstr body p;
      add_frame out 'p' body
  | Query q ->
      put_cstr body q;
      add_frame out 'Q' body
  | Parse { stmt; query; param_types } ->
      put_cstr body stmt;
      put_cstr body query;
      put_i16 body (List.length param_types);
      List.iter (put_i32 body) param_types;
      add_frame out 'P' body
  | Bind { portal; stmt; param_formats; params; result_formats } ->
      put_cstr body portal;
      put_cstr body stmt;
      put_formats body param_formats;
      put_i16 body (List.length params);
      List.iter
        (function
          | None -> put_i32 body (-1)
          | Some v ->
              put_i32 body (String.length v);
              Buffer.add_string body v)
        params;
      put_formats body result_formats;
      add_frame out 'B' body
  | Describe (target, name) ->
      Buffer.add_char body (match target with Statement -> 'S' | Portal -> 'P');
      put_cstr body name;
      add_frame out 'D' body
  | Execute { portal; max_rows } ->
      put_cstr body portal;
      put_i32 body max_rows;
      add_frame out 'E' body
  | Sync -> add_frame out 'S' body
  | Terminate -> add_frame out 'X' body

let encode_frontend (m : frontend_msg) : string =
  let out = Buffer.create 64 in
  add_frontend out m;
  Buffer.contents out

(* ---------------------------------------------------------------- *)
(* Decoding                                                          *)
(* ---------------------------------------------------------------- *)

(* Every decoder reads the message starting at [off] (default 0) and
   returns it plus the bytes it consumed. [Incomplete] means the frame
   has not fully arrived; [Decode_error] means it never will decode. *)

(* the cells of the DataRow body [data.[pos..limit)], each handed over
   in place: [null i] for a SQL NULL, [cell i data off len] for the
   bytes [data.[off..off+len)]; returns the cell count. Fields are
   bounded to the frame as a {!reader}'s are, without building one. *)
let data_row_cells data pos limit ~(null : int -> unit)
    ~(cell : int -> string -> int -> int -> unit) =
  let overrun () = decode_error "field overruns its frame" in
  if pos + 2 > limit then overrun ();
  let n = String.get_int16_be data pos in
  if n < 0 then decode_error "negative field count %d" n;
  if n * 4 > limit - pos - 2 then
    decode_error "%d elements overrun their frame" n;
  let pos = ref (pos + 2) in
  for i = 0 to n - 1 do
    if !pos + 4 > limit then overrun ();
    let len = Int32.to_int (String.get_int32_be data !pos) in
    pos := !pos + 4;
    if len = -1 then null i
    else begin
      if len < 0 || !pos + len > limit then overrun ();
      let off = !pos in
      pos := off + len;
      cell i data off len
    end
  done;
  n

let get_formats r =
  List.init (get_count r ~width:2) (fun _ -> format_of_code (get_i16 r))

let decode_backend ?(off = 0) (data : string) : backend_msg * int =
  let r = open_frame data off ~tag_bytes:1 ~min_len:4 in
  let m =
    match data.[off] with
    | 'R' -> (
        let code = get_i32 r in
        match code with
        | 0 -> AuthenticationOk
        | 3 -> AuthenticationCleartextPassword
        | 5 ->
            need r 4;
            let salt = String.sub r.data r.pos 4 in
            r.pos <- r.pos + 4;
            AuthenticationMD5Password salt
        | c -> decode_error "unknown auth code %d" c)
    | 'S' ->
        let k = get_cstr r in
        let v = get_cstr r in
        ParameterStatus (k, v)
    | 'Z' -> ReadyForQuery (Char.chr (get_u8 r))
    | 'T' ->
        (* a field is at least an empty name and 18 bytes of ints *)
        let n = get_count r ~width:19 in
        let fields =
          List.init n (fun _ ->
              let fd_name = get_cstr r in
              let _table_oid = get_i32 r in
              let _attr = get_i16 r in
              let fd_type_oid = get_i32 r in
              let _size = get_i16 r in
              let _modifier = get_i32 r in
              let fd_format = format_of_code (get_i16 r) in
              { fd_name; fd_type_oid; fd_format })
        in
        RowDescription fields
    | 'D' ->
        let cells = ref [] in
        ignore
          (data_row_cells r.data r.pos r.limit
             ~null:(fun _ -> cells := None :: !cells)
             ~cell:(fun _ s off len ->
               cells := Some (String.sub s off len) :: !cells));
        DataRow (List.rev !cells)
    | 'C' -> CommandComplete (get_cstr r)
    | 'E' ->
        let code = ref "XX000" and message = ref "unknown error" in
        let rec fields () =
          let f = get_u8 r in
          if f <> 0 then begin
            let v = get_cstr r in
            (match Char.chr f with
            | 'C' -> code := v
            | 'M' -> message := v
            | _ -> ());
            fields ()
          end
        in
        fields ();
        ErrorResponse { code = !code; message = !message }
    | 'I' -> EmptyQueryResponse
    | '1' -> ParseComplete
    | '2' -> BindComplete
    | 'n' -> NoData
    | t -> decode_error "unknown backend message %C" t
  in
  (m, r.limit - off)

(** Startup has no tag byte; pass [in_startup:true] until the startup
    packet has been seen. *)
let decode_frontend ?(in_startup = false) ?(off = 0) (data : string) :
    frontend_msg * int =
  if in_startup then begin
    let r = open_frame data off ~tag_bytes:0 ~min_len:8 in
    let proto = get_i32 r in
    if proto <> 196608 then decode_error "unsupported protocol %d" proto;
    let params = ref [] in
    let rec go () =
      if r.pos < r.limit && data.[r.pos] <> '\000' then begin
        let k = get_cstr r in
        let v = get_cstr r in
        params := (k, v) :: !params;
        go ()
      end
    in
    go ();
    (Startup (List.rev !params), r.limit - off)
  end
  else begin
    let r = open_frame data off ~tag_bytes:1 ~min_len:4 in
    let m =
      match data.[off] with
      | 'Q' -> Query (get_cstr r)
      | 'p' -> PasswordMessage (get_cstr r)
      | 'P' ->
          let stmt = get_cstr r in
          let query = get_cstr r in
          let param_types = List.init (get_count r ~width:4) (fun _ -> get_i32 r) in
          Parse { stmt; query; param_types }
      | 'B' ->
          let portal = get_cstr r in
          let stmt = get_cstr r in
          let param_formats = get_formats r in
          let params =
            List.init (get_count r ~width:4) (fun _ ->
                let len = get_i32 r in
                if len = -1 then None
                else begin
                  need r len;
                  let v = String.sub r.data r.pos len in
                  r.pos <- r.pos + len;
                  Some v
                end)
          in
          let result_formats = get_formats r in
          Bind { portal; stmt; param_formats; params; result_formats }
      | 'D' ->
          let target =
            match Char.chr (get_u8 r) with
            | 'S' -> Statement
            | 'P' -> Portal
            | c -> decode_error "unknown Describe target %C" c
          in
          Describe (target, get_cstr r)
      | 'E' ->
          let portal = get_cstr r in
          Execute { portal; max_rows = get_i32 r }
      | 'S' -> Sync
      | 'X' -> Terminate
      | t -> decode_error "unknown frontend message %C" t
    in
    (m, r.limit - off)
  end

(* ---------------------------------------------------------------- *)
(* Receive cursor                                                    *)
(* ---------------------------------------------------------------- *)

(** Received bytes with a read cursor. Messages decode in place at [pos];
    the consumed prefix is dropped only when {!append} adds bytes, so a
    reply of n messages costs one copy instead of n tail copies. *)
type input = { mutable buf : string; mutable pos : int }

let input () = { buf = ""; pos = 0 }

let append inp bytes =
  if bytes <> "" then begin
    let tail = String.length inp.buf - inp.pos in
    if tail = 0 then inp.buf <- bytes
    else begin
      let b = Bytes.create (tail + String.length bytes) in
      Bytes.blit_string inp.buf inp.pos b 0 tail;
      Bytes.blit_string bytes 0 b tail (String.length bytes);
      inp.buf <- Bytes.unsafe_to_string b
    end;
    inp.pos <- 0
  end

(** Drop every buffered byte. *)
let clear inp =
  inp.buf <- "";
  inp.pos <- 0

(** The next message's tag byte, or ['\000'] (no message's tag) while
    no byte is buffered. *)
let peek_tag inp =
  if inp.pos < String.length inp.buf then inp.buf.[inp.pos] else '\000'

(** How many complete DataRow frames lie back to back at the cursor: a
    size hint, so a reader can allocate its columns once. *)
let buffered_data_rows inp =
  let s = inp.buf in
  let rec go pos n =
    if pos + 5 <= String.length s && s.[pos] = 'D' then
      let next = pos + 1 + Int32.to_int (String.get_int32_be s (pos + 1)) in
      if next <= pos + 4 || next > String.length s then n else go next (n + 1)
    else n
  in
  go inp.pos 0

(** Decode the message at the cursor with [decode] and advance past it.
    Raises whatever [decode] raises; the cursor moves only on success. *)
let take inp (decode : ?off:int -> string -> 'a * int) : 'a =
  let v, consumed = decode ~off:inp.pos inp.buf in
  inp.pos <- inp.pos + consumed;
  v

(** Decode the DataRow at the cursor without building it, and advance
    past it: each cell goes to [null] or [cell] as {!data_row_cells}
    hands it over, read in place, so a frame allocates nothing.
    Returns the cell count. [Incomplete] (before any cell is handed
    over) while the frame has not fully arrived. *)
let take_data_row inp ~null ~cell : int =
  let data = inp.buf and off = inp.pos in
  let limit = frame_limit data off ~tag_bytes:1 ~min_len:4 in
  if data.[off] <> 'D' then decode_error "expected DataRow, got %C" data.[off];
  let n = data_row_cells data (off + 5) limit ~null ~cell in
  inp.pos <- limit;
  n
