(** QIPC — the kdb+ inter-process communication wire format
    (paper Sections 3.1 and 4.2).

    Byte-level implementation of the object-based, column-oriented format:
    a query result travels as a single message whose body is one serialized
    Q value. Numbers are little-endian; type codes follow kdb+ (negative
    for atoms, positive for vectors, 0 general list, 98 table, 99 dict).

    Message framing: 8-byte header
    [endianness(1) | msg_type(1) | compressed(1) | reserved(1) | length(4)]
    where length covers the header itself, followed by the body. *)

open Qvalue

(** The frame is malformed; more bytes cannot fix it. *)
exception Decode_error of string

(** The frame has not fully arrived yet: wait for more bytes. *)
exception Incomplete

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

type msg_type = Async | Sync | Response

let msg_type_code = function Async -> 0 | Sync -> 1 | Response -> 2

let msg_type_of_code = function
  | 0 -> Async
  | 1 -> Sync
  | 2 -> Response
  | c -> decode_error "unknown message type %d" c

(* ------------------------------------------------------------------ *)
(* Little-endian primitives                                            *)
(* ------------------------------------------------------------------ *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))
let put_i8 buf v = put_u8 buf (v land 0xff)

let put_i32 buf v =
  put_u8 buf (v land 0xff);
  put_u8 buf ((v lsr 8) land 0xff);
  put_u8 buf ((v lsr 16) land 0xff);
  put_u8 buf ((v lsr 24) land 0xff)

let put_i64 buf (v : int64) =
  for i = 0 to 7 do
    put_u8 buf (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

let put_f64 buf f = put_i64 buf (Int64.bits_of_float f)

(* [lim] is the end of the frame being read: no field read ever borrows
   bytes from the next message *)
type reader = { data : string; mutable pos : int; lim : int }

let need r n =
  if r.pos + n > r.lim then
    decode_error "truncated message (need %d bytes at %d)" n r.pos

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_i8 r =
  let v = get_u8 r in
  if v > 127 then v - 256 else v

let get_i32 r =
  need r 4;
  let b i = Char.code r.data.[r.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  (* sign-extend from 32 bits *)
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let get_i64 r =
  need r 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  !v

let get_f64 r = Int64.float_of_bits (get_i64 r)

(* ------------------------------------------------------------------ *)
(* Value encoding                                                      *)
(* ------------------------------------------------------------------ *)

(* null payloads per kdb+ conventions *)
let long_null = Int64.min_int
let int_null = -0x80000000

let put_sym buf s =
  Buffer.add_string buf s;
  put_u8 buf 0

let put_atom_payload buf (a : Atom.t) =
  match a with
  | Atom.Bool b -> put_u8 buf (if b then 1 else 0)
  | Atom.Long i -> put_i64 buf i
  | Atom.Float f -> put_f64 buf f
  | Atom.Char c -> put_u8 buf (Char.code c)
  | Atom.Sym s -> put_sym buf s
  | Atom.Timestamp n -> put_i64 buf n
  | Atom.Date d -> put_i32 buf d
  | Atom.Time t -> put_i32 buf t
  | Atom.Null ty -> (
      match ty with
      | Qtype.Bool -> put_u8 buf 0
      | Qtype.Long -> put_i64 buf long_null
      | Qtype.Float -> put_f64 buf Float.nan
      | Qtype.Char -> put_u8 buf (Char.code ' ')
      | Qtype.Sym -> put_sym buf ""
      | Qtype.Timestamp -> put_i64 buf long_null
      | Qtype.Date | Qtype.Time -> put_i32 buf int_null)

(* Direct columnar serialization: the payload of a typed vector is
   written by one monomorphic loop per element type — same-type atoms
   and typed nulls inline, with {!Atom.cast} only on the rare mistyped
   element — instead of running the [Qtype.equal]/[Atom.cast]/
   [put_atom_payload] triple dispatch once per element. Every result
   column the engine pivots from the decoded PG v3 rows leaves here as
   wire bytes without any per-element type probing. The byte output is
   identical to the generic path. *)
let put_vector_payload buf (ty : Qtype.t) (atoms : Atom.t array) =
  let n = Array.length atoms in
  let slow a = put_atom_payload buf (Atom.cast ty a) in
  match ty with
  | Qtype.Long ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Long v -> put_i64 buf v
        | Atom.Null _ -> put_i64 buf long_null
        | a -> slow a
      done
  | Qtype.Float ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Float v -> put_f64 buf v
        | Atom.Null _ -> put_f64 buf Float.nan
        | a -> slow a
      done
  | Qtype.Sym ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Sym s -> put_sym buf s
        | Atom.Null _ -> put_sym buf ""
        | a -> slow a
      done
  | Qtype.Bool ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Bool b -> put_u8 buf (if b then 1 else 0)
        | Atom.Null _ -> put_u8 buf 0
        | a -> slow a
      done
  | Qtype.Char ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Char c -> put_u8 buf (Char.code c)
        | Atom.Null _ -> put_u8 buf (Char.code ' ')
        | a -> slow a
      done
  | Qtype.Timestamp ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Timestamp v -> put_i64 buf v
        | Atom.Null _ -> put_i64 buf long_null
        | a -> slow a
      done
  | Qtype.Date ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Date v -> put_i32 buf v
        | Atom.Null _ -> put_i32 buf int_null
        | a -> slow a
      done
  | Qtype.Time ->
      for i = 0 to n - 1 do
        match Array.unsafe_get atoms i with
        | Atom.Time v -> put_i32 buf v
        | Atom.Null _ -> put_i32 buf int_null
        | a -> slow a
      done

let rec put_value buf (v : Value.t) =
  match v with
  | Value.Atom a ->
      put_i8 buf (-Qtype.code (Atom.qtype a));
      put_atom_payload buf a
  | Value.Vector (ty, atoms) ->
      put_i8 buf (Qtype.code ty);
      put_u8 buf 0;
      (* attributes byte *)
      put_i32 buf (Array.length atoms);
      (* payload width is fixed by the vector's element type *)
      put_vector_payload buf ty atoms
  | Value.List vs ->
      put_i8 buf 0;
      put_u8 buf 0;
      put_i32 buf (Array.length vs);
      Array.iter (put_value buf) vs
  | Value.Dict (k, v') ->
      put_i8 buf 99;
      put_value buf k;
      put_value buf v'
  | Value.Table t ->
      put_i8 buf 98;
      put_u8 buf 0;
      (* attributes *)
      put_i8 buf 99;
      (* the flip dict *)
      put_value buf (Value.syms t.Value.cols);
      put_value buf (Value.List t.Value.data)
  | Value.KTable (kt, vt) ->
      (* keyed table: dict of two tables *)
      put_i8 buf 99;
      put_value buf (Value.Table kt);
      put_value buf (Value.Table vt)

let get_sym r =
  let start = r.pos in
  let len = r.lim in
  let rec find i = if i >= len then decode_error "unterminated symbol" else if r.data.[i] = '\000' then i else find (i + 1) in
  let zero = find start in
  let s = String.sub r.data start (zero - start) in
  r.pos <- zero + 1;
  s

let get_atom_payload r (ty : Qtype.t) : Atom.t =
  match ty with
  | Qtype.Bool -> Atom.Bool (get_u8 r <> 0)
  | Qtype.Long ->
      let v = get_i64 r in
      if Int64.equal v long_null then Atom.Null Qtype.Long else Atom.Long v
  | Qtype.Float ->
      let f = get_f64 r in
      if Float.is_nan f then Atom.Null Qtype.Float else Atom.Float f
  | Qtype.Char -> Atom.Char (Char.chr (get_u8 r))
  | Qtype.Sym ->
      let s = get_sym r in
      if s = "" then Atom.Null Qtype.Sym else Atom.Sym s
  | Qtype.Timestamp ->
      let v = get_i64 r in
      if Int64.equal v long_null then Atom.Null Qtype.Timestamp
      else Atom.Timestamp v
  | Qtype.Date ->
      let v = get_i32 r in
      if v = int_null then Atom.Null Qtype.Date else Atom.Date v
  | Qtype.Time ->
      let v = get_i32 r in
      if v = int_null then Atom.Null Qtype.Time else Atom.Time v

(* a count can never exceed the bytes left in the frame: every element
   takes at least one *)
let get_count r =
  let n = get_i32 r in
  if n < 0 || n > r.lim - r.pos then
    decode_error "bad element count %d at %d" n r.pos;
  n

let rec get_value r : Value.t =
  let code = get_i8 r in
  if code < 0 then
    match Qtype.of_code code with
    | Some ty -> Value.Atom (get_atom_payload r ty)
    | None -> decode_error "unknown atom type code %d" code
  else if code = 0 then begin
    let _attrs = get_u8 r in
    let n = get_count r in
    Value.List (Array.init n (fun _ -> get_value r))
  end
  else if code = 98 then begin
    let _attrs = get_u8 r in
    let dict_code = get_i8 r in
    if dict_code <> 99 then decode_error "malformed table (expected dict)";
    let cols = get_value r in
    let data = get_value r in
    match (cols, data) with
    | Value.Vector (Qtype.Sym, names), Value.List columns ->
        Value.Table
          {
            Value.cols =
              Array.map
                (function Atom.Sym s -> s | _ -> decode_error "bad column name")
                names;
            data = columns;
          }
    | _ -> decode_error "malformed table body"
  end
  else if code = 99 then begin
    let k = get_value r in
    let v = get_value r in
    match (k, v) with
    | Value.Table kt, Value.Table vt -> Value.KTable (kt, vt)
    | _ -> Value.Dict (k, v)
  end
  else
    match Qtype.of_code code with
    | Some ty ->
        let _attrs = get_u8 r in
        let n = get_count r in
        Value.Vector (ty, Array.init n (fun _ -> get_atom_payload r ty))
    | None -> decode_error "unknown vector type code %d" code

(* error responses use type code -128 followed by the message text *)
let put_error buf (msg : string) =
  put_i8 buf (-128);
  put_sym buf msg

(* ------------------------------------------------------------------ *)
(* Message framing                                                     *)
(* ------------------------------------------------------------------ *)

type body = Query of string | Value of Value.t | Error of string

type message = { mt : msg_type; body : body }

(** Encode one complete QIPC message (header + body). Queries travel as
    char vectors, results as arbitrary Q values. With [compress:true]
    (the default), messages above kdb+'s 2000-byte threshold are
    compressed when that actually shrinks them. *)
let encode_message ?(compress = true) (m : message) : string =
  let payload = Buffer.create 64 in
  (match m.body with
  | Query text -> put_value payload (Value.string_ text)
  | Value v -> put_value payload v
  | Error e -> put_error payload e);
  let buf = Buffer.create (Buffer.length payload + 8) in
  put_u8 buf 1;
  (* little-endian *)
  put_u8 buf (msg_type_code m.mt);
  put_u8 buf 0;
  (* not compressed *)
  put_u8 buf 0;
  put_i32 buf (8 + Buffer.length payload);
  Buffer.add_buffer buf payload;
  let raw = Buffer.contents buf in
  if compress && String.length raw > 2000 then
    match Compress.compress raw with Some c -> c | None -> raw
  else raw

(* The header of the frame at [off]: message type, compressed flag and
   total length. [Incomplete] until the 8 header bytes are there;
   [Decode_error] for a header more bytes cannot fix. *)
let frame_header data off =
  if String.length data - off < 8 then raise Incomplete;
  let r = { data; pos = off; lim = off + 8 } in
  if get_u8 r <> 1 then decode_error "big-endian peers are not supported";
  let mt = msg_type_of_code (get_u8 r) in
  let compressed = get_u8 r <> 0 in
  let _reserved = get_u8 r in
  let total = get_i32 r in
  if total < 8 then decode_error "message length %d below the header" total;
  (mt, compressed, total)

(** The total length, header included, of the frame whose header starts
    at [off]. Raises [Incomplete] while fewer than 8 bytes are there and
    [Decode_error] for a header no further bytes can fix. *)
let frame_length (data : string) (off : int) : int =
  let _, _, total = frame_header data off in
  total

(* [frame_header], and [Incomplete] until the whole frame is there *)
let open_frame data off =
  let ((_, _, total) as h) = frame_header data off in
  if total > String.length data - off then raise Incomplete;
  h

(** Decode the QIPC message that starts at [off] in [data]; returns it
    and the number of bytes it occupies. Compressed messages are
    transparently decompressed. Raises [Incomplete] while the frame has
    not fully arrived and [Decode_error] when it is malformed. *)
let rec decode_frame (data : string) (off : int) : message * int =
  let mt, compressed, total = open_frame data off in
  if compressed then
    let plain =
      try Compress.decompress (String.sub data off total)
      with Compress.Corrupt m -> decode_error "corrupt compressed body: %s" m
    in
    (fst (decode_frame plain 0), total)
  else
    let r = { data; pos = off + 8; lim = off + total } in
    (* error responses carry type code -128 followed by the message text *)
    if r.pos < r.lim && data.[r.pos] = '\x80' then begin
      r.pos <- r.pos + 1;
      ({ mt; body = Error (get_sym r) }, total)
    end
    else
      let body =
        match get_value r with
        | Value.Vector (Qtype.Char, _) as s -> (
            (* char vectors are queries on the request path; plain string
               results are indistinguishable, the caller decides by
               direction *)
            match mt with
            | Sync | Async -> Query (Value.to_string_exn s)
            | Response -> Value s)
        | v -> Value v
      in
      ({ mt; body }, total)

(** Decode one complete QIPC message from the start of [data]; returns the
    message and the number of bytes consumed. A truncated message is a
    [Decode_error] here. *)
let decode_message (data : string) : message * int =
  try decode_frame data 0
  with Incomplete ->
    decode_error "truncated message (have %d bytes)" (String.length data)

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

(** Client side: "username:password" + version byte + NUL (paper Section
    4.2). *)
let encode_handshake ~(user : string) ~(password : string) ~(version : int) :
    string =
  Printf.sprintf "%s:%s%c%c" user password (Char.chr version) '\000'

type handshake = { user : string; password : string; version : int }

let decode_handshake (data : string) : handshake =
  match String.index_opt data '\000' with
  | None -> decode_error "unterminated handshake"
  | Some z ->
      if z < 1 then decode_error "empty handshake";
      let creds = String.sub data 0 (z - 1) in
      let version = Char.code data.[z - 1] in
      let user, password =
        match String.index_opt creds ':' with
        | Some i ->
            ( String.sub creds 0 i,
              String.sub creds (i + 1) (String.length creds - i - 1) )
        | None -> (creds, "")
      in
      { user; password; version }

(** Server side: accept by echoing a single capability byte. *)
let handshake_accept ~(version : int) : string = String.make 1 (Char.chr version)
