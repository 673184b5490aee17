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

(* Writers store at [pos] of a [Bytes] sized beforehand and return the
   next position; the bounds checks of [Bytes.set*] stay, so a sizing
   slip is an exception, never a wrong byte. *)
let put_u8 b pos v =
  Bytes.set b pos (Char.unsafe_chr (v land 0xff));
  pos + 1

let put_i32 b pos v =
  Bytes.set_int32_le b pos (Int32.of_int v);
  pos + 4

let put_i64 b pos (v : int64) =
  Bytes.set_int64_le b pos v;
  pos + 8

let put_f64 b pos f = put_i64 b pos (Int64.bits_of_float f)

(* [lim] is the end of the frame being read: no field read ever borrows
   bytes from the next message *)
type reader = { data : string; mutable pos : int; lim : int }

let need r n =
  if r.pos + n > r.lim then
    decode_error "truncated message (need %d bytes at %d)" n r.pos

let get_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let get_i8 r =
  let v = get_u8 r in
  if v > 127 then v - 256 else v

let get_i32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

(* read in place, so the float's bits are never boxed as an [int64] *)
let get_f64 r =
  need r 8;
  let f = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  f

(* ------------------------------------------------------------------ *)
(* Value encoding                                                      *)
(* ------------------------------------------------------------------ *)

(* null payloads per kdb+ conventions *)
let long_null = Int64.min_int
let int_null = -0x80000000

(* A vector's payload is written from and read into its {!Value.vec}
   with these externals, which move an int32 or int64 between a byte
   offset and the caller's registers unboxed, in the machine's byte
   order. Frames are little-endian, so a big-endian machine swaps.
   Writes keep their bounds checks, as [put_*]'s do; reads come after
   [need] has checked the whole payload against the frame. *)
external get32 : string -> int -> int32 = "%caml_string_get32u"
external get64 : string -> int -> int64 = "%caml_string_get64u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* An encode is two passes over the value: [value_size] counts its bytes
   (fixed widths per type, plus each symbol's length and NUL), then
   [put_value] writes them into one [Bytes] of exactly that size. *)

(* the payload width of a non-symbol element type *)
let width (ty : Qtype.t) =
  match ty with
  | Qtype.Bool | Qtype.Char | Qtype.Sym -> 1
  | Qtype.Date | Qtype.Time -> 4
  | Qtype.Long | Qtype.Float | Qtype.Timestamp -> 8

let atom_payload_size (a : Atom.t) =
  match a with
  | Atom.Sym s -> String.length s + 1
  | a -> width (Atom.qtype a)

(* a typed vector's payload: fixed width per element, except symbols,
   which cost their text and a NUL *)
let vector_payload_size (ty : Qtype.t) (v : Value.vec) =
  match v with
  | Value.Syms a ->
      Array.fold_left (fun n s -> n + String.length s + 1) 0 a
  | v -> width ty * Value.vec_length v

let rec value_size (v : Value.t) =
  match v with
  | Value.Atom a -> 1 + atom_payload_size a
  | Value.Vector (ty, p) -> 6 + vector_payload_size ty p
  | Value.List vs -> Array.fold_left (fun n v -> n + value_size v) 6 vs
  | Value.Dict (k, v') -> 1 + value_size k + value_size v'
  | Value.Table t ->
      (* type, attributes, the flip dict's type; then its two values *)
      3
      + Array.fold_left (fun n c -> n + String.length c + 1) 6 t.Value.cols
      + Array.fold_left (fun n v -> n + value_size v) 6 t.Value.data
  | Value.KTable (kt, vt) ->
      1 + value_size (Value.Table kt) + value_size (Value.Table vt)

let put_sym b pos s =
  let n = String.length s in
  Bytes.blit_string s 0 b pos n;
  put_u8 b (pos + n) 0

let put_atom_payload b pos (a : Atom.t) =
  match a with
  | Atom.Bool v -> put_u8 b pos (if v then 1 else 0)
  | Atom.Long i -> put_i64 b pos i
  | Atom.Float f -> put_f64 b pos f
  | Atom.Char c -> put_u8 b pos (Char.code c)
  | Atom.Sym s -> put_sym b pos s
  | Atom.Timestamp n -> put_i64 b pos n
  | Atom.Date d -> put_i32 b pos d
  | Atom.Time t -> put_i32 b pos t
  | Atom.Null ty -> (
      match ty with
      | Qtype.Bool -> put_u8 b pos 0
      | Qtype.Long -> put_i64 b pos long_null
      | Qtype.Float -> put_f64 b pos Float.nan
      | Qtype.Char -> put_u8 b pos (Char.code ' ')
      | Qtype.Sym -> put_sym b pos ""
      | Qtype.Timestamp -> put_i64 b pos long_null
      | Qtype.Date | Qtype.Time -> put_i32 b pos int_null)

(* Direct columnar serialization: a vector's payload already holds the
   wire's values, nulls included, so it is written as it stands. Long
   and timestamp slots are copied whole, date and time slots narrow to
   their 4 bytes, a bool slot to its byte, a float to its bits; symbols
   and chars are copied. *)
let put_vector_payload b pos (ty : Qtype.t) (v : Value.vec) =
  match v with
  | Value.Ints a -> (
      let n = Ivec.length a in
      match ty with
      | Qtype.Long | Qtype.Timestamp ->
          if Sys.big_endian then
            for i = 0 to n - 1 do
              set64 b (pos + (8 * i)) (swap64 (Ivec.unsafe_get_at a (8 * i)))
            done
          else Bytes.blit a 0 b pos (8 * n);
          pos + (8 * n)
      | Qtype.Date | Qtype.Time ->
          for i = 0 to n - 1 do
            let x = Int64.to_int32 (Ivec.unsafe_get_at a (8 * i)) in
            set32 b (pos + (4 * i)) (if Sys.big_endian then swap32 x else x)
          done;
          pos + (4 * n)
      | Qtype.Bool | Qtype.Float | Qtype.Char | Qtype.Sym ->
          for i = 0 to n - 1 do
            Bytes.set b (pos + i)
              (if Ivec.unsafe_get_at a (8 * i) <> 0L then '\001' else '\000')
          done;
          pos + n)
  | Value.Floats a ->
      for i = 0 to Array.length a - 1 do
        let x = Int64.bits_of_float (Array.unsafe_get a i) in
        set64 b (pos + (8 * i)) (if Sys.big_endian then swap64 x else x)
      done;
      pos + (8 * Array.length a)
  | Value.Syms a -> Array.fold_left (put_sym b) pos a
  | Value.Chars c ->
      Bytes.blit c 0 b pos (Bytes.length c);
      pos + Bytes.length c

(* a general list's or a vector's type, attributes byte and count *)
let put_list_header b pos code n =
  let pos = put_u8 b pos code in
  let pos = put_u8 b pos 0 in
  put_i32 b pos n

let rec put_value b pos (v : Value.t) =
  match v with
  | Value.Atom a ->
      let pos = put_u8 b pos (-Qtype.code (Atom.qtype a)) in
      put_atom_payload b pos a
  | Value.Vector (ty, p) ->
      let pos = put_list_header b pos (Qtype.code ty) (Value.vec_length p) in
      put_vector_payload b pos ty p
  | Value.List vs ->
      let pos = put_list_header b pos 0 (Array.length vs) in
      Array.fold_left (put_value b) pos vs
  | Value.Dict (k, v') ->
      let pos = put_u8 b pos 99 in
      put_value b (put_value b pos k) v'
  | Value.Table t ->
      let pos = put_u8 b pos 98 in
      let pos = put_u8 b pos 0 in
      (* attributes *)
      let pos = put_u8 b pos 99 in
      (* the flip dict: column names, then the column list *)
      let cols = t.Value.cols in
      let pos = put_list_header b pos (Qtype.code Qtype.Sym) (Array.length cols) in
      let pos = Array.fold_left (put_sym b) pos cols in
      put_value b pos (Value.List t.Value.data)
  | Value.KTable (kt, vt) ->
      (* keyed table: dict of two tables *)
      let pos = put_u8 b pos 99 in
      put_value b (put_value b pos (Value.Table kt)) (Value.Table vt)

let get_sym r =
  let start = r.pos in
  match String.index_from r.data start '\000' with
  | zero when zero < r.lim ->
      r.pos <- zero + 1;
      String.sub r.data start (zero - start)
  | _ | (exception Not_found) -> decode_error "unterminated symbol"

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
      if r.pos < r.lim && String.unsafe_get r.data r.pos = '\000' then begin
        r.pos <- r.pos + 1;
        Atom.Null Qtype.Sym
      end
      else Atom.Sym (get_sym r)
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

(* The payload of [n] elements of [ty], read straight into its
   {!Value.vec}: long and timestamp bytes are copied whole, date and time
   fields widen to their slots, bools become 0 or 1, float bits their
   floats; a symbol costs its string, an empty one nothing. *)
let get_vector_payload r (ty : Qtype.t) (n : int) : Value.vec =
  let d = r.data and pos = r.pos in
  match ty with
  | Qtype.Long | Qtype.Timestamp ->
      need r (8 * n);
      let a = Ivec.create n in
      if Sys.big_endian then
        for i = 0 to n - 1 do
          Ivec.unsafe_set_at a (8 * i) (swap64 (get64 d (pos + (8 * i))))
        done
      else Bytes.blit_string d pos a 0 (8 * n);
      r.pos <- pos + (8 * n);
      Value.Ints a
  | Qtype.Date | Qtype.Time ->
      need r (4 * n);
      let a = Ivec.create n in
      for i = 0 to n - 1 do
        let x = get32 d (pos + (4 * i)) in
        Ivec.unsafe_set_at a (8 * i)
          (Int64.of_int32 (if Sys.big_endian then swap32 x else x))
      done;
      r.pos <- pos + (4 * n);
      Value.Ints a
  | Qtype.Bool ->
      need r n;
      let a = Ivec.create n in
      for i = 0 to n - 1 do
        Ivec.unsafe_set_at a (8 * i)
          (if String.unsafe_get d (pos + i) <> '\000' then 1L else 0L)
      done;
      r.pos <- pos + n;
      Value.Ints a
  | Qtype.Float ->
      need r (8 * n);
      let a = Array.create_float n in
      for i = 0 to n - 1 do
        let x = get64 d (pos + (8 * i)) in
        Array.unsafe_set a i
          (Int64.float_of_bits (if Sys.big_endian then swap64 x else x))
      done;
      r.pos <- pos + (8 * n);
      Value.Floats a
  | Qtype.Char ->
      need r n;
      r.pos <- pos + n;
      Value.Chars (Bytes.sub (Bytes.unsafe_of_string d) pos n)
  | Qtype.Sym ->
      let a = Array.make n "" in
      for i = 0 to n - 1 do
        if r.pos < r.lim && String.unsafe_get d r.pos = '\000' then
          r.pos <- r.pos + 1
        else Array.unsafe_set a i (get_sym r)
      done;
      Value.Syms a

(* A general list is filled in place with {!Value.init_values}, which
   runs no forced minor collection however long the list. *)
let rec get_value r : Value.t =
  let code = get_i8 r in
  if code < 0 then
    match Qtype.of_code code with
    | Some ty -> Value.Atom (get_atom_payload r ty)
    | None -> decode_error "unknown atom type code %d" code
  else if code = 0 then begin
    let _attrs = get_u8 r in
    let n = get_count r in
    Value.List (Value.init_values n (fun _ -> get_value r))
  end
  else if code = 98 then begin
    let _attrs = get_u8 r in
    let dict_code = get_i8 r in
    if dict_code <> 99 then decode_error "malformed table (expected dict)";
    let cols = get_value r in
    let data = get_value r in
    match (cols, data) with
    | Value.Vector (Qtype.Sym, Value.Syms names), Value.List columns ->
        if Array.mem "" names then decode_error "bad column name";
        Value.Table { Value.cols = names; data = columns }
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
        Value.Vector (ty, get_vector_payload r ty n)
    | None -> decode_error "unknown vector type code %d" code

(* ------------------------------------------------------------------ *)
(* Message framing                                                     *)
(* ------------------------------------------------------------------ *)

type body = Query of string | Value of Value.t | Error of string

type message = { mt : msg_type; body : body }

(** Encode one complete QIPC message (header + body). Queries travel as
    char vectors, results as arbitrary Q values, error responses as type
    code -128 followed by the message text. The body is sized first, so
    header and body are written once, into one [Bytes] of exactly the
    message's length. With [compress:true] (the default), messages above
    kdb+'s 2000-byte threshold are compressed when that actually shrinks
    them. *)
let encode_message ?(compress = true) (m : message) : string =
  let size =
    8
    +
    match m.body with
    | Query text -> 6 + String.length text
    | Value v -> value_size v
    | Error e -> String.length e + 2
  in
  let b = Bytes.create size in
  let pos = put_u8 b 0 1 (* little-endian *) in
  let pos = put_u8 b pos (msg_type_code m.mt) in
  let pos = put_u8 b pos 0 (* not compressed *) in
  let pos = put_u8 b pos 0 in
  let pos = put_i32 b pos size in
  let pos =
    match m.body with
    | Query text ->
        let pos =
          put_list_header b pos (Qtype.code Qtype.Char) (String.length text)
        in
        Bytes.blit_string text 0 b pos (String.length text);
        pos + String.length text
    | Value v -> put_value b pos v
    | Error e -> put_sym b (put_u8 b pos (-128)) e
  in
  assert (pos = size);
  let raw = Bytes.unsafe_to_string b in
  if compress && size > 2000 then
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
      try Compress.decompress ~off data
      with Compress.Corrupt m -> decode_error "corrupt compressed body: %s" m
    in
    (fst (decode_frame (Bytes.unsafe_to_string plain) 0), total)
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
