(** QIPC message compression.

    kdb+ compresses IPC messages above a size threshold with a byte-pair
    LZ scheme: a flags byte governs the next eight items, each item being
    either a literal byte or a back-reference [hash; extra-length] into a
    256-entry table of last positions keyed by the XOR of a byte pair.
    This module implements that scheme structurally (flags byte, XOR-pair
    hash table, 2..257-byte matches); both directions maintain the table
    on the same schedule, so the decompressor reconstructs the
    compressor's references without transmitting positions.

    Positions are absolute within the uncompressed message (which includes
    its 8-byte header, as in kdb+), so position 0 < 8 doubles as the
    "unset" table entry.

    Both directions work in place. The compressor writes header, flags
    and items into one [Bytes] two bytes longer than the message,
    reserving each group's flags byte where it goes when the group's
    first item is written and filling it in when the group closes; the
    decompressor reads the frame where it lies in the caller's string
    and writes the message into one [Bytes], which it returns. Neither
    builds an intermediate buffer or calls a closure per byte. *)

let hash a b = Char.code a lxor Char.code b

(** Compress a full message (header + body). Returns [None] when the data
    is incompressible (output would not be smaller). *)
let compress (msg : string) : string option =
  let t = String.length msg in
  if t <= 12 then None
  else begin
    (* a check passes with at most t - 14 bytes of items and finished
       flags written, and one item adds at most 3 (its group's flags
       byte and a match): the stream never passes t + 1 *)
    let out = Bytes.create (t + 2) in
    let table = Array.make 256 0 in
    let upd = ref 8 in
    let s = ref 8 in
    (* [o]: next output byte; [fpos]: the current group's flags byte,
       reserved when its first item is written *)
    let o = ref 12 and fpos = ref 12 in
    let flag = ref 0 and nitems = ref 0 in
    let give_up = ref false in
    while !s < t && not !give_up do
      (* index all byte pairs fully contained in msg[8..s) *)
      let stop = !s - 1 in
      while !upd < stop do
        let u = !upd in
        Array.unsafe_set table
          (hash (String.unsafe_get msg u) (String.unsafe_get msg (u + 1)))
          u;
        upd := u + 1
      done;
      if !nitems = 8 then begin
        Bytes.unsafe_set out !fpos (Char.unsafe_chr !flag);
        flag := 0;
        nitems := 0
      end;
      (* the bytes written so far, not counting the open group's flags *)
      let written = !o - 12 - if !nitems > 0 then 1 else 0 in
      if written > t - 14 then give_up := true (* incompressible *)
      else begin
        if !nitems = 0 then begin
          fpos := !o;
          incr o
        end;
        let s0 = !s in
        let c0 = String.unsafe_get msg s0 in
        let matched =
          s0 + 2 < t
          &&
          let c1 = String.unsafe_get msg (s0 + 1) in
          let h = hash c0 c1 in
          let r = Array.unsafe_get table h in
          r >= 8
          && String.unsafe_get msg r = c0
          && String.unsafe_get msg (r + 1) = c1
          && begin
               (* extend the match, bounded to 257 bytes; a reference
                  may run into itself, since the decompressor copies
                  byte by byte *)
               let l = ref 2 in
               while
                 !l < 257
                 && s0 + !l < t
                 && String.unsafe_get msg (r + !l)
                    = String.unsafe_get msg (s0 + !l)
               do
                 incr l
               done;
               flag := !flag lor (1 lsl !nitems);
               Bytes.unsafe_set out !o (Char.unsafe_chr h);
               Bytes.unsafe_set out (!o + 1) (Char.unsafe_chr (!l - 2));
               o := !o + 2;
               (* the match start becomes the new table entry for h *)
               Array.unsafe_set table h s0;
               s := s0 + !l;
               if !s - 1 > !upd then upd := !s - 1;
               true
             end
        in
        if not matched then begin
          Bytes.unsafe_set out !o c0;
          incr o;
          s := s0 + 1
        end;
        incr nitems
      end
    done;
    (* layout: 8-byte header (compressed flag set, total length) +
       4-byte uncompressed total + compressed stream *)
    let total = !o in
    if !give_up || total >= t then None
    else begin
      if !nitems > 0 then Bytes.unsafe_set out !fpos (Char.unsafe_chr !flag);
      Bytes.set out 0 msg.[0];
      Bytes.set out 1 msg.[1];
      Bytes.set out 2 '\001';
      (* compressed *)
      Bytes.set out 3 '\000';
      Bytes.set_int32_le out 4 (Int32.of_int total);
      Bytes.set_int32_le out 8 (Int32.of_int t);
      Some (Bytes.sub_string out 0 total)
    end
  end

exception Corrupt of string

(** Decompress the complete compressed frame at [off] in [data] (its
    compressed flag assumed checked by the caller, its length read from
    its header); returns the uncompressed message including its 8-byte
    header. *)
let decompress ?(off = 0) (data : string) : bytes =
  let u32 pos = Int32.to_int (String.get_int32_le data pos) land 0xffffffff in
  if String.length data - off < 12 then
    raise (Corrupt "short compressed message");
  let len = u32 (off + 4) in
  if len < 12 then raise (Corrupt "short compressed message");
  if len > String.length data - off then raise (Corrupt "truncated stream");
  let src_len = off + len in
  let t = u32 (off + 8) in
  (* a match item (2 bytes plus its share of a flags byte) expands to at
     most 257 bytes, so a longer claim is a lie, not a big message *)
  if t < 8 || t - 8 > 128 * (len - 12) then
    raise (Corrupt "bad uncompressed length");
  let dst = Bytes.create t in
  (* reconstruct the 8-byte header: uncompressed flag, total length = t *)
  Bytes.set dst 0 data.[off];
  Bytes.set dst 1 data.[off + 1];
  Bytes.set dst 2 '\000';
  Bytes.set dst 3 '\000';
  Bytes.set_int32_le dst 4 (Int32.of_int t);
  let table = Array.make 256 0 in
  let upd = ref 8 in
  let d = ref (off + 12) and s = ref 8 in
  while !s < t do
    if !d + 1 > src_len then raise (Corrupt "truncated stream");
    let flags = Char.code (String.unsafe_get data !d) in
    incr d;
    let item = ref 0 in
    while !item < 8 && !s < t do
      let stop = !s - 1 in
      while !upd < stop do
        let u = !upd in
        Array.unsafe_set table
          (hash (Bytes.unsafe_get dst u) (Bytes.unsafe_get dst (u + 1)))
          u;
        upd := u + 1
      done;
      if flags land (1 lsl !item) <> 0 then begin
        if !d + 2 > src_len then raise (Corrupt "truncated stream");
        let h = Char.code (String.unsafe_get data !d) in
        let l = Char.code (String.unsafe_get data (!d + 1)) + 2 in
        d := !d + 2;
        let r = Array.unsafe_get table h in
        if r < 8 then raise (Corrupt "reference to unset table entry");
        if !s + l > t then raise (Corrupt "match overruns output");
        (* r < s: a table entry is always behind the output. A match may
           run into its own output, so it is copied byte by byte (most
           are a few bytes, shorter than a [Bytes.blit] call costs) *)
        let s0 = !s in
        for k = 0 to l - 1 do
          Bytes.unsafe_set dst (s0 + k) (Bytes.unsafe_get dst (r + k))
        done;
        Array.unsafe_set table h s0;
        s := s0 + l;
        if !s - 1 > !upd then upd := !s - 1
      end
      else begin
        if !d + 1 > src_len then raise (Corrupt "truncated stream");
        Bytes.unsafe_set dst !s (String.unsafe_get data !d);
        incr d;
        incr s
      end;
      incr item
    done
  done;
  dst
