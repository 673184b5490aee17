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
    "unset" table entry. *)

let hash a b = Char.code a lxor Char.code b

(** Compress a full message (header + body). Returns [None] when the data
    is incompressible (output would not be smaller). *)
let compress (msg : string) : string option =
  let t = String.length msg in
  if t <= 12 then None
  else begin
    let out = Buffer.create (t / 2) in
    let table = Array.make 256 0 in
    let upd = ref 8 in
    (* pending flag byte handling: collect up to 8 items, then emit *)
    let flag = ref 0 and nitems = ref 0 in
    let pending = Buffer.create 16 in
    let flush () =
      if !nitems > 0 then begin
        Buffer.add_char out (Char.chr !flag);
        Buffer.add_buffer out pending;
        Buffer.clear pending;
        flag := 0;
        nitems := 0
      end
    in
    let update_table_to s =
      (* index all byte pairs fully contained in msg[8..s) *)
      let stop = s - 1 in
      while !upd < stop do
        table.(hash msg.[!upd] msg.[!upd + 1]) <- !upd;
        incr upd
      done
    in
    let s = ref 8 in
    (try
       while !s < t do
         update_table_to !s;
         if !nitems = 8 then flush ();
         if Buffer.length out + Buffer.length pending > t - 14 then
           raise_notrace Exit (* incompressible *);
         let emitted_match =
           if !s + 2 < t then begin
             let h = hash msg.[!s] msg.[!s + 1] in
             let r = table.(h) in
             if r >= 8 && msg.[r] = msg.[!s] && msg.[r + 1] = msg.[!s + 1]
             then begin
               (* extend the match, bounded to 257 bytes *)
               (* overlapping matches are fine: the decompressor copies
                  byte-by-byte, so a reference may run into itself *)
               let l = ref 2 in
               while !l < 257 && !s + !l < t && msg.[r + !l] = msg.[!s + !l] do
                 incr l
               done;
               flag := !flag lor (1 lsl !nitems);
               Buffer.add_char pending (Char.chr h);
               Buffer.add_char pending (Char.chr (!l - 2));
               incr nitems;
               (* the match start becomes the new table entry for h *)
               table.(h) <- !s;
               s := !s + !l;
               upd := max !upd (!s - 1);
               true
             end
             else false
           end
           else false
         in
         if not emitted_match then begin
           Buffer.add_char pending msg.[!s];
           incr nitems;
           incr s
         end
       done;
       flush ();
       let body = Buffer.contents out in
       (* layout: 8-byte header (compressed flag set, total length) +
          4-byte uncompressed total + compressed stream *)
       let total = 8 + 4 + String.length body in
       if total >= t then None
       else begin
         let hdr = Bytes.create 12 in
         Bytes.set hdr 0 msg.[0];
         Bytes.set hdr 1 msg.[1];
         Bytes.set hdr 2 '\001';
         (* compressed *)
         Bytes.set hdr 3 '\000';
         let put_i32 off v =
           Bytes.set hdr off (Char.chr (v land 0xff));
           Bytes.set hdr (off + 1) (Char.chr ((v lsr 8) land 0xff));
           Bytes.set hdr (off + 2) (Char.chr ((v lsr 16) land 0xff));
           Bytes.set hdr (off + 3) (Char.chr ((v lsr 24) land 0xff))
         in
         put_i32 4 total;
         put_i32 8 t;
         Some (Bytes.to_string hdr ^ body)
       end
     with Exit -> None)
  end

exception Corrupt of string

(** Decompress a complete compressed message (compressed flag assumed
    checked by the caller); returns the uncompressed message including its
    8-byte header. *)
let decompress (msg : string) : string =
  if String.length msg < 12 then raise (Corrupt "short compressed message");
  let get_i32 off =
    Char.code msg.[off]
    lor (Char.code msg.[off + 1] lsl 8)
    lor (Char.code msg.[off + 2] lsl 16)
    lor (Char.code msg.[off + 3] lsl 24)
  in
  let t = get_i32 8 in
  (* a match item (2 bytes plus its share of a flags byte) expands to at
     most 257 bytes, so a longer claim is a lie, not a big message *)
  if t < 8 || t - 8 > 128 * (String.length msg - 12) then
    raise (Corrupt "bad uncompressed length");
  let dst = Bytes.create t in
  (* reconstruct the 8-byte header: uncompressed flag, total length = t *)
  Bytes.set dst 0 msg.[0];
  Bytes.set dst 1 msg.[1];
  Bytes.set dst 2 '\000';
  Bytes.set dst 3 '\000';
  Bytes.set dst 4 (Char.chr (t land 0xff));
  Bytes.set dst 5 (Char.chr ((t lsr 8) land 0xff));
  Bytes.set dst 6 (Char.chr ((t lsr 16) land 0xff));
  Bytes.set dst 7 (Char.chr ((t lsr 24) land 0xff));
  let table = Array.make 256 0 in
  let upd = ref 8 in
  let update_table_to s =
    let stop = s - 1 in
    while !upd < stop do
      table.(hash (Bytes.get dst !upd) (Bytes.get dst (!upd + 1))) <- !upd;
      incr upd
    done
  in
  let d = ref 12 and s = ref 8 in
  let src_len = String.length msg in
  let need n = if !d + n > src_len then raise (Corrupt "truncated stream") in
  while !s < t do
    need 1;
    let flags = Char.code msg.[!d] in
    incr d;
    let item = ref 0 in
    while !item < 8 && !s < t do
      update_table_to !s;
      if flags land (1 lsl !item) <> 0 then begin
        need 2;
        let h = Char.code msg.[!d] in
        let l = Char.code msg.[!d + 1] + 2 in
        d := !d + 2;
        let r = table.(h) in
        if r < 8 then raise (Corrupt "reference to unset table entry");
        if !s + l > t then raise (Corrupt "match overruns output");
        for k = 0 to l - 1 do
          Bytes.set dst (!s + k) (Bytes.get dst (r + k))
        done;
        table.(h) <- !s;
        s := !s + l;
        upd := max !upd (!s - 1)
      end
      else begin
        need 1;
        Bytes.set dst !s msg.[!d];
        incr d;
        incr s
      end;
      incr item
    done
  done;
  Bytes.to_string dst
