(** QIPC message compression: kdb+'s byte-pair LZ scheme, structurally —
    a flags byte per eight items, back-references into a 256-entry table
    of last positions keyed by the XOR of a byte pair, 2–257-byte
    matches. Both directions maintain the table on the same schedule, so
    references need no transmitted positions. Both work in place: one
    output [Bytes] each, no intermediate buffer. *)

(** Compress a complete message (8-byte header + body). [None] when
    compression would not shrink it. The result carries the compressed
    flag and a 4-byte uncompressed-length prefix. *)
val compress : string -> string option

exception Corrupt of string

(** Inverse of {!compress}: the compressed frame starting at [off]
    (default 0) of the string, as long as its header says, read where it
    lies. Returns the original message including its header. Raises
    {!Corrupt} on malformed input. *)
val decompress : ?off:int -> string -> bytes
