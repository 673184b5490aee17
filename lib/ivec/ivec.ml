(** Unboxed int64 vectors: slot [i] is the 8 bytes at byte offset
    [8 * i] of one [Bytes], in the machine's byte order. A column of int
    payloads (a long, or a calendar or bool value's integer encoding)
    costs 8 bytes a slot and no pointer, where an [int64 array] costs a
    pointer and a 3-word box a slot. An OCaml [int array] would lose the
    int64 extremes, and a [Bigarray] costs a malloc and a finaliser per
    column. pgdb's int columns and Q's int vectors both hold one, so the
    result pivot hands a payload from one side to the other as it is.

    A slot is read and written by byte offset through {!get_at} and
    {!set_at}. They are externals, so each compiles to one load or store
    in its caller, also where the caller is built without cross-module
    inlining: the int64 passes between them and the arithmetic around it
    unboxed. A function returning an int64 would box it. *)

type t = Bytes.t

(** Slot [off / 8]; [off] is a byte offset, a multiple of 8. *)
external get_at : t -> int -> int64 = "%caml_bytes_get64"

external set_at : t -> int -> int64 -> unit = "%caml_bytes_set64"

(** {!get_at} and {!set_at} without the bounds check. *)
external unsafe_get_at : t -> int -> int64 = "%caml_bytes_get64u"

external unsafe_set_at : t -> int -> int64 -> unit = "%caml_bytes_set64u"

let empty : t = Bytes.empty
let length (a : t) : int = Bytes.length a lsr 3

(** [n] slots of unspecified contents. *)
let create (n : int) : t = Bytes.create (8 * n)

let make (n : int) (v : int64) : t =
  let a = create n in
  for i = 0 to n - 1 do
    unsafe_set_at a (8 * i) v
  done;
  a

(** Slot [k] is [a]'s slot [idx.(k)], or 0 where [idx.(k)] is
    negative. *)
let pick (a : t) (idx : int array) : t =
  let out = create (Array.length idx) in
  for k = 0 to Array.length idx - 1 do
    let i = Array.unsafe_get idx k in
    unsafe_set_at out (8 * k) (if i >= 0 then get_at a (8 * i) else 0L)
  done;
  out

(** The first [n] slots, [a] itself when it has no more. *)
let prefix (a : t) (n : int) : t =
  if length a = n then a else Bytes.sub a 0 (8 * n)

(** [a] grown or cut to [n] slots; new slots are 0. *)
let resize (a : t) (n : int) : t =
  let b = Bytes.make (8 * n) '\000' in
  Bytes.blit a 0 b 0 (8 * Stdlib.min n (length a));
  b

let concat (l : t list) : t = Bytes.concat Bytes.empty l
