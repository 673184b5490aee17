(** Q scalar type system.

    Q is dynamically typed; every runtime value carries its type. This module
    enumerates the scalar (atom) types supported by the reproduction and the
    coercion lattice used by arithmetic and comparison verbs.

    Temporal encodings follow kdb+ conventions:
    - [Date]: days since 2000.01.01 (signed)
    - [Time]: milliseconds since midnight
    - [Timestamp]: nanoseconds since 2000.01.01 (signed) *)

type t =
  | Bool
  | Long
  | Float
  | Char
  | Sym
  | Date
  | Time
  | Timestamp

let all = [ Bool; Long; Float; Char; Sym; Date; Time; Timestamp ]

let name = function
  | Bool -> "boolean"
  | Long -> "long"
  | Float -> "float"
  | Char -> "char"
  | Sym -> "symbol"
  | Date -> "date"
  | Time -> "time"
  | Timestamp -> "timestamp"

(** kdb+ type codes as used by the QIPC wire protocol: a vector of type [t]
    has code [code t]; the corresponding atom has code [- (code t)]. *)
let code = function
  | Bool -> 1
  | Long -> 7
  | Float -> 9
  | Char -> 10
  | Sym -> 11
  | Timestamp -> 12
  | Date -> 14
  | Time -> 19

let of_code c =
  match abs c with
  | 1 -> Some Bool
  | 7 -> Some Long
  | 9 -> Some Float
  | 10 -> Some Char
  | 11 -> Some Sym
  | 12 -> Some Timestamp
  | 14 -> Some Date
  | 19 -> Some Time
  | _ -> None

(** Single-character type letter, as printed by the [meta] verb. *)
let letter = function
  | Bool -> 'b'
  | Long -> 'j'
  | Float -> 'f'
  | Char -> 'c'
  | Sym -> 's'
  | Timestamp -> 'p'
  | Date -> 'd'
  | Time -> 't'

let is_numeric = function
  | Bool | Long | Float -> true
  | Char | Sym | Date | Time | Timestamp -> false

(** Numeric promotion used by arithmetic verbs: [Bool < Long < Float].
    Temporal types promote against [Long] to themselves (date shifting). *)
let promote a b =
  match (a, b) with
  | Float, _ | _, Float -> Float
  | Bool, Bool -> Long
  | (Bool | Long), (Bool | Long) -> Long
  | x, y when x = y -> x
  | _ -> Float

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let pp ppf t = Format.pp_print_string ppf (name t)
