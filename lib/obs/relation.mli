(** One introspection plane as a relation: named, typed columns, a row
    count and optional document-level fields.

    Every plane's data owner (the registry, the fingerprint store, the
    flight recorder, the session registry, the rings, the plan cache,
    the shard cluster) produces its relation once; the renderers here
    turn it into the admin port's JSON document or JSON lines, and the
    platform's Q renderer turns the same columns into the in-band
    [.hq.<plane>] table. Two surfaces of one plane therefore cannot
    disagree on a column's name, order or count.

    A column is materialised when the relation is made: a relation is a
    snapshot, safe to render after the owner's lock is released. *)

(** A document field, or one cell of a row. [Json] is pre-rendered JSON
    (a span tree, an operator tree, a nested object) spliced verbatim;
    [Json ""] renders as [null]. *)
type cell =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Json of string

(** One column's values, in row order. A [Jsons] column holds
    pre-rendered JSON like a [Json] cell. *)
type column =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Strs of string array
  | Jsons of string array

(** A named column over rows of type ['a]. *)
type 'a col

val int : string -> ('a -> int) -> 'a col
val float : string -> ('a -> float) -> 'a col
val bool : string -> ('a -> bool) -> 'a col
val str : string -> ('a -> string) -> 'a col
val json : string -> ('a -> string) -> 'a col

type t

(** [make ?fields ?n cols rows] evaluates every column over the first
    [n] (default: all) of [rows]. *)
val make : ?fields:(string * cell) list -> ?n:int -> 'a col list -> 'a list -> t

(** Append document-level fields. *)
val with_fields : t -> (string * cell) list -> t

(** The columns in order, for renderers outside this module (the Q
    table). *)
val columns : t -> (string * column) list

(** {1 JSON} Strings go through {!Trace.add_json_escaped}, floats
    through {!Trace.float_json} (NaN is [null]). *)

(** The rows as a JSON array of objects, keys in column order. *)
val rows_json : t -> string

(** One document: the fields, then the rows under [rows_key], then a
    newline. *)
val to_json : rows_key:string -> t -> string

(** One JSON object per row, one row per line. *)
val to_jsonl : t -> string

(** A JSON object or array of cells, for nested values that ride in a
    [Json] cell (per-class error counts, a statement list). *)
val obj : (string * cell) list -> string

val arr : cell list -> string
