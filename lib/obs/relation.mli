(** One introspection plane as a relation: named, typed columns, a row
    count and optional document-level fields; and the one JSON value
    type and writer of the observability layer.

    Every plane's data owner (the registry, the fingerprint store, the
    flight recorder, the session registry, the rings, the plan cache,
    the shard cluster) produces its relation once; the renderers here
    turn it into the admin port's JSON document or JSON lines, or, for
    a relation of samples, Prometheus text, and the platform's Q
    renderer turns the same columns into the in-band [.hq.<plane>]
    table. Two surfaces of one plane therefore cannot disagree on a
    column's name, order or count.

    {!cell} is also the value type of every other JSON the proxy writes:
    log lines and query events ({!Events}), span attributes ({!Trace}).
    They all go through this module's writer, so string escaping and
    float rendering exist once.

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

(** {1 JSON} Strings are escaped for a JSON string body. Floats print
    with 15 significant digits and a decimal point on whole numbers; the
    non-finite ones have no JSON literal and degrade to parseable JSON:
    NaN is [null], the infinities the strings ["inf"] and ["-inf"]. *)

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

(** One cell as JSON. *)
val cell_json : cell -> string

(** {1 Prometheus} *)

(** One sample line of the text exposition: [p_family] names the metric
    family (its [# HELP] and [# TYPE] lines), [p_suffix] is [""] or a
    histogram's [_bucket], [_sum] or [_count]. *)
type sample = {
  p_family : string;
  p_type : string;  (** ["counter"], ["gauge"] or ["histogram"] *)
  p_help : string;
  p_suffix : string;
  p_labels : (string * string) list;
  p_value : float;
}

(** The samples as a relation, one row each, in order: string columns
    [family], [type], [help] and [suffix], one string column per label
    name ([""] where a sample lacks the label), and a float [value]
    column. The label columns come in an order that agrees with each
    sample's own label order. *)
val samples : sample list -> t

(** Prometheus text exposition of a relation of {!samples}: a family's
    [# HELP] (its first non-empty help) and [# TYPE] lines, then each
    sample line as [family suffix {labels} value]. Label columns are the
    string columns other than [family], [type], [help] and [suffix];
    a label whose value is [""] is left out, as Prometheus reads an
    empty label value as an absent label. Raises [Invalid_argument] on
    a relation without those columns. *)
val to_prometheus : t -> string

(** A number as the exposition writes it, sample values and [le]
    bounds alike: 15 significant digits, as the JSON writer prints
    them, and [NaN], [+Inf], [-Inf] for the non-finite values. *)
val prometheus_float : float -> string

(** Escape a label value for the exposition: backslash, double quote
    and newline get a backslash escape; everything else passes through
    literally (unlike OCaml's [%S]). *)
val escape_label_value : string -> string

(** [{k="v",...}] with escaped values, or [""] for no labels: a series
    key such as [name{k="v"}]. *)
val labels_text : (string * string) list -> string
