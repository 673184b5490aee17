(** The side-by-side testing framework (paper Section 5): every Q query
    runs on the kdb interpreter and through Hyper-Q→pgdb; results are
    normalised (keyed tables unkeyed, floats within tolerance, temporal
    values compared numerically) and diffed cell by cell. *)

type verdict =
  | Match
  | Mismatch of string  (** human-readable first difference *)
  | Kdb_error of string
  | Hyperq_error of string

type report = { query : string; verdict : verdict }

(** [None] when the two values agree after normalisation, otherwise the
    first difference. *)
val values_agree : Qvalue.Value.t -> Qvalue.Value.t -> string option

(** The Q type of each column of a result (a keyed table's or a
    dictionary's keys first), or of the list or atom itself. *)
val column_types : Qvalue.Value.t -> string list

(** [None] when the two values' {!column_types} are equal, otherwise
    both lists: {!values_agree} compares cells across types. *)
val types_agree : Qvalue.Value.t -> Qvalue.Value.t -> string option

type harness = { kdb : Kdb.Server.t; engine : Hyperq.Engine.t }

(** Load one generated dataset into both stacks. *)
val create : Workload.Marketdata.dataset -> harness

(** Run one Q program (with optional setup statements) on both sides. *)
val compare_query : harness -> ?setup:string list -> string -> verdict

(** The full 25-query Analytical Workload, one report per query. *)
val run_workload : Workload.Marketdata.dataset -> report list

val verdict_str : verdict -> string
