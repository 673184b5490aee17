(** Mapping between the Q and SQL type systems and value domains
    (paper Section 3.2.2: int types map to integer types, symbols to
    varchar, strings to text, ...). *)

module Ty = Catalog.Sqltype
module QT = Qvalue.Qtype
module QA = Qvalue.Atom
module QV = Qvalue.Value
module PV = Pgdb.Value

let sql_of_qtype : QT.t -> Ty.t = function
  | QT.Bool -> Ty.TBool
  | QT.Long -> Ty.TBigint
  | QT.Float -> Ty.TDouble
  | QT.Sym -> Ty.TVarchar
  | QT.Char -> Ty.TText
  | QT.Date -> Ty.TDate
  | QT.Time -> Ty.TTime
  | QT.Timestamp -> Ty.TTimestamp

let qtype_of_sql : Ty.t -> QT.t = function
  | Ty.TBool -> QT.Bool
  | Ty.TBigint -> QT.Long
  | Ty.TDouble -> QT.Float
  | Ty.TVarchar -> QT.Sym
  | Ty.TText -> QT.Char
  | Ty.TDate -> QT.Date
  | Ty.TTime -> QT.Time
  | Ty.TTimestamp -> QT.Timestamp

(** Q atom -> SQL literal + type, for constant folding into queries. The
    temporal epochs agree on both sides, so the integer payloads transfer
    directly (a cast conveys the intended type). The null symbol is SQL
    NULL, as every other Q null is. *)
let lit_of_atom (a : QA.t) : Sqlast.Ast.lit * Ty.t =
  match a with
  | QA.Bool b -> (Sqlast.Ast.Bool b, Ty.TBool)
  | QA.Long i -> (Sqlast.Ast.Int i, Ty.TBigint)
  | QA.Float f -> (Sqlast.Ast.Float f, Ty.TDouble)
  | QA.Sym "" -> (Sqlast.Ast.Null, Ty.TVarchar)
  | QA.Sym s -> (Sqlast.Ast.Str s, Ty.TVarchar)
  | QA.Char c -> (Sqlast.Ast.Str (String.make 1 c), Ty.TText)
  | QA.Date d ->
      let y, m, dd = QA.ymd_of_date d in
      (Sqlast.Ast.Str (Printf.sprintf "%04d-%02d-%02d" y m dd), Ty.TDate)
  | QA.Time t ->
      let ms = t mod 1000 and s = t / 1000 in
      ( Sqlast.Ast.Str
          (Printf.sprintf "%02d:%02d:%02d.%03d" (s / 3600) (s / 60 mod 60)
             (s mod 60) ms),
        Ty.TTime )
  | QA.Timestamp n -> (
      match PV.to_text (PV.Timestamp n) with
      | Some s -> (Sqlast.Ast.Str s, Ty.TTimestamp)
      | None -> (Sqlast.Ast.Null, Ty.TTimestamp))
  | QA.Null ty -> (Sqlast.Ast.Null, sql_of_qtype ty)

(** SQL runtime value of a column of type [ty] -> Q atom of [ty]'s Q
    type, for pivoting backend results into QIPC values. A [text] value
    is one char here; {!q_of_value} takes any. *)
let atom_of_value (ty : Ty.t) (v : PV.t) : QA.t =
  match v with
  | PV.Null -> QA.Null (qtype_of_sql ty)
  | PV.Bool b -> QA.Bool b
  | PV.Int i -> (
      match ty with
      | Ty.TDate -> QA.Date (Int64.to_int i)
      | Ty.TTime -> QA.Time (Int64.to_int i)
      | Ty.TTimestamp -> QA.Timestamp i
      | _ -> QA.Long i)
  | PV.Float f -> QA.Float f
  | PV.Str s -> if ty = Ty.TText then QA.Char s.[0] else QA.Sym s
  | PV.Date d -> QA.Date d
  | PV.Time t -> QA.Time t
  | PV.Timestamp n -> QA.Timestamp n

(** SQL runtime value of a column of type [ty] -> Q value: its atom, or
    the string (a char vector) kdb holds a [text] value in when it is
    not one char. *)
let q_of_value (ty : Ty.t) (v : PV.t) : QV.t =
  match v with
  | PV.Str s when ty = Ty.TText && String.length s <> 1 -> QV.string_ s
  | v -> QV.Atom (atom_of_value ty v)
