(** SQL runtime values with three-valued logic.

    This is the semantic counterpoint to Q's two-valued {!Qvalue.Atom}:
    here [NULL = NULL] is unknown (represented as [Null]), and predicates
    only accept rows whose condition is definitely true. Temporal values
    share the Q epochs (days / ms / ns since 2000-01-01) to keep the
    Hyper-Q result pivot cheap; their text form is ISO-8601 as in PG. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | Date of int  (** days since 2000-01-01 *)
  | Time of int  (** milliseconds since midnight *)
  | Timestamp of int64  (** nanoseconds since 2000-01-01 *)

let is_null = function Null -> true | _ -> false

let type_of : t -> Catalog.Sqltype.t option = function
  | Null -> None
  | Bool _ -> Some Catalog.Sqltype.TBool
  | Int _ -> Some Catalog.Sqltype.TBigint
  | Float _ -> Some Catalog.Sqltype.TDouble
  | Str _ -> Some Catalog.Sqltype.TText
  | Date _ -> Some Catalog.Sqltype.TDate
  | Time _ -> Some Catalog.Sqltype.TTime
  | Timestamp _ -> Some Catalog.Sqltype.TTimestamp

(* ------------------------------------------------------------------ *)
(* Numeric coercion                                                    *)
(* ------------------------------------------------------------------ *)

let to_float = function
  | Int i -> Some (Int64.to_float i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Date d -> Some (float_of_int d)
  | Time t -> Some (float_of_int t)
  | Timestamp n -> Some (Int64.to_float n)
  | Null | Str _ -> None

let to_int = function
  | Int i -> Some i
  | Float f -> Some (Int64.of_float f)
  | Bool b -> Some (if b then 1L else 0L)
  | Date d -> Some (Int64.of_int d)
  | Time t -> Some (Int64.of_int t)
  | Timestamp n -> Some n
  | Null | Str _ -> None

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

(** SQL comparison: [None] when either side is NULL (unknown), otherwise
    the usual ordering. *)
let rec compare3 (a : t) (b : t) : int option =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Bool x, Bool y -> Some (Stdlib.compare x y)
  | Str x, Str y -> Some (String.compare x y)
  | Int x, Int y -> Some (Int64.compare x y)
  | Date x, Date y | Time x, Time y -> Some (Int.compare x y)
  | Timestamp x, Timestamp y -> Some (Int64.compare x y)
  | (Int _ | Float _ | Bool _ | Date _ | Time _ | Timestamp _),
    (Int _ | Float _ | Bool _ | Date _ | Time _ | Timestamp _) -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> Some (Float.compare x y)
      | _ -> None)
  | _ -> Errors.type_mismatch "cannot compare %s with %s" (to_debug a) (to_debug b)

(** Total order used by ORDER BY and window sorting: NULLS LAST for ASC,
    as in PostgreSQL's default. *)
and compare_total (a : t) (b : t) : int =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> 1
  | _, Null -> -1
  | _ -> ( match compare3 a b with Some c -> c | None -> 0)

and to_debug = function
  | Null -> "null"
  | Bool _ -> "boolean"
  | Int _ -> "bigint"
  | Float _ -> "double"
  | Str _ -> "text"
  | Date _ -> "date"
  | Time _ -> "time"
  | Timestamp _ -> "timestamp"

(** SQL equality (3VL): NULL when either side is NULL. *)
let eq3 a b : t =
  match compare3 a b with None -> Null | Some c -> Bool (c = 0)

(** IS NOT DISTINCT FROM: null-safe equality — the 2VL escape hatch Hyper-Q
    relies on (paper Section 3.3). *)
let not_distinct a b : t =
  match (a, b) with
  | Null, Null -> Bool true
  | Null, _ | _, Null -> Bool false
  | _ -> ( match compare3 a b with Some c -> Bool (c = 0) | None -> Bool false)

(* ------------------------------------------------------------------ *)
(* Arithmetic (null-propagating)                                       *)
(* ------------------------------------------------------------------ *)

let arith name fop iop a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (iop x y)
  | Date d, Int i -> Date (d + Int64.to_int i)
  | Int i, Date d when name = "+" -> Date (d + Int64.to_int i)
  | Date x, Date y when name = "-" -> Int (Int64.of_int (x - y))
  | Timestamp x, Timestamp y when name = "-" -> Int (Int64.sub x y)
  | Timestamp x, Int y -> Timestamp (iop x y)
  | Time x, Int y -> Time (Int64.to_int (iop (Int64.of_int x) y))
  | _ -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> Float (fop x y)
      | _ -> Errors.type_mismatch "bad operands for %s" name)

let add = arith "+" ( +. ) Int64.add
let sub = arith "-" ( -. ) Int64.sub
let mul = arith "*" ( *. ) Int64.mul

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int _, Int 0L -> Errors.division_by_zero "division by zero"
  | Int x, Int y -> Int (Int64.div x y)
  | _ -> (
      match (to_float a, to_float b) with
      | Some _, Some 0.0 -> Errors.division_by_zero "division by zero"
      | Some x, Some y -> Float (x /. y)
      | _ -> Errors.type_mismatch "bad operands for /")

let modulo a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int _, Int 0L -> Errors.division_by_zero "modulo by zero"
  | Int x, Int y -> Int (Int64.rem x y)
  | _ -> Errors.type_mismatch "bad operands for %%"

(* 3VL boolean connectives *)
let and3 a b =
  match (a, b) with
  | Bool false, _ | _, Bool false -> Bool false
  | Bool true, Bool true -> Bool true
  | _ -> Null

let or3 a b =
  match (a, b) with
  | Bool true, _ | _, Bool true -> Bool true
  | Bool false, Bool false -> Bool false
  | _ -> Null

let not3 = function Bool b -> Bool (not b) | _ -> Null

(** Does this value make a WHERE clause accept the row? *)
let is_true = function Bool true -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Text rendering (PG text protocol format)                            *)
(* ------------------------------------------------------------------ *)

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 then 29 else 28
  | _ -> invalid_arg "days_in_month"

let ymd_of_days days =
  let y = ref 2000 and d = ref days in
  let year_len yy =
    if (yy mod 4 = 0 && yy mod 100 <> 0) || yy mod 400 = 0 then 366 else 365
  in
  while !d < 0 do
    decr y;
    d := !d + year_len !y
  done;
  while !d >= year_len !y do
    d := !d - year_len !y;
    incr y
  done;
  let m = ref 1 in
  while !d >= days_in_month !y !m do
    d := !d - days_in_month !y !m;
    incr m
  done;
  (!y, !m, !d + 1)

let days_of_ymd y m d =
  let days = ref 0 in
  if y >= 2000 then
    for yy = 2000 to y - 1 do
      days :=
        !days
        + if (yy mod 4 = 0 && yy mod 100 <> 0) || yy mod 400 = 0 then 366 else 365
    done
  else
    for yy = y to 1999 do
      days :=
        !days
        - (if (yy mod 4 = 0 && yy mod 100 <> 0) || yy mod 400 = 0 then 366
           else 365)
    done;
  for mm = 1 to m - 1 do
    days := !days + days_in_month y mm
  done;
  !days + d - 1

let ns_per_day = 86_400_000_000_000L

(* Decimal digits written straight into the buffer. Digits are produced
   from a non-positive value so [min_int] needs no special case. *)
let rec add_nonpos_digits b n =
  if n <= -10 then add_nonpos_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let rec count_nonpos_digits n =
  if n > -10 then 1 else 1 + count_nonpos_digits (n / 10)

(* Printf's "%0*d": the sign, then zeros so sign and digits fill [width] *)
let add_padded b width n =
  let m = if n < 0 then n else -n in
  let len = count_nonpos_digits m + if n < 0 then 1 else 0 in
  if n < 0 then Buffer.add_char b '-';
  for _ = len + 1 to width do
    Buffer.add_char b '0'
  done;
  add_nonpos_digits b m

(* Printf's "%Ld". The quotient by 10 fits a native int, the last digit
   is written on its own. *)
let add_int64 b i =
  if Int64.compare i 0L < 0 then Buffer.add_char b '-';
  let q = Int64.to_int (Int64.div i 10L) in
  let r = Int64.to_int (Int64.rem i 10L) in
  if q <> 0 then add_nonpos_digits b (if q < 0 then q else -q);
  Buffer.add_char b (Char.unsafe_chr (48 + abs r))

external format_float : string -> float -> string = "caml_format_float"

let add_date b d =
  let y, m, dd = ymd_of_days d in
  add_padded b 4 y;
  Buffer.add_char b '-';
  add_padded b 2 m;
  Buffer.add_char b '-';
  add_padded b 2 dd

(* "%02d:%02d:%02d" of a second count, as hours, minutes and seconds *)
let add_clock b s =
  add_padded b 2 (s / 3600);
  Buffer.add_char b ':';
  add_padded b 2 (s / 60 mod 60);
  Buffer.add_char b ':';
  add_padded b 2 (s mod 60)

(** Append [v]'s PG text format, as sent in DataRow messages; [Null]
    appends nothing (the wire marks NULL by length, not text). Output is
    byte-identical to the Printf specification it replaces: "%Ld";
    "%.1f" for integral floats below 1e15 and "%.17g" otherwise;
    "%04d-%02d-%02d"; "%02d:%02d:%02d.%03d"; and for timestamps the
    date, a space, then the clock with "%06d" microseconds. *)
let add_text b = function
  | Null -> ()
  | Bool v -> Buffer.add_char b (if v then 't' else 'f')
  | Int i -> add_int64 b i
  | Float f ->
      Buffer.add_string b
        (if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
         else format_float "%.17g" f)
  | Str s -> Buffer.add_string b s
  | Date d -> add_date b d
  | Time t ->
      add_clock b (t / 1000);
      Buffer.add_char b '.';
      add_padded b 3 (t mod 1000)
  | Timestamp n ->
      let day = Int64.to_int (Int64.div n ns_per_day) in
      let rem = Int64.rem n ns_per_day in
      let day, rem =
        if Int64.compare rem 0L < 0 then (day - 1, Int64.add rem ns_per_day)
        else (day, rem)
      in
      add_date b day;
      Buffer.add_char b ' ';
      add_clock b (Int64.to_int (Int64.div rem 1_000_000_000L));
      Buffer.add_char b '.';
      add_padded b 6
        (Int64.to_int (Int64.div (Int64.rem rem 1_000_000_000L) 1000L))

(** PG text-format rendering, as sent in DataRow messages. *)
let to_text = function
  | Null -> None
  | Str s -> Some s
  | v ->
      let b = Buffer.create 24 in
      add_text b v;
      Some (Buffer.contents b)

let to_display v = match to_text v with Some s -> s | None -> "NULL"

let rec pow10 n = if n <= 0 then 1 else 10 * pow10 (n - 1)

(* "HH:MM[:SS[.fff...]]" as a count of 10^-[places] seconds since
   midnight; fraction digits beyond [places] are truncated. *)
let clock_of_text ~places s =
  let unit = pow10 places in
  match String.split_on_char ':' s with
  | [ h; m; sec ] ->
      let sec, frac =
        match String.split_on_char '.' sec with
        | [ s' ] -> (int_of_string s', 0)
        | [ s'; frac ] ->
            let n = min places (String.length frac) in
            ( int_of_string s',
              int_of_string (String.sub frac 0 n) * pow10 (places - n) )
        | _ -> Errors.type_mismatch "bad time %s" s
      in
      ((((int_of_string h * 3600) + (int_of_string m * 60) + sec) * unit) + frac)
  | [ h; m ] -> ((int_of_string h * 60) + int_of_string m) * 60 * unit
  | _ -> Errors.type_mismatch "bad time %s" s

(** Parse a value from PG text format, guided by the column type. *)
let of_text (ty : Catalog.Sqltype.t) (s : string) : t =
  let days d =
    match String.split_on_char '-' d with
    | [ y; m; dd ] ->
        days_of_ymd (int_of_string y) (int_of_string m) (int_of_string dd)
    | _ -> Errors.type_mismatch "bad date %s" d
  in
  match ty with
  | Catalog.Sqltype.TBool -> Bool (s = "t" || s = "true" || s = "TRUE" || s = "1")
  | Catalog.Sqltype.TBigint -> Int (Int64.of_string s)
  | Catalog.Sqltype.TDouble -> Float (float_of_string s)
  | Catalog.Sqltype.TVarchar | Catalog.Sqltype.TText -> Str s
  | Catalog.Sqltype.TDate -> Date (days s)
  | Catalog.Sqltype.TTime -> Time (clock_of_text ~places:3 s)
  | Catalog.Sqltype.TTimestamp -> (
      let at_midnight d = Int64.mul (Int64.of_int (days d)) ns_per_day in
      match String.split_on_char ' ' s with
      | [ d; t ] ->
          let ns = clock_of_text ~places:9 t in
          Timestamp (Int64.add (at_midnight d) (Int64.of_int ns))
      | [ d ] -> Timestamp (at_midnight d)
      | _ -> Errors.type_mismatch "bad timestamp %s" s)

(** Cast between SQL types, as [CAST(x AS t)]. *)
let cast (ty : Catalog.Sqltype.t) (v : t) : t =
  match (v, ty) with
  | Null, _ -> Null
  | v, ty when type_of v = Some ty -> v
  | Str s, _ -> of_text ty s
  | v, Catalog.Sqltype.TBigint -> (
      match to_int v with Some i -> Int i | None -> Errors.type_mismatch "cannot cast to bigint")
  | v, Catalog.Sqltype.TDouble -> (
      match to_float v with Some f -> Float f | None -> Errors.type_mismatch "cannot cast to double")
  | v, (Catalog.Sqltype.TText | Catalog.Sqltype.TVarchar) -> Str (to_display v)
  | v, Catalog.Sqltype.TBool -> (
      match to_int v with
      | Some i -> Bool (i <> 0L)
      | None -> Errors.type_mismatch "cannot cast to boolean")
  | v, Catalog.Sqltype.TDate -> (
      match to_int v with Some i -> Date (Int64.to_int i) | None -> Errors.type_mismatch "cannot cast to date")
  | v, Catalog.Sqltype.TTime -> (
      match to_int v with Some i -> Time (Int64.to_int i) | None -> Errors.type_mismatch "cannot cast to time")
  | v, Catalog.Sqltype.TTimestamp -> (
      match to_int v with Some i -> Timestamp i | None -> Errors.type_mismatch "cannot cast to timestamp")

let of_lit : Sqlast.Ast.lit -> t = function
  | Sqlast.Ast.Null -> Null
  | Sqlast.Ast.Bool b -> Bool b
  | Sqlast.Ast.Int i -> Int i
  | Sqlast.Ast.Float f -> Float f
  | Sqlast.Ast.Str s -> Str s
