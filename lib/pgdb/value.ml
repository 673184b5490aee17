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

(** One int per type, -1 for NULL: two non-NULL values have one type
    exactly when their codes are equal. *)
let type_code = function
  | Null -> -1
  | Bool _ -> 0
  | Int _ -> 1
  | Float _ -> 2
  | Str _ -> 3
  | Date _ -> 4
  | Time _ -> 5
  | Timestamp _ -> 6

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

(* Days from 0000-03-01 to 2000-01-01: Hinnant's algorithms count days
   from 1970-01-01 as days from 0000-03-01 minus 719468, and 2000-01-01
   is day 10957 after 1970-01-01. *)
let epoch_shift = 730425

(** Days since 2000-01-01 of a proleptic Gregorian date (year 0 is a leap
    year), in O(1): Howard Hinnant's days_from_civil
    (http://howardhinnant.github.io/date_algorithms.html). The day of
    month is not range-checked: day 0 is the last day of the month
    before. *)
let days_of_ymd y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let doy = ((((153 * if m > 2 then m - 3 else m + 9) + 2) / 5) + d) - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - epoch_shift

(** The inverse of {!days_of_ymd}: Hinnant's civil_from_days. *)
let ymd_of_days days =
  let z = days + epoch_shift in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((yoe + (era * 400) + if m <= 2 then 1 else 0), m, doy - (((153 * mp) + 2) / 5) + 1)

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

(* "%.1f" for an integral float below 1e15, "%.17g" otherwise *)
let add_float b f =
  Buffer.add_string b
    (if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
     else format_float "%.17g" f)

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
  | Float f -> add_float b f
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

(* ------------------------------------------------------------------ *)
(* Binary format (PG v3 binary result cells)                           *)
(* ------------------------------------------------------------------ *)

(* The wire server writes binary cells from a column's payloads and the
   client reads them back into payloads (Pgwire.Server.int_cells,
   Pgwire.Client.decode_cell); these are the limits they share. *)

(* the widest time, in ms, whose microsecond count fits an int64 *)
let max_binary_time = Int64.to_int (Int64.div Int64.max_int 1000L)

(** A binary cell whose length the type's format does not have. *)
let bad_width ty len =
  Errors.type_mismatch "%d-byte binary %s cell" len (Catalog.Sqltype.name ty)

(* Text parsing reads fields in place, bounded to [s.[i..j)]; any
   malformed field raises [Malformed], which [of_text] reports as the
   type's [type_mismatch]. *)
exception Malformed

let rec pow10 n = if n <= 0 then 1 else 10 * pow10 (n - 1)

(* the first [c] in [s.[i..j)], or [j] *)
let rec index_in s c i j = if i >= j || s.[i] = c then i else index_in s c (i + 1) j

(* The unsigned decimal in [s.[i..j)]: 1 to 18 digits, so it cannot
   overflow *)
let digits_in s i j =
  if i >= j || j - i > 18 then raise Malformed;
  let n = ref 0 in
  for k = i to j - 1 do
    match s.[k] with
    | '0' .. '9' as c -> n := (!n * 10) + Char.code c - 48
    | _ -> raise Malformed
  done;
  !n

let int_in s i j =
  if i < j && s.[i] = '-' then -digits_in s (i + 1) j
  else if i < j && s.[i] = '+' then digits_in s (i + 1) j
  else digits_in s i j

(* "Y-M-D" as days since 2000-01-01. The year may carry a sign, as the
   writer gives years before 0; the month must be 1..12. *)
let days_in s i j =
  let y_end = index_in s '-' (if i < j && s.[i] = '-' then i + 1 else i) j in
  let m_end = index_in s '-' (y_end + 1) j in
  if m_end >= j then raise Malformed;
  let m = int_in s (y_end + 1) m_end in
  if m < 1 || m > 12 then raise Malformed;
  days_of_ymd (int_in s i y_end) m (int_in s (m_end + 1) j)

(* "H:M[:S[.F]]" as a count of 10^-[places] seconds since midnight.
   Fraction digits beyond [places] are truncated; a signed fraction (the
   writer's form for negative times) keeps its sign. *)
let clock_in ~places s i j =
  let h_end = index_in s ':' i j in
  let m_end = index_in s ':' (h_end + 1) j in
  if h_end >= j then raise Malformed;
  let minutes = (int_in s i h_end * 60) + int_in s (h_end + 1) m_end in
  let unit = pow10 places in
  if m_end >= j then minutes * 60 * unit
  else begin
    let s_end = index_in s '.' (m_end + 1) j in
    let secs = (minutes * 60) + int_in s (m_end + 1) s_end in
    let frac =
      if s_end >= j then 0
      else begin
        let neg = s_end + 1 < j && s.[s_end + 1] = '-' in
        let f = if neg then s_end + 2 else s_end + 1 in
        let n = min places (j - f) in
        let v = digits_in s f (f + n) * pow10 (places - n) in
        for k = f + n to j - 1 do
          if s.[k] < '0' || s.[k] > '9' then raise Malformed
        done;
        if neg then -v else v
      end
    in
    (secs * unit) + frac
  end

let date_text s i j =
  try days_in s i j
  with Malformed -> Errors.type_mismatch "bad date %s" (String.sub s i (j - i))

let clock_text ~places s i j =
  try clock_in ~places s i j
  with Malformed -> Errors.type_mismatch "bad time %s" (String.sub s i (j - i))

(** Parse a value from PG text format, guided by the column type. Dates,
    times and timestamps are read in place, without splitting. *)
let of_text (ty : Catalog.Sqltype.t) (s : string) : t =
  let n = String.length s in
  match ty with
  | Catalog.Sqltype.TBool -> Bool (s = "t" || s = "true" || s = "TRUE" || s = "1")
  | Catalog.Sqltype.TBigint -> (
      match Int64.of_string_opt s with
      | Some i -> Int i
      | None ->
          Errors.invalid_text_representation
            "invalid input syntax for type bigint: \"%s\"" s)
  | Catalog.Sqltype.TDouble -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None ->
          Errors.invalid_text_representation
            "invalid input syntax for type double precision: \"%s\"" s)
  | Catalog.Sqltype.TVarchar | Catalog.Sqltype.TText -> Str s
  | Catalog.Sqltype.TDate -> Date (date_text s 0 n)
  | Catalog.Sqltype.TTime -> Time (clock_text ~places:3 s 0 n)
  | Catalog.Sqltype.TTimestamp ->
      let sp = index_in s ' ' 0 n in
      if index_in s ' ' (sp + 1) n < n then
        Errors.type_mismatch "bad timestamp %s" s;
      let day = Int64.mul (Int64.of_int (date_text s 0 sp)) ns_per_day in
      if sp >= n then Timestamp day
      else
        Timestamp
          (Int64.add day (Int64.of_int (clock_text ~places:9 s (sp + 1) n)))

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
