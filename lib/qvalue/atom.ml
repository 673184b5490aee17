(** Q atoms: scalar values with per-type nulls and two-valued logic.

    Every Q scalar type has its own null literal ([0N] for long, [0n] for
    float, [`] for symbol, [0Nd], [0Nt], [0Np], ...). Unlike SQL, Q uses
    two-valued logic: two nulls compare equal, and a null is smaller than
    every non-null value in the total order. *)

type t =
  | Bool of bool
  | Long of int64
  | Float of float
  | Char of char
  | Sym of string
  | Date of int (* days since 2000.01.01 *)
  | Time of int (* milliseconds since midnight *)
  | Timestamp of int64 (* nanoseconds since 2000.01.01 *)
  | Null of Qtype.t

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let qtype = function
  | Bool _ -> Qtype.Bool
  | Long _ -> Qtype.Long
  | Float _ -> Qtype.Float
  | Char _ -> Qtype.Char
  | Sym _ -> Qtype.Sym
  | Date _ -> Qtype.Date
  | Time _ -> Qtype.Time
  | Timestamp _ -> Qtype.Timestamp
  | Null ty -> ty

(* the float null is IEEE NaN and the symbol null is the empty symbol, as
   in kdb+ *)
let is_null = function
  | Null _ -> true
  | Float f -> Float.is_nan f
  | Sym "" -> true
  | _ -> false

(** Normalise computed values: floats that come out as NaN collapse to the
    float null, mirroring kdb+ where [0n] is IEEE NaN. *)
let norm = function Float f when Float.is_nan f -> Null Qtype.Float | a -> a

let null ty = Null ty

(* ------------------------------------------------------------------ *)
(* Coercions                                                           *)
(* ------------------------------------------------------------------ *)

(** Numeric view of an atom as a float; raises on non-numeric. *)
let to_float = function
  | Bool b -> if b then 1.0 else 0.0
  | Long i -> Int64.to_float i
  | Float f -> f
  | Date d -> float_of_int d
  | Time t -> float_of_int t
  | Timestamp n -> Int64.to_float n
  | Char c -> float_of_int (Char.code c)
  | Null _ -> Float.nan
  | Sym s -> type_error "symbol `%s is not numeric" s

let to_long = function
  | Bool b -> if b then 1L else 0L
  | Long i -> i
  | Float f -> Int64.of_float f
  | Date d -> Int64.of_int d
  | Time t -> Int64.of_int t
  | Timestamp n -> n
  | Char c -> Int64.of_int (Char.code c)
  | Null _ -> Int64.min_int
  | Sym s -> type_error "symbol `%s is not numeric" s

let to_bool = function
  | Bool b -> b
  | Long i -> i <> 0L
  | Float f -> f <> 0.0
  | Null _ -> false
  | a -> type_error "cannot use %s as boolean" (Qtype.name (qtype a))

(* ------------------------------------------------------------------ *)
(* Comparison: Q two-valued logic                                      *)
(* ------------------------------------------------------------------ *)

(** Total order over atoms. Nulls sort first (regardless of type); numeric
    types compare by value across types; other same-type atoms compare
    naturally. Cross-type non-numeric comparisons fall back to type order
    so that sorting mixed lists is deterministic. *)
let compare a b =
  match (is_null a, is_null b) with
  | true, true -> 0
  | true, false -> -1
  | false, true -> 1
  | false, false -> (
      match (a, b) with
      | Sym x, Sym y -> String.compare x y
      | Char x, Char y -> Char.compare x y
      | Bool x, Bool y -> Bool.compare x y
      | Long x, Long y -> Int64.compare x y
      | Date x, Date y | Time x, Time y -> Int.compare x y
      | Timestamp x, Timestamp y -> Int64.compare x y
      | (Bool _ | Long _ | Float _ | Date _ | Time _ | Timestamp _ | Char _),
        (Bool _ | Long _ | Float _ | Date _ | Time _ | Timestamp _ | Char _)
        -> Float.compare (to_float a) (to_float b)
      | Sym _, _ -> 1
      | _, Sym _ -> -1
      | (Null _, _ | _, Null _) ->
          (* unreachable: nulls handled by the is_null test above *)
          0)

(** Q equality ([=] match for atoms): two-valued, nulls equal each other. *)
let equal a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

(* Null propagation: any arithmetic involving a null yields a null of the
   result type. *)

let result_type a b =
  let ta = qtype a and tb = qtype b in
  match (ta, tb) with
  | Qtype.Date, Qtype.Date -> Qtype.Long
  | Qtype.Time, Qtype.Time -> Qtype.Long
  | Qtype.Timestamp, Qtype.Timestamp -> Qtype.Long
  | (Qtype.Date | Qtype.Time | Qtype.Timestamp), _ -> ta
  | _, (Qtype.Date | Qtype.Time | Qtype.Timestamp) -> tb
  | _ -> Qtype.promote ta tb

let arith name fop iop a b =
  if is_null a || is_null b then Null (result_type a b)
  else
    let ty = result_type a b in
    match ty with
    | Qtype.Float -> norm (Float (fop (to_float a) (to_float b)))
    | Qtype.Long -> Long (iop (to_long a) (to_long b))
    | Qtype.Date -> Date (Int64.to_int (iop (to_long a) (to_long b)))
    | Qtype.Time -> Time (Int64.to_int (iop (to_long a) (to_long b)))
    | Qtype.Timestamp -> Timestamp (iop (to_long a) (to_long b))
    | Qtype.Bool | Qtype.Char | Qtype.Sym ->
        type_error "cannot apply %s to %s" name (Qtype.name ty)

let add a b = arith "+" ( +. ) Int64.add a b
let sub a b = arith "-" ( -. ) Int64.sub a b
let mul a b = arith "*" ( *. ) Int64.mul a b

(** Q division ([%]) always yields a float. *)
let div a b =
  if is_null a || is_null b then Null Qtype.Float
  else
    let d = to_float b in
    if d = 0.0 then Null Qtype.Float else norm (Float (to_float a /. d))

(** Integer division ([div]) and modulus ([mod]). *)
let idiv a b =
  if is_null a || is_null b then Null Qtype.Long
  else
    let d = to_long b in
    if d = 0L then Null Qtype.Long else Long (Int64.div (to_long a) d)

let imod a b =
  if is_null a || is_null b then Null Qtype.Long
  else
    let d = to_long b in
    if d = 0L then Null Qtype.Long else Long (Int64.rem (to_long a) d)

(* of a long and a float, the one picked as a float *)
let widen a b r =
  match (qtype a, qtype b, r) with
  | (Qtype.Long, Qtype.Float, Long i | Qtype.Float, Qtype.Long, Long i) ->
      Float (Int64.to_float i)
  | (Qtype.Long, Qtype.Float, Null _ | Qtype.Float, Qtype.Long, Null _) ->
      Null Qtype.Float
  | _ -> r

(** Q [&] (min) and [|] (max): on booleans these act as and/or; of a
    long and a float they are a float. *)
let min_ a b = widen a b (if compare a b <= 0 then a else b)
let max_ a b = widen a b (if compare a b >= 0 then a else b)

let neg = function
  | Long i -> Long (Int64.neg i)
  | Float f -> norm (Float (-.f))
  | Bool b -> Long (if b then -1L else 0L)
  | Null ty -> Null ty
  (* temporal values negate as durations, as in kdb+ (-09:00 is legal) *)
  | Date d -> Date (-d)
  | Time t -> Time (-t)
  | Timestamp n -> Timestamp (Int64.neg n)
  | (Char _ | Sym _) as a -> type_error "cannot negate %s" (Qtype.name (qtype a))

let abs_ = function
  | Long i -> Long (Int64.abs i)
  | Float f -> Float (Float.abs f)
  | Bool _ as b -> b
  | Null ty -> Null ty
  | a -> type_error "cannot take abs of %s" (Qtype.name (qtype a))

let float_fn name fn a =
  if is_null a then Null Qtype.Float
  else
    match qtype a with
    | Qtype.Bool | Qtype.Long | Qtype.Float -> norm (Float (fn (to_float a)))
    | ty -> type_error "cannot apply %s to %s" name (Qtype.name ty)

let sqrt_ = float_fn "sqrt" sqrt
let exp_ = float_fn "exp" exp
let log_ = float_fn "log" log

let floor_ = function
  | Float f -> Long (Int64.of_float (Float.floor f))
  | Long _ as a -> a
  | Null _ -> Null Qtype.Long
  | a -> type_error "cannot floor %s" (Qtype.name (qtype a))

let ceiling_ = function
  | Float f -> Long (Int64.of_float (Float.ceil f))
  | Long _ as a -> a
  | Null _ -> Null Qtype.Long
  | a -> type_error "cannot ceiling %s" (Qtype.name (qtype a))

(* ------------------------------------------------------------------ *)
(* Casts                                                               *)
(* ------------------------------------------------------------------ *)

let cast ty a =
  if is_null a then Null ty
  else if Qtype.equal (qtype a) ty then a
  else
    match ty with
    | Qtype.Bool -> Bool (to_bool a)
    | Qtype.Long -> Long (to_long a)
    | Qtype.Float -> Float (to_float a)
    | Qtype.Date -> Date (Int64.to_int (to_long a))
    | Qtype.Time -> Time (Int64.to_int (to_long a))
    | Qtype.Timestamp -> Timestamp (to_long a)
    | Qtype.Sym -> (
        match a with
        | Char c -> Sym (String.make 1 c)
        | _ -> type_error "cannot cast %s to symbol" (Qtype.name (qtype a)))
    | Qtype.Char ->
        type_error "cannot cast %s to char" (Qtype.name (qtype a))

(* ------------------------------------------------------------------ *)
(* Printing / parsing                                                  *)
(* ------------------------------------------------------------------ *)

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 then 29 else 28
  | _ -> invalid_arg "days_in_month"

(** Convert (year, month, day) to days since 2000.01.01. *)
let date_of_ymd y m d =
  let days = ref 0 in
  if y >= 2000 then (
    for yy = 2000 to y - 1 do
      days := !days + if (yy mod 4 = 0 && yy mod 100 <> 0) || yy mod 400 = 0 then 366 else 365
    done)
  else
    for yy = y to 1999 do
      days := !days - (if (yy mod 4 = 0 && yy mod 100 <> 0) || yy mod 400 = 0 then 366 else 365)
    done;
  for mm = 1 to m - 1 do
    days := !days + days_in_month y mm
  done;
  !days + d - 1

(** Inverse of {!date_of_ymd}. *)
let ymd_of_date days =
  let y = ref 2000 and d = ref days in
  let year_len yy = if (yy mod 4 = 0 && yy mod 100 <> 0) || yy mod 400 = 0 then 366 else 365 in
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

let ns_per_day = 86_400_000_000_000L

let to_string = function
  | Bool b -> if b then "1b" else "0b"
  | Long i -> Int64.to_string i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%g" f
  | Char c -> Printf.sprintf "\"%c\"" c
  | Sym s -> "`" ^ s
  | Date d ->
      let y, m, dd = ymd_of_date d in
      Printf.sprintf "%04d.%02d.%02d" y m dd
  | Time t ->
      (* kdb+ prints a negative time as the negation of its magnitude *)
      let a = abs t in
      let ms = a mod 1000 and s = a / 1000 in
      Printf.sprintf "%s%02d:%02d:%02d.%03d"
        (if t < 0 then "-" else "")
        (s / 3600) (s / 60 mod 60) (s mod 60) ms
  | Timestamp n ->
      let day = Int64.to_int (Int64.div n ns_per_day) in
      let rem = Int64.rem n ns_per_day in
      let day, rem =
        if Int64.compare rem 0L < 0 then (day - 1, Int64.add rem ns_per_day)
        else (day, rem)
      in
      let y, m, dd = ymd_of_date day in
      let ns = Int64.to_int (Int64.rem rem 1_000_000_000L) in
      let s = Int64.to_int (Int64.div rem 1_000_000_000L) in
      Printf.sprintf "%04d.%02d.%02dD%02d:%02d:%02d.%09d" y m dd (s / 3600)
        (s / 60 mod 60) (s mod 60) ns
  | Null Qtype.Long -> "0N"
  | Null Qtype.Float -> "0n"
  | Null Qtype.Sym -> "`"
  | Null Qtype.Date -> "0Nd"
  | Null Qtype.Time -> "0Nt"
  | Null Qtype.Timestamp -> "0Np"
  | Null Qtype.Bool -> "0b"
  | Null Qtype.Char -> "\" \""

let pp ppf a = Format.pp_print_string ppf (to_string a)
