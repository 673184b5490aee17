(** Columnar batches: how pgdb stores a table, and what the vectorized
    executor reads.

    A batch is a table's rows as typed column vectors: a column whose
    non-null values are all of one integer-encoded type (bigint, date,
    time, timestamp or bool) holds their payloads unboxed in a
    {!Ivec}, tagged with that [kind]; all-[Float] in an unboxed
    [float array]; all-[Str] in a dictionary-coded column (one int code
    per row into an array of the column's distinct strings). Only a
    column that mixes types stays as a boxed [Value.t array]. Nulls live
    in a packed side bitmap per column, so the typed vectors never need
    a sentinel — a null slot just holds a dummy payload (0, or code 0)
    that [value_at] masks out. A batch is never written once built, so
    tables and domains may share one.

    Operators never copy rows to drop them: a selection vector (a dense
    [int array] of surviving row indices) narrows a batch (the
    executor's filters narrow one chunk's selection buffer in place), and
    [compact] or [gather] builds a dense column only when one is
    actually needed: a derived table's, or a result's, which the wire
    server encodes from and the wire client rebuilds with a {!builder}
    for the Q pivot. Gathering a text column gathers its codes and
    shares its dictionary. Each batch carries its identity selection,
    built once here and shared read-only by every query that scans the
    batch. *)

(** What an int payload encodes, as {!Value} does: a bigint; days,
    milliseconds or nanoseconds since 2000-01-01 midnight; or a bool as
    0 or 1. Within one kind, payload order is value order. *)
type kind = Bigint | Date | Time | Timestamp | Bool

type data =
  | DInt of { kind : kind; ints : Ivec.t }
  | DFloat of float array
  | DStr of { codes : int array; dict : string array }
      (** text: [dict.(codes.(i))] is row i's string; [dict] holds each
          distinct string once, in first-encounter order, and is never
          empty *)
  | DVal of Value.t array  (** cells of more than one type *)

type column = { data : data; nulls : Bytes.t; has_nulls : bool }

(* a selection vector: row indices into a batch, in ascending order.
   One an operator did not make may be shared, so only its maker writes
   to it. *)
type sel = int array

(* [all] is the identity selection [0, nrows), shared read-only by
   every scan of the batch *)
type t = { nrows : int; cols : column array; all : sel }

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

module StrTbl = Hashtbl.Make (String)

let no_nulls = Bytes.create 0
let is_null c i = c.has_nulls && bit_get c.nulls i

(* the kind and payload of a value an int column can hold *)
let kind_of_value : Value.t -> kind option = function
  | Value.Int _ -> Some Bigint
  | Value.Date _ -> Some Date
  | Value.Time _ -> Some Time
  | Value.Timestamp _ -> Some Timestamp
  | Value.Bool _ -> Some Bool
  | Value.Null | Value.Float _ | Value.Str _ -> None

let payload_of : Value.t -> int64 = function
  | Value.Int x | Value.Timestamp x -> x
  | Value.Date x | Value.Time x -> Int64.of_int x
  | Value.Bool b -> if b then 1L else 0L
  | Value.Null | Value.Float _ | Value.Str _ -> 0L

(** The value a payload of [kind] encodes. *)
let value_of (kind : kind) (x : int64) : Value.t =
  match kind with
  | Bigint -> Value.Int x
  | Date -> Value.Date (Int64.to_int x)
  | Time -> Value.Time (Int64.to_int x)
  | Timestamp -> Value.Timestamp x
  | Bool -> Value.Bool (x <> 0L)

(** The kind whose payloads hold a SQL type's values. *)
let kind_of_type : Catalog.Sqltype.t -> kind option = function
  | Catalog.Sqltype.TBigint -> Some Bigint
  | Catalog.Sqltype.TDate -> Some Date
  | Catalog.Sqltype.TTime -> Some Time
  | Catalog.Sqltype.TTimestamp -> Some Timestamp
  | Catalog.Sqltype.TBool -> Some Bool
  | Catalog.Sqltype.TDouble | Catalog.Sqltype.TVarchar | Catalog.Sqltype.TText
    ->
      None

let value_at c i =
  if is_null c i then Value.Null
  else
    match c.data with
    | DInt { kind; ints } -> (
        (* read unboxed: only a bigint's value holds a box *)
        let x = Ivec.get_at ints (8 * i) in
        match kind with
        | Bigint -> Value.Int x
        | Date -> Value.Date (Int64.to_int x)
        | Time -> Value.Time (Int64.to_int x)
        | Timestamp -> Value.Timestamp x
        | Bool -> Value.Bool (x <> 0L))
    | DFloat a -> Value.Float a.(i)
    | DStr { codes; dict } -> Value.Str dict.(codes.(i))
    | DVal a -> a.(i)

let all_rows n : sel = Array.init n (fun i -> i)

(* build a column from [n] values read through [get]. One sniff pass
   picks the narrowest representation that holds every non-null value
   exactly; the fill pass leaves dummy payloads under null bits. *)
let column_init (n : int) (get : int -> Value.t) : column =
  let nulls = ref no_nulls in
  let has_nulls = ref false in
  let mark_null i =
    if not !has_nulls then begin
      nulls := Bytes.make ((n + 7) / 8) '\000';
      has_nulls := true
    end;
    bit_set !nulls i
  in
  (* sniff: whether every non-null value has one type, and the first
     of them, whose type picks the representation. The test per cell
     compares two ints. *)
  let ty = ref (-1) and first = ref Value.Null in
  (try
     for i = 0 to n - 1 do
       let v = get i in
       let t = Value.type_code v in
       if t >= 0 then
         if !ty < 0 then begin
           ty := t;
           first := v
         end
         else if t <> !ty then raise Exit
     done
   with Exit -> first := Value.Null);
  let data =
    match (!first, kind_of_value !first) with
    | _, Some kind ->
        let ints = Ivec.create n in
        for i = 0 to n - 1 do
          Ivec.unsafe_set_at ints (8 * i)
            (match get i with
            | Value.Int x | Value.Timestamp x -> x
            | Value.Date x | Value.Time x -> Int64.of_int x
            | Value.Bool b -> if b then 1L else 0L
            | Value.Null | Value.Float _ | Value.Str _ ->
                mark_null i;
                0L)
        done;
        DInt { kind; ints }
    | Value.Float _, None ->
        let a = Array.make n 0.0 in
        for i = 0 to n - 1 do
          match get i with
          | Value.Float v -> a.(i) <- v
          | _ -> mark_null i
        done;
        DFloat a
    | Value.Str _, None ->
        (* codes in first-encounter order; the dictionary shares the
           strings [get] returned *)
        let codes = Array.make n 0 in
        let index = StrTbl.create 16 in
        let dict = ref [] and nd = ref 0 in
        for i = 0 to n - 1 do
          match get i with
          | Value.Str v ->
              codes.(i) <-
                (match StrTbl.find_opt index v with
                | Some c -> c
                | None ->
                    let c = !nd in
                    StrTbl.add index v c;
                    dict := v :: !dict;
                    incr nd;
                    c)
          | _ -> mark_null i
        done;
        DStr { codes; dict = Array.of_list (List.rev !dict) }
    | _ ->
        (* no value, or values of more than one type *)
        let a = Array.make n Value.Null in
        for i = 0 to n - 1 do
          (match get i with
          | Value.Null -> mark_null i
          | v -> a.(i) <- v)
        done;
        DVal a
  in
  { data; nulls = !nulls; has_nulls = !has_nulls }

(* a column holding [vals], e.g. a computed projection or window result *)
let column_of_values (vals : Value.t array) : column =
  column_init (Array.length vals) (Array.get vals)

(* a batch of [nrows] rows over [cols], each [nrows] long *)
let of_columns nrows (cols : column array) : t =
  { nrows; cols; all = all_rows nrows }

(* a batch of row-major [rows], each [width] wide, pivoted once *)
let of_rows ~width (rows : Value.t array array) : t =
  let n = Array.length rows in
  of_columns n
    (Array.init width (fun j -> column_init n (fun i -> rows.(i).(j))))

(* gather a column through a selection vector, or any vector of row
   indices, into a dense column *)
let compact (c : column) (sel : sel) : column =
  let n = Array.length sel in
  let nulls = ref no_nulls in
  let has_nulls = ref false in
  if c.has_nulls then begin
    let b = Bytes.make ((n + 7) / 8) '\000' in
    for k = 0 to n - 1 do
      if bit_get c.nulls sel.(k) then begin
        bit_set b k;
        has_nulls := true
      end
    done;
    if !has_nulls then nulls := b
  end;
  let data =
    match c.data with
    | DInt { kind; ints } -> DInt { kind; ints = Ivec.pick ints sel }
    | DFloat a -> DFloat (Array.init n (fun k -> a.(sel.(k))))
    | DStr { codes; dict } ->
        DStr { codes = Array.init n (fun k -> codes.(sel.(k))); dict }
    | DVal a -> DVal (Array.init n (fun k -> a.(sel.(k))))
  in
  { data; nulls = !nulls; has_nulls = !has_nulls }

(* dense boxed view of a column through a vector of row indices, where
   a -1 slot is NULL. The array starts out holding the static NULL:
   [Array.map] would start it from the first cell, and OCaml's
   [Array.make] runs a minor collection before it makes an array too big
   for the minor heap from a young value. *)
let values (c : column) (idx : int array) : Value.t array =
  let a = Array.make (Array.length idx) Value.Null in
  Array.iteri (fun k i -> if i >= 0 then Array.unsafe_set a k (value_at c i)) idx;
  a

(* gather a column through an index vector that may contain -1 slots,
   which become NULL — how a left-outer join pads its unmatched probe
   rows. Unlike [compact] the indices need not be ascending or unique:
   a join's output repeats a build row once per match. *)
let gather (c : column) (idx : int array) : column =
  let n = Array.length idx in
  let nulls = ref no_nulls in
  let has_nulls = ref false in
  for k = 0 to n - 1 do
    let i = Array.unsafe_get idx k in
    if i < 0 || is_null c i then begin
      if not !has_nulls then begin
        nulls := Bytes.make ((n + 7) / 8) '\000';
        has_nulls := true
      end;
      bit_set !nulls k
    end
  done;
  (* a NULL slot keeps the dummy payload [fill] was made with *)
  let pick (type a) (a : a array) (fill : a) : a array =
    let out = Array.make n fill in
    for k = 0 to n - 1 do
      let i = Array.unsafe_get idx k in
      if i >= 0 then Array.unsafe_set out k (Array.unsafe_get a i)
    done;
    out
  in
  let data =
    match c.data with
    | DInt { kind; ints } -> DInt { kind; ints = Ivec.pick ints idx }
    | DFloat a ->
        let out = Array.make n 0.0 in
        for k = 0 to n - 1 do
          let i = Array.unsafe_get idx k in
          if i >= 0 then Array.unsafe_set out k (Array.unsafe_get a i)
        done;
        DFloat out
    | DStr { codes; dict } -> DStr { codes = pick codes 0; dict }
    | DVal a -> DVal (pick a Value.Null)
  in
  { data; nulls = !nulls; has_nulls = !has_nulls }

(** The rows of [parts] one after another, each part [(n, c)] the [n]
    rows of a dense column [c]. Parts of one typed representation
    concatenate their arrays, text merging its dictionaries; any other
    mix is built again from its values, as {!column_of_values} would. *)
let concat (parts : (int * column) list) : column =
  let parts = List.filter (fun (n, _) -> n > 0) parts in
  let total = List.fold_left (fun acc (n, _) -> acc + n) 0 parts in
  let typed data =
    if not (List.exists (fun (_, c) -> c.has_nulls) parts) then
      { data; nulls = no_nulls; has_nulls = false }
    else begin
      let nulls = Bytes.make ((total + 7) / 8) '\000' in
      ignore
        (List.fold_left
           (fun base (n, c) ->
             for i = 0 to n - 1 do
               if is_null c i then bit_set nulls (base + i)
             done;
             base + n)
           0 parts);
      { data; nulls; has_nulls = true }
    end
  in
  (* every part's payload, when [pick] reads each part's representation *)
  let every pick =
    List.fold_right
      (fun (_, c) acc ->
        match (pick c.data, acc) with Some a, Some l -> Some (a :: l) | _ -> None)
      parts (Some [])
  in
  (* int parts concatenate when they share the first part's kind *)
  let kind =
    match parts with (_, { data = DInt { kind; _ }; _ }) :: _ -> kind | _ -> Bigint
  in
  match
    ( every (function
        | DInt { kind = k; ints } when k = kind -> Some ints
        | _ -> None),
      every (function DFloat a -> Some a | _ -> None),
      every (function DStr { codes; dict } -> Some (codes, dict) | _ -> None) )
  with
  | Some ints, _, _ -> typed (DInt { kind; ints = Ivec.concat ints })
  | _, Some floats, _ -> typed (DFloat (Array.concat floats))
  | _, _, Some texts ->
      (* one dictionary: each part's codes mapped to the merged ones *)
      let index = StrTbl.create 16 and dict = ref [] and nd = ref 0 in
      let recode s =
        match StrTbl.find_opt index s with
        | Some c -> c
        | None ->
            let c = !nd in
            StrTbl.add index s c;
            dict := s :: !dict;
            incr nd;
            c
      in
      let codes =
        List.map
          (fun (codes, dict) ->
            let map = Array.map recode dict in
            Array.map (fun c -> map.(c)) codes)
          texts
      in
      typed
        (DStr
           { codes = Array.concat codes; dict = Array.of_list (List.rev !dict) })
  | None, None, None ->
      column_of_values
        (Array.concat (List.map (fun (n, c) -> Array.init n (value_at c)) parts))

(* ------------------------------------------------------------------ *)
(* Building a column cell by cell                                      *)
(* ------------------------------------------------------------------ *)

(* A text dictionary under construction: each distinct string once, in
   first-encounter order, behind an open-addressing table of codes + 1
   (0 is an empty slot). A string is looked up by its bytes in place,
   so a repeated one allocates nothing. *)
type strdict = {
  mutable strs : string array;
  mutable size : int;
  mutable slots : int array;  (** a power of two, at most half full *)
}

let strdict () = { strs = Array.make 8 ""; size = 0; slots = Array.make 16 0 }

(* FNV-1a over [s.[off..off+len)], in OCaml's 63-bit ints *)
let hash_sub s off len =
  let h = ref 0x4bf29ce484222325 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h land max_int

(* whether [a.[i..)] equals [s.[off+i..off+len)]; every helper here
   takes its context as arguments, so no lookup allocates a closure *)
let rec equal_from (a : string) s off len i =
  i = len
  || String.unsafe_get a i = String.unsafe_get s (off + i)
     && equal_from a s off len (i + 1)

let rec place slots mask i code =
  if Array.unsafe_get slots i = 0 then Array.unsafe_set slots i (code + 1)
  else place slots mask ((i + 1) land mask) code

(* add [s.[off..off+len)] as the next code, into the empty slot [i] *)
let add_string (d : strdict) s off len i =
  let c = d.size in
  if c = Array.length d.strs then begin
    let strs = Array.make (2 * c) "" in
    Array.blit d.strs 0 strs 0 c;
    d.strs <- strs
  end;
  d.strs.(c) <- String.sub s off len;
  d.size <- c + 1;
  Array.unsafe_set d.slots i (c + 1);
  if 2 * d.size > Array.length d.slots then begin
    let slots = Array.make (2 * Array.length d.slots) 0 in
    let mask = Array.length slots - 1 in
    for k = 0 to d.size - 1 do
      let x = d.strs.(k) in
      place slots mask (hash_sub x 0 (String.length x) land mask) k
    done;
    d.slots <- slots
  end;
  c

let rec probe (d : strdict) s off len mask i =
  let c = Array.unsafe_get d.slots i - 1 in
  if c < 0 then add_string d s off len i
  else
    let a = Array.unsafe_get d.strs c in
    if String.length a = len && equal_from a s off len 0 then c
    else probe d s off len mask ((i + 1) land mask)

(** The code of the string [s.[off..off+len)], added on first sight. *)
let intern (d : strdict) (s : string) (off : int) (len : int) : int =
  let mask = Array.length d.slots - 1 in
  probe d s off len mask (hash_sub s off len land mask)

(** A column's cells while it is built, at the builder's capacity. *)
type cells =
  | Ints of { kind : kind; mutable ints : Ivec.t }
  | Floats of { mutable floats : float array }
  | Texts of { mutable codes : int array; dict : strdict }

(** A column built one cell at a time, for a reader that learns its rows
    one by one (the PG v3 client). Its representation is chosen up
    front; the caller writes row [r]'s cell straight into [cells], or
    marks it with {!set_null}, for any [r] below [cap], and {!reserve}s
    more rows first. *)
type builder = {
  cells : cells;
  mutable cap : int;
  mutable bits : Bytes.t;  (** the null bitmap; [no_nulls] until a null *)
}

let builder (repr : [ `Int of kind | `Float | `Str ]) : builder =
  let cells =
    match repr with
    | `Int kind -> Ints { kind; ints = Ivec.empty }
    | `Float -> Floats { floats = [||] }
    | `Str -> Texts { codes = [||]; dict = strdict () }
  in
  { cells; cap = 0; bits = no_nulls }

let resize (type a) (a : a array) (n : int) (fill : a) : a array =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Stdlib.min n (Array.length a));
  b

(** Make room for [n] rows. *)
let reserve (b : builder) (n : int) =
  if n > b.cap then begin
    (match b.cells with
    | Ints c -> c.ints <- Ivec.resize c.ints n
    | Floats c -> c.floats <- resize c.floats n 0.0
    | Texts c -> c.codes <- resize c.codes n 0);
    if b.bits != no_nulls then begin
      let bits = Bytes.make ((n + 7) / 8) '\000' in
      Bytes.blit b.bits 0 bits 0 (Bytes.length b.bits);
      b.bits <- bits
    end;
    b.cap <- n
  end

let set_null (b : builder) (r : int) =
  if b.bits == no_nulls then b.bits <- Bytes.make ((b.cap + 7) / 8) '\000';
  bit_set b.bits r

(** The first [n] rows as a column. A text column's dictionary is never
    empty: one with no string yet holds [""]. *)
let finish (b : builder) (n : int) : column =
  let fit a = if Array.length a = n then a else Array.sub a 0 n in
  let data =
    match b.cells with
    | Ints { kind; ints } -> DInt { kind; ints = Ivec.prefix ints n }
    | Floats c -> DFloat (fit c.floats)
    | Texts { codes; dict } ->
        DStr
          {
            codes = fit codes;
            dict =
              (if dict.size = 0 then [| "" |]
               else Array.sub dict.strs 0 dict.size);
          }
  in
  { data; nulls = b.bits; has_nulls = b.bits != no_nulls }
