(** Columnar batches: how pgdb stores a table, and what the vectorized
    executor reads.

    A batch is a table's rows as typed column vectors: a column whose
    non-null values are all [Value.Int] lands in an [int64 array],
    all-[Float] in an unboxed [float array], all-[Str] in a
    dictionary-coded column (one int code per row into an array of the
    column's distinct strings); anything mixed (or the calendar/bool
    types, which carry semantics beyond their payload) stays as a boxed
    [Value.t array]. Nulls live in a packed side bitmap per column, so
    the typed arrays never need a sentinel — a null slot just holds a
    dummy payload (0, or code 0) that [value_at] masks out. A batch is
    never written once built, so tables and domains may share one.

    Operators never copy rows to drop them: a selection vector (a dense
    [int array] of surviving row indices) narrows a batch, and
    [compact] gathers a column through one only when a dense vector is
    actually needed (e.g. to hand column values to the QIPC pivot).
    Gathering a text column gathers its codes and shares its
    dictionary. Each batch carries its identity selection, built once
    here and shared read-only by every query that scans the batch. *)

type data =
  | DInt of int64 array
  | DFloat of float array
  | DStr of { codes : int array; dict : string array }
      (** text: [dict.(codes.(i))] is row i's string; [dict] holds each
          distinct string once, in first-encounter order, and is never
          empty *)
  | DVal of Value.t array

type column = { data : data; nulls : Bytes.t; has_nulls : bool }

(* a selection vector: row indices into a batch, in ascending order.
   Kernels never write to one: a selection may be shared. *)
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

let value_at c i =
  if is_null c i then Value.Null
  else
    match c.data with
    | DInt a -> Value.Int a.(i)
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
  (* sniff: the representation every non-null value fits *)
  let kind = ref `Unknown in
  (try
     for i = 0 to n - 1 do
       match get i with
       | Value.Null -> ()
       | Value.Int _ ->
           if !kind = `Unknown then kind := `Int
           else if !kind <> `Int then raise Exit
       | Value.Float _ ->
           if !kind = `Unknown then kind := `Float
           else if !kind <> `Float then raise Exit
       | Value.Str _ ->
           if !kind = `Unknown then kind := `Str
           else if !kind <> `Str then raise Exit
       | _ -> raise Exit
     done
   with Exit -> kind := `Mixed);
  let data =
    match !kind with
    | `Int ->
        let a = Array.make n 0L in
        for i = 0 to n - 1 do
          match get i with
          | Value.Int v -> a.(i) <- v
          | _ -> mark_null i
        done;
        DInt a
    | `Float ->
        let a = Array.make n 0.0 in
        for i = 0 to n - 1 do
          match get i with
          | Value.Float v -> a.(i) <- v
          | _ -> mark_null i
        done;
        DFloat a
    | `Str ->
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
    | `Unknown | `Mixed ->
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

let empty ~width = of_columns 0 (Array.make width (column_of_values [||]))

(* [b] with row-major [rows] after its own. Every column is built
   again, so one may change representation: an Int column meeting a
   Float turns boxed. *)
let append (b : t) (rows : Value.t array array) : t =
  let n = b.nrows and m = Array.length rows in
  of_columns (n + m)
    (Array.mapi
       (fun j c ->
         column_init (n + m) (fun i ->
             if i < n then value_at c i else rows.(i - n).(j)))
       b.cols)

let of_rows ~width rows = append (empty ~width) rows

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
    | DInt a -> DInt (Array.init n (fun k -> a.(sel.(k))))
    | DFloat a -> DFloat (Array.init n (fun k -> a.(sel.(k))))
    | DStr { codes; dict } ->
        DStr { codes = Array.init n (fun k -> codes.(sel.(k))); dict }
    | DVal a -> DVal (Array.init n (fun k -> a.(sel.(k))))
  in
  { data; nulls = !nulls; has_nulls = !has_nulls }

(* dense boxed view of a column through a vector of row indices, where
   a -1 slot is NULL *)
let values (c : column) (idx : int array) : Value.t array =
  Array.map (fun i -> if i < 0 then Value.Null else value_at c i) idx

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
    | DInt a -> DInt (pick a 0L)
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
