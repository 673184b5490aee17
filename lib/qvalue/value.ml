(** Q compound values.

    Q is a list-processing language: every compound structure is built from
    ordered lists. A [Vector] is a uniform typed list, a [List] is a
    general (mixed) list, a [Dict] maps a key list to a value list
    positionally, and a [Table] is a flipped dictionary of column vectors —
    ordering is a first-class property of all of them.

    A vector holds its elements as one typed payload, not as atoms. Bool,
    long, date, time and timestamp elements are int64 slots of an {!Ivec}:
    a bool is 0 or 1, a date or a time its day or millisecond count.
    Floats are a [float array], symbols a [string array] and chars a
    [Bytes]. A null element is the sentinel QIPC writes for its type:
    [Int64.min_int] for long and timestamp, [-2^31] for date and time,
    NaN for float and [""] for symbol. Bool and char have no null; theirs
    is [0b] and [" "]. So the QIPC codec writes and reads a payload as it
    stands, and the result pivot hands pgdb's int and float payloads over
    without a copy. A vector is never written once built, since its
    payload may be stored data. The kdb interpreter and the printers read
    atoms, which {!index}, {!elements} and {!atoms_exn} build on demand. *)

type t =
  | Atom of Atom.t
  | Vector of Qtype.t * vec
  | List of t array
  | Dict of t * t  (** keys, values: two lists of equal length *)
  | Table of table
  | KTable of table * table  (** keyed table: key columns, value columns *)

(** A vector's payload. The element type fixes the case: [Ints] for bool,
    long, date, time and timestamp, [Floats] for float, [Syms] for
    symbol and [Chars] for char. *)
and vec =
  | Ints of Ivec.t
  | Floats of float array
  | Syms of string array
  | Chars of Bytes.t

and table = { cols : string array; data : t array }

exception Length_error
exception Rank_error of string

let type_error = Atom.type_error

(* ------------------------------------------------------------------ *)
(* Payloads                                                            *)
(* ------------------------------------------------------------------ *)

(* the null slots of an int payload, as QIPC writes them: long and
   timestamp in 8 bytes, date and time in 4 *)
let long_null = Int64.min_int
let int_null = -0x8000_0000L

(** The slot a null of [ty] takes in an int payload ([0b] for bool). *)
let null_slot (ty : Qtype.t) : int64 =
  match ty with
  | Qtype.Date | Qtype.Time -> int_null
  | Qtype.Bool -> 0L
  | Qtype.Long | Qtype.Timestamp | Qtype.Float | Qtype.Char | Qtype.Sym ->
      long_null

let vec_length = function
  | Ints a -> Ivec.length a
  | Floats a -> Array.length a
  | Syms a -> Array.length a
  | Chars b -> Bytes.length b

(** Element [i] of a payload of type [ty], as an atom. *)
let atom_at (ty : Qtype.t) (v : vec) (i : int) : Atom.t =
  match v with
  | Ints a -> (
      let x = Ivec.get_at a (8 * i) in
      match ty with
      | Qtype.Bool -> Atom.Bool (x <> 0L)
      | Qtype.Date -> if x = int_null then Atom.Null ty else Atom.Date (Int64.to_int x)
      | Qtype.Time -> if x = int_null then Atom.Null ty else Atom.Time (Int64.to_int x)
      | Qtype.Timestamp -> if x = long_null then Atom.Null ty else Atom.Timestamp x
      | Qtype.Long | Qtype.Float | Qtype.Char | Qtype.Sym ->
          if x = long_null then Atom.Null Qtype.Long else Atom.Long x)
  | Floats a ->
      let f = a.(i) in
      if Float.is_nan f then Atom.Null Qtype.Float else Atom.Float f
  | Syms a -> Atom.Sym a.(i)
  | Chars b -> Atom.Char (Bytes.get b i)

(** The payload of [atoms] as elements of type [ty]: a null takes [ty]'s
    sentinel, and an atom of another type is cast to [ty] first. *)
let vec_of_atoms (ty : Qtype.t) (atoms : Atom.t array) : vec =
  let n = Array.length atoms in
  let get i = Atom.cast ty (Array.unsafe_get atoms i) in
  match ty with
  | Qtype.Float ->
      let a = Array.create_float n in
      for i = 0 to n - 1 do
        a.(i) <- (match get i with Atom.Float f -> f | _ -> Float.nan)
      done;
      Floats a
  | Qtype.Sym ->
      let a = Array.make n "" in
      for i = 0 to n - 1 do
        match get i with Atom.Sym s -> a.(i) <- s | _ -> ()
      done;
      Syms a
  | Qtype.Char ->
      Chars
        (Bytes.init n (fun i -> match get i with Atom.Char c -> c | _ -> ' '))
  | Qtype.Bool | Qtype.Long | Qtype.Date | Qtype.Time | Qtype.Timestamp ->
      let a = Ivec.create n in
      for i = 0 to n - 1 do
        Ivec.set_at a (8 * i)
          (match get i with
          | Atom.Bool b -> if b then 1L else 0L
          | Atom.Long x | Atom.Timestamp x -> x
          | Atom.Date d | Atom.Time d -> Int64.of_int d
          | Atom.Null _ | Atom.Float _ | Atom.Char _ | Atom.Sym _ -> null_slot ty)
      done;
      Ints a

(** The payload whose element [k] is [v]'s element [idx.(k)], or a null
    where [idx.(k)] is out of range. *)
let vec_pick (ty : Qtype.t) (v : vec) (idx : int array) : vec =
  let n = vec_length v and m = Array.length idx in
  let inside k =
    let i = Array.unsafe_get idx k in
    i >= 0 && i < n
  in
  match v with
  | Ints a ->
      let out = Ivec.create m and nul = null_slot ty in
      for k = 0 to m - 1 do
        if inside k then
          Ivec.unsafe_set_at out (8 * k) (Ivec.unsafe_get_at a (8 * idx.(k)))
        else Ivec.unsafe_set_at out (8 * k) nul
      done;
      Ints out
  | Floats a ->
      Floats
        (Array.init m (fun k -> if inside k then a.(idx.(k)) else Float.nan))
  | Syms a ->
      let out = Array.make m "" in
      for k = 0 to m - 1 do
        if inside k then out.(k) <- a.(idx.(k))
      done;
      Syms out
  | Chars b ->
      Chars (Bytes.init m (fun k -> if inside k then Bytes.get b idx.(k) else ' '))

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let bool b = Atom (Atom.Bool b)
let long i = Atom (Atom.Long i)
let int i = Atom (Atom.Long (Int64.of_int i))
let float f = Atom (Atom.Float f)
let sym s = Atom (Atom.Sym s)
let date d = Atom (Atom.Date d)
let time t = Atom (Atom.Time t)
let timestamp n = Atom (Atom.Timestamp n)
let null ty = Atom (Atom.Null ty)

(* An array of values starts out holding a static one and is filled in
   place: OCaml's [Array.make] runs a minor collection when an array too
   big for the minor heap starts out holding a young value, as the first
   element of [Array.init] or [Array.map] usually is. *)
let static_value = Atom (Atom.Null Qtype.Long)

let init_values n (f : int -> t) : t array =
  let a = Array.make n static_value in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (f i)
  done;
  a

(** A vector of type [ty] holding [atoms] (see {!vec_of_atoms}). *)
let vector (ty : Qtype.t) (atoms : Atom.t array) : t =
  Vector (ty, vec_of_atoms ty atoms)

(** Build the most specific list from an array of atoms: a typed vector if
    all atoms share one (non-null-ambiguous) type, otherwise a general
    list. Null atoms adopt the type of their neighbours. *)
let vector_of_atoms (atoms : Atom.t array) : t =
  let n = Array.length atoms in
  if n = 0 then List [||]
  else
    let ty = ref None in
    let uniform = ref true in
    Array.iter
      (fun a ->
        match (a, !ty) with
        | Atom.Null _, _ -> ()
        | a, None -> ty := Some (Atom.qtype a)
        | a, Some t -> if not (Qtype.equal (Atom.qtype a) t) then uniform := false)
      atoms;
    match (!uniform, !ty) with
    | true, Some t ->
        (* nulls take the vector's element type; booleans and chars have
           no null in kdb+ (they collapse to 0b / blank) *)
        vector t atoms
    | true, None ->
        (* all nulls: a long-null vector *)
        Vector (Qtype.Long, Ints (Ivec.make n long_null))
    | false, _ -> List (init_values n (fun i -> Atom (Array.unsafe_get atoms i)))

(** Build a list value from arbitrary values, collapsing to a typed vector
    when every element is an atom of the same type. *)
let of_values (vs : t array) : t =
  let all_atoms =
    Array.for_all (function Atom _ -> true | _ -> false) vs
  in
  if all_atoms then
    vector_of_atoms (Array.map (function Atom a -> a | _ -> assert false) vs)
  else List vs

let longs xs =
  let a = Ivec.create (Array.length xs) in
  Array.iteri (fun i x -> Ivec.set_at a (8 * i) (Int64.of_int x)) xs;
  Vector (Qtype.Long, Ints a)

let floats xs = Vector (Qtype.Float, Floats (Array.copy xs))
let syms xs = Vector (Qtype.Sym, Syms (Array.copy xs))

let bools xs =
  let a = Ivec.create (Array.length xs) in
  Array.iteri (fun i b -> Ivec.set_at a (8 * i) (if b then 1L else 0L)) xs;
  Vector (Qtype.Bool, Ints a)

let string_ s = Vector (Qtype.Char, Chars (Bytes.of_string s))

(** Read a char vector back as an OCaml string. *)
let to_string_exn = function
  | Vector (Qtype.Char, Chars b) -> Bytes.to_string b
  | Atom (Atom.Char c) -> String.make 1 c
  | Atom (Atom.Sym s) -> s
  | _ -> type_error "expected a string"

let is_string = function
  | Vector (Qtype.Char, _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Basic structure                                                     *)
(* ------------------------------------------------------------------ *)

let is_atom = function Atom _ -> true | _ -> false

(** Number of elements: atoms count 1, tables count rows. *)
let rec length = function
  | Atom _ -> 1
  | Vector (_, v) -> vec_length v
  | List vs -> Array.length vs
  | Dict (k, _) -> length k
  | Table t -> table_length t
  | KTable (k, _) -> table_length k

and table_length t =
  if Array.length t.data = 0 then 0 else length t.data.(0)

let rec index v i =
  match v with
  | Vector (ty, p) ->
      if i < 0 || i >= vec_length p then Atom (Atom.Null Qtype.Long)
      else Atom (atom_at ty p i)
  | List vs ->
      if i < 0 || i >= Array.length vs then Atom (Atom.Null Qtype.Long)
      else vs.(i)
  | Atom _ -> raise (Rank_error "cannot index an atom")
  | Dict (_, vals) -> (
      (* dictionary lookup by position is not Q semantics; index the values *)
      match vals with
      | Vector _ | List _ -> index vals i
      | _ -> raise (Rank_error "cannot index dictionary values"))
  | Table t ->
      (* indexing a table yields the row as a dict of column name -> value *)
      Dict
        ( syms t.cols,
          of_values (Array.map (fun col -> index col i) t.data) )
  | KTable _ -> raise (Rank_error "cannot index keyed table by position")

(** Elements of any list-like value as an array of values. *)
let rec elements = function
  | Atom a -> [| Atom a |]
  | Vector (ty, p) -> init_values (vec_length p) (fun i -> Atom (atom_at ty p i))
  | List vs -> vs
  | Dict (_, ((Vector _ | List _) as v)) -> elements v
  | Dict (_, v) -> [| v |]
  | (Table _ | KTable _) as t -> Array.init (length t) (fun i -> index t i)

let atoms_exn = function
  | Vector (ty, p) -> Array.init (vec_length p) (atom_at ty p)
  | List vs ->
      Array.map
        (function Atom a -> a | _ -> type_error "expected a vector of atoms")
        vs
  | Atom a -> [| a |]
  | _ -> type_error "expected a vector"

(* ------------------------------------------------------------------ *)
(* Equality (2-valued, deep)                                           *)
(* ------------------------------------------------------------------ *)

let rec equal a b =
  match (a, b) with
  | Atom x, Atom y -> Atom.equal x y
  | (Vector _ | List _), (Vector _ | List _) ->
      let xs = elements a and ys = elements b in
      Array.length xs = Array.length ys
      && (let ok = ref true in
          Array.iteri (fun i x -> if not (equal x ys.(i)) then ok := false) xs;
          !ok)
  | Dict (k1, v1), Dict (k2, v2) -> equal k1 k2 && equal v1 v2
  | Table t1, Table t2 -> table_equal t1 t2
  | KTable (k1, v1), KTable (k2, v2) -> table_equal k1 k2 && table_equal v1 v2
  | _ -> false

and table_equal t1 t2 =
  t1.cols = t2.cols
  && Array.length t1.data = Array.length t2.data
  && (let ok = ref true in
      Array.iteri
        (fun i c -> if not (equal c t2.data.(i)) then ok := false)
        t1.data;
      !ok)

(** Total order for sorting general lists: atoms by {!Atom.compare}, lists
    lexicographically, tables/dicts by their flattened structure. *)
let rec compare_value a b =
  match (a, b) with
  | Atom x, Atom y -> Atom.compare x y
  | Atom _, _ -> -1
  | _, Atom _ -> 1
  | _ ->
      let xs = elements a and ys = elements b in
      let n = Stdlib.min (Array.length xs) (Array.length ys) in
      let rec go i =
        if i >= n then Stdlib.compare (Array.length xs) (Array.length ys)
        else
          let c = compare_value xs.(i) ys.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

(* ------------------------------------------------------------------ *)
(* List verbs                                                          *)
(* ------------------------------------------------------------------ *)

let til n = longs (Array.init n Fun.id)

let enlist v = of_values [| v |]

let first = function
  | Atom _ as a -> a
  | v -> if length v = 0 then Atom (Atom.Null Qtype.Long) else index v 0

let last = function
  | Atom _ as a -> a
  | v ->
      let n = length v in
      if n = 0 then Atom (Atom.Null Qtype.Long) else index v (n - 1)

let rec rev = function
  | Atom _ as a -> a
  | Vector (ty, p) ->
      let n = vec_length p in
      Vector (ty, vec_pick ty p (Array.init n (fun i -> n - 1 - i)))
  | List vs ->
      let n = Array.length vs in
      List (Array.init n (fun i -> vs.(n - 1 - i)))
  | Dict (k, v) -> Dict (rev k, rev v)
  | Table t -> Table { t with data = Array.map rev t.data }
  | KTable (k, v) ->
      KTable
        ( { k with data = Array.map rev k.data },
          { v with data = Array.map rev v.data } )

(** [where] on a boolean vector: indices of true elements. *)
let where_ v =
  let xs = elements v in
  let acc = ref [] in
  Array.iteri
    (fun i x ->
      match x with
      | Atom a when (not (Atom.is_null a)) && Atom.to_bool a -> acc := i :: !acc
      | _ -> ())
    xs;
  longs (Array.of_list (List.rev !acc))

(** Select elements at the given indices (out-of-range yields nulls). *)
let rec at v (indices : int array) =
  match v with
  | Vector (ty, p) -> Vector (ty, vec_pick ty p indices)
  | List vs ->
      let n = Array.length vs in
      List
        (Array.map
           (fun i -> if i >= 0 && i < n then vs.(i) else Atom (Atom.Null Qtype.Long))
           indices)
  | Atom _ -> raise (Rank_error "cannot index an atom")
  | Table t -> Table { t with data = Array.map (fun c -> at c indices) t.data }
  | KTable (k, v) ->
      KTable
        ( { k with data = Array.map (fun c -> at c indices) k.data },
          { v with data = Array.map (fun c -> at c indices) v.data } )
  | Dict (k, v) -> Dict (at k indices, at v indices)

let int_array_of v =
  Array.map
    (function
      | Atom (Atom.Long i) -> Int64.to_int i
      | Atom a when not (Atom.is_null a) -> Int64.to_int (Atom.to_long a)
      | _ -> -1)
    (elements v)

(** Take: positive from front (cycling), negative from back. An atom is
    treated as a singleton list ([3#7] is [7 7 7]). *)
let take n v =
  let v = match v with Atom _ -> enlist v | v -> v in
  let len = length v in
  if len = 0 then v
  else if n >= 0 then at v (Array.init n (fun i -> i mod len))
  else
    let m = -n in
    at v (Array.init m (fun i -> (((len - m + i) mod len) + len) mod len))

(** Drop: positive from front, negative from back. *)
let drop n v =
  let v = match v with Atom _ -> enlist v | v -> v in
  let len = length v in
  if n >= 0 then
    let m = Stdlib.max 0 (len - n) in
    at v (Array.init m (fun i -> i + n))
  else
    let m = Stdlib.max 0 (len + n) in
    at v (Array.init m (fun i -> i))

let distinct v =
  let seen = ref [] in
  let keep = ref [] in
  let xs = elements v in
  Array.iteri
    (fun i x ->
      if not (List.exists (fun y -> equal x y) !seen) then (
        seen := x :: !seen;
        keep := i :: !keep))
    xs;
  at v (Array.of_list (List.rev !keep))

(** Stable grading for ascending sort: permutation of indices. *)
let grade_up v =
  let xs = elements v in
  let idx = Array.init (Array.length xs) (fun i -> i) in
  let cmp i j =
    let c = compare_value xs.(i) xs.(j) in
    if c <> 0 then c else Stdlib.compare i j
  in
  Array.sort cmp idx;
  idx

let grade_down v =
  let xs = elements v in
  let idx = Array.init (Array.length xs) (fun i -> i) in
  let cmp i j =
    let c = compare_value xs.(j) xs.(i) in
    if c <> 0 then c else Stdlib.compare i j
  in
  Array.sort cmp idx;
  idx

let asc v = at v (grade_up v)
let desc v = at v (grade_down v)

(** Group: dict from distinct values to index lists, in order of first
    appearance (Q's [group]). *)
let group v =
  let xs = elements v in
  let keys = ref [] in
  let tbl : (t * int list ref) list ref = ref [] in
  Array.iteri
    (fun i x ->
      match List.find_opt (fun (k, _) -> equal k x) !tbl with
      | Some (_, l) -> l := i :: !l
      | None ->
          keys := x :: !keys;
          tbl := (x, ref [ i ]) :: !tbl)
    xs;
  let keys = List.rev !keys in
  let vals =
    List.map
      (fun k ->
        let _, l = List.find (fun (k', _) -> equal k' k) !tbl in
        longs (Array.of_list (List.rev !l)))
      keys
  in
  Dict (of_values (Array.of_list keys), List (Array.of_list vals))

(** Concatenate two values as lists (Q [,] join). *)
let join_lists a b =
  let xs = elements a and ys = elements b in
  of_values (Array.append xs ys)

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

(** Build a table from (column-name, column-value) pairs; all columns must
    have equal length. Atom columns are broadcast to the table length. *)
let table (pairs : (string * t) list) : table =
  let lens =
    List.filter_map
      (fun (_, v) -> match v with Atom _ -> None | v -> Some (length v))
      pairs
  in
  (* atom columns broadcast; a table of only atoms has one row, and a table
     with empty columns is legitimately empty *)
  let max_len =
    match lens with [] -> 1 | l -> List.fold_left Stdlib.max 0 l
  in
  let expand = function
    | Atom a -> vector (Atom.qtype a) (Array.make max_len a)
    | v ->
        if length v <> max_len then raise Length_error;
        v
  in
  {
    cols = Array.of_list (List.map fst pairs);
    data = Array.of_list (List.map (fun (_, v) -> expand v) pairs);
  }

let column (t : table) name =
  let rec go i =
    if i >= Array.length t.cols then None
    else if t.cols.(i) = name then Some t.data.(i)
    else go (i + 1)
  in
  go 0

let column_exn t name =
  match column t name with
  | Some c -> c
  | None -> type_error "column %s not found" name

let has_column t name = Array.exists (fun c -> c = name) t.cols

(** Row [i] of a table as an array of values, in column order. *)
let row (t : table) i = Array.map (fun col -> index col i) t.data

(** Append a column (or replace it if the name exists). *)
let set_column (t : table) name v =
  match column t name with
  | Some _ ->
      {
        t with
        data =
          Array.mapi (fun i c -> if t.cols.(i) = name then v else c) t.data;
      }
  | None ->
      { cols = Array.append t.cols [| name |]; data = Array.append t.data [| v |] }

let filter_table (t : table) (indices : int array) =
  { t with data = Array.map (fun c -> at c indices) t.data }

(** Vertical concatenation of two tables with identical column sets. *)
let append_tables t1 t2 =
  if t1.cols <> t2.cols then type_error "mismatched columns in table join";
  {
    t1 with
    data = Array.mapi (fun i c -> join_lists c t2.data.(i)) t1.data;
  }

(** Flip a dictionary of columns into a table, or a table into a dict. *)
let flip = function
  | Dict (k, v) ->
      let names =
        Array.map
          (function Atom (Atom.Sym s) -> s | _ -> type_error "flip: keys must be symbols")
          (elements k)
      in
      Table { cols = names; data = elements v }
  | Table t -> Dict (syms t.cols, List t.data)
  | _ -> type_error "flip expects a dictionary or table"

(** Key a table on the given columns. *)
let xkey keys (t : table) =
  let is_key c = List.mem c keys in
  let kcols = Array.of_list (List.filter is_key (Array.to_list t.cols)) in
  let vcols = Array.of_list (List.filter (fun c -> not (is_key c)) (Array.to_list t.cols)) in
  KTable
    ( { cols = kcols; data = Array.map (column_exn t) kcols },
      { cols = vcols; data = Array.map (column_exn t) vcols } )

let unkey = function
  | KTable (k, v) ->
      Table { cols = Array.append k.cols v.cols; data = Array.append k.data v.data }
  | t -> t

(* ------------------------------------------------------------------ *)
(* Dictionaries                                                        *)
(* ------------------------------------------------------------------ *)

let dict_lookup (k : t) (v : t) (key : t) : t =
  let ks = elements k in
  let rec go i =
    if i >= Array.length ks then Atom (Atom.Null Qtype.Long)
    else if equal ks.(i) key then index v i
    else go (i + 1)
  in
  go 0

(** Dict upsert: replace the value under an existing key or append. *)
let dict_upsert (k : t) (v : t) (key : t) (value : t) : t =
  let ks = elements k and vs = elements v in
  match Array.find_index (fun x -> equal x key) ks with
  | Some i ->
      let vs = Array.copy vs in
      vs.(i) <- value;
      Dict (of_values ks, of_values vs)
  | None ->
      Dict
        ( of_values (Array.append ks [| key |]),
          of_values (Array.append vs [| value |]) )

(* ------------------------------------------------------------------ *)
(* Type inspection                                                     *)
(* ------------------------------------------------------------------ *)

(** Q type code of a value (atoms negative, vectors positive, 0 for general
    lists, 98 tables, 99 dicts/keyed tables). *)
let type_code = function
  | Atom a -> -Qtype.code (Atom.qtype a)
  | Vector (ty, _) -> Qtype.code ty
  | List _ -> 0
  | Table _ -> 98
  | Dict _ | KTable _ -> 99
