(** Value-level implementations of Q primitive verbs.

    Everything here is pure data-in data-out; application of user functions
    (adverbs over lambdas, [fby], ...) lives in {!Interp}, which passes
    callbacks where needed. Dyadic atomic verbs broadcast: atom–atom,
    atom–vector, vector–atom, and vector–vector of equal length; applied to
    a dictionary they map over its range, applied to a table over its
    columns. *)

open Qvalue

let type_err = Error.type_err
let length_err = Error.length_err

(* ------------------------------------------------------------------ *)
(* Broadcasting                                                        *)
(* ------------------------------------------------------------------ *)

(* an atom of [v]'s type: an atom itself, or a typed vector's null *)
let type_atom = function
  | Value.Atom x -> Some x
  | Value.Vector (ty, _) -> Some (Atom.Null ty)
  | _ -> None

(* the results [rs] of [f] over [a] and [b], typed as kdb+'s are: none
   is the empty vector of the type [f] gives their types, and nulls of
   one type are a vector of that type *)
let results f a b (rs : Value.t array) =
  match (rs, type_atom a, type_atom b) with
  | [||], Some x, Some y -> (
      match f x y with
      | r -> Value.vector (Atom.qtype r) [||]
      | exception _ -> Value.of_values rs)
  | [||], _, _ -> Value.of_values rs
  | _ -> (
      match rs.(0) with
      | Value.Atom (Atom.Null ty as n)
        when Array.for_all (( = ) (Value.Atom n)) rs ->
          Value.vector ty (Array.make (Array.length rs) n)
      | _ -> Value.of_values rs)

(** Broadcast a binary atom operation over two values. *)
let rec atomic2 (f : Atom.t -> Atom.t -> Atom.t) (a : Value.t) (b : Value.t) :
    Value.t =
  match (a, b) with
  | Value.Atom x, Value.Atom y -> Value.Atom (f x y)
  | Value.Atom x, (Value.Vector _ | Value.List _) ->
      let ys = Value.elements b in
      results f a b (Array.map (fun y -> atomic2 f (Value.Atom x) y) ys)
  | (Value.Vector _ | Value.List _), Value.Atom y ->
      let xs = Value.elements a in
      results f a b (Array.map (fun x -> atomic2 f x (Value.Atom y)) xs)
  | (Value.Vector _ | Value.List _), (Value.Vector _ | Value.List _) ->
      let xs = Value.elements a and ys = Value.elements b in
      if Array.length xs <> Array.length ys then
        length_err "vector lengths %d and %d" (Array.length xs)
          (Array.length ys);
      results f a b (Array.map2 (fun x y -> atomic2 f x y) xs ys)
  | Value.Dict (k, v), _ -> Value.Dict (k, atomic2 f v b)
  | _, Value.Dict (k, v) -> Value.Dict (k, atomic2 f a v)
  | Value.Table t, _ ->
      Value.Table { t with data = Array.map (fun c -> atomic2 f c b) t.data }
  | _, Value.Table t ->
      Value.Table { t with data = Array.map (fun c -> atomic2 f a c) t.data }
  | Value.KTable _, _ | _, Value.KTable _ ->
      type_err "cannot broadcast over keyed table"

(** Broadcast a unary atom operation. *)
let rec atomic1 (f : Atom.t -> Atom.t) (v : Value.t) : Value.t =
  match v with
  | Value.Atom x -> Value.Atom (f x)
  | Value.Vector _ | Value.List _ ->
      results (fun x _ -> f x) v v (Array.map (atomic1 f) (Value.elements v))
  | Value.Dict (k, v) -> Value.Dict (k, atomic1 f v)
  | Value.Table t ->
      Value.Table { t with data = Array.map (atomic1 f) t.data }
  | Value.KTable (k, v) -> Value.KTable (k, (match atomic1 f (Value.Table v) with
      | Value.Table v' -> v'
      | _ -> assert false))

(* ------------------------------------------------------------------ *)
(* Arithmetic and comparison                                           *)
(* ------------------------------------------------------------------ *)

let add = atomic2 Atom.add
let sub = atomic2 Atom.sub
let mul = atomic2 Atom.mul
let div = atomic2 Atom.div
let idiv = atomic2 Atom.idiv
let imod = atomic2 Atom.imod
let min_v = atomic2 Atom.min_
let max_v = atomic2 Atom.max_

let cmp_verb op = atomic2 (fun x y -> Atom.Bool (op (Atom.compare x y) 0))
let eq = atomic2 (fun x y -> Atom.Bool (Atom.equal x y))
let neq = atomic2 (fun x y -> Atom.Bool (not (Atom.equal x y)))
let lt = cmp_verb ( < )
let le = cmp_verb ( <= )
let gt = cmp_verb ( > )
let ge = cmp_verb ( >= )

let and_v = atomic2 (fun x y -> Atom.min_ x y)
let or_v = atomic2 (fun x y -> Atom.max_ x y)

let neg_v = atomic1 Atom.neg
let abs_v = atomic1 Atom.abs_
let sqrt_v = atomic1 Atom.sqrt_
let exp_v = atomic1 Atom.exp_
let log_v = atomic1 Atom.log_
let floor_v = atomic1 Atom.floor_
let ceiling_v = atomic1 Atom.ceiling_
let not_v = atomic1 (fun x -> Atom.Bool (not (Atom.to_bool x)))
let null_v = atomic1 (fun x -> Atom.Bool (Atom.is_null x))

let signum =
  atomic1 (fun x ->
      if Atom.is_null x then Atom.Null Qtype.Long
      else
        let f = Atom.to_float x in
        Atom.Long (if f > 0. then 1L else if f < 0. then -1L else 0L))

(** [x ^ y]: fill — replace nulls in [y] with [x]. *)
let fill = atomic2 (fun x y -> if Atom.is_null y then x else y)

(** [prev]: shift right, null-filling the head; [next] shifts left. *)
let prev_v v =
  let xs = Value.elements v in
  let n = Array.length xs in
  Value.of_values
    (Array.init n (fun i ->
         if i = 0 then
           match xs.(0) with
           | Value.Atom a -> Value.Atom (Atom.Null (Atom.qtype a))
           | _ -> Value.Atom (Atom.Null Qtype.Long)
         else xs.(i - 1)))

let next_v v =
  let xs = Value.elements v in
  let n = Array.length xs in
  Value.of_values
    (Array.init n (fun i ->
         if i = n - 1 then
           match xs.(i) with
           | Value.Atom a -> Value.Atom (Atom.Null (Atom.qtype a))
           | _ -> Value.Atom (Atom.Null Qtype.Long)
         else xs.(i + 1)))

(** [differ]: true where an element differs from its predecessor (the
    first element is always true). *)
let differ_v v =
  let xs = Value.elements v in
  Value.of_values
    (Array.mapi
       (fun i x ->
         Value.bool (i = 0 || not (Value.equal x xs.(i - 1))))
       xs)

(** [rank]: the position each element would occupy after sorting — the
    grade of the grade. *)
let rank_v v =
  let g = Value.grade_up v in
  let out = Array.make (Array.length g) 0 in
  Array.iteri (fun pos i -> out.(i) <- pos) g;
  Value.longs out

(** [sublist]: [n sublist x] takes at most n items (no cycling);
    [(i;n) sublist x] takes n from position i. *)
let sublist_v spec v =
  let len = Value.length v in
  match Value.elements spec with
  | [| Value.Atom a |] when not (Atom.is_null a) ->
      let n = Int64.to_int (Atom.to_long a) in
      if n >= 0 then Value.at v (Array.init (Stdlib.min n len) (fun i -> i))
      else
        let n = Stdlib.min (-n) len in
        Value.at v (Array.init n (fun i -> len - n + i))
  | [| Value.Atom i0; Value.Atom n0 |] ->
      let i = Int64.to_int (Atom.to_long i0) in
      let n = Int64.to_int (Atom.to_long n0) in
      let i = Stdlib.max 0 i in
      let n = Stdlib.max 0 (Stdlib.min n (len - i)) in
      Value.at v (Array.init n (fun k -> i + k))
  | _ -> type_err "sublist expects n or (i;n) on the left"

let as_table' = function
  | Value.Table t -> t
  | Value.KTable _ as kt -> (
      match Value.unkey kt with Value.Table t -> t | _ -> assert false)
  | _ -> type_err "expected a table"

(** [`c2`c1 xcols t]: reorder columns, named ones first. *)
let xcols_v names t =
  let t = as_table' t in
  let names =
    Value.elements names
    |> Array.to_list
    |> List.map (function
         | Value.Atom (Atom.Sym s) -> s
         | _ -> type_err "xcols expects symbols")
  in
  let rest =
    Array.to_list t.Value.cols |> List.filter (fun c -> not (List.mem c names))
  in
  let order = names @ rest in
  Value.Table
    {
      Value.cols = Array.of_list order;
      data = Array.of_list (List.map (Value.column_exn t) order);
    }

(** [fills]: forward-fill nulls in a list. *)
let fills v =
  let xs = Value.elements v in
  let prev = ref None in
  Value.of_values
    (Array.map
       (fun x ->
         match x with
         | Value.Atom a when Atom.is_null a -> (
             match !prev with Some p -> p | None -> x)
         | x ->
             prev := Some x;
             x)
       xs)

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let non_null_atoms v =
  Value.elements v
  |> Array.to_list
  |> List.filter_map (function
       | Value.Atom a when not (Atom.is_null a) -> Some a
       | _ -> None)

let count_v v = Value.int (Value.length v)

let sum_v v =
  match non_null_atoms v with
  | [] -> (
      (* the sum of no float is a float 0 *)
      match v with
      | Value.Vector (Qtype.Float, _) -> Value.float 0.0
      | _ -> Value.int 0)
  | a :: rest -> Value.Atom (List.fold_left Atom.add a rest)

let prd_v v =
  match non_null_atoms v with
  | [] -> Value.int 1
  | a :: rest -> Value.Atom (List.fold_left Atom.mul a rest)

let avg_v v =
  match non_null_atoms v with
  | [] -> Value.null Qtype.Float
  | atoms ->
      let s = List.fold_left (fun acc a -> acc +. Atom.to_float a) 0.0 atoms in
      Value.float (s /. float_of_int (List.length atoms))

let min_agg v =
  match non_null_atoms v with
  | [] -> Value.null Qtype.Long
  | a :: rest -> Value.Atom (List.fold_left Atom.min_ a rest)

let max_agg v =
  match non_null_atoms v with
  | [] -> Value.null Qtype.Long
  | a :: rest -> Value.Atom (List.fold_left Atom.max_ a rest)

let med_v v =
  match non_null_atoms v with
  | [] -> Value.null Qtype.Float
  | atoms ->
      let arr = Array.of_list (List.map Atom.to_float atoms) in
      Array.sort Float.compare arr;
      let n = Array.length arr in
      if n mod 2 = 1 then Value.float arr.(n / 2)
      else Value.float ((arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0)

(** Population variance, as kdb+'s [var]. *)
let var_v v =
  match non_null_atoms v with
  | [] -> Value.null Qtype.Float
  | atoms ->
      let fs = List.map Atom.to_float atoms in
      let n = float_of_int (List.length fs) in
      let mean = List.fold_left ( +. ) 0.0 fs /. n in
      let sq = List.fold_left (fun acc f -> acc +. ((f -. mean) ** 2.)) 0.0 fs in
      Value.float (sq /. n)

let dev_v v =
  match var_v v with
  | Value.Atom (Atom.Float f) -> Value.float (sqrt f)
  | x -> x

let all_v v =
  Value.bool
    (Array.for_all
       (function
         | Value.Atom a -> (not (Atom.is_null a)) && Atom.to_bool a
         | _ -> true)
       (Value.elements v))

let any_v v =
  Value.bool
    (Array.exists
       (function
         | Value.Atom a -> (not (Atom.is_null a)) && Atom.to_bool a
         | _ -> false)
       (Value.elements v))

(* ------------------------------------------------------------------ *)
(* Uniform (running / sliding) verbs                                   *)
(* ------------------------------------------------------------------ *)

(* a running fold that skips nulls, leading ones too: each item is the
   fold of the values up to it, null before the first *)
let running (f : Atom.t -> Atom.t -> Atom.t) v =
  let xs = Value.atoms_exn v in
  let acc = ref None in
  Value.vector_of_atoms
    (Array.map
       (fun x ->
         match !acc with
         | _ when Atom.is_null x -> Option.value !acc ~default:x
         | None ->
             acc := Some x;
             x
         | Some a ->
             let r = f a x in
             acc := Some r;
             r)
       xs)

let sums = running Atom.add
let prds = running Atom.mul
let maxs = running Atom.max_
let mins = running Atom.min_

(** [deltas]: first element unchanged, then pairwise differences. *)
let deltas v =
  let xs = Value.atoms_exn v in
  Value.vector_of_atoms
    (Array.mapi (fun i x -> if i = 0 then x else Atom.sub x xs.(i - 1)) xs)

let ratios v =
  let xs = Value.atoms_exn v in
  Value.vector_of_atoms
    (Array.mapi (fun i x -> if i = 0 then x else Atom.div x xs.(i - 1)) xs)

(** Sliding-window aggregate of width [n] (expanding at the start). *)
let moving (agg : Value.t -> Value.t) n v =
  if n < 0 then Error.q_error "domain" "moving window size %d is negative" n;
  let xs = Value.elements v in
  let len = Array.length xs in
  (* a window of a typed vector keeps its type, nulls only or not *)
  let window =
    match v with
    | Value.Vector (ty, _) ->
        let atoms = Value.atoms_exn v in
        fun lo k -> Value.vector ty (Array.sub atoms lo k)
    | _ -> fun lo k -> Value.of_values (Array.sub xs lo k)
  in
  Value.of_values
    (Array.init len (fun i ->
         let lo = Stdlib.max 0 (i - n + 1) in
         agg (window lo (i - lo + 1))))

let mavg n v = moving avg_v n v
let msum n v = moving sum_v n v
let mmax n v = moving max_agg n v
let mmin n v = moving min_agg n v

let wavg w v =
  let ws = Value.elements w and vs = Value.elements v in
  if Array.length ws <> Array.length vs then length_err "wavg lengths differ";
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun i wv ->
      match (wv, vs.(i)) with
      | Value.Atom a, Value.Atom b
        when (not (Atom.is_null a)) && not (Atom.is_null b) ->
          num := !num +. (Atom.to_float a *. Atom.to_float b);
          den := !den +. Atom.to_float a
      | _ -> ())
    ws;
  if !den = 0.0 then Value.null Qtype.Float else Value.float (!num /. !den)

let wsum w v = sum_v (mul w v)

(** [xbar]: round [y] down to the nearest multiple of [x]. *)
let xbar =
  atomic2 (fun x y ->
      if Atom.is_null x || Atom.is_null y then Atom.Null (Atom.qtype y)
      else
        let bx = Atom.to_long x in
        if bx = 0L then y
        else
          let by = Atom.to_long y in
          let q = Int64.mul (Int64.div by bx) bx in
          let q = if Int64.compare by 0L < 0 && Int64.rem by bx <> 0L then Int64.sub q bx else q in
          Atom.cast (Atom.qtype y) (Atom.Long q))

(* ------------------------------------------------------------------ *)
(* Membership and search                                               *)
(* ------------------------------------------------------------------ *)

(** [x in y]: membership; broadcasts over the left argument. *)
let rec in_v a b =
  match a with
  | Value.Atom _ ->
      let ys = Value.elements b in
      Value.bool (Array.exists (fun y -> Value.equal a y) ys)
  | _ ->
      Value.of_values (Array.map (fun x -> in_v x b) (Value.elements a))

(** [x within (lo;hi)]: inclusive range test. *)
let within_v a b =
  let lo, hi =
    match Value.elements b with
    | [| lo; hi |] -> (lo, hi)
    | _ -> type_err "within expects a 2-element range"
  in
  let test x =
    match (x, lo, hi) with
    | Value.Atom xa, Value.Atom la, Value.Atom ha ->
        Value.bool (Atom.compare xa la >= 0 && Atom.compare xa ha <= 0)
    | _ -> type_err "within expects atoms"
  in
  match a with
  | Value.Atom _ -> test a
  | _ -> Value.of_values (Array.map test (Value.elements a))

(** [?] find: index of first occurrence; length if absent. *)
let find_v a b =
  let xs = Value.elements a in
  let find1 y =
    let rec go i =
      if i >= Array.length xs then Value.int (Array.length xs)
      else if Value.equal xs.(i) y then Value.int i
      else go (i + 1)
    in
    go 0
  in
  match b with
  | Value.Atom _ -> find1 b
  | _ -> Value.of_values (Array.map find1 (Value.elements b))

(** [bin]: index of the last element of sorted [xs] that is <= key. -1 when
    the key precedes everything — the primitive behind as-of joins. *)
let bin_v a b =
  let xs = Value.elements a in
  let bin1 y =
    let lo = ref (-1) and hi = ref (Array.length xs) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if Value.compare_value xs.(mid) y <= 0 then lo := mid else hi := mid
    done;
    Value.int !lo
  in
  match b with
  | Value.Atom _ -> bin1 b
  | _ -> Value.of_values (Array.map bin1 (Value.elements b))

(** [like]: glob match with [*] and [?] on strings/symbols. *)
let like_v a b =
  let pattern = Value.to_string_exn b in
  let matches s =
    let n = String.length s and m = String.length pattern in
    (* classic O(nm) DP glob match *)
    let dp = Array.make_matrix (n + 1) (m + 1) false in
    dp.(0).(0) <- true;
    for j = 1 to m do
      if pattern.[j - 1] = '*' then dp.(0).(j) <- dp.(0).(j - 1)
    done;
    for i = 1 to n do
      for j = 1 to m do
        dp.(i).(j) <-
          (match pattern.[j - 1] with
          | '*' -> dp.(i - 1).(j) || dp.(i).(j - 1)
          | '?' -> dp.(i - 1).(j - 1)
          | c -> dp.(i - 1).(j - 1) && s.[i - 1] = c)
      done
    done;
    dp.(n).(m)
  in
  let test = function
    | Value.Atom (Atom.Sym s) -> Value.bool (matches s)
    | v when Value.is_string v -> Value.bool (matches (Value.to_string_exn v))
    | _ -> type_err "like expects symbols or strings"
  in
  match a with
  | Value.Atom (Atom.Sym _) -> test a
  | v when Value.is_string v -> test v
  | _ -> Value.of_values (Array.map test (Value.elements a))

(* ------------------------------------------------------------------ *)
(* Set operations                                                      *)
(* ------------------------------------------------------------------ *)

let union_v a b = Value.distinct (Value.join_lists a b)

let inter_v a b =
  let ys = Value.elements b in
  let xs = Value.elements a in
  let keep = ref [] in
  Array.iteri
    (fun i x -> if Array.exists (fun y -> Value.equal x y) ys then keep := i :: !keep)
    xs;
  Value.at a (Array.of_list (List.rev !keep))

let except_v a b =
  let ys = Value.elements b in
  let xs = Value.elements a in
  let keep = ref [] in
  Array.iteri
    (fun i x ->
      if not (Array.exists (fun y -> Value.equal x y) ys) then keep := i :: !keep)
    xs;
  Value.at a (Array.of_list (List.rev !keep))

let cross_v a b =
  let xs = Value.elements a and ys = Value.elements b in
  let out = ref [] in
  Array.iter
    (fun x -> Array.iter (fun y -> out := Value.List [| x; y |] :: !out) ys)
    xs;
  Value.List (Array.of_list (List.rev !out))

(* ------------------------------------------------------------------ *)
(* Strings                                                             *)
(* ------------------------------------------------------------------ *)

let rec string_v v =
  match v with
  | Value.Atom (Atom.Sym s) -> Value.string_ s
  | Value.Atom a -> Value.string_ (Atom.to_string a)
  | v when Value.is_string v -> v
  | Value.Vector _ | Value.List _ ->
      Value.List (Array.map string_v (Value.elements v))
  | _ -> type_err "cannot stringify this value"

let lower_v =
  atomic1 (function
    | Atom.Sym s -> Atom.Sym (String.lowercase_ascii s)
    | Atom.Char c -> Atom.Char (Char.lowercase_ascii c)
    | a -> a)

let upper_v =
  atomic1 (function
    | Atom.Sym s -> Atom.Sym (String.uppercase_ascii s)
    | Atom.Char c -> Atom.Char (Char.uppercase_ascii c)
    | a -> a)

(** [sv]: separator join of a list of strings. *)
let sv_v sep parts =
  let sep = Value.to_string_exn sep in
  let parts = Value.elements parts |> Array.map Value.to_string_exn in
  Value.string_ (String.concat sep (Array.to_list parts))

(** [vs]: split a string on a separator. *)
let vs_v sep s =
  let sep = Value.to_string_exn sep in
  let s = Value.to_string_exn s in
  if String.length sep = 1 then
    Value.List
      (Array.of_list
         (List.map Value.string_ (String.split_on_char sep.[0] s)))
  else type_err "vs expects a single-char separator"

(* ------------------------------------------------------------------ *)
(* Table verbs                                                         *)
(* ------------------------------------------------------------------ *)

let as_table = function
  | Value.Table t -> t
  | Value.KTable _ as kt -> (
      match Value.unkey kt with Value.Table t -> t | _ -> assert false)
  | _ -> type_err "expected a table"

(** [`a`b xcol t]: rename the first columns of [t]. *)
let xcol_v names t =
  let t = as_table t in
  let names =
    Value.elements names
    |> Array.map (function
         | Value.Atom (Atom.Sym s) -> s
         | _ -> type_err "xcol expects symbols")
  in
  let cols =
    Array.mapi
      (fun i c -> if i < Array.length names then names.(i) else c)
      t.Value.cols
  in
  Value.Table { t with Value.cols }

let sym_list v =
  Value.elements v
  |> Array.map (function
       | Value.Atom (Atom.Sym s) -> s
       | _ -> type_err "expected symbol list")
  |> Array.to_list

(** [`c1`c2 xasc t] / [xdesc]: sort a table by columns. *)
let xsort ~desc names t =
  let t = as_table t in
  let names = sym_list names in
  let nrows = Value.table_length t in
  let keys = List.map (fun n -> Value.column_exn t n) names in
  let idx = Array.init nrows (fun i -> i) in
  let cmp i j =
    let rec go = function
      | [] -> Stdlib.compare i j (* stable *)
      | k :: rest ->
          let c = Value.compare_value (Value.index k i) (Value.index k j) in
          if c <> 0 then if desc then -c else c else go rest
    in
    go keys
  in
  Array.sort cmp idx;
  Value.Table (Value.filter_table t idx)

let xasc_v = xsort ~desc:false
let xdesc_v = xsort ~desc:true

let xkey_v names t =
  match t with
  | Value.Table tbl -> Value.xkey (sym_list names) tbl
  | Value.KTable _ -> Value.xkey (sym_list names) (as_table t)
  | _ -> type_err "xkey expects a table"

let cols_v = function
  | Value.Table t -> Value.syms t.Value.cols
  | Value.KTable (k, v) -> Value.syms (Array.append k.Value.cols v.Value.cols)
  | Value.Dict (k, _) -> k
  | _ -> type_err "cols expects a table"

let meta_v v =
  let t = as_table v in
  let types =
    Array.map
      (fun col ->
        match col with
        | Value.Vector (ty, _) -> Atom.Char (Qtype.letter ty)
        | _ -> Atom.Char ' ')
      t.Value.data
  in
  Value.KTable
    ( { Value.cols = [| "c" |]; data = [| Value.syms t.Value.cols |] },
      { Value.cols = [| "t" |]; data = [| Value.vector Qtype.Char types |] }
    )

let key_v = function
  | Value.Dict (k, _) -> k
  | Value.KTable (k, _) -> Value.Table k
  | Value.Atom (Atom.Sym _) as s -> s (* key of a table name: identity here *)
  | _ -> type_err "key expects a dict or keyed table"

let value_v = function
  | Value.Dict (_, v) -> v
  | Value.KTable (_, v) -> Value.Table v
  | v -> v

let raze_v v =
  match v with
  | Value.List vs ->
      let parts = Array.to_list vs in
      List.fold_left
        (fun acc p -> Value.join_lists acc p)
        (Value.List [||]) parts
  | v -> v

(* ------------------------------------------------------------------ *)
(* Take / drop on tables and dicts (the [#] and [_] verbs)             *)
(* ------------------------------------------------------------------ *)

let take_v n v =
  match (n, v) with
  | Value.Atom (Atom.Long k), _ -> Value.take (Int64.to_int k) v
  | (Value.Vector (Qtype.Sym, _) | Value.Atom (Atom.Sym _)), Value.Table t ->
      (* column subset *)
      let names = sym_list n in
      Value.Table
        {
          Value.cols = Array.of_list names;
          data = Array.of_list (List.map (Value.column_exn t) names);
        }
  | _ -> type_err "unsupported take"

let drop_v n v =
  match (n, v) with
  | Value.Atom (Atom.Long k), _ -> Value.drop (Int64.to_int k) v
  | (Value.Vector (Qtype.Sym, _) | Value.Atom (Atom.Sym _)), Value.Table t ->
      let names = sym_list n in
      let keep =
        Array.to_list t.Value.cols
        |> List.filter (fun c -> not (List.mem c names))
      in
      Value.Table
        {
          Value.cols = Array.of_list keep;
          data = Array.of_list (List.map (Value.column_exn t) keep);
        }
  | _ -> type_err "unsupported drop"

(** [!] dict/key: list!list makes a dict; n!table keys the first n cols. *)
let bang_v a b =
  match (a, b) with
  | Value.Atom (Atom.Long n), Value.Table t ->
      let n = Int64.to_int n in
      Value.xkey (Array.to_list (Array.sub t.Value.cols 0 n)) t
  | Value.Atom (Atom.Long 0L), (Value.KTable _ as kt) -> Value.unkey kt
  | (Value.Vector _ | Value.List _ | Value.Atom _), _ ->
      if Value.is_atom a && Value.is_atom b then
        Value.Dict (Value.enlist a, Value.enlist b)
      else if Value.length a <> Value.length b then
        length_err "dict key/value lengths differ"
      else Value.Dict (a, b)
  | _ -> type_err "unsupported ! application"

(** [$] cast: [`long$x], [`float$x], [`sym$x], [`date$x], ... *)
let cast_v target v =
  match target with
  | Value.Atom (Atom.Sym name) -> (
      let ty =
        match name with
        | "boolean" | "b" -> Some Qtype.Bool
        | "long" | "int" | "j" | "i" -> Some Qtype.Long
        | "float" | "real" | "f" | "e" -> Some Qtype.Float
        | "symbol" | "s" -> Some Qtype.Sym
        | "date" | "d" -> Some Qtype.Date
        | "time" | "t" -> Some Qtype.Time
        | "timestamp" | "p" -> Some Qtype.Timestamp
        | _ -> None
      in
      match ty with
      | Some Qtype.Sym when Value.is_string v ->
          Value.sym (Value.to_string_exn v)
      | Some ty -> atomic1 (Atom.cast ty) v
      | None -> type_err "unknown cast target `%s" name)
  | _ -> type_err "$ expects a symbol cast target"
