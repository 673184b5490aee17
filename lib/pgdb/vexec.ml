(** Vectorized executor: batch-at-a-time evaluation over columnar data.
    It answers every SELECT pgdb's parser accepts.

    [run] lowers a {!Sqlast.Ast.select} into a pipeline of compiled
    closures over column vectors and runs it. The FROM tree may hold base
    tables and derived tables (planned with the same lowering and fed to
    the outer pipeline as a columnar source), UNION ALL (the branches
    concatenated), a one-row source when there is no FROM, and joins: a
    hash join on the ON clause's equality conjuncts, or a nested loop
    over every pair when there is none, with the other conjuncts run as
    a residual kernel over the candidate pairs. Then come WHERE
    conjuncts, either hash group-by with the aggregates of
    {!Exec.aggregates} or window functions plus projections, ORDER BY
    and LIMIT. DESIGN.md ("SELECT surface") states which errors are
    raised and when. *)

module A = Sqlast.Ast

(* ------------------------------------------------------------------ *)
(* Execution counters (process-wide; shard domains run concurrently)   *)
(* ------------------------------------------------------------------ *)

let stats_vector = Atomic.make 0 (* SELECTs answered *)
let stats_rows_out = Atomic.make 0 (* rows those SELECTs returned *)

(* always 0: the harness in bench/suite reads it for pgdb.vector_ratio *)
let stats_row = Atomic.make 0

let reset_stats () =
  Atomic.set stats_vector 0;
  Atomic.set stats_rows_out 0

(* ------------------------------------------------------------------ *)
(* Staged compilation                                                  *)
(* ------------------------------------------------------------------ *)

(* Every compile function below runs in two stages. Stage one, given a
   [scope], resolves names and checks shapes, touching no data; it
   raises only name errors (unknown relation, column or function). It
   returns stage two, a function of [data] that binds to the columns
   once the source has run. A whole SELECT tree, nested subqueries
   included, is therefore planned before any of it runs. A shape
   the executor rejects (a window where none was computed, [*] or an
   aggregate in a scalar expression, ...) compiles to a closure that
   raises each time it is evaluated, so an empty input still returns an
   empty result. *)

(* what stage two binds to: the pipeline's columns and the select's
   window results, both indexed by source row *)
type data = { col : int -> Batch.column; win : int -> Value.t array }

(* names an expression may use: the FROM bindings, and the window
   expressions whose results [data.win] holds, by position *)
type scope = { bindings : Exec.binding list; windows : A.expr list }

let no_windows (_ : int) : Value.t array =
  invalid_arg "vexec: no window results in this scope"

(* stage two with no row at all: any column read raises *)
let no_data =
  { col = (fun _ -> invalid_arg "vexec: no row"); win = no_windows }

(* a compiled scalar expression: evaluate at one source row *)
type cexpr = int -> Value.t

(* position of [x] in [l] under structural equality *)
let index_of (x : A.expr) (l : A.expr list) : int option =
  let rec go i = function
    | [] -> None
    | y :: rest -> if compare y x = 0 then Some i else go (i + 1) rest
  in
  go 0 l

let rec compile_expr (sc : scope) (e : A.expr) : data -> cexpr =
  let comp e = compile_expr sc e in
  match e with
  | A.Lit l ->
      let v = Value.of_lit l in
      fun _ _ -> v
  | A.Col (q, c) ->
      let j = Exec.find_binding sc.bindings q c in
      fun d ->
        let col = d.col j in
        fun i -> Batch.value_at col i
  | A.Window _ -> (
      (* a window anywhere in a scalar expression reads its precomputed
         column; windows are computed only for a non-aggregate select's
         projections and ORDER BY *)
      match index_of e sc.windows with
      | Some k ->
          fun d ->
            let a = d.win k in
            fun i -> a.(i)
      | None ->
          fun _ _ ->
            Errors.feature_not_supported "window function in this context")
  | A.Star -> fun _ _ -> Errors.syntax_error "stray * in expression"
  | A.Agg _ ->
      fun _ _ ->
        Errors.syntax_error "aggregate function in a non-aggregate context"
  | A.Bin (op, a, b) ->
      let ca = comp a and cb = comp b and f = Exec.binop op in
      fun d ->
        let ca = ca d and cb = cb d in
        fun i ->
          let va = ca i in
          f va (cb i)
  | A.Un (op, a) ->
      let ca = comp a and f = Exec.unop op in
      fun d ->
        let ca = ca d in
        fun i -> f (ca i)
  | A.IsNull a ->
      let ca = comp a in
      fun d ->
        let ca = ca d in
        fun i -> Value.Bool (Value.is_null (ca i))
  | A.In (a, es) ->
      let ca = comp a in
      let ces = List.map comp es in
      fun d ->
        let ca = ca d in
        let ces = List.map (fun ce -> ce d) ces in
        fun i ->
          let va = ca i in
          if Value.is_null va then Value.Null
          else begin
            let found = ref false and saw_null = ref false in
            List.iter
              (fun ce ->
                let v = ce i in
                if Value.is_null v then saw_null := true
                else
                  match Value.compare3 va v with
                  | Some 0 -> found := true
                  | _ -> ())
              ces;
            if !found then Value.Bool true
            else if !saw_null then Value.Null
            else Value.Bool false
          end
  | A.Between (a, lo, hi) ->
      let ca = comp a and clo = comp lo and chi = comp hi in
      fun d ->
        let ca = ca d and clo = clo d and chi = chi d in
        fun i ->
          let va = ca i in
          let vlo = clo i in
          let vhi = chi i in
          Value.and3
            (Exec.cmp_bool va vlo (fun c -> c >= 0))
            (Exec.cmp_bool va vhi (fun c -> c <= 0))
  | A.Case (branches, else_) ->
      let cbs = List.map (fun (c, r) -> (comp c, comp r)) branches in
      let celse = Option.map comp else_ in
      fun d ->
        let cbs = List.map (fun (c, r) -> (c d, r d)) cbs in
        let celse = Option.map (fun ce -> ce d) celse in
        fun i ->
          let rec go = function
            | [] -> ( match celse with Some ce -> ce i | None -> Value.Null)
            | (cc, cr) :: rest ->
                if Value.is_true (cc i) then cr i else go rest
          in
          go cbs
  | A.Cast (a, ty) ->
      let ca = comp a in
      fun d ->
        let ca = ca d in
        fun i -> Value.cast ty (ca i)
  | A.Fun (f, args) ->
      let cargs = List.map comp args in
      let f = Exec.scalar_fun f (List.length args) in
      fun d ->
        let cargs = List.map (fun ca -> ca d) cargs in
        fun i -> f (List.map (fun ca -> ca i) cargs)
  | A.Like (a, p) -> (
      let ca = comp a in
      match p with
      | A.Lit (A.Str pat) ->
          (* the pattern compiles once per query, not once per row *)
          let matcher = Exec.compile_like pat in
          fun d ->
            let ca = ca d in
            fun i ->
              (match ca i with
              | Value.Null -> Value.Null
              | Value.Str s -> Value.Bool (matcher s)
              | _ -> Errors.type_mismatch "LIKE expects text operands")
      | _ ->
          let cp = comp p in
          fun d ->
            let ca = ca d and cp = cp d in
            fun i ->
              (match (ca i, cp i) with
              | Value.Null, _ | _, Value.Null -> Value.Null
              | Value.Str s, Value.Str pat -> Value.Bool (Exec.like_match s pat)
              | _ -> Errors.type_mismatch "LIKE expects text operands"))

(* ------------------------------------------------------------------ *)
(* Chunks                                                              *)
(* ------------------------------------------------------------------ *)

(* A SELECT's WHERE conjuncts and aggregate folds run over its source
   [chunk_rows] rows at a time ([scan]): each conjunct narrows the
   chunk's selection in place, then the group ids and the folds take
   the chunk's survivors. The chunk's selection, group ids and argument
   vectors stay in cache from one operator to the next, and none of
   them is as long as the table. 2,048 rows is the fastest of 1,024,
   2,048 and 4,096 on the filter and grouped-fold probe that DESIGN.md
   records (§13, "Chunked pipeline"). *)
let chunk_rows = 2048

(* A set of chunk buffers: one chunk's selection and group ids, the
   identity [b_ident] through which a fold reads a chunk's argument
   vector slot by slot, and [b_spill], where a projection's survivors
   collect before they are copied out. The set is as long as the
   longest chunk its pipelines have met, so a domain that only scans
   small tables keeps small buffers. Shard statements run on pool
   domains, so each domain keeps a set of its own ([Domain.DLS]), taken
   for one pipeline at a time; a pipeline that starts while its
   domain's set is taken (a derived table's nested inside another, or
   one on another thread of the domain) makes a set of its own. Nothing
   allocates between the test of [b_busy] and its write, so no thread
   switch falls between them. *)
type bufs = {
  mutable b_sel : int array;
  mutable b_gid : int array;
  mutable b_ident : int array;
  mutable b_spill : int array;
  mutable b_busy : bool;
}

let make_bufs (n : int) : bufs =
  {
    b_sel = Array.make n 0;
    b_gid = Array.make n 0;
    b_ident = Array.init n Fun.id;
    b_spill = [||];
    b_busy = true;
  }

let domain_bufs : bufs Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { (make_bufs 0) with b_busy = false })

(* buffers for a pipeline over [nrows] rows, until [give_bufs] *)
let take_bufs (nrows : int) : bufs =
  let n = Stdlib.min nrows chunk_rows in
  let b = Domain.DLS.get domain_bufs in
  if b.b_busy then make_bufs n
  else begin
    b.b_busy <- true;
    if Array.length b.b_sel < n then begin
      let g = make_bufs n in
      b.b_sel <- g.b_sel;
      b.b_gid <- g.b_gid;
      b.b_ident <- g.b_ident
    end;
    b
  end

let give_bufs (b : bufs) : unit = b.b_busy <- false

(* ------------------------------------------------------------------ *)
(* Filter kernels                                                      *)
(* ------------------------------------------------------------------ *)

(* A filter kernel narrows a selection in place: [k sel n] keeps the
   rows of [sel.(0) .. sel.(n - 1)] that pass, in order, at [sel.(0) ..
   sel.(m - 1)] and returns [m]. Its one loop reads slot t and writes
   slot m <= t, so no survivor is overwritten before it is read. The
   pipeline hands it the chunk's selection buffer ([scan]); a whole
   column's caller hands it an array of its own. *)
type kernel = Batch.sel -> int -> int

(* the rows of [sel] that pass [keep], a test that neither raises nor
   has effects, in a fresh array: all of them shares [sel] *)
let select_rows (sel : Batch.sel) (keep : int -> bool) : Batch.sel =
  let m = ref 0 in
  Array.iter (fun i -> if keep i then incr m) sel;
  if !m = Array.length sel then sel
  else begin
    let out = Array.make !m 0 and k = ref 0 in
    Array.iter
      (fun i ->
        if keep i then begin
          out.(!k) <- i;
          incr k
        end)
      sel;
    out
  end

(* only a [Some c] comparison passing [test] survives; NULL never does *)
let cmp_test (op : A.binop) : (int -> bool) option =
  match op with
  | A.Eq -> Some (fun c -> c = 0)
  | A.Neq -> Some (fun c -> c <> 0)
  | A.Lt -> Some (fun c -> c < 0)
  | A.Le -> Some (fun c -> c <= 0)
  | A.Gt -> Some (fun c -> c > 0)
  | A.Ge -> Some (fun c -> c >= 0)
  | _ -> None

let flip_op (op : A.binop) : A.binop =
  match op with
  | A.Lt -> A.Gt
  | A.Le -> A.Ge
  | A.Gt -> A.Lt
  | A.Ge -> A.Le
  | op -> op

(* The typed kernels below make one pass over the selection. None
   calls a closure or branches on the data per row (a text kernel's
   does, once per dictionary entry): a row's verdict is an int, 1 to
   keep it and 0 to drop it, and the loop writes the row at its cursor
   unconditionally and advances the cursor by the verdict. The null
   bitmap is one more factor of that product. *)

(* a column's null bitmap as [live] reads it: the bitmap and -1, or for
   a column without NULLs one zero byte and 0, which confines every read
   to that byte *)
let zero_byte = Bytes.make 1 '\000'

let null_view (c : Batch.column) : Bytes.t * int =
  if c.Batch.has_nulls then (c.Batch.nulls, -1) else (zero_byte, 0)

(* 1 when row i is not NULL, 0 when it is *)
let[@inline] live (nulls : Bytes.t) (mask : int) (i : int) : int =
  1
  - (Char.code (Bytes.unsafe_get nulls ((i lsr 3) land mask))
     lsr (i land 7)
    land 1)

(* A numeric kernel keeps a row whose payload x lies in one of the
   intervals [r.(0), r.(1)], [r.(2), r.(3)], ... ([flip] = 0), or in
   none of them ([flip] = 1); NULL never survives. The first interval,
   the only one of a comparison or BETWEEN, is read as [lo] and [hi]
   outside the loop over the others. An empty interval has lo > hi. *)

let[@inline] int_pass (a : Ivec.t) (r : int64 array) lo hi flip nulls
    mask i =
  let x = Ivec.unsafe_get_at a (8 * i) in
  let hit = ref (Bool.to_int (x >= lo) land Bool.to_int (x <= hi)) in
  let k = ref 2 in
  while !k < Array.length r do
    hit :=
      !hit
      lor (Bool.to_int (x >= Array.unsafe_get r !k)
          land Bool.to_int (x <= Array.unsafe_get r (!k + 1)));
    k := !k + 2
  done;
  (!hit lxor flip) land live nulls mask i

let int_kernel (c : Batch.column) (a : Ivec.t) (r : int64 array)
    (flip : int) : kernel =
  let nulls, mask = null_view c and lo = r.(0) and hi = r.(1) in
  fun sel n ->
    let k = ref 0 in
    for t = 0 to n - 1 do
      let i = Array.unsafe_get sel t in
      Array.unsafe_set sel !k i;
      k := !k + int_pass a r lo hi flip nulls mask i
    done;
    !k

let[@inline] float_pass (a : float array) (r : float array) lo hi flip nulls
    mask i =
  let x = Array.unsafe_get a i in
  let hit = ref (Bool.to_int (x >= lo) land Bool.to_int (x <= hi)) in
  let k = ref 2 in
  while !k < Array.length r do
    hit :=
      !hit
      lor (Bool.to_int (x >= Array.unsafe_get r !k)
          land Bool.to_int (x <= Array.unsafe_get r (!k + 1)));
    k := !k + 2
  done;
  (!hit lxor flip) land live nulls mask i

let float_kernel (c : Batch.column) (a : float array) (r : float array)
    (flip : int) : kernel =
  let nulls, mask = null_view c and lo = r.(0) and hi = r.(1) in
  fun sel n ->
    let k = ref 0 in
    for t = 0 to n - 1 do
      let i = Array.unsafe_get sel t in
      Array.unsafe_set sel !k i;
      k := !k + float_pass a r lo hi flip nulls mask i
    done;
    !k

(* a test on a text column through its codes. [verdict] runs at most
   once per dictionary entry, when a row first meets it, and its answer
   waits in [memo]: 0 not yet tested, 1 fails, 2 passes, so a row's
   verdict is its code's byte shifted right once. The kernel is built
   once a statement, so every chunk shares one [memo]. *)
let text_kernel (c : Batch.column) (codes : int array) (dict : string array)
    (verdict : string -> bool) : kernel =
  let nulls, mask = null_view c in
  let memo = Bytes.make (Array.length dict) '\000' in
  fun sel n ->
    let k = ref 0 in
    for t = 0 to n - 1 do
      let i = Array.unsafe_get sel t in
      let code = Array.unsafe_get codes i in
      let v = Char.code (Bytes.unsafe_get memo code) in
      let v =
        if v <> 0 then v
        else begin
          let v = if verdict (Array.unsafe_get dict code) then 2 else 1 in
          Bytes.unsafe_set memo code (Char.unsafe_chr v);
          v
        end
      in
      Array.unsafe_set sel !k i;
      k := !k + (v lsr 1 land live nulls mask i)
    done;
    !k

(* Literal tests as intervals. Exactness: Value.compare3 compares
   same-type ints with Int64.compare, same-type strings with
   String.compare, and any other numeric-ish pair through to_float and
   Float.compare. A bigint column's interval is found under compare3
   itself, whose verdict against a literal is monotone in the int64
   payload, so int64→float rounding matches bit for bit. A calendar or
   bool column takes only a bound of its own kind, against which
   compare3 is the payload order. A float column's interval uses IEEE
   comparisons, which agree with Float.compare except on NaN: an
   interval never holds a NaN payload, and [flip] keeps it exactly where
   Float.compare's "NaN below every number" does, on the [<] and [<=]
   sides. *)

(* a BETWEEN kernel's bound: a literal, or a CAST of one, folded when
   the kernel is built. A literal the cast rejects builds no kernel: the
   closure then raises when a row reaches the cast, and only then *)
type bound = Lit of A.lit | Cast of A.lit * Catalog.Sqltype.t

let bound_of : A.expr -> bound option = function
  | A.Lit l -> Some (Lit l)
  | A.Cast (A.Lit l, ty) -> Some (Cast (l, ty))
  | _ -> None

let bound_value : bound -> Value.t = function
  | Lit l -> Value.of_lit l
  | Cast (l, ty) -> Value.cast ty (Value.of_lit l)

(* a numeric literal other than NaN, as compare3 converts it *)
let as_float_lit : A.lit -> float option = function
  | A.Int i -> Some (Int64.to_float i)
  | A.Float f when not (Float.is_nan f) -> Some f
  | A.Bool b -> Some (if b then 1.0 else 0.0)
  | _ -> None

(* whether compare3 of column [c]'s payload against [b] never raises
   and a kernel takes the pair: a numeric literal other than NaN
   against bigint or float payloads, text against text, NULL against
   those, and a cast to an int column's own kind (whose value is of
   that kind, or NULL). Anything else (DVal columns, cross-kind pairs
   compare3 rejects or compares as floats, a NaN literal) stays on the
   generic closure, which raises compare3's errors. *)
let fits (c : Batch.column) (b : bound) : bool =
  match (c.Batch.data, b) with
  | (Batch.DInt { kind = Batch.Bigint; _ } | Batch.DFloat _ | Batch.DStr _), Lit A.Null
    ->
      true
  | (Batch.DInt { kind = Batch.Bigint; _ } | Batch.DFloat _), Lit l ->
      as_float_lit l <> None
  | Batch.DStr _, Lit (A.Str _) -> true
  | Batch.DInt { kind; _ }, Cast (_, ty) -> Batch.kind_of_type ty = Some kind
  | _ -> false

(* the least int64 satisfying [p], monotone (false, then true) *)
let least_int64 (p : int64 -> bool) : int64 option =
  if not (p Int64.max_int) then None
  else begin
    let lo = ref Int64.min_int and hi = ref Int64.max_int in
    while !lo < !hi do
      (* the midpoint rounded down, without overflow *)
      let mid =
        Int64.(
          add
            (add (shift_right !lo 1) (shift_right !hi 1))
            (logand (logand !lo !hi) 1L))
      in
      if p mid then hi := mid else lo := Int64.succ mid
    done;
    Some !lo
  end

(* the payloads x of an int column of [kind] with [lo <= x <= hi] under
   compare3, as the pair of array slots an int kernel reads; an absent
   bound is no bound. A bound of the column's kind compares as its
   payload; any other (a bigint column's float or bool literal) is
   searched for. *)
let int_interval (kind : Batch.kind) (lo : Value.t option)
    (hi : Value.t option) : int64 list =
  (* the least x at or above [v], or strictly above it *)
  let above (v : Value.t) ~strict =
    if Batch.kind_of_value v = Some kind then
      let p = Batch.payload_of v in
      if not strict then Some p
      else if p = Int64.max_int then None
      else Some (Int64.succ p)
    else
      least_int64 (fun x ->
          let c = Option.get (Value.compare3 (Batch.value_of kind x) v) in
          if strict then c > 0 else c >= 0)
  in
  let a =
    match lo with None -> Some Int64.min_int | Some l -> above l ~strict:false
  in
  let b =
    match Option.map (above ~strict:true) hi with
    | None | Some None -> Some Int64.max_int
    | Some (Some g) when g = Int64.min_int -> None
    | Some (Some g) -> Some (Int64.pred g)
  in
  match (a, b) with
  | Some a, Some b -> [ a; b ]
  | _ -> [ Int64.max_int; Int64.min_int ]

(* comparison against a literal, specialized per column representation *)
let cmp_kernel (c : Batch.column) (op : A.binop) (l : A.lit) : kernel option =
  match cmp_test op with
  | Some test when fits c (Lit l) ->
      Some
        (match (c.Batch.data, Value.of_lit l) with
         | _, Value.Null -> fun _ _ -> 0
         | Batch.DInt { kind; ints }, v ->
             let v = Some v in
             let (lo, hi), flip =
               match op with
               | A.Ge -> ((v, None), 0)
               | A.Lt -> ((v, None), 1)
               | A.Le -> ((None, v), 0)
               | A.Gt -> ((None, v), 1)
               | A.Neq -> ((v, v), 1)
               | _ -> ((v, v), 0)
             in
             int_kernel c ints (Array.of_list (int_interval kind lo hi)) flip
         | Batch.DFloat a, v ->
             let f = Option.get (Value.to_float v) in
             let above =
               if f = Float.infinity then [| f; Float.neg_infinity |]
               else [| Float.succ f; Float.infinity |]
             in
             let r, flip =
               match op with
               | A.Ge -> ([| f; Float.infinity |], 0)
               | A.Lt -> ([| f; Float.infinity |], 1)
               | A.Gt -> (above, 0)
               | A.Le -> (above, 1)
               | A.Neq -> ([| f; f |], 1)
               | _ -> ([| f; f |], 0)
             in
             float_kernel c a r flip
         | Batch.DStr { codes; dict }, v ->
             let lit = Option.get (Value.to_text v) in
             text_kernel c codes dict (fun s -> test (String.compare s lit))
         | Batch.DVal _, _ -> invalid_arg "vexec: cmp_kernel on a boxed column")
  | _ -> None

(* [x BETWEEN lo AND hi] for bounds: [x >= lo AND x <= hi] as one
   interval. A NULL bound drops every row. *)
let between_kernel (c : Batch.column) (lo : bound) (hi : bound) :
    kernel option =
  if not (fits c lo && fits c hi) then None
  else
    match (bound_value lo, bound_value hi) with
    | exception Errors.Sql_error _ -> None
    | lo, hi ->
      Some
        (match (c.Batch.data, lo, hi) with
         | _, Value.Null, _ | _, _, Value.Null -> fun _ _ -> 0
         | Batch.DInt { kind; ints }, lo, hi ->
             int_kernel c ints
               (Array.of_list (int_interval kind (Some lo) (Some hi)))
               0
         | Batch.DFloat a, lo, hi ->
             let f v = Option.get (Value.to_float v) in
             float_kernel c a [| f lo; f hi |] 0
         | Batch.DStr { codes; dict }, Value.Str lo, Value.Str hi ->
             text_kernel c codes dict (fun s ->
                 String.compare s lo >= 0 && String.compare s hi <= 0)
         | _ -> invalid_arg "vexec: between_kernel on a boxed column")

(* IN over a literal list. In WHERE position both [false] and [NULL]
   (null in the list, no match) drop the row, so survival is exactly
   "some element compares equal". *)
let in_kernel (c : Batch.column) (lits : A.lit list) : kernel option =
  let vals = List.filter (fun l -> l <> A.Null) lits in
  match c.Batch.data with
  | _ when not (List.for_all (fun l -> fits c (Lit l)) lits) -> None
  | _ when vals = [] -> Some (fun _ _ -> 0)
  | Batch.DInt { kind; ints } ->
      let r =
        List.concat_map
          (fun l ->
            let v = Some (Value.of_lit l) in
            int_interval kind v v)
          vals
      in
      Some (int_kernel c ints (Array.of_list r) 0)
  | Batch.DFloat a ->
      let r =
        List.concat_map
          (fun l -> match as_float_lit l with Some f -> [ f; f ] | None -> [])
          vals
      in
      Some (float_kernel c a (Array.of_list r) 0)
  | Batch.DStr { codes; dict } ->
      let vals =
        List.filter_map (function A.Str s -> Some s | _ -> None) vals
      in
      Some
        (text_kernel c codes dict (fun s -> List.exists (String.equal s) vals))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Batch expression evaluation                                         *)
(* ------------------------------------------------------------------ *)

(* Chunk-at-a-time evaluation of an aggregate's argument: instead of
   calling a compiled closure once per surviving index (boxing a
   Value.t at every node of the expression per row), bigint and float
   columns, int and float literals and [+ - *] over them compile to
   kernels that fill a typed output vector for a chunk's selection in
   one monomorphic loop per operator. None of these operations can
   raise (div and mod raise on zero and stay on the closure path), so
   evaluating operands vector-at-a-time instead of row-at-a-time cannot
   reorder an error the closure would have raised. Null bitmaps
   propagate exactly as the null-propagating Value ops do. *)

(* a slot-aligned result vector: slot [t] holds the value for row
   [sel.(t)], for t below the selection's length; [rnulls] is a packed
   bitmap over slots (empty = none) *)
type vvec = VInt of Ivec.t | VFloat of float array

type vres = { rdata : vvec; rnulls : Bytes.t }

(* static result representation, decided at compile time so runtime
   dispatch on operand vectors can never fail. [TInt k] holds payloads
   of kind [k]; only bigints enter these kernels, and an aggregate of a
   plain calendar or bool column folds its payloads as [TInt] too. *)
type vty = TInt of Batch.kind | TFloat

(* [k sel n] evaluates the expression at rows [sel.(0) .. sel.(n - 1)].
   Each kernel writes into buffers of its own, grown to the longest
   selection it has met, so the vectors it returns hold until its next
   call, and a statement's chunks reuse them. *)
type vkernel = Batch.sel -> int -> vres

let vnull_empty = Batch.no_nulls

(* a buffer of at least [n] slots in [r]: grown to [n], or to twice its
   size up to a chunk's [cap] slots, whichever is more. A grown
   buffer's contents are undefined. *)
let grow (length : 'a -> int) (create : int -> 'a) (cap : int) (r : 'a ref)
    (n : int) : 'a =
  if length !r < n then
    r := create (Stdlib.max n (Stdlib.min cap (2 * length !r)));
  !r

let floats_buf = grow Array.length Array.create_float chunk_rows
let ivec_buf = grow Ivec.length Ivec.create chunk_rows
let bytes_buf = grow Bytes.length Bytes.create ((chunk_rows + 7) / 8)

(* a null bitmap over [n] slots, all clear *)
let bits_buf (r : Bytes.t ref) (n : int) : Bytes.t =
  let len = (n + 7) / 8 in
  let b = bytes_buf r len in
  Bytes.fill b 0 len '\000';
  b

(* union of two null bitmaps over [n] slots (3VL null propagation for
   strict ops), into [r] when both hold a NULL *)
let vnull_union (r : Bytes.t ref) n (a : Bytes.t) (b : Bytes.t) : Bytes.t =
  if Bytes.length a = 0 then b
  else if Bytes.length b = 0 then a
  else begin
    let len = (n + 7) / 8 in
    let out = bytes_buf r len in
    for j = 0 to len - 1 do
      Bytes.unsafe_set out j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get a j)
           lor Char.code (Bytes.unsafe_get b j)))
    done;
    out
  end

(* lift a bigint or float column into a sel-aligned vector. A selection
   as long as the column is its identity (selections ascend without
   repeats), and the vector then shares the column's payload and
   bitmap: no kernel writes to an operand. *)
let vload (c : Batch.column) : (vty * vkernel) option =
  let nbuf = ref Bytes.empty in
  let pull_nulls sel n whole =
    if not c.Batch.has_nulls then vnull_empty
    else if whole then c.Batch.nulls
    else begin
      let b = bits_buf nbuf n in
      let any = ref false in
      for t = 0 to n - 1 do
        if Batch.is_null c (Array.unsafe_get sel t) then begin
          Batch.bit_set b t;
          any := true
        end
      done;
      if !any then b else vnull_empty
    end
  in
  match c.Batch.data with
  | Batch.DInt { kind = Batch.Bigint; ints } ->
      let buf = ref Ivec.empty in
      Some
        ( TInt Batch.Bigint,
          fun sel n ->
            let whole = n = Ivec.length ints in
            let v =
              if whole then ints
              else begin
                let v = ivec_buf buf n in
                for t = 0 to n - 1 do
                  Ivec.unsafe_set_at v (8 * t)
                    (Ivec.unsafe_get_at ints (8 * Array.unsafe_get sel t))
                done;
                v
              end
            in
            { rdata = VInt v; rnulls = pull_nulls sel n whole } )
  | Batch.DFloat a ->
      let buf = ref [||] in
      Some
        ( TFloat,
          fun sel n ->
            let whole = n = Array.length a in
            let v =
              if whole then a
              else begin
                let v = floats_buf buf n in
                for t = 0 to n - 1 do
                  Array.unsafe_set v t
                    (Array.unsafe_get a (Array.unsafe_get sel t))
                done;
                v
              end
            in
            { rdata = VFloat v; rnulls = pull_nulls sel n whole } )
  | _ -> None

(* a literal's vector, filled when it grows *)
let vlit (l : A.lit) : (vty * vkernel) option =
  match l with
  | A.Int v ->
      let buf = ref Ivec.empty in
      Some
        ( TInt Batch.Bigint,
          fun _ n ->
            if Ivec.length !buf < n then buf := Ivec.make n v;
            { rdata = VInt !buf; rnulls = vnull_empty } )
  | A.Float v ->
      let buf = ref [||] in
      Some
        ( TFloat,
          fun _ n ->
            if Array.length !buf < n then buf := Array.make n v;
            { rdata = VFloat !buf; rnulls = vnull_empty } )
  | _ -> None

(* a vector's first [n] slots as floats, converted into [r] from ints;
   float vectors are filled by explicit loops, since a float returned
   from a closure (Array.init, Array.map) is boxed on the way *)
let as_float (r : float array ref) (n : int) = function
  | VInt a ->
      let out = floats_buf r n in
      for t = 0 to n - 1 do
        Array.unsafe_set out t (Int64.to_float (Ivec.unsafe_get_at a (8 * t)))
      done;
      out
  | VFloat a -> a

(* [a op b] over the first [n] slots into [out], for [op] one of
   [+ - *] *)
let float_arith (op : A.binop) (a : float array) (b : float array)
    (out : float array) (n : int) : unit =
  match op with
  | A.Add ->
      for t = 0 to n - 1 do
        Array.unsafe_set out t (Array.unsafe_get a t +. Array.unsafe_get b t)
      done
  | A.Sub ->
      for t = 0 to n - 1 do
        Array.unsafe_set out t (Array.unsafe_get a t -. Array.unsafe_get b t)
      done
  | _ ->
      for t = 0 to n - 1 do
        Array.unsafe_set out t (Array.unsafe_get a t *. Array.unsafe_get b t)
      done

(* int64/float arithmetic; Value.add/sub/mul on Int×Int use the Int64
   op, any int/float mix converts through to_float — both mirrored *)
let varith (op : A.binop) (ta, ka) (tb, kb) : (vty * vkernel) option =
  let ints = function
    | VInt v -> v
    | _ -> invalid_arg "vexec: kernel type confusion"
  in
  let nbuf = ref Bytes.empty in
  match (op, ta, tb) with
  | (A.Add | A.Sub | A.Mul), TInt Batch.Bigint, TInt Batch.Bigint ->
      let buf = ref Ivec.empty in
      Some
        ( TInt Batch.Bigint,
          fun sel n ->
            let a = ka sel n and b = kb sel n in
            let av = ints a.rdata and bv = ints b.rdata in
            let out = ivec_buf buf n in
            let module I = Ivec in
            (match op with
            | A.Add ->
                for t = 0 to n - 1 do
                  I.unsafe_set_at out (8 * t)
                    (Int64.add (I.unsafe_get_at av (8 * t)) (I.unsafe_get_at bv (8 * t)))
                done
            | A.Sub ->
                for t = 0 to n - 1 do
                  I.unsafe_set_at out (8 * t)
                    (Int64.sub (I.unsafe_get_at av (8 * t)) (I.unsafe_get_at bv (8 * t)))
                done
            | _ ->
                for t = 0 to n - 1 do
                  I.unsafe_set_at out (8 * t)
                    (Int64.mul (I.unsafe_get_at av (8 * t)) (I.unsafe_get_at bv (8 * t)))
                done);
            { rdata = VInt out; rnulls = vnull_union nbuf n a.rnulls b.rnulls } )
  | (A.Add | A.Sub | A.Mul), (TInt Batch.Bigint | TFloat), (TInt Batch.Bigint | TFloat) ->
      let abuf = ref [||] and bbuf = ref [||] and buf = ref [||] in
      Some
        ( TFloat,
          fun sel n ->
            let a = ka sel n and b = kb sel n in
            let av = as_float abuf n a.rdata and bv = as_float bbuf n b.rdata in
            let out = floats_buf buf n in
            float_arith op av bv out n;
            { rdata = VFloat out; rnulls = vnull_union nbuf n a.rnulls b.rnulls } )
  | _ -> None

let rec compile_vec (bindings : Exec.binding list)
    (col : int -> Batch.column) (e : A.expr) : (vty * vkernel) option =
  let comp e = compile_vec bindings col e in
  match e with
  | A.Col (q, c) -> vload (col (Exec.find_binding bindings q c))
  | A.Lit l -> vlit l
  | A.Bin ((A.Add | A.Sub | A.Mul) as op, a, b) -> (
      match (comp a, comp b) with
      | Some ca, Some cb -> varith op ca cb
      | _ -> None)
  | _ -> None

(* compile one WHERE conjunct (or a join residual) to a kernel: a typed
   no-box kernel when the conjunct tests one column against literals
   (a comparison, BETWEEN, IN) and its representation allows, a
   compiled-closure test otherwise. Stage one compiles the closure, so
   every shape check happens there. *)
let compile_conjunct (sc : scope) (e : A.expr) : data -> kernel =
  let ce = compile_expr sc e in
  fun d ->
    let col q c = d.col (Exec.find_binding sc.bindings q c) in
    (* null-safe equality with a non-NULL literal filters as [=]: both
       drop the NULL rows and agree on the rest (Value.not_distinct) *)
    let cmp_op op l =
      if op = A.IsNotDistinctFrom && l <> A.Null then A.Eq else op
    in
    let special =
      match e with
      | A.Bin (op, A.Col (q, c), A.Lit l) -> cmp_kernel (col q c) (cmp_op op l) l
      | A.Bin (op, A.Lit l, A.Col (q, c)) ->
          cmp_kernel (col q c) (flip_op (cmp_op op l)) l
      | A.Between (A.Col (q, c), lo, hi) -> (
          match (bound_of lo, bound_of hi) with
          | Some lo, Some hi -> between_kernel (col q c) lo hi
          | _ -> None)
      | A.In (A.Col (q, c), es)
        when List.for_all (function A.Lit _ -> true | _ -> false) es ->
          in_kernel (col q c)
            (List.filter_map (function A.Lit l -> Some l | _ -> None) es)
      | _ -> None
    in
    match special with
    | Some k -> k
    | None ->
        (* the closure runs once per row, in row order, and may raise *)
        let ce = ce d in
        fun sel n ->
          let k = ref 0 in
          for t = 0 to n - 1 do
            let i = Array.unsafe_get sel t in
            Array.unsafe_set sel !k i;
            k := !k + Bool.to_int (Value.is_true (ce i))
          done;
          !k

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

(* A running aggregate: after [add]ing values in order, [get] returns
   what {!Exec.apply_agg} returns on that list, [distinct] or not.
   count/sum/avg/min/max stream in constant space with apply_agg's exact
   arithmetic (sum keeps the all-int flag beside an int64 and a
   left-folded float; min/max keep the earlier value on
   Exec.compare_key ties). Every other aggregate, and every DISTINCT
   one, collects its values and calls apply_agg itself, so the long
   tail shares one implementation. Window frames and the boxed
   aggregate folds fold through these. *)
type acc = {
  add : Value.t -> unit;
  get : unit -> Value.t;
  clear : unit -> unit;
}

let to_float0 v = match Value.to_float v with Some f -> f | None -> 0.0

let make_acc ?(distinct = false) (name : string) : acc =
  match (distinct, String.lowercase_ascii name) with
  | false, "count" ->
      let n = ref 0 in
      {
        add = (fun v -> if not (Value.is_null v) then incr n);
        get = (fun () -> Value.Int (Int64.of_int !n));
        clear = (fun () -> n := 0);
      }
  | false, "sum" ->
      let any = ref false and all_int = ref true in
      let isum = ref 0L and fsum = ref 0.0 in
      {
        add =
          (function
          | Value.Null -> ()
          | Value.Int x ->
              any := true;
              isum := Int64.add !isum x;
              fsum := !fsum +. Int64.to_float x
          | v ->
              any := true;
              all_int := false;
              fsum := !fsum +. to_float0 v);
        get =
          (fun () ->
            if not !any then Value.Null
            else if !all_int then Value.Int !isum
            else Value.Float !fsum);
        clear =
          (fun () ->
            any := false;
            all_int := true;
            isum := 0L;
            fsum := 0.0);
      }
  | false, "avg" ->
      let n = ref 0 and fsum = ref 0.0 in
      {
        add =
          (fun v ->
            if not (Value.is_null v) then begin
              incr n;
              fsum := !fsum +. to_float0 v
            end);
        get =
          (fun () ->
            if !n = 0 then Value.Null
            else Value.Float (!fsum /. float_of_int !n));
        clear =
          (fun () ->
            n := 0;
            fsum := 0.0);
      }
  | false, (("min" | "max") as m) ->
      let is_min = m = "min" in
      let wins c = if is_min then c < 0 else c > 0 in
      let best = ref Value.Null in
      {
        add =
          (fun v ->
            if not (Value.is_null v) then
              match !best with
              | Value.Null -> best := v
              | b -> if wins (Exec.compare_key v b) then best := v);
        get = (fun () -> !best);
        clear = (fun () -> best := Value.Null);
      }
  | _ ->
      let vals = ref [] in
      {
        add = (fun v -> vals := v :: !vals);
        get = (fun () -> Exec.apply_agg name distinct (List.rev !vals));
        clear = (fun () -> vals := []);
      }

(* an aggregate's argument over a chunk's selection: slot t reads
   position [at.(t)] of [payload] and of the null bitmap, as [live]
   reads it *)
type payload = PInt of Batch.kind * Ivec.t | PFloat of float array | POther

type arg = { at : int array; nulls : Bytes.t; nmask : int; payload : payload }

let no_arg = { at = [||]; nulls = zero_byte; nmask = 0; payload = POther }

(* An argument vector shared by the aggregates that read it: evaluated
   once a chunk, the chunk [stamp] counts, by [eval] *)
type shared = {
  vty : vty;
  mutable stamp : int;
  mutable cur : arg;
  eval : unit -> arg;
}

(* The groups of an aggregate SELECT, built chunk by chunk by [feed]:
   the chunk's surviving rows are [sel.(0 .. len - 1)], and slot t
   belongs to group [gid.(t land mask)], where [mask] is -1, or 0 for
   the scalar aggregate's one group, whose [gid] is [|0|]; [ident] is
   the identity over a chunk's slots. Groups are
   numbered in first-encounter order across chunks; [first.(g)] is
   group g's first row (-1 for the scalar aggregate over no rows).
   Every aggregate registers a [folder] when its stage two runs: [feed]
   folds a chunk into accumulators that live across chunks, [finish]
   runs once after the last. [vecs] holds the argument vectors of the
   aggregates, by expression. *)
type folder = { feed : unit -> unit; finish : unit -> unit }

type groups = {
  sel : Batch.sel;
  ident : int array;
  mutable len : int;
  gid : int array;
  mask : int;
  mutable ng : int;
  mutable first : int array;
  mutable stamp : int;
  mutable folders : folder list;
  mutable vecs : (A.expr * shared) list;
}

let[@inline] group_at (gr : groups) (t : int) : int =
  Array.unsafe_get gr.gid (t land gr.mask)

let register (gr : groups) ?(finish = ignore) (feed : unit -> unit) : unit =
  gr.folders <- { feed; finish } :: gr.folders

(* [a] with room for [n] entries, the new ones [fill]: grown to [n] or
   twice its length, whichever is more *)
let widen (a : 'a array) (n : int) (fill : 'a) : 'a array =
  if n <= Array.length a then a
  else begin
    let b = Array.make (Stdlib.max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* int64 accumulators, 8 bytes a group, so a running sum never boxes *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A typed fold's per-group state, kept across chunks: the count of
   non-NULL values, an int64 ([i64], 8 bytes a group) and a float
   ([f64]), zero for a group not yet met *)
type accum = {
  mutable cnt : int array;
  mutable i64 : Bytes.t;
  mutable f64 : float array;
}

let accum () = { cnt = [||]; i64 = Bytes.empty; f64 = [||] }

(* room for [ng] groups *)
let reserve (st : accum) (ng : int) : unit =
  let cap = Array.length st.cnt in
  if ng > cap then begin
    let cap' = Stdlib.max ng (2 * cap) in
    st.cnt <- widen st.cnt cap' 0;
    st.f64 <- widen st.f64 cap' 0.0;
    let b = Bytes.make (8 * cap') '\000' in
    Bytes.blit st.i64 0 b 0 (8 * cap);
    st.i64 <- b
  end

(* per group: the count of non-NULL values *)
let fold_count (gr : groups) (x : arg) (cnt : int array) : unit =
  for t = 0 to gr.len - 1 do
    let g = group_at gr t in
    Array.unsafe_set cnt g
      (Array.unsafe_get cnt g + live x.nulls x.nmask (Array.unsafe_get x.at t))
  done

(* per group: the count, int64 sum and float sum of the non-NULL values
   of an int argument *)
let fold_ints (gr : groups) (x : arg) (a : Ivec.t) (st : accum) : unit =
  let cnt = st.cnt and isum = st.i64 and fsum = st.f64 in
  for t = 0 to gr.len - 1 do
    let p = Array.unsafe_get x.at t in
    if live x.nulls x.nmask p = 1 then begin
      let g = group_at gr t and v = Ivec.unsafe_get_at a (8 * p) in
      Array.unsafe_set cnt g (Array.unsafe_get cnt g + 1);
      set64 isum (8 * g) (Int64.add (get64 isum (8 * g)) v);
      Array.unsafe_set fsum g (Array.unsafe_get fsum g +. Int64.to_float v)
    end
  done

(* per group: the count and sum of the non-NULL values of a float
   argument *)
let fold_floats (gr : groups) (x : arg) (a : float array) (st : accum) :
    unit =
  let cnt = st.cnt and fsum = st.f64 in
  for t = 0 to gr.len - 1 do
    let p = Array.unsafe_get x.at t in
    if live x.nulls x.nmask p = 1 then begin
      let g = group_at gr t in
      Array.unsafe_set cnt g (Array.unsafe_get cnt g + 1);
      Array.unsafe_set fsum g (Array.unsafe_get fsum g +. Array.unsafe_get a p)
    end
  done

(* per group: the count and the greatest ([sign] 1) or least ([sign]
   -1) non-NULL value, the earlier one on ties *)
let extreme_ints (gr : groups) (x : arg) (a : Ivec.t) (sign : int)
    (st : accum) : unit =
  let cnt = st.cnt and best = st.i64 in
  for t = 0 to gr.len - 1 do
    let p = Array.unsafe_get x.at t in
    if live x.nulls x.nmask p = 1 then begin
      let g = group_at gr t and v = Ivec.unsafe_get_at a (8 * p) in
      let n = Array.unsafe_get cnt g in
      if n = 0 || Int64.compare v (get64 best (8 * g)) * sign > 0 then
        set64 best (8 * g) v;
      Array.unsafe_set cnt g (n + 1)
    end
  done

let extreme_floats (gr : groups) (x : arg) (a : float array) (sign : int)
    (st : accum) : unit =
  let cnt = st.cnt and best = st.f64 in
  for t = 0 to gr.len - 1 do
    let p = Array.unsafe_get x.at t in
    if live x.nulls x.nmask p = 1 then begin
      let g = group_at gr t and v = Array.unsafe_get a p in
      let n = Array.unsafe_get cnt g in
      if n = 0 || Float.compare v (Array.unsafe_get best g) * sign > 0 then
        Array.unsafe_set best g v;
      Array.unsafe_set cnt g (n + 1)
    end
  done

(* whether [typed_fold] folds aggregate [name] (lowercase) of an
   argument whose payload has type [ty], if any *)
let folds_typed (name : string) (ty : vty option) : bool =
  name = "count"
  ||
  match ty with
  | Some (TInt Batch.Bigint | TFloat) -> List.mem name [ "sum"; "avg"; "min"; "max" ]
  | Some (TInt _) -> name = "min" || name = "max"
  | None -> false

let payload_type : payload -> vty option = function
  | PInt (kind, _) -> Some (TInt kind)
  | PFloat _ -> Some TFloat
  | POther -> None

(* count of any argument, sum/avg of a bigint or float one, and min/max
   of any int or float one: [make_acc]'s folds run per group, boxing
   only a result as it is read. On these representations
   Exec.compare_key is the payload order (Float.compare for floats),
   and sum's all-int flag is fixed by the payload. [x] gives the
   chunk's argument, whose payload has type [ty]. *)
let typed_fold (name : string) (gr : groups) (ty : vty option)
    (x : unit -> arg) : int -> Value.t =
  let st = accum () in
  let null_if f g = if st.cnt.(g) = 0 then Value.Null else f g in
  let sign = if name = "min" then -1 else 1 in
  (* the scalar aggregate's group exists before any chunk *)
  reserve st gr.ng;
  register gr (fun () ->
      reserve st gr.ng;
      let x = x () in
      match (name, x.payload) with
      | ("sum" | "avg"), PInt (_, a) -> fold_ints gr x a st
      | ("sum" | "avg"), PFloat a -> fold_floats gr x a st
      | ("min" | "max"), PInt (_, a) -> extreme_ints gr x a sign st
      | ("min" | "max"), PFloat a -> extreme_floats gr x a sign st
      | _ -> fold_count gr x st.cnt);
  match (name, ty) with
  | "sum", Some (TInt _) ->
      null_if (fun g -> Value.Int (get64 st.i64 (8 * g)))
  | "sum", Some TFloat -> null_if (fun g -> Value.Float st.f64.(g))
  | "avg", Some _ ->
      null_if (fun g -> Value.Float (st.f64.(g) /. float_of_int st.cnt.(g)))
  | ("min" | "max"), Some (TInt kind) ->
      null_if (fun g -> Batch.value_of kind (get64 st.i64 (8 * g)))
  | ("min" | "max"), Some TFloat -> null_if (fun g -> Value.Float st.f64.(g))
  | _ ->
      (* count, [folds_typed] holding *)
      fun g -> Value.Int (Int64.of_int st.cnt.(g))

(* one group's fold of a boxed aggregate: [err] is the first error its
   argument raised, rows in ascending order, or failing that the error
   its fold raised *)
type boxed = { acc : acc; mutable err : exn option; mutable arg_failed : bool }

(* any other aggregate: a [make_acc] per group, fed the argument's
   values in row order. A group's result is the first error its
   argument raised, or failing that the error its fold raised, since
   the row reference evaluates every argument before it folds; reading
   the group raises that error. *)
let boxed_fold (name : string) (distinct : bool) (gr : groups) (ce : cexpr) :
    int -> Value.t =
  let states = ref [||] and res = ref [||] in
  let reserve () =
    let n = Array.length !states in
    if gr.ng > n then
      states :=
        Array.init (Stdlib.max gr.ng (2 * n)) (fun g ->
            if g < n then !states.(g)
            else { acc = make_acc ~distinct name; err = None; arg_failed = false })
  in
  register gr
    ~finish:(fun () ->
      reserve ();
      res :=
        Array.init gr.ng (fun g ->
            let b = !states.(g) in
            match b.err with
            | Some e -> Error e
            | None -> ( try Ok (b.acc.get ()) with e -> Error e)))
    (fun () ->
      reserve ();
      let states = !states in
      for t = 0 to gr.len - 1 do
        let b = states.(group_at gr t) in
        if not b.arg_failed then
          match ce gr.sel.(t) with
          | exception e ->
              b.err <- Some e;
              b.arg_failed <- true
          | v -> (
              if Option.is_none b.err then
                try b.acc.add v with e -> b.err <- Some e)
      done);
  fun g -> match !res.(g) with Ok v -> v | Error e -> raise e

(* one aggregate of [arg] over the groups: typed when the argument is a
   plain column or an expression [compile_vec] takes and the aggregate
   folds that payload, boxed otherwise *)
let fold_agg (name : string) ~(distinct : bool) (sc : scope) (arg : A.expr) :
    data -> groups -> int -> Value.t =
  let ce = compile_expr sc arg in
  let plain =
    match arg with
    | A.Col (q, c) -> Some (Exec.find_binding sc.bindings q c)
    | _ -> None
  in
  (* the argument's vector, evaluated once a chunk *)
  let vector d gr =
    match List.assoc_opt arg gr.vecs with
    | Some v -> Some v
    | None -> (
        match compile_vec sc.bindings d.col arg with
        | Some (ty, vk) when folds_typed name (Some ty) ->
            let eval () =
              let r = vk gr.sel gr.len in
              let nulls, nmask =
                if Bytes.length r.rnulls = 0 then (zero_byte, 0)
                else (r.rnulls, -1)
              in
              let payload =
                match (ty, r.rdata) with
                | TInt kind, VInt a -> PInt (kind, a)
                | _, VFloat a -> PFloat a
                | _ -> POther
              in
              { at = gr.ident; nulls; nmask; payload }
            in
            let v = { vty = ty; stamp = -1; cur = no_arg; eval } in
            gr.vecs <- (arg, v) :: gr.vecs;
            Some v
        | _ -> None)
  in
  fun d gr ->
    let typed =
      match plain with
      | _ when distinct -> None
      | Some j ->
          let c = d.col j in
          let nulls, nmask = null_view c in
          let payload =
            match c.Batch.data with
            | Batch.DInt { kind; ints } -> PInt (kind, ints)
            | Batch.DFloat a -> PFloat a
            | Batch.DStr _ | Batch.DVal _ -> POther
          in
          let x = { at = gr.sel; nulls; nmask; payload } in
          Some (payload_type payload, fun () -> x)
      | None ->
          Option.map
            (fun v ->
              ( Some v.vty,
                fun () ->
                  if v.stamp <> gr.stamp then begin
                    v.cur <- v.eval ();
                    v.stamp <- gr.stamp
                  end;
                  v.cur ))
            (vector d gr)
    in
    match typed with
    | Some (ty, get) when folds_typed name ty -> typed_fold name gr ty get
    | _ -> boxed_fold name distinct gr (ce d)

(* an operand of an operator over aggregates: calendar values flatten
   to their integer encoding *)
let flatten (v : Value.t) : Value.t = Value.of_lit (Exec.lit_of v)

(* An expression in aggregate context, read one group at a time. Stage
   two folds every [Agg] node over all groups at once; operators combine
   their operands' per-group values as they are read, and anything else
   is read from the group's first row. A group's aggregate that raised
   raises when read, so reads surface errors in the order the row
   reference evaluates them. *)
let rec compile_agg_expr (sc : scope) (e : A.expr) :
    data -> groups -> int -> Value.t =
  let comp e = compile_agg_expr sc e in
  match e with
  | A.Agg { agg_name; distinct; args } -> (
      match args with
      | [ A.Star ] | [] ->
          fun _ gr ->
            let st = accum () in
            let rows = { no_arg with at = gr.sel } in
            reserve st gr.ng;
            register gr (fun () ->
                reserve st gr.ng;
                if gr.mask = 0 then st.cnt.(0) <- st.cnt.(0) + gr.len
                else fold_count gr rows st.cnt);
            fun g -> Value.Int (Int64.of_int st.cnt.(g))
      | [ arg ] -> fold_agg (String.lowercase_ascii agg_name) ~distinct sc arg
      | _ ->
          fun _ _ _ -> Errors.feature_not_supported "multi-argument aggregate")
  | A.Bin (op, a, b) ->
      let ca = comp a and cb = comp b and f = Exec.binop op in
      fun d gr ->
        let ca = ca d gr and cb = cb d gr in
        fun g ->
          let va = ca g in
          let vb = cb g in
          f (flatten va) (flatten vb)
  | A.Un (op, a) ->
      let ca = comp a and f = Exec.unop op in
      fun d gr ->
        let ca = ca d gr in
        fun g -> f (flatten (ca g))
  | A.Cast (a, ty) ->
      let ca = comp a in
      fun d gr ->
        let ca = ca d gr in
        fun g -> Value.cast ty (ca g)
  | A.Fun (f, args) when Exec.expr_has_agg e ->
      let cargs = List.map comp args in
      let f = Exec.scalar_fun f (List.length args) in
      fun d gr ->
        let cargs = List.map (fun ca -> ca d gr) cargs in
        fun g -> f (List.map (fun ca -> ca g) cargs)
  | A.IsNull a when Exec.expr_has_agg e ->
      let ca = comp a in
      fun d gr ->
        let ca = ca d gr in
        fun g -> Value.Bool (Value.is_null (ca g))
  | A.Case (branches, else_) when Exec.expr_has_agg e ->
      let cbs = List.map (fun (c, r) -> (comp c, comp r)) branches in
      let celse = Option.map comp else_ in
      fun d gr ->
        let cbs = List.map (fun (c, r) -> (c d gr, r d gr)) cbs in
        let celse = Option.map (fun ce -> ce d gr) celse in
        fun g ->
          let rec go = function
            | [] -> ( match celse with Some ce -> ce g | None -> Value.Null)
            | (cc, cr) :: rest ->
                if Value.is_true (cc g) then cr g else go rest
          in
          go cbs
  | A.Between (a, lo, hi) when Exec.expr_has_agg e ->
      let ca = comp a and clo = comp lo and chi = comp hi in
      fun d gr ->
        let ca = ca d gr and clo = clo d gr and chi = chi d gr in
        fun g ->
          let v = ca g in
          let vlo = clo g in
          let vhi = chi g in
          Value.and3
            (Exec.cmp_bool v vlo (fun c -> c >= 0))
            (Exec.cmp_bool v vhi (fun c -> c <= 0))
  | (A.In _ | A.Like _) when Exec.expr_has_agg e ->
      fun _ _ _ -> Errors.feature_not_supported "aggregate nested in IN/LIKE"
  | e ->
      (* a plain expression takes the group's first row; an empty group
         still evaluates a row-independent one (a literal, constant
         arithmetic), and anything else, errors included, is NULL *)
      let ce = compile_expr sc e in
      fun d gr ->
        let ce' = ce d in
        fun g ->
          let i = gr.first.(g) in
          if i < 0 then try ce no_data 0 with _ -> Value.Null else ce' i

(* ------------------------------------------------------------------ *)
(* Grouping and partitioning keys                                      *)
(* ------------------------------------------------------------------ *)

module StrTbl = Batch.StrTbl

(* An open-addressing set of int payloads, probed linearly. A payload
   is read in place from its column and compared and hashed unboxed, so
   adding one allocates nothing (a Hashtbl keyed by int64 boxes every
   key it is asked about). *)
module PayloadSet = struct
  module I = Ivec

  (* slot [s] holds payload [keys]'s slot [s] when [used.(s)] *)
  type t = { mutable keys : I.t; mutable used : bool array; mutable count : int }

  let create (n : int) : t =
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    { keys = I.create !cap; used = Array.make !cap false; count = 0 }

  (* the slot of the payload at byte offset [off] of [src]: where it is
     held, or the empty slot it goes in. A multiplicative hash's high
     half picks the first slot. *)
  let slot (keys : I.t) (used : bool array) (src : I.t) (off : int) : int =
    let x = I.get_at src off in
    let mask = Array.length used - 1 in
    let s =
      ref
        (Int64.to_int
           (Int64.shift_right_logical (Int64.mul x 0x9E3779B97F4A7C15L) 32)
        land mask)
    in
    while Array.unsafe_get used !s && I.unsafe_get_at keys (8 * !s) <> x do
      s := (!s + 1) land mask
    done;
    !s

  let grow (t : t) : unit =
    let cap = 2 * Array.length t.used in
    let keys = I.create cap and used = Array.make cap false in
    Array.iteri
      (fun s u ->
        if u then begin
          let s' = slot keys used t.keys (8 * s) in
          I.unsafe_set_at keys (8 * s') (I.unsafe_get_at t.keys (8 * s));
          Array.unsafe_set used s' true
        end)
      t.used;
    t.keys <- keys;
    t.used <- used

  (* add [src]'s slot [i], whether it was absent; kept at most half
     full *)
  let add (t : t) (src : I.t) (i : int) : bool =
    let s = slot t.keys t.used src (8 * i) in
    (not (Array.unsafe_get t.used s))
    && begin
         I.unsafe_set_at t.keys (8 * s) (I.get_at src (8 * i));
         Array.unsafe_set t.used s true;
         t.count <- t.count + 1;
         if 2 * t.count > Array.length t.used then grow t;
         true
       end
end

(* [id] of each row of [sel.(0 .. n - 1)] into [out]: a loop over int
   arrays, which Array.map's polymorphic reads and writes would slow per
   row *)
let[@inline] ids_of (id : int -> int) (sel : Batch.sel) (n : int)
    (out : int array) : unit =
  for t = 0 to n - 1 do
    Array.unsafe_set out t (id (Array.unsafe_get sel t))
  done

(* the ids of every row of [sel], written by [ids] *)
let all_ids (ids : Batch.sel -> int -> int array -> unit) (sel : Batch.sel) :
    int array =
  let out = Array.make (Array.length sel) 0 in
  ids sel (Array.length sel) out;
  out

(* The one key equivalence of every hash operator: GROUP BY, a window's
   PARTITION BY and the hash join. Each side [(keys, col)] reads a
   row's key through [keys], or through [col] when the key is one plain
   column. The result gives each side the class id of one row and the
   class ids of a selection's first n rows, written into an array of at
   least n slots, and counts the ids handed out. It is built once a
   statement, so a pipeline's chunks share its classes: ids
   come in the order the functions first meet a class, one id space
   across the sides, and rows of any side share an id exactly when
   Exec.gkey_of maps their keys alike. When every side's key is one
   plain text column, the dictionary codes decide: each code maps to
   its id through an array indexed by code, resolving a code's string
   once when sides' dictionaries differ (within one, distinct codes are
   distinct strings), and NULLs share one id. Any other key hashes the
   list of its gkeys. *)
let key_classes (sides : (cexpr list * Batch.column option) array) :
    ((int -> int) * (Batch.sel -> int -> int array -> unit)) array
    * (unit -> int) =
  let next = ref 0 in
  let fresh () =
    let g = !next in
    incr next;
    g
  in
  let null_id = ref (-1) in
  let null () =
    if !null_id < 0 then null_id := fresh ();
    !null_id
  in
  (* k's id in [tbl], a fresh one for a new k *)
  let intern find add tbl k =
    match find tbl k with
    | Some g -> g
    | None ->
        let g = fresh () in
        add tbl k g;
        g
  in
  (* every side's plain text column and its codes, when each side has
     one *)
  let strs =
    let strs =
      Array.map
        (function
          | _, Some ({ Batch.data = Batch.DStr { codes; dict }; _ } as c) ->
              Some (c, (codes, dict))
          | _ -> None)
        sides
    in
    if Array.for_all Option.is_some strs then Some (Array.map Option.get strs)
    else None
  in
  let ids =
    match strs with
    | Some strs ->
        (* the sides' strings, when their dictionaries may differ *)
        let tbl =
          if Array.length strs > 1 then Some (StrTbl.create 64) else None
        in
        Array.map
          (fun (c, (codes, dict)) ->
            (* a NULL row reads code [nd], one past the dictionary *)
            let nd = Array.length dict in
            let of_code = Array.make (nd + 1) (-1) in
            let nulls, mask = null_view c in
            (* the id of a code met for the first time *)
            let first code =
              let g =
                if code = nd then null ()
                else
                  match tbl with
                  | Some tbl ->
                      intern StrTbl.find_opt StrTbl.add tbl dict.(code)
                  | None -> fresh ()
              in
              Array.unsafe_set of_code code g;
              g
            in
            let[@inline] id i =
              let code = Array.unsafe_get codes i in
              let code = code + ((nd - code) * (1 - live nulls mask i)) in
              let g = Array.unsafe_get of_code code in
              if g >= 0 then g else first code
            in
            (* applied whole, so [id] inlines into the loop *)
            (id, fun sel n out -> ids_of id sel n out))
          strs
    | None ->
        let tbl : (Exec.gkey list, int) Hashtbl.t = Hashtbl.create 64 in
        Array.map
          (fun (keys, _) ->
            let id i =
              intern Hashtbl.find_opt Hashtbl.add tbl
                (List.map (fun ce -> Exec.gkey_of (ce i)) keys)
            in
            (id, fun sel n out -> ids_of id sel n out))
          sides
  in
  (ids, fun () -> !next)

(* the group id of each row of [sel] by [key_classes] of its keys, ids
   in first-encounter order, and the number of groups *)
let group_ids (keys : cexpr list) (col : Batch.column option)
    (sel : Batch.sel) : int array * int =
  let ids, count = key_classes [| (keys, col) |] in
  let gid = all_ids (snd ids.(0)) sel in
  (gid, count ())

(* the rows of [sel] split by their group ids [(gids, ng)], groups in id
   order, rows ascending within each *)
let split_groups (sel : Batch.sel) ((gids, ng) : int array * int) :
    int array array =
  let sizes = Array.make ng 0 in
  Array.iter (fun g -> sizes.(g) <- sizes.(g) + 1) gids;
  let groups = Array.map (fun k -> Array.make k 0) sizes in
  let fill = Array.make ng 0 in
  Array.iteri
    (fun t g ->
      groups.(g).(fill.(g)) <- sel.(t);
      fill.(g) <- fill.(g) + 1)
    gids;
  groups

(* a window's partitions of [sel] by PARTITION BY keys [cpart]: with
   none, one partition of every row (none without rows) *)
let partitions (cpart : cexpr list) (col : Batch.column option)
    (sel : Batch.sel) : int array list =
  match cpart with
  | [] -> if Array.length sel = 0 then [] else [ sel ]
  | _ -> Array.to_list (split_groups sel (group_ids cpart col sel))

(* ------------------------------------------------------------------ *)
(* Ordering                                                            *)
(* ------------------------------------------------------------------ *)

(* One sort kernel serves the final ORDER BY, the window partitions
   and the as-of join's buckets, in pgdb's one key order,
   Exec.compare_key's. It compares ids: a position in a result
   or in a partition, or a source row. A key reads
   its value at an id from a column, [Rows (c, Some map)] at
   [map.(id)] or [Rows (c, None)] at [id], or from a value array,
   [Vals v] at [v.(id)]. *)
type sort_src =
  | Rows of Batch.column * int array option
  | Vals of Value.t array

type sort_key = {
  src : sort_src;
  dir : A.direction;
  nulls_first : bool;
  folded : bool;
      (** the key stands for the serializer's pair [(c IS NULL) d1, c d2],
          and [nulls_first] is [d1 = DESC] *)
}

(* a key [c dir] with PostgreSQL's NULL placement: last for ASC, first
   for DESC, as Exec.compare_key's NULLs-last order negated *)
let plain_key (dir : A.direction) (src : sort_src) : sort_key =
  { src; dir; nulls_first = dir = A.Desc; folded = false }

(* The ORDER BY items as sort keys still to be given their values: an
   item [(c IS NULL) d1] followed by [c d2] folds into one key on [c] in
   direction [d2], NULLs first when [d1] is DESC (a NULL's [true] sorts
   after [false]). The second item never sees a NULL against a value,
   and two NULLs tie under both, so the folded key orders as the pair
   does. *)
let fold_order (items : (A.expr * A.direction) list) :
    (A.expr * (sort_src -> sort_key)) list =
  let rec go = function
    | (A.IsNull c, d1) :: (c', dir) :: rest when compare c c' = 0 ->
        (c, fun src -> { src; dir; nulls_first = d1 = A.Desc; folded = true })
        :: go rest
    | (e, dir) :: rest -> (e, plain_key dir) :: go rest
    | [] -> []
  in
  go items

(* a sort key as planned: [Ready] reads values that exist, [Eval (f,
   mk)] the value of an expression at each id *)
type key_plan =
  | Ready of sort_key
  | Eval of (int -> Value.t) * (sort_src -> sort_key)

(* The keys over ids [0, m). Expression keys are evaluated every one at
   an id before the next id, the order in which the row reference
   evaluates them, so an error raised is the reference's first. *)
let sort_keys (plans : key_plan list) (m : int) : sort_key list =
  let vals =
    List.map
      (function Ready _ -> [||] | Eval _ -> Array.make m Value.Null)
      plans
  in
  if List.exists (function Eval _ -> true | Ready _ -> false) plans then
    for id = 0 to m - 1 do
      List.iter2
        (fun p v -> match p with Eval (f, _) -> v.(id) <- f id | Ready _ -> ())
        plans vals
    done;
  List.map2
    (fun p v -> match p with Ready k -> k | Eval (_, mk) -> mk (Vals v))
    plans vals

let key_value (k : sort_key) (id : int) : Value.t =
  match k.src with
  | Rows (c, None) -> Batch.value_at c id
  | Rows (c, Some map) -> Batch.value_at c map.(id)
  | Vals v -> v.(id)

(* whether [k] holds a NULL at [ids]. A key of text against a non-text
   value raises 42804 here, before any row is ordered, so the error does
   not depend on which pair a sort compares first, or on a LIMIT. *)
let key_nulls (k : sort_key) (ids : int array) : bool =
  let nulls = ref false and text = ref false and other = ref false in
  Array.iter
    (fun id ->
      match key_value k id with
      | Value.Null -> nulls := true
      | Value.Str _ -> text := true
      | _ -> other := true)
    ids;
  if !text && !other then Exec.text_against_number ();
  !nulls

(* Each dictionary entry's rank under String.compare, so a text key
   compares two ints. A stored table's dictionary is shared by every
   scan and gather of its column, so the ranks are kept for the last
   few dictionaries sorted on. The cache belongs to the calling domain:
   shards sort on their own domains, and nothing here is shared between
   them. *)
let rank_cache : (string array * int array) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let dict_ranks (dict : string array) : int array =
  let cache = Domain.DLS.get rank_cache in
  match List.find_opt (fun (d, _) -> d == dict) !cache with
  | Some (_, ranks) -> ranks
  | None ->
      let by_text = Array.init (Array.length dict) Fun.id in
      Array.sort (fun a b -> String.compare dict.(a) dict.(b)) by_text;
      let ranks = Array.make (Array.length dict) 0 in
      Array.iteri (fun r code -> ranks.(code) <- r) by_text;
      cache := (dict, ranks) :: List.filteri (fun i _ -> i < 7) !cache;
      ranks

(* The comparator of ids for one key, in Exec.compare_key's order: an
   int, calendar, bool, float or text column compares its payload (text
   by dictionary rank; within one kind, payload order is value order),
   a mixed column or a value array its values, and NULLs take the key's
   place, so no Value.t is built. *)
let typed_key (k : sort_key) (ids : int array) : int -> int -> int =
  let via map (f : int -> int -> int) =
    match map with
    | None -> f
    | Some m -> fun i j -> f (Array.unsafe_get m i) (Array.unsafe_get m j)
  in
  let payload, is_null =
    match k.src with
    | Rows (c, map) ->
        let payload =
          match c.Batch.data with
          | Batch.DInt { ints; _ } ->
              fun i j ->
                Int64.compare
                  (Ivec.get_at ints (8 * i))
                  (Ivec.get_at ints (8 * j))
          | Batch.DFloat a -> fun i j -> Float.compare a.(i) a.(j)
          | Batch.DStr { codes; dict } ->
              let rank = dict_ranks dict in
              fun i j -> Int.compare rank.(codes.(i)) rank.(codes.(j))
          | Batch.DVal a ->
              ignore (key_nulls k ids);
              fun i j -> Exec.compare_key a.(i) a.(j)
        in
        ( via map payload,
          if not c.Batch.has_nulls then None
          else
            match map with
            | None -> Some (Batch.is_null c)
            | Some m -> Some (fun i -> Batch.is_null c m.(i)) )
    | Vals v ->
        ( (fun i j -> Exec.compare_key v.(i) v.(j)),
          if key_nulls k ids then Some (fun i -> Value.is_null v.(i))
          else None )
  in
  let p =
    match k.dir with A.Asc -> payload | A.Desc -> fun i j -> payload j i
  in
  match is_null with
  | None -> p
  | Some is_null ->
      let first = if k.nulls_first then -1 else 1 in
      fun i j ->
        match (is_null i, is_null j) with
        | false, false -> p i j
        | true, true -> 0
        | true, false -> first
        | false, true -> -first

(* the comparator of ids by [keys], the first key deciding *)
let sort_order (keys : sort_key list) (ids : int array) : int -> int -> int =
  match List.rev_map (fun k -> typed_key k ids) keys with
  | [] -> fun _ _ -> 0
  | last :: earlier ->
      List.fold_left
        (fun rest c ->
          let then_rest i j =
            let x = c i j in
            if x <> 0 then x else rest i j
          in
          then_rest)
        last earlier

(* merge the sorted runs [src.(lo..mid)] and [src.(mid..hi)] into
   [dst.(lo..hi)], the left run first among equals *)
let merge_runs cmp (src : int array) (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let x = Array.unsafe_get src !i and y = Array.unsafe_get src !j in
    if cmp x y <= 0 then begin
      Array.unsafe_set dst !k x;
      incr i
    end
    else begin
      Array.unsafe_set dst !k y;
      incr j
    end;
    incr k
  done;
  if !i < mid then Array.blit src !i dst !k (mid - !i)
  else Array.blit src !j dst !k (hi - !j)

(* [a] sorted stably by [cmp], in place: a natural merge sort. One pass
   cuts [a] into maximal runs that never descend, reversing each run
   that strictly descends (its entries are distinct, so reversing keeps
   equal keys in order); adjacent runs then merge pairwise until one is
   left. Input in order costs n - 1 comparisons and no second array,
   and k sorted runs laid end to end, as a gather's concatenated shard
   results are, cost O(n log k). *)
let sort_ids (cmp : int -> int -> int) (a : int array) : unit =
  let n = Array.length a in
  (* run r is [bounds.(r), bounds.(r + 1)) *)
  let bounds = ref (Array.make 8 0) and nb = ref 0 in
  let push x =
    if !nb = Array.length !bounds then begin
      let b = Array.make (2 * !nb) 0 in
      Array.blit !bounds 0 b 0 !nb;
      bounds := b
    end;
    !bounds.(!nb) <- x;
    incr nb
  in
  let s = ref 0 in
  while !s < n do
    push !s;
    let j = ref (!s + 1) in
    if !j < n && cmp a.(!s) a.(!j) > 0 then begin
      incr j;
      while !j < n && cmp a.(!j - 1) a.(!j) > 0 do
        incr j
      done;
      let lo = ref !s and hi = ref (!j - 1) in
      while !lo < !hi do
        let t = a.(!lo) in
        a.(!lo) <- a.(!hi);
        a.(!hi) <- t;
        incr lo;
        decr hi
      done
    end
    else begin
      (* a.(s) <= a.(s + 1) is known *)
      if !j < n then incr j;
      while !j < n && cmp a.(!j - 1) a.(!j) <= 0 do
        incr j
      done
    end;
    s := !j
  done;
  push n;
  let runs = ref (!nb - 1) in
  if !runs > 1 then begin
    let b = !bounds in
    let src = ref a and dst = ref (Array.make n 0) in
    while !runs > 1 do
      (* merged run r / 2 overwrites bounds slot r / 2, already read *)
      let out = ref 0 and r = ref 0 in
      while !r < !runs do
        let lo = b.(!r) in
        if !r + 1 < !runs then begin
          merge_runs cmp !src !dst lo b.(!r + 1) b.(!r + 2);
          r := !r + 2
        end
        else begin
          Array.blit !src lo !dst lo (b.(!r + 1) - lo);
          incr r
        end;
        b.(!out) <- lo;
        incr out
      done;
      b.(!out) <- n;
      runs := !out;
      let t = !src in
      src := !dst;
      dst := t
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* the first [k] positions of the stable sort of [0, n) by [cmp], in
   order, without sorting the rest: a buffer kept sorted by insertion.
   A position enters only if it sorts strictly before the buffer's last
   entry, and lands after its equals, which is where a stable sort puts
   a later position. *)
let top_positions (cmp : int -> int -> int) (n : int) (k : int) : int array =
  if k = 0 then [||]
  else begin
    let buf = Array.make k 0 in
    let len = ref 0 in
    for p = 0 to n - 1 do
      if !len < k || cmp p buf.(k - 1) < 0 then begin
        let j = ref (if !len < k then !len else k - 1) in
        while !j > 0 && cmp p buf.(!j - 1) < 0 do
          buf.(!j) <- buf.(!j - 1);
          decr j
        done;
        buf.(!j) <- p;
        if !len < k then incr len
      end
    done;
    Array.sub buf 0 !len
  end

(* The positions [0, n) in the order of [keys], at least the first
   [prefix] of them: a [prefix] under an eighth of [n] is selected by
   [top_positions], any other sorted by [sort_ids]. *)
let order_positions (keys : sort_key list) (n : int) (prefix : int) :
    int array =
  let perm = Array.init n Fun.id in
  let cmp = sort_order keys perm in
  if 8 * prefix < n then top_positions cmp n prefix
  else begin
    sort_ids cmp perm;
    perm
  end

(* ------------------------------------------------------------------ *)
(* Window operator                                                     *)
(* ------------------------------------------------------------------ *)

(* A window function is computed over the rows that survived WHERE.
   Partitions are group_ids' classes of the PARTITION BY values, the
   classes GROUP BY makes, in first-encounter order. Each partition is
   sorted stably by the ORDER BY keys with the sort kernel, ties kept
   in row order. The function then fills a source-row-indexed result
   array that compile_expr's Window arm reads. *)

(* evaluate a window function over one sorted partition: [sorted] holds
   its source rows in window order; results go to [out] at each row's
   source index *)
type wfill = int array -> Value.t array -> unit

(* Stage one of a window: the function, its arguments, partition and
   order expressions. The functions are row_number(), lag(x), lead(x)
   and every aggregate of Exec.aggregates, count also over no argument
   or [*]; any other is 42883 here, before a source runs. Stage two maps
   the surviving rows to the result array over all [nrows] source
   rows. *)
let plan_window (sc : scope) (w : A.expr) :
    string * (data -> Batch.sel -> int -> Value.t array) =
  match w with
  | A.Window { win_fn; win_args; partition; order; frame } ->
      (* window arguments see no window results *)
      let sc = { sc with windows = [] } in
      let fn = String.lowercase_ascii win_fn in
      let cpart = List.map (compile_expr sc) partition in
      let plain_part =
        match partition with
        | [ A.Col (q, c) ] -> Some (Exec.find_binding sc.bindings q c)
        | _ -> None
      in
      let cord =
        List.map
          (fun (e, mk) ->
            match e with
            | A.Col (q, c) -> `Col (Exec.find_binding sc.bindings q c, mk)
            | e -> `Expr (compile_expr sc e, mk))
          (fold_order order)
      in
      (* an aggregate's frame at position [pos] of a partition of [m]
         rows: from [k] rows back (clamped to the partition) or its
         first row, to the current row. Without a frame PG's default:
         the whole partition, or with an ORDER BY its rows up to the
         current one. *)
      let start pos =
        match frame with
        | Some (A.Preceding k) -> Stdlib.max 0 (pos - k)
        | _ -> 0
      and stop m pos = if frame = None && order = [] then m - 1 else pos in
      let fill : data -> wfill =
        match (fn, win_args) with
        | "row_number", [] ->
            fun _ sorted out ->
              Array.iteri
                (fun pos i -> out.(i) <- Value.Int (Int64.of_int (pos + 1)))
                sorted
        | ("lag" | "lead"), [ a ] ->
            let ca = compile_expr sc a in
            let step = if fn = "lag" then -1 else 1 in
            fun d ->
              let ca = ca d in
              fun sorted out ->
                let m = Array.length sorted in
                Array.iteri
                  (fun pos i ->
                    let src = pos + step in
                    out.(i) <-
                      (if src >= 0 && src < m then ca sorted.(src)
                       else Value.Null))
                  sorted
        | "count", ([] | [ A.Star ]) ->
            fun _ sorted out ->
              let m = Array.length sorted in
              Array.iteri
                (fun pos i ->
                  out.(i) <-
                    Value.Int (Int64.of_int (stop m pos - start pos + 1)))
                sorted
        | f, [ a ] when List.mem f Exec.aggregates ->
            let value = compile_expr sc a in
            fun d ->
              let value = value d in
              let acc = make_acc fn in
              fun sorted out ->
                (* [acc] holds the frame [lo0, hi0] and [v] its value: a
                   frame that keeps its start is extended, one that moves
                   it refolds, and one that is unchanged keeps [v], so
                   running and whole-partition frames cost one pass and
                   a k-row sliding frame k per row *)
                let m = Array.length sorted in
                let lo0 = ref (-1) and hi0 = ref (-1) and v = ref Value.Null in
                for pos = 0 to m - 1 do
                  let lo = start pos and hi = stop m pos in
                  if lo <> !lo0 then begin
                    acc.clear ();
                    lo0 := lo;
                    hi0 := lo - 1
                  end;
                  if hi > !hi0 then begin
                    for k = !hi0 + 1 to hi do
                      acc.add (value sorted.(k))
                    done;
                    hi0 := hi;
                    v := acc.get ()
                  end;
                  out.(sorted.(pos)) <- !v
                done
        | f, args -> Exec.no_function f (List.length args)
      in
      ( fn,
        fun d ->
          let cpart = List.map (fun c -> c d) cpart in
          let part_col = Option.map d.col plain_part in
          let cord =
            List.map
              (function
                | `Col (j, mk) -> `Col (d.col j, mk)
                | `Expr (ce, mk) -> `Expr (ce d, mk))
              cord
          in
          let fill = fill d in
          fun sel nrows ->
            let out = Array.make nrows Value.Null in
            List.iter
              (fun rows ->
                let sorted =
                  if cord = [] then rows
                  else begin
                    let m = Array.length rows in
                    let perm = Array.init m Fun.id in
                    let keys =
                      sort_keys
                        (List.map
                           (function
                             | `Col (c, mk) -> Ready (mk (Rows (c, Some rows)))
                             | `Expr (ce, mk) ->
                                 Eval ((fun p -> ce rows.(p)), mk))
                           cord)
                        m
                    in
                    sort_ids (sort_order keys perm) perm;
                    Array.map (Array.get rows) perm
                  end
                in
                fill sorted out)
              (partitions cpart part_col sel);
            out )
  | _ -> invalid_arg "vexec: plan_window on a non-window expression"

(* whether one integer PARTITION BY column makes every partition of
   [sel] a single row: its values, NULL counted as one, are distinct *)
let singleton_partitions (c : Batch.column) (sel : Batch.sel) : bool =
  match c.Batch.data with
  | Batch.DInt { ints; _ } ->
      let seen = PayloadSet.create (Array.length sel) in
      let null_seen = ref false in
      Array.for_all
        (fun i ->
          if Batch.is_null c i then begin
            let fresh = not !null_seen in
            null_seen := true;
            fresh
          end
          else PayloadSet.add seen ints i)
        sel
  | _ -> false

(* The rank-limit cut: a row_number() window whose query keeps only the
   rows it numbers [k] or less. Stage two returns the result array and
   the rows of [sel] it keeps, ascending; a dropped row's result is
   NULL. The whole window runs through [plan_window] and is cut
   afterwards, so results and errors stay those of the full window, but
   for one shape: for k = 1, when every ORDER BY key is a plain column
   (or the serializer's NULL pre-key of one), a single integer PARTITION
   BY column that is distinct over [sel] (a row identity, as the as-of
   lowering partitions by) numbers every row 1 and keeps them all: a
   one-row partition needs no comparison. *)
let plan_window_top (sc : scope) (w : A.expr) (k : int) :
    string * (data -> Batch.sel -> int -> Value.t array * Batch.sel) =
  match w with
  | A.Window { partition; order; _ } ->
      let _, full = plan_window sc w in
      let plain_part =
        match partition with
        | [ A.Col (q, c) ] -> Some (Exec.find_binding sc.bindings q c)
        | _ -> None
      in
      let plain_order =
        k = 1
        && List.for_all
             (function A.Col _, _ -> true | _ -> false)
             (fold_order order)
      in
      let limit = Int64.of_int k in
      ( Printf.sprintf "row_number top %d" k,
        fun d ->
          let full = full d in
          let part_col = Option.map d.col plain_part in
          fun sel nrows ->
            match part_col with
            | Some c when plain_order && singleton_partitions c sel ->
                let out = Array.make nrows Value.Null in
                Array.iter (fun i -> out.(i) <- Value.Int 1L) sel;
                (out, sel)
            | _ ->
                let out = full sel nrows in
                ( out,
                  select_rows sel (fun i ->
                      match out.(i) with
                      | Value.Int r -> Int64.compare r limit <= 0
                      | _ -> false) ) )
  | _ -> invalid_arg "vexec: plan_window_top on a non-window expression"

(* ------------------------------------------------------------------ *)
(* Sources and hash joins                                              *)
(* ------------------------------------------------------------------ *)

(* A pipeline source: a row count, its identity selection [all] (a
   base table shares its batch's; nothing writes to it), which an
   unfiltered projection and a join's build side read whole, columns
   materialized on first use, and [values j idx], column j's values
   through row indices (-1 is NULL). A base table hands out its stored
   columns; a join or a derived
   table gathers a column only when something downstream reads it, so a
   join against a 513-column table moves the handful of columns the
   query names (late materialization). [values] composes the index
   vectors down to the base table and boxes each output cell once from
   its typed column; [gather j idx] composes them the same way and
   gathers the typed column there, so a result column moves only the
   rows it keeps. *)
type source = {
  nrows : int;
  all : Batch.sel;
  column : int -> Batch.column;
  values : int -> int array -> Value.t array;
  gather : int -> int array -> Batch.column;
}

(* [idx] mapped through [a]; -1 stays -1 *)
let compose (a : int array) (idx : int array) : int array =
  Array.map (fun k -> if k < 0 then -1 else Array.unsafe_get a k) idx

(* [make j] computed once per j in [0, width) *)
let memo (width : int) (make : int -> 'a) : int -> 'a =
  let cache = Array.make width None in
  fun j ->
    match cache.(j) with
    | Some c -> c
    | None ->
        let c = make j in
        cache.(j) <- Some c;
        c

(* join output accumulator: parallel growable index vectors, probe-side
   and build-side. A build slot of -1 marks a left-outer null pad. *)
type pair_acc = {
  mutable pa_l : int array;
  mutable pa_r : int array;
  mutable pa_n : int;
}

let pair_acc (cap : int) =
  let cap = Stdlib.max 16 cap in
  { pa_l = Array.make cap 0; pa_r = Array.make cap 0; pa_n = 0 }

let pair_emit (p : pair_acc) (i : int) (j : int) =
  if p.pa_n = Array.length p.pa_l then begin
    let cap = 2 * p.pa_n in
    let l = Array.make cap 0 and r = Array.make cap 0 in
    Array.blit p.pa_l 0 l 0 p.pa_n;
    Array.blit p.pa_r 0 r 0 p.pa_n;
    p.pa_l <- l;
    p.pa_r <- r
  end;
  p.pa_l.(p.pa_n) <- i;
  p.pa_r.(p.pa_n) <- j;
  p.pa_n <- p.pa_n + 1

let pair_result (p : pair_acc) : int array * int array =
  (Array.sub p.pa_l 0 p.pa_n, Array.sub p.pa_r 0 p.pa_n)

(* The build side of a hash equi-join on key columns [(left, right,
   null_safe)]: the right rows [rall] grouped by their keys, and the
   function that maps a probe (left) row to its bucket of matching
   right rows. [finish] turns each bucket, right-row indices ascending,
   into the array the probe returns, once per bucket. Keys match under
   key_classes' equivalence, as GROUP BY groups. The right rows are
   classed first, so a left row in a class that holds right rows gets
   an id below their count, which indexes its bucket. A plain
   (non-null-safe) key never matches NULL: right rows with a NULL in
   one are left out, so a left NULL there meets no right row's class. A
   null-safe key treats NULL as a value. *)
let hash_buckets ~(rall : Batch.sel)
    (keys : (Batch.column * Batch.column * bool) list)
    ~(finish : int array -> int array) : int -> int array =
  let side cols =
    (List.map Batch.value_at cols, match cols with [ c ] -> Some c | _ -> None)
  in
  let rsel =
    select_rows rall (fun j ->
        List.for_all (fun (_, rc, ns) -> ns || not (Batch.is_null rc j)) keys)
  in
  let ids, count =
    key_classes
      [|
        side (List.map (fun (_, rc, _) -> rc) keys);
        side (List.map (fun (lc, _, _) -> lc) keys);
      |]
  in
  let rid = all_ids (snd ids.(0)) rsel in
  let nr = count () in
  let buckets = Array.map finish (split_groups rsel (rid, nr)) in
  let lid = fst ids.(1) in
  fun i ->
    let g = lid i in
    if g < nr then buckets.(g) else [||]

(* Vectorized hash join: build on the right, probe with the left in row
   order; each probe row's matches in ascending right-row order *)
let hash_join_idx ~(lrows : int) ~(rall : Batch.sel)
    (keys : (Batch.column * Batch.column * bool) list) ~(left_outer : bool) :
    int array * int array =
  let matches = hash_buckets ~rall keys ~finish:Fun.id in
  let out = pair_acc lrows in
  for i = 0 to lrows - 1 do
    let js = matches i in
    let m = Array.length js in
    if m = 0 then begin if left_outer then pair_emit out i (-1) end
    else
      for t = 0 to m - 1 do
        pair_emit out i (Array.unsafe_get js t)
      done
  done;
  pair_result out

(* The as-of range [x <= y] of right column [x] against left column [y],
   when both are typed columns of one representation (two int payload
   columns of one kind compare their payloads): SQL's [<=] is then
   Exec.compare_key's order and never raises. Across an int and a
   double, [<=] compares two doubles, which is not the key order, so
   mixed kinds, and boxed columns, are left to the residual path.
   [(le, cmp)]: [le j i] tests right row j against left row i, [cmp]
   orders right rows by [x]; both read non-NULL rows only. *)
let range_order (x : Batch.column) (y : Batch.column) :
    ((int -> int -> bool) * (int -> int -> int)) option =
  match (x.Batch.data, y.Batch.data) with
  | Batch.DInt { kind = kx; ints = a }, Batch.DInt { kind = ky; ints = b }
    when kx = ky ->
      let get = Ivec.get_at in
      Some
        ( (fun j i -> Int64.compare (get a (8 * j)) (get b (8 * i)) <= 0),
          fun j k -> Int64.compare (get a (8 * j)) (get a (8 * k)) )
  | Batch.DFloat a, Batch.DFloat b ->
      Some
        ( (fun j i -> Float.compare a.(j) b.(i) <= 0),
          fun j k -> Float.compare a.(j) a.(k) )
  | Batch.DStr { codes = xc; dict = xd }, Batch.DStr { codes = yc; dict = yd }
    ->
      let xs j = xd.(xc.(j)) in
      Some
        ( (fun j i -> String.compare (xs j) yd.(yc.(i)) <= 0),
          fun j k -> String.compare (xs j) (xs k) )
  | _ -> None

(* The fused as-of join: each left row paired with the one right row
   that the as-of window ranks first among its candidates — the rows of
   its equi-key bucket with [x <= y], ordered by [x] descending, then the
   later window keys [order], then row position — or with none. Each
   bucket drops its NULL-[x] rows (they never pass [<=]) and is sorted
   once in the reverse of that order; a left row binary-searches the
   prefix with [x <= y] and takes its last row. The later keys order
   as any sort key does. None when [range_order] rejects [x] and [y],
   or when a later key's values mix text with other types (the residual
   path rejects them only where one left row's candidates mix them);
   the residual path then decides, with its errors. *)
let asof_join_idx ~(lrows : int) ~(rall : Batch.sel)
    (keys : (Batch.column * Batch.column * bool) list) ~(x : Batch.column)
    ~(y : Batch.column) ~(order : (Batch.column * A.direction) list)
    ~(left_outer : bool) : (int array * int array) option =
  let reverse = function A.Asc -> A.Desc | A.Desc -> A.Asc in
  let later =
    List.map (fun (c, d) -> plain_key (reverse d) (Rows (c, None))) order
  in
  match
    ( range_order x y,
      try Some (sort_order later rall) with Errors.Sql_error _ -> None )
  with
  | Some (le, xcmp), Some rest ->
      let finish js =
        let js =
          if x.Batch.has_nulls then
            select_rows js (fun j -> not (Batch.is_null x j))
          else js
        in
        Array.stable_sort
          (fun j k ->
            let c = xcmp j k in
            if c <> 0 then c
            else
              let c = rest j k in
              if c <> 0 then c else Int.compare k j)
          js;
        js
      in
      let matches = hash_buckets ~rall keys ~finish in
      let out = pair_acc lrows in
      for i = 0 to lrows - 1 do
        let js = if Batch.is_null y i then [||] else matches i in
        (* [lo]: the length of the prefix with x <= y *)
        let lo = ref 0 and hi = ref (Array.length js) in
        while !lo < !hi do
          let mid = (!lo + !hi) lsr 1 in
          if le (Array.unsafe_get js mid) i then lo := mid + 1 else hi := mid
        done;
        if !lo > 0 then pair_emit out i js.(!lo - 1)
        else if left_outer then pair_emit out i (-1)
      done;
      Some (pair_result out)
  | _ -> None

(* Keep the candidate pairs [(cl, cr)] (grouped by probe row, ascending)
   whose residual passed — [pass.(0 .. np - 1)] holds their positions,
   ascending — and pad a left-outer probe row none of whose candidates
   passed. *)
let residual_pairs ~(lrows : int) ~(left_outer : bool) (cl : int array)
    (cr : int array) (pass : Batch.sel) (np : int) : int array * int array =
  let out = pair_acc np in
  let nc = Array.length cl in
  let k = ref 0 and p = ref 0 in
  for i = 0 to lrows - 1 do
    let matched = ref false in
    while !k < nc && cl.(!k) = i do
      if !p < np && pass.(!p) = !k then begin
        pair_emit out i cr.(!k);
        matched := true;
        incr p
      end;
      incr k
    done;
    if left_outer && not !matched then pair_emit out i (-1)
  done;
  pair_result out

(* ------------------------------------------------------------------ *)
(* SELECT planning                                                     *)
(* ------------------------------------------------------------------ *)

(* an output column in output row order: column j of a source read
   through the final row order, or computed values *)
type ocol = Through of source * int * int array | Computed of Value.t array

(* the column's values through output-row indices (-1 is NULL) *)
let ocol_values (oc : ocol) (idx : int array) : Value.t array =
  match oc with
  | Through (src, j, rows) -> src.values j (compose rows idx)
  | Computed v -> Array.map (fun r -> if r < 0 then Value.Null else v.(r)) idx

(* every value of the column, in output row order *)
let ocol_dense : ocol -> Value.t array = function
  | Through (src, j, rows) -> src.values j rows
  | Computed v -> v

(* the value in output row [r] *)
let ocol_get (oc : ocol) (r : int) : Value.t =
  match oc with
  | Through (src, j, rows) -> (src.values j [| rows.(r) |]).(0)
  | Computed v -> v.(r)

(* the column through output-row indices (-1 is NULL) *)
let ocol_gather (oc : ocol) (idx : int array) : Batch.column =
  match oc with
  | Through (src, j, rows) -> src.gather j (compose rows idx)
  | Computed _ -> Batch.column_of_values (ocol_values oc idx)

(* the column as a batch column: what a derived table feeds a pipeline,
   and what a result carries *)
let ocol_column : ocol -> Batch.column = function
  | Through (src, j, rows) -> src.gather j rows
  | Computed v -> Batch.column_of_values v

(* what a planned SELECT yields when run *)
type output = {
  o_nrows : int;
  o_cols : ocol array;
  o_types : Catalog.Sqltype.t list;
  o_plan : Opstats.node option;
}

(* a planned FROM item: its bindings (a derived table's types are known
   only once it has run, so [fp_run] returns the typed list) and the
   thunk that produces the source *)
type from_plan = {
  fp_bindings : Exec.binding list;
  fp_run : unit -> source * Exec.binding list * Opstats.node option;
}

let expand_stars (bindings : Exec.binding list) (projs : A.proj list) :
    A.proj list =
  let proj_of (b : Exec.binding) =
    { A.p_expr = A.Col (b.Exec.b_qual, b.Exec.b_name); p_alias = Some b.Exec.b_name }
  in
  List.concat_map
    (fun p ->
      match p.A.p_expr with
      | A.Star -> List.map proj_of bindings
      | A.Col (Some q, "*") ->
          List.filter (fun b -> b.Exec.b_qual = Some q) bindings
          |> List.map proj_of
      | _ -> [ p ])
    projs

(* the windows a non-aggregate select computes, deduplicated in order
   of appearance *)
let select_windows (projs : A.proj list) (s : A.select) : A.expr list =
  List.concat_map (fun p -> Exec.collect_windows p.A.p_expr) projs
  @ List.concat_map (fun (e, _) -> Exec.collect_windows e) s.A.order_by
  |> List.fold_left (fun acc w -> if List.mem w acc then acc else w :: acc) []
  |> List.rev

(* resolves a relation name to its unqualified bindings and its
   table's columns, raising undefined_table for unknown ones *)
type resolver = string -> Exec.binding list * Batch.t

let est_of (n : Opstats.node option) =
  match n with Some n -> n.Opstats.est_rows | None -> 1

(* every (left, right) pair, grouped by left row *)
let cross_pairs (lrows : int) (rrows : int) : int array * int array =
  let n = lrows * rrows in
  (Array.init n (fun k -> k / rrows), Array.init n (fun k -> k mod rrows))

(* the source of a SELECT without FROM: one row, no columns *)
let values_plan ~(collect : bool) : from_plan =
  let no_columns _ = invalid_arg "vexec: a VALUES row has no columns" in
  {
    fp_bindings = [];
    fp_run =
      (fun () ->
        ( {
            nrows = 1;
            all = [| 0 |];
            column = no_columns;
            values = (fun j _ -> no_columns j);
            gather = (fun j _ -> no_columns j);
          },
          [],
          if collect then
            Some
              (Opstats.leaf ~op:"vector_values" ~detail:"" ~est_rows:1
                 ~rows_out:1 ~self_ns:0L)
          else None ));
  }

(* The rank limits a WHERE places on the columns of the one derived
   table [alias] its query reads: each top-level conjunct [c = k],
   [c <= k] or [c < k], either operand order, as [(c, l)] where rows
   numbered above [l] (at least 0) cannot pass. The SELECT that defines
   [c] decides whether a limit applies ([plan_select]). *)
let rank_limits (alias : string) (where : A.expr option) : (string * int) list
    =
  let col = function
    | A.Col (None, c) -> Some c
    | A.Col (Some q, c) when Exec.equal_ci q alias -> Some c
    | _ -> None
  in
  let lit = function
    | A.Lit (A.Int k) -> Some k
    | A.Un (A.Neg, A.Lit (A.Int k)) -> Some (Int64.neg k)
    | _ -> None
  in
  let limit op k =
    let k =
      if Int64.compare k 0L <= 0 then 0
      else if Int64.compare k (Int64.of_int max_int) >= 0 then max_int
      else Int64.to_int k
    in
    match op with
    | A.Eq | A.Le -> Some k
    | A.Lt -> Some (Stdlib.max 0 (k - 1))
    | _ -> None
  in
  match where with
  | None -> []
  | Some w ->
      List.filter_map
        (function
          | A.Bin (op, a, b) -> (
              match (col a, lit b, col b, lit a) with
              | Some c, Some k, _, _ ->
                  Option.map (fun l -> (c, l)) (limit op k)
              | _, _, Some c, Some k ->
                  Option.map (fun l -> (c, l)) (limit (flip_op op) k)
              | _ -> None)
          | _ -> None)
        (Exec.conjuncts w)

(* whether a SELECT with projections [projs] aggregates *)
let select_has_agg (s : A.select) (projs : A.proj list) : bool =
  s.A.group_by <> [] || List.exists (fun p -> Exec.expr_has_agg p.A.p_expr) projs

(* The rank-limit cut of a SELECT with projections [projs]: the first of
   the enclosing query's [limits] whose column resolves, as the
   enclosing WHERE would resolve it, to a bare row_number() projection
   of a SELECT without aggregates, ORDER BY or LIMIT whose projections
   are all plain columns or windows. Its output is then its rows in
   WHERE order and every computed column is a window that numbers all
   of them, so each column's type is read from all rows, as without the
   cut. *)
let rank_cut (s : A.select) (projs : A.proj list) ~(has_agg : bool)
    (limits : (string * int) list) : (A.expr * int) option =
  if
    has_agg || s.A.order_by <> [] || s.A.limit <> None
    || not
         (List.for_all
            (fun p ->
              match p.A.p_expr with A.Col _ | A.Window _ -> true | _ -> false)
            projs)
  then None
  else
    let outs =
      List.mapi
        (fun k p ->
          { Exec.b_qual = None; b_name = Exec.proj_name k p; b_type = None })
        projs
    in
    List.find_map
      (fun (c, k) ->
        match (List.nth projs (Exec.find_binding outs None c)).A.p_expr with
        | A.Window { win_fn; win_args = []; _ } as w
          when String.lowercase_ascii win_fn = "row_number" ->
            Some (w, k)
        | _ -> None
        | exception Errors.Sql_error _ -> None)
      limits

(* per stage of a [scan], for ANALYZE: rows in, rows out and time
   over every chunk, the conjuncts' stages first and the consumer's
   last *)
type tally = { t_in : int array; t_out : int array; t_ns : int64 array }

(* Run [kernels], a WHERE's conjuncts in written order, over the rows
   [0, nrows) of a source chunk by chunk, and hand [consume] each
   chunk's survivors, [b.b_sel.(0 .. m - 1)] ascending. A chunk that
   keeps no row skips its later stages.

   Errors surface as one pass of each conjunct over every row would
   surface them. A conjunct sees only the rows the earlier ones kept,
   and the error raised is the first, in row order, of the earliest
   stage that raises at all; [consume], which classes group keys, is
   the last stage. So a stage that raises stops itself and every later
   stage. The earlier stages still run over the chunks that remain: an
   error one of them raises replaces the one held, and the error held
   at the end is raised. *)
let scan (b : bufs) (nrows : int) (kernels : kernel array)
    (tally : tally option) (consume : Batch.sel -> int -> unit) : unit =
  let sel = b.b_sel and nk = Array.length kernels in
  let stages = ref (nk + 1) and err = ref None in
  let base = ref 0 in
  while !base < nrows do
    let len = Stdlib.min chunk_rows (nrows - !base) in
    for t = 0 to len - 1 do
      Array.unsafe_set sel t (!base + t)
    done;
    let m = ref len and s = ref 0 in
    while !s < !stages && !m > 0 do
      let t0 = if Option.is_none tally then 0L else Exec.now_ns () in
      match
        if !s < nk then kernels.(!s) sel !m
        else begin
          consume sel !m;
          !m
        end
      with
      | m' ->
          (match tally with
          | Some ty ->
              let k = !s in
              ty.t_in.(k) <- ty.t_in.(k) + !m;
              ty.t_out.(k) <- ty.t_out.(k) + m';
              ty.t_ns.(k) <- Int64.add ty.t_ns.(k) (Int64.sub (Exec.now_ns ()) t0)
          | None -> ());
          m := m';
          incr s
      | exception e ->
          err := Some e;
          stages := !s
    done;
    base := !base + len
  done;
  Option.iter raise !err

(* the rows of [all] that [run] hands its consumer, ascending, in an
   array as long as they are: [run]'s chunks collect in [b.b_spill],
   which the domain keeps. Every row shares [all]. *)
let survivors (b : bufs) (all : Batch.sel)
    (run : (Batch.sel -> int -> unit) -> unit) : Batch.sel =
  let total = ref 0 in
  run (fun sel m ->
      let need = !total + m in
      if Array.length b.b_spill < need then begin
        let cap = Stdlib.min (Array.length all) (2 * Array.length b.b_spill) in
        let spill = Array.make (Stdlib.max need cap) 0 in
        Array.blit b.b_spill 0 spill 0 !total;
        b.b_spill <- spill
      end;
      Array.blit sel 0 b.b_spill !total m;
      total := need);
  if !total = Array.length all then all else Array.sub b.b_spill 0 !total

(* the type of the first non-NULL value among [get 0 .. get (n - 1)],
   text when there is none: how a computed column is typed *)
let first_type (n : int) (get : int -> Value.t) : Catalog.Sqltype.t =
  let rec scan r =
    if r >= n then Catalog.Sqltype.TText
    else match Value.type_of (get r) with Some ty -> ty | None -> scan (r + 1)
  in
  scan 0

(* a planned SELECT's output as a source whose bindings [alias]
   qualifies; [run] also returns the source's operator node. The column
   types are known only once the SELECT has run. *)
let derived_source (names : string list) (alias : string)
    (run : unit -> output * Opstats.node option) : from_plan =
  let qualify types =
    List.map2
      (fun n ty -> { Exec.b_qual = Some alias; b_name = n; b_type = ty })
      names types
  in
  {
    fp_bindings = qualify (List.map (fun _ -> None) names);
    fp_run =
      (fun () ->
        let o, node = run () in
        ( {
            nrows = o.o_nrows;
            all = Batch.all_rows o.o_nrows;
            column =
              memo (Array.length o.o_cols) (fun k -> ocol_column o.o_cols.(k));
            values = (fun k idx -> ocol_values o.o_cols.(k) idx);
            gather = (fun k idx -> ocol_gather o.o_cols.(k) idx);
          },
          qualify (List.map Option.some o.o_types),
          node ));
  }

(* The as-of lowering (paper Section 3.2.2) on a join whose SELECT's
   one window [w] is a row_number() the enclosing query cuts at 1
   ([plan_select]): the ON clause's one conjunct besides the equalities,
   [range], is [r.x <= l.y] in either operand order, the window's
   PARTITION BY keys are left columns and its ORDER BY is [r.x DESC]
   then right columns. Columns resolve over the joined [bindings] as the
   window and the residual resolve them; the first [nl] are the left
   side's. [Some (x, y, order)]: x and the later order keys as right
   column positions, y as a left one. *)
let asof_shape (bindings : Exec.binding list) (nl : int) (w : A.expr)
    (range : A.expr) : (int * int * (int * A.direction) list) option =
  let slot = function
    | A.Col (q, c) -> (
        match Exec.find_binding bindings q c with
        | j -> Some j
        | exception Errors.Sql_error _ -> None)
    | _ -> None
  in
  let left e = match slot e with Some j when j < nl -> Some j | _ -> None in
  let right e =
    match slot e with Some j when j >= nl -> Some (j - nl) | _ -> None
  in
  let bound =
    match range with
    | A.Bin (A.Le, a, b) | A.Bin (A.Ge, b, a) -> Some (a, b)
    | _ -> None
  in
  match (w, bound) with
  | A.Window { partition; order = (xe, A.Desc) :: rest; _ }, Some (a, b)
    when List.for_all (fun e -> left e <> None) partition ->
      let rest =
        List.map (fun (e, d) -> Option.map (fun j -> (j, d)) (right e)) rest
      in
      (match (right xe, left b) with
      | Some x, Some y when right a = Some x && not (List.mem None rest) ->
          Some (x, y, List.filter_map Fun.id rest)
      | _ -> None)
  | _ -> None

(* Lower a FROM tree. Base tables resolve to their batches; derived
   tables plan their SELECT with the same lowering and feed its output
   as a source; UNION ALL concatenates its branches. A join with
   equality conjuncts in ON hashes on them; any other join (CROSS,
   comma, an ON without equality, or none) pairs every left row with
   every right row. Either way the rest of the ON clause runs as one
   residual kernel over the candidate pairs. A LEFT or INNER join in
   the as-of shape of [asof], the cut window of the SELECT this FROM
   feeds ([asof_shape]), runs as one [asof_join_idx] instead: at most
   one pair per left row, the one the window would rank first. *)
let rec plan_from ?asof ~(resolve : resolver) ~(collect : bool)
    (f : A.from_item) : from_plan =
  match f with
  | A.TableRef (name, alias) ->
      let base_bindings, b = resolve name in
      let qual = Some (Option.value alias ~default:name) in
      let bindings =
        List.map (fun b -> { b with Exec.b_qual = qual }) base_bindings
      in
      {
        fp_bindings = bindings;
        fp_run =
          (fun () ->
            let n = b.Batch.nrows in
            let node =
              if collect then
                Some
                  (Opstats.make ~op:"vector_scan" ~detail:name ~est_rows:n
                     ~rows_in:n ~rows_out:n ~self_ns:0L ~children:[])
              else None
            in
            ( {
                nrows = n;
                all = b.Batch.all;
                column = Array.get b.Batch.cols;
                values = (fun j -> Batch.values b.Batch.cols.(j));
                gather = (fun j -> Batch.gather b.Batch.cols.(j));
              },
              bindings,
              node ));
      }
  | A.SubqueryRef (sel, alias) ->
      plan_derived ~limits:[] ~resolve ~collect sel alias
  | A.UnionRef (sels, alias) ->
      let branches = List.map (plan_select ~limits:[] ~resolve ~collect) sels in
      let names =
        match branches with
        | [] -> Errors.syntax_error "empty UNION"
        | (names, _) :: _ -> names
      in
      let width = List.length names in
      if List.exists (fun (n, _) -> List.length n <> width) branches then
        Errors.syntax_error
          "each UNION query must have the same number of columns";
      derived_source names alias (fun () ->
          let outs = List.map (fun (_, run) -> run ()) branches in
          let t0 = if collect then Exec.now_ns () else 0L in
          let nrows = List.fold_left (fun a o -> a + o.o_nrows) 0 outs in
          (* column j: every branch's rows, in branch order *)
          let cols =
            Array.init width (fun j ->
                Computed
                  (Array.concat
                     (List.map (fun o -> ocol_dense o.o_cols.(j)) outs)))
          in
          let node =
            if collect then
              let children = List.filter_map (fun o -> o.o_plan) outs in
              Some
                (Opstats.make ~op:"vector_union" ~detail:alias
                   ~est_rows:
                     (List.fold_left
                        (fun a n -> a + n.Opstats.est_rows)
                        0 children)
                   ~rows_in:nrows ~rows_out:nrows
                   ~self_ns:(Int64.sub (Exec.now_ns ()) t0) ~children)
            else None
          in
          ( {
              o_nrows = nrows;
              o_cols = cols;
              o_types = (List.hd outs).o_types;
              o_plan = node;
            },
            node ))
  | A.JoinItem { jkind; left; right; on } ->
      let left_outer = jkind = `Left in
      let lp = plan_from ~resolve ~collect left in
      let rp = plan_from ~resolve ~collect right in
      let lb = lp.fp_bindings and rb = rp.fp_bindings in
      let nl = List.length lb in
      let bindings = lb @ rb in
      (* equality conjuncts [left.a = right.b] (or IS NOT DISTINCT FROM)
         become hash keys; a CROSS join tests its whole ON per pair *)
      let equi, residual =
        match on with
        | None -> ([], [])
        | Some _ when jkind = `Cross -> ([], [])
        | Some e ->
            List.partition_map
              (fun conj ->
                match conj with
                | A.Bin
                    ( ((A.Eq | A.IsNotDistinctFrom) as op),
                      A.Col (ql, cl),
                      A.Col (qr, cr) ) ->
                    let null_safe = op = A.IsNotDistinctFrom in
                    if Exec.side_of lb ql cl && Exec.side_of rb qr cr then
                      Either.Left
                        ( Exec.find_binding lb ql cl,
                          Exec.find_binding rb qr cr,
                          null_safe )
                    else if Exec.side_of lb qr cr && Exec.side_of rb ql cl then
                      Either.Left
                        ( Exec.find_binding lb qr cr,
                          Exec.find_binding rb ql cl,
                          null_safe )
                    else Either.Right conj
                | conj -> Either.Right conj)
              (Exec.conjuncts e)
      in
      let fused =
        match (asof, jkind, residual) with
        | Some w, (`Left | `Inner), [ range ] ->
            Option.map
              (fun shape -> (range, shape))
              (asof_shape bindings nl w range)
        | _ -> None
      in
      (* without hash keys the residual is the ON clause as written *)
      let residual = if equi = [] then Option.to_list on else residual in
      (* the residual is one AND-folded predicate, evaluated whole on
         every candidate pair *)
      let residual =
        match residual with
        | [] -> None
        | e :: rest ->
            let r = List.fold_left (fun a b -> A.Bin (A.And, a, b)) e rest in
            Some (r, compile_conjunct { bindings; windows = [] } r)
      in
      let width = List.length bindings in
      {
        fp_bindings = bindings;
        fp_run =
          (fun () ->
            let l, ltyped, lnode = lp.fp_run () in
            let r, rtyped, rnode = rp.fp_run () in
            let t0 = if collect then Exec.now_ns () else 0L in
            let keys =
              List.map
                (fun (li, ri, ns) -> (l.column li, r.column ri, ns))
                equi
            in
            (* [through lidx ridx j] gathers joined column j *)
            let through lidx ridx j =
              if j < nl then Batch.gather (l.column j) lidx
              else Batch.gather (r.column (j - nl)) ridx
            in
            let candidates () =
              if equi = [] then cross_pairs l.nrows r.nrows
              else
                hash_join_idx ~lrows:l.nrows ~rall:r.all keys
                  ~left_outer:false
            in
            let fused_pairs =
              Option.bind fused (fun (_, (x, y, order)) ->
                  asof_join_idx ~lrows:l.nrows ~rall:r.all keys
                    ~x:(r.column x) ~y:(l.column y)
                    ~order:(List.map (fun (j, d) -> (r.column j, d)) order)
                    ~left_outer)
            in
            let lidx, ridx =
              match (fused_pairs, residual) with
              | Some pairs, _ -> pairs
              | None, None when equi <> [] ->
                  hash_join_idx ~lrows:l.nrows ~rall:r.all keys ~left_outer
              | None, None ->
                  let cl, cr = candidates () in
                  residual_pairs ~lrows:l.nrows ~left_outer cl cr
                    (Batch.all_rows (Array.length cl))
                    (Array.length cl)
              | None, Some (_, kernel) ->
                  let cl, cr = candidates () in
                  (* gather only the residual's own columns, through the
                     candidate pairs *)
                  let cand =
                    { col = memo width (through cl cr); win = no_windows }
                  in
                  let pass = Batch.all_rows (Array.length cl) in
                  let np = kernel cand pass (Array.length cl) in
                  residual_pairs ~lrows:l.nrows ~left_outer cl cr pass np
            in
            let npairs = Array.length lidx in
            let src =
              {
                nrows = npairs;
                all = Batch.all_rows npairs;
                column = memo width (through lidx ridx);
                values =
                  (fun j idx ->
                    if j < nl then l.values j (compose lidx idx)
                    else r.values (j - nl) (compose ridx idx));
                gather =
                  (fun j idx ->
                    if j < nl then l.gather j (compose lidx idx)
                    else r.gather (j - nl) (compose ridx idx));
              }
            in
            let node =
              if collect then begin
                let kind =
                  match jkind with
                  | `Left -> "left"
                  | `Inner -> "inner"
                  | `Cross -> "cross"
                in
                (* a hash equi-join is estimated as max(inputs), a nested
                   loop as the cross product *)
                let op, est, detail =
                  if fused_pairs <> None then
                    ( "vector_asof_join",
                      est_of lnode,
                      Printf.sprintf "%s build=%d probe=%d range=%s" kind
                        r.nrows l.nrows
                        (A.expr_str (fst (Option.get fused))) )
                  else if equi <> [] then
                    ( "vector_hash_join",
                      Stdlib.max (est_of lnode) (est_of rnode),
                      Printf.sprintf "%s build=%d probe=%d" kind r.nrows
                        l.nrows )
                  else
                    ( "vector_nested_loop",
                      Stdlib.max 1 (est_of lnode) * Stdlib.max 1 (est_of rnode),
                      Printf.sprintf "%s outer=%d inner=%d" kind l.nrows
                        r.nrows )
                in
                let detail =
                  match (fused_pairs, residual) with
                  | None, Some (e, _) -> detail ^ " residual=" ^ A.expr_str e
                  | _ -> detail
                in
                Some
                  (Opstats.make ~op ~detail ~est_rows:est
                     ~rows_in:(l.nrows + r.nrows) ~rows_out:npairs
                     ~self_ns:(Int64.sub (Exec.now_ns ()) t0)
                     ~children:(List.filter_map Fun.id [ lnode; rnode ]))
              end
              else None
            in
            (src, ltyped @ rtyped, node));
      }

(* a derived table: the SELECT's output as a source; [limits] are the
   rank limits the enclosing query places on it *)
and plan_derived ~limits ~resolve ~collect (sel : A.select) (alias : string)
    : from_plan =
  let names, run = plan_select ~limits ~resolve ~collect sel in
  derived_source names alias (fun () ->
      let o = run () in
      ( o,
        if collect then
          Some
            (Opstats.make ~op:"vector_subquery" ~detail:alias
               ~est_rows:
                 (match o.o_plan with
                 | Some p -> p.Opstats.est_rows
                 | None -> o.o_nrows)
               ~rows_in:o.o_nrows ~rows_out:o.o_nrows ~self_ns:0L
               ~children:(Option.to_list o.o_plan))
        else None ))

(* Plan a SELECT: FROM tree, WHERE kernels, then either hash
   aggregation or windows + projections, then ORDER BY and LIMIT.
   Returns the output column names and the thunk that runs it. [limits]
   are the enclosing query's rank limits on this SELECT's columns (see
   [rank_limits]); a FROM that is one derived table passes this WHERE's
   limits down to it. *)
and plan_select ~limits ~resolve ~collect (s : A.select) :
    string list * (unit -> output) =
  (* the as-of lowering: a SELECT without WHERE whose one window is cut
     at 1 hands that window to its FROM ([plan_from]). Without stars the
     projections are known before the FROM is planned. *)
  let asof =
    let star p =
      match p.A.p_expr with A.Star | A.Col (_, "*") -> true | _ -> false
    in
    if s.A.where <> None || List.exists star s.A.projs then None
    else
      let has_agg = select_has_agg s s.A.projs in
      match rank_cut s s.A.projs ~has_agg limits with
      | Some (w, 1) when select_windows s.A.projs s = [ w ] -> Some w
      | _ -> None
  in
  let fp =
    match s.A.from with
    | Some (A.SubqueryRef (sub, alias)) ->
        plan_derived
          ~limits:(rank_limits alias s.A.where)
          ~resolve ~collect sub alias
    | Some f -> plan_from ?asof ~resolve ~collect f
    | None -> values_plan ~collect
  in
  let bindings = fp.fp_bindings in
  let sc = { bindings; windows = [] } in
  let conjs =
    match s.A.where with
    | None -> []
    | Some w ->
        List.map
          (fun conj -> (conj, compile_conjunct sc conj))
          (Exec.conjuncts w)
  in
  let projs = expand_stars bindings s.A.projs in
  let has_agg = select_has_agg s projs in
  let out_names = List.mapi Exec.proj_name projs in
  let top = rank_cut s projs ~has_agg limits in
  (* the ORDER BY keys, aliases replaced by what they name and the
     serializer's NULL pre-keys folded *)
  let order_keys =
    fold_order
      (List.map
         (fun (e, dir) -> (Exec.subst_aliases projs out_names e, dir))
         s.A.order_by)
  in
  (* a key that is a projection's expression sorts on its values *)
  let proj_index e = index_of e (List.map (fun p -> p.A.p_expr) projs) in
  (* the body's stage two: given the data, the chunk buffers, the WHERE
     as a [scan] of the source, and the opstats push, return the
     row-space size, the sort keys over it, the output columns for a
     final row order, and the types of projections typed before the
     final order (the cut's windows) *)
  let body :
      source ->
      data ->
      bufs ->
      ((Batch.sel -> int -> unit) -> unit) ->
      (?self_ns:int64 -> op:string -> detail:string -> est_rows:int ->
      rows_in:int -> rows_out:int -> unit -> unit) ->
      (unit -> int) ->
      int
      * sort_key list
      * (int array -> ocol array)
      * (int -> Catalog.Sqltype.t option) =
    if has_agg then begin
      (* aggregate context: windows are out of scope, so every compile
         here sees none and a window anywhere falls back *)
      let ckeys = List.map (compile_expr sc) s.A.group_by in
      let plain_key =
        match s.A.group_by with
        | [ A.Col (q, c) ] -> Some (Exec.find_binding bindings q c)
        | _ -> None
      in
      let cprojs = List.map (fun p -> compile_agg_expr sc p.A.p_expr) projs in
      let cord =
        List.map
          (fun (e, mk) ->
            match proj_index e with
            | Some k -> `Proj (k, mk)
            | None -> `Expr (compile_agg_expr sc e, mk))
          order_keys
      in
      fun _ d b scan push cur_est ->
        let grouped = s.A.group_by <> [] in
        (* groups in first-encounter order; the scalar aggregate is one
           group *)
        let gr =
          {
            sel = b.b_sel;
            ident = b.b_ident;
            len = 0;
            gid = (if grouped then b.b_gid else [| 0 |]);
            mask = (if grouped then -1 else 0);
            ng = (if grouped then 0 else 1);
            first = (if grouped then [||] else [| -1 |]);
            stamp = 0;
            folders = [];
            vecs = [];
          }
        in
        let cprojs = Array.of_list (List.map (fun c -> c d gr) cprojs) in
        let cord =
          List.map
            (function
              | `Proj (k, mk) -> `Proj (k, mk)
              | `Expr (c, mk) -> `Expr (c d gr, mk))
            cord
        in
        (* each chunk's group ids, one per surviving row *)
        let write_ids =
          if grouped then
            let ids, count =
              key_classes
                [|
                  (List.map (fun c -> c d) ckeys, Option.map d.col plain_key);
                |]
            in
            let ids = snd ids.(0) in
            (fun sel m ->
              ids sel m gr.gid;
              let ng = count () in
              if ng > gr.ng then begin
                (* a new group's id is the next one at its first row *)
                gr.first <- widen gr.first ng (-1);
                let next = ref gr.ng in
                for t = 0 to m - 1 do
                  if gr.gid.(t) = !next then begin
                    gr.first.(!next) <- sel.(t);
                    incr next
                  end
                done;
                gr.ng <- ng
              end)
          else fun sel _ ->
            if gr.first.(0) < 0 then gr.first.(0) <- sel.(0)
        in
        let rows_in = ref 0 in
        scan (fun sel m ->
            write_ids sel m;
            gr.len <- m;
            gr.stamp <- gr.stamp + 1;
            rows_in := !rows_in + m;
            List.iter (fun f -> f.feed ()) gr.folders);
        List.iter (fun f -> f.finish ()) gr.folders;
        let ng = gr.ng in
        (* row-major, so errors surface in row order: every projection
           of a group, then the next group; the sort keys after all of
           them *)
        let vals = Array.map (fun _ -> Array.make ng Value.Null) cprojs in
        for g = 0 to ng - 1 do
          Array.iteri (fun k cp -> vals.(k).(g) <- cp g) cprojs
        done;
        let keys =
          sort_keys
            (List.map
               (function
                 | `Proj (k, mk) -> Ready (mk (Vals vals.(k)))
                 | `Expr (c, mk) -> Eval (c, mk))
               cord)
            ng
        in
        push ~op:"vector_hash_agg"
          ~detail:
            (if grouped then
               Printf.sprintf "group by %d" (List.length s.A.group_by)
             else "scalar")
          ~est_rows:(if grouped then Stdlib.max 1 (cur_est () / 10) else 1)
          ~rows_in:!rows_in ~rows_out:ng ();
        ( ng,
          keys,
          (fun fin ->
            Array.map (fun v -> Computed (Array.map (Array.get v) fin)) vals),
          fun _ -> None )
    end
    else begin
      let windows = select_windows projs s in
      (* the cut window runs last, so every other window sees all rows;
         each stage two returns the rows it keeps *)
      let windows =
        match top with
        | Some (w, _) -> List.filter (fun x -> x <> w) windows @ [ w ]
        | None -> windows
      in
      let wplans =
        List.map
          (fun w ->
            match top with
            | Some (tw, k) when w = tw -> plan_window_top sc w k
            | _ ->
                let fn, run = plan_window sc w in
                ( fn,
                  fun d ->
                    let run = run d in
                    fun sel nrows -> (run sel nrows, sel) ))
          windows
      in
      let scw = { bindings; windows } in
      let cprojs =
        List.map
          (fun p ->
            match p.A.p_expr with
            | A.Col (q, c) -> `Plain (Exec.find_binding bindings q c)
            | e -> `Expr (compile_expr scw e))
          projs
      in
      let cord =
        List.map
          (fun (e, mk) ->
            match e with
            | A.Col (q, c) -> `Col (Exec.find_binding bindings q c, mk)
            | e -> (
                match proj_index e with
                | Some k -> `Proj (k, mk)
                | None -> `Expr (compile_expr scw e, mk)))
          order_keys
      in
      fun src d b scan push cur_est ->
        let sel = if conjs = [] then src.all else survivors b src.all scan in
        let kept = ref sel in
        let warrs =
          Array.of_list
            (List.map
               (fun (fn, wp) ->
                 let a, rows = wp d !kept src.nrows in
                 push ~op:"vector_window" ~detail:fn ~est_rows:(cur_est ())
                   ~rows_in:(Array.length !kept) ~rows_out:(Array.length rows) ();
                 kept := rows;
                 a)
               wplans)
        in
        let all = sel and sel = !kept in
        let n = Array.length sel in
        (* with the cut, a window projection's type: its first non-NULL
           value over every row it saw; the cut window numbers them all *)
        let pretyped k =
          match (top, (List.nth projs k).A.p_expr) with
          | Some (tw, _), w when w = tw ->
              Some
                (if Array.length all = 0 then Catalog.Sqltype.TText
                 else Catalog.Sqltype.TBigint)
          | Some _, (A.Window _ as w) ->
              let a = warrs.(Option.get (index_of w windows)) in
              Some (first_type (Array.length all) (fun t -> a.(all.(t))))
          | _ -> None
        in
        let d = { d with win = Array.get warrs } in
        let cprojs =
          Array.of_list
            (List.map
               (function
                 | `Plain j -> `Plain j
                 | `Expr ce -> `Expr (ce d, Array.make n Value.Null))
               cprojs)
        in
        (* computed projections row-major, so errors surface in row
           order *)
        if Array.exists (function `Expr _ -> true | `Plain _ -> false) cprojs
        then
          for t = 0 to n - 1 do
            let i = sel.(t) in
            Array.iter
              (function `Expr (ce, v) -> v.(t) <- ce i | `Plain _ -> ())
              cprojs
          done;
        let keys =
          sort_keys
            (List.map
               (function
                 | `Col (j, mk) -> Ready (mk (Rows (d.col j, Some sel)))
                 | `Proj (k, mk) -> (
                     match cprojs.(k) with
                     | `Expr (_, v) -> Ready (mk (Vals v))
                     | `Plain j -> Ready (mk (Rows (d.col j, Some sel))))
                 | `Expr (ce, mk) ->
                     let ce = ce d in
                     Eval ((fun t -> ce sel.(t)), mk))
               cord)
            n
        in
        push ~op:"vector_project"
          ~detail:(Printf.sprintf "%d cols" (Array.length cprojs))
          ~est_rows:(cur_est ()) ~rows_in:n ~rows_out:n ();
        ( n,
          keys,
          (fun fin ->
            let rows = Array.map (Array.get sel) fin in
            Array.map
              (function
                | `Plain j -> Through (src, j, rows)
                | `Expr (_, v) -> Computed (Array.map (Array.get v) fin))
              cprojs),
          pretyped )
    end
  in
  ( out_names,
    fun () ->
      let src, typed, src_node = fp.fp_run () in
      let d = { col = src.column; win = no_windows } in
      let kernels = Array.of_list (List.map (fun (_, k) -> k d) conjs) in
      (* opstats chain: each phase pushes one node on top of the last,
         timed from the previous phase boundary *)
      let cur : Opstats.node option ref = ref src_node in
      let last_t = ref (if collect then Exec.now_ns () else 0L) in
      let lap () =
        let t = Exec.now_ns () in
        let dt = Int64.sub t !last_t in
        last_t := t;
        if dt < 0L then 0L else dt
      in
      let cur_est () =
        match !cur with Some n -> n.Opstats.est_rows | None -> 1
      in
      let push ?self_ns ~op ~detail ~est_rows ~rows_in ~rows_out () =
        if collect then begin
          let self_ns = match self_ns with Some t -> t | None -> lap () in
          let children = match !cur with Some n -> [ n ] | None -> [] in
          cur :=
            Some
              (Opstats.make ~op ~detail ~est_rows ~rows_in ~rows_out ~self_ns
                 ~children)
        end
      in
      (* ---- filters, in the order the WHERE clause wrote them, chunk
         by chunk: each conjunct sees only the rows the previous ones
         kept, and is estimated to keep a third of them. Its node
         totals its rows and time over the chunks; the consumer's time
         is its operator's, which the next push charges. *)
      let b = take_bufs src.nrows in
      (* an unfiltered projection reads [src.all] and scans nothing *)
      let scan =
        if conjs = [] && not has_agg then fun _ -> ()
        else fun consume ->
          let nk = Array.length kernels in
          let tally =
            if collect then
              Some
                {
                  t_in = Array.make (nk + 1) 0;
                  t_out = Array.make (nk + 1) 0;
                  t_ns = Array.make (nk + 1) 0L;
                }
            else None
          in
          scan b src.nrows kernels tally consume;
          Option.iter
            (fun ty ->
              List.iteri
                (fun k (conj, _) ->
                  push ~self_ns:ty.t_ns.(k) ~op:"vector_filter"
                    ~detail:(A.expr_str conj)
                    ~est_rows:(Stdlib.max 1 (ty.t_in.(k) / 3))
                    ~rows_in:ty.t_in.(k) ~rows_out:ty.t_out.(k) ())
                conjs;
              last_t := Int64.sub (Exec.now_ns ()) ty.t_ns.(nk))
            tally
      in
      (* ---- aggregation or windows + projection *)
      let n, keys, columns, pretyped =
        match body src d b scan push cur_est with
        | r ->
            give_bufs b;
            r
        | exception e ->
            give_bufs b;
            raise e
      in
      (* ---- ORDER BY / LIMIT over row-space positions; a LIMIT that
         keeps a small prefix selects it without a full sort *)
      let count =
        match s.A.limit with Some l -> Stdlib.max 0 (Stdlib.min l n) | None -> n
      in
      let fin =
        if s.A.order_by = [] then Array.init count Fun.id
        else begin
          let order = order_positions keys n count in
          push ~op:"vector_sort"
            ~detail:
              (Printf.sprintf "%d keys (%d folded), typed"
                 (List.length s.A.order_by)
                 (List.length (List.filter (fun k -> k.folded) keys)))
            ~est_rows:(cur_est ()) ~rows_in:n ~rows_out:n ();
          if count = Array.length order then order else Array.sub order 0 count
        end
      in
      Option.iter
        (fun l ->
          push ~op:"vector_limit"
            ~detail:(Printf.sprintf "limit %d" l)
            ~est_rows:(Stdlib.min l (cur_est ()))
            ~rows_in:n ~rows_out:count ())
        s.A.limit;
      let cols = columns fin in
      (* ---- column types, as Exec.infer_col_type: a plain column's
         declared type, a cast's target, else the first non-null value *)
      let types =
        List.mapi
          (fun k p ->
            let declared =
              match p.A.p_expr with
              | A.Col (q, c) ->
                  (List.nth typed (Exec.find_binding typed q c)).Exec.b_type
              | A.Cast (_, ty) -> Some ty
              | _ -> pretyped k
            in
            match declared with
            | Some ty -> ty
            | None -> first_type count (ocol_get cols.(k)))
          projs
      in
      { o_nrows = count; o_cols = cols; o_types = types; o_plan = !cur } )

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

type outcome = {
  vr_result : Exec.result;
  vr_plan : Opstats.node option; (* operator tree, when collect was on *)
}

let run ~(resolve : resolver) ~(collect : bool) (s : A.select) : outcome =
  let names, run = plan_select ~limits:[] ~resolve ~collect s in
  let o = run () in
  Atomic.incr stats_vector;
  ignore (Atomic.fetch_and_add stats_rows_out o.o_nrows);
  {
    vr_result =
      {
        Exec.res_cols = List.combine names o.o_types;
        res_nrows = o.o_nrows;
        res_columns = Array.map ocol_column o.o_cols;
      };
    vr_plan = (if collect then o.o_plan else None);
  }
