(** Vectorized executor: batch-at-a-time evaluation over columnar data.

    [try_run] lowers a supported {!Sqlast.Ast.select} shape — single
    base-table FROM, WHERE conjuncts, projections, hash group-by with
    the standard aggregates, ORDER BY, LIMIT/OFFSET — into a pipeline of
    compiled closures over a {!Batch.t} and runs it. Everything outside
    that shape (joins, subqueries, unions, windows, DISTINCT, views)
    returns [None] and the caller falls back to the row interpreter in
    {!Exec}, which stays authoritative for edge-case behavior.

    The two paths produce byte-identical results. Compilation performs
    name resolution and shape checks only — it never touches data — so
    a lowering failure costs nothing, and runtime errors (type
    mismatches, division by zero) surface from the same {!Value}
    functions the row path calls, in the same (row, expression) order.
    The one sanctioned divergence is short-circuiting: conjuncts are
    applied most-selective-first (ordered by the EWMA selectivity store
    below, fed back after every filter) and later conjuncts never see
    rows an earlier one dropped, whereas the row interpreter evaluates
    the whole WHERE expression — including error-raising sub-terms — on
    every row. Queries that do not raise are unaffected. *)

module A = Sqlast.Ast

(* query shape not lowerable: compile raises, try_run returns None *)
exception Fallback

(* ------------------------------------------------------------------ *)
(* Execution counters (process-wide; shard domains run concurrently)   *)
(* ------------------------------------------------------------------ *)

let stats_vector = Atomic.make 0 (* SELECTs answered by the vector path *)
let stats_row = Atomic.make 0 (* SELECTs answered by the row path *)
let stats_fallback = Atomic.make 0 (* vectorized-on SELECTs that fell back *)

let reset_stats () =
  Atomic.set stats_vector 0;
  Atomic.set stats_row 0;
  Atomic.set stats_fallback 0

(* ------------------------------------------------------------------ *)
(* Selectivity feedback                                                *)
(* ------------------------------------------------------------------ *)

(* Observed per-conjunct selectivities, keyed by the conjunct's shape
   (literals stripped) plus the table name, smoothed with an EWMA. The
   lowering step orders conjuncts most-selective-first from these, and
   every executed filter feeds its observation back — closing the
   cardinality loop the EXPLAIN plane's q-errors expose. *)

let sel_alpha = 0.2
let default_selectivity = 1.0 /. 3.0
let sel_store_capacity = 1024

(* second-chance eviction state: [hot] is set on every read or update
   and cleared as the clock hand sweeps past, so a full store evicts a
   key nobody consulted since the last sweep instead of wiping every
   learned EWMA (the reset-on-full bug this replaces) *)
type sel_entry = { mutable ewma : float; mutable hot : bool }

let sel_store : (string, sel_entry) Hashtbl.t = Hashtbl.create 256
let sel_clock : string Queue.t = Queue.create ()
let sel_mutex = Mutex.create ()

let rec strip_lits (e : A.expr) : A.expr =
  match e with
  | A.Lit _ -> A.Lit A.Null
  | A.Col _ | A.Star -> e
  | A.Bin (op, a, b) -> A.Bin (op, strip_lits a, strip_lits b)
  | A.Un (op, a) -> A.Un (op, strip_lits a)
  | A.IsNull a -> A.IsNull (strip_lits a)
  | A.IsNotNull a -> A.IsNotNull (strip_lits a)
  | A.In (a, es) -> A.In (strip_lits a, List.map strip_lits es)
  | A.Between (a, lo, hi) ->
      A.Between (strip_lits a, strip_lits lo, strip_lits hi)
  | A.Case (bs, el) ->
      A.Case
        ( List.map (fun (c, r) -> (strip_lits c, strip_lits r)) bs,
          Option.map strip_lits el )
  | A.Cast (a, ty) -> A.Cast (strip_lits a, ty)
  | A.Fun (f, args) -> A.Fun (f, List.map strip_lits args)
  | A.Agg { agg_name; distinct; args } ->
      A.Agg { agg_name; distinct; args = List.map strip_lits args }
  | A.Window { win_fn; win_args; partition; order; frame } ->
      A.Window
        {
          win_fn;
          win_args = List.map strip_lits win_args;
          partition = List.map strip_lits partition;
          order = List.map (fun (x, d) -> (strip_lits x, d)) order;
          frame;
        }
  | A.Like (a, p) -> A.Like (strip_lits a, strip_lits p)

let conjunct_key (table : string) (e : A.expr) : string =
  table ^ "|" ^ A.expr_str (strip_lits e)

let estimated_selectivity (key : string) : float =
  Mutex.lock sel_mutex;
  let v =
    match Hashtbl.find_opt sel_store key with
    | Some e ->
        e.hot <- true;
        e.ewma
    | None -> default_selectivity
  in
  Mutex.unlock sel_mutex;
  v

(* sweep the clock until a cold key falls out; every hot key passed gets
   its second chance (bit cleared, requeued). Bounded by the queue
   length: if every key is hot, the first one swept is now cold and the
   second pass evicts it. *)
let rec evict_one (budget : int) : unit =
  match Queue.take_opt sel_clock with
  | None -> ()
  | Some k -> (
      match Hashtbl.find_opt sel_store k with
      | None -> evict_one budget (* stale clock slot: key already gone *)
      | Some e when e.hot && budget > 0 ->
          e.hot <- false;
          Queue.add k sel_clock;
          evict_one (budget - 1)
      | Some _ -> Hashtbl.remove sel_store k)

let observe_selectivity (key : string) (observed : float) : unit =
  Mutex.lock sel_mutex;
  (match Hashtbl.find_opt sel_store key with
  | Some e ->
      e.hot <- true;
      e.ewma <- (sel_alpha *. observed) +. ((1.0 -. sel_alpha) *. e.ewma)
  | None ->
      if Hashtbl.length sel_store >= sel_store_capacity then
        evict_one (Queue.length sel_clock);
      Hashtbl.add sel_store key { ewma = observed; hot = true };
      Queue.add key sel_clock);
  Mutex.unlock sel_mutex

(** (conjunct shape, EWMA selectivity) pairs currently tracked. *)
let selectivity_snapshot () : (string * float) list =
  Mutex.lock sel_mutex;
  let l = Hashtbl.fold (fun k e acc -> (k, e.ewma) :: acc) sel_store [] in
  Mutex.unlock sel_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let reset_selectivities () =
  Mutex.lock sel_mutex;
  Hashtbl.reset sel_store;
  Queue.clear sel_clock;
  Mutex.unlock sel_mutex

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* a compiled scalar expression: evaluate at one base-batch row index *)
type cexpr = int -> Value.t

(* eval context for reified sub-expressions (never consults bindings) *)
let empty_ctx () : Exec.eval_ctx = { Exec.bindings = []; windows = [] }

let rec compile_expr (bindings : Exec.binding list)
    (cols : Batch.column array) (e : A.expr) : cexpr =
  let comp e = compile_expr bindings cols e in
  match e with
  | A.Lit l ->
      let v = Value.of_lit l in
      fun _ -> v
  | A.Col (q, c) ->
      let col = cols.(Exec.find_binding bindings q c) in
      fun i -> Batch.value_at col i
  (* the row path raises on these at evaluation time (or not at all,
     when no row reaches them); falling back reproduces either outcome *)
  | A.Star | A.Agg _ | A.Window _ -> raise Fallback
  | A.Bin (op, a, b) -> (
      let ca = comp a and cb = comp b in
      match op with
      | A.Add -> fun i -> Value.add (ca i) (cb i)
      | A.Sub -> fun i -> Value.sub (ca i) (cb i)
      | A.Mul -> fun i -> Value.mul (ca i) (cb i)
      | A.Div -> fun i -> Value.div (ca i) (cb i)
      | A.Mod -> fun i -> Value.modulo (ca i) (cb i)
      | A.Eq -> fun i -> Value.eq3 (ca i) (cb i)
      | A.Neq -> fun i -> Value.not3 (Value.eq3 (ca i) (cb i))
      | A.Lt -> fun i -> Exec.cmp_bool (ca i) (cb i) (fun c -> c < 0)
      | A.Le -> fun i -> Exec.cmp_bool (ca i) (cb i) (fun c -> c <= 0)
      | A.Gt -> fun i -> Exec.cmp_bool (ca i) (cb i) (fun c -> c > 0)
      | A.Ge -> fun i -> Exec.cmp_bool (ca i) (cb i) (fun c -> c >= 0)
      | A.And -> fun i -> Value.and3 (ca i) (cb i)
      | A.Or -> fun i -> Value.or3 (ca i) (cb i)
      | A.Concat -> (
          fun i ->
            match (Value.to_text (ca i), Value.to_text (cb i)) with
            | Some x, Some y -> Value.Str (x ^ y)
            | _ -> Value.Null)
      | A.IsDistinctFrom ->
          fun i -> Value.not3 (Value.not_distinct (ca i) (cb i))
      | A.IsNotDistinctFrom -> fun i -> Value.not_distinct (ca i) (cb i))
  | A.Un (A.Not, a) ->
      let ca = comp a in
      fun i -> Value.not3 (ca i)
  | A.Un (A.Neg, a) -> (
      let ca = comp a in
      fun i ->
        match ca i with
        | Value.Int x -> Value.Int (Int64.neg x)
        | Value.Float f -> Value.Float (-.f)
        | Value.Null -> Value.Null
        | _ -> Errors.type_mismatch "cannot negate non-number")
  | A.IsNull a ->
      let ca = comp a in
      fun i -> Value.Bool (Value.is_null (ca i))
  | A.IsNotNull a ->
      let ca = comp a in
      fun i -> Value.Bool (not (Value.is_null (ca i)))
  | A.In (a, es) ->
      let ca = comp a in
      let ces = List.map comp es in
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
      fun i ->
        let rec go = function
          | [] -> ( match celse with Some ce -> ce i | None -> Value.Null)
          | (cc, cr) :: rest -> if Value.is_true (cc i) then cr i else go rest
        in
        go cbs
  | A.Cast (a, ty) ->
      let ca = comp a in
      fun i -> Value.cast ty (ca i)
  | A.Fun (f, args) ->
      let cargs = List.map comp args in
      fun i -> Exec.scalar_fun f (List.map (fun ca -> ca i) cargs)
  | A.Like (a, p) -> (
      let ca = comp a in
      match p with
      | A.Lit (A.Str pat) ->
          (* the pattern compiles once per query, not once per row *)
          let matcher = Exec.compile_like pat in
          fun i -> (
            match ca i with
            | Value.Null -> Value.Null
            | Value.Str s -> Value.Bool (matcher s)
            | _ -> Errors.type_mismatch "LIKE expects text operands")
      | _ ->
          let cp = comp p in
          fun i -> (
            match (ca i, cp i) with
            | Value.Null, _ | _, Value.Null -> Value.Null
            | Value.Str s, Value.Str pat -> Value.Bool (Exec.like_match s pat)
            | _ -> Errors.type_mismatch "LIKE expects text operands"))

(* ------------------------------------------------------------------ *)
(* Filter kernels                                                      *)
(* ------------------------------------------------------------------ *)

(* a filter kernel narrows a selection vector *)
type kernel = Batch.sel -> Batch.sel

let filter_sel (sel : Batch.sel) (pred : int -> bool) : Batch.sel =
  let n = Array.length sel in
  let out = Array.make n 0 in
  let k = ref 0 in
  for t = 0 to n - 1 do
    let i = Array.unsafe_get sel t in
    if pred i then begin
      Array.unsafe_set out !k i;
      incr k
    end
  done;
  if !k = n then sel else Array.sub out 0 !k

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

(* comparison against a literal, specialized per column representation.
   Exactness: Value.compare3 compares same-type ints with Int64.compare,
   same-type strings with String.compare, and any other numeric-ish
   pair through to_float/Float.compare — each arm below applies exactly
   that conversion, so NaN ordering and int64→float rounding match the
   row path bit for bit. Anything else (DVal columns, cross-kind pairs
   compare3 rejects) stays on the generic closure, which raises the same
   errors the row path would. *)
let cmp_kernel (c : Batch.column) (op : A.binop) (l : A.lit) : kernel option =
  match cmp_test op with
  | None -> None
  | Some test -> (
      let null i = Batch.is_null c i in
      match (c.Batch.data, l) with
      | _, A.Null -> Some (fun _ -> [||])
      | Batch.DInt a, A.Int lit ->
          Some
            (fun sel ->
              filter_sel sel (fun i ->
                  (not (null i)) && test (Int64.compare a.(i) lit)))
      | Batch.DInt a, (A.Float _ | A.Bool _) ->
          let f =
            match l with
            | A.Float f -> f
            | A.Bool b -> if b then 1.0 else 0.0
            | _ -> 0.0
          in
          Some
            (fun sel ->
              filter_sel sel (fun i ->
                  (not (null i))
                  && test (Float.compare (Int64.to_float a.(i)) f)))
      | Batch.DFloat a, (A.Int _ | A.Float _ | A.Bool _) ->
          let f =
            match l with
            | A.Int i -> Int64.to_float i
            | A.Float f -> f
            | A.Bool b -> if b then 1.0 else 0.0
            | _ -> 0.0
          in
          Some
            (fun sel ->
              filter_sel sel (fun i ->
                  (not (null i)) && test (Float.compare a.(i) f)))
      | Batch.DStr a, A.Str lit ->
          Some
            (fun sel ->
              filter_sel sel (fun i ->
                  (not (null i)) && test (String.compare a.(i) lit)))
      | _ -> None)

(* IN over a literal list, specialized when the column representation
   guarantees compare3 cannot raise against any list element. In WHERE
   position both [false] and [NULL] (null in the list, no match) drop
   the row, so survival is exactly "some element compares equal". *)
let in_kernel (c : Batch.column) (lits : A.lit list) : kernel option =
  let null i = Batch.is_null c i in
  let non_null = List.filter (fun l -> l <> A.Null) lits in
  let numeric_only =
    List.for_all
      (function A.Int _ | A.Float _ | A.Bool _ -> true | _ -> false)
      non_null
  in
  let str_only =
    List.for_all (function A.Str _ -> true | _ -> false) non_null
  in
  match c.Batch.data with
  | Batch.DInt a when numeric_only ->
      let tests =
        List.map
          (function
            | A.Int i -> fun (v : int64) -> Int64.compare v i = 0
            | A.Float f -> fun v -> Float.compare (Int64.to_float v) f = 0
            | A.Bool b ->
                let f = if b then 1.0 else 0.0 in
                fun v -> Float.compare (Int64.to_float v) f = 0
            | _ -> fun _ -> false)
          non_null
      in
      Some
        (fun sel ->
          filter_sel sel (fun i ->
              (not (null i)) && List.exists (fun t -> t a.(i)) tests))
  | Batch.DFloat a when numeric_only ->
      let vals =
        List.map
          (function
            | A.Int i -> Int64.to_float i
            | A.Float f -> f
            | A.Bool b -> if b then 1.0 else 0.0
            | _ -> 0.0)
          non_null
      in
      Some
        (fun sel ->
          filter_sel sel (fun i ->
              (not (null i))
              && List.exists (fun f -> Float.compare a.(i) f = 0) vals))
  | Batch.DStr a when str_only ->
      let vals =
        List.filter_map (function A.Str s -> Some s | _ -> None) non_null
      in
      Some
        (fun sel ->
          filter_sel sel (fun i ->
              (not (null i)) && List.exists (String.equal a.(i)) vals))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Batch expression evaluation                                         *)
(* ------------------------------------------------------------------ *)

(* Whole-column evaluation of scalar expressions: instead of calling a
   compiled closure once per surviving index (boxing a Value.t at every
   node of the expression per row), supported expressions compile to
   kernels that fill a typed output vector for the whole selection in
   one monomorphic loop per operator.

   Only operations that can never raise are admitted — arithmetic over
   int64/float columns (add/sub/mul; div and mod raise on zero and stay
   on the closure path), same-representation comparisons, 3VL boolean
   combinators, IS [NOT] NULL — so evaluating operands column-at-a-time
   instead of row-at-a-time cannot reorder an error the row path would
   have raised. Null bitmaps propagate exactly as the row path's
   null-propagating Value ops do. *)

(* a sel-aligned result vector: slot [t] holds the value for base row
   [sel.(t)]; [rnulls] is a packed bitmap over slots (empty = none) *)
type vvec =
  | VInt of int64 array
  | VFloat of float array
  | VStr of string array
  | VBool of bool array

type vres = { rdata : vvec; rnulls : Bytes.t }

(* static result representation, decided at compile time so runtime
   dispatch on operand vectors can never fail *)
type vty = TInt | TFloat | TStr | TBool

type vkernel = Batch.sel -> vres

let vnull_empty = Batch.no_nulls
let vnull_is (b : Bytes.t) t = Bytes.length b > 0 && Batch.bit_get b t

let vnull_make n = Bytes.make ((n + 7) / 8) '\000'

(* union of two null bitmaps (3VL null propagation for strict ops) *)
let vnull_union n (a : Bytes.t) (b : Bytes.t) : Bytes.t =
  if Bytes.length a = 0 then b
  else if Bytes.length b = 0 then a
  else begin
    let out = vnull_make n in
    for t = 0 to n - 1 do
      if vnull_is a t || vnull_is b t then Batch.bit_set out t
    done;
    out
  end

(* lift a base column into a sel-aligned vector *)
let vload (c : Batch.column) : (vty * vkernel) option =
  let pull_nulls sel =
    if not c.Batch.has_nulls then vnull_empty
    else begin
      let n = Array.length sel in
      let b = vnull_make n in
      let any = ref false in
      for t = 0 to n - 1 do
        if Batch.is_null c sel.(t) then begin
          Batch.bit_set b t;
          any := true
        end
      done;
      if !any then b else vnull_empty
    end
  in
  match c.Batch.data with
  | Batch.DInt a ->
      Some
        ( TInt,
          fun sel ->
            {
              rdata =
                VInt
                  (Array.init (Array.length sel) (fun t ->
                       Array.unsafe_get a (Array.unsafe_get sel t)));
              rnulls = pull_nulls sel;
            } )
  | Batch.DFloat a ->
      Some
        ( TFloat,
          fun sel ->
            {
              rdata =
                VFloat
                  (Array.init (Array.length sel) (fun t ->
                       Array.unsafe_get a (Array.unsafe_get sel t)));
              rnulls = pull_nulls sel;
            } )
  | Batch.DStr a ->
      Some
        ( TStr,
          fun sel ->
            {
              rdata =
                VStr
                  (Array.init (Array.length sel) (fun t ->
                       Array.unsafe_get a (Array.unsafe_get sel t)));
              rnulls = pull_nulls sel;
            } )
  | Batch.DVal _ -> None

let vlit (l : A.lit) : (vty * vkernel) option =
  match l with
  | A.Int v ->
      Some
        ( TInt,
          fun sel ->
            { rdata = VInt (Array.make (Array.length sel) v); rnulls = vnull_empty }
        )
  | A.Float v ->
      Some
        ( TFloat,
          fun sel ->
            {
              rdata = VFloat (Array.make (Array.length sel) v);
              rnulls = vnull_empty;
            } )
  | A.Str v ->
      Some
        ( TStr,
          fun sel ->
            { rdata = VStr (Array.make (Array.length sel) v); rnulls = vnull_empty }
        )
  | A.Bool v ->
      Some
        ( TBool,
          fun sel ->
            {
              rdata = VBool (Array.make (Array.length sel) v);
              rnulls = vnull_empty;
            } )
  | A.Null -> None

let as_float = function
  | VInt a -> Array.map Int64.to_float a
  | VFloat a -> a
  | _ -> invalid_arg "vexec: kernel type confusion"

(* int64/float arithmetic; Value.add/sub/mul on Int×Int use the Int64
   op, any int/float mix converts through to_float — both mirrored *)
let varith (op : A.binop) (ta, ka) (tb, kb) : (vty * vkernel) option =
  let iop, fop =
    match op with
    | A.Add -> (Some Int64.add, ( +. ))
    | A.Sub -> (Some Int64.sub, ( -. ))
    | A.Mul -> (Some Int64.mul, ( *. ))
    | _ -> (None, ( +. ))
  in
  match (iop, ta, tb) with
  | None, _, _ -> None
  | Some iop, TInt, TInt ->
      Some
        ( TInt,
          fun sel ->
            let a = ka sel and b = kb sel in
            let av = match a.rdata with VInt v -> v | _ -> [||] in
            let bv = match b.rdata with VInt v -> v | _ -> [||] in
            {
              rdata = VInt (Array.init (Array.length av) (fun t -> iop av.(t) bv.(t)));
              rnulls = vnull_union (Array.length av) a.rnulls b.rnulls;
            } )
  | Some _, (TInt | TFloat), (TInt | TFloat) ->
      Some
        ( TFloat,
          fun sel ->
            let a = ka sel and b = kb sel in
            let av = as_float a.rdata and bv = as_float b.rdata in
            {
              rdata =
                VFloat (Array.init (Array.length av) (fun t -> fop av.(t) bv.(t)));
              rnulls = vnull_union (Array.length av) a.rnulls b.rnulls;
            } )
  | _ -> None

(* same-representation comparisons, with the exact compare each
   Value.compare3 arm applies: Int64.compare for int/int,
   String.compare for str/str, Stdlib.compare for bool/bool, and
   float compare after to_float for any int/float mix *)
let vcompare (op : A.binop) (ta, ka) (tb, kb) : (vty * vkernel) option =
  match cmp_test op with
  | None -> None
  | Some test ->
      let mk cmp =
        Some
          ( TBool,
            fun sel ->
              let a = ka sel and b = kb sel in
              let n = Array.length sel in
              {
                rdata = VBool (Array.init n (fun t -> test (cmp a.rdata b.rdata t)));
                rnulls = vnull_union n a.rnulls b.rnulls;
              } )
      in
      (match (ta, tb) with
      | TInt, TInt ->
          mk (fun a b t ->
              match (a, b) with
              | VInt x, VInt y -> Int64.compare x.(t) y.(t)
              | _ -> invalid_arg "vexec: kernel type confusion")
      | TStr, TStr ->
          mk (fun a b t ->
              match (a, b) with
              | VStr x, VStr y -> String.compare x.(t) y.(t)
              | _ -> invalid_arg "vexec: kernel type confusion")
      | TBool, TBool ->
          mk (fun a b t ->
              match (a, b) with
              | VBool x, VBool y -> Stdlib.compare x.(t) y.(t)
              | _ -> invalid_arg "vexec: kernel type confusion")
      | (TInt | TFloat), (TInt | TFloat) ->
          mk (fun a b t -> Float.compare (as_float a).(t) (as_float b).(t))
      | _ -> None)

let rec compile_vec (bindings : Exec.binding list)
    (cols : Batch.column array) (e : A.expr) : (vty * vkernel) option =
  let comp e = compile_vec bindings cols e in
  match e with
  | A.Col (q, c) -> vload cols.(Exec.find_binding bindings q c)
  | A.Lit l -> vlit l
  | A.Bin ((A.Add | A.Sub | A.Mul) as op, a, b) -> (
      match (comp a, comp b) with
      | Some ca, Some cb -> varith op ca cb
      | _ -> None)
  | A.Bin ((A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge) as op, a, b) -> (
      match (comp a, comp b) with
      | Some ca, Some cb -> vcompare op ca cb
      | _ -> None)
  | A.Bin (A.And, a, b) -> (
      (* 3VL conjunction: false dominates null (Value.and3); both sides
         are whole-column evaluated, matching the row path's closure
         which evaluates both operands unconditionally *)
      match (comp a, comp b) with
      | Some (TBool, ka), Some (TBool, kb) ->
          Some
            ( TBool,
              fun sel ->
                let a = ka sel and b = kb sel in
                let n = Array.length sel in
                let av = match a.rdata with VBool v -> v | _ -> [||] in
                let bv = match b.rdata with VBool v -> v | _ -> [||] in
                let out = Array.make n false in
                let nulls = ref vnull_empty in
                for t = 0 to n - 1 do
                  let an = vnull_is a.rnulls t and bn = vnull_is b.rnulls t in
                  let fa = (not an) && not av.(t)
                  and fb = (not bn) && not bv.(t) in
                  if fa || fb then () (* false *)
                  else if an || bn then begin
                    if Bytes.length !nulls = 0 then nulls := vnull_make n;
                    Batch.bit_set !nulls t
                  end
                  else out.(t) <- true
                done;
                { rdata = VBool out; rnulls = !nulls } )
      | _ -> None)
  | A.Bin (A.Or, a, b) -> (
      match (comp a, comp b) with
      | Some (TBool, ka), Some (TBool, kb) ->
          Some
            ( TBool,
              fun sel ->
                let a = ka sel and b = kb sel in
                let n = Array.length sel in
                let av = match a.rdata with VBool v -> v | _ -> [||] in
                let bv = match b.rdata with VBool v -> v | _ -> [||] in
                let out = Array.make n false in
                let nulls = ref vnull_empty in
                for t = 0 to n - 1 do
                  let an = vnull_is a.rnulls t and bn = vnull_is b.rnulls t in
                  let ta_ = (not an) && av.(t) and tb_ = (not bn) && bv.(t) in
                  if ta_ || tb_ then out.(t) <- true
                  else if an || bn then begin
                    if Bytes.length !nulls = 0 then nulls := vnull_make n;
                    Batch.bit_set !nulls t
                  end
                done;
                { rdata = VBool out; rnulls = !nulls } )
      | _ -> None)
  | A.Un (A.Not, a) -> (
      match comp a with
      | Some (TBool, ka) ->
          Some
            ( TBool,
              fun sel ->
                let r = ka sel in
                let av = match r.rdata with VBool v -> v | _ -> [||] in
                { rdata = VBool (Array.map not av); rnulls = r.rnulls } )
      | _ -> None)
  | A.IsNull a -> (
      match comp a with
      | Some (_, ka) ->
          Some
            ( TBool,
              fun sel ->
                let r = ka sel in
                {
                  rdata =
                    VBool
                      (Array.init (Array.length sel) (fun t ->
                           vnull_is r.rnulls t));
                  rnulls = vnull_empty;
                } )
      | None -> None)
  | A.IsNotNull a -> (
      match comp a with
      | Some (_, ka) ->
          Some
            ( TBool,
              fun sel ->
                let r = ka sel in
                {
                  rdata =
                    VBool
                      (Array.init (Array.length sel) (fun t ->
                           not (vnull_is r.rnulls t)));
                  rnulls = vnull_empty;
                } )
      | None -> None)
  | A.Between (a, lo, hi) ->
      (* a >= lo AND a <= hi, exactly how compile_expr stages it (both
         bounds evaluated; 3VL and3 combines) — expressed on the vector
         algebra so each leg is one comparison loop *)
      compile_vec bindings cols
        (A.Bin (A.And, A.Bin (A.Ge, a, lo), A.Bin (A.Le, a, hi)))
  | _ -> None

(* a WHERE conjunct compiled whole-column: survivors are slots whose
   boolean is true and not null (3VL reject on null, as the row path) *)
let vec_filter_kernel (bindings : Exec.binding list)
    (cols : Batch.column array) (e : A.expr) : kernel option =
  match compile_vec bindings cols e with
  | Some (TBool, vk) ->
      Some
        (fun sel ->
          let r = vk sel in
          let bv = match r.rdata with VBool v -> v | _ -> [||] in
          let n = Array.length sel in
          let out = Array.make n 0 in
          let k = ref 0 in
          for t = 0 to n - 1 do
            if Array.unsafe_get bv t && not (vnull_is r.rnulls t) then begin
              Array.unsafe_set out !k (Array.unsafe_get sel t);
              incr k
            end
          done;
          if !k = n then sel else Array.sub out 0 !k)
  | _ -> None

(* compile one WHERE conjunct to a kernel: a typed no-box kernel when
   the shape and column representation allow, a compiled-closure test
   otherwise *)
let compile_conjunct (bindings : Exec.binding list)
    (cols : Batch.column array) (e : A.expr) : kernel =
  let col q c = cols.(Exec.find_binding bindings q c) in
  let special =
    match e with
    | A.Bin (op, A.Col (q, c), A.Lit l) -> cmp_kernel (col q c) op l
    | A.Bin (op, A.Lit l, A.Col (q, c)) -> cmp_kernel (col q c) (flip_op op) l
    | A.Between (A.Col (q, c), A.Lit lo, A.Lit hi) -> (
        (* staging as two kernels is safe only when both comparisons are
           guaranteed non-raising, which is what cmp_kernel certifies *)
        let cc = col q c in
        match (cmp_kernel cc A.Ge lo, cmp_kernel cc A.Le hi) with
        | Some klo, Some khi -> Some (fun sel -> khi (klo sel))
        | _ -> None)
    | A.In (A.Col (q, c), es)
      when List.for_all (function A.Lit _ -> true | _ -> false) es ->
        in_kernel (col q c)
          (List.filter_map (function A.Lit l -> Some l | _ -> None) es)
    | A.Like (A.Col (q, c), A.Lit (A.Str pat)) -> (
        let cc = col q c in
        match cc.Batch.data with
        | Batch.DStr a ->
            let matcher = Exec.compile_like pat in
            Some
              (fun sel ->
                filter_sel sel (fun i ->
                    (not (Batch.is_null cc i)) && matcher a.(i)))
        | _ -> None)
    | _ -> None
  in
  match special with
  | Some k -> k
  | None -> (
      (* batch expression evaluation: whole-column kernels when every
         node of the conjunct is a non-raising typed operation *)
      match vec_filter_kernel bindings cols e with
      | Some k -> k
      | None ->
          let ce = compile_expr bindings cols e in
          fun sel -> filter_sel sel (fun i -> Value.is_true (ce i)))

(* ------------------------------------------------------------------ *)
(* Aggregate compilation                                               *)
(* ------------------------------------------------------------------ *)

(* a compiled aggregate-context expression: evaluate over one group's
   base-batch row indices (in row order) *)
type caggexpr = int array -> Value.t

(* streaming accumulators for the hot aggregates, replicating
   {!Exec.apply_agg} exactly: sum tracks the all-int flag alongside an
   int64 and a left-folded float accumulator; min/max fold with
   compare_total keeping the earlier value on ties; count counts
   non-nulls. Everything else collects the values and calls apply_agg
   itself, so the long tail shares one implementation. *)
let streaming_agg (name : string) (ce : cexpr) : caggexpr option =
  match name with
  | "count" ->
      Some
        (fun g ->
          let n = ref 0 in
          Array.iter (fun i -> if not (Value.is_null (ce i)) then incr n) g;
          Value.Int (Int64.of_int !n))
  | "sum" ->
      Some
        (fun g ->
          let any = ref false and all_int = ref true in
          let isum = ref 0L and fsum = ref 0.0 in
          Array.iter
            (fun i ->
              match ce i with
              | Value.Null -> ()
              | Value.Int x ->
                  any := true;
                  isum := Int64.add !isum x;
                  fsum := !fsum +. Int64.to_float x
              | v ->
                  any := true;
                  all_int := false;
                  fsum :=
                    !fsum
                    +. (match Value.to_float v with Some f -> f | None -> 0.0))
            g;
          if not !any then Value.Null
          else if !all_int then Value.Int !isum
          else Value.Float !fsum)
  | "avg" ->
      Some
        (fun g ->
          let n = ref 0 and fsum = ref 0.0 in
          Array.iter
            (fun i ->
              match ce i with
              | Value.Null -> ()
              | v ->
                  incr n;
                  fsum :=
                    !fsum
                    +. (match Value.to_float v with Some f -> f | None -> 0.0))
            g;
          if !n = 0 then Value.Null
          else Value.Float (!fsum /. float_of_int !n))
  | "min" ->
      Some
        (fun g ->
          let acc = ref Value.Null in
          Array.iter
            (fun i ->
              let v = ce i in
              if not (Value.is_null v) then
                match !acc with
                | Value.Null -> acc := v
                | a -> if Value.compare_total v a < 0 then acc := v)
            g;
          !acc)
  | "max" ->
      Some
        (fun g ->
          let acc = ref Value.Null in
          Array.iter
            (fun i ->
              let v = ce i in
              if not (Value.is_null v) then
                match !acc with
                | Value.Null -> acc := v
                | a -> if Value.compare_total v a > 0 then acc := v)
            g;
          !acc)
  | _ -> None

(* mirror of {!Exec.eval_agg_expr} over compiled closures; the Bin/Un
   arms rebuild the two-literal expression and hand it to the row
   path's own evaluator, so its coercion quirks (Date/Time/Timestamp
   flattening through lit_of) are inherited, not re-implemented *)
let rec compile_agg_expr (bindings : Exec.binding list)
    (cols : Batch.column array) (e : A.expr) : caggexpr =
  let comp e = compile_agg_expr bindings cols e in
  match e with
  | A.Agg { agg_name; distinct; args } -> (
      match args with
      | [ A.Star ] | [] -> fun g -> Value.Int (Int64.of_int (Array.length g))
      | [ arg ] -> (
          let ce = compile_expr bindings cols arg in
          let stream =
            if distinct then None
            else streaming_agg (String.lowercase_ascii agg_name) ce
          in
          match stream with
          | Some f -> f
          | None ->
              fun g ->
                Exec.apply_agg agg_name distinct
                  (Array.to_list (Array.map ce g)))
      | _ -> raise Fallback)
  | A.Bin (op, a, b) ->
      let ca = comp a and cb = comp b in
      fun g ->
        let va = ca g in
        let vb = cb g in
        Exec.eval_expr (empty_ctx ()) [||] 0
          (A.Bin (op, A.Lit (Exec.lit_of va), A.Lit (Exec.lit_of vb)))
  | A.Un (op, a) ->
      let ca = comp a in
      fun g ->
        Exec.eval_expr (empty_ctx ()) [||] 0
          (A.Un (op, A.Lit (Exec.lit_of (ca g))))
  | A.Cast (a, ty) ->
      let ca = comp a in
      fun g -> Value.cast ty (ca g)
  | A.Fun (f, args) when Exec.expr_has_agg e ->
      let cargs = List.map comp args in
      fun g -> Exec.scalar_fun f (List.map (fun ca -> ca g) cargs)
  | A.IsNull a when Exec.expr_has_agg e ->
      let ca = comp a in
      fun g -> Value.Bool (Value.is_null (ca g))
  | A.IsNotNull a when Exec.expr_has_agg e ->
      let ca = comp a in
      fun g -> Value.Bool (not (Value.is_null (ca g)))
  | A.Case (branches, else_) when Exec.expr_has_agg e ->
      let cbs = List.map (fun (c, r) -> (comp c, comp r)) branches in
      let celse = Option.map comp else_ in
      fun g ->
        let rec go = function
          | [] -> ( match celse with Some ce -> ce g | None -> Value.Null)
          | (cc, cr) :: rest -> if Value.is_true (cc g) then cr g else go rest
        in
        go cbs
  | A.Between (a, lo, hi) when Exec.expr_has_agg e ->
      let ca = comp a and clo = comp lo and chi = comp hi in
      fun g ->
        let v = ca g in
        let vlo = clo g in
        let vhi = chi g in
        Value.and3
          (Exec.cmp_bool v vlo (fun c -> c >= 0))
          (Exec.cmp_bool v vhi (fun c -> c <= 0))
  | (A.In _ | A.Like _) when Exec.expr_has_agg e ->
      (* row path: feature_not_supported, raised per evaluated group *)
      raise Fallback
  | e ->
      let ce = compile_expr bindings cols e in
      fun g ->
        if Array.length g = 0 then (
          try Exec.eval_expr (empty_ctx ()) [||] 0 e with _ -> Value.Null)
        else ce g.(0)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  vr_result : Exec.result;
  vr_plan : Opstats.node option; (* operator tree, when collect was on *)
}

(* the ORDER BY comparator, verbatim from the row path *)
let order_cmp (order_by : (A.expr * A.direction) list) (k1 : Value.t list)
    (k2 : Value.t list) : int =
  let rec go ks1 ks2 dirs =
    match (ks1, ks2, dirs) with
    | [], [], _ -> 0
    | a :: r1, b :: r2, (_, d) :: rd ->
        let c = Value.compare_total a b in
        let c = match d with A.Asc -> c | A.Desc -> -c in
        if c <> 0 then c else go r1 r2 rd
    | _ -> 0
  in
  go k1 k2 order_by

(* ------------------------------------------------------------------ *)
(* FROM planning: base tables and vectorized hash joins                *)
(* ------------------------------------------------------------------ *)

(* join output accumulator: parallel growable index vectors, probe-side
   and build-side. A build slot of -1 marks a left-outer null pad. *)
type pair_acc = {
  mutable pa_l : int array;
  mutable pa_r : int array;
  mutable pa_n : int;
}

let pair_acc () = { pa_l = Array.make 256 0; pa_r = Array.make 256 0; pa_n = 0 }

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

(* Vectorized hash join over two batches on extracted equality pairs
   [(left col, right col, null_safe)]: build on the right, probe with
   the left in row order, exactly the row path's [Exec.eval_join] hash
   branch. Buckets hold right-row indices in ascending order (the row
   path prepends then reverses); a plain (non-null-safe) key never
   matches NULL on either side, a null-safe key treats NULL as a value.
   Key equality is the row path's: equality of the displayed key tuple
   — the typed single-key fast paths below are exact refinements
   (distinct int64s/strings have distinct displays). *)
let hash_join_idx (l : Batch.t) (r : Batch.t)
    (equi : (int * int * bool) list) ~(left_outer : bool) :
    int array * int array =
  let out = pair_acc () in
  (match equi with
  | [ (li, ri, null_safe) ]
    when (match (l.Batch.cols.(li).Batch.data, r.Batch.cols.(ri).Batch.data) with
         | Batch.DInt _, Batch.DInt _ | Batch.DStr _, Batch.DStr _ -> true
         | _ -> false) ->
      (* single typed key: hash the unboxed payloads directly *)
      let lc = l.Batch.cols.(li) and rc = r.Batch.cols.(ri) in
      let null_bucket : int list ref = ref [] in
      let probe_bucket find =
        for i = 0 to l.Batch.nrows - 1 do
          let matches =
            if Batch.is_null lc i then
              if null_safe then List.rev !null_bucket else []
            else find i
          in
          match matches with
          | [] -> if left_outer then pair_emit out i (-1)
          | js -> List.iter (fun j -> pair_emit out i j) js
        done
      in
      (match (lc.Batch.data, rc.Batch.data) with
      | Batch.DInt la, Batch.DInt ra ->
          let tbl : (int64, int list ref) Hashtbl.t =
            Hashtbl.create (Stdlib.max 16 r.Batch.nrows)
          in
          for j = 0 to r.Batch.nrows - 1 do
            if Batch.is_null rc j then begin
              if null_safe then null_bucket := j :: !null_bucket
            end
            else
              let k = Array.unsafe_get ra j in
              match Hashtbl.find_opt tbl k with
              | Some lst -> lst := j :: !lst
              | None -> Hashtbl.add tbl k (ref [ j ])
          done;
          probe_bucket (fun i ->
              match Hashtbl.find_opt tbl (Array.unsafe_get la i) with
              | Some lst -> List.rev !lst
              | None -> [])
      | Batch.DStr la, Batch.DStr ra ->
          let tbl : (string, int list ref) Hashtbl.t =
            Hashtbl.create (Stdlib.max 16 r.Batch.nrows)
          in
          for j = 0 to r.Batch.nrows - 1 do
            if Batch.is_null rc j then begin
              if null_safe then null_bucket := j :: !null_bucket
            end
            else
              let k = Array.unsafe_get ra j in
              match Hashtbl.find_opt tbl k with
              | Some lst -> lst := j :: !lst
              | None -> Hashtbl.add tbl k (ref [ j ])
          done;
          probe_bucket (fun i ->
              match Hashtbl.find_opt tbl (Array.unsafe_get la i) with
              | Some lst -> List.rev !lst
              | None -> [])
      | _ -> assert false)
  | _ ->
      (* general case: display-string key tuple, the row path's own key
         function, so multi-key and float/calendar columns match
         byte-identically *)
      let lcols = List.map (fun (li, _, _) -> l.Batch.cols.(li)) equi in
      let rcols = List.map (fun (_, ri, _) -> r.Batch.cols.(ri)) equi in
      let safes = List.map (fun (_, _, ns) -> ns) equi in
      let ok cols i =
        List.for_all2 (fun c ns -> ns || not (Batch.is_null c i)) cols safes
      in
      let key cols i =
        String.concat "\x00"
          (List.map (fun c -> Value.to_display (Batch.value_at c i)) cols)
      in
      let tbl : (string, int list ref) Hashtbl.t =
        Hashtbl.create (Stdlib.max 16 r.Batch.nrows)
      in
      for j = 0 to r.Batch.nrows - 1 do
        if ok rcols j then
          let k = key rcols j in
          match Hashtbl.find_opt tbl k with
          | Some lst -> lst := j :: !lst
          | None -> Hashtbl.add tbl k (ref [ j ])
      done;
      for i = 0 to l.Batch.nrows - 1 do
        let matches =
          if not (ok lcols i) then []
          else
            match Hashtbl.find_opt tbl (key lcols i) with
            | Some lst -> List.rev !lst
            | None -> []
        in
        match matches with
        | [] -> if left_outer then pair_emit out i (-1)
        | js -> List.iter (fun j -> pair_emit out i j) js
      done);
  (Array.sub out.pa_l 0 out.pa_n, Array.sub out.pa_r 0 out.pa_n)

(* Lower a FROM tree: base tables resolve to their cached batches;
   INNER/LEFT JOINs whose ON clause is entirely extractable equality
   conjuncts run the vectorized hash join and materialize the joined
   batch by gathering both sides' columns through the index pair.
   Cross joins, ON residuals (non-equi or single-side conjuncts), and
   subquery/union sources raise [Fallback] — the row interpreter stays
   authoritative there. Analysis (resolution, equi extraction) happens
   eagerly so unsupported shapes fall back before any join runs; the
   returned thunk does the data work. *)
let rec plan_from ~(resolve : string -> (Exec.binding list * Batch.t) option)
    ~(collect : bool) (f : A.from_item) :
    Exec.binding list * string * (unit -> Batch.t * Opstats.node option) =
  match f with
  | A.TableRef (name, alias) -> (
      match resolve name with
      | None -> raise Fallback
      | Some (base_bindings, batch) ->
          (* qualify bindings exactly like eval_from's TableRef arm *)
          let qual = match alias with Some a -> Some a | None -> Some name in
          let bindings =
            List.map (fun b -> { b with Exec.b_qual = qual }) base_bindings
          in
          ( bindings,
            name,
            fun () ->
              let node =
                if collect then
                  let n = batch.Batch.nrows in
                  Some
                    (Opstats.make ~op:"vector_scan" ~detail:name ~est_rows:n
                       ~rows_in:n ~rows_out:n ~self_ns:0L ~children:[])
                else None
              in
              (batch, node) ))
  | A.JoinItem { jkind; left; right; on } ->
      let left_outer =
        match jkind with
        | `Left -> true
        | `Inner -> false
        | `Cross -> raise Fallback
      in
      let lb, lname, lrun = plan_from ~resolve ~collect left in
      let rb, rname, rrun = plan_from ~resolve ~collect right in
      (* extract equality conjuncts with the row path's exact pattern;
         anything it would treat as a residual falls back instead *)
      let equi =
        match on with
        | None -> raise Fallback
        | Some e ->
            List.map
              (fun conj ->
                match conj with
                | A.Bin
                    ( ((A.Eq | A.IsNotDistinctFrom) as op),
                      A.Col (ql, cl),
                      A.Col (qr, cr) ) ->
                    let null_safe = op = A.IsNotDistinctFrom in
                    if Exec.side_of lb ql cl && Exec.side_of rb qr cr then
                      ( Exec.find_binding lb ql cl,
                        Exec.find_binding rb qr cr,
                        null_safe )
                    else if Exec.side_of lb qr cr && Exec.side_of rb ql cl then
                      ( Exec.find_binding lb qr cr,
                        Exec.find_binding rb ql cl,
                        null_safe )
                    else raise Fallback
                | _ -> raise Fallback)
              (Exec.conjuncts e)
      in
      if equi = [] then raise Fallback;
      ( lb @ rb,
        lname ^ "\xe2\x8b\x88" ^ rname,
        fun () ->
          let lbatch, lnode = lrun () in
          let rbatch, rnode = rrun () in
          let t0 = if collect then Exec.now_ns () else 0L in
          let lidx, ridx = hash_join_idx lbatch rbatch equi ~left_outer in
          let npairs = Array.length lidx in
          let joined_cols =
            Array.append
              (Array.map (fun c -> Batch.gather c lidx) lbatch.Batch.cols)
              (Array.map (fun c -> Batch.gather c ridx) rbatch.Batch.cols)
          in
          let batch = { Batch.nrows = npairs; cols = joined_cols } in
          let node =
            if collect then begin
              let est_of = function
                | Some n -> n.Opstats.est_rows
                | None -> 1
              in
              (* hash equi-joins estimated as max(inputs), like the row
                 path's hash_join node *)
              let est = Stdlib.max (est_of lnode) (est_of rnode) in
              let kind = if left_outer then "left" else "inner" in
              Some
                (Opstats.make ~op:"vector_hash_join"
                   ~detail:
                     (Printf.sprintf "%s build=%d probe=%d" kind
                        rbatch.Batch.nrows lbatch.Batch.nrows)
                   ~est_rows:est
                   ~rows_in:(lbatch.Batch.nrows + rbatch.Batch.nrows)
                   ~rows_out:npairs
                   ~self_ns:(Int64.sub (Exec.now_ns ()) t0)
                   ~children:(List.filter_map Fun.id [ lnode; rnode ]))
            end
            else None
          in
          (batch, node) )
  | A.SubqueryRef _ | A.UnionRef _ -> raise Fallback

let try_run ~(resolve : string -> (Exec.binding list * Batch.t) option)
    ~(collect : bool) (s : A.select) : outcome option =
  match s.A.from with
  | None -> None
  | Some from_item -> (
      try
        if s.A.distinct then raise Fallback;
        (* ---- plan: name resolution and shape checks only; no data is
           touched, so Fallback aborts with no side effects *)
        let bindings, src_name, run_src =
          plan_from ~resolve ~collect from_item
        in
        (* ---- run the source (a base-table lookup, or the hash join
           pipeline for JOIN trees) *)
        let batch, src_node = run_src () in
        let cols = batch.Batch.cols in
        let nrows = batch.Batch.nrows in
        let conjs =
          match s.A.where with
          | None -> []
          | Some w ->
              List.map
                (fun conj ->
                  let key = conjunct_key src_name conj in
                  ( conj,
                    key,
                    estimated_selectivity key,
                    compile_conjunct bindings cols conj ))
                (Exec.conjuncts w)
        in
            (* most-selective-first, stable on the EWMA estimate *)
            let conjs =
              List.stable_sort
                (fun (_, _, e1, _) (_, _, e2, _) -> Float.compare e1 e2)
                conjs
            in
            let projs =
              List.concat_map
                (fun p ->
                  match p.A.p_expr with
                  | A.Star ->
                      List.map
                        (fun b ->
                          {
                            A.p_expr = A.Col (b.Exec.b_qual, b.Exec.b_name);
                            p_alias = Some b.Exec.b_name;
                          })
                        bindings
                  | A.Col (Some q, "*") ->
                      bindings
                      |> List.filter (fun b -> b.Exec.b_qual = Some q)
                      |> List.map (fun b ->
                             {
                               A.p_expr = A.Col (b.Exec.b_qual, b.Exec.b_name);
                               p_alias = Some b.Exec.b_name;
                             })
                  | _ -> [ p ])
                s.A.projs
            in
            let has_agg =
              s.A.group_by <> []
              || List.exists (fun p -> Exec.expr_has_agg p.A.p_expr) projs
              ||
              match s.A.having with
              | Some h -> Exec.expr_has_agg h
              | None -> false
            in
            let out_names = List.mapi Exec.proj_name projs in
            (* opstats chain, mirroring the row path's push discipline *)
            let cur : Opstats.node option ref = ref None in
            let last_t = ref (if collect then Exec.now_ns () else 0L) in
            let lap () =
              let t = Exec.now_ns () in
              let d = Int64.sub t !last_t in
              last_t := t;
              if d < 0L then 0L else d
            in
            let cur_est () =
              match !cur with Some n -> n.Opstats.est_rows | None -> 1
            in
            let push ~op ~detail ~est_rows ~rows_in ~rows_out =
              if collect then begin
                let self_ns = lap () in
                let children =
                  match !cur with Some n -> [ n ] | None -> []
                in
                cur :=
                  Some
                    (Opstats.make ~op ~detail ~est_rows ~rows_in ~rows_out
                       ~self_ns ~children)
              end
            in
            (* ---- execute: the source node (scan, or a hash-join tree)
               seeds the chain; then filter* → agg/project → sort → limit *)
            if collect then begin
              cur := src_node;
              last_t := Exec.now_ns ()
            end;
            let selr = ref (Batch.all_rows nrows) in
            List.iter
              (fun (conj, key, est_sel, kernel) ->
                let before = Array.length !selr in
                selr := kernel !selr;
                let after = Array.length !selr in
                if before > 0 then
                  observe_selectivity key
                    (float_of_int after /. float_of_int before);
                push ~op:"vector_filter" ~detail:(A.expr_str conj)
                  ~est_rows:
                    (Stdlib.max 1
                       (int_of_float
                          (Float.round (est_sel *. float_of_int (cur_est ())))))
                  ~rows_in:before ~rows_out:after)
              conjs;
            let sel = !selr in
            let result =
              if has_agg then begin
                let ckeys =
                  List.map (compile_expr bindings cols) s.A.group_by
                in
                (* hashed grouping over selection-vector indices, groups
                   kept in first-encounter order (same as the row path) *)
                let groups : int array list =
                  if s.A.group_by = [] then [ Array.copy sel ]
                  else begin
                    let tbl : (Exec.gkey list, int list ref) Hashtbl.t =
                      Hashtbl.create 64
                    in
                    let acc : int list ref list ref = ref [] in
                    Array.iter
                      (fun i ->
                        let key = List.map (fun ce -> ce i) ckeys in
                        let hk = List.map Exec.gkey_of key in
                        match Hashtbl.find_opt tbl hk with
                        | Some l -> l := i :: !l
                        | None ->
                            let l = ref [ i ] in
                            Hashtbl.add tbl hk l;
                            acc := l :: !acc)
                      sel;
                    List.rev_map (fun l -> Array.of_list (List.rev !l)) !acc
                  end
                in
                let groups =
                  match s.A.having with
                  | None -> groups
                  | Some h ->
                      let ch = compile_agg_expr bindings cols h in
                      List.filter (fun g -> Value.is_true (ch g)) groups
                in
                let cprojs =
                  List.map
                    (fun p -> compile_agg_expr bindings cols p.A.p_expr)
                    projs
                in
                let out =
                  List.map
                    (fun g ->
                      Array.of_list (List.map (fun cp -> cp g) cprojs))
                    groups
                in
                let ckord =
                  List.map
                    (fun (e, _) ->
                      compile_agg_expr bindings cols
                        (Exec.subst_aliases projs out_names e))
                    s.A.order_by
                in
                let keys =
                  List.map (fun g -> List.map (fun ck -> ck g) ckord) groups
                in
                push ~op:"vector_hash_agg"
                  ~detail:
                    (if s.A.group_by = [] then "scalar"
                     else
                       Printf.sprintf "group by %d" (List.length s.A.group_by))
                  ~est_rows:
                    (if s.A.group_by = [] then 1
                     else Stdlib.max 1 (cur_est () / 10))
                  ~rows_in:(Array.length sel) ~rows_out:(List.length out);
                `Rows (List.combine out keys)
              end
              else begin
                let plain_cols =
                  List.map
                    (fun p ->
                      match p.A.p_expr with
                      | A.Col (q, c) -> Some (Exec.find_binding bindings q c)
                      | _ -> None)
                    projs
                in
                let ckord =
                  List.map
                    (fun (e, _) ->
                      compile_expr bindings cols
                        (Exec.subst_aliases projs out_names e))
                    s.A.order_by
                in
                let keys_of i = List.map (fun ck -> ck i) ckord in
                let n = Array.length sel in
                let rec all_plain = function
                  | [] -> Some []
                  | Some j :: rest ->
                      Option.map (fun js -> j :: js) (all_plain rest)
                  | None :: _ -> None
                in
                match (if projs = [] then None else all_plain plain_cols) with
                | Some col_idxs ->
                    (* all-column projection: a pure gather. Carry the
                       selection vector through sort/limit and gather the
                       output columns directly at the end *)
                    push ~op:"vector_project"
                      ~detail:(Printf.sprintf "%d cols" (List.length projs))
                      ~est_rows:(cur_est ()) ~rows_in:n ~rows_out:n;
                    `Gather
                      ( col_idxs,
                        List.map (fun i -> (i, keys_of i)) (Array.to_list sel)
                      )
                | None ->
                    let cprojs =
                      List.map
                        (fun p -> compile_expr bindings cols p.A.p_expr)
                        projs
                    in
                    let out =
                      List.map
                        (fun i ->
                          ( Array.of_list (List.map (fun cp -> cp i) cprojs),
                            keys_of i ))
                        (Array.to_list sel)
                    in
                    push ~op:"vector_project"
                      ~detail:(Printf.sprintf "%d cols" (List.length projs))
                      ~est_rows:(cur_est ()) ~rows_in:n ~rows_out:n;
                    `Rows out
              end
            in
            (* ---- ORDER BY / OFFSET / LIMIT, verbatim row-path logic
               over (payload, keys) pairs *)
            let sort_limit : 'a. ('a * Value.t list) list -> 'a list =
             fun pairs ->
              let pairs =
                if s.A.order_by = [] then pairs
                else
                  List.stable_sort
                    (fun (_, k1) (_, k2) -> order_cmp s.A.order_by k1 k2)
                    pairs
              in
              (if s.A.order_by <> [] then
                 let np = List.length pairs in
                 push ~op:"vector_sort"
                   ~detail:
                     (Printf.sprintf "%d keys" (List.length s.A.order_by))
                   ~est_rows:(cur_est ()) ~rows_in:np ~rows_out:np);
              let n_pre_limit = if collect then List.length pairs else 0 in
              let pairs =
                match s.A.offset with
                | Some n -> (
                    try List.filteri (fun i _ -> i >= n) pairs
                    with _ -> pairs)
                | None -> pairs
              in
              let pairs =
                match s.A.limit with
                | Some n -> List.filteri (fun i _ -> i < n) pairs
                | None -> pairs
              in
              (if s.A.limit <> None || s.A.offset <> None then
                 let detail =
                   String.concat " "
                     (List.filter
                        (fun x -> x <> "")
                        [
                          (match s.A.limit with
                          | Some n -> Printf.sprintf "limit %d" n
                          | None -> "");
                          (match s.A.offset with
                          | Some n -> Printf.sprintf "offset %d" n
                          | None -> "");
                        ])
                 in
                 let est =
                   let after_offset =
                     Stdlib.max 0
                       (cur_est ()
                       - match s.A.offset with Some o -> o | None -> 0)
                   in
                   match s.A.limit with
                   | Some n -> Stdlib.min n after_offset
                   | None -> after_offset
                 in
                 push ~op:"vector_limit" ~detail ~est_rows:est
                   ~rows_in:n_pre_limit ~rows_out:(List.length pairs));
              List.map fst pairs
            in
            let out_rows =
              match result with
              | `Rows pairs -> Array.of_list (sort_limit pairs)
              | `Gather (col_idxs, pairs) ->
                  (* plain column gather: read each output row straight
                     from the batch columns through the final selection *)
                  let src =
                    Array.of_list (List.map (fun j -> cols.(j)) col_idxs)
                  in
                  Array.map
                    (fun i -> Array.map (fun c -> Batch.value_at c i) src)
                    (Array.of_list (sort_limit pairs))
            in
            let types =
              List.mapi
                (fun i p ->
                  Exec.infer_col_type bindings out_rows i p.A.p_expr)
                projs
            in
            let res =
              {
                Exec.res_cols = List.combine out_names types;
                res_rows = out_rows;
              }
            in
            Atomic.incr stats_vector;
            Atomic.incr Exec.stats.Exec.selects_run;
            ignore
              (Atomic.fetch_and_add Exec.stats.Exec.rows_out
                 (Array.length out_rows));
            Some
              {
                vr_result = res;
                vr_plan = (if collect then !cur else None);
              }
      with Fallback -> None)
