(** The Q interpreter — our from-scratch kdb+ substrate.

    This is the executable reference semantics for the reproduction: the
    side-by-side testing framework (paper Section 5) compares Hyper-Q's
    translated SQL results against this interpreter, exactly as Datometry's
    QA compared against a real kdb+ server.

    Q functions do not close over enclosing locals: a lambda body sees its
    own parameters/locals and the global namespace only, which is why
    closures carry no environment. *)

open Qvalue
module Ast = Qlang.Ast
module Parser = Qlang.Parser

let type_err = Error.type_err
let rank_err = Error.rank_err
let value_err = Error.value_err

(* ------------------------------------------------------------------ *)
(* Runtime values                                                      *)
(* ------------------------------------------------------------------ *)

type rt =
  | V of Value.t
  | Closure of closure
  | Prim of string  (** a named primitive used as a value *)
  | Derived of rt * Ast.adverb  (** adverb-derived function *)
  | Projection of rt * rt option list
      (** partial application: [None] slots await arguments *)

and closure = { params : string list; body : Ast.expr list; source : string }

let to_value = function
  | V v -> v
  | Closure _ | Prim _ | Derived _ | Projection _ ->
      type_err "expected a data value"

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

type frame = (string, rt) Hashtbl.t

type env = {
  globals : frame;
  mutable locals : frame list;
      (* only the top frame is visible (no lexical nesting in Q) *)
  mutable cols : (string * Value.t) list list;
      (* q-sql column scopes, innermost first *)
  mutable seed : int64;  (* deterministic state for the roll verb (?) *)
}

let create () =
  { globals = Hashtbl.create 64; locals = []; cols = []; seed = 0x9E3779B9L }

let set_global env name rt = Hashtbl.replace env.globals name rt
let get_global env name = Hashtbl.find_opt env.globals name

let lookup env name : rt option =
  (* q-sql columns shadow everything *)
  let rec in_cols = function
    | [] -> None
    | frame :: rest -> (
        match List.assoc_opt name frame with
        | Some v -> Some (V v)
        | None -> in_cols rest)
  in
  match in_cols env.cols with
  | Some v -> Some v
  | None -> (
      match env.locals with
      | top :: _ when Hashtbl.mem top name -> Some (Hashtbl.find top name)
      | _ -> get_global env name)

let assign env name rt =
  match env.locals with
  | top :: _ -> Hashtbl.replace top name rt
  | [] -> set_global env name rt

(* deterministic xorshift for the roll verb *)
let next_rand env bound =
  let x = env.seed in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  env.seed <- x;
  Int64.to_int (Int64.rem (Int64.logand x Int64.max_int) (Int64.of_int bound))

exception Return_exc of rt

(* ------------------------------------------------------------------ *)
(* Primitive tables                                                    *)
(* ------------------------------------------------------------------ *)

let monadic_prims : (string * (env -> Value.t -> Value.t)) list Lazy.t =
  lazy
    [
      ("count", fun _ v -> Verbs.count_v v);
      ("til", fun _ v -> Value.til (Int64.to_int (Atom.to_long (match v with Value.Atom a -> a | _ -> type_err "til expects an atom"))));
      ("first", fun _ v -> Value.first v);
      ("last", fun _ v -> Value.last v);
      ("reverse", fun _ v -> Value.rev v);
      ("distinct", fun _ v -> Value.distinct v);
      ("where", fun _ v -> Value.where_ v);
      ("sum", fun _ v -> Verbs.sum_v v);
      ("prd", fun _ v -> Verbs.prd_v v);
      ("avg", fun _ v -> Verbs.avg_v v);
      ("min", fun _ v -> Verbs.min_agg v);
      ("max", fun _ v -> Verbs.max_agg v);
      ("med", fun _ v -> Verbs.med_v v);
      ("dev", fun _ v -> Verbs.dev_v v);
      ("var", fun _ v -> Verbs.var_v v);
      ("sums", fun _ v -> Verbs.sums v);
      ("prds", fun _ v -> Verbs.prds v);
      ("maxs", fun _ v -> Verbs.maxs v);
      ("mins", fun _ v -> Verbs.mins v);
      ("deltas", fun _ v -> Verbs.deltas v);
      ("ratios", fun _ v -> Verbs.ratios v);
      ("fills", fun _ v -> Verbs.fills v);
      ("neg", fun _ v -> Verbs.neg_v v);
      ("abs", fun _ v -> Verbs.abs_v v);
      ("sqrt", fun _ v -> Verbs.sqrt_v v);
      ("exp", fun _ v -> Verbs.exp_v v);
      ("log", fun _ v -> Verbs.log_v v);
      ("floor", fun _ v -> Verbs.floor_v v);
      ("ceiling", fun _ v -> Verbs.ceiling_v v);
      ("signum", fun _ v -> Verbs.signum v);
      ("null", fun _ v -> Verbs.null_v v);
      ("not", fun _ v -> Verbs.not_v v);
      ("group", fun _ v -> Value.group v);
      ("asc", fun _ v -> Value.asc v);
      ("desc", fun _ v -> Value.desc v);
      ("iasc", fun _ v -> Value.longs (Value.grade_up v));
      ("idesc", fun _ v -> Value.longs (Value.grade_down v));
      ("string", fun _ v -> Verbs.string_v v);
      ("lower", fun _ v -> Verbs.lower_v v);
      ("upper", fun _ v -> Verbs.upper_v v);
      ("type", fun _ v -> Value.int (Value.type_code v));
      ("key", fun _ v -> Verbs.key_v v);
      ("cols", fun _ v -> Verbs.cols_v v);
      ("meta", fun _ v -> Verbs.meta_v v);
      ("enlist", fun _ v -> Value.enlist v);
      ("raze", fun _ v -> Verbs.raze_v v);
      ("flip", fun _ v -> Value.flip v);
      ("all", fun _ v -> Verbs.all_v v);
      ("any", fun _ v -> Verbs.any_v v);
      ("ungroup", fun _ v -> Value.unkey v);
      ("keys", fun _ v -> Verbs.key_v v);
      ("prev", fun _ v -> Verbs.prev_v v);
      ("next", fun _ v -> Verbs.next_v v);
      ("differ", fun _ v -> Verbs.differ_v v);
      ("rank", fun _ v -> Verbs.rank_v v);
    ]

let dyadic_prims : (string * (env -> Value.t -> Value.t -> Value.t)) list
    Lazy.t =
  lazy
    [
      ("+", fun _ a b -> Verbs.add a b);
      ("-", fun _ a b -> Verbs.sub a b);
      ("*", fun _ a b -> Verbs.mul a b);
      ("%", fun _ a b -> Verbs.div a b);
      ("&", fun _ a b -> Verbs.min_v a b);
      ("|", fun _ a b -> Verbs.max_v a b);
      ("and", fun _ a b -> Verbs.and_v a b);
      ("or", fun _ a b -> Verbs.or_v a b);
      ("=", fun _ a b -> Verbs.eq a b);
      ("<>", fun _ a b -> Verbs.neq a b);
      ("<", fun _ a b -> Verbs.lt a b);
      ("<=", fun _ a b -> Verbs.le a b);
      (">", fun _ a b -> Verbs.gt a b);
      (">=", fun _ a b -> Verbs.ge a b);
      ("^", fun _ a b -> Verbs.fill a b);
      ("mod", fun _ a b -> Verbs.imod a b (* x mod y: remainder of x by y *));
      ("div", fun _ a b -> Verbs.idiv a b);
      ("in", fun _ a b -> Verbs.in_v a b);
      ("within", fun _ a b -> Verbs.within_v a b);
      ("like", fun _ a b -> Verbs.like_v a b);
      ("union", fun _ a b -> Verbs.union_v a b);
      ("inter", fun _ a b -> Verbs.inter_v a b);
      ("except", fun _ a b -> Verbs.except_v a b);
      ("cross", fun _ a b -> Verbs.cross_v a b);
      ("xbar", fun _ a b -> Verbs.xbar a b);
      ("xcol", fun _ a b -> Verbs.xcol_v a b);
      ("xasc", fun _ a b -> Verbs.xasc_v a b);
      ("xdesc", fun _ a b -> Verbs.xdesc_v a b);
      ("xkey", fun _ a b -> Verbs.xkey_v a b);
      ("xcols", fun _ a b -> Verbs.xcols_v a b);
      ("sublist", fun _ a b -> Verbs.sublist_v a b);
      ("sv", fun _ a b -> Verbs.sv_v a b);
      ("vs", fun _ a b -> Verbs.vs_v a b);
      ("wavg", fun _ a b -> Verbs.wavg a b);
      ("wsum", fun _ a b -> Verbs.wsum a b);
      ("~", fun _ a b -> Value.bool (Value.equal a b));
      (",", fun _ a b ->
        match (a, b) with
        | Value.Table _, Value.Table _ ->
            Value.Table (Value.append_tables (Verbs.as_table a) (Verbs.as_table b))
        | _ -> Value.join_lists a b);
      ("#", fun _ a b -> Verbs.take_v a b);
      ("take", fun _ a b -> Verbs.take_v a b);
      ("_", fun _ a b ->
        match a with
        | Value.Atom (Atom.Long _) -> Verbs.drop_v a b
        | _ -> Verbs.drop_v a b);
      ("!", fun _ a b -> Verbs.bang_v a b);
      ("$", fun _ a b -> Verbs.cast_v a b);
      ("bin", fun _ a b -> Verbs.bin_v a b);
      ("cut", fun _ a b ->
        (* indices cut list: split [b] at positions [a] *)
        let idx = Value.int_array_of a in
        let n = Value.length b in
        let parts =
          Array.mapi
            (fun i lo ->
              let hi = if i + 1 < Array.length idx then idx.(i + 1) else n in
              Value.at b (Array.init (hi - lo) (fun k -> lo + k)))
            idx
        in
        Value.List parts);
    ]

(* k-style monadic meanings of the operator glyphs *)
let monadic_glyph env (v : string) (x : Value.t) : Value.t =
  match v with
  | "-" -> Verbs.neg_v x
  | "+" -> Value.flip x
  | "*" -> Value.first x
  | "%" -> Verbs.div (Value.float 1.0) x
  | "&" -> Value.where_ x
  | "|" -> Value.rev x
  | "=" -> Value.group x
  | "<" -> Value.longs (Value.grade_up x)
  | ">" -> Value.longs (Value.grade_down x)
  | "~" -> Verbs.not_v x
  | "," -> Value.enlist x
  | "#" -> Verbs.count_v x
  | "_" -> Verbs.floor_v x
  | "?" -> Value.distinct x
  | "@" -> Value.int (Value.type_code x)
  | "$" -> Verbs.string_v x
  | _ ->
      ignore env;
      rank_err "verb %s has no monadic meaning" v

(* ------------------------------------------------------------------ *)
(* Evaluator                                                           *)
(* ------------------------------------------------------------------ *)

let rec eval (env : env) (e : Ast.expr) : rt =
  match e with
  | Ast.Lit l -> V (eval_lit l)
  | Ast.Var name -> (
      match lookup env name with
      | Some rt -> rt
      | None ->
          if List.mem_assoc name (Lazy.force monadic_prims) then Prim name
          else if List.mem_assoc name (Lazy.force dyadic_prims) then Prim name
          else if is_special_prim name then Prim name
          else value_err "undefined name %s" name)
  | Ast.Verb v -> Prim v
  | Ast.App1 (f, x) ->
      let fv = eval env f in
      let xv = eval env x in
      apply env fv [ xv ]
  | Ast.App2 (f, x, y) -> (
      match f with
      | Ast.Verb "fby" -> eval_fby env x y
      | _ ->
          let fv = eval env f in
          (* right-to-left evaluation order: y first *)
          let yv = eval env y in
          let xv = eval env x in
          apply env fv [ xv; yv ])
  | Ast.Apply (f, args) when List.mem Ast.Hole args ->
      (* projection: fix the supplied arguments, leave holes *)
      let fv = eval env f in
      let slots =
        List.rev_map
          (function Ast.Hole -> None | e -> Some (eval env e))
          (List.rev args)
      in
      Projection (fv, slots)
  | Ast.Apply (f, args) ->
      let fv = eval env f in
      let argvs = List.rev_map (eval env) (List.rev args) in
      apply env fv argvs
  | Ast.Hole -> rank_err "stray projection hole"
  | Ast.AdverbApp (f, adv) -> Derived (eval env f, adv)
  | Ast.Lambda { params; body; source } -> Closure { params; body; source }
  | Ast.Assign (name, e) ->
      let rt = eval env e in
      assign env name rt;
      rt
  | Ast.GlobalAssign (name, e) ->
      let rt = eval env e in
      set_global env name rt;
      rt
  | Ast.Cond args -> eval_cond env args
  | Ast.Control (kw, args) -> eval_control env kw args
  | Ast.ListLit es ->
      let vs = List.rev_map (eval env) (List.rev es) in
      V (Value.of_values (Array.of_list (List.map to_value vs)))
  | Ast.TableLit (keys, cols) ->
      let evc (n, e) = (n, to_value (eval env e)) in
      let keys = List.map evc keys and cols = List.map evc cols in
      if keys = [] then V (Value.Table (Value.table cols))
      else
        let t = Value.table (keys @ cols) in
        V (Value.xkey (List.map fst keys) t)
  | Ast.Sql sql -> V (eval_sql env sql)
  | Ast.Return e -> raise (Return_exc (eval env e))

and eval_lit = function
  | Ast.LAtom a -> Value.Atom a
  | Ast.LVector atoms -> Value.vector_of_atoms (Array.of_list atoms)
  | Ast.LString s -> Value.string_ s

and is_special_prim name =
  List.mem name
    [ "aj"; "aj0"; "lj"; "ij"; "uj"; "ej"; "each"; "value"; "get"; "set";
      "insert"; "upsert"; "mavg"; "msum"; "mmax"; "mmin"; "exec"; "eval" ]

(* ---------------------------------------------------------------- *)
(* Application                                                       *)
(* ---------------------------------------------------------------- *)

and apply env (f : rt) (args : rt list) : rt =
  match f with
  | Closure c -> apply_closure env c args
  | Derived (g, adv) -> apply_adverb env g adv args
  | Prim name -> apply_prim env name args
  | V v -> V (index_value env v args)
  | Projection (g, slots) ->
      (* fill holes left to right with the incoming arguments *)
      let rec fill slots args =
        match (slots, args) with
        | [], [] -> ([], [])
        | [], extra -> ([], extra)
        | None :: rest, a :: args' ->
            let filled, rem = fill rest args' in
            (Some a :: filled, rem)
        | None :: rest, [] ->
            let filled, rem = fill rest [] in
            (None :: filled, rem)
        | Some v :: rest, args' ->
            let filled, rem = fill rest args' in
            (Some v :: filled, rem)
      in
      let filled, leftover = fill slots args in
      if leftover <> [] then rank_err "too many arguments for projection";
      if List.exists (fun s -> s = None) filled then Projection (g, filled)
      else apply env g (List.map Option.get filled)

and apply_closure env (c : closure) (args : rt list) : rt =
  let params =
    match c.params with
    | [] ->
        (* implicit parameters x, y, z *)
        List.filteri (fun i _ -> i < 3) [ "x"; "y"; "z" ]
    | ps -> ps
  in
  if List.length args > List.length params then
    rank_err "too many arguments (%d) for function of rank %d"
      (List.length args) (List.length params);
  let frame : frame = Hashtbl.create 8 in
  List.iteri
    (fun i p -> match List.nth_opt args i with
       | Some a -> Hashtbl.replace frame p a
       | None -> ())
    params;
  env.locals <- frame :: env.locals;
  (* column scopes do not leak into function bodies *)
  let saved_cols = env.cols in
  env.cols <- [];
  let restore () =
    env.locals <- List.tl env.locals;
    env.cols <- saved_cols
  in
  let result =
    try
      let r =
        List.fold_left (fun _ stmt -> eval env stmt) (V (Value.List [||])) c.body
      in
      restore ();
      r
    with
    | Return_exc r ->
        restore ();
        r
    | e ->
        restore ();
        raise e
  in
  result

and index_value env (v : Value.t) (args : rt list) : Value.t =
  ignore env;
  match (v, args) with
  | _, [] -> v
  | Value.Table t, [ V (Value.Atom (Atom.Sym c)) ] -> Value.column_exn t c
  | Value.Table _, [ V (Value.Atom (Atom.Long i)) ] ->
      Value.index v (Int64.to_int i)
  | _, [ V (Value.Atom (Atom.Long i)) ] -> Value.index v (Int64.to_int i)
  | Value.Dict (k, dv), [ V key ] -> Value.dict_lookup k dv key
  | Value.KTable (kt, vt), [ V key ] ->
      (* lookup a key row *)
      let key_cols = Array.to_list kt.Value.cols in
      let n = Value.table_length kt in
      let keys =
        match key with
        | Value.Atom _ -> [ key ]
        | _ -> Array.to_list (Value.elements key)
      in
      let rec find i =
        if i >= n then None
        else
          let krow = List.map (fun c -> Value.index (Value.column_exn kt c) i) key_cols in
          if List.length krow = List.length keys
             && List.for_all2 Value.equal krow keys
          then Some i
          else find (i + 1)
      in
      (match find 0 with
      | Some i ->
          Value.Dict
            ( Value.syms vt.Value.cols,
              Value.of_values (Array.map (fun c -> Value.index c i) vt.Value.data) )
      | None -> Value.Atom (Atom.Null Qtype.Long))
  | _, [ V (Value.Vector (Qtype.Long, _) as idx) ] ->
      Value.at v (Value.int_array_of idx)
  | _, _ -> type_err "cannot apply data value to these arguments"

(* ---------------------------------------------------------------- *)
(* Primitives                                                        *)
(* ---------------------------------------------------------------- *)

and apply_prim env (name : string) (args : rt list) : rt =
  match (name, args) with
  (* joins *)
  | "aj", [ V cols; V l; V r ] ->
      V (Joins.aj (Verbs.sym_list cols) l r)
  | "aj0", [ V cols; V l; V r ] ->
      V (Joins.aj ~keep_right_time:true (Verbs.sym_list cols) l r)
  | "lj", [ V l; V r ] -> V (Joins.lj l r)
  | "ij", [ V l; V r ] -> V (Joins.ij l r)
  | "uj", [ V l; V r ] -> V (Joins.uj l r)
  | "ej", [ V cols; V l; V r ] -> V (Joins.ej (Verbs.sym_list cols) l r)
  (* moving-window verbs need an integer left argument *)
  | "mavg", [ V n; V v ] -> V (Verbs.mavg (int_of_value n) v)
  | "msum", [ V n; V v ] -> V (Verbs.msum (int_of_value n) v)
  | "mmax", [ V n; V v ] -> V (Verbs.mmax (int_of_value n) v)
  | "mmin", [ V n; V v ] -> V (Verbs.mmin (int_of_value n) v)
  (* each as a named dyadic keyword: f each x *)
  | "each", [ f; V x ] -> apply_adverb env f Ast.Each [ V x ]
  (* value/eval on strings re-enter the interpreter; on symbols look up *)
  | ("value" | "eval" | "get"), [ V v ] -> (
      match v with
      | Value.Atom (Atom.Sym s) -> (
          match get_global env s with
          | Some rt -> rt
          | None -> value_err "undefined global %s" s)
      | v when Value.is_string v -> eval_string_rt env (Value.to_string_exn v)
      | Value.Dict _ | Value.KTable _ -> V (Verbs.value_v v)
      | _ -> V v)
  | "set", [ V (Value.Atom (Atom.Sym s)); v ] ->
      set_global env s v;
      V (Value.sym s)
  | "insert", [ V (Value.Atom (Atom.Sym s)); V rows ]
  | "upsert", [ V (Value.Atom (Atom.Sym s)); V rows ] -> (
      match get_global env s with
      | Some (V (Value.Table t)) ->
          let add = Verbs.as_table rows in
          set_global env s (V (Value.Table (Value.append_tables t add)));
          V (Value.sym s)
      | _ -> value_err "insert target %s is not a table" s)
  (* the roll / find verb *)
  | "?", [ V a; V b ] -> (
      match (a, b) with
      | Value.Atom (Atom.Long n), Value.Atom (Atom.Long m) ->
          let n = Int64.to_int n and m = Int64.to_int m in
          V (Value.longs (Array.init n (fun _ -> next_rand env m)))
      | Value.Atom (Atom.Long n), (Value.Vector _ | Value.List _) ->
          let n = Int64.to_int n in
          let len = Value.length b in
          V (Value.at b (Array.init n (fun _ -> next_rand env len)))
      | _ -> V (Verbs.find_v a b))
  | "@", [ V x; V i ] -> V (index_value env x [ V i ])
  | "@", [ f; V i ] -> apply env f [ V i ]
  | ".", [ f; V args ] ->
      let argl = Array.to_list (Value.elements args) in
      apply env f (List.map (fun v -> V v) argl)
  | _, [ V x ] -> (
      match List.assoc_opt name (Lazy.force monadic_prims) with
      | Some fn -> V (fn env x)
      | None ->
          if String.length name = 1 || name = "<>" then
            V (monadic_glyph env name x)
          else rank_err "%s is not monadic" name)
  | _, [ V x; V y ] -> (
      match List.assoc_opt name (Lazy.force dyadic_prims) with
      | Some fn -> V (fn env x y)
      | None -> rank_err "%s is not dyadic" name)
  | _, args ->
      rank_err "primitive %s applied to %d arguments" name (List.length args)

and int_of_value v =
  match v with
  | Value.Atom a when not (Atom.is_null a) -> Int64.to_int (Atom.to_long a)
  | _ -> type_err "expected an integer atom"

(* ---------------------------------------------------------------- *)
(* Adverbs                                                           *)
(* ---------------------------------------------------------------- *)

and apply_adverb env (f : rt) (adv : Ast.adverb) (args : rt list) : rt =
  let app1 x = apply env f [ V x ] in
  let app2 x y = apply env f [ V x; V y ] in
  match (adv, args) with
  | Ast.Each, [ V x ] ->
      let parts = Value.elements x in
      V (Value.of_values (Array.map (fun p -> to_value (app1 p)) parts))
  | Ast.Each, [ V x; V y ] ->
      let xs = Value.elements x and ys = Value.elements y in
      if Array.length xs <> Array.length ys then
        Error.length_err "each: lengths differ";
      V
        (Value.of_values
           (Array.map2 (fun a b -> to_value (app2 a b)) xs ys))
  | Ast.Over, [ V x ] -> (
      match Array.to_list (Value.elements x) with
      | [] -> V (Value.List [||])
      | seed :: rest ->
          V (List.fold_left (fun acc p -> to_value (app2 acc p)) seed rest))
  | Ast.Over, [ V seed; V x ] ->
      V
        (Array.fold_left
           (fun acc p -> to_value (app2 acc p))
           seed (Value.elements x))
  | Ast.Scan, [ V x ] -> (
      match Array.to_list (Value.elements x) with
      | [] -> V (Value.List [||])
      | seed :: rest ->
          let acc = ref seed and out = ref [ seed ] in
          List.iter
            (fun p ->
              acc := to_value (app2 !acc p);
              out := !acc :: !out)
            rest;
          V (Value.of_values (Array.of_list (List.rev !out))))
  | Ast.Scan, [ V seed; V x ] ->
      let acc = ref seed and out = ref [] in
      Array.iter
        (fun p ->
          acc := to_value (app2 !acc p);
          out := !acc :: !out)
        (Value.elements x);
      V (Value.of_values (Array.of_list (List.rev !out)))
  | Ast.EachLeft, [ V x; V y ] ->
      V
        (Value.of_values
           (Array.map (fun a -> to_value (app2 a y)) (Value.elements x)))
  | Ast.EachRight, [ V x; V y ] ->
      V
        (Value.of_values
           (Array.map (fun b -> to_value (app2 x b)) (Value.elements y)))
  | Ast.EachPrior, [ V x ] ->
      let xs = Value.elements x in
      V
        (Value.of_values
           (Array.mapi
              (fun i p -> if i = 0 then p else to_value (app2 p xs.(i - 1)))
              xs))
  | _, _ -> rank_err "unsupported adverb application"

(* ---------------------------------------------------------------- *)
(* Conditionals and control flow                                     *)
(* ---------------------------------------------------------------- *)

and eval_cond env (args : Ast.expr list) : rt =
  let truthy e =
    match to_value (eval env e) with
    | Value.Atom a -> (not (Atom.is_null a)) && Atom.to_bool a
    | v -> Value.length v > 0
  in
  let rec go = function
    | [ fallback ] -> eval env fallback
    | c :: t :: rest -> if truthy c then eval env t else go rest
    | [] -> V (Value.List [||])
  in
  go args

and eval_control env kw (args : Ast.expr list) : rt =
  let nil = V (Value.List [||]) in
  let truthy e =
    match to_value (eval env e) with
    | Value.Atom a -> (not (Atom.is_null a)) && Atom.to_bool a
    | v -> Value.length v > 0
  in
  match (kw, args) with
  | "if", c :: body ->
      if truthy c then List.iter (fun e -> ignore (eval env e)) body;
      nil
  | "do", n :: body ->
      let n = int_of_value (to_value (eval env n)) in
      for _ = 1 to n do
        List.iter (fun e -> ignore (eval env e)) body
      done;
      nil
  | "while", c :: body ->
      while truthy c do
        List.iter (fun e -> ignore (eval env e)) body
      done;
      nil
  | _ -> rank_err "malformed %s[...]" kw

(* ---------------------------------------------------------------- *)
(* q-sql                                                             *)
(* ---------------------------------------------------------------- *)

(* (f;x) fby g : apply aggregate f to x within groups of g, spread back *)
and eval_fby env (spec : Ast.expr) (grp : Ast.expr) : rt =
  let f, xe =
    match spec with
    | Ast.ListLit [ f; x ] -> (f, x)
    | _ -> type_err "fby expects (aggregate;values) on the left"
  in
  let fv = eval env f in
  let xs = to_value (eval env xe) in
  let gs = to_value (eval env grp) in
  let n = Value.length xs in
  if Value.length gs <> n then Error.length_err "fby: lengths differ";
  let out = Array.make n (Value.int 0) in
  (match Value.group gs with
  | Value.Dict (_, idx_lists) ->
      Array.iter
        (fun idxs ->
          let idx = Value.int_array_of idxs in
          let sub = Value.at xs idx in
          let r = to_value (apply env fv [ V sub ]) in
          Array.iter (fun i -> out.(i) <- r) idx)
        (Value.elements idx_lists)
  | _ -> assert false);
  V (Value.of_values out)

and push_cols env (t : Value.table) (indices : int array option) =
  let n = Value.table_length t in
  let idx = match indices with Some i -> i | None -> Array.init n (fun i -> i) in
  let frame =
    ("i", Value.longs idx)
    :: Array.to_list
         (Array.mapi (fun ci name -> (name, Value.at t.Value.data.(ci) idx)) t.Value.cols)
  in
  (* columns at a fixed index set *)
  let frame =
    List.map (fun (n', v) -> if n' = "i" then (n', Value.longs (Array.init (Array.length idx) (fun i -> i))) else (n', v)) frame
  in
  env.cols <- frame :: env.cols

and pop_cols env = env.cols <- List.tl env.cols

and eval_in_cols env (t : Value.table) (e : Ast.expr) : Value.t =
  push_cols env t None;
  let r =
    try to_value (eval env e)
    with exn ->
      pop_cols env;
      raise exn
  in
  pop_cols env;
  r

(** Apply the [where] chain: each filter is evaluated against the table as
    filtered so far, mirroring Q's sequential conjunctive semantics. *)
and apply_filters env (t : Value.table) (filters : Ast.expr list) : Value.table
    =
  List.fold_left
    (fun t f ->
      let mask = eval_in_cols env t f in
      let idx =
        match mask with
        | Value.Atom a ->
            if (not (Atom.is_null a)) && Atom.to_bool a then
              Array.init (Value.table_length t) (fun i -> i)
            else [||]
        | _ -> Value.int_array_of (Value.where_ mask)
      in
      Value.filter_table t idx)
    t filters

and resolve_from env (e : Ast.expr) : Value.table =
  let v = to_value (eval env e) in
  match v with
  | Value.Atom (Atom.Sym s) -> (
      match get_global env s with
      | Some (V tv) -> Verbs.as_table tv
      | _ -> value_err "undefined table %s" s)
  | v -> Verbs.as_table v

and eval_sql env (sql : Ast.sql) : Value.t =
  let t0 = resolve_from env sql.Ast.from in
  match sql.Ast.op with
  | Ast.Select | Ast.Exec -> eval_select env sql t0
  | Ast.Update -> eval_update env sql t0
  | Ast.Delete -> eval_delete env sql t0

and eval_select env (sql : Ast.sql) (t0 : Value.table) : Value.t =
  let t = apply_filters env t0 sql.Ast.filters in
  let name_of i (alias, e) =
    match alias with Some n -> n | None -> infer_name i e
  in
  if sql.Ast.by = [] then begin
    let cols =
      if sql.Ast.cols = [] then
        Array.to_list
          (Array.mapi (fun i c -> (c, t.Value.data.(i))) t.Value.cols)
      else
        List.mapi
          (fun i (alias, e) -> (name_of i (alias, e), eval_in_cols env t e))
          sql.Ast.cols
    in
    match sql.Ast.op with
    | Ast.Exec -> (
        match cols with
        | [ (_, v) ] -> v
        | cols ->
            Value.Dict
              ( Value.syms (Array.of_list (List.map fst cols)),
                Value.List (Array.of_list (List.map snd cols)) ))
    | _ -> Value.Table (Value.table cols)
  end
  else begin
    (* grouped select: build group keys, then per-group aggregates *)
    let by_names =
      List.mapi (fun i (alias, e) -> name_of i (alias, e)) sql.Ast.by
    in
    let by_vals = List.map (fun (_, e) -> eval_in_cols env t e) sql.Ast.by in
    let n = Value.table_length t in
    (* group rows by the tuple of by-values *)
    let groups : (Value.t list * int list ref) list ref = ref [] in
    for i = 0 to n - 1 do
      let k = List.map (fun v -> Value.index v i) by_vals in
      match
        List.find_opt
          (fun (k', _) -> List.for_all2 Value.equal k k')
          !groups
      with
      | Some (_, l) -> l := i :: !l
      | None -> groups := (k, ref [ i ]) :: !groups
    done;
    let groups = List.rev_map (fun (k, l) -> (k, List.rev !l)) !groups in
    (* Q sorts grouped results by key ascending *)
    let groups =
      List.sort
        (fun (k1, _) (k2, _) ->
          let rec cmp a b =
            match (a, b) with
            | [], [] -> 0
            | x :: xs, y :: ys ->
                let c = Value.compare_value x y in
                if c <> 0 then c else cmp xs ys
            | _ -> 0
          in
          cmp k1 k2)
        groups
    in
    let col_specs =
      if sql.Ast.cols = [] then
        (* all non-grouped columns, nested *)
        Array.to_list t.Value.cols
        |> List.filter (fun c -> not (List.mem c by_names))
        |> List.map (fun c -> (c, Ast.Var c))
      else
        List.mapi (fun i (alias, e) -> (name_of i (alias, e), e)) sql.Ast.cols
    in
    let key_cols =
      List.mapi
        (fun ki name ->
          ( name,
            Value.of_values
              (Array.of_list (List.map (fun (k, _) -> List.nth k ki) groups))
          ))
        by_names
    in
    let val_cols =
      List.map
        (fun (name, e) ->
          let per_group =
            List.map
              (fun (_, rows) ->
                let idx = Array.of_list rows in
                push_cols env t (Some idx);
                let r =
                  try to_value (eval env e)
                  with exn ->
                    pop_cols env;
                    raise exn
                in
                pop_cols env;
                r)
              groups
          in
          (name, Value.of_values (Array.of_list per_group)))
        col_specs
    in
    match sql.Ast.op with
    | Ast.Exec ->
        (* exec ... by ... gives a dict keyed by group *)
        let keys =
          match key_cols with
          | [ (_, k) ] -> k
          | ks -> Value.List (Array.of_list (List.map snd ks))
        in
        let vals =
          match val_cols with
          | [ (_, v) ] -> v
          | vs -> Value.List (Array.of_list (List.map snd vs))
        in
        Value.Dict (keys, vals)
    | _ ->
        let kt = Value.table key_cols and vt = Value.table val_cols in
        Value.KTable (kt, vt)
  end

and infer_name i e =
  match e with
  | Ast.Var n -> n
  | Ast.App1 (_, x) -> infer_name i x
  | Ast.App2 (_, x, _) -> infer_name i x
  | Ast.Apply (_, x :: _) -> infer_name i x
  | _ -> Printf.sprintf "x%d" i

and eval_update env (sql : Ast.sql) (t0 : Value.table) : Value.t =
  (* Q's update replaces columns in the query output only; persisted state
     is untouched (paper Section 2.2) *)
  let n0 = Value.table_length t0 in
  if sql.Ast.by <> [] then begin
    (* grouped update: aggregate per group over the rows passing the where
       chain, spread back to exactly those rows *)
    let selected =
      if sql.Ast.filters = [] then Array.init n0 (fun i -> i)
      else begin
        let mask = ref (Array.init n0 (fun i -> i)) in
        List.iter
          (fun f ->
            let sub = Value.filter_table t0 !mask in
            let m = eval_in_cols env sub f in
            let keep = Value.int_array_of (Value.where_ m) in
            mask := Array.map (fun k -> !mask.(k)) keep)
          sql.Ast.filters;
        !mask
      end
    in
    let by_vals = List.map (fun (_, e) -> eval_in_cols env t0 e) sql.Ast.by in
    let groups : (Value.t list * int list ref) list ref = ref [] in
    Array.iter
      (fun i ->
        let k = List.map (fun v -> Value.index v i) by_vals in
        match
          List.find_opt (fun (k', _) -> List.for_all2 Value.equal k k') !groups
        with
        | Some (_, l) -> l := i :: !l
        | None -> groups := (k, ref [ i ]) :: !groups)
      selected;
    let out = ref t0 in
    List.iter
      (fun (alias, e) ->
        let name =
          match alias with Some n -> n | None -> infer_name 0 e
        in
        (* rows outside the where-filter keep their old value, or null for
           a freshly added column *)
        let col =
          match Value.column t0 name with
          | Some c -> Array.map (fun v -> v) (Value.elements c)
          | None -> Array.make n0 (Value.Atom (Atom.Null Qtype.Long))
        in
        List.iter
          (fun ((_ : Value.t list), rows) ->
            let idx = Array.of_list (List.rev !rows) in
            push_cols env t0 (Some idx);
            let r =
              try to_value (eval env e)
              with exn ->
                pop_cols env;
                raise exn
            in
            pop_cols env;
            match r with
            | Value.Atom _ -> Array.iter (fun i -> col.(i) <- r) idx
            | _ ->
                Array.iteri (fun j i -> col.(i) <- Value.index r j) idx)
          !groups;
        out := Value.set_column !out name (Value.of_values col))
      sql.Ast.cols;
    Value.Table !out
  end
  else begin
    let idx =
      if sql.Ast.filters = [] then Array.init n0 (fun i -> i)
      else
        (* track the surviving indices against the original table *)
        let mask = ref (Array.init n0 (fun i -> i)) in
        List.iter
          (fun f ->
            let sub = Value.filter_table t0 !mask in
            let m = eval_in_cols env sub f in
            let keep = Value.int_array_of (Value.where_ m) in
            mask := Array.map (fun k -> !mask.(k)) keep)
          sql.Ast.filters;
        !mask
    in
    let out = ref t0 in
    List.iter
      (fun (alias, e) ->
        let name = match alias with Some n -> n | None -> infer_name 0 e in
        let sub = Value.filter_table t0 idx in
        push_cols env sub None;
        let r =
          try to_value (eval env e)
          with exn ->
            pop_cols env;
            raise exn
        in
        pop_cols env;
        let base =
          match Value.column !out name with
          | Some c -> Value.elements c
          | None ->
              Array.make n0
                (match r with
                | Value.Atom a -> Value.Atom (Atom.Null (Atom.qtype a))
                | _ -> Value.Atom (Atom.Null Qtype.Long))
        in
        let base = Array.copy base in
        (match r with
        | Value.Atom _ -> Array.iter (fun i -> base.(i) <- r) idx
        | _ -> Array.iteri (fun j i -> base.(i) <- Value.index r j) idx);
        out := Value.set_column !out name (Value.of_values base))
      sql.Ast.cols;
    Value.Table !out
  end

and eval_delete env (sql : Ast.sql) (t0 : Value.table) : Value.t =
  if sql.Ast.cols <> [] then begin
    (* delete columns *)
    let names =
      List.map
        (fun (alias, e) ->
          match (alias, e) with
          | _, Ast.Var n -> n
          | Some n, _ -> n
          | _ -> type_err "delete expects column names")
        sql.Ast.cols
    in
    let keep =
      Array.to_list t0.Value.cols
      |> List.filter (fun c -> not (List.mem c names))
    in
    Value.Table
      {
        Value.cols = Array.of_list keep;
        data = Array.of_list (List.map (Value.column_exn t0) keep);
      }
  end
  else begin
    let n = Value.table_length t0 in
    (* rows matching the filters are removed *)
    let mask = Array.make n true in
    let idx = ref (Array.init n (fun i -> i)) in
    List.iter
      (fun f ->
        let sub = Value.filter_table t0 !idx in
        let m = eval_in_cols env sub f in
        let keep = Value.int_array_of (Value.where_ m) in
        idx := Array.map (fun k -> !idx.(k)) keep)
      sql.Ast.filters;
    Array.iter (fun i -> mask.(i) <- false) !idx;
    let keep = ref [] in
    for i = n - 1 downto 0 do
      if mask.(i) then keep := i :: !keep
    done;
    Value.Table (Value.filter_table t0 (Array.of_list !keep))
  end

(* ---------------------------------------------------------------- *)
(* Entry points                                                      *)
(* ---------------------------------------------------------------- *)

and eval_string_rt env (src : string) : rt =
  let stmts = Parser.parse_program src in
  List.fold_left (fun _ stmt -> eval env stmt) (V (Value.List [||])) stmts

(** Evaluate a Q program and return the value of its last statement. A
    function-valued result renders as its source text, as the kdb+ console
    does. *)
let eval_string env (src : string) : Value.t =
  match eval_string_rt env src with
  | V v -> v
  | Closure c ->
      let params =
        match c.params with
        | [] -> ""
        | ps -> "[" ^ String.concat ";" ps ^ "] "
      in
      Value.string_ ("{" ^ params ^ c.source ^ "}")
  | Prim name -> Value.string_ name
  | Derived _ -> Value.string_ "<derived function>"
  | Projection _ -> Value.string_ "<projection>"
