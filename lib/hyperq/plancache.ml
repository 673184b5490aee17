(** The translation plan cache (level 1): fingerprint-keyed reuse of the
    full Q→SQL cross-compilation with literal substitution.

    Real Q application workloads repeat a small set of query shapes with
    different literals — exactly what the fingerprinter normalizes. After
    a successful slow-path translation of a cacheable statement, the
    engine re-translates the query with unique {e sentinel} literal
    tokens swapped in at its literals' token indices (no Q text is built
    or lexed again), locates each sentinel's SQL rendering
    in the generated text, and stores the SQL as a template
    ([parts]/[slots]) plus the bound result shape. A later query with the
    same fingerprint and literal type-signature skips
    Parse/Algebrize/Optimize/Serialize entirely: its literals are
    rendered through the same serializer quoting and spliced into the
    template.

    Correctness rests on three legs:

    - {b Versioned keys.} Entries are keyed by [(fingerprint, literal
      type-signature, session, session/server scope generations, MDI
      catalog generation)]. Any scope or catalog mutation bumps a
      generation, making stale entries unreachable; they age out of the
      LRU rather than being swept eagerly.
    - {b Sign-classed signatures.} The binder's output can depend on
      literal {e values}, not just types (negative [take] reads from the
      end, zero is special-cased, glob characters in [like] patterns are
      rewritten). The signature therefore splits numerics by sign,
      separates strings containing glob metacharacters, and refuses to
      cache value classes with bespoke behaviour (zero, booleans, nulls,
      single-character strings, empty symbols).
    - {b Install-time validation.} A template is accepted only if
      splicing the {e original} literals back into it reproduces the
      original generated SQL byte for byte. Any shape whose translation
      is value-dependent beyond the signature's classes fails this check
      and is negatively cached as uncacheable.

    Some literals are structure rather than parameters: an [aj] key
    symbol or [xdesc]'s column becomes an identifier, [5 mavg] becomes a
    [ROWS 4 PRECEDING] frame. Their sentinels never appear verbatim in
    the sentinel SQL. Install treats every such position as
    {e structural}: the shape entry remembers the positions
    ({!Structural}), their values extend the key ({!structural_key}),
    and the template is cut around the remaining positions only. *)

module A = Sqlast.Ast
module F = Qlang.Fingerprint
module T = Qlang.Token
module Atom = Qvalue.Atom

(* ------------------------------------------------------------------ *)
(* Parameters: the spliceable literal values of one query              *)
(* ------------------------------------------------------------------ *)

(** One spliceable literal value. Strings are separate from atoms
    because the Q parser maps multi-character string literals to a
    distinct AST node, not an atom. *)
type param = PAtom of Atom.t | PString of string

(** The SQL rendering of a parameter — exactly the composition the slow
    path uses ({!Typemap.lit_of_atom} for atoms, [A.Str] for strings,
    both through {!A.lit_str}'s quoting), so spliced text matches what
    the serializer would have produced. *)
let render (p : param) : string =
  match p with
  | PAtom a -> A.lit_str (fst (Typemap.lit_of_atom a))
  | PString s -> A.lit_str (A.Str s)

(* ------------------------------------------------------------------ *)
(* Type signatures                                                     *)
(* ------------------------------------------------------------------ *)

(* Integral floats below 1e15 render as [10.0] rather than in %.17g
   form (see {!A.lit_str}), so they are a class of their own, with
   sentinels of the same form. *)
let is_plain_integral (f : float) : bool =
  Float.is_integer f && Float.abs f < 1e15

(* Class of one atom, or None when its value class has bespoke binder
   behaviour and must bypass the cache. Numerics split by sign (negative
   [take]/[sublist] read from the end); zero, booleans and nulls are
   special-cased all over the binder; single-character strings become
   Char atoms in the parser; non-positive temporals are excluded so
   sentinel values can stay in a known-safe range. *)
let class_of_atom (a : Atom.t) : string option =
  match a with
  | Atom.Long i -> if i > 0L then Some "j+" else if i < 0L then Some "j-" else None
  | Atom.Float f ->
      if f = 0. || Float.is_nan f then None
      else if is_plain_integral f then Some (if f > 0. then "fi+" else "fi-")
      else if Float.is_integer f then None
      else if f > 0. then Some "f+"
      else Some "f-"
  | Atom.Sym s -> if s = "" then None else Some "s"
  | Atom.Date d -> if d > 0 then Some "d" else None
  | Atom.Time t -> if t > 0 then Some "t" else None
  | Atom.Timestamp n -> if n > 0L then Some "p" else None
  | Atom.Bool _ | Atom.Char _ | Atom.Null _ -> None

(* Strings containing glob metacharacters get their own class: the
   binder rewrites them inside [like] patterns, so a template installed
   from a metacharacter-free exemplar must never serve them. Both
   classes are cacheable — install-time validation decides which
   survives for a given shape. *)
let class_of_string (s : string) : string option =
  if String.length s <= 1 then None
  else if
    String.exists (fun c -> c = '*' || c = '?' || c = '%' || c = '\\') s
  then Some "S!"
  else Some "S"

(* the literal tokens of an analyzed query, in source order *)
let literal_tokens (an : F.analysis) : T.t list =
  match an.F.a_tokens with
  | Ok toks -> List.map (fun i -> toks.(i)) an.F.a_literals
  | Error _ -> []

(* the parameters of one literal token, one per flattened position *)
let token_params : T.t -> param list = function
  | T.Num a -> [ PAtom a ]
  | T.NumVec atoms -> List.map (fun a -> PAtom a) atoms
  | T.Str s -> [ PString s ]
  | T.SymLit syms -> List.map (fun s -> PAtom (Atom.Sym s)) syms
  | _ -> []

(** Flatten a query's literal tokens into spliceable parameters and
    compute the literal type-signature. [None] when any literal's value
    class must bypass the cache. Vector literals record their arity in
    the signature ([in 1 2 3] and [in 1 2] are different shapes). *)
let signature (an : F.analysis) : (string * param array) option =
  let buf = Buffer.create 32 in
  let params = ref [] in
  let ok = ref true in
  let class_of = function
    | PAtom a -> class_of_atom a
    | PString s -> class_of_string s
  in
  List.iter
    (fun (tok : T.t) ->
      if !ok then begin
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        let ps = token_params tok in
        let vector = match ps with [ _ ] -> false | _ -> true in
        if vector then Buffer.add_char buf '(';
        List.iter
          (fun p ->
            match class_of p with
            | Some c ->
                Buffer.add_string buf c;
                params := p :: !params
            | None -> ok := false)
          ps;
        if vector then Buffer.add_char buf ')'
      end)
    (literal_tokens an);
  if !ok then Some (Buffer.contents buf, Array.of_list (List.rev !params))
  else None

(* ------------------------------------------------------------------ *)
(* Sentinels                                                           *)
(* ------------------------------------------------------------------ *)

(* Sentinel atom for flattened position [k], same class as [a].
   Value ranges are chosen so no sentinel's SQL rendering is a substring
   of another's: longs live in 8624xxxx, fractional floats in
   7351xxxx.5, integral floats in 9137xxxx.0, strings and symbols in
   distinct [hqs<k>...] namespaces (see {!sentinel_token}), temporals in
   ranges whose rendered text carries date/time separators. *)
let sentinel_atom (k : int) (a : Atom.t) : Atom.t option =
  match a with
  | Atom.Long i when i > 0L -> Some (Atom.Long (Int64.of_int (86240001 + k)))
  | Atom.Long i when i < 0L ->
      Some (Atom.Long (Int64.of_int (-(86240001 + k))))
  | Atom.Float f when is_plain_integral f ->
      let v = float_of_int (91370001 + k) in
      Some (Atom.Float (if f > 0. then v else -.v))
  | Atom.Float f when f > 0. ->
      Some (Atom.Float (float_of_int (73510001 + k) +. 0.5))
  | Atom.Float f when f < 0. ->
      Some (Atom.Float (-.(float_of_int (73510001 + k) +. 0.5)))
  | Atom.Date _ -> Some (Atom.Date (40001 + k))
  | Atom.Time _ -> Some (Atom.Time (40000001 + k))
  | Atom.Timestamp _ ->
      Some
        (Atom.Timestamp
           (Int64.add 500_000_000_000_000_000L
              (Int64.mul (Int64.of_int (k + 1)) 1_000_000_000L)))
  | _ -> None

(* The literal token [tok] with sentinels for its flattened positions
   [k], [k+1], ...; [None] if an atom has no sentinel form. *)
let sentinel_token (k : int) (tok : T.t) : T.t option =
  let atoms xs =
    let sent = List.mapi (fun j a -> sentinel_atom (k + j) a) xs in
    if List.for_all Option.is_some sent then Some (List.map Option.get sent)
    else None
  in
  match tok with
  | T.Num a -> Option.map (fun a -> T.Num a) (sentinel_atom k a)
  | T.NumVec xs -> Option.map (fun xs -> T.NumVec xs) (atoms xs)
  | T.Str _ -> Some (T.Str (Printf.sprintf "hqs%dstr" k))
  | T.SymLit ss ->
      Some
        (T.SymLit (List.mapi (fun j _ -> Printf.sprintf "hqs%dsym" (k + j)) ss))
  | _ -> None

(* the number of flattened positions of a literal token *)
let arity (tok : T.t) : int = List.length (token_params tok)

(** Widen structural positions to whole literal tokens: a token is the
    unit {!sentinel_rewrite} keeps verbatim, so every position of a
    token holding a structural one is structural. Sorted, no
    duplicates. *)
let widen_to_literals (an : F.analysis) (positions : int list) : int list =
  let _, widened =
    List.fold_left
      (fun (k, acc) tok ->
        let n = arity tok in
        let held = List.exists (fun p -> p >= k && p < k + n) positions in
        (k + n, if held then acc @ List.init n (fun i -> k + i) else acc))
      (0, []) (literal_tokens an)
  in
  widened

(** The query's tokens with every literal token replaced by sentinel
    literals of the same classes, except tokens holding a [structural]
    position, which stay as they are. Returns the rewritten tokens and
    one parameter per flattened position: the sentinel, or the original
    value at a structural position. [None] if the text did not lex or
    any literal has no sentinel form (callers reject such queries via
    {!signature} first). *)
let sentinel_rewrite ?(structural = []) (an : F.analysis) :
    (T.t array * param array) option =
  match an.F.a_tokens with
  | Error _ -> None
  | Ok toks -> (
      let toks = Array.copy toks in
      let out = ref [] in
      let k = ref 0 in
      match
        List.iter
          (fun i ->
            let tok = toks.(i) in
            let n = arity tok in
            (if not (List.exists (fun p -> p >= !k && p < !k + n) structural)
             then
               match sentinel_token !k tok with
               | Some s -> toks.(i) <- s
               | None -> raise Exit);
            out := List.rev_append (token_params toks.(i)) !out;
            k := !k + n)
          an.F.a_literals
      with
      | () -> Some (toks, Array.of_list (List.rev !out))
      | exception Exit -> None)

(* ------------------------------------------------------------------ *)
(* Templates                                                           *)
(* ------------------------------------------------------------------ *)

type template = {
  tp_parts : string array;  (** n+1 fixed SQL fragments *)
  tp_slots : int array;  (** n parameter indices, one per gap *)
  tp_shape : Binder.rshape;  (** result shape for the pivot *)
  tp_translate_s : float;
      (** measured cost of one full translation of this shape — the
          estimated time saved per hit *)
}

(* first occurrence of [needle] in [hay] at or after [from], compared
   in place *)
let naive_find (hay : string) (needle : string) (from : int) : int option =
  let hl = String.length hay and nl = String.length needle in
  let rec matches i j =
    j = nl || (String.unsafe_get hay (i + j) = String.unsafe_get needle j && matches i (j + 1))
  in
  let rec go i =
    if i + nl > hl then None else if matches i 0 then Some i else go (i + 1)
  in
  if nl = 0 || from < 0 then None else go from

(** Cut [sentinel_sql] into a template: find every (non-overlapping)
    occurrence of each non-[structural] position's sentinel rendering
    and split the text around them. [Error (`Lost ps)] names the
    positions whose rendering never occurs (folded, transformed, or
    turned into an identifier) — the caller makes them structural;
    [Error `Overlap] when renderings overlap. *)
let split ~(sentinel_sql : string) ~(shape : Binder.rshape)
    ~(translate_s : float) ~(structural : int list) (renderings : string array)
    : (template, [ `Lost of int list | `Overlap ]) result =
  let occs = ref [] and lost = ref [] in
  Array.iteri
    (fun k r ->
      if not (List.mem k structural) then begin
        let rl = String.length r in
        let rec go from found =
          match naive_find sentinel_sql r from with
          | Some p ->
              occs := (p, rl, k) :: !occs;
              go (p + rl) true
          | None -> if not found then lost := k :: !lost
        in
        go 0 false
      end)
    renderings;
  let occs = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !occs in
  let parts = ref [] and slots = ref [] in
  let pos = ref 0 and overlap = ref false in
  List.iter
    (fun (p, l, k) ->
      if p < !pos then overlap := true
      else begin
        parts := String.sub sentinel_sql !pos (p - !pos) :: !parts;
        slots := k :: !slots;
        pos := p + l
      end)
    occs;
  if !lost <> [] then Error (`Lost (List.rev !lost))
  else if !overlap then Error `Overlap
  else begin
    parts :=
      String.sub sentinel_sql !pos (String.length sentinel_sql - !pos)
      :: !parts;
    Ok
      {
        tp_parts = Array.of_list (List.rev !parts);
        tp_slots = Array.of_list (List.rev !slots);
        tp_shape = shape;
        tp_translate_s = translate_s;
      }
  end

(** Splice parameters into a template: the cached SQL with this query's
    literals rendered through the serializer's quoting. *)
let splice (tpl : template) (params : param array) : string =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i part ->
      Buffer.add_string buf part;
      if i < Array.length tpl.tp_slots then
        Buffer.add_string buf (render params.(tpl.tp_slots.(i))))
    tpl.tp_parts;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The cache proper                                                    *)
(* ------------------------------------------------------------------ *)

type key = {
  k_fingerprint : string;
  k_signature : string;
  k_session : int;  (** {!Scopes.session_id} — templates can embed
                        inlined session-variable values *)
  k_session_gen : int;
  k_server_gen : int;
  k_catalog_gen : int;
  k_shard_gen : int;
      (** shard-map generation (0 = unsharded): bumped whenever the
          shard set or a table's distribution changes, so a template
          installed for a single-backend route can never serve a
          statement that now fans out *)
  k_struct : string;
      (** the values at the shape's structural positions ({!structural_key});
          [""] for the shape key itself *)
}

type kind =
  | Template of template
  | Structural of int list
      (** the shape's literal positions that are structure: templates
          for this shape live under {!structural_key} *)
  | Uncacheable of string
      (** negative entry: this (shape, signature) failed template
          construction or validation — skip install attempts *)

let kind_name = function
  | Template _ -> "template"
  | Structural ps ->
      "structural " ^ String.concat "," (List.map string_of_int ps)
  | Uncacheable reason -> "uncacheable: " ^ reason

(** The key of the template serving [params] for a shape whose
    [positions] are structural: their values, rendered and
    length-prefixed so no two value lists share a key. *)
let structural_key (key : key) (positions : int list) (params : param array) :
    key =
  let b = Buffer.create 32 in
  List.iter
    (fun k ->
      let r = render params.(k) in
      Printf.bprintf b "%d=%d:%s;" k (String.length r) r)
    positions;
  { key with k_struct = Buffer.contents b }

type entry = {
  e_key : key;
  e_norm : string;  (** normalized query shape, for introspection *)
  e_kind : kind;
  mutable e_hits : int;
  mutable e_saved_s : float;  (** estimated translation time saved *)
  mutable e_last_use : int;
}

type t = {
  mu : Mutex.t;
      (** the cache is shared across connections and, under sharding,
          across worker domains *)
  capacity : int;
  tbl : (key, entry) Hashtbl.t;
  on_evict : unit -> unit;
  mutable tick : int;
  mutable evictions : int;
}

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let default_capacity = 512

let create ?(on_evict = fun () -> ()) ?(capacity = default_capacity) () : t =
  {
    mu = Mutex.create ();
    capacity = max 1 capacity;
    tbl = Hashtbl.create 64;
    on_evict;
    tick = 0;
    evictions = 0;
  }

let size t = with_mu t (fun () -> Hashtbl.length t.tbl)
let evictions t = with_mu t (fun () -> t.evictions)

let find (t : t) (key : key) : entry option =
  with_mu t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          t.tick <- t.tick + 1;
          e.e_last_use <- t.tick;
          Some e
      | None -> None)

(** The entry serving [params] under the shape key [key]: a shape with
    structural positions redirects to the entry for their values. *)
let lookup (t : t) (key : key) (params : param array) : entry option =
  match find t key with
  | Some { e_kind = Structural ps; _ } -> find t (structural_key key ps params)
  | found -> found

let remove (t : t) (key : key) : unit =
  with_mu t (fun () -> Hashtbl.remove t.tbl key)

(* O(capacity) scan for the least-recently-used entry — same idiom as
   the qstats store; capacities are small enough that a scan per
   eviction is cheaper than maintaining an intrusive list. *)
let evict_lru (t : t) : unit =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | Some b when b.e_last_use <= e.e_last_use -> acc
        | _ -> Some e)
      t.tbl None
  in
  match victim with
  | Some e ->
      Hashtbl.remove t.tbl e.e_key;
      t.evictions <- t.evictions + 1;
      t.on_evict ()
  | None -> ()

let store (t : t) (key : key) ~(norm : string) (kind : kind) : unit =
  with_mu t (fun () ->
      if
        (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.capacity
      then evict_lru t;
      t.tick <- t.tick + 1;
      Hashtbl.replace t.tbl key
        {
          e_key = key;
          e_norm = norm;
          e_kind = kind;
          e_hits = 0;
          e_saved_s = 0.;
          e_last_use = t.tick;
        })

(** Record a hit on [e]: bumps the hit count and credits the entry's
    measured translation cost as saved time. *)
let note_hit (e : entry) : unit =
  e.e_hits <- e.e_hits + 1;
  match e.e_kind with
  | Template tpl -> e.e_saved_s <- e.e_saved_s +. tpl.tp_translate_s
  | Structural _ | Uncacheable _ -> ()

(** All entries, most-hit first — the admin surfaces' view. *)
let entries (t : t) : entry list =
  with_mu t (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl [])
  |> List.sort (fun a b -> compare b.e_hits a.e_hits)

let clear (t : t) : unit = with_mu t (fun () -> Hashtbl.reset t.tbl)

(* the admin surfaces list this many entries unless asked for more *)
let default_listed = 50

(** The [n] (default {!default_listed}) most-hit entries as the relation
    behind [.hq.plancache] and [GET /plancache.json], with hit counts
    and estimated translation time saved. *)
let relation ?(n = default_listed) (t : t) : Obs.Relation.t =
  Obs.Relation.(
    make
      ~fields:[ ("size", Int (size t)); ("evictions", Int (evictions t)) ]
      ~n
      [
        str "fingerprint" (fun e -> e.e_key.k_fingerprint);
        str "signature" (fun e -> e.e_key.k_signature);
        str "norm" (fun e -> e.e_norm);
        str "kind" (fun e -> kind_name e.e_kind);
        int "hits" (fun e -> e.e_hits);
        float "saved_seconds" (fun e -> e.e_saved_s);
      ]
      (entries t))
