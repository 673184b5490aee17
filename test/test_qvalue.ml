(* Unit and property tests for the Q data model (lib/qvalue). *)

open Qvalue

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Atoms                                                               *)
(* ------------------------------------------------------------------ *)

let test_null_equality () =
  (* Q two-valued logic: nulls compare equal *)
  check tbool "long nulls equal" true
    (Atom.equal (Atom.Null Qtype.Long) (Atom.Null Qtype.Long));
  check tbool "cross-type nulls equal" true
    (Atom.equal (Atom.Null Qtype.Long) (Atom.Null Qtype.Float));
  check tbool "null < value" true
    (Atom.compare (Atom.Null Qtype.Long) (Atom.Long Int64.min_int) < 0);
  (* the empty symbol IS the null symbol in kdb+ *)
  check tbool "empty symbol is null" true
    (Atom.equal (Atom.Null Qtype.Sym) (Atom.Sym ""));
  check tbool "non-empty symbol is not null" false
    (Atom.equal (Atom.Null Qtype.Sym) (Atom.Sym "x"))

let test_null_propagation () =
  let n = Atom.Null Qtype.Long in
  check tbool "null + 1 is null" true (Atom.is_null (Atom.add n (Atom.Long 1L)));
  check tbool "1 - null is null" true (Atom.is_null (Atom.sub (Atom.Long 1L) n));
  check tbool "null * null is null" true (Atom.is_null (Atom.mul n n));
  check tbool "x % 0 is null" true
    (Atom.is_null (Atom.div (Atom.Long 4L) (Atom.Long 0L)))

let test_arith_promotion () =
  (match Atom.add (Atom.Long 1L) (Atom.Float 0.5) with
  | Atom.Float f -> check (Alcotest.float 1e-9) "1+0.5" 1.5 f
  | a -> Alcotest.failf "expected float, got %s" (Atom.to_string a));
  (match Atom.add (Atom.Bool true) (Atom.Bool true) with
  | Atom.Long i -> check tint "1b+1b" 2 (Int64.to_int i)
  | a -> Alcotest.failf "expected long, got %s" (Atom.to_string a));
  (* Q division is always float *)
  match Atom.div (Atom.Long 3L) (Atom.Long 2L) with
  | Atom.Float f -> check (Alcotest.float 1e-9) "3%2" 1.5 f
  | a -> Alcotest.failf "expected float, got %s" (Atom.to_string a)

let test_date_arith () =
  let d = Atom.Date (Atom.date_of_ymd 2016 6 26) in
  (match Atom.add d (Atom.Long 5L) with
  | Atom.Date d' ->
      check tstr "date+5" "2016.07.01" (Atom.to_string (Atom.Date d'))
  | a -> Alcotest.failf "expected date, got %s" (Atom.to_string a));
  match Atom.sub d d with
  | Atom.Long i -> check tint "date-date" 0 (Int64.to_int i)
  | a -> Alcotest.failf "expected long, got %s" (Atom.to_string a)

let test_date_roundtrip () =
  List.iter
    (fun (y, m, d) ->
      let days = Atom.date_of_ymd y m d in
      let y', m', d' = Atom.ymd_of_date days in
      check (Alcotest.triple tint tint tint)
        (Printf.sprintf "%04d.%02d.%02d" y m d)
        (y, m, d) (y', m', d'))
    [
      (2000, 1, 1); (2000, 2, 29); (2016, 6, 26); (1999, 12, 31); (1996, 2, 29);
      (2100, 3, 1); (1970, 1, 1); (2024, 12, 31);
    ]

let test_atom_printing () =
  check tstr "long" "42" (Atom.to_string (Atom.Long 42L));
  check tstr "float" "2.5" (Atom.to_string (Atom.Float 2.5));
  check tstr "whole float" "3.0" (Atom.to_string (Atom.Float 3.0));
  check tstr "sym" "`GOOG" (Atom.to_string (Atom.Sym "GOOG"));
  check tstr "bool" "1b" (Atom.to_string (Atom.Bool true));
  check tstr "null long" "0N" (Atom.to_string (Atom.Null Qtype.Long));
  check tstr "time" "09:30:00.000" (Atom.to_string (Atom.Time 34200000));
  check tstr "date" "2016.06.26"
    (Atom.to_string (Atom.Date (Atom.date_of_ymd 2016 6 26)));
  (* before 2000.01.01: kdb+ prints a negative time with one leading
     minus sign, and a negative date or timestamp as the day and time it
     falls on, counting down from the epoch *)
  List.iter
    (fun (want, a) -> check tstr want want (Atom.to_string a))
    [
      ("00:00:00.000", Atom.Time 0);
      ("-00:00:00.001", Atom.Time (-1));
      ("-01:02:03.004", Atom.Time (-3_723_004));
      ("2000.01.01", Atom.Date 0);
      ("1999.12.31", Atom.Date (-1));
      ("1999.01.01", Atom.Date (-365));
      ("1998.12.31", Atom.Date (-366));
      ("2000.01.01D00:00:00.000000000", Atom.Timestamp 0L);
      ("1999.12.31D23:59:59.999999999", Atom.Timestamp (-1L));
      ("1999.12.31D00:00:00.000000000", Atom.Timestamp (-86_400_000_000_000L));
      ("1999.12.30D23:59:59.999999999", Atom.Timestamp (-86_400_000_000_001L));
      ("1999.12.31D23:00:00.000000000", Atom.Timestamp (-3_600_000_000_000L));
    ]

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let test_vector_inference () =
  let v = Value.of_values [| Value.int 1; Value.int 2; Value.int 3 |] in
  (match v with
  | Value.Vector (Qtype.Long, _) -> ()
  | _ -> Alcotest.fail "expected long vector");
  let mixed = Value.of_values [| Value.int 1; Value.sym "a" |] in
  match mixed with
  | Value.List _ -> ()
  | _ -> Alcotest.fail "expected general list"

let test_til_take_drop () =
  let v = Value.til 5 in
  check tint "count til 5" 5 (Value.length v);
  check tbool "2#til 5" true
    (Value.equal (Value.take 2 v) (Value.longs [| 0; 1 |]));
  check tbool "-2#til 5" true
    (Value.equal (Value.take (-2) v) (Value.longs [| 3; 4 |]));
  check tbool "7#til 3 cycles" true
    (Value.equal (Value.take 7 (Value.til 3))
       (Value.longs [| 0; 1; 2; 0; 1; 2; 0 |]));
  check tbool "-5#til 3 cycles" true
    (Value.equal (Value.take (-5) (Value.til 3))
       (Value.longs [| 1; 2; 0; 1; 2 |]));
  check tbool "2_til 5" true
    (Value.equal (Value.drop 2 v) (Value.longs [| 2; 3; 4 |]));
  check tbool "-2_til 5" true
    (Value.equal (Value.drop (-2) v) (Value.longs [| 0; 1; 2 |]))

let test_where () =
  let b = Value.bools [| true; false; true; false; true |] in
  check tbool "where 10101b" true
    (Value.equal (Value.where_ b) (Value.longs [| 0; 2; 4 |]))

let test_sort_grade () =
  let v = Value.longs [| 3; 1; 2 |] in
  check tbool "asc" true (Value.equal (Value.asc v) (Value.longs [| 1; 2; 3 |]));
  check tbool "desc" true
    (Value.equal (Value.desc v) (Value.longs [| 3; 2; 1 |]));
  (* grading is stable *)
  let dup = Value.longs [| 2; 1; 2; 1 |] in
  let g = Value.grade_up dup in
  check (Alcotest.array tint) "stable grade" [| 1; 3; 0; 2 |] g

let test_distinct_group () =
  let v = Value.syms [| "a"; "b"; "a"; "c"; "b" |] in
  check tbool "distinct" true
    (Value.equal (Value.distinct v) (Value.syms [| "a"; "b"; "c" |]));
  match Value.group v with
  | Value.Dict (k, vals) ->
      check tbool "group keys" true
        (Value.equal k (Value.syms [| "a"; "b"; "c" |]));
      check tbool "group a-indices" true
        (Value.equal (Value.index vals 0) (Value.longs [| 0; 2 |]))
  | _ -> Alcotest.fail "group should give a dict"

let test_table_basics () =
  let t =
    Value.table
      [
        ("sym", Value.syms [| "a"; "b"; "a" |]);
        ("px", Value.floats [| 1.0; 2.0; 3.0 |]);
      ]
  in
  check tint "row count" 3 (Value.table_length t);
  check tbool "column lookup" true
    (Value.equal (Value.column_exn t "px") (Value.floats [| 1.0; 2.0; 3.0 |]));
  let filtered = Value.filter_table t [| 0; 2 |] in
  check tint "filtered rows" 2 (Value.table_length filtered);
  check tbool "filtered col" true
    (Value.equal
       (Value.column_exn filtered "px")
       (Value.floats [| 1.0; 3.0 |]))

let test_table_atom_broadcast () =
  let t = Value.table [ ("a", Value.til 3); ("b", Value.int 7) ] in
  check tbool "broadcast column" true
    (Value.equal (Value.column_exn t "b") (Value.longs [| 7; 7; 7 |]))

let test_flip_roundtrip () =
  let t =
    Value.Table (Value.table [ ("a", Value.til 2); ("b", Value.syms [| "x"; "y" |]) ])
  in
  check tbool "flip flip = id" true (Value.equal (Value.flip (Value.flip t)) t)

let test_xkey () =
  let t =
    Value.table
      [ ("k", Value.syms [| "a"; "b" |]); ("v", Value.longs [| 1; 2 |]) ]
  in
  match Value.xkey [ "k" ] t with
  | Value.KTable (kt, vt) ->
      check (Alcotest.array tstr) "key cols" [| "k" |] kt.Value.cols;
      check (Alcotest.array tstr) "val cols" [| "v" |] vt.Value.cols
  | _ -> Alcotest.fail "xkey should give a keyed table"

let test_dict_ops () =
  let d =
    Value.Dict (Value.syms [| "a"; "b" |], Value.longs [| 1; 2 |])
  in
  (match d with
  | Value.Dict (k, v) ->
      check tbool "lookup b" true
        (Value.equal (Value.dict_lookup k v (Value.sym "b")) (Value.int 2));
      check tbool "lookup missing is null" true
        (match Value.dict_lookup k v (Value.sym "zz") with
        | Value.Atom a -> Atom.is_null a
        | _ -> false);
      (match Value.dict_upsert k v (Value.sym "c") (Value.int 3) with
      | Value.Dict (k', _) -> check tint "upsert appends" 3 (Value.length k')
      | _ -> Alcotest.fail "upsert should give dict")
  | _ -> assert false);
  ()

let test_type_codes () =
  check tint "long atom" (-7) (Value.type_code (Value.int 1));
  check tint "long vector" 7 (Value.type_code (Value.til 3));
  check tint "table" 98
    (Value.type_code (Value.Table (Value.table [ ("a", Value.til 1) ])));
  check tint "general list" 0
    (Value.type_code (Value.List [| Value.int 1; Value.sym "s" |]))

(* [vector_of_atoms] keeps kdb+'s null rules: a null takes its
   neighbours' type, bool and char have no null ([0b] and [" "]), and a
   vector of nothing but nulls is longs *)
let test_vector_of_atoms_nulls () =
  let v = Value.vector_of_atoms in
  let elems x = Array.to_list (Value.atoms_exn x) in
  let same name want got =
    check tbool name true
      (Value.type_code got = Value.type_code want && Value.equal got want
      && List.for_all2 (fun a b -> Atom.is_null a = Atom.is_null b) (elems got)
           (elems want))
  in
  same "bool null is 0b" (Value.bools [| true; false |])
    (v [| Atom.Bool true; Atom.Null Qtype.Long |]);
  check tstr "char null is a blank" "a "
    (Value.to_string_exn (v [| Atom.Char 'a'; Atom.Null Qtype.Char |]));
  same "all null is longs" (Value.vector Qtype.Long [| Atom.Null Qtype.Long; Atom.Null Qtype.Long |])
    (v [| Atom.Null Qtype.Float; Atom.Null Qtype.Sym |]);
  check tint "all null type" 7
    (Value.type_code (v [| Atom.Null Qtype.Float; Atom.Null Qtype.Sym |]));
  List.iter
    (fun (a, ty) ->
      let x = v [| a; Atom.Null Qtype.Long |] in
      check tint (Qtype.name ty ^ " vector") (Qtype.code ty) (Value.type_code x);
      check tbool (Qtype.name ty ^ " null") true
        (match Value.index x 1 with
        | Value.Atom n -> Atom.is_null n && Qtype.equal (Atom.qtype n) ty
        | _ -> false))
    [
      (Atom.Long 1L, Qtype.Long);
      (Atom.Float 1.5, Qtype.Float);
      (Atom.Sym "a", Qtype.Sym);
      (Atom.Date 1, Qtype.Date);
      (Atom.Time 1, Qtype.Time);
      (Atom.Timestamp 1L, Qtype.Timestamp);
    ];
  same "mixed types stay a general list"
    (Value.List [| Value.int 1; Value.sym "a" |])
    (v [| Atom.Long 1L; Atom.Sym "a" |]);
  check tint "no atoms is the empty list" 0 (Value.type_code (v [||]))

(* ------------------------------------------------------------------ *)
(* QIPC round trip                                                     *)
(* ------------------------------------------------------------------ *)

let encode v =
  Qipc.Codec.encode_message ~compress:false
    { Qipc.Codec.mt = Qipc.Codec.Response; body = Qipc.Codec.Value v }

let decode bytes =
  match Qipc.Codec.decode_message bytes with
  | { Qipc.Codec.body = Qipc.Codec.Value v; _ }, _ -> v
  | _ -> Alcotest.fail "expected a value"

(* a value's type codes, its own and its parts', in order *)
let rec type_codes v =
  Value.type_code v
  ::
  (match v with
  | Value.List vs -> List.concat_map type_codes (Array.to_list vs)
  | Value.Dict (k, v) -> type_codes k @ type_codes v
  | Value.Table t -> List.concat_map type_codes (Array.to_list t.Value.data)
  | Value.KTable (k, v) -> type_codes (Value.Table k) @ type_codes (Value.Table v)
  | Value.Atom _ | Value.Vector _ -> [])

(* every Q type as a vector with its null and its extremes, and empty *)
let every_vector =
  let a = Atom.(
    [
      (Qtype.Bool, [| Bool true; Bool false |]);
      (Qtype.Long,
       [| Long 0L; Long Int64.max_int; Long (Int64.succ Int64.min_int); Null Qtype.Long |]);
      (Qtype.Float,
       [| Float 0.0; Float (-0.0); Float Float.infinity; Float Float.neg_infinity;
          Float 1e-300; Null Qtype.Float |]);
      (Qtype.Char, [| Char 'a'; Char ' '; Char '\000'; Char '\255' |]);
      (Qtype.Sym, [| Sym "a"; Sym ""; Null Qtype.Sym; Sym "longer symbol" |]);
      (Qtype.Date, [| Date 0; Date (-1); Date 0x7fff_ffff; Null Qtype.Date |]);
      (Qtype.Time, [| Time 0; Time 86_399_999; Time (-1); Null Qtype.Time |]);
      (Qtype.Timestamp,
       [| Timestamp 0L; Timestamp Int64.max_int; Timestamp (Int64.succ Int64.min_int);
          Null Qtype.Timestamp |]);
    ])
  in
  List.map (fun (ty, atoms) -> Value.vector ty atoms) a
  @ List.map (fun ty -> Value.vector ty [||]) Qtype.all

let every_atom =
  List.concat_map
    (fun v -> Array.to_list (Value.elements v))
    every_vector
  (* bool and char have no null atom on the wire: theirs is 0b, " " *)
  @ List.filter_map
      (fun ty ->
        match ty with
        | Qtype.Bool | Qtype.Char -> None
        | ty -> Some (Value.null ty))
      Qtype.all

(* [decode (encode v)] is [v] for every type, nulls included: equal as
   Q values, of the same types, and encoding to the same bytes *)
let test_qipc_roundtrip () =
  let cols = List.filter (fun v -> Value.length v = 4) every_vector in
  let values =
    every_vector @ every_atom
    @ [
        Value.List (Array.of_list every_atom);
        Value.Table
          (Value.table (List.mapi (fun i v -> (Printf.sprintf "c%d" i, v)) cols));
        Value.xkey [ "c0" ]
          (Value.table (List.mapi (fun i v -> (Printf.sprintf "c%d" i, v)) cols));
        Value.Dict (Value.syms [| "k"; "l" |], Value.floats [| Float.nan; -0.0 |]);
      ]
  in
  List.iter
    (fun v ->
      let name = Qprint.to_string v in
      let v' = decode (encode v) in
      check tbool (name ^ ": equal") true (Value.equal v v');
      check (Alcotest.list tint) (name ^ ": types") (type_codes v) (type_codes v');
      check tbool (name ^ ": same bytes") true (encode v' = encode v))
    values

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let atom_gen : Atom.t QCheck.arbitrary =
  QCheck.(
    oneof
      [
        map (fun b -> Atom.Bool b) bool;
        map (fun i -> Atom.Long (Int64.of_int i)) small_signed_int;
        map (fun f -> Atom.Float f) (float_bound_exclusive 1000.0);
        map (fun s -> Atom.Sym s) (string_small_of (Gen.char_range 'a' 'z'));
        always (Atom.Null Qtype.Long);
        always (Atom.Null Qtype.Float);
      ])

let prop_compare_total_order =
  QCheck.Test.make ~count:500 ~name:"atom compare is antisymmetric"
    (QCheck.pair atom_gen atom_gen) (fun (a, b) ->
      let c1 = Atom.compare a b and c2 = Atom.compare b a in
      (c1 = 0 && c2 = 0) || (c1 < 0 && c2 > 0) || (c1 > 0 && c2 < 0))

let prop_equal_reflexive =
  QCheck.Test.make ~count:500 ~name:"atom equality is reflexive (incl. nulls)"
    atom_gen (fun a -> Atom.equal a a)

let prop_take_length =
  QCheck.Test.make ~count:200 ~name:"take yields requested length"
    QCheck.(pair (int_range (-20) 20) (int_range 1 30))
    (fun (n, len) ->
      let v = Value.til len in
      Value.length (Value.take n v) = abs n)

let prop_rev_involution =
  QCheck.Test.make ~count:200 ~name:"reverse is an involution"
    QCheck.(list_of_size (Gen.int_range 0 20) small_signed_int)
    (fun xs ->
      let v = Value.longs (Array.of_list xs) in
      Value.equal (Value.rev (Value.rev v)) v)

let prop_asc_sorted =
  QCheck.Test.make ~count:200 ~name:"asc yields ascending order"
    QCheck.(list_of_size (Gen.int_range 0 30) small_signed_int)
    (fun xs ->
      let sorted = Value.asc (Value.longs (Array.of_list xs)) in
      let atoms = Value.atoms_exn sorted in
      let ok = ref true in
      for i = 0 to Array.length atoms - 2 do
        if Atom.compare atoms.(i) atoms.(i + 1) > 0 then ok := false
      done;
      !ok)

let prop_distinct_idempotent =
  QCheck.Test.make ~count:200 ~name:"distinct is idempotent"
    QCheck.(list_of_size (Gen.int_range 0 20) (int_range 0 5))
    (fun xs ->
      let v = Value.longs (Array.of_list xs) in
      Value.equal (Value.distinct v) (Value.distinct (Value.distinct v)))

(* [vector_of_atoms] over 1,000 freshly made (young) atoms: a typed
   vector's payload holds no pointer, and a general list starts out
   holding a static value, so it runs no minor collection. Mapped with [Array.map], each started from its first,
   young, element, and OCaml's [caml_make_vect] empties the minor heap
   before it makes an array over 256 words from a young value: one
   collection per call. *)
let test_vector_of_atoms_collections () =
  let young f =
    let a = Array.make 1000 (Atom.Null Qtype.Long) in
    for i = 0 to 999 do
      a.(i) <- f i
    done;
    a
  in
  let collections build =
    Gc.minor ();
    let atoms = build () in
    let c0 = (Gc.quick_stat ()).Gc.minor_collections in
    ignore (Sys.opaque_identity (Value.vector_of_atoms atoms));
    (Gc.quick_stat ()).Gc.minor_collections - c0
  in
  check tint "typed vector" 0
    (collections (fun () ->
         young (fun i ->
             if i = 7 then Atom.Null Qtype.Float
             else Atom.Float (float_of_int i))));
  check tint "general list" 0
    (collections (fun () ->
         young (fun i ->
             if i mod 2 = 0 then Atom.Long (Int64.of_int i)
             else Atom.Sym (string_of_int i))))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compare_total_order; prop_equal_reflexive; prop_take_length;
      prop_rev_involution; prop_asc_sorted; prop_distinct_idempotent;
    ]

let () =
  Alcotest.run "qvalue"
    [
      ( "atoms",
        [
          Alcotest.test_case "null equality (2VL)" `Quick test_null_equality;
          Alcotest.test_case "null propagation" `Quick test_null_propagation;
          Alcotest.test_case "arithmetic promotion" `Quick test_arith_promotion;
          Alcotest.test_case "date arithmetic" `Quick test_date_arith;
          Alcotest.test_case "date roundtrip" `Quick test_date_roundtrip;
          Alcotest.test_case "printing" `Quick test_atom_printing;
        ] );
      ( "values",
        [
          Alcotest.test_case "vector inference" `Quick test_vector_inference;
          Alcotest.test_case "til/take/drop" `Quick test_til_take_drop;
          Alcotest.test_case "where" `Quick test_where;
          Alcotest.test_case "sort and grade" `Quick test_sort_grade;
          Alcotest.test_case "distinct and group" `Quick test_distinct_group;
          Alcotest.test_case "table basics" `Quick test_table_basics;
          Alcotest.test_case "atom broadcast" `Quick test_table_atom_broadcast;
          Alcotest.test_case "flip roundtrip" `Quick test_flip_roundtrip;
          Alcotest.test_case "xkey" `Quick test_xkey;
          Alcotest.test_case "dict ops" `Quick test_dict_ops;
          Alcotest.test_case "type codes" `Quick test_type_codes;
          Alcotest.test_case "vector_of_atoms collections" `Quick
            test_vector_of_atoms_collections;
          Alcotest.test_case "vector_of_atoms nulls" `Quick
            test_vector_of_atoms_nulls;
          Alcotest.test_case "qipc round trip, every type" `Quick
            test_qipc_roundtrip;
        ] );
      ("properties", props);
    ]
