(** The side-by-side testing framework (paper Section 5).

    "As we implemented features from the customer workload, we needed a way
    to ensure the exact same behavior to the application as before. For
    this purpose we built a side-by-side testing framework..."

    Each Q query runs twice: on the kdb interpreter (the reference
    semantics) and through Hyper-Q against the PG backend. Results are
    normalised — keyed tables unkeyed, dictionaries tabulated, floats
    compared within a tolerance, temporal values compared numerically —
    and diffed cell by cell. *)

module QV = Qvalue.Value
module QA = Qvalue.Atom

type verdict =
  | Match
  | Mismatch of string  (** human-readable first difference *)
  | Kdb_error of string
  | Hyperq_error of string

type report = { query : string; verdict : verdict }

(* ------------------------------------------------------------------ *)
(* Normalisation                                                       *)
(* ------------------------------------------------------------------ *)

(* compare atoms numerically across types, with a relative tolerance for
   floats (aggregation orders differ between the two engines) *)
let atoms_agree (a : QA.t) (b : QA.t) : bool =
  match (QA.is_null a, QA.is_null b) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false -> (
      match (a, b) with
      | QA.Sym x, QA.Sym y -> x = y
      | QA.Char x, QA.Char y -> x = y
      | _ -> (
          match (QA.to_float a, QA.to_float b) with
          | exception _ -> QA.equal a b
          | x, y ->
              let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
              Float.abs (x -. y) /. scale < 1e-9))

let rec values_agree (a : QV.t) (b : QV.t) : string option =
  let a = QV.unkey a and b = QV.unkey b in
  match (a, b) with
  | QV.Atom x, QV.Atom y ->
      if atoms_agree x y then None
      else
        Some
          (Printf.sprintf "atom %s vs %s" (QA.to_string x) (QA.to_string y))
  | QV.Table ta, QV.Table tb ->
      if ta.QV.cols <> tb.QV.cols then
        Some
          (Printf.sprintf "columns [%s] vs [%s]"
             (String.concat ";" (Array.to_list ta.QV.cols))
             (String.concat ";" (Array.to_list tb.QV.cols)))
      else if QV.table_length ta <> QV.table_length tb then
        Some
          (Printf.sprintf "row counts %d vs %d" (QV.table_length ta)
             (QV.table_length tb))
      else begin
        let issue = ref None in
        Array.iteri
          (fun ci cname ->
            if !issue = None then
              let ca = ta.QV.data.(ci) and cb = tb.QV.data.(ci) in
              for i = 0 to QV.table_length ta - 1 do
                if !issue = None then
                  match values_agree (QV.index ca i) (QV.index cb i) with
                  | Some d ->
                      issue :=
                        Some (Printf.sprintf "column %s row %d: %s" cname i d)
                  | None -> ()
              done)
          ta.QV.cols;
        !issue
      end
  | QV.Dict (ka, va), QV.Dict (kb, vb) -> (
      match values_agree ka kb with
      | Some d -> Some ("dict keys: " ^ d)
      | None -> (
          match values_agree va vb with
          | Some d -> Some ("dict values: " ^ d)
          | None -> None))
  | (QV.Vector _ | QV.List _), (QV.Vector _ | QV.List _) ->
      let xs = QV.elements a and ys = QV.elements b in
      if Array.length xs <> Array.length ys then
        Some
          (Printf.sprintf "lengths %d vs %d" (Array.length xs)
             (Array.length ys))
      else begin
        let issue = ref None in
        Array.iteri
          (fun i x ->
            if !issue = None then
              match values_agree x ys.(i) with
              | Some d -> issue := Some (Printf.sprintf "index %d: %s" i d)
              | None -> ())
          xs;
        !issue
      end
  | _ ->
      Some
        (Printf.sprintf "shapes differ: %s vs %s"
           (Qvalue.Qprint.to_string a) (Qvalue.Qprint.to_string b))

let column_types (v : QV.t) : string list =
  let type_name = function
    | QV.Vector (ty, _) -> Qvalue.Qtype.name ty
    | QV.List _ -> "general"
    | QV.Atom a -> Qvalue.Qtype.name (QA.qtype a) ^ " atom"
    | _ -> "not a list"
  in
  let rec types v =
    match QV.unkey v with
    | QV.Table t -> Array.to_list (Array.map type_name t.QV.data)
    | QV.Dict (k, v) -> types k @ types v
    | v -> [ type_name v ]
  in
  types v

let types_agree (a : QV.t) (b : QV.t) : string option =
  let ta = column_types a and tb = column_types b in
  if ta = tb then None
  else
    Some
      (Printf.sprintf "column types [%s] vs [%s]" (String.concat ";" ta)
         (String.concat ";" tb))

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

type harness = {
  kdb : Kdb.Server.t;
  engine : Hyperq.Engine.t;
}

(** Build a harness over one generated dataset: the same data is loaded
    into the kdb interpreter and (via {!Workload.Marketdata.load_pg}) into
    the PG backend Hyper-Q talks to. *)
let create (d : Workload.Marketdata.dataset) : harness =
  let kdb = Kdb.Server.create () in
  List.iter
    (fun (name, v) -> Kdb.Server.load kdb name v)
    (Workload.Marketdata.q_tables d);
  let db = Pgdb.Db.create () in
  Workload.Marketdata.load_pg db d;
  let sess = Pgdb.Db.open_session db in
  let engine = Hyperq.Engine.create (Hyperq.Backend.of_pgdb_session sess) in
  { kdb; engine }

(** Run one Q program on both sides and compare. *)
let compare_query (h : harness) ?(setup = []) (src : string) : verdict =
  let kdb_result =
    List.iter
      (fun s -> ignore (Kdb.Server.query h.kdb ~client:0 s))
      setup;
    Kdb.Server.query h.kdb ~client:0 src
  in
  let hq_result =
    List.iter
      (fun s ->
        ignore (Hyperq.Engine.try_run h.engine (Qlang.Fingerprint.analyze s)))
      setup;
    Hyperq.Engine.try_run h.engine (Qlang.Fingerprint.analyze src)
  in
  match (kdb_result, hq_result) with
  | Error e, _ -> Kdb_error e
  | _, Error e -> Hyperq_error e
  | Ok kv, Ok { Hyperq.Engine.value = Some hv; _ } -> (
      match values_agree kv hv with
      | None -> Match
      | Some d -> Mismatch d)
  | Ok _, Ok { Hyperq.Engine.value = None; _ } -> Match (* definitions *)

(** Run the whole workload; returns one report per query. *)
let run_workload (d : Workload.Marketdata.dataset) : report list =
  let h = create d in
  List.map
    (fun (q : Workload.Analytical.query) ->
      {
        query = Printf.sprintf "Q%02d %s" q.Workload.Analytical.id q.Workload.Analytical.name;
        verdict = compare_query h ~setup:q.Workload.Analytical.setup q.Workload.Analytical.text;
      })
    (Workload.Analytical.queries d)

let verdict_str = function
  | Match -> "match"
  | Mismatch d -> "MISMATCH: " ^ d
  | Kdb_error e -> "kdb error: " ^ e
  | Hyperq_error e -> "hyper-q error: " ^ e
