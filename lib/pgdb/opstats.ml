(** Per-operator execution statistics for the pgdb executor.

    When a session runs with ANALYZE collection enabled, {!Vexec} builds one
    of these trees per SELECT: a plan-shaped record of what each operator
    (scan/filter/join/aggregate/sort/limit/...) actually did — rows in, rows
    out, self-time — next to the naive cardinality estimate the executor
    would have planned with. The tree is the raw material for `.hq.explain`
    and `GET /explain.json` in the observability layer; keeping the annotations on the plan tree itself
    (rather than in side tables) follows the IR-design argument in the
    paper's related work.

    Kept dependency-light so the executor stays at the bottom of the
    library stack: nodes are immutable, built bottom-up as each operator
    finishes, and rendered to JSON with a local escaper. *)

type node = {
  op : string;  (** operator kind: scan/filter/hash_join/aggregate/... *)
  detail : string;  (** operator argument: table name, join kind, keys... *)
  est_rows : int;  (** naive planner-style cardinality estimate *)
  rows_in : int;  (** input rows consumed (sum over inputs) *)
  rows_out : int;  (** output rows produced *)
  self_ns : int64;  (** time in this operator, excluding children *)
  children : node list;
}

let make ~op ~detail ~est_rows ~rows_in ~rows_out ~self_ns ~children =
  { op; detail; est_rows; rows_in; rows_out; self_ns; children }

let leaf ~op ~detail ~est_rows ~rows_out ~self_ns =
  make ~op ~detail ~est_rows ~rows_in:rows_out ~rows_out ~self_ns ~children:[]

(** Inclusive time: self plus all descendants. *)
let rec total_ns (n : node) : int64 =
  List.fold_left (fun acc c -> Int64.add acc (total_ns c)) n.self_ns n.children

(** Depth-first pre-order flattening with depth, for tabular rendering. *)
let flatten (n : node) : (int * node) list =
  let rec go depth n acc =
    (depth, n) :: List.fold_right (go (depth + 1)) n.children acc
  in
  go 0 n []

(** The node that spent the most self-time — the headline answer to "where
    did this query go". *)
let top_operator (n : node) : node =
  List.fold_left
    (fun best (_, m) -> if m.self_ns > best.self_ns then m else best)
    n (flatten n)

(** Classic q-error: max(est/actual, actual/est), both clamped to >= 1 so
    empty results do not divide by zero. Always >= 1.0; 1.0 is a perfect
    estimate. *)
let qerror ~est ~actual : float =
  let e = float_of_int (Stdlib.max 1 est) in
  let a = float_of_int (Stdlib.max 1 actual) in
  Float.max (e /. a) (a /. e)

(** Worst misestimated node in the tree and its q-error. *)
let worst_estimate (n : node) : node * float =
  List.fold_left
    (fun ((_, bq) as best) (_, m) ->
      let q = qerror ~est:m.est_rows ~actual:m.rows_out in
      if q > bq then (m, q) else best)
    (n, qerror ~est:n.est_rows ~actual:n.rows_out)
    (flatten n)

(** Total rows read out of base-table scans, the "work touched" measure
    of one analyzed plan. *)
let rows_scanned (n : node) : int =
  List.fold_left
    (fun acc (_, m) ->
      if m.op = "vector_scan" then acc + m.rows_out else acc)
    0 (flatten n)

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ms_of_ns ns = Int64.to_float ns /. 1e6

let rec render buf (n : node) =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"op\":\"%s\",\"detail\":\"%s\",\"est_rows\":%d,\"rows_in\":%d,\"rows_out\":%d,\"self_ms\":%.4f,\"children\":["
       (json_escape n.op) (json_escape n.detail) n.est_rows n.rows_in
       n.rows_out (ms_of_ns n.self_ns));
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      render buf c)
    n.children;
  Buffer.add_string buf "]}"

let to_json (n : node) : string =
  let buf = Buffer.create 256 in
  render buf n;
  Buffer.contents buf
