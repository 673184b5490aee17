type error = { error_class : string; message : string }

type analysis = {
  doc : string;
  top_operator : string;
  route : string;
  cache : string;
  shards : int;
  rows_scanned : int;
  plan_rows_out : int;
  worst_qerror : float;
}

type t = {
  ts : float;
  trace_id : string;
  fingerprint : string;
  query : string;
  query_sha : string;
  query_bytes : int;
  duration_s : float;
  error : error option;
  rows_out : int;
  bytes_in : int;
  bytes_out : int;
  alloc_bytes : float;
  minor_gcs : int;
  stages : (string * float) list;
  sql : string list;
  sql_statements : int;
  span : Trace.span;
  analysis : analysis option;
}

let categorise (e : string) : error =
  let error_class =
    match String.index_opt e ']' with
    | Some i when String.length e > 2 && e.[0] = '[' -> String.sub e 1 (i - 1)
    | _ -> "other"
  in
  { error_class; message = e }

let status q = if q.error = None then "ok" else "error"

let event q =
  Relation.
    [
      ("ts", Float q.ts);
      ("query_sha", Str q.query_sha);
      ("query_bytes", Int q.query_bytes);
      ("status", Str (status q));
      ( "error_class",
        Str (match q.error with Some e -> e.error_class | None -> "") );
      ("duration_ms", Float (q.duration_s *. 1000.0));
      ( "stages_us",
        Json (obj (List.map (fun (n, s) -> (n, Float (s *. 1e6))) q.stages)) );
      ("rows_out", Int q.rows_out);
      ("qipc_bytes_in", Int q.bytes_in);
      ("qipc_bytes_out", Int q.bytes_out);
      ("sql_statements", Int q.sql_statements);
    ]

let log_fields q =
  Relation.
    [
      ("fingerprint", Str q.fingerprint);
      ("status", Str (status q));
      ("duration_ms", Float (q.duration_s *. 1e3));
    ]
