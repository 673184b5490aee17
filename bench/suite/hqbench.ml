(* hqbench: the layered end-to-end benchmark.

     hqbench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]

   With --workload, runs that workload on the real platform at server
   defaults for a fixed number of requests, about S seconds of work on
   the reference machine (Workloads.timed_requests), prints
   "workload metric value unit" for every metric, and
   prints as its last line one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics, or with --trace the per-layer ones.
   Without --workload it re-executes itself once per workload, so the
   process-wide pgdb counters, the GC heap and the shard domains of one
   workload never leak into the next. Exits 1 when any reply is an error
   or disagrees with the kdb interpreter, 2 on a usage error. *)

open Hqsuite

type opts = {
  workload : Workloads.t option;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
}

let usage =
  "usage: hqbench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
   [--smoke]\nworkloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let usage_error msg =
  prerr_endline ("hqbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse (args : string list) : opts =
  let num conv flag v =
    match conv v with Some x -> x | None -> usage_error ("bad " ^ flag ^ " " ^ v)
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> (
        match Workloads.find w with
        | Some w -> go { o with workload = Some w } rest
        | None -> usage_error ("unknown workload " ^ w))
    | "--seed" :: n :: rest -> go { o with seed = num int_of_string_opt "--seed" n } rest
    | "--seconds" :: s :: rest ->
        let s = num float_of_string_opt "--seconds" s in
        if s <= 0.0 then usage_error "--seconds must be positive";
        go { o with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | a :: _ -> usage_error ("unexpected argument " ^ a)
  in
  go { workload = None; seed = 1; seconds = 10.0; trace = false; smoke = false } args

(* JSON numbers: finite, with every digit *)
let num (x : float) : string =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let unit_of name =
  match List.assoc_opt name Harness.end_to_end with
  | Some u -> u
  | None -> (
      match List.assoc_opt name Layers.specs with
      | Some u -> u
      | None -> "ratio")

let report (w : Workloads.t) ~attempted ~failed
    (metrics : (string * float) list) : unit =
  List.iter
    (fun (name, v) ->
      Printf.printf "%s %s %s %s\n" w.Workloads.name name (num v) (unit_of name))
    (metrics
    @ [ ("error_rate", float_of_int failed /. float_of_int (max 1 attempted)) ]);
  let json =
    List.map
      (fun (name, v) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v)
          (unit_of name))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " json)

let trace_path (w : Workloads.t) ~seed : string option =
  (* only from the repository root; never create stray directories *)
  if Sys.file_exists "bench/suite" then begin
    if not (Sys.file_exists "bench/suite/out") then Sys.mkdir "bench/suite/out" 0o755;
    Some (Printf.sprintf "bench/suite/out/%s-seed%d.jsonl" w.Workloads.name seed)
  end
  else None

let run_one (o : opts) (w : Workloads.t) : int =
  let shapes = Workloads.shapes w in
  let requests = Workloads.timed_requests w ~seconds:o.seconds in
  let requests =
    if o.smoke then max shapes (requests / 50 / shapes * shapes) else requests
  in
  let s, setup_s, raw_setup_s =
    Harness.set_up_median w ~seed:o.seed ~times:(if o.smoke then 1 else 3)
  in
  let attempted, errors, metrics =
    if o.trace then begin
      let t = Layers.traced_phase s w ~requests in
      if w.Workloads.name = "analytical" then Layers.print_fig6 w s.Harness.d t;
      (match trace_path w ~seed:o.seed with
      | Some path -> Layers.write_jsonl path w t
      | None -> prerr_endline "hqbench: not at the repository root, spans not written");
      ( t.Layers.requests,
        t.Layers.errors,
        Layers.metrics ~shards:w.Workloads.shards t )
    end
    else begin
      (* ~20 blocks of whole shape cycles *)
      let block = shapes * max 1 (requests / (20 * shapes)) in
      let t = Harness.timed_phase w s ~requests ~block in
      let c = t.Harness.corrected and r = t.Harness.raw in
      (* the timings as measured; the metrics are at reference speed *)
      List.iter
        (fun (name, v, u) ->
          Printf.printf "%s %s %s %s\n" w.Workloads.name name (num v) u)
        [
          ("raw.qps", r.Harness.qps, "req/s");
          ("raw.p50_ms", 1e3 *. r.Harness.p50_s, "ms");
          ("raw.p99_ms", 1e3 *. r.Harness.p99_s, "ms");
          ("raw.setup_s", raw_setup_s, "s");
          ("slowdown", t.Harness.slowdown, "ratio");
        ];
      ( requests,
        t.Harness.errors,
        [
          ("qps", c.Harness.qps);
          ("p50_ms", 1e3 *. c.Harness.p50_s);
          ("p99_ms", 1e3 *. c.Harness.p99_s);
          ("setup_s", setup_s);
          ("peak_heap_mb", t.Harness.heap_mb);
        ] )
    end
  in
  let mismatches =
    Oracle.check s.Harness.platform s.Harness.d
      ~setup:(w.Workloads.setup s.Harness.d)
      (Array.sub s.Harness.reqs 0 (2 * shapes))
  in
  Harness.tear_down s;
  List.iter
    (fun (text, why) -> Printf.eprintf "hqbench: oracle mismatch: %s: %s\n" text why)
    mismatches;
  let failed = errors + List.length mismatches in
  report w ~attempted ~failed metrics;
  if failed = 0 then 0 else 1

(* one child process per workload *)
let run_all (o : opts) : int =
  List.fold_left
    (fun code (w : Workloads.t) ->
      let args =
        [ Sys.executable_name; "--workload"; w.Workloads.name; "--seed";
          string_of_int o.seed; "--seconds"; num o.seconds; "--trace";
          (if o.trace then "1" else "0") ]
        @ if o.smoke then [ "--smoke" ] else []
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
          Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> code
      | _ -> 1)
    0 Workloads.all

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  let code =
    match o.workload with
    | Some w -> (
        try run_one o w
        with Failure msg ->
          prerr_endline ("hqbench: " ^ msg);
          1)
    | None -> run_all o
  in
  exit code
